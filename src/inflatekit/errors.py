"""Exception hierarchy shared by all inflatekit modules."""


class InflatekitError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(InflatekitError):
    """An input value violates a documented invariant."""


class ParseError(InflatekitError):
    """A file is syntactically malformed; carries the offending line number."""

    def __init__(self, message, line=None, path=None):
        self.line = line
        self.path = path
        prefix = ""
        if path is not None:
            prefix += f"{path}:"
        if line is not None:
            prefix += f"{line}: "
        super().__init__(prefix + message)


class InsufficientDataError(ValidationError):
    """Too few samples/records for the requested fit."""


class RankDeficientError(InflatekitError):
    """Regression system has no unique solution (e.g. all depths equal)."""


class IndexRangeError(ValidationError):
    """A vertex or face index is out of range."""


class TopologyError(InflatekitError):
    """Mesh is not watertight / consistently oriented."""

    def __init__(self, message, boundary_edges=None):
        self.boundary_edges = boundary_edges or []
        super().__init__(message)


class InsufficientPatchError(ValidationError):
    """Selected surface patch has too few vertices for a stable fit."""


class DegenerateFitError(InflatekitError):
    """Patch is coplanar (or nearly so); sphere fit is undefined."""


class NonConvergenceError(InflatekitError):
    """Newton/continuation failed; carries the last depth that converged."""

    def __init__(self, message, last_good_w0=None):
        self.last_good_w0 = last_good_w0
        super().__init__(message)


class SimulationInstabilityError(InflatekitError):
    """Time stepping produced an inverted element or non-finite state."""

    def __init__(self, message, face_id=None, frame=None):
        self.face_id = face_id
        self.frame = frame
        super().__init__(message)


class RelaxationTimeoutError(InflatekitError):
    """Quasi-static equilibrium not reached: a free vertex keeps a net force
    of RELAX_FORCE_TOL or more after the potential was minimised."""


class EmptyContactError(InflatekitError):
    """No vertices in contact with the ground plane."""
