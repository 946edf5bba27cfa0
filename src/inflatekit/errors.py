"""Exception hierarchy shared by all inflatekit modules, and its input checks."""

import math
import numbers
from decimal import Decimal

import numpy as np


class InflatekitError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2  # the CLI's exit status: invalid input; a numerical failure sets 3


class ValidationError(InflatekitError):
    """An input value violates a documented invariant."""


class ParseError(InflatekitError):
    """A file is syntactically malformed; carries the offending line number."""

    def __init__(self, message, line=None, path=None):
        self.line = line
        self.path = path
        where = ":".join(str(part) for part in (path, line) if part is not None)
        super().__init__(f"{where}: {message}" if where else message)


class InsufficientDataError(ValidationError):
    """Too few samples/records for the requested fit."""


class RankDeficientError(InflatekitError):
    """Regression system has no unique solution (e.g. all depths equal)."""

    exit_code = 3


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

    exit_code = 3

    def __init__(self, message, last_good_w0=None):
        self.last_good_w0 = last_good_w0
        super().__init__(message)


class SimulationInstabilityError(InflatekitError):
    """Time stepping produced an inverted element or non-finite state."""

    exit_code = 3

    def __init__(self, message, face_id=None, frame=None):
        self.face_id = face_id
        self.frame = frame
        super().__init__(message)


class RelaxationTimeoutError(InflatekitError):
    """Quasi-static equilibrium not reached: a free vertex keeps a net force
    of RELAX_FORCE_TOL or more after the potential was minimised."""

    exit_code = 3


def show(value) -> str:
    """value as an error message shows it: an integer of more than 15 digits
    as its leading digits and digit count (str() refuses one beyond 4300
    digits), a string quoted, a list, tuple or dict by its type and length."""
    if isinstance(value, int) and not -(10**15) < value < 10**15:
        sign, digits, _ = Decimal(value).as_tuple()
        return f"{'-' * sign}{''.join(map(str, digits[:6]))}... ({len(digits)} digits)"
    if isinstance(value, str):
        return repr(value)
    if isinstance(value, (list, tuple, dict)):
        return f"a {type(value).__name__} of {len(value)}"
    return f"{value}"


def number(name, value) -> float:
    """value as a float: a real number, not a bool, that is finite as a float."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            result = float(value)
        except OverflowError:  # an int beyond the float range
            result = math.inf
        if math.isfinite(result):
            return result
    raise ValidationError(f"{name} must be a finite number, got {show(value)}")


def positive(name, value, error=ValidationError) -> float:
    """number(name, value) when it is > 0; any refused value raises error."""
    try:
        result = number(name, value)
    except ValidationError:
        result = math.nan
    if not result > 0:
        raise error(f"{name} must be finite and > 0, got {show(value)}")
    return result


def poisson(name, value) -> float:
    """number(name, value) when it is in (0, 0.5), the range of a Poisson ratio."""
    result = number(name, value)
    if not 0 < result < 0.5:
        raise ValidationError(f"{name} must be in (0, 0.5), got {result}")
    return result


def vector(name, value) -> tuple:
    """value as a tuple of 3 floats: a list, tuple or 1-d array of 3 numbers."""
    sized = isinstance(value, (list, tuple)) or isinstance(value, np.ndarray) and value.ndim == 1
    if not (sized and len(value) == 3):
        raise ValidationError(f"{name} must be 3 numbers, got {show(value)}")
    return tuple(number(f"{name}[{i}]", v) for i, v in enumerate(value))


def sequence(name, value, kind) -> tuple:
    """value as a tuple: a list or tuple of kind instances."""
    if not (isinstance(value, (list, tuple)) and all(isinstance(v, kind) for v in value)):
        raise ValidationError(f"{name} must be a sequence of {kind.__name__}, got {show(value)}")
    return tuple(value)


def instance(name, value, kind):
    """value when it is a kind instance."""
    if not isinstance(value, kind):
        article = "an" if kind.__name__[0] in "AEIOU" else "a"
        raise ValidationError(f"{name} must be {article} {kind.__name__}, got {type(value).__name__}")
    return value


def integer(name, value, low, high, error=ValidationError) -> int:
    """value as an int: an int or numpy integer, not a bool, in [low, high].
    A value out of range raises error, any other refused value ValidationError."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got {show(value)}")
    if not low <= value <= high:
        raise error(f"{name} must be in [{low}, {high}], got {show(value)}")
    return int(value)
