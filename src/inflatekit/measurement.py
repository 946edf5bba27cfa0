"""Indentation measurement data: ingestion, validation, and drop-test COR.

This module is the boundary between physical sensing and computation.
Force/depth pairs arrive as CSV files written by the sensor side; everything
downstream works on the immutable types defined here.

CSV contract (bit-exact): UTF-8, header line ``force_N,depth_m``, decimal
point ``.``, one sample per line, ``#``-prefixed comment lines ignored.
All units SI by contract; there is no unit auto-detection.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from .errors import InsufficientDataError, ParseError, ValidationError

CSV_HEADER = "force_N,depth_m"

# h << R is required by shallow-shell theory; there is no hard cutoff, so
# ratios above this only warn.
THICKNESS_RATIO_WARN = 0.05

MIN_SAMPLES = 3


@dataclass(frozen=True)
class IndentationSample:
    """A single {F, w(0)} pair: point force (N) and indentation depth (m).

    Depths are stored as positive magnitudes; the solver's nondimensional
    displacement convention (negative inward) is applied in the estimator.
    """

    force: float
    depth: float

    def __post_init__(self):
        if not (0 < self.force < math.inf):
            raise ValidationError(f"force must be finite and > 0, got {self.force}")
        if not (0 < self.depth < math.inf):
            raise ValidationError(f"depth must be finite and > 0, got {self.depth}")


@dataclass(frozen=True)
class IndentationSeries:
    """Ordered indentation samples for one surface region of one object."""

    samples: tuple[IndentationSample, ...]
    object_id: str
    region_radius: float  # local curvature radius R (m)
    region_thickness: float  # shell thickness h (m)

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))
        if len(self.samples) < MIN_SAMPLES:
            raise InsufficientDataError(
                f"need at least {MIN_SAMPLES} samples, got {len(self.samples)}"
            )
        if not (self.region_radius > 0):
            raise ValidationError("region_radius must be > 0")
        if not (self.region_thickness > 0):
            raise ValidationError("region_thickness must be > 0")
        if not (self.region_thickness < self.region_radius):
            raise ValidationError("region_thickness must be < region_radius")
        ratio = self.region_thickness / self.region_radius
        if ratio > THICKNESS_RATIO_WARN:
            warnings.warn(
                f"h/R = {ratio:.3g} > {THICKNESS_RATIO_WARN}; "
                "shallow-shell assumption h << R is strained",
                stacklevel=2,
            )

    @property
    def forces(self):
        return [s.force for s in self.samples]

    @property
    def depths(self):
        return [s.depth for s in self.samples]


@dataclass(frozen=True)
class DropTest:
    """Free-fall drop test: drop height H and bounce height h_b (m)."""

    drop_height: float
    bounce_height: float

    def __post_init__(self):
        if not (self.drop_height > 0):
            raise ValidationError("drop_height must be > 0")
        if not (0 < self.bounce_height <= self.drop_height):
            raise ValidationError(
                "bounce_height must satisfy 0 < bounce_height <= drop_height"
            )


def restitution_coefficient(test: DropTest) -> float:
    """Coefficient of restitution sqrt(bounce_height / drop_height)."""
    return math.sqrt(test.bounce_height / test.drop_height)


def parse_series(
    path, region_radius: float, region_thickness: float, object_id: str | None = None
) -> IndentationSeries:
    """Read an indentation CSV file into an IndentationSeries.

    Raises ParseError for malformed rows (with line number), ValidationError
    for nonpositive values, InsufficientDataError for fewer than 3 samples.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    samples = []
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty file", line=1, path=str(path))
    header = lines[0].strip()
    if header != CSV_HEADER:
        raise ParseError(
            f"expected header {CSV_HEADER!r}, got {header!r}", line=1, path=str(path)
        )
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(
                f"expected 2 comma-separated fields, got {len(parts)}",
                line=lineno,
                path=str(path),
            )
        try:
            force = float(parts[0])
            depth = float(parts[1])
        except ValueError:
            raise ParseError(
                f"non-numeric value in row {line!r}", line=lineno, path=str(path)
            ) from None
        if not (math.isfinite(force) and math.isfinite(depth)):
            raise ValidationError(f"{path}:{lineno}: non-finite value")
        if force <= 0 or depth <= 0:
            raise ValidationError(
                f"{path}:{lineno}: force and depth must be > 0, "
                f"got ({force}, {depth})"
            )
        samples.append(IndentationSample(force=force, depth=depth))
    if len(samples) < MIN_SAMPLES:
        raise InsufficientDataError(
            f"{path}: need at least {MIN_SAMPLES} valid rows, got {len(samples)}"
        )
    return IndentationSeries(
        samples=tuple(samples),
        object_id=object_id if object_id is not None else path.stem,
        region_radius=region_radius,
        region_thickness=region_thickness,
    )


def serialize_series(series: IndentationSeries, path) -> None:
    """Write a series back to the CSV interchange format."""
    path = Path(path)
    lines = [CSV_HEADER]
    for s in series.samples:
        lines.append(f"{s.force!r},{s.depth!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
