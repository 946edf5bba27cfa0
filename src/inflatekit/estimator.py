"""Pressure and modulus estimation from indentation measurements.

Three-step workflow mirroring the field procedure:

1. calibrate_ks: one-time calibration of the linear force factor k_s from
   objects with manometer-measured gauge pressure.
2. estimate_pressure: gauge pressure of a new object from an indentation
   series, using F ~ pi * k_s * R * Pg * w.
3. run_procedure3: elastic modulus from the observed wrinkle count via
   E ~ sqrt(12 (1 - nu^2)) * (1.33 R / (n h))^2 * Pg.

A critical-depth modulus route exists for cross-checks but its measurement
sensitivity makes it unreliable; it is quarantined behind an explicit tag.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
import warnings
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InsufficientDataError,
    RankDeficientError,
    ValidationError,
    instance,
    number,
    positive,
    sequence,
    show,
)
from .measurement import IndentationSeries
from .shell import DEFAULT_NU, WRINKLE_FACTOR

# Wrinkling onset depth magnitude in units of l_p^2/R: the paper's rounded
# value.  shell.critical_depth solves the membrane equations to 2.5306 at
# nu = 0.4, 0.4% deeper.
CRITICAL_DEPTH_FACTOR = 2.52

# r2 below this suggests the linear force-depth model is a poor fit
R2_WARN_THRESHOLD = 0.9


@dataclass(frozen=True)
class RegressionResult:
    """Through-origin fit of force against depth for one series."""

    Pg_hat: float  # slope / (pi R): k_s-scaled pressure estimate (Pa)
    slope: float  # N/m
    r2: float


@dataclass(frozen=True)
class CalibrationRecord:
    """One calibration object: manometer pressure and its k_s-scaled estimate."""

    measured_Pg: float  # Pa, ground truth
    estimated_Pg_hat: float  # Pa, regress_phat output

    def __post_init__(self):
        for name in ("measured_Pg", "estimated_Pg_hat"):
            object.__setattr__(self, name, positive(name, getattr(self, name)))


@dataclass(frozen=True)
class Calibration:
    """Calibrated linear force factor k_s with its provenance."""

    ks: float
    records: tuple[CalibrationRecord, ...]
    fit_r2: float

    def __post_init__(self):
        object.__setattr__(self, "records", sequence("records", self.records, CalibrationRecord))
        object.__setattr__(self, "ks", positive("ks", self.ks))
        object.__setattr__(self, "fit_r2", number("fit_r2", self.fit_r2))


@dataclass(frozen=True)
class Estimate:
    """Estimated material state of one object plus fit diagnostics."""

    object_id: str
    Pg: float  # Pa
    E: float  # Pa
    nu: float
    ks_used: float
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "object_id": self.object_id,
            "Pg_pa": self.Pg,
            "E_pa": self.E,
            "nu": self.nu,
            "ks_used": self.ks_used,
            "diagnostics": dict(self.diagnostics),
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)


def _through_origin(x: np.ndarray, y: np.ndarray, x_label, y_label) -> tuple[float, float]:
    """Slope and r2 of y ~ slope * x (no intercept).

    r2 is computed against the through-origin model: 1 - SS_res / sum(y^2).
    Raises ValidationError, naming x or y by its (name, unit) label, when
    the squares of either overflow or underflow double precision.
    """
    # while n * max(v)^2 is finite for x and y no sum below overflows, and
    # while max(v)^2 is a normal double no sum underflows to zero
    for v, (name, unit) in ((x, x_label), (y, y_label)):
        peak = float(np.max(np.abs(v)))
        if not math.isfinite(peak * peak * v.size):
            problem = "too large to fit: their squares overflow"
        elif 0 < peak and peak * peak < sys.float_info.min:
            problem = "too small to fit: their squares underflow"
        else:
            continue
        raise ValidationError(f"{name} up to {peak:.3g} {unit} are {problem} double precision")
    sxx = float(np.dot(x, x))
    if sxx == 0.0:
        raise RankDeficientError("all abscissa values are zero")
    slope = float(np.dot(x, y)) / sxx
    ss_res = float(np.sum((y - slope * x) ** 2))
    ss_tot = float(np.sum(y**2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return slope, r2


def regress_phat(series: IndentationSeries) -> RegressionResult:
    """Through-origin regression of force on depth; returns slope/(pi R).

    The slope of F against w(0) equals pi * k_s * R * Pg, so slope/(pi R)
    is the k_s-scaled pressure estimate P_hat. Raises RankDeficientError
    when all depths coincide (the depth design carries no information),
    and ValidationError for depths or forces whose squares overflow or
    underflow double precision.
    """
    instance("series", series, IndentationSeries)
    forces = np.asarray(series.forces, dtype=float)
    depths = np.asarray(series.depths, dtype=float)
    if np.ptp(depths) == 0.0:
        raise RankDeficientError(
            f"all {len(depths)} depths are identical ({depths[0]} m); "
            "slope is not identifiable"
        )
    slope, r2 = _through_origin(depths, forces, ("depths", "m"), ("forces", "N"))
    pg_hat = slope / (math.pi * series.region_radius)
    if r2 < R2_WARN_THRESHOLD:
        warnings.warn(
            f"force-depth linear fit r2 = {r2:.3f} < {R2_WARN_THRESHOLD}; "
            "linear pressure model is questionable for this series",
            stacklevel=2,
        )
    return RegressionResult(Pg_hat=pg_hat, slope=slope, r2=r2)


def calibrate_ks(records) -> Calibration:
    """Fit k_s as the through-origin slope of P_hat against measured Pg;
    records is any iterable of CalibrationRecord."""
    instance("records", records, Iterable)
    records = sequence("records", tuple(records), CalibrationRecord)
    distinct = {r.measured_Pg for r in records}
    if len(distinct) < 2:
        raise InsufficientDataError(
            f"need records at >= 2 distinct pressures, got {len(distinct)}"
        )
    pg = np.array([r.measured_Pg for r in records])
    pg_hat = np.array([r.estimated_Pg_hat for r in records])
    labels = ("measured pressures", "Pa"), ("pressure estimates", "Pa")
    ks, r2 = _through_origin(pg, pg_hat, *labels)
    return Calibration(ks=ks, records=records, fit_r2=r2)


def estimate_pressure(series: IndentationSeries, cal: Calibration) -> float:
    """Gauge pressure (Pa): k_s-scaled regression estimate divided by k_s."""
    instance("cal", cal, Calibration)
    return regress_phat(series).Pg_hat / cal.ks


def estimate_modulus_from_wrinkles(
    R: float, h: float, n: float, Pg: float, nu: float = DEFAULT_NU
) -> float:
    """Elastic modulus (Pa) from the observed radial wrinkle count n.

    E = sqrt(12 (1 - nu^2)) * (1.33 R / (n h))^2 * Pg.  n is normally an
    observed integer; non-integer values are accepted for algebraic
    cross-checks.  An E that overflows or underflows double precision
    raises ValidationError.
    """
    R, h, Pg = (positive(name, value) for name, value in (("R", R), ("h", h), ("Pg", Pg)))
    if not (isinstance(n, numbers.Real) and not isinstance(n, bool) and n >= 1):
        raise ValidationError(f"n must be a number >= 1, got {show(n)}")
    nu = number("nu", nu)
    if not (0 < nu < 0.5):
        raise ValidationError(f"nu must be in (0, 0.5), got {nu}")
    try:
        e_mod = math.sqrt(12.0 * (1.0 - nu**2)) * (WRINKLE_FACTOR * R / (float(n) * h)) ** 2 * Pg
    except OverflowError:  # the square, or an int n beyond float range
        e_mod = math.inf
    if not (0 < e_mod < math.inf):
        raise ValidationError(
            f"modulus E from n = {show(n)} overflows or underflows double precision"
        )
    return e_mod


@dataclass(frozen=True)
class TaggedModulus:
    """Modulus estimate carrying a reliability tag.

    The critical-depth route amplifies depth measurement error into
    modulus error of order 100%, so it is never returned as a bare float.
    """

    E: float
    tag: str


UNRELIABLE = "UNRELIABLE"


def estimate_modulus_from_critical_depth(
    R: float, h: float, wc: float, Pg: float
) -> TaggedModulus:
    """Elastic modulus from the critical wrinkling depth wc (m).

    E = 2.52 * Pg * R^2 / (h * wc).  Always tagged UNRELIABLE: the onset
    depth is hard to measure and the error propagates directly into E.
    Use estimate_modulus_from_wrinkles for actual estimation.  An E that
    overflows or underflows double precision raises ValidationError.
    """
    for name, value in (("R", R), ("h", h), ("wc", wc), ("Pg", Pg)):
        positive(name, value)
    try:
        e_mod = CRITICAL_DEPTH_FACTOR * Pg * R**2 / (h * wc)
    except (OverflowError, ZeroDivisionError):  # R^2 beyond float range, or h * wc -> 0
        e_mod = math.inf
    if not (0 < e_mod < math.inf):
        raise ValidationError(f"modulus E from wc = {wc} overflows or underflows double precision")
    return TaggedModulus(E=e_mod, tag=UNRELIABLE)


def run_procedure3(
    series: IndentationSeries,
    cal: Calibration,
    n: int,
    nu: float = DEFAULT_NU,
) -> Estimate:
    """Full estimation chain: pressure from the series, modulus from n.

    Diagnostics include the regression slope/r2 and the bendability
    tau = Pg R^2 / sqrt(E h B) of the estimated (Pg, E).  E follows from n
    by the wrinkle law n = 1.33 sqrt(tau), so tau = (n / 1.33)^2.
    """
    instance("cal", cal, Calibration)
    reg = regress_phat(series)
    pg = reg.Pg_hat / cal.ks
    e_mod = estimate_modulus_from_wrinkles(
        R=series.region_radius, h=series.region_thickness, n=n, Pg=pg, nu=nu
    )
    try:
        # a float, so that a numpy n overflows with an error, not a warning
        tau = (float(n) / WRINKLE_FACTOR) ** 2
    except OverflowError:
        raise ValidationError(
            f"n = {show(n)} is too large: tau = (n / 1.33)^2 overflows"
        ) from None
    return Estimate(
        object_id=series.object_id,
        Pg=pg,
        E=e_mod,
        nu=nu,
        ks_used=cal.ks,
        diagnostics={
            "slope": reg.slope,
            "r2": reg.r2,
            "n": n,
            "tau": tau,
        },
    )
