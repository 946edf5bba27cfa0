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
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InsufficientDataError,
    RankDeficientError,
    ValidationError,
)
from .measurement import IndentationSeries
from .shell import DEFAULT_NU, WRINKLE_FACTOR, ShellParams

# Wrinkling onset depth magnitude in units of l_p^2/R (dimensionless 2.52)
CRITICAL_DEPTH_FACTOR = 2.52

# r2 below this suggests the linear force-depth model is a poor fit
R2_WARN_THRESHOLD = 0.9


@dataclass(frozen=True)
class RegressionResult:
    """Through-origin fit of force against depth for one series.

    slope/intercept_* are diagnostic extras: a free-intercept fit whose
    intercept should be ~0 for an unbiased force sensor.
    """

    Pg_hat: float  # slope / (pi R): k_s-scaled pressure estimate (Pa)
    slope: float  # N/m
    r2: float
    intercept_slope: float  # N/m, free-intercept diagnostic fit
    intercept: float  # N, free-intercept diagnostic fit


@dataclass(frozen=True)
class CalibrationRecord:
    """One calibration object: manometer pressure and its k_s-scaled estimate."""

    measured_Pg: float  # Pa, ground truth
    estimated_Pg_hat: float  # Pa, regress_phat output

    def __post_init__(self):
        if not (0 < self.measured_Pg < math.inf):
            raise ValidationError(f"measured_Pg must be finite and > 0, got {self.measured_Pg}")
        if not (0 < self.estimated_Pg_hat < math.inf):
            raise ValidationError(
                f"estimated_Pg_hat must be finite and > 0, got {self.estimated_Pg_hat}"
            )


@dataclass(frozen=True)
class Calibration:
    """Calibrated linear force factor k_s with its provenance."""

    ks: float
    records: tuple[CalibrationRecord, ...]
    fit_r2: float

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        if not (0 < self.ks < math.inf):
            raise ValidationError(f"ks must be finite and > 0, got {self.ks}")
        if not math.isfinite(self.fit_r2):
            raise ValidationError(f"fit_r2 must be finite, got {self.fit_r2}")


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


def _through_origin(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Slope and r2 of y ~ slope * x (no intercept).

    r2 is computed against the through-origin model: 1 - SS_res / sum(y^2).
    """
    sxx = float(np.dot(x, x))
    if sxx == 0.0:
        raise RankDeficientError("all abscissa values are zero")
    slope = float(np.dot(x, y)) / sxx
    ss_res = float(np.sum((y - slope * x) ** 2))
    ss_tot = float(np.sum(y**2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return slope, r2


def _average_levels(forces: np.ndarray, depths: np.ndarray):
    """Collapse repeated trials at the same force level to their mean depth."""
    levels = np.unique(forces)
    mean_depths = np.array([depths[forces == f].mean() for f in levels])
    return levels, mean_depths


def regress_phat(
    series: IndentationSeries, average_levels: bool = False
) -> RegressionResult:
    """Through-origin regression of force on depth; returns slope/(pi R).

    The slope of F against w(0) equals pi * k_s * R * Pg, so slope/(pi R)
    is the k_s-scaled pressure estimate P_hat. Raises RankDeficientError
    when all depths coincide (the depth design carries no information).
    With average_levels=True, repeated trials at the same force level are
    averaged before regression.
    """
    forces = np.asarray(series.forces, dtype=float)
    depths = np.asarray(series.depths, dtype=float)
    if average_levels:
        forces, depths = _average_levels(forces, depths)
    if np.ptp(depths) == 0.0:
        raise RankDeficientError(
            f"all {len(depths)} depths are identical ({depths[0]} m); "
            "slope is not identifiable"
        )
    slope, r2 = _through_origin(depths, forces)
    # free-intercept diagnostic fit (sensor-bias indicator)
    coeffs = np.polyfit(depths, forces, 1)
    pg_hat = slope / (math.pi * series.region_radius)
    if r2 < R2_WARN_THRESHOLD:
        warnings.warn(
            f"force-depth linear fit r2 = {r2:.3f} < {R2_WARN_THRESHOLD}; "
            "linear pressure model is questionable for this series",
            stacklevel=2,
        )
    return RegressionResult(
        Pg_hat=pg_hat,
        slope=slope,
        r2=r2,
        intercept_slope=float(coeffs[0]),
        intercept=float(coeffs[1]),
    )


def calibrate_ks(records) -> Calibration:
    """Fit k_s as the through-origin slope of P_hat against measured Pg."""
    records = tuple(records)
    distinct = {r.measured_Pg for r in records}
    if len(distinct) < 2:
        raise InsufficientDataError(
            f"need records at >= 2 distinct pressures, got {len(distinct)}"
        )
    pg = np.array([r.measured_Pg for r in records])
    pg_hat = np.array([r.estimated_Pg_hat for r in records])
    ks, r2 = _through_origin(pg, pg_hat)
    return Calibration(ks=ks, records=records, fit_r2=r2)


def estimate_pressure(
    series: IndentationSeries, cal: Calibration, average_levels: bool = False
) -> float:
    """Gauge pressure (Pa): k_s-scaled regression estimate divided by k_s."""
    return regress_phat(series, average_levels=average_levels).Pg_hat / cal.ks


def estimate_modulus_from_wrinkles(
    R: float, h: float, n: float, Pg: float, nu: float = DEFAULT_NU
) -> float:
    """Elastic modulus (Pa) from the observed radial wrinkle count n.

    E = sqrt(12 (1 - nu^2)) * (1.33 R / (n h))^2 * Pg.  n is normally an
    observed integer; non-integer values are accepted for algebraic
    cross-checks.
    """
    for name, value in (("R", R), ("h", h), ("Pg", Pg)):
        if not (value > 0):
            raise ValidationError(f"{name} must be > 0, got {value}")
    if not (n >= 1):
        raise ValidationError(f"n must be >= 1, got {n}")
    if not (0 < nu < 0.5):
        raise ValidationError(f"nu must be in (0, 0.5), got {nu}")
    return math.sqrt(12.0 * (1.0 - nu**2)) * (WRINKLE_FACTOR * R / (n * h)) ** 2 * Pg


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
    Use estimate_modulus_from_wrinkles for actual estimation.
    """
    for name, value in (("R", R), ("h", h), ("wc", wc), ("Pg", Pg)):
        if not (value > 0):
            raise ValidationError(f"{name} must be > 0, got {value}")
    return TaggedModulus(
        E=CRITICAL_DEPTH_FACTOR * Pg * R**2 / (h * wc), tag=UNRELIABLE
    )


def run_procedure3(
    series: IndentationSeries,
    cal: Calibration,
    n: int,
    nu: float = DEFAULT_NU,
    average_levels: bool = False,
) -> Estimate:
    """Full estimation chain: pressure from the series, modulus from n.

    Diagnostics include the regression slope/r2 and the bendability tau
    implied by the estimated (Pg, E).
    """
    reg = regress_phat(series, average_levels=average_levels)
    pg = reg.Pg_hat / cal.ks
    e_mod = estimate_modulus_from_wrinkles(
        R=series.region_radius, h=series.region_thickness, n=n, Pg=pg, nu=nu
    )
    params = ShellParams(
        R=series.region_radius,
        h=series.region_thickness,
        E=e_mod,
        nu=nu,
        Pg=pg,
    )
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
            "tau": params.tau,
        },
    )
