"""Tests for pressure/modulus estimation and k_s calibration."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inflatekit.errors import (
    InsufficientDataError,
    RankDeficientError,
    ValidationError,
)
from inflatekit.estimator import (
    UNRELIABLE,
    Calibration,
    CalibrationRecord,
    calibrate_ks,
    estimate_modulus_from_critical_depth,
    estimate_modulus_from_wrinkles,
    estimate_pressure,
    regress_phat,
    run_procedure3,
)
from inflatekit.measurement import IndentationSample, IndentationSeries
from inflatekit.shell import ShellParams

KS_REF = 0.64


def linear_series(Pg, ks=KS_REF, R=0.13, h=8.6e-4, depths=(0.005, 0.010, 0.015), noise=None, rng=None, object_id="synthetic"):
    """Series drawn from the linear force law F = pi ks R Pg w."""
    samples = []
    for w in depths:
        f = math.pi * ks * R * Pg * w
        if noise:
            f *= 1.0 + noise * rng.standard_normal()
        samples.append(IndentationSample(force=f, depth=w))
    return IndentationSeries(
        samples=tuple(samples), object_id=object_id, region_radius=R, region_thickness=h
    )


def exact_calibration(ks=KS_REF):
    records = [
        CalibrationRecord(measured_Pg=pg, estimated_Pg_hat=ks * pg)
        for pg in (800.0, 1300.0, 2000.0)
    ]
    return calibrate_ks(records)


class TestRegressPhat:
    def test_noiseless_linear_series(self):
        reg = regress_phat(linear_series(1300.0))
        assert reg.Pg_hat == pytest.approx(KS_REF * 1300.0, rel=1e-12)
        assert reg.r2 == pytest.approx(1.0, abs=1e-12)

    def test_noisy_series_within_six_percent(self):
        rng = np.random.default_rng(42)
        series = linear_series(
            1300.0, depths=(0.005, 0.010, 0.015, 0.020, 0.025), noise=0.05, rng=rng
        )
        reg = regress_phat(series)
        assert reg.Pg_hat == pytest.approx(KS_REF * 1300.0, rel=0.06)
        # cross-check against the closed-form through-origin slope
        f = np.asarray(series.forces)
        w = np.asarray(series.depths)
        assert reg.slope == pytest.approx(float(np.dot(f, w) / np.dot(w, w)), rel=1e-12)

    def test_identical_depths_rank_deficient(self):
        series = IndentationSeries(
            samples=tuple(
                IndentationSample(force=f, depth=0.01) for f in (1.0, 1.1, 0.9)
            ),
            object_id="flat",
            region_radius=0.13,
            region_thickness=8.6e-4,
        )
        with pytest.raises(RankDeficientError):
            regress_phat(series)

    def test_huge_forces_rejected_without_overflow(self):
        # 3 * (1e154)^2 overflows double precision, 3 * (5e153)^2 does not
        def series(peak):
            return IndentationSeries(
                samples=tuple(
                    IndentationSample(force=peak * k / 3, depth=0.005 * k) for k in (1, 2, 3)
                ),
                object_id="huge",
                region_radius=0.13,
                region_thickness=8.6e-4,
            )

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="forces up to 1e\\+154 N"):
                regress_phat(series(1e154))
            assert regress_phat(series(5e153)).r2 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "depth, message",
        [
            (1e200, "depths up to 3e\\+200 m are too large to fit"),
            (1e-306, "depths up to 3e-306 m are too small to fit"),
        ],
        ids=["squares-overflow", "squares-underflow"],
    )
    def test_out_of_range_depths_rejected_without_warning(self, depth, message):
        series = IndentationSeries(
            samples=tuple(IndentationSample(force=k, depth=depth * k) for k in (1, 2, 3)),
            object_id="range",
            region_radius=0.13,
            region_thickness=8.6e-4,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=message):
                regress_phat(series)

    def test_poor_fit_warns(self):
        series = IndentationSeries(
            samples=(
                IndentationSample(force=5.0, depth=0.005),
                IndentationSample(force=1.0, depth=0.010),
                IndentationSample(force=5.0, depth=0.015),
            ),
            object_id="scatter",
            region_radius=0.13,
            region_thickness=8.6e-4,
        )
        with pytest.warns(UserWarning, match="r2"):
            regress_phat(series)

    @given(scale=st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=50, deadline=None)
    def test_scale_equivariance(self, scale):
        base = linear_series(1300.0)
        scaled = IndentationSeries(
            samples=tuple(
                IndentationSample(force=s.force * scale, depth=s.depth)
                for s in base.samples
            ),
            object_id=base.object_id,
            region_radius=base.region_radius,
            region_thickness=base.region_thickness,
        )
        assert regress_phat(scaled).Pg_hat == pytest.approx(
            scale * regress_phat(base).Pg_hat, rel=1e-9
        )


class TestCalibrateKs:
    def test_exact_records(self):
        cal = exact_calibration()
        assert cal.ks == pytest.approx(KS_REF, rel=1e-12)
        assert cal.fit_r2 == pytest.approx(1.0, abs=1e-12)

    def test_single_record_insufficient(self):
        with pytest.raises(InsufficientDataError):
            calibrate_ks([CalibrationRecord(measured_Pg=800.0, estimated_Pg_hat=512.0)])

    def test_huge_estimates_rejected_without_overflow(self):
        # a series of tiny depths gives a pressure estimate near 1e160 Pa
        records = [
            CalibrationRecord(measured_Pg=800.0, estimated_Pg_hat=2.4e160),
            CalibrationRecord(measured_Pg=2000.0, estimated_Pg_hat=1280.0),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="pressure estimates up to 2.4e\\+160 Pa"):
                calibrate_ks(records)

    def test_any_iterable_of_records(self):
        records = exact_calibration().records
        for given in (iter(records), (r for r in records), list(records)):
            assert calibrate_ks(given) == calibrate_ks(records)

    def test_duplicate_pressures_insufficient(self):
        records = [
            CalibrationRecord(measured_Pg=800.0, estimated_Pg_hat=510.0),
            CalibrationRecord(measured_Pg=800.0, estimated_Pg_hat=514.0),
        ]
        with pytest.raises(InsufficientDataError):
            calibrate_ks(records)

    def test_noisy_records_within_four_percent(self):
        rng = np.random.default_rng(7)
        records = [
            CalibrationRecord(
                measured_Pg=pg,
                estimated_Pg_hat=KS_REF * pg * (1 + 0.03 * rng.standard_normal()),
            )
            for pg in (800.0, 1300.0, 2000.0)
        ]
        cal = calibrate_ks(records)
        assert cal.ks == pytest.approx(KS_REF, rel=0.04)
        # closed-form slope cross-check
        x = np.array([r.measured_Pg for r in records])
        y = np.array([r.estimated_Pg_hat for r in records])
        assert cal.ks == pytest.approx(float(np.dot(x, y) / np.dot(x, x)), rel=1e-12)


class TestEstimatePressure:
    def test_noiseless_inverse_of_construction(self):
        assert estimate_pressure(linear_series(1300.0), exact_calibration()) == pytest.approx(
            1300.0, rel=1e-12
        )


class TestModulusFromWrinkles:
    def test_reference_ball_value(self):
        e = estimate_modulus_from_wrinkles(R=0.13, h=8.6e-4, n=8, Pg=1300.0, nu=0.4)
        expected = math.sqrt(12 * (1 - 0.16)) * (1.33 * 0.13 / (8 * 8.6e-4)) ** 2 * 1300.0
        assert e == pytest.approx(expected, rel=1e-12)
        assert e == pytest.approx(2.6e6, rel=0.01)

    def test_nu_sensitivity_about_four_percent(self):
        e_03 = estimate_modulus_from_wrinkles(R=0.13, h=8.6e-4, n=8, Pg=1300.0, nu=0.3)
        e_04 = estimate_modulus_from_wrinkles(R=0.13, h=8.6e-4, n=8, Pg=1300.0, nu=0.4)
        change = (e_03 - e_04) / e_03
        assert change == pytest.approx(1.0 - math.sqrt(0.84 / 0.91), rel=1e-9)
        assert change == pytest.approx(0.041, abs=0.003)

    def test_doubling_n_quarters_modulus(self):
        e_n = estimate_modulus_from_wrinkles(R=0.13, h=8.6e-4, n=8, Pg=1300.0)
        e_2n = estimate_modulus_from_wrinkles(R=0.13, h=8.6e-4, n=16, Pg=1300.0)
        assert e_2n == pytest.approx(e_n / 4.0, rel=1e-12)

    def test_nonpositive_inputs_rejected(self):
        with pytest.raises(ValidationError):
            estimate_modulus_from_wrinkles(R=-0.1, h=8.6e-4, n=8, Pg=1300.0)
        with pytest.raises(ValidationError):
            estimate_modulus_from_wrinkles(R=0.13, h=8.6e-4, n=0.5, Pg=1300.0)

    @pytest.mark.parametrize(
        "R, h, Pg",
        [(1e100, 1e-100, 1300.0), (1e-200, 1.0, 1300.0), (0.13, 8.6e-4, math.inf)],
        ids=["E-overflows", "E-underflows", "infinite-pressure"],
    )
    def test_out_of_range_modulus_rejected(self, R, h, Pg):
        with pytest.raises(ValidationError):
            estimate_modulus_from_wrinkles(R=R, h=h, n=8, Pg=Pg)

    @pytest.mark.parametrize(
        "n, shown",
        [(10**300, "100000... (301 digits)"), (10**400, "100000... (401 digits)")],
        ids=["1e300-underflows", "1e400-beyond-float"],
    )
    def test_long_wrinkle_count_is_shortened(self, n, shown):
        with pytest.raises(ValidationError) as err:
            estimate_modulus_from_wrinkles(R=0.13, h=8.6e-4, n=n, Pg=1300.0)
        assert str(err.value) == f"modulus E from n = {shown} overflows or underflows double precision"

    @given(scale=st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=50, deadline=None)
    def test_depends_on_radius_thickness_ratio_only(self, scale):
        e0 = estimate_modulus_from_wrinkles(R=0.13, h=8.6e-4, n=8, Pg=1300.0)
        e1 = estimate_modulus_from_wrinkles(R=0.13 * scale, h=8.6e-4 * scale, n=8, Pg=1300.0)
        assert e1 == pytest.approx(e0, rel=1e-9)


class TestModulusFromCriticalDepth:
    def test_tagged_unreliable(self):
        result = estimate_modulus_from_critical_depth(R=0.13, h=8.6e-4, wc=0.03, Pg=1300.0)
        assert result.tag == UNRELIABLE
        assert result.E == pytest.approx(2.52 * 1300.0 * 0.13**2 / (8.6e-4 * 0.03), rel=1e-12)

    def test_consistent_with_wrinkle_route(self):
        # wc generated from the same (E, Pg, R, h) closes the loop exactly
        R, h, Pg, nu = 0.13, 8.6e-4, 1300.0, 0.4
        e_true = 2.5e6
        wc = 2.52 * Pg * R**2 / (h * e_true)
        result = estimate_modulus_from_critical_depth(R=R, h=h, wc=wc, Pg=Pg)
        assert result.E == pytest.approx(e_true, rel=1e-12)

    def test_doubling_depth_halves_modulus(self):
        e1 = estimate_modulus_from_critical_depth(R=0.13, h=8.6e-4, wc=0.02, Pg=1300.0).E
        e2 = estimate_modulus_from_critical_depth(R=0.13, h=8.6e-4, wc=0.04, Pg=1300.0).E
        assert e2 == pytest.approx(e1 / 2.0, rel=1e-12)

    def test_zero_depth_rejected(self):
        with pytest.raises(ValidationError):
            estimate_modulus_from_critical_depth(R=0.13, h=8.6e-4, wc=0.0, Pg=1300.0)

    @pytest.mark.parametrize(
        "R, h, wc, error",
        [
            (math.inf, 8.6e-4, 0.03, "R must be finite and > 0, got inf"),
            (0.13, 8.6e-4, math.inf, "wc must be finite and > 0, got inf"),
            (0.13, 8.6e-4, math.nan, "wc must be finite and > 0, got nan"),
            (0.13, 1e-300, 1e-300, "modulus E from wc = 1e-300 overflows or underflows double precision"),
            (1e200, 8.6e-4, 0.03, "modulus E from wc = 0.03 overflows or underflows double precision"),
            (1e-200, 1.0, 1.0, "modulus E from wc = 1.0 overflows or underflows double precision"),
        ],
        ids=["infinite-R", "infinite-wc", "nan-wc", "h-wc-underflows", "R-squared-overflows", "E-underflows"],
    )
    def test_out_of_range_input_or_modulus_rejected(self, R, h, wc, error):
        # at R = inf E was inf, at wc = inf 0.0, and h * wc -> 0 raised ZeroDivisionError
        with pytest.raises(ValidationError) as err:
            estimate_modulus_from_critical_depth(R=R, h=h, wc=wc, Pg=1300.0)
        assert str(err.value) == error


class TestRunProcedure3:
    def test_noiseless_round_trip(self):
        series = linear_series(1300.0)
        est = run_procedure3(series, exact_calibration(), n=8)
        assert est.Pg == pytest.approx(1300.0, rel=1e-12)
        assert est.E == pytest.approx(
            estimate_modulus_from_wrinkles(R=0.13, h=8.6e-4, n=8, Pg=1300.0), rel=1e-12
        )
        assert est.nu == 0.4  # default
        assert est.ks_used == pytest.approx(KS_REF, rel=1e-12)
        assert set(est.diagnostics) == {"slope", "r2", "n", "tau"}
        assert est.diagnostics["tau"] > 0

    def test_high_pressure_stiff_object(self):
        # a small stiff toy: series and wrinkle count constructed to be
        # consistent with Pg = 3955 Pa and E = 53.98 MPa
        R, h, Pg, E = 0.04, 4.0e-4, 3955.0, 5.398e7
        n = 1.33 * (R / h) * math.sqrt(math.sqrt(12 * (1 - 0.16)) * Pg / E)
        series = linear_series(Pg, R=R, h=h)
        est = run_procedure3(series, exact_calibration(), n=n)
        assert est.Pg == pytest.approx(Pg, rel=1e-9)
        assert est.E == pytest.approx(E, rel=1e-9)

    @pytest.mark.parametrize("n", [1, 8, 13, 40, 199])
    def test_tau_is_the_bendability_of_the_estimate(self, n):
        est = run_procedure3(linear_series(1300.0), exact_calibration(), n=n)
        params = ShellParams(R=0.13, h=8.6e-4, E=est.E, nu=est.nu, Pg=est.Pg)
        assert est.diagnostics["tau"] == pytest.approx(params.tau, rel=1e-15)

    def test_overflowing_tau_rejected(self):
        # E stays finite for R / h = 1e200, but (n / 1.33)^2 overflows
        series = linear_series(1300.0, R=1e100, h=1e-100)
        with pytest.raises(ValidationError, match="tau"):
            run_procedure3(series, exact_calibration(), n=10**160)

    def test_json_schema(self):
        est = run_procedure3(linear_series(1300.0), exact_calibration(), n=8)
        data = json.loads(est.to_json())
        assert set(data) == {"object_id", "Pg_pa", "E_pa", "nu", "ks_used", "diagnostics"}
        assert set(data["diagnostics"]) == {"slope", "r2", "n", "tau"}
        assert data["object_id"] == "synthetic"


class TestCalibrationType:
    def test_nonpositive_ks_rejected(self):
        with pytest.raises(ValidationError):
            Calibration(ks=-0.5, records=(), fit_r2=1.0)

    def test_non_finite_ks_rejected(self):
        with pytest.raises(ValidationError):
            Calibration(ks=math.inf, records=(), fit_r2=1.0)

    @pytest.mark.parametrize(
        "measured,estimated",
        [(-800.0, 512.0), (math.inf, 512.0), (math.nan, 512.0), (800.0, math.inf), (800.0, math.nan)],
    )
    def test_record_validation(self, measured, estimated):
        with pytest.raises(ValidationError):
            CalibrationRecord(measured_Pg=measured, estimated_Pg_hat=estimated)
