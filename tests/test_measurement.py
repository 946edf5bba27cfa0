"""Tests for indentation-series ingestion and drop-test restitution."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from inflatekit.errors import InsufficientDataError, ParseError, ValidationError
from inflatekit.measurement import (
    CSV_HEADER,
    DropTest,
    IndentationSample,
    IndentationSeries,
    parse_series,
    restitution_coefficient,
    serialize_series,
)


def make_series(pairs, R=0.13, h=8.6e-4, object_id="test"):
    return IndentationSeries(
        samples=tuple(IndentationSample(force=f, depth=w) for f, w in pairs),
        object_id=object_id,
        region_radius=R,
        region_thickness=h,
    )


PAIRS = [(1.0, 0.005), (2.0, 0.010), (3.0, 0.015)]


class TestSample:
    def test_positive_values_accepted(self):
        s = IndentationSample(force=1.5, depth=0.01)
        assert s.force == 1.5
        assert s.depth == 0.01

    @pytest.mark.parametrize(
        "force,depth",
        [
            (0.0, 0.01), (-1.0, 0.01), (1.0, 0.0), (1.0, -0.01),
            (math.inf, 0.01), (math.nan, 0.01), (1.0, math.inf), (1.0, math.nan),
        ],
    )
    def test_nonpositive_or_non_finite_rejected(self, force, depth):
        with pytest.raises(ValidationError):
            IndentationSample(force=force, depth=depth)


class TestSeries:
    def test_minimum_three_samples(self):
        with pytest.raises(InsufficientDataError):
            make_series(PAIRS[:2])

    def test_thickness_must_be_below_radius(self):
        with pytest.raises(ValidationError):
            make_series(PAIRS, R=0.001, h=0.002)

    def test_thick_shell_warns(self):
        with pytest.warns(UserWarning, match="h/R"):
            make_series(PAIRS, R=0.1, h=0.006)

    def test_forces_depths_accessors(self):
        series = make_series(PAIRS)
        assert series.forces == [1.0, 2.0, 3.0]
        assert series.depths == [0.005, 0.010, 0.015]


class TestParseSeries:
    def test_round_trip_is_bit_exact(self, tmp_path):
        series = make_series([(1.23456789012345, 0.00123456789), (2.0, 0.01), (3.5, 0.02)])
        path = tmp_path / "series.csv"
        serialize_series(series, path)
        again = parse_series(path, 0.13, 8.6e-4, object_id="test")
        assert again.forces == series.forces
        assert again.depths == series.depths

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("force,depth\n1.0,0.01\n")
        with pytest.raises(ParseError) as err:
            parse_series(path, 0.13, 8.6e-4)
        assert err.value.line == 1

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text(
            f"{CSV_HEADER}\n# trial 1\n1.0,0.005\n\n2.0,0.010\n3.0,0.015\n"
        )
        series = parse_series(path, 0.13, 8.6e-4)
        assert len(series.samples) == 3

    def test_malformed_row_reports_line_number(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text(f"{CSV_HEADER}\n1.0,0.005\nnot,a number\n3.0,0.015\n")
        with pytest.raises(ParseError) as err:
            parse_series(path, 0.13, 8.6e-4)
        assert err.value.line == 3

    def test_wrong_field_count_reports_line_number(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text(f"{CSV_HEADER}\n1.0,0.005,9\n")
        with pytest.raises(ParseError) as err:
            parse_series(path, 0.13, 8.6e-4)
        assert err.value.line == 2

    def test_nonpositive_value_is_validation_error(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text(f"{CSV_HEADER}\n1.0,0.005\n-2.0,0.010\n3.0,0.015\n")
        with pytest.raises(ValidationError):
            parse_series(path, 0.13, 8.6e-4)

    def test_too_few_rows(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text(f"{CSV_HEADER}\n1.0,0.005\n2.0,0.010\n")
        with pytest.raises(InsufficientDataError):
            parse_series(path, 0.13, 8.6e-4)

    def test_object_id_defaults_to_stem(self, tmp_path):
        path = tmp_path / "pezzi_ball.csv"
        path.write_text(f"{CSV_HEADER}\n1.0,0.005\n2.0,0.010\n3.0,0.015\n")
        assert parse_series(path, 0.13, 8.6e-4).object_id == "pezzi_ball"


class TestDropTest:
    def test_restitution_half_height(self):
        # bounce to half the drop height -> e = sqrt(1/2)
        test = DropTest(drop_height=0.5, bounce_height=0.25)
        assert restitution_coefficient(test) == pytest.approx(math.sqrt(0.5))

    def test_bounce_above_drop_rejected(self):
        with pytest.raises(ValidationError):
            DropTest(drop_height=0.5, bounce_height=0.6)

    def test_zero_bounce_rejected(self):
        with pytest.raises(ValidationError):
            DropTest(drop_height=0.5, bounce_height=0.0)

    @given(
        drop=st.floats(min_value=1e-3, max_value=10.0),
        frac=st.floats(min_value=1e-6, max_value=1.0),
    )
    def test_restitution_in_unit_interval(self, drop, frac):
        test = DropTest(drop_height=drop, bounce_height=drop * frac)
        e = restitution_coefficient(test)
        assert 0.0 < e <= 1.0
        # energy ratio is recovered exactly
        assert e**2 == pytest.approx(frac, rel=1e-12)
