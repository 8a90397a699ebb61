"""Walking profiles and the normal-vs-blind timing table."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from walkchain import (
    BLIND,
    MODE_EXACT,
    MODE_PAPER_ROUNDED,
    NORMAL,
    SURVEY_DISTANCES_M,
    ComparisonTable,
    DistanceError,
    WalkingProfile,
    comparison_table,
    distance_of_steps,
    get_profile,
    load_profile,
    steps_for_distance,
    table_to_csv,
    travel_time,
)


class TestProfileBasics:
    def test_builtin_calibration(self):
        assert NORMAL.step_length == 0.58 and NORMAL.step_period == 1.0
        assert BLIND.step_length == 0.58 and BLIND.step_period == 2.7
        assert BLIND.rounded_pace == 4.66

    def test_speed_and_pace(self):
        assert NORMAL.speed == pytest.approx(0.58)
        assert BLIND.speed == pytest.approx(0.58 / 2.7)
        assert BLIND.pace == pytest.approx(2.7 / 0.58)
        # the published two-decimal pace rounds the exact one
        assert round(BLIND.pace, 2) == BLIND.rounded_pace

    def test_blind_is_slower_by_step_period_ratio(self):
        assert NORMAL.speed / BLIND.speed == pytest.approx(2.7)

    def test_lookup(self):
        assert get_profile("normal") is NORMAL
        assert get_profile("blind") is BLIND
        with pytest.raises(ValueError, match="unknown profile"):
            get_profile("running")

    def test_validation(self):
        with pytest.raises(ValueError):
            WalkingProfile("x", step_length=0.0, step_period=1.0)
        with pytest.raises(ValueError):
            WalkingProfile("x", step_length=0.5, step_period=-1.0)
        with pytest.raises(ValueError):
            WalkingProfile("", step_length=0.5, step_period=1.0)

    @pytest.mark.parametrize("length, period", [(5e-324, 1.0), (1e300, 1e-300), (1e-300, 1e300)])
    def test_speed_and_pace_must_be_finite_and_positive(self, length, period):
        # each field is finite and > 0, but their quotient or its inverse leaves the float range
        given_fields = re.escape(f"step_length {length!r} and step_period {period!r} give a speed")
        with pytest.raises(ValueError, match=given_fields + ".* both must be finite and > 0"):
            WalkingProfile("x", step_length=length, step_period=period)


class TestTravelTime:
    def test_exact_mode(self):
        assert travel_time(NORMAL, 59.16) == pytest.approx(102.0, abs=1e-12)
        assert travel_time(BLIND, 5.8) == pytest.approx(27.0, abs=1e-12)

    def test_paper_rounded_mode_uses_coarse_pace_when_present(self):
        assert travel_time(BLIND, 100.0, MODE_PAPER_ROUNDED) == pytest.approx(466.0, abs=1e-9)
        # normal has no published coarse pace, so both modes agree
        assert travel_time(NORMAL, 100.0, MODE_PAPER_ROUNDED) == travel_time(NORMAL, 100.0)

    def test_zero_distance_is_free(self):
        for mode in (MODE_EXACT, MODE_PAPER_ROUNDED):
            assert travel_time(NORMAL, 0.0, mode) == 0.0
            assert travel_time(BLIND, 0.0, mode) == 0.0

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            travel_time(NORMAL, -1.0)
        with pytest.raises(ValueError):
            travel_time(NORMAL, 1.0, mode="fast")

    @given(st.floats(0.0, 1000.0))
    def test_blind_never_faster(self, d):
        assert travel_time(BLIND, d) >= travel_time(NORMAL, d)
        assert travel_time(BLIND, d, MODE_PAPER_ROUNDED) >= travel_time(
            NORMAL, d, MODE_PAPER_ROUNDED
        )

    @given(st.floats(0.0, 500.0), st.floats(0.0, 500.0))
    def test_additive_over_segments(self, a, b):
        whole = travel_time(NORMAL, a + b)
        split = travel_time(NORMAL, a) + travel_time(NORMAL, b)
        assert whole == pytest.approx(split, abs=1e-9)


class TestSteps:
    def test_distance_of_steps(self):
        assert distance_of_steps(NORMAL, 100) == pytest.approx(58.0)
        assert distance_of_steps(BLIND, 0) == 0.0

    def test_steps_round_half_to_even(self):
        two_meter = WalkingProfile("stilts", step_length=2.0, step_period=1.0)
        assert steps_for_distance(two_meter, 3.0) == 2  # 1.5 steps -> even
        assert steps_for_distance(two_meter, 5.0) == 2  # 2.5 steps -> even
        assert steps_for_distance(two_meter, 7.0) == 4  # 3.5 steps -> even

    @given(st.integers(0, 10_000))
    def test_steps_invert_whole_stride_distances(self, k):
        assert steps_for_distance(NORMAL, distance_of_steps(NORMAL, k)) == k


class TestComparisonTable:
    def test_row_ordering_follows_input(self):
        rows = comparison_table([5.0, 1.0, 3.0])
        assert rows.distance.tolist() == [5.0, 1.0, 3.0]

    def test_survey_table_shape(self):
        rows = comparison_table(SURVEY_DISTANCES_M, MODE_PAPER_ROUNDED)
        assert rows.distance.size == rows.normal_time.size == rows.blind_time.size == 29
        assert rows.distance[0] == 0.0 and rows.blind_time[0] == 0.0

    def test_csv_layout(self):
        text = table_to_csv(comparison_table([5.8]))
        lines = text.splitlines()
        assert lines[0] == "distance_m,normal_time_s,blind_time_s"
        d, nt, bt = lines[1].split(",")
        assert float(d) == 5.8
        assert float(nt) == pytest.approx(10.0)
        assert float(bt) == pytest.approx(27.0)


class TestColumnarTable:
    def test_columns_and_rows(self):
        rows = comparison_table([5.8, 0.0, 11.6])
        assert isinstance(rows, ComparisonTable)
        for column in (rows.distance, rows.normal_time, rows.blind_time):
            assert column.dtype == np.float64 and column.shape == (3,)
        assert rows.distance.tolist() == [5.8, 0.0, 11.6]
        assert rows.normal_time.tolist() == [travel_time(NORMAL, d) for d in (5.8, 0.0, 11.6)]
        assert rows.blind_time.tolist() == [travel_time(BLIND, d) for d in (5.8, 0.0, 11.6)]

    def test_columns_are_read_only(self):
        rows = comparison_table([1.0, 2.0])
        for column in (rows.distance, rows.normal_time, rows.blind_time):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0.0

    def test_input_is_copied(self):
        d = np.array([1.0, 2.0])
        rows = comparison_table(d)
        d[0] = 50.0
        assert rows.distance.tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("mode", [MODE_EXACT, MODE_PAPER_ROUNDED])
    def test_times_are_travel_times(self, mode):
        rows = comparison_table(SURVEY_DISTANCES_M, mode)
        assert rows.normal_time.tolist() == [travel_time(NORMAL, d, mode) for d in SURVEY_DISTANCES_M]
        assert rows.blind_time.tolist() == [travel_time(BLIND, d, mode) for d in SURVEY_DISTANCES_M]

    @pytest.mark.parametrize("values, row, message", [
        ([1.0, -2.0, float("nan")], 1, "distance must be finite and >= 0, got -2.0"),
        ([1.0, 2.0, float("nan")], 2, "distance must be finite and >= 0, got nan"),
        ([float("inf")], 0, "distance must be finite and >= 0, got inf"),
        ([0.0, 1e308, -1.0], 1, "travel time over 1e+308 m overflows"),
    ])
    def test_first_bad_row_named(self, values, row, message):
        with pytest.raises(DistanceError, match=re.escape(message)) as caught:
            comparison_table(values)
        assert caught.value.row == row

    def test_csv_of_rows_or_table(self):
        rows = comparison_table([5.8, 0.1, -0.0])
        lines = table_to_csv(rows).splitlines()
        assert lines[1:] == [f"{d!r},{travel_time(NORMAL, d)!r},{travel_time(BLIND, d)!r}"
                             for d in (5.8, 0.1, -0.0)]
        assert lines[3] == "-0.0,-0.0,-0.0"


class TestLoadProfile:
    def test_parses_custom_profile(self):
        p = load_profile('{"name": "brisk", "step_length_m": 0.75, "step_period_s": 0.8}')
        assert p.name == "brisk"
        assert p.speed == pytest.approx(0.75 / 0.8)
        assert p.rounded_pace is None

    def test_missing_field_reported(self):
        with pytest.raises(ValueError, match="step_period_s"):
            load_profile('{"name": "x", "step_length_m": 0.7}')

    def test_invalid_json_reported(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            load_profile("{nope")

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="top level"):
            load_profile("[1, 2]")
