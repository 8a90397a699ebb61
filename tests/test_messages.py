"""The message of each input check that the other test modules do not reach."""

from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest

from walkchain import (
    BLIND,
    Distribution,
    GeneratorMatrix,
    LocalPoint,
    MapSchemaError,
    Obstacle,
    PathGraph,
    StochasticMatrix,
    Trace,
    WalkingProfile,
    comparison_table,
    detect,
    grid_graph,
    hitting_time,
    load_map,
    localization_error,
    poisson_pmf,
    sample_arrivals,
    smooth,
    snap,
)
from walkchain.profiles import distance_of_steps, steps_for_distance

_PATH3 = StochasticMatrix([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]])
_GRID = grid_graph(2, 2)
_TRACE = Trace(t=np.arange(3.0), xy=_GRID.positions()[:3], truth=np.arange(3))


def _geodetic_map(origin: dict) -> str:
    return json.dumps({"origin": origin, "vertices": [{"id": 0, "lat": 40.0, "lon": -75.0}],
                       "edges": []})


CASES = [
    ("distribution_2d", lambda: Distribution(np.full((2, 2), 0.25)), ValueError,
     "distribution must be a non-empty 1-D array, got shape (2, 2)"),
    ("distribution_empty", lambda: Distribution([]), ValueError,
     "distribution must be a non-empty 1-D array, got shape (0,)"),
    ("distribution_nan", lambda: Distribution([0.5, math.nan]), ValueError,
     "distribution entries must be finite"),
    ("distribution_inf", lambda: Distribution([math.inf, 0.0]), ValueError,
     "distribution entries must be finite"),
    ("hitting_time_source", lambda: hitting_time(_PATH3, 3, 0), ValueError,
     "state 3 outside 0..2"),
    ("hitting_time_target", lambda: hitting_time(_PATH3, 0, -1), ValueError,
     "state -1 outside 0..2"),
    ("poisson_pmf_negative", lambda: poisson_pmf(1.0, 1.0, -1), ValueError,
     "count must be a non-negative integer, got -1"),
    ("poisson_pmf_float", lambda: poisson_pmf(1.0, 1.0, 2.0), ValueError,
     "count must be a non-negative integer, got 2.0"),
    ("sample_arrivals_negative", lambda: sample_arrivals(1.0, -1.0, 0), ValueError,
     "horizon must be finite and >= 0, got -1.0"),
    ("sample_arrivals_inf", lambda: sample_arrivals(1.0, math.inf, 0), ValueError,
     "horizon must be finite and >= 0, got inf"),
    ("origin_latitude", lambda: load_map(_geodetic_map({"lat": 91.0, "lon": 0.0})),
     MapSchemaError, "origin: latitude 91.0 outside [-90, 90]"),
    ("origin_longitude", lambda: load_map(_geodetic_map({"lat": 0.0, "lon": -180.5})),
     MapSchemaError, "origin: longitude -180.5 outside [-180, 180]"),
    ("obstacle_velocity", lambda: Obstacle(1, "moving", LocalPoint(0.0, 0.0), (math.nan, 1.0)),
     ValueError, "obstacle velocity must be finite, got (nan, 1.0)"),
    ("snap_no_vertices", lambda: snap(_TRACE, PathGraph([], [])), ValueError,
     "graph has no vertices to snap to"),
    ("smooth_sizes", lambda: smooth(_TRACE, _GRID, _PATH3), ValueError,
     "matrix has 3 states but graph has 4 vertices"),
    ("localization_length", lambda: localization_error([0, 1], _TRACE, _GRID), ValueError,
     "estimate length 2 != trace length 3"),
    ("detect_negative_t", lambda: detect(LocalPoint(0.0, 0.0), -1.0, [], BLIND), ValueError,
     "time must be finite and >= 0, got -1.0"),
    ("detect_nan_t", lambda: detect(LocalPoint(0.0, 0.0), math.nan, [], BLIND), ValueError,
     "time must be finite and >= 0, got nan"),
    ("rounded_pace_zero", lambda: WalkingProfile("x", 0.5, 1.0, rounded_pace=0.0), ValueError,
     "rounded_pace must be finite and > 0, got 0.0"),
    ("rounded_pace_inf", lambda: WalkingProfile("x", 0.5, 1.0, rounded_pace=math.inf), ValueError,
     "rounded_pace must be finite and > 0, got inf"),
    ("distance_of_negative_steps", lambda: distance_of_steps(BLIND, -1.0), ValueError,
     "steps must be finite and >= 0, got -1.0"),
    ("distance_of_nan_steps", lambda: distance_of_steps(BLIND, math.nan), ValueError,
     "steps must be finite and >= 0, got nan"),
    ("steps_for_negative_distance", lambda: steps_for_distance(BLIND, -0.5), ValueError,
     "distance must be finite and >= 0, got -0.5"),
    ("steps_for_inf_distance", lambda: steps_for_distance(BLIND, math.inf), ValueError,
     "distance must be finite and >= 0, got inf"),
    ("comparison_table_2d", lambda: comparison_table([[1.0, 2.0], [3.0, 4.0]]), ValueError,
     "distances must be a flat sequence of numbers, got shape (2, 2)"),
    ("comparison_table_scalar", lambda: comparison_table(5.0), ValueError,
     "distances must be a flat sequence of numbers, got shape ()"),
]


@pytest.mark.parametrize("call, error, message", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_generator_matrix_n():
    Q = GeneratorMatrix(np.array([[-1.0, 1.0, 0.0], [0.5, -1.0, 0.5], [0.0, 2.0, -2.0]]))
    assert Q.n == 3
