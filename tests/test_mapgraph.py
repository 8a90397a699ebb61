"""Geometry, map loading, and graph structure."""

from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from walkchain import (
    GeoPoint,
    LocalPoint,
    MapSchemaError,
    MapValidationError,
    PathGraph,
    degree_sum,
    grid_graph,
    load_map,
    project,
    random_walk_matrix,
)
from conftest import connected_graphs

ORIGIN = GeoPoint(40.0, -75.0)


@st.composite
def _simple_graphs(draw, max_n: int = 9) -> PathGraph:
    """Random simple graph, possibly disconnected, with isolated vertices or no edges."""
    n = draw(st.integers(1, max_n))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=20))
    edges = {(min(a, b), max(a, b)) for a, b in pairs if a != b}
    return PathGraph([(float(k % 5), float(k // 5)) for k in range(n)], tuple(edges))


class TestPoints:
    def test_geo_point_rejects_bad_latitude(self):
        with pytest.raises(ValueError):
            GeoPoint(91.0, 0.0)
        with pytest.raises(ValueError):
            GeoPoint(-90.5, 0.0)

    def test_geo_point_rejects_bad_longitude(self):
        with pytest.raises(ValueError):
            GeoPoint(0.0, 180.5)

    def test_geo_point_rejects_non_finite(self):
        with pytest.raises(ValueError):
            GeoPoint(float("nan"), 0.0)
        with pytest.raises(ValueError):
            LocalPoint(0.0, float("inf"))


class TestProjection:
    def test_origin_maps_to_zero(self):
        p = project(ORIGIN, ORIGIN)
        assert p.x == 0.0 and p.y == 0.0

    def test_northward_displacement(self):
        # one millidegree of latitude is ~111.195 m regardless of longitude
        p = project(GeoPoint(40.001, -75.0), ORIGIN)
        assert p.x == 0.0
        assert p.y == pytest.approx(111.19492664455873, abs=1e-3)

    def test_eastward_displacement_scales_with_cos_latitude(self):
        origin = GeoPoint(60.0, 10.0)
        p = project(GeoPoint(60.0, 10.001), origin)
        assert p.y == 0.0
        # cos(60 deg) = 1/2 exactly, so east displacement is half the northward one
        assert p.x == pytest.approx(111.19492664455873 / 2.0, abs=1e-3)


class TestPathGraph:
    def test_rejects_non_dense_ids(self):
        # ids exist only in a map document; the graph numbers its positions 0..n-1
        doc = {"vertices": [{"id": 0, "x": 0, "y": 0}, {"id": 2, "x": 1, "y": 0}], "edges": [[0, 2]]}
        with pytest.raises(MapValidationError, match=r"dense integers 0\.\.1 in order, got \[0, 2\]"):
            load_map(json.dumps(doc))

    def test_rejects_self_loop(self):
        with pytest.raises(MapValidationError):
            PathGraph([(0, 0), (1, 0)], ((0, 0),))

    def test_rejects_duplicate_edge_in_either_orientation(self):
        with pytest.raises(MapValidationError):
            PathGraph([(0, 0), (1, 0)], ((0, 1), (1, 0)))

    def test_rejects_dangling_endpoint(self):
        with pytest.raises(MapValidationError):
            PathGraph([(0, 0), (1, 0)], ((0, 5),))

    @pytest.mark.parametrize("edges, shown", [
        ([(0.5, 1)], "(0.5, 1)"), ([(True, 0)], "(True, 0)"), ([(0, False)], "(0, False)"),
        (np.array([[0.0, 1.0]]), "[0.0, 1.0]"), (np.array([[True, False]]), "[True, False]"),
        ([(0, 1, 1)], "(0, 1, 1)"), ([[0, 1], [1]], "[1]"), ([(0, "1")], "(0, '1')"),
        ([0, 1], "0"), (np.array([0, 1]), "0"), ([(0, 1), None], "None"),
    ], ids=["float", "bool", "bool_second", "float_array", "bool_array", "triple", "ragged",
            "string", "flat_list", "flat_array", "none"])
    def test_rejects_edges_that_are_not_integer_pairs(self, edges, shown):
        with pytest.raises(MapValidationError,
                           match=f"^edge {re.escape(shown)} is not a pair of integer vertex ids$"):
            PathGraph([(0, 0), (1, 0)], edges)

    @pytest.mark.parametrize("edges", [
        [(0, 1)], ((1, 0),), [[np.int64(0), np.int32(1)]], np.array([[0, 1]], dtype=np.uint8),
        iter([(1, 0)]),
    ], ids=["list", "tuple", "numpy_ints", "uint8_array", "iterator"])
    def test_accepts_integer_pairs(self, edges):
        assert PathGraph([(0, 0), (1, 0)], edges).edges == ((0, 1),)

    @pytest.mark.parametrize("args, message", [
        ((2.5, 3), "rows must be an integer >= 1, got 2.5"),
        ((True, 3), "rows must be an integer >= 1, got True"),
        ((0, 3), "rows must be an integer >= 1, got 0"),
        ((2, 3.0), "cols must be an integer >= 1, got 3.0"),
        ((2, -1), "cols must be an integer >= 1, got -1"),
        ((2, 3, math.inf), "spacing must be finite and > 0, got inf"),
        ((2, 3, math.nan), "spacing must be finite and > 0, got nan"),
        ((2, 3, 0.0), "spacing must be finite and > 0, got 0.0"),
        ((2, 3, -1), "spacing must be finite and > 0, got -1"),
        ((2, 3, "2"), "spacing must be finite and > 0, got '2'"),
        ((2, 3, None), "spacing must be finite and > 0, got None"),
    ])
    def test_grid_graph_rejects_bad_sizes_and_spacing(self, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            grid_graph(*args)

    def test_grid_graph_takes_numpy_sizes(self):
        g = grid_graph(np.int64(2), np.int32(3), np.float64(2.0))
        assert g.n == 6 and g.positions()[-1].tolist() == [4.0, 2.0]

    def test_edges_are_canonicalized(self):
        g = PathGraph([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], ((2, 1), (1, 0)))
        assert g.edges == ((0, 1), (1, 2))

    def test_neighbors_sorted(self):
        g = grid_graph(2, 2, 1.0)
        assert g.neighbors(0) == (1, 2)
        assert g.degree(0) == 2

    @given(st.one_of(connected_graphs(max_n=12), _simple_graphs()))
    def test_adjacency_matches_edge_scan(self, g):
        for i in range(g.n):
            scan = tuple(sorted(b if a == i else a for a, b in g.edges if i in (a, b)))
            assert g.neighbors(i) == scan
            assert g.degree(i) == len(scan)
            assert g.degrees()[i] == len(scan)
        assert g.degrees().shape == (g.n,)

    def test_vertex_outside_graph_rejected(self):
        g = grid_graph(2, 2, 1.0)
        for i in (-1, 4):
            with pytest.raises(ValueError, match="outside"):
                g.neighbors(i)
            with pytest.raises(ValueError, match="outside"):
                g.degree(i)

    @given(st.one_of(connected_graphs(max_n=12), _simple_graphs()))
    def test_positions_built_once_read_only(self, g):
        pos = g.positions()
        assert pos is g.positions()
        assert pos.shape == (g.n, 2) and pos.dtype == np.float64
        assert pos.tolist() == [[float(k % 5), float(k // 5)] for k in range(g.n)]
        with pytest.raises(ValueError, match="read-only"):
            pos[0, 0] = 1.0

    @given(connected_graphs())
    def test_degree_sum_is_twice_edge_count(self, g):
        assert degree_sum(g) == 2 * len(g.edges)
        assert int(g.degrees().sum()) == 2 * len(g.edges)


class TestGridGraph:
    def test_shape_and_degrees(self):
        g = grid_graph(3, 4, 2.0)
        assert g.n == 12
        assert len(g.edges) == 3 * 3 + 2 * 4  # horizontal + vertical runs
        degs = g.degrees()
        assert degs[0] == 2  # corner
        assert degs[1] == 3  # edge interior
        assert degs[5] == 4  # interior
        assert g.positions()[5].tolist() == [2.0, 2.0]

    def test_rejects_degenerate_dimensions(self):
        with pytest.raises(ValueError):
            grid_graph(0, 3, 1.0)
        with pytest.raises(ValueError):
            grid_graph(2, 2, -1.0)


def _doc(payload) -> str:
    return json.dumps(payload)


class TestLoadMap:
    def test_geodetic_map(self):
        doc = _doc(
            {
                "origin": {"lat": 40.0, "lon": -75.0},
                "vertices": [
                    {"id": 0, "lat": 40.0, "lon": -75.0, "label": "gate"},
                    {"id": 1, "lat": 40.001, "lon": -75.0},
                    {"id": 2, "lat": 40.002, "lon": -75.0},
                ],
                "edges": [[0, 1], [1, 2]],
            },
        )
        g = load_map(doc)
        assert g.n == 3
        assert tuple(g.degrees()) == (1, 2, 1)
        assert g.labels() == ("gate", "", "")
        assert g.positions()[0].tolist() == [0.0, 0.0]
        assert g.positions()[1, 1] == pytest.approx(111.195, abs=1e-3)

    def test_origin_defaults_to_first_vertex(self):
        doc = _doc(
            {
                "vertices": [
                    {"id": 0, "lat": 40.0, "lon": -75.0},
                    {"id": 1, "lat": 40.001, "lon": -75.0},
                ],
                "edges": [[0, 1]],
            },
        )
        g = load_map(doc)
        assert g.positions()[0].tolist() == [0.0, 0.0]

    def test_local_map_needs_no_origin(self):
        doc = _doc(
            {
                "vertices": [
                    {"id": 0, "x": 0.0, "y": 0.0},
                    {"id": 1, "x": 3.0, "y": 4.0},
                ],
                "edges": [[0, 1]],
            },
        )
        g = load_map(doc)
        assert g.positions()[1].tolist() == [3.0, 4.0]

    def test_mixed_coordinate_styles_rejected(self):
        doc = _doc(
            {
                "vertices": [
                    {"id": 0, "x": 0.0, "y": 0.0},
                    {"id": 1, "lat": 40.0, "lon": -75.0},
                ],
                "edges": [[0, 1]],
            },
        )
        with pytest.raises(MapSchemaError):
            load_map(doc)

    def test_missing_field_named_in_error(self):
        doc = _doc(
            {
                "vertices": [
                    {"id": 0, "lat": 40.0, "lon": -75.0},
                    {"id": 1, "lat": 40.001},
                ],
                "edges": [],
            },
        )
        with pytest.raises(MapSchemaError, match=r"vertices\[1\]"):
            load_map(doc)

    def test_integer_beyond_float_range_named_in_error(self):
        for vertex, field in (({"id": 0, "x": 10**400, "y": 0.0}, r"vertices\[0\]\.x"),
                              ({"id": 0, "lat": 0.0, "lon": -(10**400)}, r"vertices\[0\]\.lon")):
            with pytest.raises(MapSchemaError, match=field + ": number out of range"):
                load_map(_doc({"vertices": [vertex], "edges": []}))

    @pytest.mark.parametrize("lat, lon, message", [
        (91.0, 0.0, "vertices[1]: latitude 91.0 outside [-90, 90]"),
        (0.0, -181.0, "vertices[1]: longitude -181.0 outside [-180, 180]"),
        (-90.0000001, 0.0, "vertices[1]: latitude -90.0000001 outside [-90, 90]"),
    ])
    def test_vertex_outside_lat_lon_range_named(self, lat, lon, message):
        doc = {"vertices": [{"id": 0, "lat": 0.0, "lon": 0.0}, {"id": 1, "lat": lat, "lon": lon}],
               "edges": [[0, 1]]}
        with pytest.raises(MapSchemaError, match=f"^{re.escape(message)}$"):
            load_map(_doc(doc))

    def test_edge_to_unknown_vertex_rejected(self):
        doc = _doc(
            {
                "vertices": [
                    {"id": 0, "x": 0.0, "y": 0.0},
                    {"id": 1, "x": 1.0, "y": 0.0},
                ],
                "edges": [[0, 9]],
            },
        )
        with pytest.raises(MapValidationError):
            load_map(doc)

    def test_single_vertex_map_is_valid(self):
        g = load_map(_doc({"vertices": [{"id": 0, "x": 0.0, "y": 0.0}], "edges": []}))
        assert g.n == 1 and g.edges == ()

    def test_bundled_demo_map(self):
        from pathlib import Path

        map_path = Path(__file__).resolve().parents[1] / "data" / "campus_map.json"
        g = load_map(map_path.read_text(encoding="utf-8"))
        assert g.n == 10
        assert degree_sum(g) == 2 * len(g.edges)
        assert all(g.degrees() > 0)


class TestRandomWalkMatrix:
    def test_triangle_is_uniform_over_neighbors(self):
        g = PathGraph([(float(i), float(i * i)) for i in range(3)], ((0, 1), (0, 2), (1, 2)))
        P = random_walk_matrix(g)
        expected = (np.ones((3, 3)) - np.eye(3)) / 2.0
        assert np.array_equal(P.entries, expected)

    def test_star_hub_spreads_evenly(self):
        g = PathGraph([(float(i), 0.0) for i in range(4)], ((0, 1), (0, 2), (0, 3)))
        P = random_walk_matrix(g)
        assert np.array_equal(P.entries[0], np.array([0.0, 1 / 3, 1 / 3, 1 / 3]))
        assert np.array_equal(P.entries[1], np.array([1.0, 0.0, 0.0, 0.0]))

    def test_isolated_vertex_rejected(self):
        g = PathGraph([(0, 0), (1, 0), (2, 0)], ((0, 1),))
        with pytest.raises(MapValidationError):
            random_walk_matrix(g)

    @given(connected_graphs())
    def test_rows_are_uniform_over_neighbors(self, g):
        P = random_walk_matrix(g)
        for i in range(g.n):
            nbrs = g.neighbors(i)
            for j in range(g.n):
                expected = 1.0 / len(nbrs) if j in nbrs else 0.0
                assert P.entries[i, j] == expected
