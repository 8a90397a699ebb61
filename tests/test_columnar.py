"""The array paths of ``track`` against the per-element code they replace.

Each reference below is the code as it stood before the array version: map
loading through one ``LocalPoint`` per vertex, projection
through ``math.radians``, ``detect`` called at every fix, and the Viterbi
step that gathered the winning candidates by row and slot. The array
versions must give the same arrays, sequences, bytes and error messages.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import shutil
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkchain import (
    BLIND,
    GeoPoint,
    LocalPoint,
    MapSchemaError,
    MapValidationError,
    Obstacle,
    PathGraph,
    StochasticMatrix,
    Trace,
    TrellisError,
    detect,
    grid_graph,
    hold_on_obstacle,
    load_map,
    pipeline,
    project,
    random_walk_matrix,
    simulate_walk,
    smooth,
)
from walkchain.cli import main
from walkchain.pipeline import _fix_blocks, _log_emissions, _squared_distances, _transitions
from conftest import connected_graphs

DATA = Path(__file__).resolve().parents[1] / "data"


# -- reference map loader ------------------------------------------------------

def ref_project(p: GeoPoint, origin: GeoPoint) -> tuple[float, float]:
    x = 6_371_000.0 * math.cos(math.radians(origin.lat)) * math.radians(p.lon - origin.lon)
    y = 6_371_000.0 * math.radians(p.lat - origin.lat)
    return x, y


def _require(cond, field_name, problem):
    if not cond:
        raise MapSchemaError(f"{field_name}: {problem}")


def _ref_number(obj, where, key, integer=False):
    if key not in obj:
        raise MapSchemaError(f"{where}.{key}: missing")
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, int if integer else (int, float)):
        raise MapSchemaError(f"{where}.{key}: expected {'an integer' if integer else 'a number'}, "
                             f"got {val!r}")
    if integer:
        return val
    try:
        num = float(val)
    except OverflowError:
        raise MapSchemaError(f"{where}.{key}: number out of range, got {val!r}") from None
    if not math.isfinite(num):
        raise MapSchemaError(f"{where}.{key}: expected a finite number, got {val!r}")
    return num


def ref_load_map(document: str):
    """Positions, labels and canonical edges of a map, one vertex and one edge at a time."""
    try:
        doc = json.loads(document)
    except (ValueError, RecursionError) as exc:
        raise MapSchemaError(f"document: not valid JSON ({exc})") from exc
    _require(isinstance(doc, dict), "document", "top level must be an object")
    _require("vertices" in doc, "vertices", "missing")
    _require(isinstance(doc["vertices"], list), "vertices", "expected a list")
    _require("edges" in doc, "edges", "missing")
    _require(isinstance(doc["edges"], list), "edges", "expected a list")
    styles = set()
    for k, rv in enumerate(doc["vertices"]):
        if not isinstance(rv, dict):
            raise MapSchemaError(f"vertices[{k}]: expected an object")
        if "lat" in rv or "lon" in rv:
            styles.add("geodetic")
        if "x" in rv or "y" in rv:
            styles.add("local")
    _require(styles != {"geodetic", "local"}, "vertices", "mixed lat/lon and x/y coordinate styles")
    geodetic = styles == {"geodetic"}
    origin = None
    if "origin" in doc and doc["origin"] is not None:
        _require(isinstance(doc["origin"], dict), "origin", "expected an object")
        lat, lon = (_ref_number(doc["origin"], "origin", key) for key in ("lat", "lon"))
        try:
            origin = GeoPoint(lat, lon)
        except ValueError as exc:
            raise MapSchemaError(f"origin: {exc}") from exc
    ids, positions, labels = [], [], []
    for k, rv in enumerate(doc["vertices"]):
        fname = f"vertices[{k}]"
        ids.append(_ref_number(rv, fname, "id", integer=True))
        label = rv.get("label", "")
        if not isinstance(label, str):
            raise MapSchemaError(f"{fname}.label: expected a string, got {label!r}")
        if geodetic:
            lat, lon = _ref_number(rv, fname, "lat"), _ref_number(rv, fname, "lon")
            try:
                gp = GeoPoint(lat, lon)
            except ValueError as exc:
                raise MapSchemaError(f"{fname}: {exc}") from exc
            origin = origin or gp
            pos = LocalPoint(*ref_project(gp, origin))
        else:
            pos = LocalPoint(_ref_number(rv, fname, "x"), _ref_number(rv, fname, "y"))
        positions.append((pos.x, pos.y))
        labels.append(label)
    edges = []
    for k, re in enumerate(doc["edges"]):
        if not (isinstance(re, list) and len(re) == 2):
            raise MapSchemaError(f"edges[{k}]: expected a pair, got {re!r}")
        for side in re:
            if isinstance(side, bool) or not isinstance(side, int):
                raise MapSchemaError(f"edges[{k}]: endpoints must be integers, got {re!r}")
        edges.append(tuple(re))
    if ids != list(range(len(ids))):
        raise MapValidationError(
            f"vertex ids must be dense integers 0..{len(ids) - 1} in order, got {ids}")
    n, seen = len(ids), set()
    for a, b in edges:
        if a == b:
            raise MapValidationError(f"self-loop edge ({a}, {b}) is not allowed")
        if not (0 <= a < n and 0 <= b < n):
            raise MapValidationError(f"edge ({a}, {b}) references a missing vertex (n={n})")
        e = (a, b) if a < b else (b, a)
        if e in seen:
            raise MapValidationError(f"duplicate edge ({a}, {b})")
        seen.add(e)
    return positions, labels, tuple(sorted(seen))


def _bits(values) -> list[int]:
    """The IEEE bit patterns of floats, so -0.0 and 0.0 differ."""
    return [struct.unpack("<q", struct.pack("<d", v))[0] for v in np.ravel(values).tolist()]


def _outcome(load, text):
    try:
        out = load(text)
    except ValueError as exc:
        return type(exc), str(exc)
    if not isinstance(out, tuple):  # a PathGraph
        out = (out.positions(), list(out.labels()), out.edges)
    positions, labels, edges = out
    return _bits(positions), labels, edges


# -- map documents: valid ones, then each with a few faults ----------------------

_BAD_NUMBERS = st.sampled_from([True, False, None, "1.0", "x", [1.0], {}, 10**400, -(10**400),
                                2**63, "@1e999@", "@-1e999@", "@NaN@", 91.0, -181.0])
_BAD_IDS = st.sampled_from([True, False, None, "0", 0.0, 1.5, -1, 10**30, 2**63])
_BAD_ENDS = st.sampled_from([True, False, None, "0", 1.0, -1, 10**30, 2**63, -(2**63) - 1])


@st.composite
def map_documents(draw) -> str:
    n = draw(st.integers(0, 7))
    geodetic = draw(st.booleans())
    keys = ("lat", "lon") if geodetic else ("x", "y")
    lats = st.one_of(st.floats(-90.0, 90.0), st.integers(-90, 90))
    lons = st.one_of(st.floats(-180.0, 180.0), st.integers(-180, 180))
    local = st.one_of(st.floats(-1e6, 1e6), st.integers(-10**6, 10**6),
                      st.floats(allow_nan=False, allow_infinity=False), st.integers(-2**70, 2**70))
    vertices = []
    for k in range(n):
        v = {"id": k, keys[0]: draw(lats if geodetic else local),
             keys[1]: draw(lons if geodetic else local)}
        if draw(st.booleans()):
            v["label"] = draw(st.text(max_size=3))
        vertices.append(v)
    pairs = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
    edges = [[a, b] if draw(st.booleans()) else [b, a]
             for a, b in draw(st.lists(pairs.filter(lambda p: p[0] < p[1]), unique=True,
                                       max_size=10))]
    doc = {"vertices": vertices, "edges": edges}
    if geodetic and draw(st.booleans()):
        doc["origin"] = {"lat": draw(lats), "lon": draw(lons)}
    for _ in range(draw(st.integers(0, 2))):
        fault = draw(st.sampled_from(["id", "coordinate", "missing", "label", "mixed", "object",
                                      "self-loop", "duplicate", "reversed", "range", "endpoint",
                                      "pair", "origin"]))
        objects = [k for k, v in enumerate(vertices) if isinstance(v, dict)]
        at = draw(st.sampled_from(objects)) if objects else None
        v = vertices[at] if objects else None
        if fault == "id" and v is not None:
            v["id"] = draw(_BAD_IDS)
        elif fault == "coordinate" and v is not None:
            v[draw(st.sampled_from(keys))] = draw(_BAD_NUMBERS)
        elif fault == "missing" and v is not None:
            v.pop(draw(st.sampled_from(("id",) + keys)), None)
        elif fault == "label" and v is not None:
            v["label"] = draw(st.sampled_from([None, 3, True, ["a"]]))
        elif fault == "mixed" and v is not None:
            v[draw(st.sampled_from(("x", "y") if geodetic else ("lat", "lon")))] = 1.0
        elif fault == "object" and v is not None:
            vertices[at] = draw(st.sampled_from([[], 0, "v", None]))
        elif fault == "self-loop":
            k = draw(st.integers(-1, n))
            edges.insert(draw(st.integers(0, len(edges))), [k, k])
        elif fault in ("duplicate", "reversed") and edges and isinstance(edges[-1], list) \
                and len(edges[-1]) == 2:
            a, b = edges[-1]
            edges.insert(draw(st.integers(0, len(edges))), [a, b] if fault == "duplicate" else [b, a])
        elif fault == "range":
            edges.insert(draw(st.integers(0, len(edges))), [draw(st.integers(0, n)), n])
        elif fault == "endpoint":
            edges.insert(draw(st.integers(0, len(edges))), [0, draw(_BAD_ENDS)])
        elif fault == "pair":
            edges.insert(draw(st.integers(0, len(edges))),
                         draw(st.sampled_from([[0], [0, 1, 2], 7, "01", None])))
        elif fault == "origin":
            doc["origin"] = draw(st.one_of(st.none(), st.just([]), st.fixed_dictionaries(
                {"lat": st.one_of(lats, _BAD_NUMBERS), "lon": st.one_of(lons, _BAD_NUMBERS)})))
    text = json.dumps(doc)
    for token in ("1e999", "-1e999", "NaN"):
        text = text.replace(f'"@{token}@"', token)
    return text


class TestLoadMapAgainstPerVertexLoader:
    @settings(max_examples=600, deadline=None)
    @given(map_documents())
    def test_same_arrays_edges_and_errors(self, text):
        assert _outcome(load_map, text) == _outcome(ref_load_map, text)

    def test_fault_kinds_reach_both_loaders(self):
        """Spot checks that the strategy's faults are the ones the messages name."""
        base = {"vertices": [{"id": 0, "x": 0.0, "y": 0.0}, {"id": 1, "x": 1.0, "y": 0.0}],
                "edges": [[0, 1]]}
        cases = [
            ({"vertices": [{"id": True, "x": 0.0, "y": 0.0}]}, "vertices[0].id: expected an integer"),
            ({"vertices": [{"id": 0, "x": "1.0", "y": 0.0}]}, "vertices[0].x: expected a number"),
            ({"vertices": [{"id": 0, "x": 10**400, "y": 0.0}]}, "vertices[0].x: number out of range"),
            ({"vertices": [{"id": 1, "x": 0.0, "y": 0.0}]}, "dense integers 0..0 in order, got [1]"),
            ({"edges": [[0, 1], [1, 0]]}, "duplicate edge (1, 0)"),
            ({"edges": [[1, 1]]}, "self-loop edge (1, 1)"),
            ({"edges": [[0, 2**63]]}, f"edge (0, {2**63}) references a missing vertex (n=2)"),
            ({"edges": [[0, True]]}, "edges[0]: endpoints must be integers"),
        ]
        for change, message in cases:
            text = json.dumps({**base, **change})
            outcome = _outcome(load_map, text)
            assert outcome == _outcome(ref_load_map, text)
            assert message in outcome[1], outcome
        text = json.dumps(base).replace("1.0", "1e999", 1)
        assert _outcome(load_map, text) == (MapSchemaError,
                                            "vertices[1].x: expected a finite number, got inf")


def ref_canonical_edges(edges, n: int):
    """The per-edge checks of the graph constructor, and its sorted canonical edges."""
    seen = set()
    for a, b in edges:
        if a == b:
            raise MapValidationError(f"self-loop edge ({a}, {b}) is not allowed")
        if not (0 <= a < n and 0 <= b < n):
            raise MapValidationError(f"edge ({a}, {b}) references a missing vertex (n={n})")
        e = (a, b) if a < b else (b, a)
        if e in seen:
            raise MapValidationError(f"duplicate edge ({a}, {b})")
        seen.add(e)
    return tuple(sorted(seen))


def _adjacency_scan(edges, n: int) -> list[list[int]]:
    return [sorted(b if a == i else a for a, b in edges if i in (a, b)) for i in range(n)]


class TestGraphConstructors:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 8), st.lists(st.tuples(st.integers(-2, 9), st.integers(-2, 9)),
                                       max_size=12), st.sampled_from([0, 2**62, 2**63, -(2**70)]))
    def test_edge_checks_match_the_per_edge_loop(self, n, edges, big):
        if big and edges:
            edges[-1] = (edges[-1][0], big)
        positions = [(float(k), -float(k)) for k in range(n)]
        try:
            want = ref_canonical_edges(edges, n)
        except MapValidationError as exc:
            with pytest.raises(MapValidationError) as got:
                PathGraph(positions, tuple(edges))
            assert str(got.value) == str(exc)
            return
        g = PathGraph(positions, edges)
        assert g.edges == want and g.positions().tolist() == [list(p) for p in positions]
        assert g.n == n and g.labels() == ("",) * n
        indptr, indices = g.adjacency()
        assert [indices[a:b].tolist() for a, b in zip(indptr, indptr[1:])] == _adjacency_scan(want, n)

    @pytest.mark.parametrize("rows, cols, spacing", [(1, 1, 1.0), (1, 5, 0.58), (4, 3, 2.0),
                                                     (7, 9, 0.1), (3, 3, 3)])
    def test_grid_graph_as_built_from_its_positions_and_edges(self, rows, cols, spacing):
        g = grid_graph(rows, cols, spacing)
        positions = [(c * spacing, r * spacing) for r in range(rows) for c in range(cols)]
        edges = [(i, i + 1) for i in range(rows * cols) if (i + 1) % cols]
        edges += [(i, i + cols) for i in range(rows * cols - cols)]
        ref = PathGraph(positions, tuple(edges))
        assert _bits(g.positions()) == _bits(positions) == _bits(ref.positions())
        assert g.labels() == ref.labels() and g.edges == ref.edges == tuple(sorted(edges))
        for a, b in zip(g.adjacency(), ref.adjacency()):
            assert a.tolist() == b.tolist()

    @pytest.mark.parametrize("positions, labels, message", [
        ([0.0, 1.0], None, "positions must be an (n, 2) array, got shape (2,)"),
        ([[0.0, 1.0, 2.0]], None, "positions must be an (n, 2) array, got shape (1, 3)"),
        ([[[0.0, 1.0]]], None, "positions must be an (n, 2) array, got shape (1, 1, 2)"),
        (5.0, None, "positions must be an (n, 2) array, got shape ()"),
        ([[0.0, 1.0], [2.0]], None, "positions must be an (n, 2) array of floats"),
        ([[0.0, "x"]], None, "positions must be an (n, 2) array of floats"),
        ([[0.0, 10**400]], None, "positions must be an (n, 2) array of floats"),
        ([[0.0, 0.0], [math.nan, 1.0]], None, "position 1 (nan, 1.0) is not finite"),
        ([[0.0, 0.0], [1.0, -math.inf]], None, "position 1 (1.0, -inf) is not finite"),
        ([[0.0, 0.0]], ["a", "b"], "labels must be a list or tuple of n = 1 strings"),
        ([[0.0, 0.0]], [], "labels must be a list or tuple of n = 1 strings"),
        ([[0.0, 0.0]], [7], "labels must be a list or tuple of n = 1 strings"),
        ([[0.0, 0.0]], "a", "labels must be a list or tuple of n = 1 strings"),
        ([[0.0, 0.0], [1.0, 0.0]], ("a", None), "labels must be a list or tuple of n = 2 strings"),
    ])
    def test_rejects_bad_positions_and_labels(self, positions, labels, message):
        with pytest.raises(MapValidationError, match=f"^{re.escape(message)}$"):
            PathGraph(positions, [], labels)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 9), st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=20),
           st.integers(1, 8), st.integers(1, 8))
    def test_edges_are_the_sorted_canonical_pairs(self, n, pairs, rows, cols):
        # a random simple graph, each edge in either orientation
        canonical = {(min(a, b), max(a, b)) for a, b in pairs if a != b and max(a, b) < n}
        edges = [(b, a) if (a + b) % 2 else (a, b) for a, b in canonical]
        g = PathGraph([(float(k), 0.0) for k in range(n)], edges, [str(k) for k in range(n)])
        assert g.edges == tuple(sorted(canonical)) and g.labels() == tuple(map(str, range(n)))
        # a grid, and the same grid with one diagonal per cell
        grid = [(i, i + 1) for i in range(rows * cols) if (i + 1) % cols]
        grid += [(i, i + cols) for i in range(rows * cols - cols)]
        diagonals = [(r * cols + c + 1, (r + 1) * cols + c)
                     for r in range(rows - 1) for c in range(cols - 1)]
        g = grid_graph(rows, cols)
        assert g.edges == tuple(sorted(grid))
        assert PathGraph(g.positions(), g.edges + tuple(diagonals)).edges \
            == tuple(sorted(grid + diagonals))


class TestGeodeticProjectionBits:
    def test_campus_map(self):
        text = (DATA / "campus_map.json").read_text(encoding="utf-8")
        doc = json.loads(text)
        origin = GeoPoint(doc["origin"]["lat"], doc["origin"]["lon"])
        want = [ref_project(GeoPoint(v["lat"], v["lon"]), origin) for v in doc["vertices"]]
        assert _bits(load_map(text).positions()) == _bits(want)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.floats(-90.0, 90.0), st.floats(-180.0, 180.0)), min_size=1,
                    max_size=40),
           st.one_of(st.none(), st.tuples(st.floats(-90.0, 90.0), st.floats(-180.0, 180.0))))
    def test_random_lat_lon(self, points, origin):
        doc = {"vertices": [{"id": k, "lat": lat, "lon": lon} for k, (lat, lon) in enumerate(points)],
               "edges": []}
        if origin is not None:
            doc["origin"] = {"lat": origin[0], "lon": origin[1]}
        anchor = GeoPoint(*(origin or points[0]))
        want = [ref_project(GeoPoint(lat, lon), anchor) for lat, lon in points]
        assert _bits(load_map(json.dumps(doc)).positions()) == _bits(want)
        assert _bits([(p.x, p.y) for p in (project(GeoPoint(*q), anchor) for q in points)]) \
            == _bits(want)


# -- obstacle scan: flagged fixes only against detect at every fix ---------------

LINE_MAP = {"vertices": [{"id": k, "x": 5.8 * k, "y": 0.0} for k in range(4)],
            "edges": [[0, 1], [1, 2], [2, 3]]}


def _every_fix(xy, t, obstacles, safer_distance):
    """The scan before it was an array scan: detect runs at every fix and alone validates."""
    return range(len(t))


def _track_both(argv: list[str], files: dict[str, str]) -> tuple:
    """Exit code, stderr and artifacts of ``track`` with the array scan, checked equal to
    those of the same run with detect at every fix, and returned."""
    outcomes = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, text in files.items():
            (tmp / name).write_text(text, encoding="utf-8")
        for patch in (True, False):
            shutil.rmtree(tmp / "out", ignore_errors=True)
            err = io.StringIO()
            with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                if patch:
                    mp.setattr(pipeline, "scan_obstacles", _every_fix)
                rc = main(["track", *[a.replace("@", f"{tmp}/") for a in argv],
                           "--out-dir", str(tmp / "out")])
            written = {p.name: p.read_bytes() for p in sorted((tmp / "out").glob("*"))}
            outcomes.append((rc, err.getvalue(), written))
    assert outcomes[1] == outcomes[0]
    return outcomes[1]


def _trace_csv(times, vertices) -> str:
    return "t_s,x_m,y_m,truth_vertex\n" + "".join(
        f"{t!r},{5.8 * v!r},0.0,{v}\n" for t, v in zip(times, vertices))


_SAFER = st.one_of(st.sampled_from([5.0, 2.5, 5.8, 1e-300, 1.7e308, 0.0, -1.0, math.nan,
                                    math.inf]), st.floats(0.1, 20.0))


@st.composite
def _obstacles(draw, safer: float):
    """Obstacles at, one ulp inside and one ulp outside the safer distance of a vertex (to
    the bit at vertex 0, whose coordinates add no rounding), and moving ones whose course
    may leave the float range."""
    out = []
    for k in range(draw(st.integers(0, 4))):
        v = draw(st.integers(0, 3))
        r = safer if math.isfinite(safer) and safer > 0 else 5.0
        r = draw(st.sampled_from([r, math.nextafter(r, 0.0), math.nextafter(r, math.inf),
                                  draw(st.floats(0.0, 30.0))]))
        dx, dy = draw(st.sampled_from([(r, 0.0), (-r, 0.0), (0.0, r), (0.6 * r, 0.8 * r)]))
        item = {"id": k, "kind": "stationary", "x": 5.8 * v + dx, "y": dy}
        if draw(st.booleans()):
            item.update(kind="moving", vx=draw(st.sampled_from([0.0, 0.5, -1.0, 1e307, -1.5e308])),
                        vy=draw(st.sampled_from([0.0, 0.25, 1e308])))
        out.append(item)
    return out


class TestObstacleScanAgainstEveryFix:
    @settings(max_examples=150, deadline=None)
    @given(st.data(), _SAFER, st.booleans())
    def test_same_alerts_errors_and_artifacts(self, data, safer, from_trace):
        obstacles = data.draw(_obstacles(safer))
        files = {"map.json": json.dumps(LINE_MAP), "obstacles.json": json.dumps(obstacles)}
        argv = ["--map", "@map.json", "--obstacles", "@obstacles.json", f"--safer-distance={safer!r}"]
        if from_trace:
            walk = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=12))
            times = [0.0, *data.draw(st.lists(st.floats(0.5, 4.0), min_size=len(walk) - 1,
                                              max_size=len(walk) - 1))]
            files["trace.csv"] = _trace_csv(np.cumsum(times).tolist(), walk)
            argv += ["--trace", "@trace.csv"]
        else:
            argv += ["--steps", str(data.draw(st.integers(0, 30))),
                     "--seed", str(data.draw(st.integers(0, 99)))]
        _track_both(argv, files)

    def test_at_the_safer_distance_and_one_ulp_either_side(self):
        for r, alerts in ((5.0, 1), (math.nextafter(5.0, 0.0), 1), (math.nextafter(5.0, 9.0), 0)):
            for dx, dy in ((r, 0.0), (0.0, -r), (0.6 * r, 0.8 * r)):  # vertex 0 is at (0, 0)
                obstacles = [{"id": 1, "kind": "stationary", "x": dx, "y": dy}]
                rc, err, written = _track_both(
                    ["--map", "@map.json", "--obstacles", "@obstacles.json", "--trace", "@trace.csv"],
                    {"map.json": json.dumps(LINE_MAP), "obstacles.json": json.dumps(obstacles),
                     "trace.csv": _trace_csv([0.0], [0])})
                assert rc == 0, err
                warnings = written["alerts.log"].count(b"obstacle_warning")
                assert warnings == alerts, (r, written["alerts.log"])

    def test_obstacle_leaving_the_float_range_names_the_fix_line(self):
        obstacles = [{"id": 1, "kind": "stationary", "x": 100.0, "y": 0.0},
                     {"id": 4, "kind": "moving", "x": 0.0, "y": 0.0, "vx": 1e308, "vy": 0.0}]
        files = {"map.json": json.dumps(LINE_MAP), "obstacles.json": json.dumps(obstacles),
                 "trace.csv": _trace_csv([0.0, 1.0, 2.0, 3.0], [0, 1, 2, 3])}
        rc, err, written = _track_both(
            ["--map", "@map.json", "--obstacles", "@obstacles.json", "--trace", "@trace.csv"], files)
        assert (rc, err, written) == (1, "error: trace line 4: obstacle 4 leaves the float range "
                                         "at t = 2.0\n", {})

    @pytest.mark.parametrize("safer", ["nan", "inf", "0", "-1"])
    def test_invalid_safer_distance_without_obstacles(self, safer):
        for source in (["--trace", "@trace.csv"], ["--steps", "5"]):
            rc, err, written = _track_both(
                ["--map", "@map.json", f"--safer-distance={safer}", *source],
                {"map.json": json.dumps(LINE_MAP), "trace.csv": _trace_csv([0.0], [2])})
            assert (rc, written) == (1, {})
            assert err == f"error: safer_distance must be finite and > 0, got {float(safer)!r}\n"

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.floats(-20, 20), st.floats(-20, 20)), min_size=1, max_size=8),
           st.data(), st.floats(0.01, 10.0))
    def test_detect_warns_at_no_unflagged_fix(self, walker, data, safer):
        t = np.arange(len(walker), dtype=float) * 0.7
        obstacles = [Obstacle(k, "moving", LocalPoint(x, y), (vx, vy))
                     for k, (x, y, vx, vy) in enumerate(data.draw(st.lists(st.tuples(
                         st.floats(-20, 20), st.floats(-20, 20), st.floats(-3, 3),
                         st.floats(-3, 3)), max_size=4)))]
        flagged = set(pipeline.scan_obstacles(np.array(walker), t, obstacles, safer))
        for k, (x, y) in enumerate(walker):
            warnings = detect(LocalPoint(x, y), float(t[k]), obstacles, BLIND, safer)
            assert k in flagged or not warnings


class TestTrackLogOpenedOnce:
    def test_one_open_and_no_stale_lines(self, tmp_path, monkeypatch):
        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr(pipeline, "open", counting_open, raising=False)
        (tmp_path / "map.json").write_text(json.dumps(LINE_MAP), encoding="utf-8")
        out = tmp_path / "out"
        out.mkdir()
        (out / "alerts.log").write_text("a line from an earlier run\n", encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["track", "--map", str(tmp_path / "map.json"), "--steps", "5",
                         "--out-dir", str(out)]) == 0
        assert opened == [out / "alerts.log"]
        assert (out / "alerts.log").read_text().splitlines()[0].split("\t")[1] == "destination_reached"
        assert json.loads((out / "delivery.json").read_text()) == {
            f"file:{out / 'alerts.log'}": {"delivered": 1, "failed": 0}}

    def test_log_that_cannot_be_opened_exits_2(self, tmp_path):
        (tmp_path / "map.json").write_text(json.dumps(LINE_MAP), encoding="utf-8")
        (tmp_path / "out" / "alerts.log").mkdir(parents=True)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            assert main(["track", "--map", str(tmp_path / "map.json"), "--steps", "5",
                         "--out-dir", str(tmp_path / "out")]) == 2
        assert "alerts.log" in err.getvalue()


# -- the Viterbi step: flat gather against the row-and-slot gather ----------------

def ref_smooth(tr, g, P, emission_sigma=1.0):
    """``smooth`` with the step that gathered ``cand[rows, j]`` and tested ``np.max(delta)``."""
    m, n = len(tr), g.n
    indptr, src, w = _transitions(P, reverse=True)
    indeg, rows = np.diff(indptr), np.arange(n)
    dst = np.repeat(rows, indeg)
    slot = np.arange(src.size) - np.repeat(indptr[:-1], indeg)
    pred = np.full((n, int(indeg.max())), n)
    pred[dst, slot] = src
    log_w = np.full(pred.shape, -np.inf)
    log_w[dst, slot] = np.log(w)
    delta = np.full(n + 1, -np.inf)
    back = np.zeros((m, n), dtype=np.min_scalar_type(pred.shape[1] - 1))
    obs, pos = tr.positions(), g.positions()
    log_em = (row for block in _fix_blocks(m, n)
              for row in _log_emissions(obs[block, None], pos, emission_sigma))
    for k, em in enumerate(log_em):
        if k == 0:
            delta[:n] = em
        else:
            cand = delta[pred] + log_w
            j = np.argmax(cand, axis=1)
            back[k] = j
            delta[:n] = cand[rows, j] + em
        if np.max(delta) == -np.inf:
            dead = (f"no positive-probability path survives to fix {k}" if k else
                    "no state has positive probability at fix 0")
            if np.isinf(_squared_distances(obs[k], pos)).all():
                raise TrellisError(f"{dead}: its squared distance to every vertex overflows", k)
            raise TrellisError(f"{dead}; widen emission_sigma or augment the chain with self-loops", k)
    seq = [int(np.argmax(delta))]
    for k in range(m - 1, 0, -1):
        seq.append(int(pred[seq[-1], back[k, seq[-1]]]))
    seq.reverse()
    return seq


def _decode(fn, tr, g, P, sigma):
    try:
        return fn(tr, g, P, emission_sigma=sigma)
    except TrellisError as exc:
        return type(exc), str(exc), exc.fix


def _in_segments(fixes, tr, g, P, sigma):
    """``smooth`` with a score budget that holds ``fixes`` fixes per segment."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "_TRELLIS_BYTES", 8 * (g.n + 1) * fixes)
        return _decode(smooth, tr, g, P, sigma)


def _assert_agrees_with_ref(tr, g, P, sigma):
    """One decode, whole and in segments of 1, 2, isqrt(m) and m fixes, equal to ``ref_smooth``."""
    want = _decode(ref_smooth, tr, g, P, sigma)
    assert _decode(smooth, tr, g, P, sigma) == want
    m = len(tr)
    for fixes in (1, 2, math.isqrt(m), m):
        assert _in_segments(fixes, tr, g, P, sigma) == want, fixes


_SIGMAS = st.sampled_from([0.3, 1.0, 5.0, 1e-160])


class TestSmoothAgainstRowSlotGather:
    """Whole decodes and decodes in replayed segments give ``ref_smooth``'s sequence or error."""

    @settings(max_examples=150, deadline=None)
    @given(connected_graphs(max_n=12), st.data(), _SIGMAS)
    def test_walk_graphs_and_held_walks(self, g, data, sigma):
        P = random_walk_matrix(g)
        if data.draw(st.booleans()):
            P = hold_on_obstacle(P, data.draw(st.sets(st.integers(0, g.n - 1), max_size=3)))
        walk = simulate_walk(g, P, BLIND, data.draw(st.integers(0, g.n - 1)),
                             data.draw(st.integers(0, 25)), seed=data.draw(st.integers(0, 99)))
        noise = data.draw(st.sampled_from([0.0, 0.4, 3.0]))
        xy = walk.xy + np.random.default_rng(len(walk)).normal(0.0, noise, walk.xy.shape)
        tr = Trace(t=walk.t, xy=xy)
        _assert_agrees_with_ref(tr, g, P, sigma)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 7), st.data(), _SIGMAS)
    def test_dense_chains_with_zero_columns(self, n, data, sigma):
        weights = np.array(data.draw(st.lists(st.lists(st.integers(0, 5), min_size=n, max_size=n),
                                              min_size=n, max_size=n)), dtype=float)
        weights[:, data.draw(st.integers(0, n - 1))] = 0.0  # a state nothing enters
        weights[weights.sum(axis=1) == 0, 0 if weights[:, 0].any() else 1] = 1.0
        P = StochasticMatrix(weights / weights.sum(axis=1, keepdims=True))
        g = PathGraph([(float(k % 3), float(k // 3)) for k in range(n)], ())
        m = data.draw(st.integers(1, 12))
        fixes = data.draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
        tr = Trace(t=np.arange(m, dtype=float), xy=g.positions()[fixes])
        _assert_agrees_with_ref(tr, g, P, sigma)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 5), st.integers(2, 5), st.data())
    def test_edge_midpoint_ties(self, rows, cols, data):
        g = grid_graph(rows, cols)
        P = random_walk_matrix(g)
        edges = data.draw(st.lists(st.sampled_from(g.edges), min_size=1, max_size=15))
        pos = g.positions()
        xy = np.array([(pos[a] + pos[b]) / 2 for a, b in edges])
        tr = Trace(t=np.arange(len(edges), dtype=float), xy=xy)
        sigma = data.draw(_SIGMAS)
        _assert_agrees_with_ref(tr, g, P, sigma)

    @pytest.mark.parametrize("fixes, dead, kind", [
        (4, 6, "repeat"), (4, 9, "overflow"), (4, 8, "repeat"), (4, 4, "overflow"),
        (1, 5, "repeat"), (2, 13, "repeat"), (3, 0, "overflow"),
    ], ids=["inside_a_later_segment", "overflow_inside", "first_of_a_later_segment",
            "overflow_first_of_the_second", "one_fix_segments", "last_fix", "fix_0"])
    def test_dead_fix_in_a_later_segment(self, fixes, dead, kind):
        # sigma 1e-160 scores -inf at every vertex but the one a fix sits on: a
        # walk with no self-loop cannot stay put, and a fix at 1e200 m overflows
        g = grid_graph(3, 3)
        P = random_walk_matrix(g)
        xy = g.positions()[[0, 1, 2, 5, 4, 3, 6, 7, 8, 5, 2, 1, 0, 3]]
        xy[dead] = xy[dead - 1] if kind == "repeat" else 1e200
        tr = Trace(t=np.arange(len(xy), dtype=float), xy=xy)
        want = _decode(ref_smooth, tr, g, P, 1e-160)
        reason = ("widen emission_sigma or augment the chain with self-loops" if kind == "repeat"
                  else "its squared distance to every vertex overflows")
        assert want[0] is TrellisError and want[2] == dead and want[1].endswith(reason)
        assert _in_segments(fixes, tr, g, P, 1e-160) == _decode(smooth, tr, g, P, 1e-160) == want
