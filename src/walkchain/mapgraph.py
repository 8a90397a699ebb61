"""Path-network maps: geodetic loading, planar projection, walk transition matrices.

A map is an undirected simple graph whose vertices are walkable locations
(junctions, doorways, landmarks). Vertices may be given either geodetically
(lat/lon degrees) or directly in local meters; geodetic input is projected
onto a flat east/north plane around a fixed origin. All objects here are
immutable, so graphs can be shared freely across threads and processes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

import numpy as np

from .chains import StochasticMatrix

EARTH_RADIUS_M = 6_371_000.0


class MapSchemaError(ValueError):
    """A map document does not conform to the expected schema."""


class MapValidationError(ValueError):
    """A structurally well-formed map violates a graph invariant."""


@dataclass(frozen=True)
class GeoPoint:
    """Geodetic coordinate in decimal degrees."""

    lat: float
    lon: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "lat", float(self.lat))
        object.__setattr__(self, "lon", float(self.lon))
        if not (math.isfinite(self.lat) and -90.0 <= self.lat <= 90.0):
            raise ValueError(f"latitude {self.lat!r} outside [-90, 90]")
        if not (math.isfinite(self.lon) and -180.0 <= self.lon <= 180.0):
            raise ValueError(f"longitude {self.lon!r} outside [-180, 180]")


@dataclass(frozen=True)
class LocalPoint:
    """Planar position in meters east (x) and north (y) of the map origin."""

    x: float
    y: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"local coordinates must be finite, got ({self.x!r}, {self.y!r})")


@dataclass(frozen=True)
class Vertex:
    id: int
    position: LocalPoint
    label: str = ""


class PathGraph:
    """Undirected simple graph of walkable locations.

    Vertex ids are dense integers starting at 0 so they double as matrix and
    distribution indices. Edges are stored canonically as (a, b) with a < b.
    The graph is held as read-only arrays: the (n, 2) ``positions()`` and the
    CSR adjacency, where the neighbours of vertex i, in ascending id, are
    ``indices[indptr[i]:indptr[i + 1]]`` of ``adjacency()``. The ``vertices``
    and ``edges`` tuples are built from them on first access.
    """

    __slots__ = ("_positions", "_labels", "_ends", "_indptr", "_indices", "_vertices", "_edges")

    def __init__(self, vertices: tuple[Vertex, ...], edges: tuple[tuple[int, int], ...]):
        vertices = tuple(vertices)
        ids = [v.id for v in vertices]
        if ids != list(range(len(ids))):
            raise MapValidationError(
                f"vertex ids must be dense integers 0..{len(ids) - 1} in order, got {ids}"
            )
        pos = np.array([[v.position.x, v.position.y] for v in vertices], dtype=float)
        self._init(pos.reshape(-1, 2), [v.label for v in vertices], tuple(edges))
        self._vertices = vertices

    @classmethod
    def _from_arrays(cls, pos: np.ndarray, labels: list[str], edges) -> PathGraph:
        """Graph of (n, 2) float positions, n labels and ``edges``, an (m, 2) int array or m
        pairs of vertex ids: the constructor without ``Vertex`` objects."""
        g = cls.__new__(cls)
        g._init(pos, labels, edges)
        return g

    def _init(self, pos: np.ndarray, labels: list[str], edges) -> None:
        """Check every edge at once and build the CSR. When an edge fails, ``edges`` is
        checked again pair by pair, so the error names the first bad one."""
        n = pos.shape[0]
        try:
            a, b = np.array(edges, dtype=np.int64).reshape(-1, 2).T
        except OverflowError:  # an endpoint past int64 names no vertex
            a = b = np.array([-1])
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        key = np.sort(lo * n + hi)  # one int per canonical edge, in (lo, hi) order
        if ((lo == hi) | (lo < 0) | (hi >= n)).any() or (key[1:] == key[:-1]).any():
            _raise_first_bad_edge(edges, n)
        lo, hi = np.divmod(key, n)
        # every (vertex, neighbour) pair, by vertex and then neighbour id
        src, dst = np.divmod(np.sort(np.concatenate((key, hi * n + lo))), n)
        indptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n))))
        for name, arr in (("_indptr", indptr), ("_indices", dst), ("_positions", pos),
                          ("_ends", np.column_stack((lo, hi)))):
            arr.flags.writeable = False
            setattr(self, name, arr)
        self._labels, self._vertices, self._edges = labels, None, None

    @property
    def n(self) -> int:
        return self._positions.shape[0]

    @property
    def vertices(self) -> tuple[Vertex, ...]:
        """The vertices in id order, built on first access."""
        if self._vertices is None:
            self._vertices = tuple(Vertex(k, LocalPoint(x, y), label) for k, ((x, y), label)
                                   in enumerate(zip(self._positions.tolist(), self._labels)))
        return self._vertices

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The canonical edges (a, b), a < b, in ascending order, built on first access."""
        if self._edges is None:
            self._edges = tuple(map(tuple, self._ends.tolist()))
        return self._edges

    def degree(self, i: int) -> int:
        return len(self.neighbors(i))

    def degrees(self) -> np.ndarray:
        return np.diff(self._indptr)

    def neighbors(self, i: int) -> tuple[int, ...]:
        """Neighbours of vertex i in ascending id."""
        if not (0 <= i < self.n):
            raise ValueError(f"vertex {i} outside 0..{self.n - 1}")
        return tuple(self._indices[self._indptr[i]:self._indptr[i + 1]].tolist())

    def adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only CSR arrays (indptr, indices) of the neighbour lists."""
        return self._indptr, self._indices

    def positions(self) -> np.ndarray:
        """Vertex positions as a read-only (n, 2) float array in id order."""
        return self._positions


def _raise_first_bad_edge(edges, n: int) -> None:
    """Raise for the first of the pairs ``edges`` that is a self-loop, leaves 0..n-1 or repeats."""
    seen: set[tuple[int, int]] = set()
    for a, b in edges:
        if a == b:
            raise MapValidationError(f"self-loop edge ({a}, {b}) is not allowed")
        if not (0 <= a < n and 0 <= b < n):
            raise MapValidationError(f"edge ({a}, {b}) references a missing vertex (n={n})")
        e = (a, b) if a < b else (b, a)
        if e in seen:
            raise MapValidationError(f"duplicate edge ({a}, {b})")
        seen.add(e)


def _project(lat, lon, origin: GeoPoint):
    """(x, y) of :func:`project` for floats or float arrays ``lat`` and ``lon``; each
    ``d * (pi / 180)`` is ``math.radians(d)``, bit for bit."""
    rad = math.pi / 180.0
    return (EARTH_RADIUS_M * math.cos(math.radians(origin.lat)) * ((lon - origin.lon) * rad),
            EARTH_RADIUS_M * ((lat - origin.lat) * rad))


def project(p: GeoPoint, origin: GeoPoint) -> LocalPoint:
    """Equirectangular projection of ``p`` to meters east/north of ``origin``.

    x = R * cos(origin.lat) * (lon - origin.lon in radians)
    y = R * (lat - origin.lat in radians)

    Adequate for campus-scale extents (hundreds of meters), where the
    flat-earth error is far below GPS noise.
    """
    return LocalPoint(*_project(p.lat, p.lon, origin))


def _require(cond: bool, field_name: str, problem: str) -> None:
    if not cond:
        raise MapSchemaError(f"{field_name}: {problem}")


def _document(text: str, what: str, error: type[ValueError] = MapSchemaError):
    """The JSON value of ``text``; an ``error`` naming ``what`` when it is not valid JSON."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # the latter: nested too deep
        raise error(f"{what}: not valid JSON ({exc})") from exc


def _get_number(obj: dict, where: str, key: str, error: type[ValueError] = MapSchemaError,
                default: float | None = None, integer: bool = False) -> float:
    """Finite JSON number (an int if ``integer``, never a bool) ``obj[key]``, or ``default``."""
    if default is None and key not in obj:
        raise error(f"{where}.{key}: missing")
    val = obj.get(key, default)
    if isinstance(val, bool) or not isinstance(val, int if integer else (int, float)):
        raise error(f"{where}.{key}: expected {'an integer' if integer else 'a number'}, got {val!r}")
    if integer:
        return val
    try:
        num = float(val)
    except OverflowError:  # an integer beyond the float range
        raise error(f"{where}.{key}: number out of range, got {val!r}") from None
    if not math.isfinite(num):  # NaN, Infinity and 1e999 parse to these
        raise error(f"{where}.{key}: expected a finite number, got {val!r}")
    return num


def load_map(document: str) -> PathGraph:
    """Parse a JSON map document into a validated :class:`PathGraph`.

    Schema::

        {"origin": {"lat": .., "lon": ..},            # optional
         "vertices": [{"id": 0, "lat": .., "lon": .., "label": "gate"}, ...],
         "edges": [[0, 1], [1, 2], ...]}

    Vertices may use ``x``/``y`` (meters) instead of ``lat``/``lon``; the two
    styles cannot be mixed in one document. Geodetic vertices are projected
    about ``origin``, defaulting to the first vertex when no origin is given.
    Each field is read into one column and the columns are checked at once;
    only when a check fails are the vertices or edges checked one by one, so
    the error names the first bad one.
    """
    doc = _document(document, "document")
    _require(isinstance(doc, dict), "document", "top level must be an object")
    _require("vertices" in doc, "vertices", "missing")
    _require(isinstance(doc["vertices"], list), "vertices", "expected a list")
    _require("edges" in doc, "edges", "missing")
    _require(isinstance(doc["edges"], list), "edges", "expected a list")

    raw_vertices, raw_edges = doc["vertices"], doc["edges"]
    if set(map(type, raw_vertices)) - {dict}:
        k = next(k for k, rv in enumerate(raw_vertices) if not isinstance(rv, dict))
        raise MapSchemaError(f"vertices[{k}]: expected an object")
    used = set().union(*raw_vertices)  # every key of every vertex
    geodetic = not used.isdisjoint(("lat", "lon"))
    _require(not (geodetic and not used.isdisjoint(("x", "y"))), "vertices",
             "mixed lat/lon and x/y coordinate styles")

    origin: GeoPoint | None = None
    if "origin" in doc and doc["origin"] is not None:
        _require(isinstance(doc["origin"], dict), "origin", "expected an object")
        lat, lon = (_get_number(doc["origin"], "origin", key) for key in ("lat", "lon"))
        try:
            origin = GeoPoint(lat, lon)
        except ValueError as exc:
            raise MapSchemaError(f"origin: {exc}") from exc

    keys = ("lat", "lon") if geodetic else ("x", "y")
    labels = ([rv.get("label", "") for rv in raw_vertices] if "label" in used
              else [""] * len(raw_vertices))
    try:
        ids, u, w = (tuple(map(itemgetter(key), raw_vertices)) for key in ("id", *keys))
        coords = None
        if (set(map(type, ids)) <= {int} and set(map(type, labels)) <= {str}
                and set(map(type, u + w)) <= {int, float}):
            coords = np.array((u, w), dtype=float)
    except (KeyError, OverflowError):  # a field missing, or an integer past the float range
        coords = None
    if coords is None or not (np.isfinite(coords).all() and (not geodetic or (
            (np.abs(coords[0]) <= 90.0).all() and (np.abs(coords[1]) <= 180.0).all()))):
        for k, rv in enumerate(raw_vertices):  # the first bad vertex raises
            fname = f"vertices[{k}]"
            _get_number(rv, fname, "id", integer=True)
            if not isinstance(rv.get("label", ""), str):
                raise MapSchemaError(f"{fname}.label: expected a string, got {rv['label']!r}")
            coords = [_get_number(rv, fname, key) for key in keys]
            try:
                (GeoPoint if geodetic else LocalPoint)(*coords)
            except ValueError as exc:  # a latitude or longitude out of range
                raise MapSchemaError(f"{fname}: {exc}") from exc

    ends = raw_edges
    if set(map(type, raw_edges)) <= {list} and set(map(len, raw_edges)) <= {2}:
        ends = list(chain.from_iterable(raw_edges))
    if ends is raw_edges or not set(map(type, ends)) <= {int}:
        for k, re in enumerate(raw_edges):
            if not (isinstance(re, list) and len(re) == 2):
                raise MapSchemaError(f"edges[{k}]: expected a pair, got {re!r}")
            if any(isinstance(side, bool) or not isinstance(side, int) for side in re):
                raise MapSchemaError(f"edges[{k}]: endpoints must be integers, got {re!r}")

    if ids != tuple(range(len(ids))):
        raise MapValidationError(
            f"vertex ids must be dense integers 0..{len(ids) - 1} in order, got {list(ids)}"
        )
    if geodetic:
        lat, lon = coords
        if origin is None:
            origin = GeoPoint(lat[0], lon[0])  # first vertex anchors the local frame
        coords = _project(lat, lon, origin)
    try:
        ends = np.array(ends, dtype=np.int64).reshape(-1, 2)
    except OverflowError:  # an endpoint past int64: the graph names its pair
        ends = raw_edges
    return PathGraph._from_arrays(np.column_stack(coords), labels, ends)


def grid_graph(rows: int, cols: int, spacing: float = 1.0) -> PathGraph:
    """Rectangular lattice with unit-id vertices, for synthetic experiments."""
    if rows < 1 or cols < 1 or not (spacing > 0):
        raise ValueError("rows and cols must be >= 1 and spacing > 0")
    r, c = np.divmod(np.arange(rows * cols), cols)
    ids = np.arange(rows * cols).reshape(rows, cols)
    edges = [np.column_stack((ids[:, :-1].ravel(), ids[:, 1:].ravel())),
             np.column_stack((ids[:-1].ravel(), ids[1:].ravel()))]
    return PathGraph._from_arrays(np.column_stack((c, r)) * float(spacing), [""] * (rows * cols),
                                  np.concatenate(edges))


def degree_sum(g: PathGraph) -> int:
    """Sum of vertex degrees; equals 2 * |edges| on any undirected graph."""
    return int(g.degrees().sum())


def random_walk_matrix(g: PathGraph) -> StochasticMatrix:
    """Transition matrix of the simple random walk: P[i][j] = 1/deg(i) on edges.

    Its CSR rows are the graph's sorted neighbour lists.
    """
    deg = g.degrees()
    isolated = np.flatnonzero(deg == 0)
    if isolated.size:
        raise MapValidationError(
            f"isolated vertices {isolated.tolist()} have no outgoing transition"
        )
    indptr, indices = g.adjacency()
    return StochasticMatrix.from_csr(indptr, indices, np.repeat(1.0 / deg, deg))
