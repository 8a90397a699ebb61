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


class PathGraph:
    """Undirected simple graph of walkable locations.

    The vertex ids are dense integers 0..n-1, so they double as matrix and
    distribution indices. The graph is held as read-only arrays: the (n, 2)
    ``positions()`` and the CSR adjacency, where the neighbours of vertex i,
    in ascending id, are ``indices[indptr[i]:indptr[i + 1]]`` of
    ``adjacency()``. ``edges`` and ``labels()`` are read from them.
    """

    __slots__ = ("_positions", "_labels", "_indptr", "_indices")

    def __init__(self, positions, edges, labels=None):
        """Graph of ``positions``, an (n, 2) array of finite floats, ``edges``, an (m, 2)
        integer array or m pairs of integer vertex ids (bools are not), and ``labels``,
        n strings ("" each when None).

        Every edge is checked at once; when one fails, ``edges`` is checked again
        pair by pair, so the error names the first bad one.
        """
        try:
            pos = np.array(positions, dtype=np.float64)
        except (TypeError, ValueError, OverflowError):
            raise MapValidationError("positions must be an (n, 2) array of floats") from None
        if pos.shape == (0,):  # [] holds no vertices
            pos = pos.reshape(0, 2)
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise MapValidationError(f"positions must be an (n, 2) array, got shape {pos.shape}")
        n = pos.shape[0]
        bad = np.flatnonzero(~np.isfinite(pos).all(axis=1))
        if bad.size:
            raise MapValidationError(f"position {bad[0]} {tuple(pos[bad[0]].tolist())} is not finite")
        if labels is None:
            labels = ("",) * n
        elif not (isinstance(labels, (list, tuple)) and len(labels) == n
                  and all(isinstance(s, str) for s in labels)):
            raise MapValidationError(f"labels must be a list or tuple of n = {n} strings")
        if not (isinstance(edges, np.ndarray) and edges.dtype.kind in "iu" and edges.ndim == 2
                and edges.shape[1] == 2):
            edges = edges.tolist() if isinstance(edges, np.ndarray) else list(edges)
            for e in edges:
                if not (isinstance(e, (tuple, list)) and len(e) == 2 and all(
                        isinstance(x, (int, np.integer)) and not isinstance(x, bool) for x in e)):
                    raise MapValidationError(f"edge {e!r} is not a pair of integer vertex ids")
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
        for arr in (indptr, dst, pos):
            arr.flags.writeable = False
        self._positions, self._indptr, self._indices = pos, indptr, dst
        self._labels = tuple(labels)

    @property
    def n(self) -> int:
        return self._positions.shape[0]

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The canonical edges (a, b), a < b, in ascending order: the CSR pairs with a < b."""
        src = np.repeat(np.arange(self.n), np.diff(self._indptr))
        up = src < self._indices
        return tuple(zip(src[up].tolist(), self._indices[up].tolist()))

    def labels(self) -> tuple[str, ...]:
        """The vertex labels in id order."""
        return self._labels

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
        """The vertex positions as a read-only (n, 2) float array in id order."""
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
    return PathGraph(np.column_stack(coords), ends, labels)


def grid_graph(rows: int, cols: int, spacing: float = 1.0) -> PathGraph:
    """Rectangular lattice with unit-id vertices, for synthetic experiments."""
    for name, k in (("rows", rows), ("cols", cols)):
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {k!r}")
    if not (isinstance(spacing, (int, float, np.integer, np.floating)) and math.isfinite(spacing)
            and spacing > 0):
        raise ValueError(f"spacing must be finite and > 0, got {spacing!r}")
    r, c = np.divmod(np.arange(rows * cols), cols)
    ids = np.arange(rows * cols).reshape(rows, cols)
    edges = [np.column_stack((ids[:, :-1].ravel(), ids[:, 1:].ravel())),
             np.column_stack((ids[:-1].ravel(), ids[1:].ravel()))]
    return PathGraph(np.column_stack((c, r)) * float(spacing), np.concatenate(edges))


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
