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
from dataclasses import dataclass, field

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

    def distance_to(self, other: "LocalPoint") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class Vertex:
    id: int
    position: LocalPoint
    label: str = ""


@dataclass(frozen=True, eq=False)
class PathGraph:
    """Undirected simple graph of walkable locations.

    Vertex ids are dense integers starting at 0 so they double as matrix and
    distribution indices. Edges are stored canonically as (a, b) with a < b.
    The adjacency is held in CSR form: the neighbours of vertex i, in
    ascending id, are ``indices[indptr[i]:indptr[i + 1]]`` of
    ``adjacency()``.
    """

    vertices: tuple[Vertex, ...]
    edges: tuple[tuple[int, int], ...]
    _indptr: np.ndarray = field(init=False, repr=False)
    _indices: np.ndarray = field(init=False, repr=False)
    _positions: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        ids = [v.id for v in self.vertices]
        if ids != list(range(len(ids))):
            raise MapValidationError(
                f"vertex ids must be dense integers 0..{len(ids) - 1} in order, got {ids}"
            )
        n = len(ids)
        canonical: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        for a, b in self.edges:
            if a == b:
                raise MapValidationError(f"self-loop edge ({a}, {b}) is not allowed")
            if not (0 <= a < n and 0 <= b < n):
                raise MapValidationError(f"edge ({a}, {b}) references a missing vertex (n={n})")
            e = (a, b) if a < b else (b, a)
            if e in seen:
                raise MapValidationError(f"duplicate edge ({a}, {b})")
            seen.add(e)
            canonical.append(e)
        canonical.sort()
        object.__setattr__(self, "edges", tuple(canonical))
        a, b = np.array(canonical, dtype=np.int64).reshape(-1, 2).T
        src, dst = np.concatenate((a, b)), np.concatenate((b, a))
        order = np.lexsort((dst, src))  # by vertex, then neighbour id
        indptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n))))
        pos = np.array([[v.position.x, v.position.y] for v in self.vertices],
                       dtype=float).reshape(n, 2)
        for name, arr in (("_indptr", indptr), ("_indices", dst[order]), ("_positions", pos)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return len(self.vertices)

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


def project(p: GeoPoint, origin: GeoPoint) -> LocalPoint:
    """Equirectangular projection of ``p`` to meters east/north of ``origin``.

    x = R * cos(origin.lat) * (lon - origin.lon in radians)
    y = R * (lat - origin.lat in radians)

    Adequate for campus-scale extents (hundreds of meters), where the
    flat-earth error is far below GPS noise.
    """
    x = EARTH_RADIUS_M * math.cos(math.radians(origin.lat)) * math.radians(p.lon - origin.lon)
    y = EARTH_RADIUS_M * math.radians(p.lat - origin.lat)
    return LocalPoint(x, y)


def unproject(lp: LocalPoint, origin: GeoPoint) -> GeoPoint:
    """Analytic inverse of :func:`project` about the same origin."""
    lat = origin.lat + math.degrees(lp.y / EARTH_RADIUS_M)
    lon = origin.lon + math.degrees(lp.x / (EARTH_RADIUS_M * math.cos(math.radians(origin.lat))))
    return GeoPoint(lat, lon)


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
    """
    doc = _document(document, "document")
    _require(isinstance(doc, dict), "document", "top level must be an object")
    _require("vertices" in doc, "vertices", "missing")
    _require(isinstance(doc["vertices"], list), "vertices", "expected a list")
    _require("edges" in doc, "edges", "missing")
    _require(isinstance(doc["edges"], list), "edges", "expected a list")

    raw_vertices = doc["vertices"]
    styles = set()
    for k, rv in enumerate(raw_vertices):
        if not isinstance(rv, dict):
            raise MapSchemaError(f"vertices[{k}]: expected an object")
        if "lat" in rv or "lon" in rv:
            styles.add("geodetic")
        if "x" in rv or "y" in rv:
            styles.add("local")
    _require(styles != {"geodetic", "local"}, "vertices", "mixed lat/lon and x/y coordinate styles")
    geodetic = styles == {"geodetic"}

    origin: GeoPoint | None = None
    if "origin" in doc and doc["origin"] is not None:
        _require(isinstance(doc["origin"], dict), "origin", "expected an object")
        lat, lon = (_get_number(doc["origin"], "origin", key) for key in ("lat", "lon"))
        try:
            origin = GeoPoint(lat, lon)
        except ValueError as exc:
            raise MapSchemaError(f"origin: {exc}") from exc

    vertices: list[Vertex] = []
    for k, rv in enumerate(raw_vertices):
        fname = f"vertices[{k}]"
        vid = _get_number(rv, fname, "id", integer=True)
        label = rv.get("label", "")
        if not isinstance(label, str):
            raise MapSchemaError(f"{fname}.label: expected a string, got {label!r}")
        if geodetic:
            lat, lon = _get_number(rv, fname, "lat"), _get_number(rv, fname, "lon")
            try:
                gp = GeoPoint(lat, lon)
            except ValueError as exc:
                raise MapSchemaError(f"{fname}: {exc}") from exc
            if origin is None:
                origin = gp  # first vertex anchors the local frame
            pos = project(gp, origin)
        else:
            pos = LocalPoint(_get_number(rv, fname, "x"), _get_number(rv, fname, "y"))
        vertices.append(Vertex(id=vid, position=pos, label=label))

    edges: list[tuple[int, int]] = []
    for k, re in enumerate(doc["edges"]):
        if not (isinstance(re, list) and len(re) == 2):
            raise MapSchemaError(f"edges[{k}]: expected a pair, got {re!r}")
        a, b = re
        for side in (a, b):
            if isinstance(side, bool) or not isinstance(side, int):
                raise MapSchemaError(f"edges[{k}]: endpoints must be integers, got {re!r}")
        edges.append((a, b))

    return PathGraph(vertices=tuple(vertices), edges=tuple(edges))


def grid_graph(rows: int, cols: int, spacing: float = 1.0) -> PathGraph:
    """Rectangular lattice with unit-id vertices, for synthetic experiments."""
    if rows < 1 or cols < 1 or not (spacing > 0):
        raise ValueError("rows and cols must be >= 1 and spacing > 0")
    vertices = []
    for r in range(rows):
        for c in range(cols):
            vertices.append(Vertex(id=r * cols + c, position=LocalPoint(c * spacing, r * spacing)))
    edges = []
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if c + 1 < cols:
                edges.append((i, i + 1))
            if r + 1 < rows:
                edges.append((i, i + cols))
    return PathGraph(vertices=tuple(vertices), edges=tuple(edges))


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
