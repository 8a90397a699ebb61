"""Trace simulation, noisy-fix smoothing, and obstacle-aware guidance alerts.

The pipeline mirrors a wearable tracker: a walker moves on the path graph
(simulate_walk), the position sensor corrupts the truth (add_noise), and the
tracker recovers the path either memorylessly (snap) or with the motion model
(smooth, an exact maximum a posteriori decode). Obstacle checks (detect) and
alert delivery (dispatch) sit on top of the recovered position.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .chains import StochasticMatrix, _join_or_write, _transitions, sample_path
from .mapgraph import LocalPoint, PathGraph, _document, _get_number
from .profiles import WalkingProfile

#: localization error (m) of the GPS+compass prototype this simulation models
REFERENCE_FIELD_ERROR_M = 0.18

DEFAULT_SAFER_DISTANCE_M = 5.0

ALERT_KINDS = ("obstacle_warning", "hold_position", "destination_reached")
OBSTACLE_KINDS = ("stationary", "moving")


class FixError(ValueError):
    """A fix breaks an invariant: ``fix`` is its index, ``field`` its trace column, or None."""

    def __init__(self, message: str, fix: int | None = None, field: str | None = None):
        super().__init__(message)
        self.fix = fix
        self.field = field


class TrellisError(FixError):
    """Smoothing found no positive-probability state sequence up to fix ``fix``."""


class ObstacleRangeError(ValueError):
    """A moving obstacle's position at some time leaves the float range."""


#: truth column entry of a fix whose generating vertex is unknown; the trace
#: parser rejects this value, so it never stands for a vertex id, valid or not
NO_TRUTH = np.iinfo(np.int64).min


def _check_fixes(t: np.ndarray, xy: np.ndarray) -> None:
    """Raise FixError for the first fix that breaks a trace invariant.

    A fix needs finite coordinates and a finite time >= 0; times must
    strictly increase. Per-fix faults come before ordering faults.
    """
    bad = np.flatnonzero(~(np.isfinite(xy).all(axis=1) & np.isfinite(t) & (t >= 0)))
    if bad.size:
        k = int(bad[0])
        x, y = xy[k].tolist()
        for column, value in (("x_m", x), ("y_m", y)):
            if not math.isfinite(value):
                raise FixError(f"local coordinates must be finite, got ({x!r}, {y!r})", k, column)
        raise FixError(f"fix time must be finite and >= 0, got {float(t[k])!r}", k, "t_s")
    back = np.flatnonzero(t[1:] <= t[:-1])
    if back.size:
        k = int(back[0]) + 1
        raise FixError(f"fix timestamps must strictly increase, "
                       f"got {float(t[k - 1])!r} then {float(t[k])!r}", k, "t_s")


@dataclass(frozen=True, eq=False)
class Trace:
    """Time-ordered fixes from one walk, held as read-only columns.

    ``t`` is the (m,) array of fix times, ``xy`` the (m, 2) array of fix
    positions and ``truth`` the (m,) int64 array of generating vertices,
    ``NO_TRUTH`` where a fix carries none (``truth=None`` means none does).
    The columns are copied and validated once, at construction.
    """

    t: np.ndarray
    xy: np.ndarray
    truth: np.ndarray | None = None

    def __post_init__(self) -> None:
        t = np.array(self.t, dtype=float)
        xy = np.array(self.xy, dtype=float)
        if t.ndim != 1:
            raise ValueError(f"t must be a 1-D array of fix times, got shape {t.shape}")
        if t.size == 0:
            raise ValueError("trace must contain at least one fix")
        m = t.size
        if xy.shape != (m, 2):
            raise ValueError(f"xy must have shape ({m}, 2) for {m} fix times, got {xy.shape}")
        if self.truth is None:
            truth = np.full(m, NO_TRUTH)
        else:
            truth = np.array(self.truth)
            if truth.shape != (m,) or not np.issubdtype(truth.dtype, np.integer):
                raise ValueError(f"truth must be {m} integer vertex ids, got {truth.dtype} "
                                 f"of shape {truth.shape}")
            truth = truth.astype(np.int64)
        _check_fixes(t, xy)
        for name, col in (("t", t), ("xy", xy), ("truth", truth)):
            col.flags.writeable = False
            object.__setattr__(self, name, col)

    def __len__(self) -> int:
        return self.t.size

    def has_truth(self) -> bool:
        return bool((self.truth != NO_TRUTH).all())

    def positions(self) -> np.ndarray:
        return self.xy


@dataclass(frozen=True)
class Obstacle:
    """Point obstacle, stationary or in uniform linear motion."""

    id: int
    kind: str
    position: LocalPoint
    velocity: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "velocity", (float(self.velocity[0]), float(self.velocity[1])))
        if self.kind not in OBSTACLE_KINDS:
            raise ValueError(f"obstacle kind must be one of {OBSTACLE_KINDS}, got {self.kind!r}")
        vx, vy = self.velocity
        if not (math.isfinite(vx) and math.isfinite(vy)):
            raise ValueError(f"obstacle velocity must be finite, got {self.velocity!r}")
        if self.kind == "stationary" and (vx, vy) != (0.0, 0.0):
            raise ValueError(f"stationary obstacle {self.id} has non-zero velocity {self.velocity!r}")

    def position_at(self, t: float) -> LocalPoint:
        """Position at time t; ObstacleRangeError if it leaves the float range."""
        x, y = self.position.x + self.velocity[0] * t, self.position.y + self.velocity[1] * t
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ObstacleRangeError(f"obstacle {self.id} leaves the float range at t = {t!r}")
        return LocalPoint(x, y)


@dataclass(frozen=True)
class AlertEvent:
    t: float
    kind: str
    distance: float
    message: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "distance", float(self.distance))
        if self.kind not in ALERT_KINDS:
            raise ValueError(f"alert kind must be one of {ALERT_KINDS}, got {self.kind!r}")
        if not (math.isfinite(self.distance) and self.distance >= 0):
            raise ValueError(f"alert distance must be finite and >= 0, got {self.distance!r}")
        # one line of alerts.log: no break that str.splitlines sees (\r, \x85, \u2028, ...)
        if "\t" in self.message or self.message.splitlines() not in ([], [self.message]):
            raise ValueError("alert message must not contain tabs or newlines")
        try:  # every sink writes it as UTF-8
            self.message.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ValueError(f"alert message {self.message!r} is not encodable as UTF-8 "
                             f"({exc.reason} at index {exc.start})") from None


# ---------------------------------------------------------------------------
# walk simulation and sensor noise

def simulate_walk(
    g: PathGraph,
    P: StochasticMatrix,
    profile: WalkingProfile,
    start: int,
    n_steps: int,
    seed: int,
) -> Trace:
    """Walk ``n_steps`` transitions of P over the graph, recording truth and time.

    The states visited are ``sample_path(P, start, n_steps, seed)``. Each
    move from u to v advances time by edge length / profile speed. A
    self-transition (possible only in held chains) advances time by one step
    period. Raises ValueError naming the step, and its edge, where time first
    leaves the float range or, failing that, first does not advance (an edge
    of zero length, or one too short for the time already walked).
    """
    if P.n != g.n:
        raise ValueError(f"matrix has {P.n} states but graph has {g.n} vertices")
    if not (0 <= start < g.n):
        raise ValueError(f"start vertex {start} outside 0..{g.n - 1}")
    path = sample_path(P, start, n_steps, seed)
    pos = g.positions()
    with np.errstate(over="ignore"):  # a time past the float range is inf; Trace names it
        dx, dy = (pos[path[1:]] - pos[path[:-1]]).T
        dt = np.where(path[1:] == path[:-1], profile.step_period, np.hypot(dx, dy) / profile.speed)
        times = np.concatenate(([0.0], np.cumsum(dt)))  # float64 cumsum adds in sequence
    try:
        return Trace(t=times, xy=pos[path], truth=path)
    except FixError as exc:  # only a time can be at fault: vertex positions are finite
        k = exc.fix
        raise ValueError(f"step {k}, edge {path[k - 1]} -> {path[k]}: {exc}") from None


def add_noise(tr: Trace, sigma: float, seed: int) -> Trace:
    """Add isotropic zero-mean Gaussian position noise; times and truth survive."""
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma!r}")
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, sigma, size=(len(tr), 2)) if sigma > 0 else np.zeros((len(tr), 2))
    return Trace(t=tr.t, xy=tr.xy + noise, truth=tr.truth)


# ---------------------------------------------------------------------------
# localization

def snap(tr: Trace, g: PathGraph) -> list[int]:
    """Memoryless decode: nearest vertex per fix, ties to the lowest id."""
    if g.n == 0:
        raise ValueError("graph has no vertices to snap to")
    obs, pos = tr.positions(), g.positions()
    nearest = []
    for block in _fix_blocks(len(tr), g.n):
        d2 = _squared_distances(obs[block, None], pos)
        k = np.argmin(d2, axis=1)
        far = np.flatnonzero(d2[np.arange(k.size), k] == np.inf)  # inf at every vertex
        if far.size:
            fix = block.start + int(far[0])
            raise FixError(f"fix {fix}: squared distance to every vertex overflows", fix)
        nearest += k.tolist()
    return nearest


#: bytes of one block of per-vertex emission scores: the fixes are scored
#: against every vertex this many bytes' worth at a time, so no m x n table exists
_EMISSION_BLOCK_BYTES = 1 << 17

#: bytes of per-fix trellis scores ``smooth`` holds at once: a longer trace is
#: decoded in segments of that many fixes, each earlier one replayed from the
#: scores that enter it, so memory does not grow with m * n
_TRELLIS_BYTES = 1 << 24


def _fix_blocks(m: int, n: int) -> Iterator[slice]:
    """Slices of consecutive fixes, each scoring against n vertices within the byte budget."""
    step = max(1, _EMISSION_BLOCK_BYTES // (8 * n))
    return (slice(lo, min(lo + step, m)) for lo in range(0, m, step))


def _squared_distances(obs: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Squared distances between broadcast fix and vertex coordinates (last axis x, y).

    ``obs[:, None]`` against ``pos`` gives the (m, n) table, equal-shaped
    arrays one distance per row. dx*dx + dy*dy has the bits of summing the
    stacked squared differences over their last axis: a sum of two terms is
    one addition. A distance too large for a float is inf, with no warning.
    """
    with np.errstate(over="ignore"):
        d2 = obs[..., 0] - pos[..., 0]
        d2 *= d2
        dy = obs[..., 1] - pos[..., 1]
        dy *= dy
        d2 += dy
    return d2


def _log_emissions(obs: np.ndarray, pos: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian log emission scores -|obs - pos|^2 / (2 sigma^2), broadcast as in _squared_distances."""
    d2 = _squared_distances(obs, pos)
    with np.errstate(over="ignore"):  # scores past the float range are -inf; smooth reports them
        d2 /= -(2.0 * sigma * sigma)  # the bits of -d2 / (2 sigma^2): division is sign-symmetric
    return d2


def smooth(tr: Trace, g: PathGraph, P: StochasticMatrix, emission_sigma: float = 1.0) -> list[int]:
    """Exact MAP vertex sequence under the chain prior and Gaussian emissions.

    Runs max-product dynamic programming in log space with a uniform prior
    over the first state and emission density proportional to
    exp(-|fix - vertex|^2 / (2 sigma^2)). Each stage maximizes over the
    predecessors of every state only, O(n * d) for largest in-degree d, and
    keeps each state's best score, not which predecessor gave it. Tracing
    back finds the winning predecessor again for the one state on the
    decoded path at each fix: the first maximum in ascending predecessor id,
    so ties resolve to the lower vertex id. Emission scores are computed for
    a block of fixes at a time. The scores of at most
    ``_TRELLIS_BYTES // (8 * (n + 1))`` fixes are held at once: a longer
    trace is cut into segments of that many fixes, the scores entering each
    are kept, and tracing back replays every segment but the last from them.
    So memory is O(n * d) plus that budget plus n + 1 floats per segment.
    Raises TrellisError when every sequence has zero probability.
    """
    if P.n != g.n:
        raise ValueError(f"matrix has {P.n} states but graph has {g.n} vertices")
    if not (0 < emission_sigma < math.inf and 2.0 * emission_sigma * emission_sigma > 0):
        raise ValueError(f"emission_sigma must be finite and > 0, and 2 sigma^2 must not "
                         f"underflow to 0, got {emission_sigma!r}")
    m, n = len(tr), g.n
    # Predecessor table from the reversed digraph, slot-major: column v lists
    # the states u with P[u, v] > 0 in ascending id, padded to the largest
    # in-degree with the sentinel state n, whose score stays -inf.
    indptr, src, w = _transitions(P, reverse=True)
    indeg = np.diff(indptr)
    dst = np.repeat(np.arange(n), indeg)
    slot = np.arange(src.size) - np.repeat(indptr[:-1], indeg)
    lw = np.log(w)
    pred = np.full((int(indeg.max()), n), n)
    pred[slot, dst] = src
    log_w = np.full(pred.shape, -np.inf)
    log_w[slot, dst] = lw
    cand = np.empty(pred.shape)
    obs, pos = tr.positions(), g.positions()
    seg = max(1, _TRELLIS_BYTES // (8 * (n + 1)))
    scores = np.full((min(seg, m), n + 1), -np.inf)  # column n: the sentinel

    def forward(lo: int, hi: int, prev: np.ndarray | None) -> None:
        """Score fixes lo..hi-1 into the rows of ``scores``, from the scores of fix lo - 1."""
        i = 0
        for block in _fix_blocks(hi - lo, n):
            for em in _log_emissions(obs[lo + block.start:lo + block.stop, None], pos,
                                     emission_sigma):
                row = scores[i, :n]
                if prev is None:
                    row[:] = em  # uniform prior contributes a constant; omitted
                else:
                    # The max is one of the candidates, and no candidate is
                    # -0.0 (log_w never is) or NaN, so each score has the
                    # bits of the candidate an argmax would pick: the
                    # np.maximum.reduceat step of bench/oracle.py::viterbi.
                    # Every index is in 0..n, so "wrap" only skips the
                    # bounds check and the buffered copy "raise" makes.
                    prev.take(pred, out=cand, mode="wrap")
                    np.add(cand, log_w, out=cand)
                    np.maximum.reduce(cand, axis=0, out=row)
                    row += em
                prev = scores[i]
                i += 1
        # once every score is -inf, every later score is -inf too
        if scores[hi - lo - 1].max() == -np.inf:
            k = lo + int(np.argmax(scores[:hi - lo].max(axis=1) == -np.inf))
            dead = (f"no positive-probability path survives to fix {k}" if k else
                    "no state has positive probability at fix 0")
            if np.isinf(_squared_distances(obs[k], pos)).all():
                raise TrellisError(f"{dead}: its squared distance to every vertex overflows", k)
            raise TrellisError(f"{dead}; widen emission_sigma or augment the chain with self-loops", k)

    starts = range(0, m, seg)
    entering: list[np.ndarray | None] = [None]  # the scores of the fix before each segment
    for lo in starts:
        if lo:
            entering.append(scores[seg - 1].copy())
        forward(lo, min(lo + seg, m), entering[-1])
    ptr, src_l, lw_l = indptr.tolist(), src.tolist(), lw.tolist()
    v = int(np.argmax(scores[(m - 1) % seg]))
    seq = [v]
    for s in range(len(starts) - 1, -1, -1):
        lo = starts[s]
        hi = min(lo + seg, m)
        if hi < m:
            forward(lo, hi, entering[s])
        for k in range(hi - 1, max(lo, 1) - 1, -1):
            item = scores[k - 1 - lo].item if k > lo else entering[s].item
            best, u = -math.inf, v
            for j in range(ptr[v], ptr[v + 1]):  # the first maximum: the lowest id
                score = item(src_l[j]) + lw_l[j]
                if score > best:
                    best, u = score, src_l[j]
            v = u
            seq.append(v)
    seq.reverse()
    return seq


def localization_error(estimate: Sequence[int], tr: Trace, g: PathGraph) -> float:
    """Mean Euclidean distance between estimated and true vertex positions."""
    if len(estimate) != len(tr):
        raise ValueError(f"estimate length {len(estimate)} != trace length {len(tr)}")
    if not tr.has_truth():
        raise ValueError("trace carries no ground truth; localization error is undefined")
    truth_states = tr.truth
    bad = np.flatnonzero((truth_states < 0) | (truth_states >= g.n))
    if bad.size:
        k = int(bad[0])
        raise FixError(f"truth_vertex {truth_states[k]} outside 0..{g.n - 1} at fix {k}", k,
                       "truth_vertex")
    ids = np.asarray(estimate)
    # numpy reads a bool among ints as an int, so only a sequence with no bool is range-checked whole
    if ids.dtype.kind in "iu" and (isinstance(estimate, np.ndarray)
                                   or {bool, np.bool_}.isdisjoint(map(type, estimate))):
        bad = np.flatnonzero((ids < 0) | (ids >= g.n)).tolist()
    else:  # floats, bools or objects: each id is checked as given
        ids = ids.tolist() if isinstance(estimate, np.ndarray) else list(estimate)
        bad = [k for k, s in enumerate(ids) if isinstance(s, bool)
               or not isinstance(s, (int, np.integer)) or not 0 <= s < g.n]
    if bad:
        k = bad[0]
        value = ids[k].item() if isinstance(ids, np.ndarray) else ids[k]
        raise ValueError(f"estimate vertex {value!r} at fix {k} is not an integer in 0..{g.n - 1}")
    pos = g.positions()
    est = pos[np.asarray(ids, dtype=int)]
    truth = pos[truth_states]
    return float(np.hypot(*(est - truth).T).mean())


# ---------------------------------------------------------------------------
# obstacles

def hold_on_obstacle(P: StochasticMatrix, blocked: Iterable[int]) -> StochasticMatrix:
    """Replace each blocked state's row with a self-loop; other rows untouched.

    The CSR rows of the blocked states become one stored 1.0 on the diagonal.
    """
    blocked = sorted(set(int(b) for b in blocked))
    for b in blocked:
        if not (0 <= b < P.n):
            raise ValueError(f"blocked state {b} outside 0..{P.n - 1}")
    held = np.array(blocked, dtype=np.int64)
    rows = P.rows()
    kept = ~np.isin(rows, held)
    # stored entries of the other rows, then one self-loop per held row, put
    # back in row order (a stable sort keeps each row's columns ascending)
    r = np.concatenate((rows[kept], held))
    order = np.argsort(r, kind="stable")
    return StochasticMatrix.from_csr(
        np.concatenate(([0], np.cumsum(np.bincount(r, minlength=P.n)))),
        np.concatenate((P.indices[kept], held))[order],
        np.concatenate((P.data[kept], np.ones(held.size)))[order],
        row_sum_tol=P.row_sum_tol)


def _check_safer_distance(safer_distance: float) -> None:
    if not (math.isfinite(safer_distance) and safer_distance > 0):
        raise ValueError(f"safer_distance must be finite and > 0, got {safer_distance!r}")


#: relative widening of the safer distance in ``scan_obstacles``, for the last bits in
#: which ``np.hypot`` may differ from the ``math.hypot`` of ``detect``
_SCAN_MARGIN = 1e-9


def scan_obstacles(xy: np.ndarray, t: np.ndarray, obstacles: Sequence[Obstacle],
                   safer_distance: float = DEFAULT_SAFER_DISTANCE_M) -> list[int]:
    """The fixes, in order, at which ``detect`` may warn or raise, found for all at once.

    Each obstacle's position at each of the (m,) times ``t`` comes from the
    IEEE operations of ``Obstacle.position_at``. A fix is flagged when one is
    not finite, or within ``safer_distance`` (widened by ``_SCAN_MARGIN``) of
    the walker's (m, 2) positions ``xy`` by ``np.hypot``. ``detect`` warns at
    no other fix, so it alone decides each alert.
    """
    _check_safer_distance(safer_distance)
    if not obstacles:
        return []
    start = np.array([[o.position.x, o.position.y] for o in obstacles])
    velocity = np.array([o.velocity for o in obstacles])
    flagged, limit = [], safer_distance * (1 + _SCAN_MARGIN)
    for block in _fix_blocks(t.size, len(obstacles)):
        with np.errstate(over="ignore", invalid="ignore"):  # past the float range: flagged
            ox = start[:, 0] + velocity[:, 0] * t[block, None]
            oy = start[:, 1] + velocity[:, 1] * t[block, None]
            near = np.hypot(ox - xy[block, :1], oy - xy[block, 1:]) <= limit
        near |= ~(np.isfinite(ox) & np.isfinite(oy))
        flagged += (np.flatnonzero(near.any(axis=1)) + block.start).tolist()
    return flagged


def detect(
    user_position: LocalPoint,
    t: float,
    obstacles: Sequence[Obstacle],
    profile: WalkingProfile,
    safer_distance: float = DEFAULT_SAFER_DISTANCE_M,
) -> list[AlertEvent]:
    """Obstacle warnings for everything within ``safer_distance`` at time t.

    Stationary obstacles report the time the walker needs to reach them at
    profile speed. Moving obstacles that are closing report the time for the
    remaining gap to close at the current closing speed. Results are sorted
    by distance, nearest first.
    """
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"time must be finite and >= 0, got {t!r}")
    _check_safer_distance(safer_distance)
    events = []
    for obs in obstacles:
        at = obs.position_at(t)
        dx, dy = at.x - user_position.x, at.y - user_position.y
        dist = math.hypot(dx, dy)
        if dist > safer_distance:
            continue
        if obs.kind == "stationary":
            ttr = dist / profile.speed
            msg = (f"{obs.kind} obstacle {obs.id} at {dist:.2f} m; "
                   f"{ttr:.2f} s away at walking pace")
        else:
            # closing speed: negative radial velocity of the obstacle
            closing = -(dx * obs.velocity[0] + dy * obs.velocity[1]) / dist if dist > 0 else 0.0
            if closing > 0:
                msg = (f"{obs.kind} obstacle {obs.id} at {dist:.2f} m, closing; "
                       f"gap closes in {dist / closing:.2f} s")
            else:
                msg = f"{obs.kind} obstacle {obs.id} at {dist:.2f} m, not closing"
        events.append(AlertEvent(t=t, kind="obstacle_warning", distance=dist, message=msg))
    events.sort(key=lambda e: e.distance)
    return events


# ---------------------------------------------------------------------------
# alert delivery

def format_alert_line(ev: AlertEvent) -> str:
    """One alert as a tab-separated log line: t, kind, distance, message."""
    return f"{ev.t!r}\t{ev.kind}\t{ev.distance!r}\t{ev.message}"


class FileSink:
    """Append-only alert log: UTF-8, LF line endings, one TSV line per event.

    The file is opened by the first ``deliver`` and held until ``close``, which
    ``dispatch`` calls before it returns: one open per dispatch, not per event.
    With ``fresh`` it is opened and emptied at once instead, so the log holds
    this sink's events only, even when every delivery fails; a file that
    cannot be opened then raises OSError. Each line is flushed before
    ``deliver`` reports it delivered.
    """

    def __init__(self, path, fresh: bool = False):
        self.path = path
        self.name = f"file:{path}"
        self._fh: TextIO | None = open(path, "w", encoding="utf-8", newline="\n") if fresh else None

    def deliver(self, ev: AlertEvent) -> bool:
        try:
            if self._fh is None:
                self._fh = open(self.path, "a", encoding="utf-8", newline="\n")
            self._fh.write(format_alert_line(ev) + "\n")
            self._fh.flush()
            return True
        except (OSError, UnicodeEncodeError):  # an event built past AlertEvent's checks
            self.close()  # the next event opens the file afresh
            return False

    def close(self) -> None:
        fh, self._fh = self._fh, None
        if fh is not None:
            try:
                fh.close()
            except OSError:  # a line that failed to flush: already reported as failed
                pass


class WebhookSink:
    """HTTP POST sink: one flat JSON document per event, 2xx means delivered."""

    def __init__(self, url: str, timeout: float = 2.0):
        self.url = url
        self.timeout = timeout
        self.name = f"webhook:{url}"

    def deliver(self, ev: AlertEvent) -> bool:
        # imported here, so that a run without a webhook never loads the HTTP
        # stack (http.client pulls in ssl and email: start-up time and memory)
        import http.client
        import urllib.error
        import urllib.request

        body = json.dumps(
            {"t_s": ev.t, "kind": ev.kind, "distance_m": ev.distance, "message": ev.message}
        ).encode("utf-8")
        try:  # a malformed URL fails in Request: a failed delivery too
            req = urllib.request.Request(
                self.url, data=body, headers={"Content-Type": "application/json"}, method="POST"
            )
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return 200 <= resp.status < 300
        except (urllib.error.URLError, http.client.HTTPException, OSError, ValueError):
            return False


@dataclass(frozen=True)
class SinkReport:
    sink: str
    delivered: int
    failed: int
    flags: tuple[bool, ...]  # per unique event, in delivery order


@dataclass(frozen=True)
class DeliveryReport:
    sinks: tuple[SinkReport, ...]


def dispatch(events: Sequence[AlertEvent], sinks: Sequence) -> DeliveryReport:
    """Deliver events to every sink, at most once per (event, sink) per call.

    Duplicate events (same time, kind, distance and message) collapse to a
    single delivery. Sink failures are recorded, never raised, so one dead
    sink cannot block the others. A sink with a ``close`` method is closed
    once its events are delivered.
    """
    unique = list(dict.fromkeys(events))  # AlertEvent hashes and compares by all four fields
    reports = []
    for sink in sinks:
        try:
            flags = tuple(bool(sink.deliver(ev)) for ev in unique)
        finally:
            close = getattr(sink, "close", None)
            if close is not None:
                close()
        reports.append(SinkReport(
            sink=sink.name,
            delivered=sum(flags),
            failed=len(flags) - sum(flags),
            flags=flags,
        ))
    return DeliveryReport(sinks=tuple(reports))


# ---------------------------------------------------------------------------
# trace and obstacle serialization

_TRACE_COLUMNS = ("t_s", "x_m", "y_m", "truth_vertex")


#: trace rows formatted per written block
_TRACE_BLOCK = 1 << 12


def trace_to_csv(tr: Trace, out: TextIO | None = None) -> str | None:
    """Trace as CSV: t_s,x_m,y_m plus truth_vertex when any fix carries truth.

    A fix without truth leaves its truth_vertex field empty. Rows are
    formatted ``_TRACE_BLOCK`` at a time; with an open text handle ``out``
    each block is written as it is made and None is returned, otherwise the
    whole text is.
    """
    return _join_or_write(_trace_csv_blocks(tr), out)


def _trace_csv_blocks(tr: Trace) -> Iterator[str]:
    missing = tr.truth == NO_TRUTH
    with_truth = not missing.all()
    yield "t_s,x_m,y_m,truth_vertex\n" if with_truth else "t_s,x_m,y_m\n"
    for lo in range(0, len(tr), _TRACE_BLOCK):
        rows = slice(lo, lo + _TRACE_BLOCK)
        t, x, y = tr.t[rows].tolist(), tr.xy[rows, 0].tolist(), tr.xy[rows, 1].tolist()
        if not with_truth:
            yield "".join([f"{a!r},{b!r},{c!r}\n" for a, b, c in zip(t, x, y)])
            continue
        truth = tr.truth[rows].tolist()
        for k in np.flatnonzero(missing[rows]).tolist():
            truth[k] = ""
        yield "".join([f"{a!r},{b!r},{c!r},{v}\n" for a, b, c, v in zip(t, x, y, truth)])


def _truth_id(token: str) -> int:
    """The vertex id in a truth_vertex field; ValueError unless an int64 other than NO_TRUTH."""
    v = int(token)
    if not (NO_TRUTH < v <= np.iinfo(np.int64).max):
        raise ValueError(token)
    return v


def _check_trace_fields(k: int, parts: list[str], with_truth: bool) -> None:
    """Raise a ValueError naming line ``k`` and the first of its fields that does not parse."""
    for name, token in zip(_TRACE_COLUMNS[:3], parts):
        try:
            float(token)
        except ValueError:
            raise ValueError(f"trace line {k}: {name}: expected a number, got {token!r}") from None
    if with_truth and len(parts) > 3 and parts[3].strip():
        try:
            _truth_id(parts[3])
        except ValueError:
            raise ValueError(f"trace line {k}: truth_vertex: expected an integer vertex id, "
                             f"got {parts[3]!r}") from None


def numbered_lines(text: str) -> list[tuple[int, str]]:
    """The non-blank lines of a trace CSV (header first) with their numbers, counted from 1."""
    return [(k, ln) for k, ln in enumerate(text.splitlines(), start=1) if ln.strip()]


def trace_from_csv(text: str) -> Trace:
    """Parse a trace CSV; errors name the line of ``numbered_lines`` and the field.

    An empty or missing truth_vertex field marks a fix without truth.
    """
    numbered = numbered_lines(text)
    if not numbered:
        raise ValueError("trace file is empty")
    header = [h.strip() for h in numbered[0][1].split(",")]
    if header[:3] != list(_TRACE_COLUMNS[:3]):
        raise ValueError(f"trace header must start with t_s,x_m,y_m, got {numbered[0][1]!r}")
    with_truth = len(header) > 3 and header[3] == _TRACE_COLUMNS[3]
    rows = []
    for k, line in numbered[1:]:
        parts = line.split(",")
        if len(parts) < 3:
            raise ValueError(f"trace line {k}: expected at least 3 fields, got {line!r}")
        rows.append((k, parts))
    try:
        values = np.array([[float(p[0]), float(p[1]), float(p[2])] for _, p in rows],
                          dtype=float).reshape(len(rows), 3)
        truth = None
        if with_truth:
            truth = np.array([_truth_id(p[3]) if len(p) > 3 and p[3].strip() else NO_TRUTH
                              for _, p in rows], dtype=np.int64)
    except ValueError:
        for k, parts in rows:
            _check_trace_fields(k, parts, with_truth)
        raise
    try:
        return Trace(t=values[:, 0], xy=values[:, 1:], truth=truth)
    except FixError as exc:
        raise ValueError(f"trace line {rows[exc.fix][0]}: {exc.field}: {exc}") from None


def obstacles_from_json(text: str) -> list[Obstacle]:
    """Parse an obstacle file: a JSON list of {id, kind, x, y, vx, vy} with distinct ids."""
    doc = _document(text, "obstacle file", ValueError)
    if not isinstance(doc, list):
        raise ValueError("obstacle file: top level must be a list")
    out = []
    seen_ids: set[int] = set()
    for k, item in enumerate(doc):
        where = f"obstacle[{k}]"
        if not isinstance(item, dict):
            raise ValueError(f"{where}: expected an object, got {item!r}")
        for key in ("id", "kind", "x", "y"):
            if key not in item:
                raise ValueError(f"{where}: missing field {key!r}")
        oid = _get_number(item, where, "id", ValueError, integer=True)
        if oid in seen_ids:
            raise ValueError(f"{where}.id: duplicate id {oid}")
        seen_ids.add(oid)
        x, y, vx, vy = (_get_number(item, where, key, ValueError, default=0.0)
                        for key in ("x", "y", "vx", "vy"))
        try:
            out.append(Obstacle(id=oid, kind=str(item["kind"]), position=LocalPoint(x, y),
                                velocity=(vx, vy)))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    return out
