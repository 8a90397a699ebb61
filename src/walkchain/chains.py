"""Finite discrete-time Markov chains: powers, structure, stationary behavior.

Everything operates on validated row-stochastic matrices. Structural notions
(accessibility, communicating classes, periodicity) are derived from the
positive-entry digraph; distributional notions (stationary vector, mixing)
come from direct linear algebra, never from iteration to convergence.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, TextIO

import numpy as np

ROW_SUM_TOL = 1e-12
#: total-variation level of ``mixing_time`` and of ``analyze``'s mixing time
MIXING_EPS = 0.25
#: steps after which mixing-time search gives up (periodic chains never mix)
MIXING_TIME_CAP = 10_000
#: largest relative gap allowed between the all-pairs and the direct hitting-time solve
HITTING_CHECK_RTOL = 1e-9
#: largest |S - S^T|, S = D_pi^1/2 P D_pi^-1/2, at which ``analyze`` takes P as reversible
REVERSIBLE_TOL = 1e-10
#: fewest states at which a reversible chain's rate and mixing time come from one ``eigh`` of S;
#: below it ``eigvalsh`` and the search over powers of P take less time (crossover ~116 states
#: on triangulated grids, one BLAS thread)
SPECTRAL_MIN_N = 120
#: |lambda|**t below this counts as 0 in the spectral search, so no product meets a subnormal
SPECTRAL_FLUSH = 1e-18
#: steps probed at once in each round that narrows the spectral search's bracket
SPECTRAL_PROBES = 15


class UnreachableStateError(ValueError):
    """A mean first-passage time is infinite because the walk can strand."""

    def __init__(self, target: int, stranded: tuple[int, ...]):
        self.target = target
        self.stranded = tuple(stranded)
        super().__init__(
            f"state {target} is not accessible from states {list(self.stranded)}; "
            "mean hitting time is infinite"
        )


def _kept(build):
    """``build(P)``, kept in the matrix P's memo from its first return on; a raise keeps none."""
    def kept(P):
        if build not in P._memo:
            P._memo[build] = build(P)
        return P._memo[build]
    kept.__name__, kept.__doc__, kept.__wrapped__ = build.__name__, build.__doc__, build
    return kept


class StochasticMatrix:
    """Row-stochastic transition matrix over states 0..n-1, held in CSR form.

    Row i stores its columns ``indices[indptr[i]:indptr[i + 1]]`` in
    ascending order and their probabilities at the same places of ``data``;
    all three are read-only numpy arrays. Every entry other than +0.0 is
    stored, -0.0 included, so a dense matrix comes back bit for bit. The
    transition digraph, whose edges are the positive entries, comes from
    ``_transitions`` alone; class structure, reachability, ``sample_path``
    and ``pipeline.smooth`` all read it there. ``entries`` is the dense
    n x n view; only the dense algebra (``analyze``, ``n_step``, ``evolve``,
    ``transient``, ``generator``) reads it. It, ``_class_structure``, ``stationary_distribution``
    and ``_spectrum`` are kept in ``_memo`` once built; a pickle holds none.

    ``row_sum_tol`` is the admissible deviation of each row sum from 1. The
    default is tight; operations that intentionally under-approximate rows
    (truncated series) construct instances with a looser bound.
    """

    __slots__ = ("indptr", "indices", "data", "row_sum_tol", "_memo")

    def __init__(self, entries, row_sum_tol: float = ROW_SUM_TOL):
        arr = np.asarray(entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"transition matrix must be a square 2-D array, got shape {arr.shape}")
        rows, cols = np.nonzero((arr != 0) | np.signbit(arr))  # -0.0 prints as -0.0
        data = arr[rows, cols]
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=arr.shape[0]))))
        # cols is a strided view of one buffer it shares with rows: keep a compact copy
        indices = np.ascontiguousarray(cols)
        del arr, rows, cols  # the dense array, when made here, is freed before the checks
        self._init(indptr, indices, data, row_sum_tol)

    @classmethod
    def from_csr(cls, indptr, indices, data, row_sum_tol: float = ROW_SUM_TOL) -> StochasticMatrix:
        """Matrix from CSR arrays, validated without building the dense view.

        Columns must ascend strictly within each row. Stored +0.0 entries
        are dropped. Each row is summed over its stored entries in order.
        """
        P = cls.__new__(cls)
        P._init(np.array(indptr, dtype=np.int64), np.array(indices, dtype=np.int64),
                np.array(data, dtype=float), row_sum_tol)
        return P

    def _init(self, indptr, indices, data, row_sum_tol) -> None:
        """Validate CSR arrays as a transition matrix and hold them, stored +0.0 dropped.

        Checks the structure, then that entries are finite and non-negative and
        that each row, summed over its stored entries in order, is within
        ``row_sum_tol`` of 1. The arrays are held as given, never copied.
        """
        if indptr.ndim != 1 or indptr.size < 2:
            raise ValueError("transition matrix must have at least one state")
        n = indptr.size - 1
        counts = np.diff(indptr)
        if (indptr[0] != 0 or np.any(counts < 0) or indices.shape != (indptr[-1],)
                or data.shape != indices.shape):
            raise ValueError(f"malformed CSR arrays: indptr must rise from 0 to the "
                             f"{indices.size} stored entries, one datum each")
        rows = np.repeat(np.arange(n), counts)
        if np.any((indices < 0) | (indices >= n)):
            raise ValueError(f"column index outside 0..{n - 1}")
        if np.any((indices[1:] <= indices[:-1]) & (rows[1:] == rows[:-1])):
            raise ValueError("column indices must strictly ascend within each row")
        if not np.all(np.isfinite(data)):
            raise ValueError("transition matrix entries must be finite")
        neg = np.flatnonzero(data < 0)
        if neg.size:
            k = neg[0]
            raise ValueError(f"negative transition probability at ({rows[k]}, {indices[k]}): "
                             f"{data[k]!r}")
        sums = np.bincount(rows, weights=data, minlength=n)
        bad = np.flatnonzero(np.abs(sums - 1.0) > row_sum_tol)
        if bad.size:
            raise ValueError(f"row {bad[0]} sums to {float(sums[bad[0]])!r}, "
                             f"outside 1 +/- {row_sum_tol}")
        keep = (data != 0) | np.signbit(data)
        if not keep.all():
            indptr = np.concatenate(([0], np.cumsum(np.bincount(rows[keep], minlength=n))))
            indices, data = indices[keep], data[keep]
        for name, value in (("indptr", indptr), ("indices", indices), ("data", data)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        object.__setattr__(self, "row_sum_tol", row_sum_tol)
        object.__setattr__(self, "_memo", {})

    def __setattr__(self, name, value):
        raise AttributeError(f"StochasticMatrix is immutable; cannot set {name!r}")

    def __reduce__(self):
        return (type(self).from_csr, (self.indptr, self.indices, self.data, self.row_sum_tol))

    def __repr__(self) -> str:
        return (f"StochasticMatrix.from_csr({self.indptr!r}, {self.indices!r}, {self.data!r}, "
                f"row_sum_tol={self.row_sum_tol!r})")

    @property
    def n(self) -> int:
        return self.indptr.size - 1

    def rows(self) -> np.ndarray:
        """Row of each stored entry, aligned with ``indices`` and ``data``."""
        return np.repeat(np.arange(self.n), np.diff(self.indptr))

    @property
    @_kept
    def entries(self) -> np.ndarray:
        """Dense read-only n x n view, built on first access and kept."""
        arr = np.zeros((self.n, self.n))
        arr[self.rows(), self.indices] = self.data
        arr.flags.writeable = False
        return arr


@dataclass(frozen=True, eq=False)
class Distribution:
    """Probability vector over states 0..n-1."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.probs, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError(f"distribution must be a non-empty 1-D array, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("distribution entries must be finite")
        if np.any(arr < 0):
            raise ValueError(f"negative probability at index {int(np.flatnonzero(arr < 0)[0])}")
        total = arr.sum()
        if abs(total - 1.0) > ROW_SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, outside 1 +/- {ROW_SUM_TOL}")
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @property
    def n(self) -> int:
        return self.probs.shape[0]


@dataclass(frozen=True)
class ChainAnalysis:
    """Structural and asymptotic summary of one chain.

    ``classes`` partitions the states into communicating classes (each sorted,
    classes ordered by smallest member). ``closed`` and ``periods`` align with
    ``classes``; a period of 0 marks a transient singleton with no return path.
    ``stationary``, ``mixing_rate`` and ``mixing_time`` are None unless the
    chain is irreducible (``mixing_time`` also None when it fails to mix within
    MIXING_TIME_CAP steps, e.g. for periodic chains).
    """

    classes: tuple[tuple[int, ...], ...]
    closed: tuple[bool, ...]
    periods: tuple[int, ...]
    irreducible: bool
    stationary: Distribution | None
    mixing_rate: float | None
    mixing_time: int | None


def _integer(value, must: str) -> int:
    """``value`` as an int when it is a Python or numpy integer other than a bool; else
    ValueError ``<must>, got <value>``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{must}, got {value!r}")
    return int(value)


def _rng(seed) -> np.random.Generator:
    """numpy's PCG64 stream for ``seed``, checked to be a Python or numpy integer >= 0 (no bool)."""
    must = "seed must be an integer >= 0"
    if _integer(seed, must) < 0:
        raise ValueError(f"{must}, got {seed!r}")
    return np.random.default_rng(int(seed))


def _power(P: StochasticMatrix, n: int) -> np.ndarray:
    """Dense P**n for a step count n, checked to be a non-negative integer."""
    must = "step count must be a non-negative integer"
    if _integer(n, must) < 0:
        raise ValueError(f"{must}, got {n!r}")
    return np.linalg.matrix_power(P.entries, int(n))


def n_step(P: StochasticMatrix, n: int) -> StochasticMatrix:
    """n-step transition matrix P**n (n = 0 gives the identity)."""
    return StochasticMatrix(_power(P, n))


def evolve(d0: Distribution, P: StochasticMatrix, n: int) -> Distribution:
    """Marginal distribution after n steps from d0 (a row vector times P**n)."""
    if d0.n != P.n:
        raise ValueError(f"distribution has {d0.n} states but matrix has {P.n}")
    return Distribution(d0.probs @ _power(P, n))


def _transitions(P: StochasticMatrix, reverse: bool = False) -> tuple[np.ndarray, ...]:
    """The transition digraph: CSR (indptr, indices, data) of P's positive entries.

    Every structural reader takes the digraph from here. Columns ascend
    within each row; with ``reverse`` this is the transpose, rows ascending
    within each column.
    """
    keep = P.data > 0
    src, dst, w = P.rows()[keep], P.indices[keep], P.data[keep]
    if reverse:  # a stable sort by column keeps the rows ascending within each
        order = np.argsort(dst, kind="stable")
        src, dst, w = dst[order], src[order], w[order]
    return np.concatenate(([0], np.cumsum(np.bincount(src, minlength=P.n)))), dst, w


def _reachable(P: StochasticMatrix, start: int, reverse=False, stop: int = -1) -> np.ndarray:
    """States reachable from ``start`` in P's digraph (or its reverse), not going past ``stop``."""
    indptr, indices = (a.tolist() for a in _transitions(P, reverse)[:2])
    seen = [False] * (len(indptr) - 1)
    seen[start] = True
    todo = [start]
    while todo:
        u = todo.pop()
        if u == stop:
            continue
        for v in indices[indptr[u]:indptr[u + 1]]:
            if not seen[v]:
                seen[v] = True
                todo.append(v)
    return np.array(seen)


def _communicating_classes(indptr, indices) -> tuple[list[list[int]], list[int]]:
    """SCCs of a CSR digraph by iterative Tarjan (sorted, by smallest member) and DFS depths."""
    indptr, indices = indptr.tolist(), indices.tolist()
    n = len(indptr) - 1
    index = [-1] * n
    depth = [0] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    classes: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, indptr[root])]  # (state, position of its next successor in indices)
        while work:
            u, i = work[-1]
            if i < indptr[u + 1]:
                work[-1] = (u, i + 1)
                v = indices[i]
                if index[v] < 0:
                    index[v] = low[v] = counter
                    depth[v] = depth[u] + 1
                    counter += 1
                    stack.append(v)
                    on_stack[v] = True
                    work.append((v, indptr[v]))
                elif on_stack[v]:
                    low[u] = min(low[u], index[v])
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[u])
            if low[u] == index[u]:
                members = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    members.append(w)
                    if w == u:
                        break
                classes.append(sorted(members))
    classes.sort(key=lambda c: c[0])
    return classes, depth


@_kept
def _class_structure(P: StochasticMatrix) -> tuple[tuple[tuple[int, ...], ...], tuple, tuple]:
    """Communicating classes, their closure and periods, from one Tarjan pass.

    Each class is a subtree of the DFS forest, so its period is the gcd of
    depth[u] + 1 - depth[v] over its edges (u, v), as with BFS levels; 0 for
    a class with no inside edge. A class is closed when no edge leaves it.
    """
    indptr, dst, _ = _transitions(P)
    classes, depth = _communicating_classes(indptr, dst)
    class_of = np.empty(P.n, dtype=np.int64)
    for cid, members in enumerate(classes):
        class_of[members] = cid
    depth = np.array(depth)
    src = np.repeat(np.arange(P.n), np.diff(indptr))
    cid = class_of[src]
    inside = cid == class_of[dst]
    periods = np.zeros(len(classes), dtype=np.int64)
    np.gcd.at(periods, cid[inside], depth[src[inside]] + 1 - depth[dst[inside]])
    closed = np.bincount(cid[~inside], minlength=len(classes)) == 0
    return tuple(map(tuple, classes)), tuple(closed.tolist()), tuple(periods.tolist())


@_kept
def stationary_distribution(P: StochasticMatrix) -> Distribution:
    """Unique stationary vector of an irreducible chain, by direct linear solve.

    Solves (P^T - I) pi = 0 with one equation replaced by normalization
    sum(pi) = 1. Raises ValueError for reducible chains, where no unique
    stationary distribution exists.
    """
    classes = _class_structure(P)[0]
    if len(classes) != 1:
        raise ValueError(f"chain is reducible ({len(classes)} communicating classes); "
                         "stationary distribution is not unique")
    n = P.n
    A = P.entries.T - np.eye(n)
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    pi = np.linalg.solve(A, b)
    # clamp solver dust; exact solution is non-negative
    pi[(pi < 0) & (pi > -1e-12)] = 0.0
    return Distribution(pi / pi.sum())


def mixing_rate(P: StochasticMatrix) -> float:
    """Second-largest eigenvalue modulus of P: the per-step contraction ``analyze`` reports.

    0.0 for one state, and 1.0 for an irreducible chain of period d > 1, with no spectrum:
    every d-th root of unity is an eigenvalue (Perron-Frobenius; Seneta, *Non-negative
    Matrices and Markov Chains*, ch. 1). Otherwise from the spectrum of S kept on P
    (``_spectrum``), or, for a chain without one, from P's general ``eigvals``.
    """
    if P.n == 1:
        return 0.0
    classes, _, periods = _class_structure(P)
    if len(classes) == 1 and periods[0] > 1:
        return 1.0
    sp = _spectrum(P)
    eigenvalues = np.linalg.eigvals(P.entries) if sp is None else sp.lam
    return float(np.sort(np.abs(eigenvalues))[-2])


@dataclass(frozen=True, eq=False)
class _Spectrum:
    """Eigenvalues ``lam`` of S = D_pi^1/2 P D_pi^-1/2, with pi, its square root and ``asym``,
    the largest row sum of |S - S^T| as measured. ``lam`` and ``eigh``'s orthonormal columns
    ``U`` are ordered by |lambda| descending; from ``eigvalsh``, ``lam`` ascends, ``U`` None.

    Row i of P**t is ((U[i] * lam**t) @ U.T) * root / root[i] (Levin, Peres & Wilmer,
    Lemma 12.2), so any rows of any power cost a row-by-matrix product.
    """

    lam: np.ndarray
    U: np.ndarray | None
    pi: np.ndarray
    root: np.ndarray
    asym: float


@_kept
def _spectrum(P: StochasticMatrix) -> _Spectrum | None:
    """The spectrum of S = D_pi^1/2 P D_pi^-1/2 for a reversible chain; None for any other.

    With P's stationary law pi > 0, S is similar to P, and symmetric exactly when P is
    reversible (pi_i P_ij = pi_j P_ji), as every random walk on a map is. When max |S - S^T|
    <= REVERSIBLE_TOL (1e-10), a symmetric solver on S gives the spectrum (Levin, Peres &
    Wilmer, *Markov Chains and Mixing Times*, section 12.1), within about n * REVERSIBLE_TOL
    of P's (Bauer-Fike): ``eigh``, whose eigenvectors the mixing-time search reuses, from
    SPECTRAL_MIN_N states on, and ``eigvalsh`` below. A reducible chain has no unique pi.
    """
    if len(_class_structure(P)[0]) != 1:
        return None
    pi = stationary_distribution(P).probs
    root = np.sqrt(pi)
    if not np.all(root > 0):
        return None
    S = P.entries * root[:, None]
    S /= root
    asym = S - S.T
    np.abs(asym, out=asym)
    if asym.max() > REVERSIBLE_TOL:
        return None
    asym = float(asym.sum(axis=1).max())
    if P.n < SPECTRAL_MIN_N:
        return _Spectrum(np.linalg.eigvalsh(S), None, pi, root, asym)
    lam, U = np.linalg.eigh(S)
    del S  # frees S before U is copied in |lambda| order
    order = np.argsort(-np.abs(lam), kind="stable")
    return _Spectrum(lam[order], U[:, order], pi, root, asym)


def mixing_time(P: StochasticMatrix, eps: float = MIXING_EPS,
                cap: int = MIXING_TIME_CAP) -> int | None:
    """Smallest t in 1..cap with d(t) = max_i TV(row i of P**t, stationary) <= eps.

    None when d(cap) > eps, which is certain for a periodic chain and eps < 1/2.

    Requires irreducibility. A periodic chain returns at once: every row of
    P**t sits on one cyclic class, so d(t) >= 1 - 1/period >= 1/2.

    Every search uses that d(t) never increases, and neither does the TV
    distance of any one row (Levin, Peres & Wilmer, *Markov Chains and Mixing
    Times*, section 4.4).

    A reversible chain with at least SPECTRAL_MIN_N states is searched in
    the spectrum of S = D_pi^1/2 P D_pi^-1/2 kept on P (``_spectrum``), from
    one ``eigh``: row i of P**t is then one row-by-matrix product (Lemma 12.2),
    with |lambda|**t below SPECTRAL_FLUSH taken as 0. The largest TV
    distance L(t) over a few candidate rows, seeded where the slowest mode
    is largest and smallest, is a lower bound on d(t) that never increases.
    Its first t with L(t) <= eps is bracketed by probing t = 1, 2, 4, ...,
    cap and narrowed by SPECTRAL_PROBES probes per round; then all n rows of
    P**t are built once. If d(t) <= eps as well, t is the answer: every
    earlier step has L > eps. Otherwise the worst row joins the candidates
    and the search resumes after t. Each of those comparisons must clear eps
    by a guard band, a bound on the rounding of both this search and the one
    below (``_guard_band``); one that does not hands the chain to the search
    below, so the answer is always the one that search gives.

    Below SPECTRAL_MIN_N states, where that takes longer, and for a chain
    that is not reversible, squaring brackets the answer in (s, 2s] with
    s = 2**k; binary lifting from P**s then adds jumps s/2, s/4, ..., 1 while
    d stays above eps. The squaring keeps every level P**(2**j), j < k, and
    the lifting takes them as its jumps. That takes at most 2k + 1 matrix
    products and about k + 3 n x n arrays besides P.

    Raises ValueError when cap is not a Python or numpy integer (a bool is not), or eps is
    NaN or not a real number.
    """
    cap = _integer(cap, "cap must be an integer")
    if not isinstance(eps, (int, float, np.integer, np.floating)) or math.isnan(eps):
        raise ValueError(f"eps must be a number, got {eps!r}")
    stationary_distribution(P)  # raises for a reducible chain
    if cap < 1 or (_class_structure(P)[2][0] > 1 and eps < 0.5):
        return None
    sp = _spectrum(P)
    if sp is not None and sp.U is not None:
        try:
            return _spectral_search(sp, eps, cap)
        except _WithinBand:
            pass
    return _level_search(P, eps, cap, stationary_distribution(P).probs[None, :])


class _WithinBand(Exception):
    """A decision of the spectral search came within its guard band of eps."""


def _spectral_search(sp: _Spectrum, eps: float, cap: int) -> int | None:
    """The first t <= cap with d(t) <= eps, from ``sp``; None when d(cap) > eps.

    Raises _WithinBand when a decision is too close to eps to be certain.
    """
    rows = _seed_rows(sp)
    lo, lo_d = 0, 1.0  # invariant: d(lo) > eps decided with lo_d, the L or d read there
    while lo < cap:
        steps = [lo + (1 << j) for j in range((cap - lo - 1).bit_length())] + [cap]
        first, L = _first_at_most(sp, rows, steps, eps)
        if first == len(steps):
            _above(L[-1], eps, _guard_band(sp, cap))
            return None
        if first:
            lo, lo_d = steps[first - 1], L[first - 1]
        hi = steps[first]
        while hi - lo > 1:
            if hi - lo <= SPECTRAL_PROBES + 1:
                probes = list(range(lo + 1, hi))
            else:
                probes = (lo + (hi - lo) * np.arange(1, SPECTRAL_PROBES + 1)
                          // (SPECTRAL_PROBES + 1)).tolist()
            first, L = _first_at_most(sp, rows, probes, eps)
            if first:
                lo, lo_d = probes[first - 1], L[first - 1]
            if first < len(probes):
                hi = probes[first]
        if lo:
            _above(lo_d, eps, _guard_band(sp, lo))
        tv = _row_distances(sp, np.arange(sp.pi.size), [hi])[0]
        worst = int(np.argmax(tv))
        if not _above(tv[worst], eps, _guard_band(sp, hi)):
            return hi
        if worst not in rows:
            rows.append(worst)
        lo, lo_d = hi, tv[worst]
    return None


def _seed_rows(sp: _Spectrum) -> list[int]:
    """The states where the slowest mode, as a right eigenvector of P, is largest and smallest."""
    f = sp.U[:, 1] / sp.root
    return sorted({int(np.argmax(f)), int(np.argmin(f))})


def _first_at_most(sp: _Spectrum, rows, steps, eps: float) -> tuple[int, np.ndarray]:
    """Index of the first of ``steps`` whose largest TV distance over ``rows`` is at most eps
    (len(steps) when none is), and those largest distances."""
    L = _row_distances(sp, rows, steps).max(axis=1)
    at_most = np.flatnonzero(L <= eps)
    return (int(at_most[0]) if at_most.size else len(steps)), L


def _row_distances(sp: _Spectrum, rows, steps) -> np.ndarray:
    """TV distance from pi of row i of P**t, for t in ``steps`` (axis 0) and i in ``rows``.

    One product of the (len(steps) * len(rows), k) scaled eigenvector rows by the k kept
    modes: those whose |lambda|**min(steps) is at least SPECTRAL_FLUSH.
    """
    t = np.asarray(steps)[:, None]
    k = np.count_nonzero(np.abs(sp.lam) ** t.min() >= SPECTRAL_FLUSH)  # a prefix: |lam| descends
    powers = sp.lam[:k] ** t
    powers[np.abs(powers) < SPECTRAL_FLUSH] = 0.0
    X = (powers[:, None, :] * sp.U[rows, :k]).reshape(-1, k) @ sp.U[:, :k].T  # rows of S**t
    X *= sp.root
    X /= np.tile(sp.root[rows], t.size)[:, None]
    X -= sp.pi
    np.abs(X, out=X)
    return 0.5 * X.sum(axis=1).reshape(t.size, -1)


def _above(d: float, eps: float, band: float) -> bool:
    """d > eps, for a d within ``band`` of its exact value; raises _WithinBand when
    |d - eps| <= band leaves the answer open."""
    if not abs(d - eps) > band:  # a NaN eps is left undecided too
        raise _WithinBand
    return d > eps


def _guard_band(sp: _Spectrum, t: int) -> float:
    """Bound on the rounding of the spectral search's d or L at any step <= t, plus that of
    the search over powers of P at any step <= 2t (the farthest it evaluates).

    With u = 2**-53, g = n u / (1 - n u), s = 2t and r = min sqrt(pi): the decomposition is
    exact for a symmetric matrix within e = asym + 4 n u of S in the 2-norm (the triangle
    eigh ignores, whose 2-norm is at most the largest row sum of |S - S^T|; eigh's backward
    error; forming S), so S**s moves by at most s e exp(s e) in the 2-norm. A row's TV
    distance moves by 1 / (2 r) times that, plus the product's rounding (sqrt(n) + 4) g and
    the flushed powers. Each entry of a product of powers of the non-negative P carries a
    relative error of at most s g, which moves a row's TV distance by at most s g.
    """
    n = sp.pi.size
    u = np.finfo(float).eps / 2
    g = n * u / (1 - n * u)
    s = 2 * t
    e = sp.asym + 4 * n * u
    return ((s * e * math.exp(s * e) + (math.sqrt(n) + 4) * g + SPECTRAL_FLUSH)
            / (2 * float(sp.root.min())) + s * g)


def _level_search(P: StochasticMatrix, eps: float, cap: int, pi: np.ndarray) -> int | None:
    """``mixing_time`` for cap >= 1 by squaring and lifting over powers of P (pi as a row)."""

    def above(M: np.ndarray) -> bool:
        D = M - pi
        np.abs(D, out=D)
        return 0.5 * D.sum(axis=1).max() > eps

    levels = []  # P**(2**j) for j = 0, 1, ... below the level of M
    s, M = 1, P.entries  # invariant: M = P**s and d(s) > eps
    if not above(M):
        return 1
    while 2 * s <= cap:
        M2 = np.matmul(M, M)
        if not above(M2):
            break
        levels.append(M)
        s, M = 2 * s, M2
    M2 = None  # P**(2s) is not needed below
    # d(s) > eps and d(2s) <= eps unless 2s > cap; lifting ends at the last t < 2s
    # with d(t) > eps, and t >= cap then means d(cap) > eps
    t = s
    for j in range(s.bit_length() - 2, -1, -1):
        C = np.matmul(M, levels.pop())  # M @ P**(2**j)
        if above(C):
            t, M = t + (1 << j), C
        del C
    return None if t >= cap else t + 1


def analyze(P: StochasticMatrix) -> ChainAnalysis:
    """Full structural report: classes, closure, periods, stationary behavior.

    The class structure, the stationary law and the spectrum of S are each
    derived once and kept on P, where ``mixing_rate``, ``mixing_time`` and
    ``hitting_times`` find them; the rate and mixing time reported are theirs.
    """
    classes, closed, periods = _class_structure(P)
    irreducible = len(classes) == 1
    stationary = rate = t_mix = None
    if irreducible:
        stationary, rate, t_mix = stationary_distribution(P), mixing_rate(P), mixing_time(P)
    return ChainAnalysis(
        classes=classes,
        closed=closed,
        periods=periods,
        irreducible=irreducible,
        stationary=stationary,
        mixing_rate=rate,
        mixing_time=t_mix,
    )


def hitting_time(P: StochasticMatrix, u: int, v: int) -> float:
    """Mean first-passage time from u to v, by linear solve.

    With h(v) = 0 and h(i) = 1 + sum_j P[i][j] h(j) on the states the walk can
    visit before v, returns h(u). Raises UnreachableStateError when some state
    the walk can visit before v cannot reach v (the expectation is then
    infinite); states it can reach only after v do not count.
    """
    u, v = (_integer(s, "state must be an integer") for s in (u, v))
    for s in (u, v):
        if not (0 <= s < P.n):
            raise ValueError(f"state {s} outside 0..{P.n - 1}")
    if u == v:
        return 0.0
    visitable = _reachable(P, u, stop=v)  # v absorbs: what lies beyond it cannot strand
    reaches_v = _reachable(P, v, reverse=True)  # one reverse search from the target
    stranded = np.flatnonzero(visitable & ~reaches_v)
    if stranded.size:  # covers v not being visitable at all: u itself strands then
        raise UnreachableStateError(v, tuple(int(i) for i in stranded))
    domain = [int(i) for i in np.flatnonzero(visitable) if i != v]
    idx = {s: k for k, s in enumerate(domain)}
    Q = P.entries[np.ix_(domain, domain)]
    h = np.linalg.solve(np.eye(len(domain)) - Q, np.ones(len(domain)))
    return float(h[idx[u]])


def hitting_times(P: StochasticMatrix) -> np.ndarray:
    """All mean first-passage times H[u, v] of an irreducible chain; a reducible one raises.

    Uses pi from :func:`stationary_distribution`, the fundamental matrix
    Z = (I - P + 1 pi^T)^-1 and H[u, v] = (Z[v, v] - Z[u, v]) / pi[v] (Kemeny
    & Snell, *Finite Markov Chains*, 1960): one n x n inverse in place of n^2
    linear solves. The diagonal is exactly 0. As a conditioning check, the
    largest entry is solved again directly by :func:`hitting_time`; a
    relative disagreement above HITTING_CHECK_RTOL raises ValueError.
    """
    p = stationary_distribution(P).probs
    Z = np.linalg.inv(np.eye(P.n) - P.entries + p[None, :])
    H = (np.diag(Z)[None, :] - Z) / p[None, :]
    np.fill_diagonal(H, 0.0)
    u, v = (int(i) for i in np.unravel_index(np.argmax(H), H.shape))
    direct = hitting_time(P, u, v)
    if abs(H[u, v] - direct) > HITTING_CHECK_RTOL * abs(direct):
        raise ValueError(
            f"hitting time {u}->{v}: fundamental matrix gives {H[u, v]!r} but a direct "
            f"solve gives {direct!r}; the chain is too ill-conditioned"
        )
    return H


def commute_time(P: StochasticMatrix, u: int, v: int) -> float:
    """Mean round-trip time u -> v -> u; requires mutual accessibility."""
    return hitting_time(P, u, v) + hitting_time(P, v, u)


def sample_path(P: StochasticMatrix, start: int, n_steps: int, seed: int) -> np.ndarray:
    """Sample a state trajectory of ``n_steps`` transitions from ``start``.

    Deterministic in ``seed`` (numpy PCG64). Returns an int array of length
    n_steps + 1 beginning with ``start``. Each step draws u in [0, 1) and moves
    to the first state whose cumulative row probability exceeds u, or to state
    n - 1 when rounding leaves the row total at or below u.
    """
    start = _integer(start, "start state must be an integer")
    if not (0 <= start < P.n):
        raise ValueError(f"start state {start} outside 0..{P.n - 1}")
    if _integer(n_steps, "n_steps must be an integer") < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    # Only positive columns are searched: at a zero column the cumulative sum
    # repeats its left neighbour's, so it is never the first to exceed u. The
    # running sums over the positive entries alone have the bits of full-row
    # sums, as adding a zero is exact.
    indptr, cols, probs = (a.tolist() for a in _transitions(P))
    bounds = [list(accumulate(probs[a:b])) for a, b in zip(indptr, indptr[1:])]
    targets = [cols[a:b] + [P.n - 1] for a, b in zip(indptr, indptr[1:])]  # n - 1: past the total
    rng = _rng(seed)
    path = np.empty(n_steps + 1, dtype=int)
    path[0] = state = start
    block = 4096  # draws per block: rng.random(k) per block continues one stream
    for lo in range(1, n_steps + 1, block):
        steps = []
        for x in rng.random(min(block, n_steps + 1 - lo)).tolist():
            state = targets[state][bisect_right(bounds[state], x)]
            steps.append(state)
        path[lo:lo + len(steps)] = steps
    return path


# ---------------------------------------------------------------------------
# plain-CSV serialization (row per state, full-precision decimals)

#: weight of a block of rows: an entry weighs 1 and a nonzero entry, whose
#: repr and float outweigh a "0.0," several times over, 16 more
_CSV_BLOCK = 1 << 14


def _join_or_write(pieces: Iterable[str], out: TextIO | None) -> str | None:
    """The pieces joined into one string, or, given an open text handle, written to it."""
    if out is None:
        return "".join(pieces)
    for piece in pieces:
        out.write(piece)
    return None


def array_to_csv(arr, out: TextIO | None = None) -> str | None:
    """One line per row, each entry as its ``repr`` joined by commas.

    ``arr`` is an array or a :class:`StochasticMatrix`, whose stored entries
    are written without building its dense view. Only entries other than
    +0.0 go through ``repr``; every run of +0.0 entries between them, across
    row ends too, is one slice of a repeated ``"0.0,...,0.0\\n"`` row, whose
    entries are all four characters wide. Rows are taken in blocks of weight
    about ``_CSV_BLOCK``, so the Python strings alive at once stay few on
    dense and sparse arrays alike. With an open text handle ``out`` each
    block is written as it is made and None is returned; otherwise the
    whole text is.
    """
    return _join_or_write(_csv_blocks(arr), out)


def _csv_blocks(arr) -> Iterable[str]:
    csr = isinstance(arr, StochasticMatrix)
    if csr:
        m = n = arr.n
        stored = np.diff(arr.indptr)
        rows = arr.rows()
    else:
        arr = np.atleast_2d(np.asarray(arr, dtype=float))
        m, n = arr.shape
        if arr.size == 0:
            yield "\n" * max(m, 1)
            return
        stored = np.count_nonzero(arr, axis=1)
    group = np.cumsum(n + 16 * stored) // _CSV_BLOCK
    edges = [0, *(np.flatnonzero(np.diff(group)) + 1).tolist(), m]
    zeros = ("0.0," * (n - 1) + "0.0\n") * min(_CSV_BLOCK // n + 1, m)  # rows of any block
    for lo, hi in zip(edges, edges[1:]):
        if csr:  # every stored entry is kept
            first, last = arr.indptr[lo], arr.indptr[hi]
            kept = (rows[first:last] - lo) * n + arr.indices[first:last]
            values = arr.data[first:last]
        else:
            block = arr[lo:hi].ravel()
            kept = np.flatnonzero((block != 0) | np.signbit(block))  # -0.0 prints as -0.0
            values = block[kept]
        # entry j of the block is zeros[4j:4j + 4]: a kept entry takes its
        # first three characters, and its separator stays with the next run
        cut = 4 * kept
        pieces = [""] * (2 * kept.size + 1)
        pieces[::2] = [zeros[a:b] for a, b in zip([0] + (cut + 3).tolist(),
                                                  cut.tolist() + [4 * (hi - lo) * n])]
        pieces[1::2] = map(repr, values.tolist())
        yield "".join(pieces)


def array_from_csv(text: str) -> np.ndarray:
    rows = []
    for line in text.strip().splitlines():
        if line.strip():
            rows.append([float(tok) for tok in line.split(",")])
    return np.array(rows, dtype=float)


def matrix_to_csv(P: StochasticMatrix, out: TextIO | None = None) -> str | None:
    """``array_to_csv`` of P's rows, from its CSR entries."""
    return array_to_csv(P, out)
