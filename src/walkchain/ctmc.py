"""Continuous-time chains built from a jump chain and a Poisson event clock.

A uniformized chain moves according to a discrete jump matrix P at the ticks
of a rate-lambda Poisson process, giving transient law
P(t) = sum_n pmf(n; lambda t) P**n and generator Q = lambda (P - I).
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .chains import StochasticMatrix, _integer, _rng

DEFAULT_TAIL_TOL = 1e-9
# floats cannot certify tails below ~1e-16; keep a safe margin
MIN_TAIL_TOL = 1e-13
MAX_TAIL_TOL = 1e-6
#: widest Poisson window ``transient`` sums; about 2 sqrt(terms) matrix products
MAX_WINDOW_TERMS = 1_000_000
#: bytes of the powers P, P**2, ..., P**s that ``transient`` holds for its sum
POWER_STACK_BYTES = 1 << 20


@dataclass(frozen=True, eq=False)
class GeneratorMatrix:
    """CTMC generator: non-negative off-diagonals, rows summing to zero.

    A row sum may be off by 1e-12 times the row's largest |entry| (at least
    1e-12): rounding in the sum scales with the rates.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"generator must be a square 2-D array, got shape {arr.shape}")
        if arr.shape[0] == 0:
            raise ValueError("generator must have at least one state")
        if not np.all(np.isfinite(arr)):
            raise ValueError("generator entries must be finite")
        off = arr.copy()
        np.fill_diagonal(off, 0.0)
        if np.any(off < 0):
            i, j = np.argwhere(off < 0)[0]
            raise ValueError(f"negative off-diagonal rate at ({i}, {j}): {arr[i, j]!r}")
        sums = arr.sum(axis=1)
        bad = np.flatnonzero(np.abs(sums) > 1e-12 * np.maximum(1.0, np.abs(arr).max(axis=1)))
        if bad.size:
            raise ValueError(f"row {bad[0]} sums to {float(sums[bad[0]])!r}, expected 0")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class UniformizedChain:
    """Jump chain P paced by a Poisson clock of rate ``rate`` (events per second)."""

    jump_chain: StochasticMatrix
    rate: float

    def __post_init__(self) -> None:
        _check_rate(self.rate)


def generator(chain: UniformizedChain) -> GeneratorMatrix:
    """Q = rate * (P - I); diagonal set to the negative off-diagonal row sum.

    The diagonal form is algebraically identical to rate * (P_ii - 1) and keeps
    row sums within one rounding of zero however the row is re-summed (exactly
    zero when the scaled entries are representable, e.g. two-state chains at
    integer rates); it never inherits a row-sum deviation from P itself.
    """
    Q = chain.rate * chain.jump_chain.entries
    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return GeneratorMatrix(Q)


def poisson_pmf(rate: float, t: float, n: int) -> float:
    """P[N(t) = n] for a Poisson process: exp(-rt) (rt)^n / n!.

    Uses Loader's saddle-point form exp(-stirlerr(n) - bd0(n, rt)) / sqrt(2 pi n),
    as R's ``dpois`` does, which stays within a few ulp where the plain log-space
    form loses digits to cancellation (relative error ~1e-11 at n = 1e5).
    """
    mu = _poisson_mean(rate, t)
    must = "count must be a non-negative integer"
    if (n := _integer(n, must)) < 0:
        raise ValueError(f"{must}, got {n!r}")
    if mu == 0.0:
        return 1.0 if n == 0 else 0.0
    if n == 0:
        return math.exp(-mu)
    x = float(n)
    return math.exp(-_stirlerr(n) - _bd0(x, mu)) / math.sqrt(2.0 * math.pi * x)


def _check_rate(rate: float) -> None:
    if not (math.isfinite(rate) and rate > 0):
        raise ValueError(f"rate must be finite and > 0, got {rate!r}")


def _poisson_mean(rate: float, t: float) -> float:
    _check_rate(rate)
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"time must be finite and >= 0, got {t!r}")
    mu = rate * t
    if not math.isfinite(mu):
        raise ValueError(f"rate * time = {mu!r} is not finite")
    return mu


# stirlerr(n) = log(n!) - (n + 1/2) log(n) + n - log(sqrt(2 pi)) for n = 1..15
_STIRLERR_SMALL = (
    0.08106146679532726, 0.0413406959554093, 0.02767792568499834, 0.020790672103765093,
    0.016644691189821193, 0.013876128823070748, 0.01189670994589177, 0.010411265261972096,
    0.009255462182712733, 0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
)


def _stirlerr(n: int) -> float:
    """Error of Stirling's formula for log(n!), n >= 1 (table, then the asymptotic series)."""
    if n <= len(_STIRLERR_SMALL):
        return _STIRLERR_SMALL[n - 1]
    x = float(n)
    nn = x * x
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * nn)) / nn) / nn) / nn) / x


def _bd0(x: float, mu: float) -> float:
    """x log(x / mu) + mu - x without cancellation (Loader's deviance term)."""
    if abs(x - mu) < 0.1 * (x + mu):
        v = (x - mu) / (x + mu)
        s = (x - mu) * v
        ej = 2.0 * x * v
        v *= v
        for j in itertools.count(1):
            ej *= v
            s1 = s + ej / (2 * j + 1)
            if s1 == s:
                return s1
            s = s1
    return x * math.log(x / mu) + mu - x


def poisson_truncation(rate: float, t: float, tol: float) -> int:
    """Smallest N with cumulative Poisson mass >= 1 - tol (tail beyond N < tol)."""
    _check_tol(tol)
    mu = _poisson_mean(rate, t)
    mass = 0.0
    cap = int(mu + 50.0 * math.sqrt(mu + 4.0)) + 64
    for n in range(cap + 1):
        mass += poisson_pmf(rate, t, n)
        if mass >= 1.0 - tol:
            return n
    raise ArithmeticError(f"Poisson mass failed to reach 1 - {tol} within {cap} terms")


class PoissonWindowError(ValueError):
    """No window of at most MAX_WINDOW_TERMS Poisson terms is certified to hold 1 - tol/2."""


def poisson_window(rate: float, t: float, tol: float) -> tuple[int, list[float]]:
    """Narrowest run of Poisson(rate*t) probabilities holding mass >= 1 - tol/2.

    Returns (L, weights) with weights[k] = pmf(L + k). The window grows from
    the mode, each step taking the larger of its two outer neighbours, so for
    the unimodal pmf it holds the fewest terms that reach the mass (Fox & Glynn,
    "Computing Poisson probabilities", CACM 1988). The mode term comes from
    ``poisson_pmf`` and the others from the ratios pmf(n+1) / pmf(n) = mu/(n+1),
    one rounding each. The stopping mass is certified with ``math.fsum``. Raises
    PoissonWindowError when the mass needs more than MAX_WINDOW_TERMS terms,
    or once both neighbours underflow to zero, so the search always ends.
    """
    _check_tol(tol)
    mu = _poisson_mean(rate, t)
    target = 1.0 - tol / 2.0
    lo = hi = int(mu)
    lows: list[float] = []  # pmf(lo - 1), pmf(lo - 2), ...: reversed at the end
    highs = [poisson_pmf(rate, t, lo)]
    mass, err = highs[0], 0.0  # compensated running sum mass + err (Neumaier)
    too_wide = PoissonWindowError(
        f"Poisson(rate * t = {mu!r}) needs more than {MAX_WINDOW_TERMS} terms for mass "
        f"1 - tol/2 with tol = {tol!r}; use a larger tolerance or a smaller rate * t")
    if highs[0] * MAX_WINDOW_TERMS < target:  # no term exceeds the mode's
        raise too_wide
    # the cheap sum decides until it comes within rounding of the target, fsum then
    while (mass + err < target - 4 * sys.float_info.epsilon
           or math.fsum(itertools.chain(lows, highs)) < target):
        if len(lows) + len(highs) >= MAX_WINDOW_TERMS:
            raise too_wide
        up = highs[-1] * mu / (hi + 1)
        down = (lows[-1] if lows else highs[0]) * lo / mu
        if up == 0.0 and down == 0.0:
            raise PoissonWindowError(
                f"Poisson(rate * t = {mu!r}) terms underflow with mass {mass + err!r}, below "
                f"1 - tol/2 with tol = {tol!r}; use a larger tolerance")
        if up >= down:
            hi += 1
            highs.append(up)
        else:
            lo -= 1
            lows.append(down)
        x = max(up, down)
        total = mass + x
        err += (mass - total) + x  # exact: mass >= x, as no term exceeds the mode's
        mass = total
    return lo, lows[::-1] + highs


def _check_tol(tol: float) -> None:
    if not (MIN_TAIL_TOL <= tol <= MAX_TAIL_TOL):
        raise ValueError(f"tail tolerance must lie in [{MIN_TAIL_TOL}, {MAX_TAIL_TOL}], got {tol!r}")


def transient(chain: UniformizedChain, t: float, tol: float = DEFAULT_TAIL_TOL) -> StochasticMatrix:
    """Transient law P(t) = sum_n pmf(n; rate*t) P**n, summed over a Poisson window.

    Only the m terms of ``poisson_window`` are summed: P**L for the window's
    first index L takes O(log L) products by squaring, and the polynomial
    sum_k pmf(L + k) P**k takes about 2 sqrt(m) more (``_power_sum``). The
    window holds m = O(sqrt(rate*t)) terms, so the work is
    O((rate*t)**(1/4) + log(rate*t)) products rather than O(rate*t). Every
    P**n has unit row sums, so each row of the sum is scaled to the window's
    mass, which removes the rounding drift of the products. Rows sum to the
    mass within rounding, so to a value in [1 - tol, 1]: the deficit is left
    in place rather than renormalized, so the truncation error stays visible.
    """
    left, weights = poisson_window(chain.rate, t, tol)  # checks t and tol
    P = chain.jump_chain.entries
    acc = np.matmul(np.linalg.matrix_power(P, left), _power_sum(P, weights))
    acc *= (math.fsum(weights) / acc.sum(axis=1))[:, None]
    over = acc.sum(axis=1) > 1.0
    while over.any():  # a mass within an ulp of 1 can scale a row to 1 + ulp: shave it
        acc[over] *= 1.0 - sys.float_info.epsilon
        over = acc.sum(axis=1) > 1.0
    return StochasticMatrix(acc, row_sum_tol=tol + 1e-12)


def _power_sum(P: np.ndarray, weights: list[float]) -> np.ndarray:
    """sum_k weights[k] P**k in about 2 sqrt(m) matrix products for m weights.

    Paterson & Stockmeyer, "On the number of nonscalar multiplications
    necessary to evaluate polynomials", SIAM J. Comput. 2(1), 1973: with the
    powers P, ..., P**s held, each block of s weights sum_i w[j + i] P**i is
    one weighted sum of the held powers (its P**0 term goes on the diagonal),
    and Horner's rule over the blocks in P**s takes one product per block.
    s = floor(sqrt(m)), or fewer when s powers would pass POWER_STACK_BYTES,
    and at least 1; at s = 1 the held power is P itself, so this holds no
    more n x n arrays than the term-by-term sum.
    """
    n, w = P.shape[0], np.asarray(weights)
    s = max(1, min(math.isqrt(w.size), POWER_STACK_BYTES // P.nbytes))
    powers = P[None]  # powers[i] = P**(i + 1)
    if s > 1:
        powers = np.empty((s, n, n))
        powers[0] = P
        for i in range(1, s):
            np.matmul(powers[i - 1], P, out=powers[i])
    flat = powers.reshape(s, n * n)
    acc = np.zeros((n, n))
    for j in reversed(range(0, w.size, s)):  # the block of weights j, ..., j + s - 1
        if j + s < w.size:
            acc = np.matmul(acc, powers[-1])
        k = min(s, w.size - j) - 1  # the block's terms past P**0
        if k:
            acc += (w[j + 1:j + 1 + k] @ flat[:k]).reshape(n, n)
        acc.flat[::n + 1] += w[j]
    return acc


def sample_arrivals(rate: float, horizon: float, seed: int) -> np.ndarray:
    """Poisson event times in (0, horizon], by inverse-CDF exponential gaps.

    Gaps are -log(1 - U) / rate with U drawn from numpy's seeded PCG64 stream,
    so equal seeds reproduce the sample exactly.
    """
    _check_rate(rate)
    if not (math.isfinite(horizon) and horizon >= 0):
        raise ValueError(f"horizon must be finite and >= 0, got {horizon!r}")
    rng = _rng(seed)
    times: list[float] = []
    t = 0.0
    while True:
        t += -math.log1p(-rng.random()) / rate
        if t > horizon:
            break
        times.append(t)
    return np.array(times, dtype=float)
