"""Uniformized continuous-time chains: generator, transient law, event clock."""

from __future__ import annotations

import inspect
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from walkchain import (
    GeneratorMatrix,
    PoissonWindowError,
    StochasticMatrix,
    UniformizedChain,
    generator,
    grid_graph,
    poisson_pmf,
    poisson_truncation,
    poisson_window,
    random_walk_matrix,
    sample_arrivals,
    stationary_distribution,
    transient,
)
from walkchain import ctmc
from conftest import connected_graphs, stochastic_matrices

FLIP = StochasticMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))


class TestGeneratorMatrix:
    def test_rejects_negative_off_diagonal(self):
        with pytest.raises(ValueError, match="off-diagonal"):
            GeneratorMatrix(np.array([[1.0, -1.0], [2.0, -2.0]]))

    def test_rejects_nonzero_row_sum(self):
        with pytest.raises(ValueError, match="row 0"):
            GeneratorMatrix(np.array([[-1.0, 1.5], [2.0, -2.0]]))

    def test_row_sum_messages_print_plain_floats(self):
        with pytest.raises(ValueError, match=r"^row 0 sums to 0\.5, expected 0$"):
            GeneratorMatrix(np.array([[-1.0, 1.5], [2.0, -2.0]]))
        with pytest.raises(ValueError, match=r"^row 0 sums to 0\.9, outside 1 \+/- 1e-12$"):
            StochasticMatrix(np.array([[0.5, 0.4], [0.5, 0.5]]))

    def test_row_sum_bound_scales_with_the_largest_rate(self):
        # one rounding of 1e6 is ~1e-10: passes at rate 1e6, while rates <= 1 keep 1e-12
        GeneratorMatrix(np.array([[-1e6, 1e6 + 1e-10], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="row 0"):
            GeneratorMatrix(np.array([[-1e6, 1e6 + 1e-5], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="row 0"):
            GeneratorMatrix(np.array([[-0.5, 0.5 + 1e-11], [0.0, 0.0]]))

    @given(stochastic_matrices(), st.floats(1e3, 1e9))
    def test_generator_of_any_rate_passes_its_own_check(self, P, rate):
        generator(UniformizedChain(P, rate))  # GeneratorMatrix checks the row sums

    def test_from_chain_has_exact_zero_row_sums(self):
        chain = UniformizedChain(FLIP, rate=3.0)
        Q = generator(chain)
        assert np.array_equal(Q.entries, np.array([[-3.0, 3.0], [3.0, -3.0]]))
        assert np.all(Q.entries.sum(axis=1) == 0.0)

    @given(stochastic_matrices(), st.floats(0.1, 20.0))
    def test_generator_equals_rate_times_p_minus_i(self, P, rate):
        Q = generator(UniformizedChain(P, rate))
        expected = rate * (P.entries - np.eye(P.n))
        # diagonals may differ by rate * (row-sum rounding), so not bit-equal
        assert np.allclose(Q.entries, expected, atol=1e-9)
        # re-summing the row in index order can leave a 1-ulp residue for
        # non-representable entries; exact zero holds only for rows like FLIP's
        assert np.abs(Q.entries.sum(axis=1)).max() <= 1e-12

    def test_rate_must_be_positive(self):
        # the chain, the Poisson law and the arrival sampler share one check and message
        for bad in (0.0, float("nan")):
            for call in (lambda: UniformizedChain(FLIP, rate=bad), lambda: poisson_pmf(bad, 1.0, 0),
                         lambda: sample_arrivals(bad, 1.0, seed=0)):
                with pytest.raises(ValueError, match=rf"^rate must be finite and > 0, got {bad!r}$"):
                    call()

    @pytest.mark.parametrize("entries, message", [
        (np.zeros((2, 3)), r"generator must be a square 2-D array, got shape \(2, 3\)"),
        (np.zeros((0, 0)), "generator must have at least one state"),
        (np.array([[-1.0, np.inf], [0.0, 0.0]]), "generator entries must be finite"),
    ])
    def test_rejects_malformed_arrays(self, entries, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            GeneratorMatrix(entries)


class TestPoisson:
    def test_pmf_known_values(self):
        assert poisson_pmf(1.0, 0.0, 0) == 1.0
        assert poisson_pmf(1.0, 0.0, 3) == 0.0
        assert poisson_pmf(2.0, 1.0, 0) == pytest.approx(math.exp(-2.0), rel=1e-14)
        assert poisson_pmf(2.0, 1.0, 2) == pytest.approx(2.0 * math.exp(-2.0), rel=1e-14)

    def test_pmf_survives_large_counts(self):
        # naive factorial would overflow long before n = 400
        v = poisson_pmf(1.0, 300.0, 400)
        assert 0.0 < v < 1.0

    @given(st.floats(0.1, 10.0), st.floats(0.0, 30.0))
    @settings(max_examples=50)
    def test_pmf_sums_to_one(self, rate, t):
        N = poisson_truncation(rate, t, 1e-12) if rate * t > 0 else 0
        total = sum(poisson_pmf(rate, t, n) for n in range(N + 1))
        assert total == pytest.approx(1.0, abs=1e-11)

    def test_truncation_bounds_tail(self):
        rate, t, tol = 5.0, 2.0, 1e-9
        N = poisson_truncation(rate, t, tol)
        head = sum(poisson_pmf(rate, t, n) for n in range(N + 1))
        assert head >= 1.0 - tol
        # one term fewer must not suffice (N is minimal)
        assert head - poisson_pmf(rate, t, N) < 1.0 - tol

    def test_tolerance_window_enforced(self):
        with pytest.raises(ValueError):
            poisson_truncation(1.0, 1.0, 1e-14)
        with pytest.raises(ValueError):
            poisson_truncation(1.0, 1.0, 1e-3)

    @pytest.mark.parametrize("rate, t, message", [
        (math.inf, 1.0, "rate must be finite and > 0, got inf"),
        (-10.0, 1.0, "rate must be finite and > 0, got -10.0"),
        (math.nan, 1.0, "rate must be finite and > 0, got nan"),
        (1.0, -10.0, "time must be finite and >= 0, got -10.0"),
        (1.0, math.nan, "time must be finite and >= 0, got nan"),
        (1e300, 1e300, "rate * time = inf is not finite"),
    ])
    def test_bad_rate_or_time_named(self, rate, t, message):
        # each used to fail inside rate * t, or with an error other than ValueError
        with pytest.raises(ValueError) as caught:
            poisson_truncation(rate, t, 1e-9)
        assert str(caught.value) == message

    @pytest.mark.parametrize("mu, n, exact", [
        # exp(-mu) mu^n / n! to 20 digits (40-digit arithmetic)
        (37.5, 30, 0.032451508190749541621),
        (1e3, 1000, 0.012614611348721499718),
        (1e4, 9700, 4.2988621015262158490e-5),
        (1e5, 100000, 0.0012615652097053005629),
        (1e5, 101000, 8.5996123940893100278e-6),
    ])
    def test_pmf_accurate_at_large_counts(self, mu, n, exact):
        # the plain log-space form is off by 1e-11 relative at n = 1e5
        assert poisson_pmf(1.0, mu, n) == pytest.approx(exact, rel=1e-14, abs=0.0)


class TestTransient:
    def test_time_zero_is_identity(self):
        chain = UniformizedChain(FLIP, rate=2.0)
        assert np.array_equal(transient(chain, 0.0).entries, np.eye(2))

    def test_flip_chain_closed_form(self):
        # P(t)[0][0] = (1 + exp(-2 rate t)) / 2 for the two-state swap
        rate = 2.0
        chain = UniformizedChain(FLIP, rate=rate)
        for t in (0.1, 0.5, 1.0, 3.0):
            M = transient(chain, t, tol=1e-12).entries
            p00 = (1.0 + math.exp(-2.0 * rate * t)) / 2.0
            assert M[0, 0] == pytest.approx(p00, abs=1e-10)
            assert M[0, 1] == pytest.approx(1.0 - p00, abs=1e-10)
            assert M[0, 0] == pytest.approx(M[1, 1], abs=1e-12)

    def test_rows_sum_within_stated_deficit(self):
        rng = np.random.default_rng(3)
        M = rng.uniform(0.0, 1.0, size=(4, 4))
        P = StochasticMatrix(M / M.sum(axis=1, keepdims=True))
        chain = UniformizedChain(P, rate=1.7)
        tol = 1e-9
        sums = transient(chain, 2.5, tol=tol).entries.sum(axis=1)
        assert np.all(sums <= 1.0 + 1e-12)
        assert np.all(sums >= 1.0 - tol - 1e-12)

    @given(stochastic_matrices(max_n=4), st.floats(0.2, 3.0), st.floats(0.1, 2.0), st.floats(0.1, 2.0))
    @settings(max_examples=30)
    def test_semigroup_property(self, P, rate, s, t):
        chain = UniformizedChain(P, rate)
        tol = 1e-12
        left = transient(chain, s + t, tol=tol).entries
        right = transient(chain, s, tol=tol).entries @ transient(chain, t, tol=tol).entries
        assert np.allclose(left, right, atol=1e-8)

    def test_derivative_at_zero_matches_generator(self):
        chain = UniformizedChain(FLIP, rate=1.0)
        Q = generator(chain).entries
        C = np.abs(Q @ Q).sum(axis=1).max()  # curvature bound for the linear fit
        for h in (1e-3, 1e-4):
            D = (transient(chain, h, tol=1e-12).entries - np.eye(2)) / h
            assert np.abs(D - Q).max() <= C * h

    def test_long_horizon_reaches_stationarity(self):
        # jump chain is periodic, but the continuous-time law still converges
        star = StochasticMatrix(
            np.array(
                [
                    [0.0, 1 / 3, 1 / 3, 1 / 3],
                    [1.0, 0.0, 0.0, 0.0],
                    [1.0, 0.0, 0.0, 0.0],
                    [1.0, 0.0, 0.0, 0.0],
                ]
            )
        )
        pi = stationary_distribution(star).probs
        M = transient(UniformizedChain(star, rate=1.0), 60.0, tol=1e-12).entries
        assert np.abs(M - pi[None, :]).max() < 1e-8

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            transient(UniformizedChain(FLIP, rate=1.0), -0.5)


def _full_sum_transient(P: np.ndarray, rate: float, t: float, tol: float) -> np.ndarray:
    """The series summed from n = 0 to the first N holding mass 1 - tol (the first method).

    The terms come from Loader's ``poisson_pmf``: the plain log-space pmf is
    itself 5.7e-14 off at rate * t = 233, more than the smallest tol.
    """
    mu = rate * t
    mass, N = poisson_pmf(rate, t, 0), 0
    cap = int(mu + 50.0 * math.sqrt(mu + 4.0)) + 64
    while mass < 1.0 - tol and N < cap:
        N += 1
        mass += poisson_pmf(rate, t, N)
    acc = np.zeros(P.shape)
    term = np.eye(P.shape[0])
    for n in range(N + 1):
        if n > 0:
            term = term @ P
        acc += poisson_pmf(rate, t, n) * term
    return acc


def _closed_form(g, mu: float) -> np.ndarray:
    """exp(mu (P - I)) for the random walk on g, from its symmetrized spectrum.

    g is connected, so the top eigenvalue is exactly 1. eigh returns it with
    an error of an ulp or so, which exp(mu (lam - 1)) would scale by mu.
    """
    deg = np.array(g.degrees(), dtype=float)
    d = np.sqrt(deg)
    A = np.zeros((g.n, g.n))
    for a, b in g.edges:
        A[a, b] = A[b, a] = 1.0
    lam, V = np.linalg.eigh(A / np.outer(d, d))
    lam[-1] = 1.0
    return (1.0 / d)[:, None] * ((V * np.exp(mu * (lam - 1.0))) @ V.T) * d[None, :]


_TOLS = st.sampled_from([1e-13, 1e-9, 1e-6])
_MUS = (0.3, 1.0, 37.5, 1e3, 1e4, 1e5)


class TestPoissonWindow:
    @given(st.floats(0.0, 2e4), _TOLS)
    @settings(max_examples=100)
    def test_window_is_narrowest_with_certified_mass(self, mu, tol):
        left, w = poisson_window(1.0, mu, tol)
        assert left >= 0 and min(w) > 0.0
        target = 1.0 - tol / 2.0
        assert math.fsum(w) >= target
        # the terms come in from the mode by size, so the smaller end term was
        # the last one taken, and without it the window falls short
        if len(w) > 1:
            assert math.fsum(w[1:] if w[0] <= w[-1] else w[:-1]) < target
        assert left <= math.floor(mu) < left + len(w)

    @given(st.floats(0.01, 2e4), _TOLS)
    @settings(max_examples=50)
    def test_weights_match_pmf(self, mu, tol):
        left, w = poisson_window(1.0, mu, tol)
        for k in range(0, len(w), max(1, len(w) // 20)):
            assert w[k] == pytest.approx(poisson_pmf(1.0, mu, left + k), rel=1e-12, abs=0.0)

    def test_zero_time_is_the_zero_count(self):
        assert poisson_window(2.0, 0.0, 1e-13) == (0, [1.0])

    def test_non_finite_mean_rejected(self):
        with pytest.raises(ValueError, match="not finite"):
            poisson_window(1e200, 1e200, 1e-9)
        with pytest.raises(ValueError, match="not finite"):
            poisson_pmf(1e200, 1e200, 5)

    def test_oversized_window_raises_at_once(self, monkeypatch):
        monkeypatch.setattr(ctmc, "MAX_WINDOW_TERMS", 50)  # the mode term is ~0.004
        with pytest.raises(PoissonWindowError, match="more than 50 terms"):
            poisson_window(1.0, 1e4, 1e-9)
        with pytest.raises(PoissonWindowError):
            poisson_window(1.0, 1e300, 1e-6)  # ~1e150 terms: refused before the search

    def test_window_cap_ends_the_search(self, monkeypatch):
        monkeypatch.setattr(ctmc, "MAX_WINDOW_TERMS", 300)  # passes the mode check, needs ~1,250
        with pytest.raises(PoissonWindowError, match="more than 300 terms"):
            poisson_window(1.0, 1e4, 1e-9)


class TestWindowedTransient:
    @given(stochastic_matrices(max_n=5), st.floats(0.1, 5.0), st.floats(0.0, 60.0), _TOLS)
    @settings(max_examples=60)
    # 0 -> 1, 1 absorbing at rate * t = 232.8: the log-space pmf put the oracle's row 0 at 1 + 5.7e-14
    @example(P=StochasticMatrix.from_csr([0, 1, 2], [1, 1], [1.0, 1.0]), rate=4.663595336275376,
             t=49.91485058481124, tol=1e-13)
    def test_matches_full_sum(self, P, rate, t, tol):
        got = transient(UniformizedChain(P, rate), t, tol=tol).entries
        if rate * t == 0.0:
            assert np.array_equal(got, np.eye(P.n))
            return
        want = _full_sum_transient(P.entries, rate, t, tol)
        assert np.abs(got - want).max() <= tol
        sums = got.sum(axis=1)
        assert np.all(sums >= 1.0 - tol) and np.all(sums <= 1.0)

    def test_rows_never_sum_above_one(self):
        # the window mass rounds to 1 here, and scaling to it left row 1 at 1 + ulp
        P = StochasticMatrix(np.array([[0.0, 1.0], [0.5, 0.5]]))
        for t in (1e-9, 1e-12, 1e-6):
            sums = transient(UniformizedChain(P, 4.0), t, tol=1e-13).entries.sum(axis=1)
            assert np.all(sums <= 1.0) and np.all(sums >= 1.0 - 1e-13)

    @given(connected_graphs(max_n=8), st.floats(0.0, 4.0), _TOLS)
    @settings(max_examples=60)
    @example(g=grid_graph(1, 3), log_mu=4.0, tol=1e-13)  # eigh gave the top eigenvalue as 1 + 2.2e-16
    def test_matches_closed_form_on_walk_graphs(self, g, log_mu, tol):
        mu = 10.0 ** log_mu
        got = transient(UniformizedChain(random_walk_matrix(g), 1.0), mu, tol=tol).entries
        assert np.abs(got - _closed_form(g, mu)).max() <= tol + 1e-12

    @pytest.mark.parametrize("tol", [1e-13, 1e-9, 1e-6])
    @pytest.mark.parametrize("mu", _MUS)
    def test_rows_within_deficit_across_scales(self, mu, tol):
        g = grid_graph(3, 4, 1.0)
        got = transient(UniformizedChain(random_walk_matrix(g), 2.0), mu / 2.0, tol=tol).entries
        sums = got.sum(axis=1)
        assert np.all(sums >= 1.0 - tol) and np.all(sums <= 1.0)
        assert np.abs(got - _closed_form(g, mu)).max() <= tol + 1e-12

    @pytest.mark.parametrize("mu", [1e3, 1e4, 1e5])
    def test_work_grows_with_sqrt_mu(self, mu, monkeypatch):
        windows, powers, pmf_calls = [], [], []
        window, power, pmf = ctmc.poisson_window, np.linalg.matrix_power, ctmc.poisson_pmf

        def record_window(*args):
            windows.append(window(*args))
            return windows[-1]

        def record_power(M, k):
            powers.append(k)
            return power(M, k)

        def count_pmf(*args):
            pmf_calls.append(args)
            return pmf(*args)

        monkeypatch.setattr(ctmc, "poisson_window", record_window)
        monkeypatch.setattr(np.linalg, "matrix_power", record_power)
        monkeypatch.setattr(ctmc, "poisson_pmf", count_pmf)
        transient(UniformizedChain(random_walk_matrix(grid_graph(2, 3, 1.0)), 1.0), mu, tol=1e-13)
        (left, w), = windows
        assert powers == [left]  # P**L by squaring: at most 2 log2(L) products
        assert len(pmf_calls) == 1  # one pmf evaluation; the rest by ratios
        # the full sum took about mu + 8 sqrt(mu) products: 101,896 at mu = 1e5
        products = 2 * left.bit_length() + len(w) - 1
        assert products <= 20 * math.sqrt(mu) + 2 * math.log2(mu) + 40


def _term_by_term_transient(chain: UniformizedChain, t: float, tol: float) -> np.ndarray:
    """The window summed one product per term, P**L @ P @ P ... (the method before Paterson-Stockmeyer)."""
    left, weights = poisson_window(chain.rate, t, tol)
    P = chain.jump_chain.entries
    term = np.linalg.matrix_power(P, left)
    acc = weights[0] * term
    for w in weights[1:]:
        term = term @ P
        acc += w * term
    acc *= (math.fsum(weights) / acc.sum(axis=1))[:, None]
    over = acc.sum(axis=1) > 1.0
    while over.any():
        acc[over] *= 1.0 - sys.float_info.epsilon
        over = acc.sum(axis=1) > 1.0
    return acc


class TestPowerSum:
    """Paterson-Stockmeyer window sums against the term-by-term loop, and their product count."""

    @pytest.mark.parametrize("stack", ["1", "2", "sqrt"])
    @given(stochastic_matrices(max_n=6), st.floats(-1.0, 5.0), _TOLS)
    @settings(max_examples=40)
    def test_matches_term_by_term_sum(self, stack, P, log_mu, tol):
        chain = UniformizedChain(P, 1.0)
        mu = 10.0 ** log_mu
        budget = {"1": P.entries.nbytes, "2": 2 * P.entries.nbytes, "sqrt": 1 << 40}[stack]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ctmc, "POWER_STACK_BYTES", budget)  # holds s = 1, s = 2 or floor(sqrt(m)) powers
            got = transient(chain, mu, tol=tol).entries
        assert np.abs(got - _term_by_term_transient(chain, mu, tol)).max() <= 1e-14
        sums = got.sum(axis=1)
        assert np.all(sums >= 1.0 - tol) and np.all(sums <= 1.0)

    @pytest.mark.parametrize("mu", [0.5, 37.5, 1e3, 1e4, 1e5])
    def test_products_grow_with_sqrt_of_window(self, mu, monkeypatch):
        # every n x n product goes through np.matmul, matrix_power's too
        products, windows = [], []
        matmul, window = np.matmul, ctmc.poisson_window

        def count_matmul(a, b, *args, **kwargs):
            if np.ndim(a) == 2 and np.ndim(b) == 2:
                products.append(np.shape(a))
            return matmul(a, b, *args, **kwargs)

        def record_window(*args):
            windows.append(window(*args))
            return windows[-1]

        monkeypatch.setattr(np, "matmul", count_matmul)
        monkeypatch.setitem(inspect.unwrap(np.linalg.matrix_power).__globals__, "matmul", count_matmul)
        monkeypatch.setattr(ctmc, "poisson_window", record_window)
        P = random_walk_matrix(grid_graph(2, 3, 1.0))
        transient(UniformizedChain(P, 1.0), mu, tol=1e-13)
        (left, weights), = windows
        assert products and products == [(P.n, P.n)] * len(products)
        # 164 products for the 4,762 terms at mu = 1e5; the loop took one per term
        assert len(products) <= 2 * math.sqrt(len(weights)) + 2 * math.log2(max(left, 1)) + 8


class TestClock:
    def test_arrivals_sorted_within_horizon(self):
        times = sample_arrivals(3.0, 10.0, seed=7)
        assert np.all(np.diff(times) > 0)
        assert times[0] > 0.0
        assert times[-1] <= 10.0

    def test_arrivals_reproducible_by_seed(self):
        a = sample_arrivals(2.0, 50.0, seed=11)
        b = sample_arrivals(2.0, 50.0, seed=11)
        c = sample_arrivals(2.0, 50.0, seed=12)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("bad", [1.5, -1, np.int64(-1), True, np.float64(2.0), "1", None])
    def test_seed_must_be_a_non_negative_integer(self, bad):
        with pytest.raises(ValueError) as caught:
            sample_arrivals(1.0, 2.0, bad)
        assert str(caught.value) == f"seed must be an integer >= 0, got {bad!r}"

    def test_numpy_integer_seeds_give_the_same_arrivals(self):
        want = sample_arrivals(2.0, 50.0, seed=11)
        for seed in (np.int64(11), np.uint32(11)):
            assert sample_arrivals(2.0, 50.0, seed).tobytes() == want.tobytes()

    def test_zero_horizon_gives_no_events(self):
        assert sample_arrivals(5.0, 0.0, seed=1).size == 0

    def test_count_matches_rate_road_test(self):
        # mean gap over many events concentrates near 1/rate
        times = sample_arrivals(4.0, 500.0, seed=21)
        gaps = np.diff(np.concatenate([[0.0], times]))
        assert gaps.mean() == pytest.approx(0.25, abs=0.02)
