"""Discrete-chain analysis: structure, stationary vectors, passage times."""

from __future__ import annotations

import inspect
import math
import pickle
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from walkchain import chains
from walkchain import (
    ChainAnalysis,
    Distribution,
    PathGraph,
    StochasticMatrix,
    UnreachableStateError,
    analyze,
    array_from_csv,
    array_to_csv,
    commute_time,
    degree_sum,
    evolve,
    grid_graph,
    hitting_time,
    hitting_times,
    hold_on_obstacle,
    load_map,
    matrix_to_csv,
    mixing_rate,
    mixing_time,
    n_step,
    random_walk_matrix,
    sample_path,
    stationary_distribution,
)
from conftest import connected_graphs, stochastic_matrices


def _sm(rows) -> StochasticMatrix:
    return StochasticMatrix(np.array(rows, dtype=float))


# frequently reused chains
FLIP = _sm([[0.0, 1.0], [1.0, 0.0]])  # period-2 swap
LAZY_FLIP = _sm([[0.75, 0.25], [0.25, 0.75]])
K3 = _sm((np.ones((3, 3)) - np.eye(3)) / 2.0)
REDUCIBLE = _sm(
    [
        [0.5, 0.5, 0.0, 0.0],
        [0.5, 0.5, 0.0, 0.0],
        [0.25, 0.25, 0.25, 0.25],
        [0.0, 0.0, 0.0, 1.0],
    ]
)


def path_graph_matrix(n: int) -> StochasticMatrix:
    P = np.zeros((n, n))
    for i in range(n):
        nbrs = [j for j in (i - 1, i + 1) if 0 <= j < n]
        for j in nbrs:
            P[i, j] = 1.0 / len(nbrs)
    return StochasticMatrix(P)


def _triangulated_grid(rows: int, cols: int) -> StochasticMatrix:
    """Walk on a grid with one diagonal per cell: its triangles make it aperiodic."""
    g = grid_graph(rows, cols)
    diagonals = [(r * cols + c, (r + 1) * cols + c + 1)
                 for r in range(rows - 1) for c in range(cols - 1)]
    return random_walk_matrix(PathGraph(g.positions(), g.edges + tuple(diagonals)))


class TestValidation:
    def test_rejects_negative_entry(self):
        with pytest.raises(ValueError, match="negative"):
            _sm([[1.1, -0.1], [0.5, 0.5]])

    def test_rejects_bad_row_sum(self):
        with pytest.raises(ValueError, match="row 1"):
            _sm([[0.5, 0.5], [0.5, 0.4]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            StochasticMatrix(np.array([[0.5, 0.5]]))

    def test_relaxed_tolerance_per_instance(self):
        entries = np.array([[0.5, 0.4999], [0.5, 0.5]])
        with pytest.raises(ValueError):
            StochasticMatrix(entries)
        loose = StochasticMatrix(entries, row_sum_tol=1e-3)
        assert loose.row_sum_tol == 1e-3

    def test_entries_are_write_protected(self):
        P = _sm([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError):
            P.entries[0, 0] = 1.0

    def test_distribution_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Distribution(np.array([0.5, 0.4]))
        with pytest.raises(ValueError):
            Distribution(np.array([1.5, -0.5]))


class TestEvolution:
    def test_zero_steps_is_identity(self):
        assert np.array_equal(n_step(K3, 0).entries, np.eye(3))

    def test_one_step_is_the_matrix(self):
        assert np.array_equal(n_step(K3, 1).entries, K3.entries)

    def test_rejects_negative_step_count(self):
        d0 = Distribution(np.array([1.0, 0.0, 0.0]))
        for call in (lambda n: n_step(K3, n), lambda n: evolve(d0, K3, n)):
            for bad in (-1, 1.0, True, False, np.int64(-1), np.True_):
                with pytest.raises(ValueError) as caught:
                    call(bad)
                assert str(caught.value) == f"step count must be a non-negative integer, got {bad!r}"
        for n in (np.int64(2), np.int32(0), np.uint8(3)):
            assert n_step(K3, n).entries.tobytes() == n_step(K3, int(n)).entries.tobytes()
            assert evolve(d0, K3, n).probs.tobytes() == evolve(d0, K3, int(n)).probs.tobytes()

    @given(stochastic_matrices(), st.integers(0, 4), st.integers(0, 4))
    def test_chapman_kolmogorov(self, P, m, n):
        lhs = n_step(P, m + n).entries
        rhs = n_step(P, m).entries @ n_step(P, n).entries
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_evolve_matches_matrix_power(self):
        d0 = Distribution(np.array([1.0, 0.0, 0.0]))
        d3 = evolve(d0, K3, 3)
        assert np.allclose(d3.probs, (np.eye(3)[0] @ np.linalg.matrix_power(K3.entries, 3)))

    def test_evolve_dimension_mismatch(self):
        with pytest.raises(ValueError):
            evolve(Distribution(np.array([1.0, 0.0])), K3, 1)


def accessible(P: StochasticMatrix, i: int, j: int) -> bool:
    """True when j can be reached from i in zero or more positive-probability steps."""
    for s in (i, j):
        if not (0 <= s < P.n):
            raise ValueError(f"state {s} outside 0..{P.n - 1}")
    return i == j or bool(chains._reachable(P, i)[j])


class TestAccessibility:
    def test_reflexive_even_without_self_loop(self):
        assert accessible(FLIP, 0, 0)

    def test_one_way_street(self):
        P = _sm([[0.5, 0.5], [0.0, 1.0]])
        assert accessible(P, 0, 1)
        assert not accessible(P, 1, 0)

    def test_state_bounds_checked(self):
        with pytest.raises(ValueError):
            accessible(FLIP, 0, 2)

    @given(stochastic_matrices(max_n=5))
    def test_transitive(self, P):
        n = P.n
        for i in range(n):
            for j in range(n):
                if not accessible(P, i, j):
                    continue
                for k in range(n):
                    if accessible(P, j, k):
                        assert accessible(P, i, k)


class TestStructure:
    def test_irreducible_chain_is_one_closed_class(self):
        a = analyze(K3)
        assert a.classes == ((0, 1, 2),)
        assert a.closed == (True,)
        assert a.irreducible

    def test_reducible_chain_classes_and_closure(self):
        a = analyze(REDUCIBLE)
        assert a.classes == ((0, 1), (2,), (3,))
        assert a.closed == (True, False, True)
        assert not a.irreducible
        assert a.stationary is None and a.mixing_rate is None and a.mixing_time is None

    def test_identity_matrix_is_all_absorbing(self):
        a = analyze(_sm(np.eye(3)))
        assert a.classes == ((0,), (1,), (2,))
        assert a.closed == (True, True, True)
        assert a.periods == (1, 1, 1)

    def test_periods(self):
        assert analyze(FLIP).periods == (2,)
        assert analyze(K3).periods == (1,)
        # walk on a 4-cycle alternates parity classes
        cycle4 = _sm(
            [
                [0.0, 0.5, 0.0, 0.5],
                [0.5, 0.0, 0.5, 0.0],
                [0.0, 0.5, 0.0, 0.5],
                [0.5, 0.0, 0.5, 0.0],
            ]
        )
        assert analyze(cycle4).periods == (2,)

    def test_transient_singleton_without_return_has_period_zero(self):
        P = _sm([[0.0, 1.0], [0.0, 1.0]])
        a = analyze(P)
        assert a.classes == ((0,), (1,))
        assert a.periods == (0, 1)

    def test_transient_state_with_self_loop_has_period_one(self):
        a = analyze(REDUCIBLE)
        assert a.periods[1] == 1  # state 2 can return to itself immediately

    @given(connected_graphs())
    def test_graph_walks_are_irreducible(self, g):
        a = analyze(random_walk_matrix(g))
        assert a.irreducible
        assert a.periods[0] in (1, 2)  # bipartite or not


class TestStationary:
    def test_two_state_closed_form(self):
        P = _sm([[0.7, 0.3], [0.1, 0.9]])
        pi = stationary_distribution(P).probs
        assert np.allclose(pi, [0.25, 0.75], atol=1e-14)

    def test_reducible_raises(self):
        with pytest.raises(ValueError, match="reducible"):
            stationary_distribution(REDUCIBLE)

    @given(connected_graphs())
    def test_walk_stationary_is_degree_over_total(self, g):
        pi = stationary_distribution(random_walk_matrix(g)).probs
        expected = g.degrees() / degree_sum(g)
        assert np.allclose(pi, expected, atol=1e-12)

    def test_matches_long_run_marginal_for_positive_chain(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            M = rng.uniform(0.05, 1.0, size=(5, 5))
            P = StochasticMatrix(M / M.sum(axis=1, keepdims=True))
            pi = stationary_distribution(P).probs
            far = evolve(Distribution(np.eye(5)[0]), P, 300).probs
            assert np.allclose(pi, far, atol=1e-12)

    def test_invariance_under_one_step(self):
        pi = stationary_distribution(LAZY_FLIP)
        moved = evolve(pi, LAZY_FLIP, 1)
        assert np.allclose(moved.probs, pi.probs, atol=1e-14)


CAMPUS_WALK = random_walk_matrix(load_map((Path(__file__).resolve().parents[1] / "data"
                                          / "campus_map.json").read_text()))


class TestKeptDerivations:
    """The class structure and the stationary law are derived once per matrix and kept on it."""

    def test_each_value_is_derived_once(self, monkeypatch):
        P = _triangulated_grid(4, 4)
        calls = []
        tarjan, solve = chains._communicating_classes, np.linalg.solve
        monkeypatch.setattr(chains, "_communicating_classes",
                            lambda *args: calls.append("classes") or tarjan(*args))
        monkeypatch.setattr(np.linalg, "solve", lambda *args: calls.append("solve") or solve(*args))
        a = analyze(P)
        assert mixing_time(P) == a.mixing_time and stationary_distribution(P) is a.stationary
        assert chains._class_structure(P)[0] is a.classes == (tuple(range(P.n)),)
        assert calls == ["classes", "solve"]

    def test_a_reducible_chain_raises_on_every_call(self):
        P = _sm(REDUCIBLE.entries)
        for _ in range(3):
            with pytest.raises(ValueError, match=r"^chain is reducible \(3 communicating classes\); "):
                stationary_distribution(P)
        assert list(P._memo) == [chains._class_structure.__wrapped__]  # the failure is not kept

    def test_no_function_takes_the_law_of_its_chain(self):
        assert list(inspect.signature(stationary_distribution).parameters) == ["P"]
        assert list(inspect.signature(chains._spectrum).parameters) == ["P"]
        assert stationary_distribution.__name__ == "stationary_distribution"
        assert stationary_distribution.__doc__.startswith("Unique stationary vector")

    @pytest.mark.parametrize("P", [CAMPUS_WALK, _triangulated_grid(11, 11)],
                             ids=["campus", "tri11x11"])
    def test_a_pickle_carries_no_kept_value(self, P):
        P = pickle.loads(pickle.dumps(P))  # a fresh copy, as the parametrized one is shared
        blank = pickle.dumps(P)
        a, H = analyze(P), hitting_times(P)
        assert len(P._memo) == 4  # the dense view, the class structure, the law and the spectrum
        assert pickle.dumps(P) == blank
        Q = pickle.loads(blank)
        assert Q._memo == {}
        b = analyze(Q)
        assert (b.classes, b.closed, b.periods, b.irreducible, b.mixing_rate, b.mixing_time) == (
            a.classes, a.closed, a.periods, a.irreducible, a.mixing_rate, a.mixing_time)
        assert b.stationary.probs.tobytes() == a.stationary.probs.tobytes()
        assert hitting_times(Q).tobytes() == H.tobytes()


class TestMixing:
    def test_lazy_flip_rate_and_time(self):
        assert mixing_rate(LAZY_FLIP) == pytest.approx(0.5, abs=1e-12)
        # rows of P are already within 1/4 of (1/2, 1/2)
        assert mixing_time(LAZY_FLIP) == 1

    def test_triangle_walk_mixes_in_two_steps(self):
        # row TV after t steps is (2/3) * 2**-t: above 1/4 at t=1, below at t=2
        assert mixing_rate(K3) == pytest.approx(0.5, abs=1e-12)
        assert mixing_time(K3) == 2

    def test_periodic_chain_never_mixes(self):
        assert mixing_rate(FLIP) == pytest.approx(1.0, abs=1e-12)
        cycle3 = _sm([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        # period 3 with branching: the cyclic classes are {0}, {1, 2}, {3, 4}
        mixed = np.zeros((5, 5))
        mixed[0, [1, 2]] = 0.5
        mixed[1, [3, 4]] = 0.5
        mixed[2, 3] = mixed[3, 0] = mixed[4, 0] = 1.0
        for P in (FLIP, cycle3, StochasticMatrix(mixed)):
            assert analyze(P).periods[0] > 1
            for eps in (0.25, 0.1):
                assert mixing_time(P, eps) is None
                assert _reference_mixing_time(P, eps, cap=200)[0] is None

    def test_periodic_chain_with_loose_eps_still_searches(self):
        # d(t) = 1/2 for every t on the swap, so eps = 1/2 is met at once
        assert mixing_time(FLIP, 0.5) == 1

    def test_nearly_frozen_chain_exceeds_cap(self):
        P = _sm([[1 - 1e-7, 1e-7], [1e-7, 1 - 1e-7]])
        assert mixing_time(P) is None
        assert mixing_time(P, 0.1) is None

    def test_reducible_chain_has_no_mixing_time(self):
        with pytest.raises(ValueError, match="reducible"):
            mixing_time(REDUCIBLE)

    def test_single_state_rate_is_zero(self):
        assert mixing_rate(_sm([[1.0]])) == 0.0


@st.composite
def _symmetric_weights(draw, max_n: int = 12) -> np.ndarray:
    """Symmetric weights W on a connected graph: P = W / rowsum(W) has pi = rowsum / total."""
    n = draw(st.integers(2, max_n))
    W = np.zeros((n, n))
    iu = np.triu_indices(n)
    W[iu] = draw(st.lists(st.floats(0.0, 10.0), min_size=iu[0].size, max_size=iu[0].size))
    W[np.arange(n - 1), np.arange(1, n)] += draw(st.floats(0.1, 10.0))  # a connected backbone
    return W + np.triu(W, 1).T


@st.composite
def _directed_cycles(draw, max_n: int = 10) -> StochasticMatrix:
    """Lazy directed cycle i -> i + 1 with weights a_i: irreducible, never reversible for n >= 3."""
    n = draw(st.integers(3, max_n))
    a = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    P = np.diag(1.0 - a)
    P[np.arange(n), (np.arange(n) + 1) % n] = a
    return StochasticMatrix(P)


class TestSymmetricMixingRate:
    """mixing_rate through eigvalsh of D_pi^1/2 P D_pi^-1/2 against the general eigvals path."""

    @given(_symmetric_weights())
    @settings(max_examples=80)
    def test_reversible_chain_matches_eigvals_and_slem(self, W):
        P = StochasticMatrix(W / W.sum(axis=1, keepdims=True))
        sp = chains._spectrum(P)
        assert sp is not None  # the symmetric route is the one taken
        got = float(np.sort(np.abs(sp.lam))[-2])
        d = np.sqrt(W.sum(axis=1))
        slem = np.sort(np.abs(np.linalg.eigvalsh(W / np.outer(d, d))))[-2]
        assert abs(got - np.sort(np.abs(np.linalg.eigvals(P.entries)))[-2]) <= 1e-12
        assert abs(got - slem) <= 1e-12
        assert mixing_rate(P) == (got if analyze(P).periods == (1,) else 1.0)  # 1.0: periodic

    @given(_directed_cycles())
    @settings(max_examples=60)
    def test_non_reversible_chain_takes_eigvals(self, P):
        analyze(P)
        assert chains._spectrum(P) is None
        assert mixing_rate(P) == float(np.sort(np.abs(np.linalg.eigvals(P.entries)))[-2])


def _cyclic_blocks(sizes) -> StochasticMatrix:
    """Each state moves uniformly onto the next block, the last onto the first: period len(sizes)."""
    starts = np.cumsum([0, *sizes])
    P = np.zeros((starts[-1], starts[-1]))
    for b in range(len(sizes)):
        nxt = (b + 1) % len(sizes)
        P[starts[b]:starts[b + 1], starts[nxt]:starts[nxt + 1]] = 1.0 / sizes[nxt]
    return StochasticMatrix(P)


def _cycle_walk(n: int) -> StochasticMatrix:
    P = np.zeros((n, n))
    P[np.arange(n), (np.arange(n) + 1) % n] = P[np.arange(n), (np.arange(n) - 1) % n] = 0.5
    return StochasticMatrix(P)


class TestPeriodicMixingRate:
    """A period d > 1 puts every d-th root of unity in the spectrum: the rate is 1.0 at once."""

    @pytest.mark.parametrize("P, period", [
        (FLIP, 2), (random_walk_matrix(grid_graph(4, 5)), 2),
        (random_walk_matrix(grid_graph(8, 8)), 2), (_cycle_walk(6), 2), (_cycle_walk(12), 2),
        (_cyclic_blocks([1, 1, 1]), 3), (_cyclic_blocks([2, 3, 1]), 3),
        (_cyclic_blocks([2, 2, 2, 2, 2, 2]), 6),
    ], ids=["flip", "grid4x5", "grid8x8", "cycle6", "cycle12", "cycle3", "blocks231", "blocks6x2"])
    def test_matches_eigvals(self, P, period, monkeypatch):
        roots = np.exp(2j * np.pi * np.arange(period) / period)
        spectrum = np.linalg.eigvals(P.entries)
        assert all(np.abs(spectrum - r).min() <= 1e-8 for r in roots)
        assert abs(np.sort(np.abs(spectrum))[-2] - 1.0) <= 1e-8
        for solver in ("eigvals", "eigvalsh"):  # no spectrum is computed
            monkeypatch.delattr(np.linalg, solver)
        a = analyze(P)
        assert a.periods == (period,) and a.mixing_rate == 1.0

    @pytest.mark.parametrize("P", [_cycle_walk(7), K3, LAZY_FLIP, _triangulated_grid(4, 4)],
                             ids=["cycle7", "k3", "lazy_flip", "tri4x4"])
    def test_aperiodic_chain_keeps_its_spectrum(self, P):
        a = analyze(P)
        assert a.periods == (1,)
        assert a.mixing_rate == float(np.sort(np.abs(chains._spectrum(P).lam))[-2])


class TestPassageTimes:
    @pytest.mark.parametrize("bad", [0.5, 1.7, True, False, np.True_, np.float64(1.0), "1", None])
    def test_states_must_be_integers(self, bad):
        P = path_graph_matrix(3)
        for call in (lambda: hitting_time(P, bad, 1), lambda: hitting_time(P, 0, bad),
                     lambda: commute_time(P, bad, 2), lambda: commute_time(P, 0, bad)):
            with pytest.raises(ValueError) as caught:
                call()
            assert str(caught.value) == f"state must be an integer, got {bad!r}"

    def test_numpy_integer_states_give_the_same_times(self):
        P = path_graph_matrix(4)
        assert hitting_time(P, np.int64(0), np.int32(3)) == hitting_time(P, 0, 3)
        assert commute_time(P, np.uint8(1), np.int64(3)) == commute_time(P, 1, 3)

    def test_path_endpoints(self):
        P = path_graph_matrix(4)
        assert hitting_time(P, 0, 3) == pytest.approx(9.0, abs=1e-9)
        assert hitting_time(P, 0, 0) == 0.0

    def test_classic_small_graphs(self):
        # 3-path between endpoints
        P3 = path_graph_matrix(3)
        assert hitting_time(P3, 0, 2) == pytest.approx(4.0, abs=1e-9)
        assert commute_time(P3, 0, 2) == pytest.approx(8.0, abs=1e-9)
        # leaf to leaf across a 3-spoke hub
        star = _sm(
            [
                [0.0, 1 / 3, 1 / 3, 1 / 3],
                [1.0, 0.0, 0.0, 0.0],
                [1.0, 0.0, 0.0, 0.0],
                [1.0, 0.0, 0.0, 0.0],
            ]
        )
        assert hitting_time(star, 1, 2) == pytest.approx(6.0, abs=1e-9)
        assert commute_time(star, 1, 2) == pytest.approx(12.0, abs=1e-9)
        # complete graph on 4 states: geometric with success chance 1/3
        K4 = _sm((np.ones((4, 4)) - np.eye(4)) / 3.0)
        assert hitting_time(K4, 0, 1) == pytest.approx(3.0, abs=1e-9)
        # opposite-ish pair on a 5-cycle, distance 2: d * (n - d)
        cyc = np.zeros((5, 5))
        for i in range(5):
            cyc[i, (i + 1) % 5] = 0.5
            cyc[i, (i - 1) % 5] = 0.5
        C5 = StochasticMatrix(cyc)
        assert hitting_time(C5, 0, 2) == pytest.approx(6.0, abs=1e-9)
        assert commute_time(C5, 0, 2) == pytest.approx(12.0, abs=1e-9)

    def test_geometric_absorption(self):
        P = _sm([[1.0, 0.0], [0.5, 0.5]])
        assert hitting_time(P, 1, 0) == pytest.approx(2.0, abs=1e-12)

    def test_unreachable_target_raises_with_stranded_states(self):
        P = _sm([[1.0, 0.0], [0.5, 0.5]])
        with pytest.raises(UnreachableStateError) as exc:
            hitting_time(P, 0, 1)
        assert exc.value.target == 1
        assert exc.value.stranded == (0,)

    def test_states_beyond_the_target_do_not_strand(self):
        # 2 is absorbing but lies past 1: every walk from 0 meets 1 first
        P = _sm([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        assert hitting_time(P, 0, 1) == 1.0
        P = _sm([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        assert hitting_time(P, 0, 1) == pytest.approx(2.0, abs=1e-12)

    def test_absorbing_trap_on_the_way(self):
        # from 0 the walk may fall into absorbing 2 and never reach 1
        P = _sm([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(UnreachableStateError) as exc:
            hitting_time(P, 0, 1)
        assert 2 in exc.value.stranded

    @given(connected_graphs(max_n=7))
    @settings(max_examples=40)
    def test_hitting_time_dominates_graph_distance(self, g):
        P = random_walk_matrix(g)
        # BFS hop counts are a lower bound on expected steps
        dist = np.full(g.n, -1)
        dist[0] = 0
        frontier = [0]
        while frontier:
            nxt = []
            for u in frontier:
                for v in g.neighbors(u):
                    if dist[v] < 0:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        for v in range(1, g.n):
            assert hitting_time(P, 0, v) >= dist[v] - 1e-9


# ---------------------------------------------------------------------------
# reference oracles: the straightforward computations the closed forms replace

def _reach_matrix(P: StochasticMatrix) -> np.ndarray:
    """reach[i, j]: j can be reached from i in zero or more positive-probability steps."""
    reach = np.eye(P.n, dtype=bool) | (P.entries > 0)
    for _ in range(P.n):
        reach = reach | ((reach.astype(int) @ reach.astype(int)) > 0)
    return reach


def _reference_structure(P: StochasticMatrix):
    """Classes, closure and periods from the full reach matrix and return times."""
    n = P.n
    A = P.entries > 0
    reach = _reach_matrix(P)
    classes, assigned = [], set()
    for i in range(n):
        if i not in assigned:
            members = [j for j in range(n) if reach[i, j] and reach[j, i]]
            assigned.update(members)
            classes.append(tuple(members))
    closed, periods = [], []
    for members in classes:
        inside = np.zeros(n, dtype=bool)
        inside[list(members)] = True
        closed.append(not bool(A[list(members)][:, ~inside].any()))
        # gcd of the lengths of closed walks through the first member, inside the class
        sub = A[np.ix_(members, members)].astype(int)
        walk = np.eye(len(members), dtype=int)
        g = 0
        for t in range(1, 3 * n + 1):
            walk = ((walk @ sub) > 0).astype(int)
            if walk[0, 0]:
                g = math.gcd(g, t)
        periods.append(g)
    return tuple(classes), tuple(closed), tuple(periods)


def _reference_mixing_time(P: StochasticMatrix, eps: float, cap: int):
    """First t in 1..cap with d(t) <= eps by one matrix product per step, and d at each t."""
    pi = stationary_distribution(P).probs
    M = np.array(P.entries)
    d = [None]
    for t in range(1, cap + 1):
        if t > 1:
            M = M @ P.entries
        d.append(0.5 * np.abs(M - pi[None, :]).sum(axis=1).max())
        if d[t] <= eps:
            return t, d
    return None, d


def _irreducible(P: StochasticMatrix) -> bool:
    return len(_reference_structure(P)[0]) == 1


def _largest_closed_class(P: StochasticMatrix) -> StochasticMatrix:
    """P restricted to its largest closed class: an irreducible chain."""
    classes, closed, _ = _reference_structure(P)
    members = list(max((c for c, is_closed in zip(classes, closed) if is_closed), key=len))
    return StochasticMatrix(P.entries[np.ix_(members, members)])


def _lazy(P: StochasticMatrix, hold: float) -> StochasticMatrix:
    return StochasticMatrix(hold * np.eye(P.n) + (1.0 - hold) * P.entries)


class TestReferenceOracles:
    @given(stochastic_matrices(max_n=7))
    @settings(max_examples=150)
    def test_classes_closure_and_periods_match_reach_matrix(self, P):
        a = analyze(P)
        assert (a.classes, a.closed, a.periods) == _reference_structure(P)

    @given(connected_graphs(max_n=9))
    def test_graph_walk_structure_matches_reach_matrix(self, g):
        P = random_walk_matrix(g)
        a = analyze(P)
        assert (a.classes, a.closed, a.periods) == _reference_structure(P)

    @given(st.one_of(connected_graphs(max_n=9).map(random_walk_matrix),
                     stochastic_matrices(max_n=7)))
    @settings(max_examples=150)
    def test_all_pairs_hitting_times_match_pairwise_solves(self, P):
        assume(_irreducible(P))
        H = hitting_times(P)
        assert np.array_equal(np.diag(H), np.zeros(P.n))
        for u in range(P.n):
            for v in range(P.n):
                assert H[u, v] == pytest.approx(hitting_time(P, u, v), rel=1e-9, abs=0.0)

    def test_hitting_times_rejects_a_disagreeing_direct_solve(self, monkeypatch):
        P = random_walk_matrix(grid_graph(3, 3))
        exact = chains.hitting_time
        monkeypatch.setattr(chains, "hitting_time",
                            lambda P, u, v: exact(P, u, v) * (1.0 + 1e-6))
        with pytest.raises(ValueError, match="ill-conditioned"):
            hitting_times(P)

    @given(stochastic_matrices(max_n=7))
    @example(_sm([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]))  # 2 lies only past 1
    @settings(max_examples=100)
    def test_stranded_states_match_forward_searches(self, P):
        # a state strands when the walk can visit it before v (v made
        # absorbing, so what lies only beyond v does not count) and it cannot reach v
        reach = _reach_matrix(P)
        for v in range(P.n):
            absorbing = np.array(P.entries)
            absorbing[v] = np.eye(P.n)[v]
            before_v = _reach_matrix(StochasticMatrix(absorbing))
            for u in range(P.n):
                if u == v:
                    continue
                want = tuple(i for i in range(P.n)
                             if before_v[u, i] and i != v and not reach[i, v])
                if want:
                    with pytest.raises(UnreachableStateError) as exc:
                        hitting_time(P, u, v)
                    assert exc.value.stranded == want
                else:
                    assert hitting_time(P, u, v) >= 1.0

    @pytest.mark.parametrize("eps", [0.25, 0.1])
    @given(P=st.one_of(connected_graphs(max_n=9).map(random_walk_matrix),
                       stochastic_matrices(max_n=6)),
           hold=st.sampled_from([0.0, 0.3]))
    @settings(max_examples=60)
    def test_mixing_time_matches_linear_scan(self, eps, P, hold):
        assume(_irreducible(P))
        P = _lazy(P, hold) if hold else P
        want, d = _reference_mixing_time(P, eps, cap=400)
        got = mixing_time(P, eps, cap=400)
        if got != want:  # only a numerical tie at eps may separate the two orders of products
            assert want is not None and got is not None
            assert min(abs(d[want] - eps), abs(d[want - 1] - eps) if want > 1 else 1.0) < 1e-12

    @pytest.mark.parametrize("eps", [0.25, 0.1])
    @given(g=connected_graphs(min_n=2, max_n=9))
    def test_bipartite_walks_never_mix(self, eps, g):
        P = random_walk_matrix(g)
        assume(analyze(P).periods == (2,))
        assert mixing_time(P, eps) is None

    def test_cap_boundary_matches_linear_scan(self):
        # d(t) = 0.5 * 0.98**t first drops to 1/4 at t = 35
        P = _sm([[0.99, 0.01], [0.01, 0.99]])
        for cap in range(1, 41):
            assert mixing_time(P, cap=cap) == _reference_mixing_time(P, 0.25, cap)[0]

    def test_cap_must_be_an_integer(self):
        # d(t) = 0.5 * 0.98**t first drops to 1/4 at t = 35, so no cap below 35 may answer 35
        P = _sm([[0.99, 0.01], [0.01, 0.99]])
        for cap in (34.5, 34.9, np.float64(34.2), 35.0, math.inf, "35", None, True, False,
                    np.True_):
            with pytest.raises(ValueError) as caught:
                mixing_time(P, cap=cap)
            assert str(caught.value) == f"cap must be an integer, got {cap!r}"
        assert mixing_time(P, cap=34) is None and mixing_time(P, cap=np.int64(34)) is None
        assert mixing_time(P, cap=35) == 35 == mixing_time(P, cap=np.int32(35))

    def test_nan_eps_raises(self):
        # the flip chain never mixes, so no eps below 1 may answer 1
        for eps in (math.nan, np.float64(math.nan), -math.nan):
            with pytest.raises(ValueError) as caught:
                mixing_time(FLIP, eps)
            assert str(caught.value) == f"eps must be a number, got {eps!r}"
        assert [mixing_time(FLIP, eps) for eps in (-1, 0, 1, 2)] == [None, None, 1, 1]

    def test_eps_must_be_a_real_number(self):
        for eps in ("x", None, "0.25", [0.25], 0.25j):
            with pytest.raises(ValueError) as caught:
                mixing_time(LAZY_FLIP, eps)
            assert str(caught.value) == f"eps must be a number, got {eps!r}"
        assert mixing_time(LAZY_FLIP, np.float32(0.25)) == mixing_time(LAZY_FLIP, np.int64(1)) == 1


def _parent_mixing_time(P: StochasticMatrix, eps: float = 0.25, cap: int = chains.MIXING_TIME_CAP,
                        *, stationary=None, period=None):
    """The mixing-time search before the level cache, as a reference.

    Each lifting jump P**(2**j) is rebuilt from P by j squarings, and d(t) is
    summed over one n x n temporary. ``np.matmul`` stands for its ``@`` (the
    same product), so a test can count the products.
    """
    if stationary is None or period is None:
        a = analyze(P)
        stationary, period = a.stationary, a.periods[0]
    if cap < 1 or (period > 1 and eps < 0.5):
        return None
    pi = stationary.probs[None, :]

    def above(M):
        D = M - pi
        np.abs(D, out=D)
        return 0.5 * D.sum(axis=1).max() > eps

    s, M = 1, P.entries
    if not above(M):
        return 1
    while 2 * s <= cap:
        M2 = np.matmul(M, M)
        if not above(M2):
            break
        s, M = 2 * s, M2
    M2 = None
    t = s
    for j in range(s.bit_length() - 2, -1, -1):
        B = P.entries
        for _ in range(j):
            B = np.matmul(B, B)
        C = np.matmul(M, B)
        del B
        if above(C):
            t, M = t + (1 << j), C
        del C
    return None if t >= cap else t + 1


def _level_bound(k: int) -> int:
    """Products of the search that brackets t_mix in (2**k, 2**(k + 1)] and stops squaring there."""
    return 2 * k + 1


def _count_products(monkeypatch) -> list:
    products = []
    matmul = np.matmul

    def count_matmul(a, b, *args, **kwargs):
        products.append((np.shape(a), np.shape(b)))
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", count_matmul)
    return products


class TestMixingLevels:
    """The search with held levels against the search that rebuilds every jump from P."""

    @given(P=st.one_of(connected_graphs(max_n=9).map(random_walk_matrix),
                       stochastic_matrices(max_n=6)),
           hold=st.sampled_from([0.0, 0.3, 0.9, 0.99]),
           eps=st.floats(0.01, 0.6), cap=st.integers(1, 5000))
    @settings(max_examples=150)
    def test_matches_the_parent_search(self, P, hold, eps, cap):
        assume(_irreducible(P))
        P = _lazy(P, hold) if hold else P
        assert mixing_time(P, eps, cap) == _parent_mixing_time(P, eps, cap)

    @pytest.mark.parametrize("P", [
        _triangulated_grid(6, 6), _triangulated_grid(12, 12), _triangulated_grid(9, 14),
        _lazy(random_walk_matrix(grid_graph(7, 7)), 0.5),
        _lazy(random_walk_matrix(grid_graph(10, 3)), 0.9),
    ], ids=["tri6x6", "tri12x12", "tri9x14", "held7x7", "held10x3"])
    def test_matches_the_parent_search_on_grids(self, P):
        a = analyze(P)
        known = {"stationary": a.stationary, "period": a.periods[0]}
        t_mix = a.mixing_time
        for eps in (0.05, 0.1, 0.25, 0.4):
            for cap in sorted({1, 2, 3, 7, 8, 64, t_mix - 1, t_mix, t_mix + 1, 10_000}):
                want = _parent_mixing_time(P, eps, cap, **known)
                assert mixing_time(P, eps, cap) == want, (eps, cap)

    @pytest.mark.parametrize("hold", [0.7, 0.9, 0.97, 0.99, 0.995, 0.999, 0.9995])
    def test_two_state_products_meet_the_level_bound(self, hold, monkeypatch):
        # two states: d(t) = 0.5 * (1 - 2a)**t, so t_mix grows as a shrinks
        a = (1.0 - hold) / 2.0
        P = _sm([[1.0 - a, a], [a, 1.0 - a]])
        known = {"stationary": Distribution(np.array([0.5, 0.5])), "period": 1}
        products = _count_products(monkeypatch)
        t_mix = mixing_time(P)
        k = (t_mix - 1).bit_length() - 1  # the lifting ends at t_mix - 1 in [2**k, 2**(k + 1))
        assert len(products) == _level_bound(k)
        assert products == [((2, 2), (2, 2))] * len(products)
        del products[:]
        assert _parent_mixing_time(P, **known) == t_mix
        assert len(products) == 2 * k + 1 + k * (k - 1) // 2

    def test_level_bound_is_below_the_parent_count(self):
        parent = [2 * k + 1 + k * (k - 1) // 2 for k in range(12)]
        assert all(_level_bound(k) <= parent[k] for k in range(12))
        assert [k for k in range(3, 12) if _level_bound(k) < parent[k]] == list(range(3, 12))
        assert _level_bound(7) == 15 and parent[7] == 36  # the n = 324 benchmark map, t_mix = 159

    def test_products_on_a_grid(self, monkeypatch):
        P = _triangulated_grid(10, 10)
        products = _count_products(monkeypatch)
        t_mix = mixing_time(P)
        k = (t_mix - 1).bit_length() - 1
        assert k >= 3 and len(products) == _level_bound(k)
        assert products == [((P.n, P.n), (P.n, P.n))] * len(products)

    def test_peak_memory_at_n_324(self):
        P = _triangulated_grid(18, 18)
        a = analyze(P)  # builds P.entries before the trace starts
        del P._memo[chains._spectrum.__wrapped__]  # the eigh runs inside the trace
        tracemalloc.start()
        try:
            t_mix = mixing_time(P)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        k = (t_mix - 1).bit_length() - 1
        assert t_mix == a.mixing_time and k == 7
        assert peak <= (-(-k // 2) + 3) * 8 * P.n ** 2 + (64 << 10)

    def test_level_search_peak_memory_at_n_324(self):
        # the search over powers of P itself, which the spectral search above hands a
        # decision within its guard band, holds every level P**(2**j) with j < k
        P = _triangulated_grid(18, 18)
        a = analyze(P)
        pi = a.stationary.probs[None, :]
        tracemalloc.start()
        try:
            t_mix = chains._level_search(P, chains.MIXING_EPS, chains.MIXING_TIME_CAP, pi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        k = (t_mix - 1).bit_length() - 1
        assert t_mix == a.mixing_time and k == 7
        assert peak <= (k + 3) * 8 * P.n ** 2 + (64 << 10)


def _parent_class_period(succ: list[list[int]], members: list[int], class_of: list[int]) -> int:
    """gcd of cycle lengths through the class, via BFS level differences (0 with no cycle)."""
    cid = class_of[members[0]]
    level = {members[0]: 0}
    frontier = [members[0]]
    while frontier:
        nxt: list[int] = []
        for u in frontier:
            for v in succ[u]:
                if class_of[v] == cid and v not in level:
                    level[v] = level[u] + 1
                    nxt.append(v)
        frontier = nxt
    g = 0
    for u in members:
        for v in succ[u]:
            if class_of[v] == cid:
                g = math.gcd(g, level[u] + 1 - level[v])
    return g


def _bfs_structure(P: StochasticMatrix, classes):
    """Closure and periods of ``classes`` by a per-class BFS and a loop over every edge."""
    succ = [np.flatnonzero(row > 0).tolist() for row in P.entries]
    class_of = [0] * P.n
    for cid, members in enumerate(classes):
        for u in members:
            class_of[u] = cid
    closed = tuple(all(class_of[v] == cid for u in members for v in succ[u])
                   for cid, members in enumerate(classes))
    periods = tuple(_parent_class_period(succ, list(members), class_of) for members in classes)
    return closed, periods


@st.composite
def _digraph_chains(draw, max_n: int = 13) -> StochasticMatrix:
    """Uniform walks on digraphs: disjoint directed cycles (self-loops among them),
    random extra edges, and one drawn edge for each state left without any.
    """
    n = draw(st.integers(1, max_n))
    order = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=5))) if n > 1 else []
    edges = set()
    for a, b in zip([0, *cuts], [*cuts, n]):
        if draw(st.booleans()):
            block = order[a:b]
            edges.update(zip(block, block[1:] + block[:1]))
    edges.update(draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                               max_size=n)))
    for u in range(n):
        if not any(a == u for a, _ in edges):
            edges.add((u, draw(st.integers(0, n - 1))))
    A = np.zeros((n, n))
    A[tuple(np.array(sorted(edges)).T)] = 1.0
    return StochasticMatrix(A / A.sum(axis=1, keepdims=True))


class TestClassStructureFromTarjan:
    """Closure and periods from Tarjan's DFS depths equal the per-class BFS they replace."""

    @given(_digraph_chains())
    @settings(max_examples=300)
    def test_matches_bfs_periods_and_closure_loop(self, P):
        a = analyze(P)
        assert (a.classes, a.closed, a.periods) == _reference_structure(P)
        assert (a.closed, a.periods) == _bfs_structure(P, a.classes)

    @given(_digraph_chains(max_n=9))
    @settings(max_examples=100)
    def test_mixing_time_fallback_uses_the_same_period(self, P):
        # most drawn digraphs are reducible: filtering them out failed hypothesis' health check
        P = _largest_closed_class(P)
        assert analyze(P).mixing_time == mixing_time(P)

    def test_depths_off_the_bfs_levels(self):
        # DFS from 0 reaches 2 by 0 -> 1 -> 2 (depth 2) although 0 -> 2 is an edge:
        # the cycle lengths 3 and 2 still give period 1, and 3 -> 4 <-> 5 a closed pair
        P = _sm([[0, 0.5, 0.5, 0, 0, 0], [0, 0, 1, 0, 0, 0], [0.5, 0, 0, 0.5, 0, 0],
                 [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 1, 0]])
        a = analyze(P)
        assert a.classes == ((0, 1, 2), (3,), (4, 5))
        assert a.closed == (False, False, True) and a.periods == (1, 0, 2)


class TestSamplePath:
    def test_deterministic_cycle(self):
        P = _sm([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        path = sample_path(P, 0, 6, seed=1)
        assert path.tolist() == [0, 1, 2, 0, 1, 2, 0]

    def test_seed_reproducibility(self):
        a = sample_path(K3, 0, 50, seed=123)
        b = sample_path(K3, 0, 50, seed=123)
        c = sample_path(K3, 0, 50, seed=124)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_length_and_start(self):
        path = sample_path(K3, 2, 10, seed=0)
        assert path.shape == (11,)
        assert path[0] == 2

    @given(stochastic_matrices(max_n=5), st.integers(0, 2**16))
    @settings(max_examples=40)
    def test_only_positive_transitions_used(self, P, seed):
        path = sample_path(P, 0, 30, seed=seed)
        for a, b in zip(path[:-1], path[1:]):
            assert P.entries[a, b] > 0

    def test_draws_blocks_hold_no_python_object_per_step(self):
        # the draws and the path held as Python lists peaked at 2.8 MiB here
        P = random_walk_matrix(grid_graph(28, 28))
        tracemalloc.start()
        try:
            path = sample_path(P, 0, 50_000, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.dtype == np.int64
        assert peak < 4 * path.nbytes

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            sample_path(K3, 5, 3, seed=0)
        with pytest.raises(ValueError):
            sample_path(K3, 0, -1, seed=0)

    @pytest.mark.parametrize("bad", [0.5, 1.0, True, np.True_, np.float64(2.0), "1", None])
    def test_start_and_step_count_must_be_integers(self, bad):
        with pytest.raises(ValueError) as caught:
            sample_path(K3, bad, 2, seed=1)
        assert str(caught.value) == f"start state must be an integer, got {bad!r}"
        with pytest.raises(ValueError) as caught:
            sample_path(K3, 0, bad, seed=1)
        assert str(caught.value) == f"n_steps must be an integer, got {bad!r}"

    def test_numpy_integers_give_the_same_path(self):
        want = sample_path(K3, 2, 40, seed=5).tolist()
        assert sample_path(K3, np.int64(2), np.int32(40), seed=5).tolist() == want

    @pytest.mark.parametrize("bad", [1.5, -1, np.int64(-1), True, np.True_, np.float64(2.0), "1",
                                     None])
    def test_seed_must_be_a_non_negative_integer(self, bad):
        with pytest.raises(ValueError) as caught:
            sample_path(K3, 0, 2, bad)
        assert str(caught.value) == f"seed must be an integer >= 0, got {bad!r}"

    def test_numpy_integer_seeds_give_the_same_path(self):
        want = sample_path(K3, 0, 40, seed=5).tolist()
        for seed in (np.int64(5), np.uint8(5), np.int32(5)):
            assert sample_path(K3, 0, 40, seed).tolist() == want


class TestCsv:
    @given(stochastic_matrices())
    def test_matrix_roundtrip_is_bit_exact(self, P):
        assert np.array_equal(array_from_csv(matrix_to_csv(P)), P.entries)

    def test_array_roundtrip_preserves_tiny_values(self):
        arr = np.array([[1e-17, 1.0 - 1e-16], [0.3333333333333333, 2.0 / 3.0]])
        assert np.array_equal(array_from_csv(array_to_csv(arr)), arr)

    def test_blank_lines_ignored(self):
        arr = array_from_csv("1.0,0.0\n\n0.5,0.5\n")
        assert arr.shape == (2, 2)


def _per_entry_array_to_csv(arr) -> str:
    """The writer the zero-run writer replaced: one repr per entry."""
    arr = np.atleast_2d(np.asarray(arr, dtype=float))
    lines = [",".join(repr(float(x)) for x in row) for row in arr]
    return "\n".join(lines) + "\n"


# zeros of both signs dominate, so whole rows and long runs of zeros come up
_CSV_ENTRIES = st.one_of(
    st.sampled_from([0.0, 0.0, 0.0, -0.0]),
    st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, math.inf, -math.inf,
                     math.nan, 1.0, 0.1, 1e16, 2.0 / 3.0]),
    st.floats(allow_nan=True, allow_infinity=True),
)


class TestArrayCsvReference:
    @given(arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 12)),
                  elements=_CSV_ENTRIES),
           st.sampled_from([1, 2, 3, 5, 7, 16, chains._CSV_BLOCK]))
    @settings(max_examples=300)
    def test_matches_per_entry_repr(self, arr, block):
        # small blocks put block boundaries inside runs of zeros and between rows
        saved = chains._CSV_BLOCK
        chains._CSV_BLOCK = block
        try:
            assert array_to_csv(arr) == _per_entry_array_to_csv(arr)
        finally:
            chains._CSV_BLOCK = saved

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (4, 4), (0, 3), (3, 0)])
    @pytest.mark.parametrize("fill", [0.0, -0.0, 5e-324, math.inf, -math.inf, math.nan, 0.25])
    def test_constant_arrays(self, shape, fill):
        arr = np.full(shape, fill)
        assert array_to_csv(arr) == _per_entry_array_to_csv(arr)

    def test_vectors_and_scalars_are_one_row(self):
        for arr in (np.array([0.0, -0.0, 1.5, 0.0]), np.float64(-0.0), [[0, 2], [3, 0]]):
            assert array_to_csv(arr) == _per_entry_array_to_csv(arr)

    def test_held_walk_matrix(self):
        P = hold_on_obstacle(random_walk_matrix(grid_graph(12, 13)), [0, 7, 100, 155])
        assert matrix_to_csv(P) == _per_entry_array_to_csv(P.entries)

    def test_no_python_object_per_entry(self):
        # the writer holds the text, its blocks and one block's pieces; an
        # n x n list of Python floats alone would take 32 n^2 bytes, 8 times
        # the text of a sparse matrix (the per-row writer peaked at 3 times
        # the text on both arrays)
        P = hold_on_obstacle(random_walk_matrix(grid_graph(30, 30)), [3, 50, 400]).entries
        dense = np.random.default_rng(3).random((300, 300))
        for arr in (P, dense):
            tracemalloc.start()
            try:
                text = array_to_csv(arr)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2.25 * len(text)
        assert text == _per_entry_array_to_csv(dense)


@st.composite
def _reversible_chains_above_the_size_rule(draw) -> StochasticMatrix:
    """Walks with symmetric weights on connected graphs of SPECTRAL_MIN_N to SPECTRAL_MIN_N + 60
    states: random sparse graphs, or a bipartite cycle or grid closed by one odd cycle (so that
    the smallest eigenvalue is near -1); self-loops now and then, and a hold up to 0.99."""
    n = draw(st.integers(chains.SPECTRAL_MIN_N, chains.SPECTRAL_MIN_N + 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["sparse", "odd_cycle", "odd_grid"]))
    W = np.zeros((n, n))
    if kind == "sparse":  # a path as backbone and up to 3n random edges, self-loops among them
        W[np.arange(n - 1), np.arange(1, n)] = rng.uniform(0.1, 1.0, n - 1)
        m = draw(st.integers(0, 3 * n))
        np.add.at(W, (rng.integers(0, n, m), rng.integers(0, n, m)), rng.uniform(0.0, 5.0, m))
    elif kind == "odd_cycle":  # an even cycle and one chord that closes a triangle
        n -= n % 2
        W = np.zeros((n, n))
        W[np.arange(n), (np.arange(n) + 1) % n] = rng.uniform(0.5, 1.5, n)
        W[0, 2] = 1.0
    else:  # a grid of 12 rows and one diagonal
        cols = n // 12
        n = 12 * cols
        W = np.zeros((n, n))
        right = np.flatnonzero(np.arange(n) % cols < cols - 1)
        W[right, right + 1] = rng.uniform(0.5, 1.5, right.size)
        W[np.arange(n - cols), np.arange(cols, n)] = rng.uniform(0.5, 1.5, n - cols)
        W[0, cols + 1] = 1.0
    W = W + W.T
    if draw(st.booleans()):
        W[np.diag_indices(n)] += rng.uniform(0.0, draw(st.sampled_from([0.1, 1.0, 5.0])), n)
    P = StochasticMatrix(W / W.sum(axis=1, keepdims=True))
    hold = draw(st.sampled_from([0.0, 0.3, 0.9, 0.99]))
    return _lazy(P, hold) if hold else P


def _drifting_cycle(n: int) -> StochasticMatrix:
    """Lazy walk one or two steps round a cycle, never back: irreducible, aperiodic, not reversible."""
    P = np.diag(np.full(n, 0.5))
    P[np.arange(n), (np.arange(n) + 1) % n] = 0.3
    P[np.arange(n), (np.arange(n) + 2) % n] = 0.2
    return StochasticMatrix(P)


def _without_spectrum(monkeypatch, *solvers):
    for solver in solvers:
        monkeypatch.delattr(np.linalg, solver)


class TestSpectralMixing:
    """The spectral search of a reversible chain against the search over powers of P."""

    @given(P=_reversible_chains_above_the_size_rule(), eps=st.floats(0.01, 0.6))
    @settings(max_examples=80)
    def test_matches_the_parent_search(self, P, eps):
        classes, _, periods = chains._class_structure(P)
        assert len(classes) == 1
        known = {"stationary": stationary_distribution(P), "period": periods[0]}
        assert chains._spectrum(P) is not None  # the spectral route
        t_mix = _parent_mixing_time(P, eps, 10_000, **known)
        caps = {1, 2, 10_000} | ({t_mix - 1, t_mix, t_mix + 1} - {0} if t_mix else set())
        for cap in sorted(caps):
            assert mixing_time(P, eps, cap) == _parent_mixing_time(P, eps, cap, **known)

    def test_one_eigh_per_analyze_and_no_product_of_powers(self, monkeypatch):
        want = _parent_mixing_time(_triangulated_grid(18, 18))
        P = _triangulated_grid(18, 18)  # fresh: the reference's analyze keeps a spectrum
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kw: calls.append(a.shape)
                            or eigh(a, *args, **kw))
        _without_spectrum(monkeypatch, "eigvalsh", "eigvals")
        products = _count_products(monkeypatch)
        a = analyze(P)
        assert calls == [(P.n, P.n)] and products == []
        assert a.mixing_time == want == 193

    def test_one_bisection_and_one_full_check_per_round(self, monkeypatch):
        P = _triangulated_grid(18, 18)
        calls = []
        row_distances = chains._row_distances
        monkeypatch.setattr(chains, "_row_distances", lambda sp, rows, t: calls.append(
            (len(rows) == P.n, t)) or row_distances(sp, rows, t))
        cap = chains.MIXING_TIME_CAP
        assert mixing_time(P, 0.25, cap) == 193
        full = [i for i, (is_full, _) in enumerate(calls) if is_full]
        assert full and full[-1] == len(calls) - 1 and calls[-1] == (True, 193)
        rounds = np.diff([-1] + full) - 1  # candidate-row calls before each full check
        assert rounds.max() <= math.ceil(math.log2(cap + 1))

    def test_rate_is_the_same_from_analyze_and_mixing_rate(self):
        P = _triangulated_grid(18, 18)
        a = analyze(P)
        assert a.mixing_rate == mixing_rate(P)
        root = np.sqrt(a.stationary.probs)
        S = P.entries * root[:, None] / root
        assert abs(a.mixing_rate - np.sort(np.abs(np.linalg.eigvalsh(S)))[-2]) <= 1e-14

    def test_bipartite_grid_computes_no_spectrum(self, monkeypatch):
        P = random_walk_matrix(grid_graph(20, 20))
        _without_spectrum(monkeypatch, "eigh", "eigvalsh", "eigvals")
        a = analyze(P)
        assert P.n >= chains.SPECTRAL_MIN_N and a.periods == (2,)
        assert a.mixing_rate == 1.0 and a.mixing_time is None

    def test_a_decision_within_the_band_runs_the_parent_search(self, monkeypatch):
        P = _triangulated_grid(12, 12)
        a = analyze(P)
        monkeypatch.setattr(chains, "_guard_band", lambda sp, t: 1.0)
        products = _count_products(monkeypatch)
        t_mix = mixing_time(P)
        k = (t_mix - 1).bit_length() - 1
        assert t_mix == a.mixing_time and len(products) == _level_bound(k)
        assert products == [((P.n, P.n), (P.n, P.n))] * len(products)

    def test_eps_within_rounding_of_d_gives_the_parent_answer(self):
        # eps a few ulps from the spectral d(t): the two searches round d(t) differently,
        # so only the guard band (which sends these to the parent search) keeps them equal
        P = _triangulated_grid(12, 12)
        a = analyze(P)
        known = {"stationary": a.stationary, "period": 1}
        sp = chains._spectrum(P)
        for t in (20, 40, 60, 80, 81, 82, 120):
            d = float(chains._row_distances(sp, np.arange(P.n), t).max())
            for eps in (math.nextafter(d, 0), d, math.nextafter(d, 1), d - 1e-15, d + 1e-15):
                assert mixing_time(P, eps) == _parent_mixing_time(P, eps, **known)

    def test_caps_and_eps_of_other_types_give_the_parent_answer(self):
        P = _triangulated_grid(12, 12)
        a = analyze(P)
        known = {"stationary": a.stationary, "period": 1}
        for eps, cap in ((0.25, np.int64(60)), (0.25, np.int64(500)), (np.float64(0.25), 500)):
            assert mixing_time(P, eps, cap) == _parent_mixing_time(P, eps, cap, **known)

    def test_a_failed_full_check_adds_the_worst_row_and_resumes(self, monkeypatch):
        # seeded with the centre alone, whose row mixes first, the candidates reach eps
        # before d does; the full check then finds a corner and the search goes on
        P = _triangulated_grid(13, 13)
        a = analyze(P)
        full = []
        row_distances = chains._row_distances

        def spy(sp, rows, t):
            out = row_distances(sp, rows, t)
            if len(rows) == P.n:
                full.append((t, float(out.max())))
            return out

        monkeypatch.setattr(chains, "_seed_rows", lambda sp: [6 * 13 + 6])
        monkeypatch.setattr(chains, "_row_distances", spy)
        for eps in (0.05, 0.25, 0.4):
            del full[:]
            t_mix = mixing_time(P, eps)
            assert t_mix == _parent_mixing_time(P, eps, stationary=a.stationary, period=1)
            assert len(full) >= 2 and full[0][1] > eps >= full[-1][1] and full[-1][0] == t_mix

    def test_non_reversible_chain_keeps_the_parent_search(self, monkeypatch):
        P = _drifting_cycle(chains.SPECTRAL_MIN_N + 10)
        assert chains._spectrum(P) is None
        _without_spectrum(monkeypatch, "eigh", "eigvalsh")
        products = _count_products(monkeypatch)
        t_mix = mixing_time(P, 0.25)
        k = (t_mix - 1).bit_length() - 1
        assert len(products) == _level_bound(k)


def _parent_hitting_times(P: StochasticMatrix, pi: Distribution) -> np.ndarray:
    """``hitting_times`` as it stood when the caller passed the stationary law, as a reference."""
    p = pi.probs
    Z = np.linalg.inv(np.eye(P.n) - P.entries + p[None, :])
    H = (np.diag(Z)[None, :] - Z) / p[None, :]
    np.fill_diagonal(H, 0.0)
    return H


def _campus_walk() -> StochasticMatrix:
    text = (Path(__file__).resolve().parents[1] / "data" / "campus_map.json").read_text()
    return random_walk_matrix(load_map(text))


class TestTheChainIsTheOnlyInput:
    """mixing_time, mixing_rate and hitting_times work out pi and the period themselves."""

    def test_signatures(self):
        assert list(inspect.signature(mixing_time).parameters) == ["P", "eps", "cap"]
        assert list(inspect.signature(mixing_rate).parameters) == ["P"]
        assert list(inspect.signature(hitting_times).parameters) == ["P"]

    def test_lazy_three_state_path(self):
        # d(t) = 0.5 * 2**-t: 1/4 at t = 1, and first at most 0.01 at t = 6
        P = _sm([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]])
        assert mixing_time(P, 0.25) == 1 == _reference_mixing_time(P, 0.25, cap=50)[0]
        assert mixing_time(P, 0.01) == 6 == _reference_mixing_time(P, 0.01, cap=50)[0]

    def test_mixing_rate_is_the_rate_analyze_reports(self):
        P = _triangulated_grid(6, 6)  # reversible: the rate comes from the symmetric spectrum
        assert mixing_rate(P) == analyze(P).mixing_rate
        assert abs(mixing_rate(P) - np.sort(np.abs(np.linalg.eigvals(P.entries)))[-2]) <= 1e-12

    @pytest.mark.parametrize("P", [
        _campus_walk(), random_walk_matrix(grid_graph(1, 2)), random_walk_matrix(grid_graph(4, 5)),
        random_walk_matrix(grid_graph(7, 7)), _triangulated_grid(3, 4), _triangulated_grid(7, 7),
    ], ids=["campus", "grid1x2", "grid4x5", "grid7x7", "tri3x4", "tri7x7"])
    def test_hitting_times_match_the_parent_on_maps(self, P):
        want = _parent_hitting_times(P, analyze(P).stationary)
        assert hitting_times(P).tobytes() == want.tobytes()

    @given(connected_graphs(max_n=12), st.sampled_from([0.0, 0.3]))
    @settings(max_examples=100)
    def test_hitting_times_match_the_parent_on_walk_graphs(self, g, hold):
        P = random_walk_matrix(g)
        P = _lazy(P, hold) if hold else P
        want = _parent_hitting_times(P, analyze(P).stationary)
        assert hitting_times(P).tobytes() == want.tobytes()

    @pytest.mark.parametrize("P", [
        REDUCIBLE, hold_on_obstacle(random_walk_matrix(grid_graph(3, 3)), [4]),
    ], ids=["reducible", "held_grid"])
    def test_reducible_chain_raises(self, P):
        for fn in (hitting_times, mixing_time):
            with pytest.raises(ValueError, match=r"^chain is reducible \(\d+ communicating classes\)"):
                fn(P)


class TestOneSpectrumPerChain:
    """``analyze`` reports ``mixing_rate(P)`` and ``mixing_time(P)``, from one kept spectrum."""

    @pytest.mark.parametrize("make, solver", [
        (_campus_walk, "eigvalsh"), (lambda: random_walk_matrix(grid_graph(4, 5)), None),
        (lambda: _triangulated_grid(6, 6), "eigvalsh"), (lambda: _triangulated_grid(18, 18), "eigh"),
        (lambda: _drifting_cycle(chains.SPECTRAL_MIN_N + 10), "eigvals"),
    ], ids=["campus", "grid4x5", "tri6x6", "tri18x18", "drifting130"])
    def test_analyze_reports_the_public_rate_and_time(self, make, solver, monkeypatch):
        P = make()
        solvers = ("eigh", "eigvalsh", "eigvals")
        calls = []
        for name in solvers:
            monkeypatch.setattr(np.linalg, name, lambda *args, _name=name, _f=getattr(np.linalg, name),
                                **kw: calls.append(_name) or _f(*args, **kw))
        a = analyze(P)
        assert calls == ([solver] if solver else [])  # at most one eigen-solver per chain
        if solver != "eigvals":  # a chain without a kept spectrum calls eigvals again
            _without_spectrum(monkeypatch, *solvers)
        rate, t_mix = mixing_rate(P), mixing_time(P)
        assert type(rate) is float and rate.hex() == a.mixing_rate.hex()
        assert t_mix == a.mixing_time

    def test_a_reducible_chain_keeps_the_general_spectrum(self):
        P = _sm(REDUCIBLE.entries)
        assert chains._spectrum(P) is None
        assert mixing_rate(P) == float(np.sort(np.abs(np.linalg.eigvals(P.entries)))[-2]) == 1.0
