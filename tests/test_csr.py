"""The CSR transition form: construction, the lazy dense view, and the sparse consumers.

The dense implementations that the CSR consumers replaced are kept here as
references (the sampler's full-row cumulative sums, the trellis over a
predecessor table scanned from the dense P and an m x n emission table, the
dense row-mask hold, the whole-array zero-run writer and the whole-string
trace writer); each must agree with its replacement bit for bit.
"""

from __future__ import annotations

import io
import json
import pickle
import tracemalloc
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkchain import (
    NORMAL,
    NO_TRUTH,
    PathGraph,
    StochasticMatrix,
    Trace,
    TrellisError,
    add_noise,
    array_to_csv,
    grid_graph,
    hold_on_obstacle,
    matrix_to_csv,
    random_walk_matrix,
    sample_path,
    simulate_walk,
    smooth,
    snap,
    trace_to_csv,
)
from walkchain import pipeline
from walkchain.cli import main
from conftest import connected_graphs, sequence_log_score

# ---------------------------------------------------------------------------
# dense references


def _dense_sample_path(P, start, n_steps, seed):
    u = np.random.default_rng(seed).random(n_steps).tolist()
    rows, cols = np.nonzero(P.entries)
    sums = np.cumsum(P.entries, axis=1)[rows, cols].tolist()
    cols = cols.tolist()
    ends = np.cumsum(np.bincount(rows, minlength=P.n)).tolist()
    bounds, targets = [], []
    for a, b in zip([0] + ends[:-1], ends):
        bounds.append(sums[a:b])
        targets.append(cols[a:b] + [P.n - 1])
    path = [start]
    for x in u:
        path.append(targets[path[-1]][bisect_right(bounds[path[-1]], x)])
    return np.array(path, dtype=int)


def _dense_log_emissions(tr, g, sigma):
    obs, pos = tr.positions(), g.positions()
    with np.errstate(over="ignore"):
        d2 = np.subtract.outer(obs[:, 0], pos[:, 0])
        d2 *= d2
        dy = np.subtract.outer(obs[:, 1], pos[:, 1])
        dy *= dy
        d2 += dy
        d2 /= -(2.0 * sigma * sigma)
    return d2


def _dense_smooth(tr, g, P, sigma):
    m, n = len(tr), g.n
    log_em = _dense_log_emissions(tr, g, sigma)
    dst, src = np.nonzero(P.entries.T)
    indeg = np.bincount(dst, minlength=n)
    slot = np.arange(dst.size) - np.repeat(np.cumsum(indeg) - indeg, indeg)
    pred = np.full((n, int(indeg.max())), n)
    pred[dst, slot] = src
    log_w = np.full(pred.shape, -np.inf)
    log_w[dst, slot] = np.log(P.entries[src, dst])
    rows = np.arange(n)
    delta = np.full(n + 1, -np.inf)
    delta[:n] = log_em[0]
    back = np.zeros((m, n), dtype=int)
    if np.max(delta) == -np.inf:
        raise TrellisError("fix 0")
    for k in range(1, m):
        cand = delta[pred] + log_w
        j = np.argmax(cand, axis=1)
        back[k] = pred[rows, j]
        delta[:n] = cand[rows, j] + log_em[k]
        if np.max(delta) == -np.inf:
            raise TrellisError(f"fix {k}")
    seq = [int(np.argmax(delta))]
    for k in range(m - 1, 0, -1):
        seq.append(int(back[k][seq[-1]]))
    seq.reverse()
    return seq


def _dense_log_score(seq, tr, g, P, sigma):
    log_em = _dense_log_emissions(tr, g, sigma)
    states = np.asarray(seq, dtype=int)
    with np.errstate(divide="ignore"):
        log_steps = np.log(P.entries[states[:-1], states[1:]])
    score = float(log_em[0, seq[0]])
    for k in range(1, len(seq)):
        score += float(log_steps[k - 1]) + float(log_em[k, seq[k]])
    return score


def _dense_hold(P, blocked):
    rows = np.array(sorted(set(blocked)), dtype=int)
    M = np.array(P.entries)
    M[rows] = rows[:, None] == np.arange(P.n)
    return StochasticMatrix(M, row_sum_tol=P.row_sum_tol)


def _dense_array_to_csv(arr, block_weight=1 << 14):
    arr = np.atleast_2d(np.asarray(arr, dtype=float))
    m, n = arr.shape
    if arr.size == 0:
        return "\n" * max(m, 1)
    group = np.cumsum(n + 16 * np.count_nonzero(arr, axis=1)) // block_weight
    edges = [0, *(np.flatnonzero(np.diff(group)) + 1).tolist(), m]
    zeros = ("0.0," * (n - 1) + "0.0\n") * min(block_weight // n + 1, m)
    blocks = []
    for lo, hi in zip(edges, edges[1:]):
        block = arr[lo:hi].ravel()
        kept = np.flatnonzero((block != 0) | np.signbit(block))
        cut = 4 * kept
        pieces = [""] * (2 * kept.size + 1)
        pieces[::2] = [zeros[a:b] for a, b in zip([0] + (cut + 3).tolist(),
                                                  cut.tolist() + [4 * block.size])]
        pieces[1::2] = map(repr, block[kept].tolist())
        blocks.append("".join(pieces))
    return "".join(blocks)


def _whole_trace_to_csv(tr):
    t, x, y = tr.t.tolist(), tr.xy[:, 0].tolist(), tr.xy[:, 1].tolist()
    missing = tr.truth == NO_TRUTH
    if missing.all():
        return "t_s,x_m,y_m\n" + "".join([f"{a!r},{b!r},{c!r}\n" for a, b, c in zip(t, x, y)])
    truth = tr.truth.tolist()
    for k in np.flatnonzero(missing).tolist():
        truth[k] = ""
    return "t_s,x_m,y_m,truth_vertex\n" + "".join(
        [f"{a!r},{b!r},{c!r},{v}\n" for a, b, c, v in zip(t, x, y, truth)])


# ---------------------------------------------------------------------------
# chains: walk graphs, held walks, dense chains with zero columns, and
# chains that store -0.0 where a zero sits


def _points_graph(n: int) -> PathGraph:
    return PathGraph([(float(k % 5), float(k // 5)) for k in range(n)], ())


@st.composite
def _dense_chains(draw, max_n: int = 7, negative_zeros: bool = False) -> StochasticMatrix:
    """Dense random chain; some states have no predecessor, some zeros are -0.0."""
    n = draw(st.integers(2, max_n))
    live = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    rows = []
    for _ in range(n):
        w = np.zeros(n)
        w[live] = draw(st.lists(st.integers(0, 10), min_size=len(live), max_size=len(live))
                       .filter(lambda ws: sum(ws) > 0))
        rows.append(w / w.sum())
    M = np.vstack(rows)
    if negative_zeros:
        signs = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n)))
        M[(M == 0) & signs.reshape(n, n)] = -0.0
    return StochasticMatrix(M)


@st.composite
def _held_walks(draw) -> tuple[PathGraph, StochasticMatrix]:
    g = draw(connected_graphs(max_n=9))
    blocked = draw(st.sets(st.integers(0, g.n - 1)))
    return g, hold_on_obstacle(random_walk_matrix(g), blocked)


@st.composite
def _graphs_and_chains(draw) -> tuple[PathGraph, StochasticMatrix]:
    kind = draw(st.sampled_from(["walk", "held", "dense", "negzero"]))
    if kind == "walk":
        g = draw(connected_graphs(max_n=9))
        return g, random_walk_matrix(g)
    if kind == "held":
        return draw(_held_walks())
    P = draw(_dense_chains(negative_zeros=kind == "negzero"))
    return _points_graph(P.n), P


@st.composite
def _traces_near(draw, g: PathGraph, max_m: int = 8) -> Trace:
    m = draw(st.integers(1, max_m))
    pos = g.positions()
    lo, hi = pos.min(axis=0) - 1.0, pos.max(axis=0) + 1.0
    xy = []
    for _ in range(m):
        if draw(st.booleans()):
            xy.append(pos[draw(st.integers(0, g.n - 1))])
        else:
            xy.append([draw(st.floats(lo[0], hi[0])), draw(st.floats(lo[1], hi[1]))])
    return Trace(t=np.arange(m, dtype=float), xy=xy)


_SIGMAS = st.sampled_from([0.3, 1.0, 2.5])


class TestStochasticMatrix:
    @given(_dense_chains(negative_zeros=True))
    def test_dense_view_gives_back_the_input_bits(self, P):
        M = np.array(P.entries)
        again = StochasticMatrix(M)
        assert again.entries.tobytes() == M.tobytes()
        assert again.indices.flags.c_contiguous  # not a view into nonzero's shared buffer
        fresh = StochasticMatrix.from_csr(P.indptr, P.indices, P.data)
        assert not fresh._memo
        assert fresh.entries.tobytes() == M.tobytes()
        assert np.array_equal(fresh.indices, np.flatnonzero((M != 0) | np.signbit(M)) % P.n)

    def test_entries_built_once_and_read_only(self):
        P = random_walk_matrix(grid_graph(3, 3))
        assert not P._memo
        E = P.entries
        assert P.entries is E
        for arr in (E, P.indptr, P.indices, P.data):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1
        with pytest.raises(AttributeError):
            P.data = np.ones(3)

    def test_from_csr_keeps_the_dense_messages(self):
        with pytest.raises(ValueError, match=r"negative transition probability at \(1, 0\)"):
            StochasticMatrix.from_csr([0, 1, 3], [0, 0, 1], [1.0, -0.5, 1.5])
        with pytest.raises(ValueError, match="row 1 sums to"):
            StochasticMatrix.from_csr([0, 1, 2], [0, 1], [1.0, 0.5])
        with pytest.raises(ValueError, match="finite"):
            StochasticMatrix.from_csr([0, 1, 2], [0, 1], [1.0, np.nan])
        with pytest.raises(ValueError, match="at least one state"):
            StochasticMatrix.from_csr([0], [], [])

    def test_from_csr_rejects_malformed_arrays(self):
        for indptr, indices, data in (([0, 2, 1], [0, 1], [1.0, 1.0]),
                                      ([0, 1, 2], [0, 1, 1], [1.0, 1.0, 0.0]),
                                      ([1, 1, 2], [0, 1], [1.0, 1.0])):
            with pytest.raises(ValueError, match="malformed"):
                StochasticMatrix.from_csr(indptr, indices, data)
        with pytest.raises(ValueError, match="outside 0..1"):
            StochasticMatrix.from_csr([0, 1, 2], [0, 2], [1.0, 1.0])
        with pytest.raises(ValueError, match="ascend"):
            StochasticMatrix.from_csr([0, 2, 3], [1, 0, 1], [0.5, 0.5, 1.0])

    def test_from_csr_drops_stored_positive_zeros(self):
        P = StochasticMatrix.from_csr([0, 3, 5, 6], [0, 1, 2, 0, 1, 2],
                                      [1.0, 0.0, -0.0, 0.0, 1.0, 1.0])
        assert P.indptr.tolist() == [0, 2, 3, 4]
        assert P.indices.tolist() == [0, 2, 1, 2]
        assert np.signbit(P.data[1])

    @given(_graphs_and_chains())
    def test_pickle_round_trip(self, gP):
        _, P = gP
        back = pickle.loads(pickle.dumps(P))
        assert back.row_sum_tol == P.row_sum_tol
        assert back.entries.tobytes() == P.entries.tobytes()

    @given(connected_graphs(max_n=9))
    def test_walk_rows_are_the_sorted_neighbour_lists(self, g):
        P = random_walk_matrix(g)
        indptr, indices = g.adjacency()
        assert P.indptr.tolist() == indptr.tolist() and P.indices.tolist() == indices.tolist()
        for i in range(g.n):
            assert P.indices[P.indptr[i]:P.indptr[i + 1]].tolist() == list(g.neighbors(i))
        assert not P._memo


class TestDenseReferences:
    @given(_graphs_and_chains(), st.data(), st.integers(0, 2**32 - 1))
    @settings(max_examples=150)
    def test_sample_path(self, gP, data, seed):
        _, P = gP
        start = data.draw(st.integers(0, P.n - 1))
        got = sample_path(P, start, 60, seed)
        assert got.dtype == np.dtype(int)
        assert np.array_equal(got, _dense_sample_path(P, start, 60, seed))

    @pytest.mark.parametrize("n_steps", [0, 1, 4095, 4096, 4097, 8193, 50_000])
    def test_sample_path_across_draw_blocks(self, n_steps):
        # draws come a block at a time; the path must be that of one stream
        P = random_walk_matrix(grid_graph(6, 7))
        for seed in range(20):
            got = sample_path(P, seed % P.n, n_steps, seed)
            assert np.array_equal(got, _dense_sample_path(P, seed % P.n, n_steps, seed))

    @given(_graphs_and_chains(), st.data(), _SIGMAS)
    @settings(max_examples=150)
    def test_smooth_and_score(self, gP, data, sigma):
        g, P = gP
        tr = data.draw(_traces_near(g))
        try:
            want = _dense_smooth(tr, g, P, sigma)
        except TrellisError as exc:
            with pytest.raises(TrellisError, match=str(exc)):
                smooth(tr, g, P, sigma)
            return
        assert smooth(tr, g, P, sigma) == want
        other = data.draw(st.lists(st.integers(0, g.n - 1), min_size=len(tr), max_size=len(tr)))
        for seq in (want, other):
            assert (np.float64(sequence_log_score(seq, tr, g, P, sigma)).tobytes()
                    == np.float64(_dense_log_score(seq, tr, g, P, sigma)).tobytes())

    @given(_graphs_and_chains(), st.data())
    @settings(max_examples=100)
    def test_hold_on_obstacle(self, gP, data):
        _, P = gP
        blocked = data.draw(st.lists(st.integers(0, P.n - 1)))
        held = hold_on_obstacle(P, blocked)
        assert not held._memo
        assert held.entries.tobytes() == _dense_hold(P, blocked).entries.tobytes()
        assert held.row_sum_tol == P.row_sum_tol

    @given(_graphs_and_chains(), st.data())
    @settings(max_examples=150)
    def test_matrix_to_csv(self, gP, data):
        _, P = gP
        P = hold_on_obstacle(P, data.draw(st.lists(st.integers(0, P.n - 1), max_size=3)))
        want = _dense_array_to_csv(P.entries)
        assert matrix_to_csv(P) == want
        assert array_to_csv(P) == want
        assert array_to_csv(P.entries) == want

    @given(connected_graphs(max_n=9), st.data(), st.integers(0, 2**32 - 1))
    @settings(max_examples=100)
    def test_trace_to_csv(self, g, data, seed):
        P = random_walk_matrix(g)
        tr = add_noise(simulate_walk(g, P, NORMAL, 0, data.draw(st.integers(0, 40)), seed),
                       data.draw(st.sampled_from([0.0, 1.5])), seed + 1)
        truth = tr.truth.copy()
        truth[data.draw(st.lists(st.integers(0, len(tr) - 1)))] = NO_TRUTH
        for t in (tr, Trace(t=tr.t, xy=tr.xy, truth=truth), Trace(t=tr.t, xy=tr.xy)):
            assert trace_to_csv(t) == _whole_trace_to_csv(t)


class TestHandleWriters:
    @pytest.mark.parametrize("block", [1, 5, 1 << 14])
    def test_array_and_matrix_writers(self, block, monkeypatch):
        from walkchain import chains
        monkeypatch.setattr(chains, "_CSV_BLOCK", block)
        held = hold_on_obstacle(random_walk_matrix(grid_graph(7, 8)), [0, 9, 55])
        dense = np.random.default_rng(1).random((9, 4))
        dense[2] = 0.0
        dense[3, 1] = -0.0
        for write, arg in ((matrix_to_csv, held), (array_to_csv, held), (array_to_csv, dense),
                           (array_to_csv, np.zeros((0, 3)))):
            fh = io.StringIO()
            assert write(arg, fh) is None
            assert fh.getvalue() == write(arg)

    @pytest.mark.parametrize("m", [1, 4095, 4096, 4097, 9000])
    def test_trace_writer(self, m):
        rng = np.random.default_rng(m)
        truth = rng.integers(0, 50, m)
        truth[rng.random(m) < 0.3] = NO_TRUTH
        for tr in (Trace(t=np.arange(m, dtype=float), xy=rng.normal(size=(m, 2)), truth=truth),
                   Trace(t=np.arange(m, dtype=float), xy=rng.normal(size=(m, 2)))):
            fh = io.StringIO()
            assert trace_to_csv(tr, fh) is None
            assert fh.getvalue() == trace_to_csv(tr) == _whole_trace_to_csv(tr)


class TestSparseMemory:
    def test_trace_pipeline_never_builds_the_dense_view(self):
        g = grid_graph(12, 12)
        P = random_walk_matrix(g)
        tr = add_noise(simulate_walk(g, P, NORMAL, 3, 50, seed=1), 1.0, seed=2)
        seq = smooth(tr, g, P, 1.0)
        sequence_log_score(seq, tr, g, P, 1.0)
        snap(tr, g)
        held = hold_on_obstacle(P, seq[:3])
        matrix_to_csv(held)
        sample_path(held, 0, 100, seed=3)
        assert not P._memo and not held._memo

    def test_dense_constructor_keeps_no_dense_copy(self):
        # the CSR of a full 300 x 300 matrix is 1.37 MiB; a kept dense copy would add 0.69
        A = np.full((300, 300), 1.0 / 300)
        tracemalloc.start()
        try:
            P = StochasticMatrix(A)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not P._memo
        assert retained <= 1.4 * 2**20 and peak <= 3.44 * 2**20
        assert P.entries.tobytes() == A.tobytes()

    def test_emission_blocks_stay_within_the_budget(self, monkeypatch):
        seen = []
        real = pipeline._log_emissions

        def spy(obs, pos, sigma):
            out = real(obs, pos, sigma)
            seen.append(out.nbytes)
            return out

        monkeypatch.setattr(pipeline, "_log_emissions", spy)
        g = grid_graph(30, 30)
        tr = Trace(t=np.arange(700, dtype=float), xy=np.full((700, 2), 3.0))
        smooth(tr, g, random_walk_matrix(g))
        assert len(seen) == -(-700 // (pipeline._EMISSION_BLOCK_BYTES // (8 * g.n)))
        assert max(seen) <= pipeline._EMISSION_BLOCK_BYTES

    def test_scores_beyond_the_budget_are_held_one_segment_at_a_time(self, monkeypatch):
        # the scores of 4000 fixes on 400 vertices take 12.8 MB; under a 1 MiB
        # budget they are decoded in 13 segments of 327 fixes, each but the
        # last replayed from the n + 1 scores that enter it. Beside those, the
        # emission block (with its two temporaries), the predecessor table
        # (about 140 bytes per transition, with its lists for tracing back)
        # and the decoded sequence are all that grow
        g = grid_graph(20, 20)
        m = 4000
        tr = Trace(t=np.arange(m, dtype=float),
                   xy=np.random.default_rng(2).uniform(0.0, 19.0, (m, 2)))
        P = random_walk_matrix(g)
        whole = smooth(tr, g, P)
        monkeypatch.setattr(pipeline, "_TRELLIS_BYTES", 1 << 20)
        row = 8 * (g.n + 1)
        segments = -(-m // (pipeline._TRELLIS_BYTES // row))
        assert m * row > pipeline._TRELLIS_BYTES and segments == 13
        tracemalloc.start()
        try:
            seq = smooth(tr, g, P)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert seq == whole
        assert peak <= (pipeline._TRELLIS_BYTES + segments * row
                        + 3 * pipeline._EMISSION_BLOCK_BYTES + 200 * P.indices.size + 64 * m)

    @pytest.fixture
    def grid60(self, tmp_path):
        g = grid_graph(60, 60)
        doc = {"vertices": [{"id": k, "x": x, "y": y}
                            for k, (x, y) in enumerate(g.positions().tolist())],
               "edges": [list(e) for e in g.edges]}
        path = tmp_path / "grid60.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        obstacles = tmp_path / "obstacles.json"  # at the start vertex: the run holds there
        obstacles.write_text(json.dumps([{"id": 1, "kind": "stationary", "x": 0.2, "y": 0.1}]),
                             encoding="utf-8")
        return g.n, str(path), str(obstacles)

    @pytest.mark.parametrize("argv", [
        ["track", "--steps", "300", "--noise-sigma", "0.5", "--emission-sigma", "0.5"],
        ["simulate", "--steps", "20000", "--noise-sigma", "0.5"],
    ])
    def test_cli_peak_stays_below_a_quarter_of_a_dense_matrix(self, grid60, argv, tmp_path,
                                                                capsys):
        n, map_path, obstacles = grid60
        out = tmp_path / "out"
        extra = ["--obstacles", obstacles] if argv[0] == "track" else []
        tracemalloc.start()
        try:
            rc = main(argv + ["--map", map_path, "--out-dir", str(out), *extra])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0, capsys.readouterr().err
        if argv[0] == "track":  # a held matrix of n^2 entries was written, 4 bytes each at least
            assert (out / "held_transition.csv").stat().st_size > 4 * n * n
        assert peak < n * n * 8 / 4
