"""Walk simulation, noisy-fix localization, obstacle alerts, delivery."""

from __future__ import annotations

import http.client
import itertools
import json
import socket
import threading
import tracemalloc
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkchain import pipeline
from walkchain import (
    BLIND,
    NORMAL,
    AlertEvent,
    FileSink,
    Fix,
    LocalPoint,
    Obstacle,
    PathGraph,
    StochasticMatrix,
    Trace,
    TrellisError,
    Vertex,
    WebhookSink,
    add_noise,
    detect,
    dispatch,
    format_alert_line,
    grid_graph,
    hold_on_obstacle,
    localization_error,
    obstacles_from_json,
    random_walk_matrix,
    sample_path,
    sequence_log_score,
    simulate_walk,
    smooth,
    snap,
    trace_from_csv,
    trace_to_csv,
)
from conftest import connected_graphs


def star4() -> PathGraph:
    vs = (
        Vertex(0, LocalPoint(0.0, 0.0)),
        Vertex(1, LocalPoint(1.0, 0.0)),
        Vertex(2, LocalPoint(0.0, 1.0)),
        Vertex(3, LocalPoint(-1.0, 0.0)),
    )
    return PathGraph(vertices=vs, edges=((0, 1), (0, 2), (0, 3)))


class TestDataTypes:
    def test_fix_time_validation(self):
        with pytest.raises(ValueError):
            Fix(t=-1.0, position=LocalPoint(0, 0))

    def test_trace_requires_strictly_increasing_times(self):
        f0 = Fix(t=0.0, position=LocalPoint(0, 0))
        f1 = Fix(t=0.0, position=LocalPoint(1, 0))
        with pytest.raises(ValueError, match="strictly increase"):
            Trace(fixes=(f0, f1))
        with pytest.raises(ValueError):
            Trace(fixes=())

    def test_trace_truth_flag(self):
        f0 = Fix(t=0.0, position=LocalPoint(0, 0), truth_state=0)
        f1 = Fix(t=1.0, position=LocalPoint(1, 0))
        assert Trace(fixes=(f0,)).has_truth()
        assert not Trace(fixes=(f0, f1)).has_truth()

    def test_stationary_obstacle_cannot_move(self):
        with pytest.raises(ValueError, match="non-zero velocity"):
            Obstacle(id=1, kind="stationary", position=LocalPoint(0, 0), velocity=(0.1, 0.0))
        with pytest.raises(ValueError, match="kind"):
            Obstacle(id=1, kind="flying", position=LocalPoint(0, 0))

    def test_moving_obstacle_position_extrapolates(self):
        o = Obstacle(id=2, kind="moving", position=LocalPoint(10.0, 0.0), velocity=(-1.0, 0.5))
        at = o.position_at(4.0)
        assert (at.x, at.y) == (6.0, 2.0)

    def test_alert_event_validation(self):
        with pytest.raises(ValueError):
            AlertEvent(t=0.0, kind="sparkle", distance=1.0, message="m")
        with pytest.raises(ValueError, match="tabs or newlines"):
            AlertEvent(t=0.0, kind="obstacle_warning", distance=1.0, message="a\tb")
        with pytest.raises(ValueError):
            AlertEvent(t=0.0, kind="obstacle_warning", distance=-1.0, message="m")


class TestSimulateWalk:
    def test_edge_moves_take_length_over_speed(self):
        # 0.58 m edges at the normal profile: exactly one second per move
        g = grid_graph(2, 2, 0.58)
        tr = simulate_walk(g, random_walk_matrix(g), NORMAL, start=0, n_steps=10, seed=4)
        assert [f.t for f in tr.fixes] == pytest.approx(list(range(11)), abs=1e-12)

    def test_blind_walker_takes_same_route_slower(self):
        g = grid_graph(3, 3, 0.58)
        P = random_walk_matrix(g)
        a = simulate_walk(g, P, NORMAL, start=4, n_steps=25, seed=9)
        b = simulate_walk(g, P, BLIND, start=4, n_steps=25, seed=9)
        assert [f.truth_state for f in a.fixes] == [f.truth_state for f in b.fixes]
        ta = np.array([f.t for f in a.fixes])
        tb = np.array([f.t for f in b.fixes])
        assert np.allclose(tb, 2.7 * ta, atol=1e-9)

    def test_truth_moves_along_edges(self):
        g = grid_graph(4, 4, 1.0)
        tr = simulate_walk(g, random_walk_matrix(g), NORMAL, start=5, n_steps=200, seed=1)
        states = [f.truth_state for f in tr.fixes]
        assert states[0] == 5
        edge_set = set(g.edges)
        for a, b in zip(states, states[1:]):
            assert (min(a, b), max(a, b)) in edge_set

    def test_matches_bare_chain_sample_with_same_seed(self):
        g = grid_graph(3, 3, 1.0)
        P = random_walk_matrix(g)
        tr = simulate_walk(g, P, NORMAL, start=0, n_steps=40, seed=77)
        path = sample_path(P, 0, 40, seed=77)
        assert [f.truth_state for f in tr.fixes] == path.tolist()

    def test_held_walker_dwells_one_step_period(self):
        g = grid_graph(2, 2, 1.0)
        P = hold_on_obstacle(random_walk_matrix(g), blocked=range(4))
        tr = simulate_walk(g, P, BLIND, start=2, n_steps=3, seed=0)
        assert [f.truth_state for f in tr.fixes] == [2, 2, 2, 2]
        assert [f.t for f in tr.fixes] == pytest.approx([0.0, 2.7, 5.4, 8.1])

    def test_argument_validation(self):
        g = grid_graph(2, 2, 1.0)
        P = random_walk_matrix(g)
        with pytest.raises(ValueError):
            simulate_walk(g, P, NORMAL, start=9, n_steps=1, seed=0)
        with pytest.raises(ValueError):
            simulate_walk(g, P, NORMAL, start=0, n_steps=-1, seed=0)
        g3 = grid_graph(3, 3, 1.0)
        with pytest.raises(ValueError, match="states"):
            simulate_walk(g3, P, NORMAL, start=0, n_steps=1, seed=0)


class TestAddNoise:
    def test_zero_sigma_is_identity(self):
        g = grid_graph(2, 2, 1.0)
        tr = simulate_walk(g, random_walk_matrix(g), NORMAL, start=0, n_steps=5, seed=2)
        noisy = add_noise(tr, sigma=0.0, seed=0)
        assert np.array_equal(noisy.positions(), tr.positions())

    def test_times_and_truth_preserved(self):
        g = grid_graph(2, 2, 1.0)
        tr = simulate_walk(g, random_walk_matrix(g), NORMAL, start=0, n_steps=5, seed=2)
        noisy = add_noise(tr, sigma=2.0, seed=3)
        assert [f.t for f in noisy.fixes] == [f.t for f in tr.fixes]
        assert [f.truth_state for f in noisy.fixes] == [f.truth_state for f in tr.fixes]
        assert not np.array_equal(noisy.positions(), tr.positions())

    def test_seed_reproducibility(self):
        g = grid_graph(2, 2, 1.0)
        tr = simulate_walk(g, random_walk_matrix(g), NORMAL, start=0, n_steps=5, seed=2)
        assert np.array_equal(add_noise(tr, 1.0, seed=5).positions(),
                              add_noise(tr, 1.0, seed=5).positions())

    def test_mean_displacement_matches_rayleigh(self):
        # isotropic 2-D Gaussian: E|noise| = sigma * sqrt(pi / 2)
        n = 20_000
        fixes = tuple(Fix(t=float(k), position=LocalPoint(0.0, 0.0)) for k in range(n))
        noisy = add_noise(Trace(fixes=fixes), sigma=1.0, seed=5)
        mean_disp = float(np.hypot(*noisy.positions().T).mean())
        assert mean_disp == pytest.approx(np.sqrt(np.pi / 2.0), abs=0.02)

    def test_negative_sigma_rejected(self):
        tr = Trace(fixes=(Fix(t=0.0, position=LocalPoint(0, 0)),))
        with pytest.raises(ValueError):
            add_noise(tr, sigma=-0.1, seed=0)


class TestSnap:
    def test_noiseless_trace_snaps_to_truth(self):
        g = grid_graph(3, 3, 1.0)
        tr = simulate_walk(g, random_walk_matrix(g), NORMAL, start=4, n_steps=30, seed=6)
        assert snap(tr, g) == [f.truth_state for f in tr.fixes]

    def test_tie_goes_to_lowest_id(self):
        vs = (Vertex(0, LocalPoint(0.0, 0.0)), Vertex(1, LocalPoint(2.0, 0.0)))
        g = PathGraph(vertices=vs, edges=((0, 1),))
        tr = Trace(fixes=(Fix(t=0.0, position=LocalPoint(1.0, 0.0)),))
        assert snap(tr, g) == [0]


class TestSmooth:
    def test_noiseless_trace_recovers_truth_on_unit_grid(self):
        # emission penalty for one wrong vertex (>= 1 m off) is 1/(2*0.25) = 2,
        # larger than any transition-probability gain (two factors of log 2)
        g = grid_graph(3, 3, 1.0)
        P = random_walk_matrix(g)
        tr = simulate_walk(g, P, NORMAL, start=4, n_steps=30, seed=3)
        assert smooth(tr, g, P, emission_sigma=0.5) == [f.truth_state for f in tr.fixes]

    def test_smoothing_beats_memoryless_snap_under_noise(self):
        # joint score dominance is guaranteed per run; error dominance only on
        # average (a MAP decode may lose on single noisy runs, e.g. seed 2 here)
        g = grid_graph(4, 4, 1.0)
        P = random_walk_matrix(g)
        err_smooth, err_snap = [], []
        for seed in range(5):
            tr = simulate_walk(g, P, NORMAL, start=5, n_steps=60, seed=seed)
            noisy = add_noise(tr, sigma=1.0, seed=seed + 100)
            smoothed = smooth(noisy, g, P, emission_sigma=1.0)
            snapped = snap(noisy, g)
            s_smooth = sequence_log_score(smoothed, noisy, g, P, emission_sigma=1.0)
            s_snap = sequence_log_score(snapped, noisy, g, P, emission_sigma=1.0)
            assert s_smooth >= s_snap - 1e-9
            err_smooth.append(localization_error(smoothed, noisy, g))
            err_snap.append(localization_error(snapped, noisy, g))
        assert np.mean(err_smooth) < np.mean(err_snap)

    def test_output_respects_chain_support(self):
        g = grid_graph(4, 4, 1.0)
        P = random_walk_matrix(g)
        for seed in range(5):
            tr = simulate_walk(g, P, NORMAL, start=0, n_steps=50, seed=seed)
            noisy = add_noise(tr, sigma=2.0, seed=seed + 50)
            seq = smooth(noisy, g, P, emission_sigma=1.0)
            for a, b in zip(seq, seq[1:]):
                assert P.entries[a, b] > 0

    def test_matches_exhaustive_search(self):
        # small enough to enumerate every one of 4**6 candidate sequences
        g = star4()
        P = random_walk_matrix(g)
        for case in range(6):
            tr = simulate_walk(g, P, NORMAL, start=0, n_steps=5, seed=100 + case)
            noisy = add_noise(tr, sigma=0.8, seed=200 + case)
            seq = smooth(noisy, g, P, emission_sigma=0.9)
            best = max(
                sequence_log_score(list(cand), noisy, g, P, emission_sigma=0.9)
                for cand in itertools.product(range(4), repeat=6)
            )
            got = sequence_log_score(seq, noisy, g, P, emission_sigma=0.9)
            assert got == pytest.approx(best, abs=1e-9)

    def test_first_stage_tie_goes_to_lowest_id(self):
        vs = (Vertex(0, LocalPoint(0.0, 0.0)), Vertex(1, LocalPoint(2.0, 0.0)))
        g = PathGraph(vertices=vs, edges=((0, 1),))
        P = random_walk_matrix(g)
        tr = Trace(fixes=(Fix(t=0.0, position=LocalPoint(1.0, 0.0)),))
        assert smooth(tr, g, P) == [0]

    def test_overflowing_fix_raises_trellis_error(self):
        g = grid_graph(2, 2, 1.0)
        P = random_walk_matrix(g)
        tr = Trace(
            fixes=(
                Fix(t=0.0, position=LocalPoint(0.0, 0.0)),
                Fix(t=1.0, position=LocalPoint(1e200, 0.0)),
            )
        )
        with pytest.raises(TrellisError, match="fix 1"):
            smooth(tr, g, P, emission_sigma=1.0)

    def test_no_dense_transition_work(self):
        # the dense trellis took log P, an n x n float array; the predecessor
        # table holds n * d entries, d = 4 on a grid
        g = grid_graph(40, 40, 1.0)
        P = random_walk_matrix(g)
        tr = Trace(fixes=tuple(Fix(t=float(k), position=LocalPoint(float(k), 1.5))
                               for k in range(5)))
        tracemalloc.start()
        try:
            seq = smooth(tr, g, P)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert seq == _dense_smooth(tr, g, P, 1.0)
        assert peak < g.n * g.n  # an eighth of one n x n float64 array

    def test_sigma_validation(self):
        g = grid_graph(2, 2, 1.0)
        P = random_walk_matrix(g)
        tr = Trace(fixes=(Fix(t=0.0, position=LocalPoint(0, 0)),))
        with pytest.raises(ValueError):
            smooth(tr, g, P, emission_sigma=0.0)


class TestScoresAndError:
    def test_sequence_log_score_manual(self):
        g = star4()
        P = random_walk_matrix(g)
        tr = Trace(
            fixes=(
                Fix(t=0.0, position=LocalPoint(0.0, 0.0)),
                Fix(t=1.0, position=LocalPoint(1.0, 0.0)),
            )
        )
        got = sequence_log_score([0, 1], tr, g, P, emission_sigma=1.0)
        assert got == pytest.approx(np.log(1.0 / 3.0), abs=1e-12)

    def test_zero_probability_transition_scores_minus_inf(self):
        g = star4()
        P = random_walk_matrix(g)
        tr = Trace(
            fixes=(
                Fix(t=0.0, position=LocalPoint(1.0, 0.0)),
                Fix(t=1.0, position=LocalPoint(0.0, 1.0)),
            )
        )
        assert sequence_log_score([1, 2], tr, g, P) == -np.inf

    def test_localization_error_values(self):
        g = grid_graph(2, 2, 1.0)
        tr = simulate_walk(g, random_walk_matrix(g), NORMAL, start=0, n_steps=3, seed=1)
        truth = [f.truth_state for f in tr.fixes]
        assert localization_error(truth, tr, g) == 0.0
        wrong = [(s + 1) % 4 for s in truth]
        assert localization_error(wrong, tr, g) > 0

    def test_localization_error_requires_truth(self):
        g = grid_graph(2, 2, 1.0)
        tr = Trace(fixes=(Fix(t=0.0, position=LocalPoint(0, 0)),))
        with pytest.raises(ValueError, match="truth"):
            localization_error([0], tr, g)


class TestHold:
    def test_blocked_rows_become_self_loops(self):
        g = grid_graph(3, 3, 1.0)
        P = random_walk_matrix(g)
        held = hold_on_obstacle(P, blocked=[4, 7])
        assert held.entries[4, 4] == 1.0 and held.entries[4].sum() == 1.0
        assert held.entries[7, 7] == 1.0

    def test_unblocked_rows_bit_identical(self):
        g = grid_graph(3, 3, 1.0)
        P = random_walk_matrix(g)
        held = hold_on_obstacle(P, blocked=[4])
        for i in range(9):
            if i != 4:
                assert np.array_equal(held.entries[i], P.entries[i])

    def test_tolerance_carried_over(self):
        entries = np.array([[0.5, 0.4999], [0.5, 0.5]])
        P = StochasticMatrix(entries, row_sum_tol=1e-3)
        held = hold_on_obstacle(P, blocked=[1])
        assert held.row_sum_tol == 1e-3
        assert held.entries[1, 1] == 1.0

    def test_empty_block_set_is_identity_operation(self):
        g = grid_graph(2, 2, 1.0)
        P = random_walk_matrix(g)
        held = hold_on_obstacle(P, blocked=[])
        assert np.array_equal(held.entries, P.entries)

    def test_out_of_range_state_rejected(self):
        g = grid_graph(2, 2, 1.0)
        with pytest.raises(ValueError):
            hold_on_obstacle(random_walk_matrix(g), blocked=[9])


class TestDetect:
    def test_stationary_in_range_reports_reach_time(self):
        user = LocalPoint(0.0, 0.0)
        obs = [Obstacle(id=1, kind="stationary", position=LocalPoint(10.0, 0.0))]
        events = detect(user, t=0.0, obstacles=obs, profile=BLIND, safer_distance=12.0)
        assert len(events) == 1
        ev = events[0]
        assert ev.kind == "obstacle_warning"
        assert ev.distance == pytest.approx(10.0)
        # 10 m at 0.58/2.7 m/s is ~46.55 s
        assert "46.55 s away" in ev.message

    def test_boundary_distance_still_alerts(self):
        obs = [Obstacle(id=1, kind="stationary", position=LocalPoint(5.0, 0.0))]
        events = detect(LocalPoint(0, 0), 0.0, obs, NORMAL, safer_distance=5.0)
        assert len(events) == 1

    def test_out_of_range_silent(self):
        obs = [Obstacle(id=1, kind="stationary", position=LocalPoint(5.01, 0.0))]
        assert detect(LocalPoint(0, 0), 0.0, obs, NORMAL, safer_distance=5.0) == []

    def test_moving_closing_reports_gap_closure(self):
        obs = [Obstacle(id=3, kind="moving", position=LocalPoint(4.0, 0.0), velocity=(-0.5, 0.0))]
        events = detect(LocalPoint(0, 0), 0.0, obs, NORMAL, safer_distance=5.0)
        assert len(events) == 1
        assert "closing" in events[0].message
        assert "gap closes in 8.00 s" in events[0].message

    def test_moving_receding_flagged_not_closing(self):
        obs = [Obstacle(id=3, kind="moving", position=LocalPoint(4.0, 0.0), velocity=(0.5, 0.0))]
        events = detect(LocalPoint(0, 0), 0.0, obs, NORMAL, safer_distance=5.0)
        assert "not closing" in events[0].message

    def test_moving_obstacle_evaluated_at_current_time(self):
        # starts out of range, drifts into range by t = 100
        obs = [Obstacle(id=4, kind="moving", position=LocalPoint(20.0, 0.0), velocity=(-0.16, 0.0))]
        assert detect(LocalPoint(0, 0), 0.0, obs, NORMAL) == []
        events = detect(LocalPoint(0, 0), 100.0, obs, NORMAL)
        assert len(events) == 1
        assert events[0].distance == pytest.approx(4.0)

    def test_sorted_nearest_first(self):
        obs = [
            Obstacle(id=1, kind="stationary", position=LocalPoint(4.0, 0.0)),
            Obstacle(id=2, kind="stationary", position=LocalPoint(1.0, 0.0)),
            Obstacle(id=3, kind="stationary", position=LocalPoint(3.0, 0.0)),
        ]
        events = detect(LocalPoint(0, 0), 0.0, obs, NORMAL, safer_distance=5.0)
        assert [e.distance for e in events] == pytest.approx([1.0, 3.0, 4.0])

    def test_widening_radius_only_adds_alerts(self):
        rng = np.random.default_rng(12)
        obs = [
            Obstacle(id=k, kind="stationary", position=LocalPoint(*rng.uniform(-10, 10, 2)))
            for k in range(12)
        ]
        user = LocalPoint(0.0, 0.0)
        small = detect(user, 0.0, obs, NORMAL, safer_distance=4.0)
        large = detect(user, 0.0, obs, NORMAL, safer_distance=9.0)
        small_keys = {(e.distance, e.message) for e in small}
        large_keys = {(e.distance, e.message) for e in large}
        assert small_keys <= large_keys

    def test_safer_distance_validation(self):
        with pytest.raises(ValueError):
            detect(LocalPoint(0, 0), 0.0, [], NORMAL, safer_distance=0.0)


def _event(t=1.5, dist=2.5, msg="stationary obstacle 1 at 2.50 m; 4.31 s away at walking pace"):
    return AlertEvent(t=t, kind="obstacle_warning", distance=dist, message=msg)


class _RecordingHandler(BaseHTTPRequestHandler):
    received: list = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        type(self).received.append(json.loads(self.rfile.read(length)))
        self.send_response(204)
        self.end_headers()

    def log_message(self, *args):
        pass


class TestDispatch:
    def test_file_sink_appends_tsv_lines(self, tmp_path):
        log = tmp_path / "alerts.log"
        ev = _event()
        report = dispatch([ev], [FileSink(log)])
        report = dispatch([ev], [FileSink(log)])  # second call appends again
        lines = log.read_bytes().split(b"\n")
        assert lines[0] == lines[1] == format_alert_line(ev).encode()
        assert lines[2] == b""
        assert report.sinks[0].delivered == 1

    def test_format_round_trips_float_fields(self):
        ev = _event(t=0.1 + 0.2, dist=1.0 / 3.0)
        fields = format_alert_line(ev).split("\t")
        assert float(fields[0]) == ev.t
        assert fields[1] == ev.kind
        assert float(fields[2]) == ev.distance
        assert fields[3] == ev.message

    def test_duplicates_collapse_within_one_call(self, tmp_path):
        log = tmp_path / "alerts.log"
        ev = _event()
        distinct = _event(t=9.0)
        report = dispatch([ev, ev, distinct, ev], [FileSink(log)])
        assert report.sinks[0].delivered == 2
        assert len(log.read_text().splitlines()) == 2

    def test_dead_sink_recorded_not_raised(self, tmp_path):
        dead = FileSink(tmp_path / "missing_dir" / "alerts.log")
        live = FileSink(tmp_path / "alerts.log")
        report = dispatch([_event()], [dead, live])
        by = report.by_sink()
        assert by[dead.name].failed == 1 and by[dead.name].delivered == 0
        assert by[live.name].delivered == 1
        assert (tmp_path / "alerts.log").exists()

    def test_webhook_delivers_flat_json(self):
        _RecordingHandler.received = []
        server = ThreadingHTTPServer(("127.0.0.1", 0), _RecordingHandler)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            ev = _event()
            report = dispatch([ev], [WebhookSink(f"http://127.0.0.1:{port}/alerts")])
            assert report.sinks[0].delivered == 1
            assert _RecordingHandler.received == [
                {"t_s": ev.t, "kind": ev.kind, "distance_m": ev.distance, "message": ev.message}
            ]
        finally:
            server.shutdown()
            thread.join()
            server.server_close()

    def test_webhook_refused_connection_counts_as_failure(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nothing listens here any more
        report = dispatch([_event()], [WebhookSink(f"http://127.0.0.1:{port}/x", timeout=0.5)])
        assert report.sinks[0].failed == 1

    @pytest.mark.parametrize("exc", [
        http.client.BadStatusLine("HTTP/9.9 ???"),
        http.client.IncompleteRead(b"par", 5),
        http.client.LineTooLong("header line"),
    ])
    def test_webhook_protocol_error_counts_as_failure(self, tmp_path, monkeypatch, exc):
        def broken(*args, **kwargs):
            raise exc

        monkeypatch.setattr(urllib.request, "urlopen", broken)
        hook = WebhookSink("http://alerts.invalid/x")
        live = FileSink(tmp_path / "alerts.log")
        by = dispatch([_event()], [hook, live]).by_sink()
        assert (by[hook.name].delivered, by[hook.name].failed) == (0, 1)
        assert by[live.name].delivered == 1

    def test_no_sinks_no_events(self):
        report = dispatch([], [])
        assert report.sinks == ()


class TestSerialization:
    def test_trace_roundtrip_with_truth(self):
        g = grid_graph(3, 3, 1.0)
        tr = simulate_walk(g, random_walk_matrix(g), BLIND, start=0, n_steps=12, seed=8)
        noisy = add_noise(tr, sigma=0.4, seed=9)
        back = trace_from_csv(trace_to_csv(noisy), profile_name=noisy.profile_name)
        assert np.array_equal(back.positions(), noisy.positions())
        assert [f.t for f in back.fixes] == [f.t for f in noisy.fixes]
        assert [f.truth_state for f in back.fixes] == [f.truth_state for f in noisy.fixes]

    def test_trace_without_truth_omits_column(self):
        tr = Trace(fixes=(Fix(t=0.0, position=LocalPoint(1.5, -2.5)),))
        text = trace_to_csv(tr)
        assert text.splitlines()[0] == "t_s,x_m,y_m"
        back = trace_from_csv(text)
        assert back.fixes[0].truth_state is None

    def test_trace_header_checked(self):
        with pytest.raises(ValueError, match="header"):
            trace_from_csv("time,x,y\n0.0,0.0,0.0\n")
        with pytest.raises(ValueError, match="empty"):
            trace_from_csv("\n")

    def test_trace_short_line_reported_with_number(self):
        with pytest.raises(ValueError, match="line 3"):
            trace_from_csv("t_s,x_m,y_m\n0.0,0.0,0.0\n1.0,2.0\n")

    def test_obstacles_parse(self):
        text = json.dumps(
            [
                {"id": 1, "kind": "stationary", "x": 2.0, "y": 3.0},
                {"id": 2, "kind": "moving", "x": 0.0, "y": 0.0, "vx": -0.5, "vy": 0.25},
            ]
        )
        a, b = obstacles_from_json(text)
        assert a.kind == "stationary" and a.velocity == (0.0, 0.0)
        assert b.velocity == (-0.5, 0.25)

    def test_obstacles_errors_name_the_index(self):
        with pytest.raises(ValueError, match=r"obstacle\[0\]"):
            obstacles_from_json('[{"id": 1, "kind": "stationary", "x": 1.0}]')
        with pytest.raises(ValueError, match="top level"):
            obstacles_from_json('{"id": 1}')
        with pytest.raises(ValueError, match="not valid JSON"):
            obstacles_from_json("[")


# ---------------------------------------------------------------------------
# reference oracles: the dense trellis and the per-step searchsorted sampler
# that the predecessor-table smoother and the bisect sampler replaced; both
# must agree exactly, ties and clamped draws included

def _dense_log_em(tr, g, emission_sigma):
    obs, pos = tr.positions(), g.positions()
    with np.errstate(over="ignore"):
        return -((obs[:, None, :] - pos[None, :, :]) ** 2).sum(axis=2) / (
            2.0 * emission_sigma * emission_sigma)


def _dense_smooth(tr, g, P, emission_sigma):
    """Max-product decode over the full n x n log-transition matrix."""
    m, n = len(tr), g.n
    log_em = _dense_log_em(tr, g, emission_sigma)
    with np.errstate(divide="ignore"):
        log_P = np.log(P.entries)
    delta = log_em[0].copy()
    back = np.zeros((m, n), dtype=int)
    if np.max(delta) == -np.inf:
        raise TrellisError("no state has positive probability at fix 0")
    for k in range(1, m):
        cand = delta[:, None] + log_P
        back[k] = np.argmax(cand, axis=0)
        delta = cand[back[k], np.arange(n)] + log_em[k]
        if np.max(delta) == -np.inf:
            raise TrellisError(f"no positive-probability path survives to fix {k}")
    seq = [int(np.argmax(delta))]
    for k in range(m - 1, 0, -1):
        seq.append(int(back[k][seq[-1]]))
    seq.reverse()
    return seq


def _dense_log_score(seq, tr, g, P, emission_sigma):
    log_em = _dense_log_em(tr, g, emission_sigma)
    with np.errstate(divide="ignore"):
        log_P = np.log(P.entries)
    score = float(log_em[0, seq[0]])
    for k in range(1, len(seq)):
        score += float(log_P[seq[k - 1], seq[k]]) + float(log_em[k, seq[k]])
    return score


def _searchsorted_sample_path(P, start, n_steps, seed):
    u = np.random.default_rng(seed).random(n_steps)
    cum = np.cumsum(P.entries, axis=1)
    path = np.empty(n_steps + 1, dtype=int)
    path[0] = state = start
    for k in range(n_steps):
        state = int(np.searchsorted(cum[state], u[k], side="right"))
        if state >= P.n:
            state = P.n - 1
        path[k + 1] = state
    return path


def _loop_simulate_walk(g, P, profile, start, n_steps, seed):
    path = _searchsorted_sample_path(P, start, n_steps, seed).tolist()
    pos = g.positions()
    fixes = [Fix(t=0.0, position=g.vertices[start].position, truth_state=start)]
    t = 0.0
    for state, nxt in zip(path, path[1:]):
        if nxt == state:
            t += profile.step_period
        else:
            t += float(np.hypot(*(pos[nxt] - pos[state]))) / profile.speed
        fixes.append(Fix(t=t, position=g.vertices[nxt].position, truth_state=nxt))
    return Trace(fixes=tuple(fixes), profile_name=profile.name)


def _points_graph(n: int) -> PathGraph:
    """n vertices laid out like connected_graphs, without edges."""
    return PathGraph(vertices=tuple(Vertex(k, LocalPoint(float(k % 5), float(k // 5)))
                                    for k in range(n)), edges=())


@st.composite
def _traces_near(draw, g: PathGraph, max_m: int = 8) -> Trace:
    """Fixes scattered over the graph's bounding box, some exactly on vertices."""
    m = draw(st.integers(1, max_m))
    pos = g.positions()
    lo, hi = pos.min(axis=0) - 1.0, pos.max(axis=0) + 1.0
    fixes = []
    for k in range(m):
        if draw(st.booleans()):
            x, y = pos[draw(st.integers(0, g.n - 1))]
        else:
            x = draw(st.floats(lo[0], hi[0]))
            y = draw(st.floats(lo[1], hi[1]))
        fixes.append(Fix(t=float(k), position=LocalPoint(x, y)))
    return Trace(fixes=tuple(fixes))


@st.composite
def _chains_with_zero_columns(draw, max_n: int = 7) -> StochasticMatrix:
    """Dense random chain in which some states have no predecessor at all."""
    n = draw(st.integers(2, max_n))
    live = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    rows = []
    for _ in range(n):
        w = np.zeros(n)
        w[live] = draw(st.lists(st.integers(0, 10), min_size=len(live), max_size=len(live))
                       .filter(lambda ws: sum(ws) > 0))
        rows.append(w / w.sum())
    return StochasticMatrix(np.vstack(rows))


@st.composite
def _chains_with_short_row(draw, max_n: int = 6) -> StochasticMatrix:
    """Chain whose first row sums to well below 1, so some draws pass its total."""
    n = draw(st.integers(2, max_n))
    rows = []
    for i in range(n):
        w = np.array(draw(st.lists(st.integers(0, 10), min_size=n, max_size=n)
                          .filter(lambda ws: sum(ws) > 0)), dtype=float)
        rows.append(w / w.sum() * (0.6 if i == 0 else 1.0))
    return StochasticMatrix(np.vstack(rows), row_sum_tol=0.5)


_SIGMAS = st.sampled_from([0.3, 1.0, 2.5])


_COORDS = st.floats(-1e160, 1e160, allow_nan=False)  # squares overflow for the largest


class TestDistances:
    @given(st.lists(st.tuples(_COORDS, _COORDS), min_size=1, max_size=6),
           st.lists(st.tuples(_COORDS, _COORDS), min_size=1, max_size=6), _SIGMAS)
    @settings(max_examples=200)
    def test_bits_match_the_stacked_difference_sum(self, fixes, points, sigma):
        tr = Trace(fixes=tuple(Fix(t=float(k), position=LocalPoint(x, y))
                               for k, (x, y) in enumerate(fixes)))
        g = PathGraph(vertices=tuple(Vertex(k, LocalPoint(x, y)) for k, (x, y) in enumerate(points)),
                      edges=())
        obs, pos = tr.positions(), g.positions()
        with np.errstate(over="ignore"):
            d2 = ((obs[:, None, :] - pos[None, :, :]) ** 2).sum(axis=2)
            assert pipeline._squared_distances(tr, g).tobytes() == d2.tobytes()
            assert snap(tr, g) == [int(k) for k in np.argmin(d2, axis=1)]
        assert (pipeline._log_emissions(tr, g, sigma).tobytes()
                == _dense_log_em(tr, g, sigma).tobytes())

    def test_no_stacked_coordinate_array(self):
        # the (m, n, 2) difference and its square took three m x n arrays at once
        g = grid_graph(20, 20, 1.0)
        rng = np.random.default_rng(5)
        tr = Trace(fixes=tuple(Fix(t=float(k), position=LocalPoint(*rng.uniform(0.0, 19.0, 2)))
                               for k in range(1500)))
        result = len(tr) * g.n * 8
        for decode in (lambda: snap(tr, g), lambda: pipeline._log_emissions(tr, g, 1.0)):
            tracemalloc.start()
            try:
                decode()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2.2 * result


class TestReferenceOracles:
    @given(st.data(), connected_graphs(max_n=9), _SIGMAS)
    @settings(max_examples=150)
    def test_smooth_matches_dense_trellis_on_walk_graphs(self, data, g, sigma):
        P = random_walk_matrix(g)
        tr = data.draw(_traces_near(g))
        seq = smooth(tr, g, P, sigma)
        assert seq == _dense_smooth(tr, g, P, sigma)
        assert (sequence_log_score(seq, tr, g, P, sigma)
                == _dense_log_score(seq, tr, g, P, sigma))

    @given(st.data(), connected_graphs(max_n=9), _SIGMAS)
    @settings(max_examples=100)
    def test_smooth_matches_dense_trellis_on_held_chains(self, data, g, sigma):
        blocked = data.draw(st.sets(st.integers(0, g.n - 1)))
        P = hold_on_obstacle(random_walk_matrix(g), blocked)
        tr = data.draw(_traces_near(g))
        assert smooth(tr, g, P, sigma) == _dense_smooth(tr, g, P, sigma)

    @given(st.data(), _chains_with_zero_columns(), _SIGMAS)
    @settings(max_examples=100)
    def test_smooth_matches_dense_trellis_on_dense_chains(self, data, P, sigma):
        g = _points_graph(P.n)
        tr = data.draw(_traces_near(g))
        seq = smooth(tr, g, P, sigma)
        assert seq == _dense_smooth(tr, g, P, sigma)
        # the all-zero sequence may step through a zero-probability transition
        for cand in (seq, [0] * len(tr)):
            assert (sequence_log_score(cand, tr, g, P, sigma)
                    == _dense_log_score(cand, tr, g, P, sigma))

    @given(st.data(), st.integers(2, 4), st.integers(2, 4), st.sampled_from([0.5, 1.0]))
    @settings(max_examples=100)
    def test_smooth_matches_dense_trellis_on_ties(self, data, rows, cols, sigma):
        # a fix at an edge midpoint scores both endpoints equally, and the
        # grid's symmetry repeats equal transition scores
        g = grid_graph(rows, cols, 1.0)
        P = random_walk_matrix(g)
        pos = g.positions()
        picks = data.draw(st.lists(st.sampled_from(g.edges), min_size=1, max_size=10))
        tr = Trace(fixes=tuple(
            Fix(t=float(k), position=LocalPoint(*((pos[a] + pos[b]) / 2.0)))
            for k, (a, b) in enumerate(picks)))
        assert smooth(tr, g, P, sigma) == _dense_smooth(tr, g, P, sigma)

    @given(st.one_of(connected_graphs(max_n=9).map(random_walk_matrix),
                     _chains_with_zero_columns(), _chains_with_short_row()),
           st.data(), st.integers(0, 2**32 - 1))
    @settings(max_examples=150)
    def test_sample_path_matches_searchsorted(self, P, data, seed):
        start = data.draw(st.integers(0, P.n - 1))
        got, want = sample_path(P, start, 60, seed), _searchsorted_sample_path(P, start, 60, seed)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_draw_past_a_short_row_goes_to_the_last_state(self):
        P = StochasticMatrix(np.array([[0.3, 0.3, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]),
                             row_sum_tol=0.5)
        moves = set()
        for seed in range(20):
            path = sample_path(P, 0, 40, seed)
            assert np.array_equal(path, _searchsorted_sample_path(P, 0, 40, seed))
            moves.update(zip(path[:-1].tolist(), path[1:].tolist()))
        # 40 % of draws from state 0 land past its 0.6 total, on state 2
        assert (0, 2) in moves

    @given(st.data(), connected_graphs(max_n=9), st.sampled_from([NORMAL, BLIND]),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=100)
    def test_simulate_walk_csv_matches_per_step_loop(self, data, g, profile, seed):
        blocked = data.draw(st.sets(st.integers(0, g.n - 1)))
        P = hold_on_obstacle(random_walk_matrix(g), blocked)
        start = data.draw(st.integers(0, g.n - 1))
        n_steps = data.draw(st.integers(0, 80))
        assert (trace_to_csv(simulate_walk(g, P, profile, start, n_steps, seed))
                == trace_to_csv(_loop_simulate_walk(g, P, profile, start, n_steps, seed)))

    @given(_chains_with_short_row(), st.integers(0, 2**32 - 1))
    @settings(max_examples=50)
    def test_simulate_walk_csv_matches_per_step_loop_on_short_rows(self, P, seed):
        g = _points_graph(P.n)
        assert (trace_to_csv(simulate_walk(g, P, BLIND, 0, 50, seed))
                == trace_to_csv(_loop_simulate_walk(g, P, BLIND, 0, 50, seed)))
