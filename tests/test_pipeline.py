"""Walk simulation, noisy-fix localization, obstacle alerts, delivery."""

from __future__ import annotations

import http.client
import itertools
import json
import math
import os
import re
import socket
import subprocess
import sys
import threading
import tracemalloc
import urllib.request
import warnings
from collections import namedtuple
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

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
    FixError,
    NO_TRUTH,
    LocalPoint,
    Obstacle,
    PathGraph,
    StochasticMatrix,
    Trace,
    TrellisError,
    WalkingProfile,
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
    simulate_walk,
    smooth,
    snap,
    trace_from_csv,
    trace_to_csv,
)
from conftest import connected_graphs, sequence_log_score


def star4() -> PathGraph:
    return PathGraph([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)], ((0, 1), (0, 2), (0, 3)))


class TestDataTypes:
    def test_fix_time_validation(self):
        with pytest.raises(ValueError):
            Trace(t=[-1.0], xy=[[0, 0]])

    def test_trace_requires_strictly_increasing_times(self):
        with pytest.raises(ValueError, match="strictly increase"):
            Trace(t=[0.0, 0.0], xy=[[0, 0], [1, 0]])
        with pytest.raises(ValueError):
            Trace(t=[], xy=np.empty((0, 2)))

    def test_trace_truth_flag(self):
        assert Trace(t=[0.0], xy=[[0, 0]], truth=[0]).has_truth()
        assert not Trace(t=[0.0, 1.0], xy=[[0, 0], [1, 0]], truth=[0, NO_TRUTH]).has_truth()

    def test_trace_validation_names_the_first_bad_fix(self):
        xy = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]
        for t, xy, message in (
                ([0.0, float("nan"), 2.0], xy, "fix time must be finite and >= 0, got nan"),
                ([0.0, 1.0, 2.0], [[0.0, 0.0], [1.0, float("inf")], [2.0, 0.0]],
                 r"local coordinates must be finite, got \(1.0, inf\)"),
                ([0.0, 2.0, 1.0], xy, "strictly increase, got 2.0 then 1.0"),
                ([0.0, 1.0], xy, r"xy must have shape \(2, 2\)"),
                ([[0.0, 1.0, 2.0]], xy, "1-D")):
            with pytest.raises(ValueError, match=message):
                Trace(t=t, xy=xy)

    def test_trace_truth_must_be_integer_ids(self):
        with pytest.raises(ValueError, match="integer vertex ids"):
            Trace(t=[0.0, 1.0], xy=[[0, 0], [1, 0]], truth=[0.0, 1.5])
        with pytest.raises(ValueError, match="integer vertex ids"):
            Trace(t=[0.0, 1.0], xy=[[0, 0], [1, 0]], truth=[0])

    def test_trace_columns_are_read_only_copies(self):
        t, xy, truth = np.array([0.0, 1.0]), np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([0, 1])
        tr = Trace(t=t, xy=xy, truth=truth)
        t[0], xy[0, 0], truth[0] = 5.0, 5.0, 5
        assert (tr.t[0], tr.xy[0, 0], tr.truth[0]) == (0.0, 0.0, 0)
        for col in (tr.t, tr.xy, tr.truth, tr.positions()):
            with pytest.raises(ValueError, match="read-only"):
                col[0] = 1
        assert tr.truth.dtype == np.int64 and len(tr) == 2

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

    @pytest.mark.parametrize("brk", ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e",
                                     "\x85", "\u2028", "\u2029"])
    def test_alert_message_rejects_every_line_break(self, brk):
        # each is a break of str.splitlines, so alerts.log would read back as more lines
        for message in (f"near{brk}wall", f"near wall{brk}", brk):
            with pytest.raises(ValueError, match="tabs or newlines"):
                AlertEvent(t=0.0, kind="obstacle_warning", distance=1.0, message=message)

    def test_alert_message_on_one_line_is_accepted(self):
        for message in ("", "near wall", "caf\u00e9 \u00a0 \x1f"):
            assert AlertEvent(t=0.0, kind="obstacle_warning", distance=1.0,
                              message=message).message == message

    def test_alert_message_must_encode_as_utf8(self):
        with pytest.raises(ValueError, match=re.escape("alert message '\\ud800' is not encodable")):
            AlertEvent(t=0.0, kind="obstacle_warning", distance=1.0, message="\ud800")


class TestSimulateWalk:
    def test_edge_moves_take_length_over_speed(self):
        # 0.58 m edges at the normal profile: exactly one second per move
        g = grid_graph(2, 2, 0.58)
        tr = simulate_walk(g, random_walk_matrix(g), NORMAL, start=0, n_steps=10, seed=4)
        assert tr.t.tolist() == pytest.approx(list(range(11)), abs=1e-12)

    def test_blind_walker_takes_same_route_slower(self):
        g = grid_graph(3, 3, 0.58)
        P = random_walk_matrix(g)
        a = simulate_walk(g, P, NORMAL, start=4, n_steps=25, seed=9)
        b = simulate_walk(g, P, BLIND, start=4, n_steps=25, seed=9)
        assert a.truth.tolist() == b.truth.tolist()
        ta = a.t
        tb = b.t
        assert np.allclose(tb, 2.7 * ta, atol=1e-9)

    def test_truth_moves_along_edges(self):
        g = grid_graph(4, 4, 1.0)
        tr = simulate_walk(g, random_walk_matrix(g), NORMAL, start=5, n_steps=200, seed=1)
        states = tr.truth.tolist()
        assert states[0] == 5
        edge_set = set(g.edges)
        for a, b in zip(states, states[1:]):
            assert (min(a, b), max(a, b)) in edge_set

    def test_matches_bare_chain_sample_with_same_seed(self):
        g = grid_graph(3, 3, 1.0)
        P = random_walk_matrix(g)
        tr = simulate_walk(g, P, NORMAL, start=0, n_steps=40, seed=77)
        path = sample_path(P, 0, 40, seed=77)
        assert tr.truth.tolist() == path.tolist()

    def test_held_walker_dwells_one_step_period(self):
        g = grid_graph(2, 2, 1.0)
        P = hold_on_obstacle(random_walk_matrix(g), blocked=range(4))
        tr = simulate_walk(g, P, BLIND, start=2, n_steps=3, seed=0)
        assert tr.truth.tolist() == [2, 2, 2, 2]
        assert tr.t.tolist() == pytest.approx([0.0, 2.7, 5.4, 8.1])

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

    def test_walk_time_overflow_names_the_step(self):
        # every step takes a finite 1e306 s, so only the running total leaves the float range
        g = grid_graph(2, 1, 1.0)
        P = random_walk_matrix(g)
        slow = WalkingProfile("slow", step_length=1.0, step_period=1e306)
        assert np.isfinite(simulate_walk(g, P, slow, start=0, n_steps=179, seed=0).t[-1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^step 180, edge 1 -> 0: fix time must be finite "
                                                 "and >= 0, got inf$"):
                simulate_walk(g, P, slow, start=0, n_steps=180, seed=0)


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
        assert noisy.t.tolist() == tr.t.tolist()
        assert noisy.truth.tolist() == tr.truth.tolist()
        assert not np.array_equal(noisy.positions(), tr.positions())

    def test_seed_reproducibility(self):
        g = grid_graph(2, 2, 1.0)
        tr = simulate_walk(g, random_walk_matrix(g), NORMAL, start=0, n_steps=5, seed=2)
        assert np.array_equal(add_noise(tr, 1.0, seed=5).positions(),
                              add_noise(tr, 1.0, seed=5).positions())

    def test_mean_displacement_matches_rayleigh(self):
        # isotropic 2-D Gaussian: E|noise| = sigma * sqrt(pi / 2)
        n = 20_000
        noisy = add_noise(Trace(t=np.arange(n, dtype=float), xy=np.zeros((n, 2))), sigma=1.0,
                          seed=5)
        mean_disp = float(np.hypot(*noisy.positions().T).mean())
        assert mean_disp == pytest.approx(np.sqrt(np.pi / 2.0), abs=0.02)

    def test_negative_sigma_rejected(self):
        tr = Trace(t=[0.0], xy=[[0, 0]])
        with pytest.raises(ValueError):
            add_noise(tr, sigma=-0.1, seed=0)


class TestSnap:
    def test_noiseless_trace_snaps_to_truth(self):
        g = grid_graph(3, 3, 1.0)
        tr = simulate_walk(g, random_walk_matrix(g), NORMAL, start=4, n_steps=30, seed=6)
        assert snap(tr, g) == tr.truth.tolist()

    def test_tie_goes_to_lowest_id(self):
        g = PathGraph([(0.0, 0.0), (2.0, 0.0)], ((0, 1),))
        tr = Trace(t=[0.0], xy=[[1.0, 0.0]])
        assert snap(tr, g) == [0]


class TestSmooth:
    def test_noiseless_trace_recovers_truth_on_unit_grid(self):
        # emission penalty for one wrong vertex (>= 1 m off) is 1/(2*0.25) = 2,
        # larger than any transition-probability gain (two factors of log 2)
        g = grid_graph(3, 3, 1.0)
        P = random_walk_matrix(g)
        tr = simulate_walk(g, P, NORMAL, start=4, n_steps=30, seed=3)
        assert smooth(tr, g, P, emission_sigma=0.5) == tr.truth.tolist()

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
        g = PathGraph([(0.0, 0.0), (2.0, 0.0)], ((0, 1),))
        P = random_walk_matrix(g)
        tr = Trace(t=[0.0], xy=[[1.0, 0.0]])
        assert smooth(tr, g, P) == [0]

    def test_overflowing_fix_raises_trellis_error(self):
        g = grid_graph(2, 2, 1.0)
        P = random_walk_matrix(g)
        tr = Trace(t=[0.0, 1.0], xy=[[0.0, 0.0], [1e200, 0.0]])
        with pytest.raises(TrellisError, match="fix 1"):
            smooth(tr, g, P, emission_sigma=1.0)

    @pytest.mark.parametrize("far", [0, 1])
    def test_overflowing_fix_is_named_without_warnings(self, far):
        # no sigma helps once every squared distance is inf: say so, not "widen"
        g = grid_graph(2, 2, 1.0)
        xy = [[0.0, 0.0], [0.5, 0.5]]
        xy[far] = [1.0, -1e200]
        tr = Trace(t=[0.0, 1.0], xy=xy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrellisError, match=f"fix {far}: its squared distance to every "
                                                   "vertex overflows"):
                smooth(tr, g, random_walk_matrix(g))
            with pytest.raises(ValueError, match=f"fix {far}: squared distance to every vertex "
                                                 "overflows"):
                snap(tr, g)

    def test_narrow_sigma_still_says_widen(self):
        g = grid_graph(2, 2, 1.0)
        tr = Trace(t=[0.0], xy=[[1e10, 0.0]])  # finite distances whose scores overflow
        with pytest.raises(TrellisError, match="fix 0; widen emission_sigma"):
            smooth(tr, g, random_walk_matrix(g), emission_sigma=1e-150)

    def test_no_dense_transition_work(self):
        # the dense trellis took log P, an n x n float array; the predecessor
        # table holds n * d entries, d = 4 on a grid
        g = grid_graph(40, 40, 1.0)
        P = random_walk_matrix(g)
        tr = Trace(t=np.arange(5.0), xy=[[float(k), 1.5] for k in range(5)])
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
        tr = Trace(t=[0.0], xy=[[0, 0]])
        for sigma in (0.0, 1e-200):  # at 1e-200, 2 sigma^2 underflows to 0: 0/0 scores were nan
            with pytest.raises(ValueError, match="emission_sigma"):
                smooth(tr, g, P, emission_sigma=sigma)


class TestScoresAndError:
    def test_sequence_log_score_manual(self):
        g = star4()
        P = random_walk_matrix(g)
        tr = Trace(t=[0.0, 1.0], xy=[[0.0, 0.0], [1.0, 0.0]])
        got = sequence_log_score([0, 1], tr, g, P, emission_sigma=1.0)
        assert got == pytest.approx(np.log(1.0 / 3.0), abs=1e-12)

    def test_zero_probability_transition_scores_minus_inf(self):
        g = star4()
        P = random_walk_matrix(g)
        tr = Trace(t=[0.0, 1.0], xy=[[1.0, 0.0], [0.0, 1.0]])
        assert sequence_log_score([1, 2], tr, g, P) == -np.inf

    def test_localization_error_values(self):
        g = grid_graph(2, 2, 1.0)
        tr = simulate_walk(g, random_walk_matrix(g), NORMAL, start=0, n_steps=3, seed=1)
        truth = tr.truth.tolist()
        assert localization_error(truth, tr, g) == 0.0
        wrong = [(s + 1) % 4 for s in truth]
        assert localization_error(wrong, tr, g) > 0

    def test_every_fix_fault_is_a_fix_error_naming_the_fix(self):
        g = grid_graph(2, 2, 1.0)
        P = random_walk_matrix(g)
        for t, xy, fix, field in (([0.0, 1.0, 2.0], [[0, 0], [1, 0], [1, np.inf]], 2, "y_m"),
                                  ([0.0, 1.0, -2.0], [[0, 0], [1, 0], [1, 1]], 2, "t_s"),
                                  ([0.0, 2.0, 1.0], [[0, 0], [1, 0], [1, 1]], 2, "t_s")):
            with pytest.raises(FixError) as exc:
                Trace(t=t, xy=xy)
            assert (exc.value.fix, exc.value.field) == (fix, field)
        far = Trace(t=[0.0, 1.0], xy=[[0.0, 0.0], [1e200, 0.0]])
        for decode, kind in ((lambda: snap(far, g), FixError),
                             (lambda: smooth(far, g, P), TrellisError)):
            with pytest.raises(kind) as exc:
                decode()
            assert (exc.value.fix, exc.value.field) == (1, None)
        off_map = Trace(t=[0.0, 1.0], xy=[[0, 0], [1, 0]], truth=[0, 4])
        with pytest.raises(FixError, match="^truth_vertex 4 outside 0..3 at fix 1$") as exc:
            localization_error([0, 1], off_map, g)
        assert (exc.value.fix, exc.value.field) == (1, "truth_vertex")

    @pytest.mark.parametrize("estimate, shown, fix", [
        ([-1] * 4, "-1", 0), ([0.7] * 4, "0.7", 0), ([0, 1, 2, 9], "9", 3),
        (np.array([0, 1, 4, 3]), "4", 2), (np.array([0.0, 1.0, 2.0, 3.0]), "0.0", 0),
        ([0, 1.0, 2, 3], "1.0", 1), ([0, 1, None, 3], "None", 2), ([0, 1, 2, "3"], "'3'", 3),
        ([0, 1, 2, 10**30], repr(10**30), 3), (np.array([True, False, True, False]), "True", 0),
        ([0, True, 1, 2], "True", 1), ([True, 1, 2, 3], "True", 0),
        ([0, 1, np.True_, 3], "np.True_", 2),
    ], ids=["negative", "fraction", "past_n", "array_past_n", "float_array", "float",
            "none", "string", "huge", "bool_array", "bool_among_ints", "bool_first",
            "numpy_bool_among_ints"])
    def test_localization_error_rejects_bad_estimate_ids(self, estimate, shown, fix):
        g = grid_graph(2, 2)
        tr = Trace(t=np.arange(4.0), xy=g.positions(), truth=np.arange(4))
        message = f"estimate vertex {shown} at fix {fix} is not an integer in 0..3"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            localization_error(estimate, tr, g)
        assert localization_error(np.arange(4), tr, g) == localization_error([0, 1, 2, 3], tr, g) == 0.0

    def test_localization_error_requires_truth(self):
        g = grid_graph(2, 2, 1.0)
        tr = Trace(t=[0.0], xy=[[0, 0]])
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

    def test_first_out_of_range_state_named(self):
        P = random_walk_matrix(grid_graph(2, 2, 1.0))
        with pytest.raises(ValueError, match=r"^blocked state -1 outside 0\.\.3$"):
            hold_on_obstacle(P, blocked=[9, 2, -1])

    @given(connected_graphs(max_n=9), st.data())
    @settings(max_examples=100)
    def test_row_mask_matches_per_row_loop(self, g, data):
        P = random_walk_matrix(g)
        blocked = data.draw(st.lists(st.integers(0, g.n - 1)))
        M = np.array(P.entries)
        for b in sorted(set(blocked)):
            M[b, :] = 0.0
            M[b, b] = 1.0
        assert hold_on_obstacle(P, blocked).entries.tobytes() == M.tobytes()


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


#: an alert with AlertEvent's fields and none of its checks
_RawEvent = namedtuple("_RawEvent", "t kind distance message")


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
        by = {s.sink: s for s in report.sinks}
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
        by = {s.sink: s for s in dispatch([_event()], [hook, live]).sinks}
        assert (by[hook.name].delivered, by[hook.name].failed) == (0, 1)
        assert by[live.name].delivered == 1

    def test_no_sinks_no_events(self):
        report = dispatch([], [])
        assert report.sinks == ()

    def test_cli_import_leaves_the_http_stack_unloaded(self):
        # only a WebhookSink delivery pays for ssl, email and http.client
        probe = ("import sys, walkchain.cli; walkchain.cli.build_parser(); "
                 "print([m for m in ('http.client', 'ssl', 'urllib.request') if m in sys.modules])")
        src = str(Path(pipeline.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
        assert done.stdout == "[]\n"


class TestFileSinkHandle:
    @pytest.fixture
    def opened(self, monkeypatch):
        """Every handle ``FileSink`` opens, in order."""
        handles = []

        def counting_open(*args, **kwargs):
            handles.append(open(*args, **kwargs))
            return handles[-1]

        monkeypatch.setattr(pipeline, "open", counting_open, raising=False)
        return handles

    def test_one_open_per_dispatch(self, tmp_path, opened):
        log = tmp_path / "alerts.log"
        sink = FileSink(log)
        events = [_event(t=float(k)) for k in range(5)]
        assert dispatch(events, [sink]).sinks[0].delivered == 5
        assert len(opened) == 1 and opened[0].closed
        assert dispatch(events, [sink]).sinks[0].delivered == 5  # the same sink appends again
        assert len(opened) == 2 and opened[1].closed
        assert log.read_text().splitlines() == [format_alert_line(ev) for ev in events] * 2

    def test_each_line_on_disk_when_delivered(self, tmp_path, opened):
        log = tmp_path / "alerts.log"
        sink = FileSink(log)
        lines = []
        for k in range(3):
            ev = _event(t=float(k))
            assert sink.deliver(ev)
            lines.append(format_alert_line(ev))
            assert log.read_text() == "".join(line + "\n" for line in lines)
        assert len(opened) == 1 and not opened[0].closed
        sink.close()
        assert opened[0].closed
        sink.close()  # a second close is a no-op

    def test_unencodable_event_is_a_failed_delivery(self, tmp_path):
        # an event that bypassed AlertEvent's checks: a lone surrogate has no UTF-8 form
        raw = _RawEvent(t=0.0, kind="obstacle_warning", distance=1.0, message="\ud800")
        good = _event()
        first, second = FileSink(tmp_path / "a.log"), FileSink(tmp_path / "b.log")
        by = {s.sink: s for s in dispatch([raw, good], [first, second]).sinks}
        for sink in (first, second):
            assert (by[sink.name].delivered, by[sink.name].failed) == (1, 1)
            assert by[sink.name].flags == (False, True)
            assert sink.path.read_text(encoding="utf-8") == format_alert_line(good) + "\n"

    def test_fresh_sink_opens_once_and_empties_the_log(self, tmp_path, opened):
        log = tmp_path / "alerts.log"
        log.write_text("a line from an earlier run\n", encoding="utf-8")
        sink = FileSink(log, fresh=True)
        assert log.read_bytes() == b"" and len(opened) == 1
        assert sink.name == f"file:{log}"
        events = [_event(t=float(k)) for k in range(3)]
        assert dispatch(events, [sink]).sinks[0].delivered == 3
        assert len(opened) == 1 and opened[0].closed
        assert log.read_text().splitlines() == [format_alert_line(ev) for ev in events]
        assert dispatch(events[:1], [sink]).sinks[0].delivered == 1  # then it appends
        assert len(opened) == 2 and len(log.read_text().splitlines()) == 4

    def test_fresh_sink_that_fails_leaves_no_stale_log(self, tmp_path):
        log = tmp_path / "alerts.log"
        log.write_text("a line from an earlier run\n", encoding="utf-8")
        raw = _RawEvent(t=0.0, kind="obstacle_warning", distance=1.0, message="\ud800")
        report = dispatch([raw], [FileSink(log, fresh=True)])
        assert (report.sinks[0].delivered, report.sinks[0].failed) == (0, 1)
        assert log.read_bytes() == b""

    def test_fresh_sink_that_cannot_open_raises(self, tmp_path):
        with pytest.raises(OSError):
            FileSink(tmp_path / "missing_dir" / "alerts.log", fresh=True)

    def test_dead_sink_fails_every_event(self, tmp_path):
        dead = FileSink(tmp_path / "missing_dir" / "alerts.log")
        report = dispatch([_event(t=float(k)) for k in range(3)], [dead])
        assert (report.sinks[0].delivered, report.sinks[0].failed) == (0, 3)

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs a device that is always full")
    def test_failed_flush_fails_the_event_and_drops_the_handle(self, opened):
        report = dispatch([_event(t=1.0), _event(t=2.0)], [FileSink("/dev/full")])
        assert (report.sinks[0].delivered, report.sinks[0].failed) == (0, 2)
        assert len(opened) == 2 and all(fh.closed for fh in opened)

    def test_handle_closed_when_delivery_raises(self, tmp_path, opened, monkeypatch):
        def format_once(ev):
            monkeypatch.setattr(pipeline, "format_alert_line", None)  # the next call raises
            return format_alert_line(ev)

        monkeypatch.setattr(pipeline, "format_alert_line", format_once)
        with pytest.raises(TypeError):
            dispatch([_event(t=1.0), _event(t=2.0)], [FileSink(tmp_path / "alerts.log")])
        assert len(opened) == 1 and opened[0].closed


class TestSerialization:
    def test_trace_roundtrip_with_truth(self):
        g = grid_graph(3, 3, 1.0)
        tr = simulate_walk(g, random_walk_matrix(g), BLIND, start=0, n_steps=12, seed=8)
        noisy = add_noise(tr, sigma=0.4, seed=9)
        back = trace_from_csv(trace_to_csv(noisy))
        assert np.array_equal(back.positions(), noisy.positions())
        assert back.t.tolist() == noisy.t.tolist()
        assert back.truth.tolist() == noisy.truth.tolist()

    def test_trace_without_truth_omits_column(self):
        tr = Trace(t=[0.0], xy=[[1.5, -2.5]])
        text = trace_to_csv(tr)
        assert text.splitlines()[0] == "t_s,x_m,y_m"
        back = trace_from_csv(text)
        assert back.truth.tolist() == [NO_TRUTH]

    def test_trace_header_checked(self):
        with pytest.raises(ValueError, match="header"):
            trace_from_csv("time,x,y\n0.0,0.0,0.0\n")
        with pytest.raises(ValueError, match="empty"):
            trace_from_csv("\n")

    def test_trace_short_line_reported_with_number(self):
        with pytest.raises(ValueError, match="line 3"):
            trace_from_csv("t_s,x_m,y_m\n0.0,0.0,0.0\n1.0,2.0\n")

    @pytest.mark.parametrize("body, message", [
        ("0.0,0.0,0.0\nabc,1.0,0.0\n", "trace line 3: t_s: expected a number, got 'abc'"),
        ("0.0,0.0,0.0\n1.0,,0.0\n", "trace line 3: x_m: expected a number, got ''"),
        ("0.0,0.0,0.0\n1.0,inf,0.0\n",
         "trace line 3: x_m: local coordinates must be finite, got (inf, 0.0)"),
        ("0.0,0.0,nan\n", "trace line 2: y_m: local coordinates must be finite, got (0.0, nan)"),
        ("-1.0,0.0,0.0\n", "trace line 2: t_s: fix time must be finite and >= 0, got -1.0"),
        ("0.0,0.0,0.0\n2.0,0.0,0.0\n1.0,0.0,0.0\n",
         "trace line 4: t_s: fix timestamps must strictly increase, got 2.0 then 1.0"),
        ("0.0,0.0,0.0,1\n1.0,0.0,0.0,1.5\n",
         "trace line 3: truth_vertex: expected an integer vertex id, got '1.5'"),
        ("0.0,0.0,0.0,-9223372036854775808\n",
         "trace line 2: truth_vertex: expected an integer vertex id, "
         "got '-9223372036854775808'"),
        ("0.0,0.0,0.0,9223372036854775808\n",
         "trace line 2: truth_vertex: expected an integer vertex id, got '9223372036854775808'"),
        # blank lines count: the error names the line an editor shows
        ("\n0.0,0.0,0.0\n\n1.0,0.0,0.0\n0.5,0.0,0.0\n",
         "trace line 6: t_s: fix timestamps must strictly increase, got 1.0 then 0.5"),
    ])
    def test_trace_errors_name_line_and_field(self, body, message):
        with pytest.raises(ValueError) as exc:
            trace_from_csv("t_s,x_m,y_m,truth_vertex\n" + body)
        assert str(exc.value) == message

    def test_trace_partial_truth(self):
        tr = trace_from_csv("t_s,x_m,y_m,truth_vertex\n0.0,0.0,0.0,3\n1.0,1.0,0.0,\n2.0,1.0,1.0\n")
        assert tr.truth.tolist() == [3, NO_TRUTH, NO_TRUTH]
        assert not tr.has_truth()
        assert trace_to_csv(tr) == "t_s,x_m,y_m,truth_vertex\n0.0,0.0,0.0,3\n1.0,1.0,0.0,\n2.0,1.0,1.0,\n"
        bare = trace_from_csv("t_s,x_m,y_m,truth_vertex\n0.0,0.0,0.0,\n")
        assert trace_to_csv(bare) == "t_s,x_m,y_m\n0.0,0.0,0.0\n"

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


# The per-fix trace that columnar Trace replaced: one frozen object per fix,
# validated one at a time. Its simulate, noise and CSV functions are the
# references for the column versions, byte for byte.

@dataclass(frozen=True)
class _Fix:
    t: float
    position: LocalPoint
    truth_state: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "t", float(self.t))
        if not (math.isfinite(self.t) and self.t >= 0):
            raise ValueError(f"fix time must be finite and >= 0, got {self.t!r}")


def _fix_trace(fixes) -> tuple:
    fixes = tuple(fixes)
    if not fixes:
        raise ValueError("trace must contain at least one fix")
    for a, b in zip(fixes, fixes[1:]):
        if b.t <= a.t:
            raise ValueError(f"fix timestamps must strictly increase, got {a.t!r} then {b.t!r}")
    return fixes


def _fix_simulate_walk(g, P, profile, start, n_steps, seed):
    path = sample_path(P, start, n_steps, seed)
    pos = g.positions()
    dx, dy = (pos[path[1:]] - pos[path[:-1]]).T
    dt = np.where(path[1:] == path[:-1], profile.step_period, np.hypot(dx, dy) / profile.speed)
    times = [0.0] + np.cumsum(dt).tolist()
    return _fix_trace(_Fix(t=t, position=LocalPoint(*pos[v].tolist()), truth_state=v)
                      for t, v in zip(times, path.tolist()))


def _fix_add_noise(fixes, sigma, seed):
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, sigma, size=(len(fixes), 2)) if sigma > 0 else np.zeros((len(fixes), 2))
    return _fix_trace(
        _Fix(t=f.t, position=LocalPoint(f.position.x + noise[k, 0], f.position.y + noise[k, 1]),
             truth_state=f.truth_state)
        for k, f in enumerate(fixes))


def _fix_trace_to_csv(fixes) -> str:
    with_truth = any(f.truth_state is not None for f in fixes)
    lines = ["t_s,x_m,y_m" + (",truth_vertex" if with_truth else "")]
    for f in fixes:
        row = f"{f.t!r},{f.position.x!r},{f.position.y!r}"
        if with_truth:
            row += "," + ("" if f.truth_state is None else str(f.truth_state))
        lines.append(row)
    return "\n".join(lines) + "\n"


def _fix_trace_from_csv(text: str) -> tuple:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    header = [h.strip() for h in lines[0].split(",")]
    with_truth = len(header) > 3 and header[3] == "truth_vertex"
    fixes = []
    for line in lines[1:]:
        parts = line.split(",")
        truth = None
        if with_truth and len(parts) > 3 and parts[3].strip():
            truth = int(parts[3])
        fixes.append(_Fix(t=float(parts[0]), position=LocalPoint(float(parts[1]), float(parts[2])),
                          truth_state=truth))
    return _fix_trace(fixes)


def _columns_of(fixes) -> tuple[list, list, list]:
    """(times, [x, y] rows, truth with NO_TRUTH for None) of per-fix objects."""
    return ([f.t for f in fixes], [[f.position.x, f.position.y] for f in fixes],
            [NO_TRUTH if f.truth_state is None else f.truth_state for f in fixes])


def _loop_simulate_walk(g, P, profile, start, n_steps, seed):
    path = _searchsorted_sample_path(P, start, n_steps, seed).tolist()
    pos = g.positions()
    fixes = [_Fix(t=0.0, position=LocalPoint(*pos[start].tolist()), truth_state=start)]
    t = 0.0
    for state, nxt in zip(path, path[1:]):
        if nxt == state:
            t += profile.step_period
        else:
            t += float(np.hypot(*(pos[nxt] - pos[state]))) / profile.speed
        fixes.append(_Fix(t=t, position=LocalPoint(*pos[nxt].tolist()), truth_state=nxt))
    return _fix_trace(fixes)


def _points_graph(n: int) -> PathGraph:
    """n vertices laid out like connected_graphs, without edges."""
    return PathGraph([(float(k % 5), float(k // 5)) for k in range(n)], ())


@st.composite
def _traces_near(draw, g: PathGraph, max_m: int = 8) -> Trace:
    """Fixes scattered over the graph's bounding box, some exactly on vertices."""
    m = draw(st.integers(1, max_m))
    pos = g.positions()
    lo, hi = pos.min(axis=0) - 1.0, pos.max(axis=0) + 1.0
    xy = []
    for k in range(m):
        if draw(st.booleans()):
            x, y = pos[draw(st.integers(0, g.n - 1))]
        else:
            x = draw(st.floats(lo[0], hi[0]))
            y = draw(st.floats(lo[1], hi[1]))
        xy.append([x, y])
    return Trace(t=np.arange(m, dtype=float), xy=xy)


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
        tr = Trace(t=np.arange(len(fixes), dtype=float), xy=fixes)
        g = PathGraph(points, ())
        obs, pos = tr.positions(), g.positions()
        with np.errstate(over="ignore"):
            d2 = ((obs[:, None, :] - pos[None, :, :]) ** 2).sum(axis=2)
        assert pipeline._squared_distances(obs[:, None], pos).tobytes() == d2.tobytes()
        far = np.flatnonzero(np.isinf(d2).all(axis=1))
        if far.size:  # no vertex is nearest when every distance overflows
            with pytest.raises(ValueError, match=f"fix {far[0]}: squared distance"):
                snap(tr, g)
        else:
            assert snap(tr, g) == [int(k) for k in np.argmin(d2, axis=1)]
        assert (pipeline._log_emissions(obs[:, None], pos, sigma).tobytes()
                == _dense_log_em(tr, g, sigma).tobytes())

    def test_no_stacked_coordinate_array(self):
        # the (m, n, 2) difference and its square took three m x n arrays at once
        g = grid_graph(20, 20, 1.0)
        rng = np.random.default_rng(5)
        tr = Trace(t=np.arange(1500, dtype=float),
                   xy=[rng.uniform(0.0, 19.0, 2) for k in range(1500)])
        result = len(tr) * g.n * 8
        for decode in (lambda: snap(tr, g),
                       lambda: pipeline._log_emissions(tr.positions()[:, None], g.positions(), 1.0)):
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
        tr = Trace(t=np.arange(len(picks), dtype=float),
                   xy=[(pos[a] + pos[b]) / 2.0 for a, b in picks])
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
                == _fix_trace_to_csv(_loop_simulate_walk(g, P, profile, start, n_steps, seed)))

    @given(_chains_with_short_row(), st.integers(0, 2**32 - 1))
    @settings(max_examples=50)
    def test_simulate_walk_csv_matches_per_step_loop_on_short_rows(self, P, seed):
        g = _points_graph(P.n)
        assert (trace_to_csv(simulate_walk(g, P, BLIND, 0, 50, seed))
                == _fix_trace_to_csv(_loop_simulate_walk(g, P, BLIND, 0, 50, seed)))


_FIX_COORDS = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([-0.0, 5e-324, -1e-310, 1e300]))


@st.composite
def _per_fix_traces(draw, max_m: int = 12) -> tuple:
    """Per-fix traces with any mix of fixes with and without truth."""
    times = sorted(draw(st.lists(st.floats(0.0, 1e9), min_size=1, max_size=max_m, unique=True)))
    truth = st.one_of(st.none(), st.integers(-2**63 + 1, 2**63 - 1), st.integers(0, 30))
    return _fix_trace(_Fix(t=t, position=LocalPoint(draw(_FIX_COORDS), draw(_FIX_COORDS)),
                           truth_state=draw(truth)) for t in times)


class TestPerFixReference:
    @given(connected_graphs(max_n=9), st.data(), st.sampled_from([NORMAL, BLIND]),
           st.sampled_from([0.0, 0.5, 2.5]), st.integers(0, 2**32 - 1))
    @settings(max_examples=100)
    def test_simulate_and_noise_write_the_reference_bytes(self, g, data, profile, sigma, seed):
        blocked = data.draw(st.sets(st.integers(0, g.n - 1)))
        P = hold_on_obstacle(random_walk_matrix(g), blocked)
        start = data.draw(st.integers(0, g.n - 1))
        n_steps = data.draw(st.integers(0, 80))
        tr = simulate_walk(g, P, profile, start, n_steps, seed)
        ref = _fix_simulate_walk(g, P, profile, start, n_steps, seed)
        assert trace_to_csv(tr) == _fix_trace_to_csv(ref)
        noisy, ref_noisy = add_noise(tr, sigma, seed + 1), _fix_add_noise(ref, sigma, seed + 1)
        assert trace_to_csv(noisy) == _fix_trace_to_csv(ref_noisy)
        t, xy, truth = _columns_of(ref_noisy)
        assert noisy.t.tobytes() == np.array(t).tobytes()
        assert noisy.xy.tobytes() == np.array(xy).tobytes()
        assert noisy.truth.tolist() == truth

    @given(_per_fix_traces())
    @settings(max_examples=200)
    def test_csv_round_trip_matches_reference(self, fixes):
        text = _fix_trace_to_csv(fixes)
        t, xy, truth = _columns_of(fixes)
        assert trace_to_csv(Trace(t=t, xy=xy, truth=truth)) == text
        back, ref = trace_from_csv(text), _fix_trace_from_csv(text)
        t, xy, truth = _columns_of(ref)
        assert back.t.tobytes() == np.array(t).tobytes()
        assert back.xy.tobytes() == np.array(xy).tobytes()
        assert back.truth.tolist() == truth
        assert back.has_truth() == all(f.truth_state is not None for f in ref)
        assert trace_to_csv(back) == text

    def test_long_walk_matches_reference(self):
        g = grid_graph(12, 12, 0.58)
        P = random_walk_matrix(g)
        tr = add_noise(simulate_walk(g, P, NORMAL, 5, 5000, seed=3), 2.0, seed=4)
        ref = _fix_add_noise(_fix_simulate_walk(g, P, NORMAL, 5, 5000, seed=3), 2.0, seed=4)
        assert trace_to_csv(tr) == _fix_trace_to_csv(ref)
