"""Command-line behavior: artifacts, determinism, exit codes."""

from __future__ import annotations

import json
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from walkchain import (
    BLIND,
    Trace,
    add_noise,
    array_from_csv,
    load_map,
    random_walk_matrix,
    simulate_walk,
    smooth,
    snap,
    trace_from_csv,
)
from walkchain.cli import main

# a numpy warning on the way to an exit code is a hole: a float went out of range unnamed
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

REPO = Path(__file__).resolve().parents[1]
DEMO_MAP = str(REPO / "data" / "campus_map.json")
DEMO_OBSTACLES = str(REPO / "data" / "obstacles.json")


@pytest.fixture
def line_map(tmp_path) -> str:
    doc = {
        "vertices": [
            {"id": 0, "x": 0.0, "y": 0.0},
            {"id": 1, "x": 5.8, "y": 0.0},
            {"id": 2, "x": 11.6, "y": 0.0},
        ],
        "edges": [[0, 1], [1, 2]],
    }
    path = tmp_path / "line_map.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def split_map(tmp_path) -> str:
    doc = {
        "vertices": [
            {"id": 0, "x": 0.0, "y": 0.0},
            {"id": 1, "x": 1.0, "y": 0.0},
            {"id": 2, "x": 10.0, "y": 0.0},
            {"id": 3, "x": 11.0, "y": 0.0},
        ],
        "edges": [[0, 1], [2, 3]],
    }
    path = tmp_path / "split_map.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def distances_file(tmp_path) -> str:
    path = tmp_path / "distances.txt"
    path.write_text("5.8\n59.16\n", encoding="utf-8")
    return str(path)


def _path_csv(map_path: str, steps: int, noise_sigma: float) -> str:
    """path.csv of ``track`` on a simulated trace, written row by row from the library."""
    g = load_map(Path(map_path).read_text())
    P = random_walk_matrix(g)
    trace = add_noise(simulate_walk(g, P, BLIND, start=0, n_steps=steps, seed=42),
                      noise_sigma, seed=43)
    snapped, smoothed, pos = snap(trace, g), smooth(trace, g, P), g.positions()
    lines = ["t_s,snap_vertex,smooth_vertex,x_m,y_m,truth_vertex"]
    for k, (t, truth) in enumerate(zip(trace.t.tolist(), trace.truth.tolist())):
        v = smoothed[k]
        lines.append(f"{t!r},{snapped[k]},{v},{float(pos[v, 0])!r},{float(pos[v, 1])!r},"
                     f"{truth}")
    return "\n".join(lines) + "\n"


def read_kv(path: Path) -> dict:
    rows = [ln.split(",", 1) for ln in path.read_text().splitlines()[1:]]
    return {k: v for k, v in rows}


class TestAnalyze:
    def test_demo_map_artifacts(self, tmp_path):
        out = tmp_path / "out"
        assert main(["analyze", "--map", DEMO_MAP, "--out-dir", str(out)]) == 0
        summary = read_kv(out / "analysis_summary.csv")
        assert summary["n_vertices"] == "10"
        assert summary["irreducible"] == "true"
        assert summary["n_classes"] == "1"
        assert int(summary["degree_sum"]) == 2 * int(summary["n_edges"])
        assert int(summary["mixing_time"]) > 0

        P = array_from_csv((out / "transition.csv").read_text())
        assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)

        pi_rows = (out / "stationary.csv").read_text().splitlines()[1:]
        pi = np.array([float(r.split(",")[1]) for r in pi_rows])
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(pi @ P, pi, atol=1e-12)

        H = array_from_csv((out / "hitting.csv").read_text())
        C = array_from_csv((out / "commute.csv").read_text())
        assert np.allclose(C, C.T, atol=0.0)
        assert np.allclose(C, H + H.T, atol=0.0)
        assert np.all(np.diag(H) == 0.0)

        classes = (out / "classes.csv").read_text().splitlines()
        assert classes[0] == "vertex,class_id,closed,period"
        assert len(classes) == 11

    def test_no_numpy_scalar_reprs_leak_into_artifacts(self, tmp_path):
        out = tmp_path / "out"
        main(["analyze", "--map", DEMO_MAP, "--out-dir", str(out)])
        for artifact in out.iterdir():
            assert "np.float64" not in artifact.read_text()

    def test_reducible_map_warns_and_still_succeeds(self, tmp_path, split_map, capsys):
        out = tmp_path / "out"
        assert main(["analyze", "--map", split_map, "--out-dir", str(out)]) == 0
        assert "reducible" in capsys.readouterr().err
        assert not (out / "stationary.csv").exists()
        summary = read_kv(out / "analysis_summary.csv")
        assert summary["irreducible"] == "false"
        assert summary["n_classes"] == "2"
        assert summary["mixing_rate"] == "" and summary["mixing_time"] == ""


class TestTable:
    def test_exact_mode_values(self, tmp_path, distances_file):
        out = tmp_path / "out"
        assert main(["table", "--distances", distances_file, "--out-dir", str(out)]) == 0
        lines = (out / "walking_table.csv").read_text().splitlines()
        assert lines[0] == "distance_m,normal_time_s,blind_time_s"
        d0 = [float(v) for v in lines[1].split(",")]
        assert d0 == pytest.approx([5.8, 10.0, 27.0])
        d1 = [float(v) for v in lines[2].split(",")]
        assert d1[1] == pytest.approx(102.0)
        ET.fromstring((out / "walking_table.svg").read_text())

    def test_paper_rounded_mode_changes_blind_column(self, tmp_path, distances_file):
        out = tmp_path / "out"
        main(["table", "--distances", distances_file, "--mode", "paper_rounded",
              "--out-dir", str(out)])
        lines = (out / "walking_table.csv").read_text().splitlines()
        blind = float(lines[1].split(",")[2])
        assert blind == pytest.approx(5.8 * 4.66)

    def test_bad_line_reports_number_and_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "d.txt"
        bad.write_text("5.8\noops\n", encoding="utf-8")
        assert main(["table", "--distances", str(bad), "--out-dir", str(tmp_path)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        missing = str(tmp_path / "nope.txt")
        assert main(["table", "--distances", missing, "--out-dir", str(tmp_path)]) == 2


class TestTransient:
    def test_artifacts_match_library(self, tmp_path, line_map):
        out = tmp_path / "out"
        rc = main(["transient", "--map", line_map, "--rate", "2.0", "--time", "1.5",
                   "--out-dir", str(out)])
        assert rc == 0
        Q = array_from_csv((out / "generator.csv").read_text())
        assert np.all(Q.sum(axis=1) == 0.0)
        Pt = array_from_csv((out / "transient.csv").read_text())
        sums = Pt.sum(axis=1)
        assert np.all(sums <= 1.0 + 1e-12) and np.all(sums >= 1.0 - 2e-9)

    def test_unachievable_tolerance_exits_1(self, tmp_path, line_map, capsys):
        rc = main(["transient", "--map", line_map, "--rate", "1.0", "--time", "1.0",
                   "--tolerance", "1e-20", "--out-dir", str(tmp_path)])
        assert rc == 1
        assert "tolerance" in capsys.readouterr().err

    def test_smallest_tolerance_at_long_horizon(self, tmp_path):
        # rate * time = 1000 at the smallest documented tolerance
        out = tmp_path / "out"
        rc = main(["transient", "--map", DEMO_MAP, "--rate", "1", "--time", "1000",
                   "--tolerance", "1e-13", "--out-dir", str(out)])
        assert rc == 0
        sums = array_from_csv((out / "transient.csv").read_text()).sum(axis=1)
        assert np.all(sums >= 1.0 - 1e-13) and np.all(sums <= 1.0)

    def test_window_too_wide_names_tolerance(self, tmp_path, line_map, capsys):
        rc = main(["transient", "--map", line_map, "--rate", "1", "--time", "1e12",
                   "--out-dir", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "--tolerance" in err and "Traceback" not in err

    def test_overflowing_rate_times_time_exits_1(self, tmp_path, line_map, capsys):
        rc = main(["transient", "--map", line_map, "--rate", "1e200", "--time", "1e200",
                   "--out-dir", str(tmp_path)])
        assert rc == 1
        assert "not finite" in capsys.readouterr().err


class TestSimulate:
    def test_trace_artifact_parses_with_truth(self, tmp_path, line_map):
        out = tmp_path / "out"
        rc = main(["simulate", "--map", line_map, "--steps", "20", "--out-dir", str(out)])
        assert rc == 0
        tr = trace_from_csv((out / "trace.csv").read_text())
        assert len(tr) == 21
        assert tr.has_truth()

    def test_noiseless_fixes_sit_on_vertices(self, tmp_path, line_map):
        out = tmp_path / "out"
        main(["simulate", "--map", line_map, "--steps", "10", "--out-dir", str(out)])
        tr = trace_from_csv((out / "trace.csv").read_text())
        for x, y in tr.xy.tolist():
            assert x in (0.0, 5.8, 11.6)
            assert y == 0.0

    def test_seed_controls_bytes(self, tmp_path, line_map):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        main(["simulate", "--map", line_map, "--steps", "30", "--noise-sigma", "0.5",
              "--out-dir", str(a)])
        main(["simulate", "--map", line_map, "--steps", "30", "--noise-sigma", "0.5",
              "--out-dir", str(b)])
        main(["simulate", "--map", line_map, "--steps", "30", "--noise-sigma", "0.5",
              "--seed", "7", "--out-dir", str(c)])
        assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
        assert (a / "trace.csv").read_bytes() != (c / "trace.csv").read_bytes()

    def test_custom_profile_config_changes_pace(self, tmp_path, line_map):
        cfg = tmp_path / "profile.json"
        cfg.write_text(json.dumps({"name": "brisk", "step_length_m": 1.16,
                                   "step_period_s": 1.0}), encoding="utf-8")
        out_n, out_c = tmp_path / "n", tmp_path / "c"
        main(["simulate", "--map", line_map, "--steps", "5", "--out-dir", str(out_n)])
        main(["simulate", "--map", line_map, "--steps", "5", "--profile-config", str(cfg),
              "--out-dir", str(out_c)])
        t_normal = trace_from_csv((out_n / "trace.csv").read_text()).t[-1]
        t_brisk = trace_from_csv((out_c / "trace.csv").read_text()).t[-1]
        assert t_normal == pytest.approx(2.0 * t_brisk)

    def test_unknown_profile_exits_1(self, tmp_path, line_map):
        rc = main(["simulate", "--map", line_map, "--profile", "sprinting",
                   "--out-dir", str(tmp_path)])
        assert rc == 1


class TestTrack:
    def test_full_run_with_obstacles(self, tmp_path):
        out = tmp_path / "out"
        rc = main([
            "track", "--map", DEMO_MAP, "--obstacles", DEMO_OBSTACLES,
            "--steps", "40", "--noise-sigma", "1.0", "--out-dir", str(out),
        ])
        assert rc == 0

        log_lines = (out / "alerts.log").read_text().splitlines()
        kinds = [ln.split("\t")[1] for ln in log_lines]
        assert "obstacle_warning" in kinds
        assert "hold_position" in kinds
        assert kinds[-1] == "destination_reached"
        for ln in log_lines:
            assert len(ln.split("\t")) == 4

        path_lines = (out / "path.csv").read_text().splitlines()
        assert path_lines[0] == "t_s,snap_vertex,smooth_vertex,x_m,y_m,truth_vertex"
        assert len(path_lines) == 42

        summary = {ln.split(",")[0]: float(ln.split(",")[1])
                   for ln in (out / "summary.csv").read_text().splitlines()[1:]}
        assert summary["reference_prototype"] == 0.18
        assert summary["smooth"] <= summary["snap"] + 1e-9

        held = array_from_csv((out / "held_transition.csv").read_text())
        assert np.allclose(held.sum(axis=1), 1.0, atol=1e-12)
        held_states = np.flatnonzero(np.diag(held) == 1.0)
        assert held_states.size > 0

        delivery = json.loads((out / "delivery.json").read_text())
        (sink_name, counts), = delivery.items()
        assert sink_name.startswith("file:")
        assert counts["failed"] == 0
        assert counts["delivered"] == len(log_lines)

    def test_rerun_rewrites_identical_alert_log(self, tmp_path):
        out = tmp_path / "out"
        args = ["track", "--map", DEMO_MAP, "--obstacles", DEMO_OBSTACLES,
                "--steps", "40", "--noise-sigma", "1.0", "--out-dir", str(out)]
        main(args)
        first = (out / "alerts.log").read_bytes()
        main(args)  # log is truncated fresh, not appended across runs
        assert (out / "alerts.log").read_bytes() == first

    def test_without_obstacles_only_destination_event(self, tmp_path, line_map):
        out = tmp_path / "out"
        rc = main(["track", "--map", line_map, "--steps", "10", "--out-dir", str(out)])
        assert rc == 0
        log_lines = (out / "alerts.log").read_text().splitlines()
        assert len(log_lines) == 1
        assert log_lines[0].split("\t")[1] == "destination_reached"
        assert not (out / "held_transition.csv").exists()

    def test_accepts_external_trace(self, tmp_path, line_map):
        sim_out, track_out = tmp_path / "sim", tmp_path / "track"
        main(["simulate", "--map", line_map, "--steps", "15", "--noise-sigma", "0.3",
              "--out-dir", str(sim_out)])
        rc = main(["track", "--map", line_map, "--trace", str(sim_out / "trace.csv"),
                   "--out-dir", str(track_out)])
        assert rc == 0
        assert len((track_out / "path.csv").read_text().splitlines()) == 17

    def test_truth_scanned_a_fixed_number_of_times(self, tmp_path, monkeypatch):
        calls = []
        has_truth = Trace.has_truth

        def counted(self):
            calls.append(len(self))
            return has_truth(self)

        monkeypatch.setattr(Trace, "has_truth", counted)
        for steps in (10, 400):
            calls.clear()
            out = tmp_path / str(steps)
            assert main(["track", "--map", DEMO_MAP, "--steps", str(steps), "--noise-sigma", "1.0",
                         "--out-dir", str(out)]) == 0
            # once in track and once per localization_error, not once per fix
            assert len(calls) <= 3
            assert (out / "path.csv").read_text() == _path_csv(DEMO_MAP, steps, 1.0)

    def test_path_csv_without_truth(self, tmp_path):
        sim, out = tmp_path / "sim", tmp_path / "out"
        main(["simulate", "--map", DEMO_MAP, "--steps", "30", "--noise-sigma", "1.0",
              "--out-dir", str(sim)])
        lines = (sim / "trace.csv").read_text().splitlines()
        header = lines[0].split(",")
        keep = [i for i, name in enumerate(header) if name != "truth_vertex"]
        (sim / "bare.csv").write_text(
            "\n".join(",".join(ln.split(",")[i] for i in keep) for ln in lines) + "\n")
        assert main(["track", "--map", DEMO_MAP, "--trace", str(sim / "bare.csv"),
                     "--out-dir", str(out)]) == 0
        path_lines = (out / "path.csv").read_text().splitlines()
        assert path_lines[0] == "t_s,snap_vertex,smooth_vertex,x_m,y_m"
        assert len(path_lines) == 32 and all(ln.count(",") == 4 for ln in path_lines)

    def test_dead_webhook_recorded_in_delivery(self, tmp_path, line_map):
        out = tmp_path / "out"
        rc = main(["track", "--map", line_map, "--steps", "5", "--out-dir", str(out),
                   "--webhook", "http://127.0.0.1:9/unreachable"])
        assert rc == 0  # sink failure is reported, not fatal
        delivery = json.loads((out / "delivery.json").read_text())
        webhook = [v for k, v in delivery.items() if k.startswith("webhook:")]
        assert webhook[0]["failed"] >= 1


class TestReport:
    def test_default_survey_report(self, tmp_path):
        out = tmp_path / "out"
        assert main(["report", "--mode", "paper_rounded", "--out-dir", str(out)]) == 0
        lines = (out / "walking_table.csv").read_text().splitlines()
        assert len(lines) == 30  # header + 29 survey segments
        for name in ("segment_distances.svg", "travel_times.svg", "walk_progress.svg"):
            ET.fromstring((out / name).read_text())

    def test_overflowing_running_total_exits_1_before_writing(self, tmp_path, capsys):
        # each line is within travel_time's range; the blind time total overflows at line 4
        dist = tmp_path / "big.txt"
        dist.write_text("1e307\n" * 10, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["report", "--distances", str(dist), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert "distances file line 4: running blind time total overflows" in err
        assert not out.exists()
        assert main(["table", "--distances", str(dist), "--out-dir", str(out)]) == 0


class TestErrors:
    def test_missing_map_exits_2(self, tmp_path, capsys):
        rc = main(["analyze", "--map", str(tmp_path / "ghost.json"),
                   "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_json_map_exits_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["analyze", "--map", str(bad), "--out-dir", str(tmp_path)]) == 1

    def test_schema_violation_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"vertices": [{"id": 0, "lat": 1.0}], "edges": []}),
                       encoding="utf-8")
        assert main(["analyze", "--map", str(bad), "--out-dir", str(tmp_path)]) == 1
        assert "lon" in capsys.readouterr().err

    def test_unknown_subcommand_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["teleport"])

    def test_flags_of_other_subcommands_rejected(self, capsys):
        for argv in (["analyze", "--map", DEMO_MAP, "--tolerance", "1e-3"],
                     ["analyze", "--map", DEMO_MAP, "--mode", "exact"],
                     ["simulate", "--map", DEMO_MAP, "--tolerance", "1e-9"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_seed_belongs_to_simulate_and_track(self, tmp_path, capsys, distances_file):
        for argv in (["analyze", "--map", DEMO_MAP],
                     ["table", "--distances", distances_file],
                     ["transient", "--map", DEMO_MAP, "--rate", "1", "--time", "1"],
                     ["report"]):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--seed", "1", "--out-dir", str(tmp_path)])
            assert exc.value.code == 2
            assert "unrecognized arguments: --seed" in capsys.readouterr().err

    def test_each_walk_subcommand_keeps_its_default_profile(self, tmp_path, line_map):
        def run(*argv):
            out = tmp_path / "_".join(argv)
            assert main([*argv, "--map", line_map, "--steps", "6", "--out-dir", str(out)]) == 0
            return (out / ("trace.csv" if argv[0] == "simulate" else "path.csv")).read_bytes()

        assert run("simulate") == run("simulate", "--profile", "normal")
        assert run("simulate") != run("simulate", "--profile", "blind")
        assert run("track") == run("track", "--profile", "blind")
        assert run("track") != run("track", "--profile", "normal")


class TestInputContract:
    """Malformed inputs exit 1 with the offending field named and no traceback."""

    def test_truth_vertex_out_of_range(self, tmp_path, line_map, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text("t_s,x_m,y_m,truth_vertex\n0.0,0.0,0.0,0\n1.0,5.8,0.0,3\n",
                         encoding="utf-8")
        out = tmp_path / "out"
        rc = main(["track", "--map", line_map, "--trace", str(trace), "--out-dir", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "trace line 3: truth_vertex 3" in err and "Traceback" not in err
        assert not out.exists()  # rejected before any artifact is written

    def test_obstacle_with_null_coordinate(self, tmp_path, line_map, capsys):
        obstacles = tmp_path / "obstacles.json"
        obstacles.write_text(json.dumps([{"id": 1, "kind": "stationary", "x": None, "y": 0.0}]),
                             encoding="utf-8")
        rc = main(["track", "--map", line_map, "--steps", "3", "--obstacles", str(obstacles),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert "obstacle[0].x" in capsys.readouterr().err

    def test_duplicate_obstacle_ids(self, tmp_path, line_map, capsys):
        obstacles = tmp_path / "obstacles.json"
        obstacles.write_text(json.dumps([
            {"id": 7, "kind": "stationary", "x": 0.0, "y": 0.0},
            {"id": 7, "kind": "stationary", "x": 5.0, "y": 0.0},
        ]), encoding="utf-8")
        rc = main(["track", "--map", line_map, "--steps", "3", "--obstacles", str(obstacles),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert "obstacle[1].id: duplicate id 7" in capsys.readouterr().err

    def test_profile_config_with_null_step_length(self, tmp_path, line_map, capsys):
        config = tmp_path / "profile.json"
        config.write_text(json.dumps({"name": "slow", "step_length_m": None,
                                      "step_period_s": 1.0}), encoding="utf-8")
        rc = main(["simulate", "--map", line_map, "--profile-config", str(config),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert "step_length_m" in capsys.readouterr().err

    @pytest.mark.parametrize("rows, named", [
        ("0.0,0.0,0.0,0\nabc,5.8,0.0,1\n", "trace line 3: t_s: expected a number, got 'abc'"),
        ("0.0,0.0,0.0,0\n1.0,inf,0.0,1\n", "trace line 3: x_m: local coordinates must be finite"),
        ("0.0,0.0,0.0,0\n1.0,5.8,0.0,1\n2.0,11.6,nan,2\n",
         "trace line 4: y_m: local coordinates must be finite"),
        ("0.0,0.0,0.0,0\n1.0,5.8,0.0,1.0\n",
         "trace line 3: truth_vertex: expected an integer vertex id, got '1.0'"),
        ("0.0,0.0,0.0,0\n2.0,5.8,0.0,1\n1.5,11.6,0.0,2\n",
         "trace line 4: t_s: fix timestamps must strictly increase, got 2.0 then 1.5"),
    ], ids=["time_not_a_number", "infinite_x", "nan_y", "fractional_truth", "time_goes_back"])
    def test_trace_field_errors_name_the_line(self, tmp_path, line_map, capsys, rows, named):
        trace = tmp_path / "trace.csv"
        trace.write_text("t_s,x_m,y_m,truth_vertex\n" + rows, encoding="utf-8")
        out = tmp_path / "out"
        rc = main(["track", "--map", line_map, "--trace", str(trace), "--out-dir", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "track"])
    @pytest.mark.parametrize("sigma", ["nan", "inf", "-inf", "-1"])
    def test_noise_sigma_must_be_finite_and_non_negative(self, tmp_path, line_map, capsys,
                                                         command, sigma):
        out = tmp_path / "out"
        rc = main([command, "--map", line_map, "--steps", "5", f"--noise-sigma={sigma}",
                   "--out-dir", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --noise-sigma") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "track"])
    def test_steps_beyond_memory_names_the_flag(self, tmp_path, line_map, capsys, command):
        # 10^12 steps fail at the first allocation, so nothing large is ever held
        out = tmp_path / "out"
        rc = main([command, "--map", line_map, "--steps", str(10**12), "--out-dir", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --steps 1000000000000") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--steps", str(2**63)), ("--steps", str(10**30)),
                                             ("--steps", str(2**60 - 1)),
                                             ("--noise-sigma", "1e308")])
    def test_values_beyond_numpy_and_float_range_name_the_flag(self, tmp_path, line_map, capsys,
                                                               flag, value):
        # numpy refuses such a draw with a ValueError of its own; such noise puts a fix at -inf
        out = tmp_path / "out"
        argv = ["simulate", "--map", line_map, "--steps", "5", f"{flag}={value}"]
        assert main(argv + ["--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} ") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("source, named", [
        ("noise", "error: --noise-sigma 1e+200: fix 0: squared distance to every vertex overflows"),
        ("file", "error: trace line 4: fix 1: squared distance to every vertex overflows"),
    ], ids=["noise_sigma", "trace_file"])
    def test_fix_too_far_from_the_map(self, tmp_path, line_map, capsys, source, named):
        # finite fixes whose squared distances overflow: no sigma can help
        out = tmp_path / "out"
        argv = ["track", "--map", line_map, "--out-dir", str(out)]
        if source == "noise":
            argv += ["--steps", "3", "--noise-sigma", "1e200"]
        else:
            trace = tmp_path / "trace.csv"  # a blank line 3: lines are counted as in the file
            trace.write_text("t_s,x_m,y_m,truth_vertex\n0.0,0.0,0.0,0\n\n1,1e200,0\n",
                             encoding="utf-8")
            argv += ["--trace", str(trace)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(named) and "RuntimeWarning" not in err and "Traceback" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()

    @pytest.mark.parametrize("source, named", [
        ("noise", "error: --noise-sigma 100000.0: no state has positive probability at fix 0; "
                  "widen emission_sigma"),
        ("file", "error: trace line 4: no positive-probability path survives to fix 1; "
                 "widen emission_sigma"),
    ], ids=["noise_sigma", "trace_file"])
    def test_dead_trellis_names_the_fix_source(self, tmp_path, line_map, capsys, source, named):
        # finite squared distances whose scores overflow at this sigma: no path survives
        out = tmp_path / "out"
        argv = ["track", "--map", line_map, "--emission-sigma", "1e-150", "--out-dir", str(out)]
        if source == "noise":
            argv += ["--steps", "3", "--noise-sigma", "1e5"]
        else:
            trace = tmp_path / "trace.csv"  # a blank line 3: lines are counted as in the file
            trace.write_text("t_s,x_m,y_m,truth_vertex\n0.0,0.0,0.0,0\n\n1,1e5,0,1\n",
                             encoding="utf-8")
            argv += ["--trace", str(trace)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(named) and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("profile, vertices_x, named", [
        ((5e-324, 1.0), (0.0, 5.8), "step_length 5e-324 and step_period 1.0 give a speed of "
                                    "5e-324 m/s and a pace of inf s/m; both must be finite and > 0"),
        ((1e300, 1e-300), (0.0, 5.8), "step_length 1e+300 and step_period 1e-300 give a speed of "
                                      "inf m/s and a pace of 0.0 s/m; both must be finite and > 0"),
        (None, (-1e308, 1e308), "step 1, edge 0 -> 1: fix time must be finite and >= 0, got inf"),
        (None, (0.0, 0.0), "step 1, edge 0 -> 1: fix timestamps must strictly increase, "
                           "got 0.0 then 0.0"),
    ], ids=["pace_overflows", "speed_overflows", "edge_overflows", "edge_of_zero_length"])
    def test_walk_time_out_of_range_names_its_input(self, tmp_path, capsys, profile, vertices_x,
                                                    named):
        # the module's filterwarnings mark turns a numpy RuntimeWarning into a test error
        out = tmp_path / "out"
        two = tmp_path / "two.json"
        two.write_text(json.dumps({"vertices": [{"id": k, "x": x, "y": 0.0}
                                                for k, x in enumerate(vertices_x)],
                                   "edges": [[0, 1]]}), encoding="utf-8")
        argv = ["simulate", "--map", str(two), "--steps", "3", "--out-dir", str(out)]
        if profile:
            config = tmp_path / "profile.json"
            config.write_text(json.dumps({"name": "p", "step_length_m": profile[0],
                                          "step_period_s": profile[1]}), encoding="utf-8")
            argv += ["--profile-config", str(config)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {named}\n"
        assert not out.exists()

    def test_negative_steps_name_the_flag(self, tmp_path, line_map, capsys):
        rc = main(["simulate", "--map", line_map, "--steps", "-1",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: --steps must be >= 0")

    def test_malformed_webhook_url_is_a_failed_delivery(self, tmp_path, line_map):
        out = tmp_path / "out"
        rc = main(["track", "--map", line_map, "--steps", "5", "--out-dir", str(out),
                   "--webhook", "notaurl"])
        assert rc == 0  # dispatch records sink failures and never raises them
        delivery = json.loads((out / "delivery.json").read_text())
        assert delivery["webhook:notaurl"] == {"delivered": 0, "failed": 1}
        assert (out / "alerts.log").read_text().count("\n") == 1

    @pytest.mark.parametrize("command", ["table", "report"])
    @pytest.mark.parametrize("text, named", [
        ("5.0\n-3\n", "line 2: distance must be finite and >= 0, got -3.0"),
        ("5.0\n\ninf\n", "line 3: distance must be finite and >= 0, got inf"),
        ("1e308\n", "line 1: travel time over 1e+308 m overflows"),
    ], ids=["negative", "infinite", "overflowing_time"])
    def test_distance_errors_name_the_line(self, tmp_path, capsys, command, text, named):
        distances = tmp_path / "d.txt"
        distances.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        rc = main([command, "--distances", str(distances), "--out-dir", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: distances file {named}\n"
        assert not out.exists()
