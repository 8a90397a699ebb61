"""Tests of the benchmark itself: seeded inputs, the artifact checker, failure counting."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import oracle
import run
import tracer
import worker
import workloads
from walkchain import cli

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", ["chain_reports", "track_small"])
def test_same_seed_same_inputs_and_other_seed_differs(name, tmp_path, monkeypatch):
    snapshots = []
    for where, seed in (("a", 5), ("b", 5), ("c", 6)):
        (tmp_path / where).mkdir()
        monkeypatch.chdir(tmp_path / where)
        workloads.generate(name, seed, Path("w"))
        snapshots.append(_files(Path("w")))
    assert snapshots[0] == snapshots[1]
    assert snapshots[0] != snapshots[2]


def _run_first(kind: str, workload: str, tmp_path, monkeypatch) -> dict:
    monkeypatch.chdir(tmp_path)
    job = next(j for j in workloads.generate(workload, 2, Path("w")) if j["kind"] == kind)
    assert cli.main(job["argv"] + ["--out-dir", job["out"]]) == 0
    assert oracle.Checker(Path(".")).check(job, Path(job["out"])) == []
    return job


def test_checker_rejects_corrupted_path(tmp_path, monkeypatch):
    job = _run_first("track", "track_small", tmp_path, monkeypatch)
    path = Path(job["out"]) / "path.csv"
    lines = path.read_text().splitlines()
    fields = lines[1].split(",")
    fields[2] = str(int(fields[2]) + 1)  # smooth_vertex of the first fix
    path.write_text("\n".join([lines[0], ",".join(fields)] + lines[2:]) + "\n")
    problems = oracle.Checker(Path(".")).check(job, Path(job["out"]))
    assert any("path.csv" in p for p in problems)


def test_checker_rejects_perturbed_stationary(tmp_path, monkeypatch):
    job = _run_first("analyze", "chain_reports", tmp_path, monkeypatch)
    path = Path(job["out"]) / "stationary.csv"
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    pi = [float(p) for _, p in rows]
    pi[0] *= 1.0 + 1e-6
    pi[1] -= pi[0] - float(rows[0][1])  # keep the sum at 1
    path.write_text("vertex,probability\n" + "".join(f"{v},{p!r}\n" for (v, _), p in zip(rows, pi)))
    problems = oracle.Checker(Path(".")).check(job, Path(job["out"]))
    assert any("stationary" in p for p in problems)


def test_job_exiting_1_counts_as_failed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("bad.json").write_text("{not json")
    job = {"id": "j0000", "block": 0, "kind": "analyze", "params": {"map": "bad.json"},
           "argv": ["analyze", "--map", "bad.json"], "out": "out/j0000"}
    result = worker.run_loop([job], 0.0, Path("kept"))
    assert [r[2] for r in result["records"]] == [1]
    failed, notes = run.count_failed(result["records"], {"j0000": job}, [Path("kept")],
                                     oracle.Checker(Path(".")))
    assert failed == 1 and "exit 1" in notes[0]


def test_tail_keeps_ten_jobs_beyond():
    assert run.tail([float(x) for x in range(100)]) == (89.0, 90.0)


def test_tracer_spans_cli_and_restores(tmp_path, monkeypatch):
    job = _run_first("analyze", "chain_reports", tmp_path, monkeypatch)
    original = cli.main
    t = tracer.Tracer()
    t.install()
    try:
        assert cli.main(job["argv"] + ["--out-dir", "traced"]) == 0
    finally:
        t.uninstall()
    assert cli.main is original
    layers = tracer.summarize(t.spans, t.counts, jobs=1)
    assert layers["cli.main.calls"] == 1
    assert layers["chains.analyze.calls"] == 1
    assert layers["chains.hitting_time.calls"] > 0
    assert layers["chains.self_s"] > 0 and layers["cli.self_s"] > 0


def test_benchmark_json_names_the_metrics_the_runner_reports():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracer.layer_metrics()
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == list(workloads.WHY.items())
