"""walkchain benchmark: seeded CLI workloads, checked artifacts, end-to-end and per-layer metrics.

    python3 bench/run.py --workload chain_reports --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload, one row each

For each workload the runner generates every input from the seed, measures
set-up time in fresh interpreters, runs the jobs in a fresh worker process
(one client, closed loop) and checks every distinct artifact set against the
references in ``oracle.py``. It prints one row per workload with every
end-to-end metric and its unit. The last stdout line is a JSON object; with
``--trace 0`` it carries the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced worker run after the untraced one, and the
tracing overhead between the two. Paths resolve from this file, and scratch
files go to ``.bench_work/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

import oracle
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = tuple(workloads.WHY)
SETUP_REPEATS = 7
SETUP_CODE = ("import time; t0 = time.perf_counter(); import walkchain.cli; "
              "walkchain.cli.build_parser(); print(time.perf_counter() - t0)")
#: (name, unit) of the end-to-end metrics the last line carries with --trace 0
END_TO_END = (("job_s_p50", "s"), ("job_s_tail", "s"), ("jobs_per_s", "1/s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))
TAIL_BEYOND = 10
#: a worker overruns --seconds by at most one block; this keeps a traced run under 180 s
WORKER_GRACE_S = 50


def measured_env() -> dict[str, str]:
    """Environment of measured processes: the checkout's ``src`` and one BLAS thread."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def machine() -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas,
            "loadavg": [round(x, 2) for x in os.getloadavg()]}


def setup_seconds(env: dict) -> list[float]:
    """Import walkchain and build the CLI parser in fresh interpreters, one at a time."""
    return [float(subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True,
                                 capture_output=True, text=True, timeout=60).stdout)
            for _ in range(SETUP_REPEATS)]


def run_worker(work: Path, seconds: float, trace: int, env: dict) -> dict:
    subprocess.run([sys.executable, str(ROOT / "bench" / "worker.py"), work.as_posix(),
                    repr(float(seconds)), str(trace)],
                   env=env, check=True, timeout=seconds + WORKER_GRACE_S)
    return json.loads((work / f"result-{trace}.json").read_text(encoding="utf-8"))


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with TAIL_BEYOND jobs above it.

    Of n sorted times that is the (TAIL_BEYOND + 1)-th largest, percentile
    100 (n - TAIL_BEYOND) / n by nearest rank; a run of TAIL_BEYOND jobs or
    fewer reports its fastest job.
    """
    xs = sorted(times)
    k = max(0, len(xs) - TAIL_BEYOND - 1)
    return xs[k], 100.0 * (k + 1) / len(xs)


def count_failed(records: list[list], jobs: dict[str, dict], kept: list[Path],
                 checker: oracle.Checker) -> tuple[int, list[str]]:
    """Jobs that exited non-zero, failed the artifact check or changed bytes on a rerun.

    Records are the worker's; each distinct artifact set is checked once.
    """
    verdict: dict[tuple[str, str], list[str]] = {}
    first: dict[str, str] = {}
    failed, notes = 0, []
    for jid, _, rc, _, key, err in records:
        if rc != 0:
            problems = [f"exit {rc}: {err.strip()}"]
        else:
            if (jid, key) not in verdict:
                dirs = [d / f"{jid}.{key[:16]}" for d in kept if (d / f"{jid}.{key[:16]}").is_dir()]
                verdict[jid, key] = checker.check(jobs[jid], dirs[0]) if dirs else ["no artifacts"]
            problems = verdict[jid, key]
        if first.setdefault(jid, key) != key:
            problems = problems + ["artifacts differ from the job's first run"]
        if problems:
            failed += 1
            notes += [f"{jid} ({jobs[jid]['kind']}): {p}" for p in problems]
    return failed, notes


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Generate, measure and check one workload; paths are relative to ROOT."""
    work = Path(".bench_work") / f"{name}-{seed}"
    jobs = {j["id"]: j for j in workloads.generate(name, seed, work)}
    env = measured_env()
    setup = statistics.median(setup_seconds(env))
    phases = [run_worker(work, seconds, t, env) for t in range(trace + 1)]
    records = [r for ph in phases for r in ph["records"]]
    kept = [work / f"kept-{t}" for t in range(trace + 1)]
    failed, notes = count_failed(records, jobs, kept, oracle.Checker(Path(".")))
    for d in kept + [work / "out"]:
        shutil.rmtree(d, ignore_errors=True)

    times = [r[1] for r in phases[0]["records"]]
    value, pct = tail(times)
    row = {"workload": name, "seed": seed, "jobs": len(times), "tail_percentile": pct,
           "attempted": len(records), "failed": failed, "notes": notes,
           "metrics": {"job_s_p50": statistics.median(times), "job_s_tail": value,
                       "jobs_per_s": len(times) / phases[0]["phase_s"], "setup_s": setup,
                       "peak_rss_mb": phases[0]["peak_rss_mb"],
                       "failed_frac": failed / len(records)}}
    if trace:
        spans = json.loads((work / "spans.json").read_text(encoding="utf-8"))
        traced = phases[1]["records"]
        layers = tracer.summarize(spans["spans"], spans["counts"], len(traced))
        layers["cli.bytes_out"] = statistics.mean(r[3] for r in traced)
        layers["trace.job_s_p50"] = statistics.median(r[1] for r in traced)
        layers["trace.overhead_s"] = layers["trace.job_s_p50"] - row["metrics"]["job_s_p50"]
        row["layers"] = layers
    return row


def print_row(row: dict) -> None:
    m = row["metrics"]
    print(f"{row['workload']:<14} job_s_p50={m['job_s_p50']:.4f} s  "
          f"job_s_tail={m['job_s_tail']:.4f} s (p{row['tail_percentile']:.1f} of {row['jobs']} jobs)  "
          f"jobs_per_s={m['jobs_per_s']:.3f} 1/s  setup_s={m['setup_s']:.4f} s  "
          f"peak_rss_mb={m['peak_rss_mb']:.1f} MB  failed_frac={m['failed_frac']:.4f} ratio")
    if "layers" in row:
        for name, unit in tracer.layer_metrics():
            if row["layers"][name]:
                print(f"  {name} = {row['layers'][name]:.6g} {unit}")
    for note in row["notes"][:20]:
        print(f"  FAILED {note}", file=sys.stderr)


def result_line(row: dict, trace: int) -> dict:
    if trace:
        metrics = {n: {"value": row["layers"][n], "unit": u} for n, u in tracer.layer_metrics()}
    else:
        metrics = {n: {"value": row["metrics"][n], "unit": u} for n, u in END_TO_END}
    return {"correct": row["failed"] == 0, "attempted": row["attempted"], "failed": row["failed"],
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run raises here, so subprocess.run kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "walkchain" / "cli.py").is_file():
        print(f"error: no walkchain sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    info = machine()
    print("# machine: " + " ".join(f"{k}={v}" for k, v in info.items()))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    rows = []
    for name in names:
        print(f"# {name} (seed {args.seed}, closed loop, 1 client): {workloads.WHY[name]}")
        rows.append(run_workload(name, args.seed, args.seconds, args.trace))
        print_row(rows[-1])
        Path(".bench_work", f"{name}-{args.seed}", "row.json").write_text(
            json.dumps(dict(rows[-1], machine=info), indent=1), encoding="utf-8")
    if len(rows) == 1:
        print(json.dumps(result_line(rows[0], args.trace)))
    else:
        print(json.dumps({r["workload"]: result_line(r, args.trace) for r in rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
