#!/usr/bin/env python3
"""Compare two checkouts of walkchain on the benchmark's jobs.

    python3 scripts/ab.py artifacts PARENT_DIR CHANGE_DIR [--seeds 1 4242]

Artifact mode writes every job of each benchmark workload and seed into a
scratch directory, through PARENT_DIR's ``bench/workloads.py``. Then it runs
every job once in a fresh process of each tree: the tree's ``src`` and
``bench`` on the path, one BLAS thread, each job one in-process
``bench/worker.py::run_job`` call. It prints one JSON line with the number of
jobs compared and every job whose exit code, stderr, or any artifact's name or
bytes differ between the trees, with the names of the differing files. It
exits 1 when a job differs. Nothing is written under either tree: the scratch
directory is ``--work`` or a temporary one, removed at the end.

``--workloads`` and ``--jobs N`` (the first N jobs of each) narrow the run for
a quick check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("chain_reports", "track_large", "track_small")

#: generates one workload's jobs, run with the parent's bench on the path
_GENERATE = "import sys, workloads; workloads.generate(sys.argv[1], int(sys.argv[2]), sys.argv[3])"

#: runs JOBS once each and writes {id: [exit code, stderr, {file: sha256}]} to RESULT
_RUN = r"""
import contextlib, hashlib, json, shutil, sys
from pathlib import Path
import worker
from walkchain import cli
jobs, result = Path(sys.argv[1]), Path(sys.argv[2])
seen = {}
with contextlib.redirect_stdout(worker._Discard()):
    for job in json.loads(jobs.read_text(encoding="utf-8")):
        out = Path(job["out"])
        shutil.rmtree(out, ignore_errors=True)
        rc, _, err = worker.run_job(cli, job)
        files = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                 for f in sorted(out.iterdir())} if out.is_dir() else {}
        shutil.rmtree(out, ignore_errors=True)
        seen[job["id"]] = [rc, err, files]
result.write_text(json.dumps(seen), encoding="utf-8")
"""


def _env(tree: Path) -> dict[str, str]:
    """A child's environment: ``tree``'s src and bench first on the path, one BLAS thread."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tree / "src"), str(tree / "bench")]),
               PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _python(tree: Path, work: Path, *args: str) -> None:
    subprocess.run([sys.executable, *args], cwd=work, env=_env(tree), check=True)


def _differences(jobs: list[dict], parent: dict, change: dict) -> list[dict]:
    """One entry per job whose exit code, stderr or artifact names or bytes differ."""
    out = []
    for job in jobs:
        (rc_a, err_a, files_a), (rc_b, err_b, files_b) = parent[job["id"]], change[job["id"]]
        names = sorted(name for name in files_a.keys() | files_b.keys()
                       if files_a.get(name) != files_b.get(name))
        if rc_a != rc_b or err_a != err_b or names:
            out.append({"job": job["id"], "kind": job["kind"], "exit": [rc_a, rc_b],
                        "stderr_differs": err_a != err_b, "files": names})
    return out


def artifacts(parent: Path, change: Path, seeds: list[int], workloads: list[str],
              limit: int | None, work: Path) -> dict:
    """Run every selected job in both trees and compare; see the module docstring."""
    report = {"mode": "artifacts", "seeds": seeds, "workloads": workloads, "jobs": 0,
              "files": 0, "differ": []}
    for name in workloads:
        for seed in seeds:
            case = f"{name}-{seed}"
            _python(parent, work, "-c", _GENERATE, name, str(seed), case)
            jobs = json.loads((work / case / "jobs.json").read_text(encoding="utf-8"))[:limit]
            selected = work / f"{case}.jobs.json"
            selected.write_text(json.dumps(jobs), encoding="utf-8")
            results = []
            for side, tree in (("parent", parent), ("change", change)):
                result = work / f"{case}.{side}.json"
                _python(tree, work, "-c", _RUN, selected.name, result.name)
                results.append(json.loads(result.read_text(encoding="utf-8")))
            report["jobs"] += len(jobs)
            report["files"] += sum(len(files) for _, _, files in results[0].values())
            report["differ"] += [dict(workload=name, seed=seed, **d)
                                 for d in _differences(jobs, *results)]
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    modes = parser.add_subparsers(dest="mode", required=True)
    art = modes.add_parser("artifacts", help="compare every job's exit code, stderr and artifacts")
    art.add_argument("parent", type=Path, help="checkout of the parent commit")
    art.add_argument("change", type=Path, help="checkout of the change")
    art.add_argument("--seeds", type=int, nargs="+", default=[1, 4242])
    art.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    art.add_argument("--jobs", type=int, default=None, help="only the first N jobs of each")
    art.add_argument("--work", type=Path, default=None,
                     help="scratch directory, outside both trees (default: a temporary one)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    for tree in (parent, change):
        if not (tree / "src" / "walkchain").is_dir() or not (tree / "bench" / "worker.py").is_file():
            raise SystemExit(f"error: {tree} is not a walkchain checkout with src/ and bench/")
    work = Path(tempfile.mkdtemp(prefix="ab-")) if args.work is None else args.work.resolve()
    work.mkdir(parents=True, exist_ok=True)
    try:
        report = artifacts(parent, change, args.seeds, args.workloads, args.jobs, work)
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(report))
    return 1 if report["differ"] else 0


if __name__ == "__main__":
    sys.exit(main())
