"""The measured process: one client running a workload's jobs in a closed loop.

    python3 bench/worker.py WORK SECONDS TRACE

Runs from the checkout root with ``src`` on PYTHONPATH. Each job is one
in-process ``walkchain.cli.main(argv)`` call, and only that call is timed;
the next job starts when it returns, until SECONDS have passed and the
current block of jobs is complete. Between jobs the worker hashes the job's
artifacts and keeps one copy of each distinct output under WORK/kept-TRACE
for the checker. With TRACE 1 the calls are traced and the spans are written
to WORK/spans.json when the loop ends. Results go to WORK/result-TRACE.json.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path

from tracer import Tracer


def digest(out: Path) -> tuple[str, int]:
    """(sha256 over every file's name and bytes, total bytes) of one job's artifacts."""
    h = hashlib.sha256()
    size = 0
    if out.is_dir():
        for f in sorted(out.iterdir()):
            data = f.read_bytes()
            h.update(f.name.encode() + b"\0" + data + b"\0")
            size += len(data)
    return h.hexdigest(), size


class _Discard(io.TextIOBase):
    """Stdout sink for the CLI's progress lines."""

    def write(self, text: str) -> int:
        return len(text)


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB.

    Reads VmHWM: on Linux ru_maxrss keeps the parent's peak across fork and
    exec, so it would report the runner's memory when that is larger.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_job(cli, job: dict) -> tuple[int, float, str]:
    """(exit code, seconds, stderr) of one CLI call; a raised exception exits -1."""
    argv = job["argv"] + ["--out-dir", job["out"]]
    err = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a traceback is a failed job, not a failed benchmark
        rc = -1
        err.write(f"{type(exc).__name__}: {exc}")
    return rc, time.perf_counter() - start, err.getvalue()


def run_loop(jobs: list[dict], seconds: float, kept: Path, tracer: Tracer | None = None) -> dict:
    """Run jobs in order, cycling, until ``seconds`` have passed and a block is complete.

    Stopping only between blocks keeps the mix of every run the same. Each
    record is [job id, seconds, exit code, artifact bytes, artifact
    digest, stderr tail when the exit code is not 0].
    """
    from walkchain import cli

    shutil.rmtree(kept, ignore_errors=True)
    kept.mkdir(parents=True)
    with contextlib.redirect_stdout(_Discard()):
        warm = jobs[0]
        run_job(cli, warm)  # first-call costs of numpy and the program
        shutil.rmtree(warm["out"], ignore_errors=True)
        if tracer is not None:
            tracer.reset()
        seen: set[tuple[str, str]] = set()
        records = []
        start = time.perf_counter()
        while True:
            job = jobs[len(records) % len(jobs)]
            out = Path(job["out"])
            shutil.rmtree(out, ignore_errors=True)
            if tracer is not None:
                tracer.job = len(records)
            rc, secs, err = run_job(cli, job)
            key, size = digest(out)
            if (job["id"], key) not in seen and out.is_dir():
                seen.add((job["id"], key))
                out.rename(kept / f"{job['id']}.{key[:16]}")
            records.append([job["id"], secs, rc, size, key, err[-400:] if rc else ""])
            nxt = len(records) % len(jobs)
            if time.perf_counter() - start >= seconds and (
                    nxt == 0 or jobs[nxt]["block"] != job["block"]):
                break
        phase = time.perf_counter() - start
    return {"phase_s": phase, "records": records, "peak_rss_mb": peak_rss_mb()}


def main(argv: list[str]) -> int:
    work, seconds, trace = Path(argv[0]), float(argv[1]), argv[2] == "1"
    jobs = json.loads((work / "jobs.json").read_text(encoding="utf-8"))
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    result = run_loop(jobs, seconds, work / f"kept-{argv[2]}", tracer)
    if tracer is not None:
        tracer.uninstall()
        (work / "spans.json").write_text(json.dumps(
            {"fields": ["span", "job", "parent", "name", "start", "end"],
             "spans": tracer.spans, "counts": tracer.counts}), encoding="utf-8")
    (work / f"result-{argv[2]}.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
