"""scripts/ab.py's artifact mode on a few benchmark jobs of copies of this tree."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
AB = ROOT / "scripts" / "ab.py"
#: the classes.csv header, one byte of which the mutant changes
HEADER = '"vertex,class_id,closed,period"'


def _tree(where: Path) -> Path:
    for part in ("src", "bench"):
        shutil.copytree(ROOT / part, where / part, ignore=shutil.ignore_patterns("__pycache__"))
    return where


def _compare(parent: Path, change: Path, work: Path) -> tuple[int, dict]:
    run = subprocess.run([sys.executable, str(AB), "artifacts", str(parent), str(change),
                          "--seeds", "1", "--workloads", "chain_reports", "--jobs", "4",
                          "--work", str(work)], capture_output=True, text=True, timeout=120)
    return run.returncode, json.loads(run.stdout.splitlines()[-1])


def test_a_copy_matches_and_a_one_byte_mutant_is_named(tmp_path):
    a, b, c = (_tree(tmp_path / name) for name in "abc")
    cli = c / "src" / "walkchain" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert text.count(HEADER) == 1
    cli.write_text(text.replace(HEADER, HEADER.replace("period", "periox")), encoding="utf-8")

    rc, same = _compare(a, b, tmp_path / "w1")
    assert rc == 0 and same["jobs"] == 4 and same["files"] > 0 and same["differ"] == []

    rc, mutant = _compare(a, c, tmp_path / "w2")
    jobs = json.loads((tmp_path / "w2" / "chain_reports-1.jobs.json").read_text(encoding="utf-8"))
    analyses = [j["id"] for j in jobs if j["kind"] == "analyze"]
    assert rc == 1 and mutant["jobs"] == 4 and len(analyses) == 3
    assert mutant["differ"] == [{"workload": "chain_reports", "seed": 1, "job": jid,
                                 "kind": "analyze", "exit": [0, 0], "stderr_differs": False,
                                 "files": ["classes.csv"]} for jid in analyses]
    for tree in (a, b, c):  # nothing is written into either tree
        assert not list((tree / "bench").rglob("__pycache__"))
        assert sorted(p.name for p in tree.iterdir()) == ["bench", "src"]


def test_a_work_directory_inside_either_tree_is_refused(tmp_path):
    a, b = (_tree(tmp_path / name) for name in "ab")
    before = sorted(tmp_path.rglob("*"))
    for work, tree in ((a / "w", a), (b, b), (b / "src" / "w", b)):
        run = subprocess.run([sys.executable, str(AB), "artifacts", str(a), str(b),
                              "--work", str(work)], capture_output=True, text=True, timeout=60)
        assert run.returncode == 1 and run.stdout == ""
        assert run.stderr == f"error: --work {work.resolve()} is inside the tree {tree.resolve()}\n"
    assert sorted(tmp_path.rglob("*")) == before
