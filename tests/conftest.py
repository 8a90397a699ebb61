"""Shared strategies, the joint log score oracle and the acceptance-criteria summary printer."""

from __future__ import annotations

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st

from walkchain import PathGraph, StochasticMatrix, Trace
from walkchain.pipeline import _log_emissions

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")


@st.composite
def connected_graphs(draw, min_n: int = 2, max_n: int = 8) -> PathGraph:
    """Random connected simple graph: a random tree plus optional extra edges."""
    n = draw(st.integers(min_n, max_n))
    edges = set()
    for i in range(1, n):
        p = draw(st.integers(0, i - 1))
        edges.add((p, i))
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=10))
    for a, b in extra:
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return PathGraph([(float(k % 5), float(k // 5)) for k in range(n)], tuple(sorted(edges)))


@st.composite
def stochastic_matrices(draw, min_n: int = 2, max_n: int = 6) -> StochasticMatrix:
    """Random row-stochastic matrix with integer-weight rows."""
    n = draw(st.integers(min_n, max_n))
    rows = []
    for _ in range(n):
        w = draw(
            st.lists(st.integers(0, 10), min_size=n, max_size=n).filter(lambda ws: sum(ws) > 0)
        )
        rows.append(np.array(w, dtype=float) / sum(w))
    return StochasticMatrix(np.vstack(rows))


def sequence_log_score(
    seq: list[int], tr: Trace, g: PathGraph, P: StochasticMatrix, emission_sigma: float = 1.0
) -> float:
    """Joint log score (up to shared constants) of a state sequence for a trace."""
    if len(seq) != len(tr):
        raise ValueError(f"sequence length {len(seq)} != trace length {len(tr)}")
    if P.n != g.n:
        raise ValueError(f"matrix has {P.n} states but graph has {g.n} vertices")
    states = np.asarray(seq, dtype=int)
    bad = np.flatnonzero((states < 0) | (states >= g.n))
    if bad.size:
        raise ValueError(f"fix {bad[0]}: state {states[bad[0]]} outside 0..{g.n - 1}")
    log_em = _log_emissions(tr.positions(), g.positions()[states], emission_sigma)
    # P[a, b] of each step, looked up by row-major position a * n + b, in
    # which order the stored entries already are
    key = P.rows() * P.n + P.indices
    step = states[:-1] * P.n + states[1:]
    at = np.searchsorted(key, step)
    stored = at < key.size
    stored[stored] = key[at[stored]] == step[stored]
    p = np.zeros(step.size)
    p[stored] = P.data[at[stored]]
    with np.errstate(divide="ignore"):
        log_steps = np.log(p)
    score = float(log_em[0])
    for k in range(1, len(seq)):
        score += float(log_steps[k - 1]) + float(log_em[k])
    return score


# ---------------------------------------------------------------------------
# acceptance summary: one pass/fail line per criterion at the end of the run

_ACCEPTANCE: dict[str, dict] = {}


def pytest_collection_modifyitems(items):
    for item in items:
        if "test_acceptance.py" in item.nodeid:
            doc = (item.function.__doc__ or item.name).strip().splitlines()[0]
            _ACCEPTANCE[item.nodeid] = {"title": doc, "outcome": "not run"}


def pytest_runtest_logreport(report):
    entry = _ACCEPTANCE.get(report.nodeid)
    if entry is None:
        return
    if report.when == "call" or (report.when == "setup" and report.outcome != "passed"):
        entry["outcome"] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for nodeid in sorted(_ACCEPTANCE):
        entry = _ACCEPTANCE[nodeid]
        word = "PASS" if entry["outcome"] == "passed" else "FAIL"
        terminalreporter.write_line(f"[{word}] {entry['title']}")
