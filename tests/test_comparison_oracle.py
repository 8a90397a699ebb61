"""The columnar comparison module against its row-by-row reference.

``comparison_table``, ``table_to_csv``, ``line_plot`` and the ``table`` and
``report`` subcommands compute on numpy columns. The references below are the
row-by-row versions they replaced: one ``ComparisonRow`` per distance, one
f-string per CSV row, a Python loop for the running totals and one ``px``/``py``
call per plotted point. Every written file must match them byte for byte.
"""

from __future__ import annotations

import contextlib
import io
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from walkchain import (
    BLIND,
    MODES,
    NORMAL,
    SURVEY_DISTANCES_M,
    ComparisonRow,
    line_plot,
    travel_time,
)
from walkchain.cli import main

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


# -- references: the row-by-row module ----------------------------------------

def ref_comparison_table(distances, mode):
    return [
        ComparisonRow(
            distance=float(d),
            normal_time=travel_time(NORMAL, float(d), mode),
            blind_time=travel_time(BLIND, float(d), mode),
        )
        for d in distances
    ]


def ref_table_to_csv(rows):
    lines = ["distance_m,normal_time_s,blind_time_s"]
    lines += [f"{r.distance!r},{r.normal_time!r},{r.blind_time!r}" for r in rows]
    return "\n".join(lines) + "\n"


_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")
_W, _H = 720, 480
_ML, _MR, _MT, _MB = 72, 24, 40, 56


def _ref_ticks(lo, hi, count=6):
    if hi <= lo:
        hi = lo + 1.0
    span = (hi - lo) / (count - 1)
    return [lo + i * span for i in range(count)]


def ref_line_plot(series, title="", xlabel="", ylabel=""):
    all_x = [float(x) for _, xs, _ in series for x in xs]
    all_y = [float(y) for _, _, ys in series for y in ys]
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    if x_hi == x_lo:
        x_hi = max(x_lo + 1.0, math.nextafter(x_lo, math.inf))
    if y_hi == y_lo:
        y_hi = max(y_lo + 1.0, math.nextafter(y_lo, math.inf))
    pw = _W - _ML - _MR
    ph = _H - _MT - _MB

    def px(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * pw

    def py(y):
        return _MT + ph - (y - y_lo) / (y_hi - y_lo) * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
    ]
    if title:
        out.append(f'<text x="{_W / 2:.1f}" y="24" text-anchor="middle" font-size="15">{title}</text>')
    out.append(
        f'<path d="M {_ML} {_MT} V {_MT + ph} H {_ML + pw}" fill="none" stroke="black" stroke-width="1"/>'
    )
    for tx in _ref_ticks(x_lo, x_hi):
        out.append(f'<line x1="{px(tx):.2f}" y1="{_MT + ph}" x2="{px(tx):.2f}" y2="{_MT + ph + 5}" stroke="black"/>')
        out.append(f'<text x="{px(tx):.2f}" y="{_MT + ph + 20}" text-anchor="middle">{tx:.6g}</text>')
    for ty in _ref_ticks(y_lo, y_hi):
        out.append(f'<line x1="{_ML - 5}" y1="{py(ty):.2f}" x2="{_ML}" y2="{py(ty):.2f}" stroke="black"/>')
        out.append(f'<text x="{_ML - 8}" y="{py(ty) + 4:.2f}" text-anchor="end">{ty:.6g}</text>')
    if xlabel:
        out.append(f'<text x="{_ML + pw / 2:.1f}" y="{_H - 12}" text-anchor="middle">{xlabel}</text>')
    if ylabel:
        out.append(
            f'<text x="18" y="{_MT + ph / 2:.1f}" text-anchor="middle" '
            f'transform="rotate(-90 18 {_MT + ph / 2:.1f})">{ylabel}</text>'
        )
    for k, (label, xs, ys) in enumerate(series):
        color = _COLORS[k % len(_COLORS)]
        pts = " ".join(f"{px(float(x)):.2f},{py(float(y)):.2f}" for x, y in zip(xs, ys))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.8"/>')
    lx, ly = _ML + 12, _MT + 10
    for k, (label, _, _) in enumerate(series):
        color = _COLORS[k % len(_COLORS)]
        out.append(f'<line x1="{lx}" y1="{ly + 16 * k}" x2="{lx + 22}" y2="{ly + 16 * k}" stroke="{color}" stroke-width="2.5"/>')
        out.append(f'<text x="{lx + 28}" y="{ly + 16 * k + 4}">{label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _ref_table_rows(values, mode):
    """Rows of a distances file whose k-th value is on line k + 1, or the CLI's error."""
    try:
        return ref_comparison_table(values, mode)
    except ValueError:
        for k, d in enumerate(values, start=1):
            try:
                ref_comparison_table([d], mode)
            except ValueError as exc:
                raise ValueError(f"distances file line {k}: {exc}") from None
        raise


def _ref_table_svg(rows):
    ordered = sorted(rows, key=lambda r: r.distance)
    xs = [r.distance for r in ordered]
    return ref_line_plot(
        [("normal", xs, [r.normal_time for r in ordered]),
         ("blind", xs, [r.blind_time for r in ordered])],
        title="Walking time by segment length",
        xlabel="distance (m)",
        ylabel="time (s)",
    )


def ref_table(values, mode):
    rows = _ref_table_rows(values, mode)
    return {"walking_table.csv": ref_table_to_csv(rows), "walking_table.svg": _ref_table_svg(rows)}


def ref_report(values, mode):
    rows = _ref_table_rows(values, mode)
    cum_d, cum_n, cum_b = [0.0], [0.0], [0.0]
    for r in rows:
        cum_d.append(cum_d[-1] + r.distance)
        cum_n.append(cum_n[-1] + r.normal_time)
        cum_b.append(cum_b[-1] + r.blind_time)
    if math.isinf(cum_b[-1]):
        raise ValueError(f"distances file line {cum_b.index(math.inf)}: "
                         "running blind time total overflows")
    return {
        "walking_table.csv": ref_table_to_csv(rows),
        "segment_distances.svg": ref_line_plot(
            [("segment length", list(range(1, len(rows) + 1)), [r.distance for r in rows])],
            title="Surveyed segment lengths", xlabel="segment", ylabel="distance (m)"),
        "travel_times.svg": _ref_table_svg(rows),
        "walk_progress.svg": ref_line_plot(
            [("normal", cum_n, cum_d), ("blind", cum_b, cum_d)],
            title="Cumulative progress along the full route",
            xlabel="time (s)", ylabel="distance covered (m)"),
    }


# -- running the CLI -------------------------------------------------------------

def _run(argv, out: Path):
    """(exit code, stderr, {file name: text}) of one in-process CLI call."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv + ["--out-dir", str(out)])
    files = {f.name: f.read_bytes().decode("utf-8") for f in out.iterdir()} if out.exists() else {}
    return rc, err.getvalue(), files


def _expected(reference, values, mode):
    try:
        return 0, "", reference(values, mode)
    except ValueError as exc:
        return 1, f"error: {exc}\n", {}


def _check_command(command, values, mode):
    reference = {"table": ref_table, "report": ref_report}[command]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "distances.txt"
        path.write_text("".join(f"{v!r}\n" for v in values), encoding="utf-8")
        got = _run([command, "--distances", str(path), "--mode", mode], Path(tmp) / "out")
    assert got == _expected(reference, values, mode)


def _overflow_edge(mode):
    """The largest distance whose blind travel time is finite in ``mode``."""
    lo, hi = 1e300, 1e308  # finite blind time at lo, overflow at hi
    while math.nextafter(lo, math.inf) < hi:
        mid = lo + (hi - lo) / 2
        if math.isinf(BLIND.rounded_pace * mid if mode == "paper_rounded" else mid / BLIND.speed):
            hi = mid
        else:
            lo = mid
    return lo


_EDGES = {mode: _overflow_edge(mode) for mode in MODES}

# values the columns must treat exactly as the rows did
_SPECIAL = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 0.01, 100.0]),
    st.floats(0.0, 100.0).map(lambda v: round(v, 2)),  # ties for the stable sort
    st.floats(0.0, 1e-300, allow_subnormal=True),
)
# just below, at and past the overflow edge; two of the first three overflow the running total
_NEAR_EDGE = st.sampled_from(sorted(_EDGES.values())).flatmap(
    lambda e: st.sampled_from([e, math.nextafter(e, 0.0), math.nextafter(e, math.inf), e / 2]))
_BAD = st.sampled_from([-1.0, -5e-324, math.inf, math.nan, 1e308])


@st.composite
def _distance_lists(draw, max_len=5000):
    special = draw(st.lists(_SPECIAL, max_size=40)) + draw(st.lists(_NEAR_EDGE, max_size=2))
    if draw(st.integers(0, 9)) == 0:  # now and then one value no table accepts
        special.append(draw(_BAD))
    n_bulk = draw(st.integers(0 if special else 1, max_len - len(special)))
    seed = draw(st.integers(0, 2**32 - 1))
    values = np.random.default_rng(seed).uniform(0.0, 100.0, n_bulk).round(2).tolist()
    for v in special:
        values.insert(draw(st.integers(0, len(values))), v)
    return values


_ORACLE = settings(max_examples=40, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


class TestCommandsAgainstRows:
    @_ORACLE
    @given(_distance_lists(), st.sampled_from(MODES))
    def test_report_matches_rows(self, values, mode):
        _check_command("report", values, mode)

    @_ORACLE
    @given(_distance_lists(), st.sampled_from(MODES))
    def test_table_matches_rows(self, values, mode):
        _check_command("table", values, mode)

    @pytest.mark.parametrize("mode", MODES)
    def test_survey_matches_rows(self, tmp_path, mode):
        assert _run(["report", "--mode", mode], tmp_path / "report") == (
            0, "", ref_report(SURVEY_DISTANCES_M, mode))
        _check_command("table", list(SURVEY_DISTANCES_M), mode)

    @pytest.mark.parametrize("mode", MODES)
    def test_edge_values(self, mode):
        edge = _EDGES[mode]
        # the row at the edge fits and the next one overflows; two at the edge overflow the total
        for values in ([edge], [0.0, math.nextafter(edge, math.inf)], [1.0, edge, edge],
                       [-0.0, 0.0, -0.0, 5e-324, 0.0], [edge / 2, edge / 2]):
            _check_command("report", values, mode)
            _check_command("table", values, mode)

    def test_report_peak_memory(self, tmp_path):
        # a 4,000-line route took 2.16 MiB at its peak when each row was an object
        path = tmp_path / "distances.txt"
        values = np.random.default_rng(7).uniform(0.0, 100.0, 4000).round(2).tolist()
        path.write_text("".join(f"{v!r}\n" for v in values), encoding="utf-8")
        argv = ["report", "--distances", str(path), "--out-dir", str(tmp_path / "out")]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0  # the parser and lazy imports are built once, outside the bound
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 2.16 * 2**20


# -- line_plot -----------------------------------------------------------------

_LABELS = st.text(st.characters(blacklist_characters="&<>", blacklist_categories=("Cs",)), max_size=8)


@st.composite
def _columns(draw, n):
    kind = draw(st.sampled_from(["ints", "floats", "array", "flat", "huge"]))
    if kind == "ints":
        return draw(st.lists(st.integers(-2**63, 2**63), min_size=n, max_size=n))
    if kind == "flat":
        v = draw(st.one_of(st.floats(-1e300, 1e300), st.sampled_from([0.0, -0.0, 2.0**63, 1e300])))
        return [v] * n
    floats = st.floats(-1e300, 1e300) if kind == "huge" else st.floats(-1e6, 1e6)
    values = draw(st.lists(floats, min_size=n, max_size=n))
    return np.array(values) if kind == "array" else values


@st.composite
def _series(draw):
    out = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 30))
        out.append((draw(_LABELS), draw(_columns(n)), draw(_columns(n))))
    return out


class TestLinePlotAgainstPoints:
    @settings(max_examples=300, deadline=None)
    @given(_series(), _LABELS, _LABELS, _LABELS)
    def test_matches_per_point_plot(self, series, title, xlabel, ylabel):
        assert line_plot(series, title, xlabel, ylabel) == ref_line_plot(series, title, xlabel, ylabel)

    def test_signed_zero_bounds(self):
        # min() keeps the first of 0.0 and -0.0, numpy's min either: the bytes must not tell
        for xs in ([0.0, -0.0, 1.0], [-0.0, 0.0, 1.0], [1.0, -0.0, 0.0], [-0.0, -0.0]):
            series = [("a", xs, [-v for v in xs]), ("b", [0.0] * len(xs), xs)]
            assert line_plot(series) == ref_line_plot(series)
