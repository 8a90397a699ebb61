"""Parser and flag fuzzing through the CLI: any input ends in exit 0, 1 or 2, never a traceback.

Each parser test writes one generated input file (map, trace, obstacles,
profile config or distances) next to fixed valid ones, runs the subcommand
that reads it in process and checks the exit code and stderr. Each flag test
passes generated numbers to the numeric flags, and a failure must name one
of them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from walkchain.cli import main

# a numpy warning on the way to an exit code is a hole: a float went out of range unnamed
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

LINE_MAP = {
    "vertices": [{"id": 0, "x": 0.0, "y": 0.0}, {"id": 1, "x": 5.8, "y": 0.0},
                 {"id": 2, "x": 11.6, "y": 0.0}],
    "edges": [[0, 1], [1, 2]],
}

_SCALARS = st.one_of(
    st.none(), st.booleans(), st.text(max_size=6),
    st.integers(-3, 12), st.integers(), st.sampled_from([10**400, -(10**400), 2**63]),
    st.floats(allow_nan=True, allow_infinity=True),
)
_JSON = st.recursive(_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=12)


def _json_text(value) -> str:
    return json.dumps(value)  # NaN and Infinity come out as the bare words json.loads accepts


def _near(keys: tuple[str, ...]):
    """Objects that use the schema's keys with arbitrary values, some keys missing."""
    return st.dictionaries(st.sampled_from(keys), st.one_of(_SCALARS, _JSON), max_size=len(keys))


_MAPS = st.one_of(
    _JSON,
    st.fixed_dictionaries({
        "vertices": st.one_of(_JSON, st.lists(_near(("id", "x", "y", "lat", "lon", "label")),
                                              max_size=5)),
        "edges": st.one_of(_JSON, st.lists(st.lists(st.integers(-1, 5), min_size=1,
                                                    max_size=3), max_size=6)),
    }, optional={"origin": st.one_of(_JSON, _near(("lat", "lon")))}),
    st.builds(lambda n: {"vertices": [{"id": k, "x": float(k), "y": 0.0} for k in range(n)],
                         "edges": [[k, k + 1] for k in range(n - 1)]}, st.integers(0, 6)),
)
_OBSTACLES = st.one_of(_JSON, st.lists(st.one_of(
    _JSON, _near(("id", "kind", "x", "y", "vx", "vy")),
    st.fixed_dictionaries({"id": st.integers(0, 3), "kind": st.sampled_from(["stationary",
                                                                             "moving", "x"]),
                           "x": _SCALARS, "y": _SCALARS},
                          optional={"vx": _SCALARS, "vy": _SCALARS})), max_size=4))
# stride lengths and periods whose speed or pace, or walk time, leave the float range
_STRIDES = st.one_of(st.floats(0.0, allow_infinity=True),
                     st.sampled_from([5e-324, 1e-320, 1e-300, 1e300, 1.797e308]))
_PROFILES = st.one_of(_JSON, _near(("name", "step_length_m", "step_period_s")),
                      st.fixed_dictionaries({"name": st.just("p"), "step_length_m": _STRIDES,
                                             "step_period_s": _STRIDES}))

_TOKENS = st.one_of(
    st.sampled_from(["0", "0.0", "1", "-1", "2", "5.8", "1.5", "1e400", "-1e400", "inf", "-inf",
                     "nan", "", " ", "abc", "1_0", "9223372036854775808",
                     "-9223372036854775808", "0x1", "1e-320"]),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters=",\n\r"),
            max_size=5),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-5, 5).map(str),
)
_CSV_LINES = st.lists(st.lists(_TOKENS, min_size=0, max_size=5).map(",".join), max_size=8)
_TRACES = st.one_of(
    st.tuples(st.sampled_from(["t_s,x_m,y_m", "t_s,x_m,y_m,truth_vertex", "t_s,x_m",
                               "time,x,y", ""]), _CSV_LINES).map(
        lambda hl: "\n".join([hl[0], *hl[1]]) + "\n"),
    st.text(max_size=60),
)
_DISTANCES = st.one_of(st.lists(_TOKENS, max_size=8).map("\n".join), st.text(max_size=40))


def _run(name: str, text: str, argv_of, names: tuple[str, ...] = ()) -> None:
    """Write ``text`` to ``name``, run ``argv_of(input, map, out)`` and check the outcome.

    A failure must name one of ``names`` when any are given.
    """
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "line_map.json").write_text(json.dumps(LINE_MAP), encoding="utf-8")
        (tmp / name).write_text(text, encoding="utf-8")
        err = io.StringIO()
        parser_exit = False
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                rc = main(argv_of(str(tmp / name), str(tmp / "line_map.json"), str(tmp / "out")))
            except SystemExit as exc:  # argparse: usage, then the flag it could not parse
                rc, parser_exit = exc.code, True
    err = err.getvalue()
    assert rc in (0, 1, 2), (rc, err)
    assert "Traceback" not in err
    if rc:  # a flag test may also end at argparse, which prints its usage first
        assert err.startswith("usage: ") if parser_exit and names else err.startswith("error: ")
    if rc and names:
        assert any(name in err for name in names), err


class TestParserFuzz:
    @given(_MAPS)
    @settings(max_examples=200)
    def test_map(self, doc):
        _run("map.json", _json_text(doc),
             lambda path, _, out: ["analyze", "--map", path, "--out-dir", out])

    @given(st.text(max_size=40))
    @settings(max_examples=50)
    def test_map_text(self, text):
        _run("map.json", text, lambda path, _, out: ["analyze", "--map", path, "--out-dir", out])

    @given(_TRACES)
    @settings(max_examples=300)
    def test_trace(self, text):
        _run("trace.csv", text, lambda path, line_map, out: [
            "track", "--map", line_map, "--trace", path, "--out-dir", out])

    @given(st.one_of(_OBSTACLES.map(_json_text), st.text(max_size=40)))
    @settings(max_examples=200)
    def test_obstacles(self, text):
        _run("obstacles.json", text, lambda path, line_map, out: [
            "track", "--map", line_map, "--steps", "3", "--obstacles", path, "--out-dir", out])

    @given(st.one_of(_PROFILES.map(_json_text), st.text(max_size=40)))
    @settings(max_examples=150)
    def test_profile(self, text):
        _run("profile.json", text, lambda path, line_map, out: [
            "simulate", "--map", line_map, "--steps", "3", "--profile-config", path,
            "--out-dir", out])

    @given(_DISTANCES, st.sampled_from(["table", "report"]))
    @settings(max_examples=150)
    def test_distances(self, text, command):
        _run("distances.txt", text, lambda path, _, out: [
            command, "--distances", path, "--out-dir", out])

    def test_deeply_nested_json(self):
        # json.loads recurses once per level and raises RecursionError, not a decode error
        deep = "[" * 100_000 + "]" * 100_000
        for name, argv_of in (
                ("map.json", lambda path, _, out: ["analyze", "--map", path, "--out-dir", out]),
                ("obstacles.json", lambda path, line_map, out: [
                    "track", "--map", line_map, "--obstacles", path, "--out-dir", out]),
                ("profile.json", lambda path, line_map, out: [
                    "simulate", "--map", line_map, "--profile-config", path, "--out-dir", out])):
            _run(name, deep, argv_of)


# numbers for the numeric flags: nan, infinities, negatives, subnormals and huge values
_NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-1e3, 1e3),
    st.sampled_from([0.0, -0.0, -1.0, 5e-324, 1e-320, 1e-200, 1e200, 1e308, -1e308]),
)
# small, negative, or so long that the first allocation fails: never a walk that could run
_STEPS = st.one_of(st.integers(0, 30), st.integers(0, 30), st.integers(max_value=-1),
                   st.integers(min_value=10**12))
_STARTS = st.one_of(st.integers(0, 2), st.integers(-3, 5), st.integers())


def _or_numbers(valid) -> st.SearchStrategy:
    """Values from ``valid`` half the time, so that runs also get past the first flag."""
    return st.one_of(valid, _NUMBERS)


def _flags(**values) -> list[str]:
    """``--flag=value`` tokens, so that argparse takes a value such as -inf for the flag's."""
    return [f"--{key.replace('_', '-')}={v!r}" for key, v in values.items()]


class TestFlagFuzz:
    @given(_STARTS, _STEPS, _or_numbers(st.floats(0.0, 5.0)))
    @settings(max_examples=150)
    def test_simulate(self, start, steps, noise_sigma):
        _run("unused.txt", "", lambda _, line_map, out: [
            "simulate", "--map", line_map, "--out-dir", out,
            *_flags(start=start, steps=steps, noise_sigma=noise_sigma)],
            names=("start", "--steps", "--noise-sigma"))

    @given(_STARTS, _STEPS, _or_numbers(st.floats(0.1, 5.0)), _or_numbers(st.floats(0.5, 50.0)))
    @settings(max_examples=150)
    def test_track(self, start, steps, emission_sigma, safer_distance):
        _run("unused.txt", "", lambda _, line_map, out: [
            "track", "--map", line_map, "--out-dir", out,
            *_flags(start=start, steps=steps, emission_sigma=emission_sigma,
                    safer_distance=safer_distance)],
            names=("start", "--steps", "emission_sigma", "safer_distance"))

    @given(_or_numbers(st.floats(0.1, 10.0)), _or_numbers(st.floats(0.0, 10.0)),
           _or_numbers(st.sampled_from([1e-13, 1e-9, 1e-6])))
    @settings(max_examples=150)
    def test_transient(self, rate, time, tolerance):
        # a finite positive rate * time is at most 10^6: a wider Poisson window is real work
        assume(not (rate > 0 and time > 0 and 1e6 < rate * time < math.inf))
        _run("unused.txt", "", lambda _, line_map, out: [
            "transient", "--map", line_map, "--out-dir", out,
            *_flags(rate=rate, time=time, tolerance=tolerance)],
            names=("rate", "time", "tolerance"))
