"""Parser fuzzing through the CLI: any input file ends in exit 0, 1 or 2, never a traceback.

Each test writes one generated input file (map, trace, obstacles, profile
config or distances) next to fixed valid ones, runs the subcommand that
reads it in process and checks the exit code and stderr.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from walkchain.cli import main

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
_PROFILES = st.one_of(_JSON, _near(("name", "step_length_m", "step_period_s")))

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


def _run(name: str, text: str, argv_of) -> None:
    """Write ``text`` to ``name``, run ``argv_of(input, map, out)`` and check the outcome."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "line_map.json").write_text(json.dumps(LINE_MAP), encoding="utf-8")
        (tmp / name).write_text(text, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                rc = main(argv_of(str(tmp / name), str(tmp / "line_map.json"), str(tmp / "out")))
            except SystemExit as exc:
                rc = exc.code
    assert rc in (0, 1, 2), (rc, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if rc:
        assert err.getvalue().startswith("error: ")


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
