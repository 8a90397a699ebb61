"""SVG plotting: well-formedness and determinism."""

from __future__ import annotations

import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import numpy as np
import pytest

from walkchain import line_plot


def test_output_is_well_formed_xml():
    svg = line_plot(
        [("a", [0, 1, 2], [0.0, 1.0, 4.0]), ("b", [0, 1, 2], [4.0, 1.0, 0.0])],
        title="two series",
        xlabel="x",
        ylabel="y",
    )
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(polylines) == 2
    texts = [el.text for el in root.iter() if el.tag.endswith("text")]
    assert "two series" in texts
    assert "a" in texts and "b" in texts


def test_identical_input_gives_identical_bytes():
    args = ([("s", [0.0, 5.0], [1.0, 2.0])], "t", "x", "y")
    assert line_plot(*args) == line_plot(*args)


def test_distinct_series_get_distinct_colors():
    svg = line_plot([("a", [0, 1], [0, 1]), ("b", [0, 1], [1, 0])])
    polys = [ln for ln in svg.splitlines() if "<polyline" in ln]
    strokes = {ln.split('stroke="')[1].split('"')[0] for ln in polys}
    assert len(strokes) == 2


def test_constant_series_does_not_divide_by_zero():
    svg = line_plot([("flat", [0.0, 1.0], [3.0, 3.0])])
    assert "NaN" not in svg and "nan" not in svg


def test_constant_series_of_huge_values_does_not_divide_by_zero():
    # 2**63 + 1.0 == 2**63, so widening a flat range by 1 left it flat
    for big in (2.0**63, 1e300):
        svg = line_plot([("flat", [big, big], [big, big])])
        assert "NaN" not in svg and "nan" not in svg


def test_single_point_series_renders():
    svg = line_plot([("dot", [2.0], [7.0])])
    assert "<polyline" in svg


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        line_plot([])
    with pytest.raises(ValueError, match="non-empty"):
        line_plot([("a", [], [])])
    with pytest.raises(ValueError):
        line_plot([("a", [1.0], [1.0, 2.0])])


def test_text_is_escaped():
    svg = line_plot([("a<b & c", [0, 1], [0, 1])], title="x & y", xlabel="<m>", ylabel="t > 0")
    root = ET.fromstring(svg)
    texts = [el.text for el in root.iter() if el.tag.endswith("text")]
    assert {"a<b & c", "x & y", "<m>", "t > 0"} <= set(texts)
    assert "a&lt;b &amp; c" in svg and "t &gt; 0" in svg


def test_escaping_matches_saxutils():
    label = "&amp; <x> & > <"
    assert f">{escape(label)}</text>" in line_plot([(label, [0], [0])])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_values_name_the_series(bad):
    for xs, ys in (([0.0, bad], [0.0, 1.0]), ([0.0, 1.0], [bad, 1.0])):
        with pytest.raises(ValueError, match="series 'second': values must be finite"):
            line_plot([("first", [0.0, 1.0], [0.0, 1.0]), ("second", xs, ys)])


def test_range_past_the_float_range_rejected():
    with pytest.raises(ValueError, match="span more than the float range"):
        line_plot([("wide", [-1e308, 1e308], [0.0, 1.0])])


def test_arrays_plot_as_lists():
    xs, ys = [0, 3, 1, 2], [0.5, -0.0, 2.25, 1e6]
    assert line_plot([("s", np.array(xs), np.array(ys))]) == line_plot([("s", xs, ys)])
