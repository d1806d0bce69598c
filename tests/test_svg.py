"""SVG writer refusals: a series or layout that cannot be drawn is named
and refused, and a refused series leaves its panel as it was.  A panel
of one point is drawn on axes of nonzero width at any magnitude."""
import math
import xml.etree.ElementTree as ET

import pytest

from qsabine import svg


def test_unknown_axis_scale():
    with pytest.raises(ValueError, match="unknown axis scale 'symlog'"):
        svg.Panel("x", "y", "linear", "symlog")


@pytest.mark.parametrize("scales, xs, ys, message", [
    (("linear", "linear"), (1.0, 2.0), (1.0,), "x and y lengths differ"),
    (("linear", "linear"), (1.0, 2.0), (1.0, math.nan), "non-finite value on the y axis"),
    (("linear", "linear"), (math.inf, 2.0), (1.0, 2.0), "non-finite value on the x axis"),
    (("log", "linear"), (0.0, 2.0), (1.0, 2.0), "log x axis requires positive values"),
    (("linear", "log"), (1.0, 2.0), (1.0, -2.0), "log y axis requires positive values"),
], ids=["lengths", "nan", "inf", "log-x", "log-y"])
def test_bad_series_refused(scales, xs, ys, message):
    panel = svg.Panel("x", "y", *scales)
    for draw in (panel.scatter, panel.line):
        with pytest.raises(ValueError, match=message):
            draw(xs, ys)
    assert panel.series == []


def test_one_point_polyline_refused():
    panel = svg.Panel("x", "y")
    with pytest.raises(ValueError, match="at least two points"):
        panel.line((1.0,), (2.0,))
    assert panel.series == []


@pytest.mark.parametrize("value", [0.0, -3.0, 1e15, 1e16, -1e16, 1e300])
def test_one_point_panel_spans_its_axes(value):
    # a lone point's linear axes are widened around it; at |v| >= 1e16
    # a half-width of 0.5 rounds away and left the axis zero wide
    panel = svg.Panel("x", "y")
    panel.scatter((value,), (value,))
    for axis in ("x", "y"):
        lo, hi = panel._extent(axis)
        assert lo < value < hi
    text = svg.render([panel])
    ET.fromstring(text)
    assert "nan" not in text and "inf" not in text


def test_panel_without_data_refused():
    with pytest.raises(ValueError, match="panel has no data"):
        svg.render([svg.Panel("x", "y")])


def test_no_panels_refused():
    with pytest.raises(ValueError, match="no panels"):
        svg.render([])


def test_oversized_document_refused():
    # about 100 bytes a point: 25,000 points pass MAX_BYTES
    panel = svg.Panel("x", "y")
    panel.scatter(range(25_000), range(25_000))
    with pytest.raises(ValueError, match="exceeds"):
        svg.render([panel])
