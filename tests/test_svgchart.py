"""The SVG chart's axes over spans at the ends of binary64."""

import re

import pytest

from sempower.svgchart import line_chart

X_TICK = 'y="460" text-anchor="middle"'  # an x-axis label, 18 px under the plot
X_LABEL = re.compile(r'<text x="([-0-9.]+)" ' + X_TICK + '>([^<]*)</text>')


@pytest.mark.parametrize("xs, most", [
    ([0.5, 0.5000000000000001], 6),  # a step under half an ulp of 0.5 never moves a sum
    ([5e-324, 1e-323], 1),  # a fifth of the span underflows to 0
    ([5e-324, 3e-323], 1),  # ... and to a subnormal, whose power of ten is 0
], ids=["ulp-apart", "fifth-is-zero", "fifth-is-subnormal"])
def test_chart_over_a_span_of_a_few_ulps(xs, most):
    svg = line_chart([("a", xs, [1e-3, 1e-2])], "x", "y", "t")
    assert 1 <= svg.count(X_TICK) <= most


def test_chart_of_points_on_one_power_of_ten():
    # the log axis spans at least one decade, or every point would divide by 0
    svg = line_chart([("a", [0.0, 1.0], [1.0, 1.0])], "x", "y", "t")
    assert ">1e0</text>" in svg and ">1e1</text>" in svg


@pytest.mark.parametrize("xs, labels", [
    ([1e-13, 2e-13], ["1e-13", "1.2e-13", "1.4e-13", "1.6e-13", "1.8e-13", "2e-13"]),
    ([0.5, 0.5000000000000001], ["0.5"]),
    ([0.2, 0.6], ["0.2", "0.3", "0.4", "0.5", "0.6"]),  # 6 * 0.1 rounds past 0.6
], ids=["below-1e-12", "ulp-apart", "end-on-a-tick"])
def test_x_ticks_lie_on_the_plot_each_label_once(xs, labels):
    svg = line_chart([("a", xs, [1e-3, 1e-2])], "x", "y", "t")
    ticks = X_LABEL.findall(svg)
    assert [label for _, label in ticks] == labels
    assert all(86 <= float(x) <= 736 for x, _ in ticks)  # the plot's left and right edges
