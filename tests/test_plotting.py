"""ASCII figure rendering."""

from repro.workloads.metrics import ccdf
from benchmarks.plotting import MARKERS, ascii_bar_chart, ascii_ccdf_plot


class TestCcdfPlot:
    def test_renders_all_series(self):
        series = {
            "B-BOX": ccdf([3, 3, 3, 4, 90]),
            "naive": ccdf([2, 2, 400, 400]),
        }
        plot = ascii_ccdf_plot(series, title="Figure 6")
        assert "Figure 6" in plot
        assert "o=B-BOX" in plot and "x=naive" in plot
        body = "\n".join(plot.splitlines()[3:-4])  # grid rows only
        assert "o" in body and "x" in body  # marks actually plotted

    def test_empty(self):
        assert ascii_ccdf_plot({}) == "(no data)"

    def test_log_axis_covers_range(self):
        plot = ascii_ccdf_plot({"s": ccdf([1, 1000])})
        assert "X: 1 .. 1000" in plot

    def test_deterministic(self):
        series = {"a": ccdf([1, 2, 3])}
        assert ascii_ccdf_plot(series) == ascii_ccdf_plot(series)

    def test_zero_fractions_clamped(self):
        # A series ending at fraction 0 must not blow up the log mapping.
        plot = ascii_ccdf_plot({"s": [(1, 0.5), (2, 0.0)]})
        assert "s" in plot

    def test_marker_pool(self):
        series = {f"s{i}": ccdf([i + 1]) for i in range(len(MARKERS))}
        plot = ascii_ccdf_plot(series)
        for marker in MARKERS:
            assert marker in plot


class TestBarChart:
    def test_bars_scale(self):
        chart = ascii_bar_chart({"big": 10.0, "small": 1.0})
        lines = chart.splitlines()
        assert lines[0].count("#") > lines[1].count("#")

    def test_values_printed(self):
        chart = ascii_bar_chart({"x": 4.26}, unit=" I/O")
        assert "4.26 I/O" in chart

    def test_empty(self):
        assert ascii_bar_chart({}) == "(no data)"
