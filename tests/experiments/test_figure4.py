"""Tests for the Figure 4 reproduction."""

import pytest

from repro.experiments.distributions import CostDistribution
from repro.experiments.figure4 import figure4_histogram, render_figure4


@pytest.fixture
def dist():
    # A synthetic exponential-ish scaled-cost sample.
    import random

    rng = random.Random(0)
    costs = [1.0 + rng.expovariate(0.5) for _ in range(2000)]
    return CostDistribution(
        query_name="Q5",
        allow_cross_products=False,
        total_plans=10**9,
        best_cost=1.0,
        scaled_costs=costs,
    )


class TestFigure4:
    def test_histogram_covers_lower_half(self, dist):
        hist = figure4_histogram(dist)
        assert sum(hist.counts) == dist.sample_size // 2

    def test_title_names_query(self, dist):
        hist = figure4_histogram(dist)
        assert "Q5" in hist.title
        assert "lower 50%" in hist.title

    def test_exponential_shape_detected(self, dist):
        shape = dist.gamma_shape()
        assert shape is not None
        assert 0.6 < shape < 1.6  # close to 1, as the paper observes

    def test_histogram_decreasing_for_exponential(self, dist):
        hist = figure4_histogram(dist, bins=10)
        # First bin should dominate the last for an exponential shape.
        assert hist.counts[0] > hist.counts[-1] * 2

    def test_render_mentions_gamma(self, dist):
        text = render_figure4([dist])
        assert "gamma shape" in text
        assert "#" in text

    def test_render_multiple_panels(self, dist):
        text = render_figure4([dist, dist])
        assert text.count("lower 50%") == 2


@pytest.mark.parametrize("name", ["Q5", "Q7", "Q8", "Q9"])
def test_tpch_panel(cost_distribution, name):
    """The paper's four panels (no cross products): the zoom-in holds half
    the sample, its mass concentrates toward the optimum, and the fitted
    Gamma shape is of the order of 1, as the paper observes."""
    dist = cost_distribution(name)
    histogram = figure4_histogram(dist)
    assert sum(histogram.counts) == dist.sample_size // 2
    quarter = len(histogram.counts) // 4
    assert sum(histogram.counts[:quarter]) > sum(histogram.counts[-quarter:])
    shape = dist.gamma_shape()
    assert shape is not None and 0.1 < shape < 5.0
    assert dist.skewness() > 0
