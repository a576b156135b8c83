"""Pre-wired kernel explorations."""

import pytest

from repro.dse.explorer import explore_fft, explore_jpeg, fft_point
from repro.dse.pareto import pareto_front
from repro.dse.pareto import pareto_front
from repro.errors import DSEError


class TestFFT:
    def test_point_scoring(self):
        p = fft_point(1024, 128, 10, 0.0)
        assert p.n_tiles == 80
        assert p.throughput_per_s > 0
        assert 0 <= p.utilization <= 1
        assert p.param("cols") == 10

    def test_explore_covers_grid(self):
        points = explore_fft(link_costs_ns=(0.0, 500.0), cols_list=(1, 2))
        assert len(points) == 4

    def test_uniform_profile_for_other_sizes(self):
        p = fft_point(64, 8, 2, 100.0)
        assert p.throughput_per_s > 0

    def test_empty_axes_rejected(self):
        with pytest.raises(DSEError):
            explore_fft(cols_list=())

    def test_pareto_front_structure(self):
        front = pareto_front(explore_fft(link_costs_ns=(0.0,)))
        # at L=0 more tiles always help: the whole cols axis is on the front
        assert len(front) == 4
        tiles = [p.n_tiles for p in front]
        assert tiles == sorted(tiles, reverse=True)

    def test_pareto_collapses_at_high_cost(self):
        front = pareto_front(explore_fft(link_costs_ns=(4000.0,)))
        # expensive links: fewer columns dominate, front shrinks
        assert len(front) < 4
        assert front[0].param("cols") in (1, 2)


class TestJPEG:
    def test_explore_shape(self):
        points = explore_jpeg(max_tiles=5, algorithms=("one",))
        assert len(points) == 5
        assert all(p.param("algorithm") == "one" for p in points)

    def test_front_of_jpeg_space(self):
        points = explore_jpeg(max_tiles=10, algorithms=("one", "opt"))
        front = pareto_front(points)
        assert front
        assert all(p.throughput_per_s > 0 for p in front)
