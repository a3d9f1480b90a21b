"""Quadrature, bisection, and the counter-based Monte Carlo engine."""

import math

import numpy as np
import pytest

from omt2 import (AlternativeModel, DomainError, McConfig, NoBracket,
                  QuadratureConfig, bisect, hommel, mc_estimate,
                  std_normal_cdf, std_normal_quantile)
from omt2.numerics import (MaxIterations, leggauss, panel_nodes, splitmix64,
                           uniforms)

ALPHA = 0.025


class TestQuadratureConfig:
    def test_config_validation(self):
        with pytest.raises(DomainError):
            QuadratureConfig(panels_per_axis=4)
        with pytest.raises(DomainError):
            QuadratureConfig(abs_tol=0.0)


def linspace_panel_nodes(lo, hi, breaks, panels, order):
    """Reference panel layout: one np.linspace per segment."""
    xs, ws = leggauss(order)
    cuts = sorted({lo, hi, *(float(b) for b in breaks if lo < float(b) < hi)})
    max_h = (hi - lo) / panels
    nodes, weights = [], []
    for a, b in zip(cuts[:-1], cuts[1:]):
        n_sub = max(1, int(math.ceil((b - a) / max_h)))
        edges = np.linspace(a, b, n_sub + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
        half = 0.5 * (edges[1:] - edges[:-1])[:, None]
        nodes.append((mid + half * xs).ravel())
        weights.append((half * ws).ravel())
    return np.concatenate(nodes), np.concatenate(weights)


class TestPanelNodes:
    def test_bytes_match_linspace_per_segment(self):
        rng = np.random.default_rng(20261018)
        for _ in range(2500):
            lo = rng.uniform(-30.0, 10.0)
            hi = lo + rng.uniform(1e-3, 40.0)
            # breaks also fall outside [lo, hi], repeat, or sit within 1e-9
            breaks = list(rng.uniform(lo - 3.0, hi + 3.0, rng.integers(0, 14)))
            if breaks and rng.random() < 0.5:
                breaks += [breaks[0], breaks[-1] + rng.uniform(0.0, 1e-9)]
            args = (lo, hi, breaks, int(rng.integers(8, 100)),
                    int(rng.integers(2, 20)))
            z, w = panel_nodes(*args)
            z_ref, w_ref = linspace_panel_nodes(*args)
            assert z.tobytes() == z_ref.tobytes(), args
            assert w.tobytes() == w_ref.tobytes(), args

    def test_empty_range(self):
        with pytest.raises(DomainError):
            panel_nodes(1.0, 1.0, [], 8, 4)


class TestBisect:
    def test_linear_root(self):
        assert bisect(lambda t: t - 1.0, 0.0, 2.0, tol=1e-12) == pytest.approx(
            1.0, abs=1e-11)

    def test_normal_quantile_root(self):
        root = bisect(lambda t: std_normal_cdf(t) - 0.025, -10.0, 0.0,
                      tol=1e-12)
        assert root == pytest.approx(-1.959964, abs=1e-6)

    def test_no_bracket(self):
        with pytest.raises(NoBracket):
            bisect(lambda t: t * t + 1.0, -1.0, 1.0, tol=1e-9)

    def test_max_iterations_on_jump(self):
        jump = lambda t: 2.0 if t >= 0.3 else -2.0
        with pytest.raises(MaxIterations):
            bisect(jump, 0.0, 1.0, tol=0.5)

    def test_invalid_interval(self):
        with pytest.raises(DomainError):
            bisect(lambda t: t, 1.0, 0.0, tol=1e-9)


class TestSplitmix64:
    def test_matches_scalar_reference(self):
        # same mixing computed with plain python integer arithmetic
        def ref(seed, k):
            mask = (1 << 64) - 1
            z = (seed + (k + 1) * 0x9E3779B97F4A7C15) & mask
            z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & mask
            z = (z ^ (z >> 27)) * 0x94D049BB133111EB & mask
            return z ^ (z >> 31)

        got = splitmix64(12345, 0, 6)
        expected = [ref(12345, k) for k in range(6)]
        assert [int(x) for x in got] == expected

    def test_stream_is_counter_addressable(self):
        whole = splitmix64(7, 0, 100)
        tail = splitmix64(7, 40, 60)
        assert np.array_equal(whole[40:], tail)

    def test_uniforms_open_interval(self):
        u = uniforms(99, 0, 100_000)
        assert np.all(u > 0.0) and np.all(u < 1.0)
        assert abs(u.mean() - 0.5) < 0.01


class TestMcEstimate:
    def test_constant_event(self, mc_cfg):
        mean, se = mc_estimate(lambda z1, z2: np.ones_like(z1),
                               AlternativeModel(0.0, 0.0), mc_cfg)
        assert mean == 1.0 and se == 0.0

    def test_marginal_tail_probability(self, mc_cfg):
        za = std_normal_quantile(ALPHA)
        mean, se = mc_estimate(lambda z1, z2: z1 <= za,
                               AlternativeModel(0.0, 0.0), mc_cfg)
        assert abs(mean - ALPHA) <= 3 * se

    def test_sum_statistic_tail(self, mc_cfg):
        thresh = math.sqrt(2.0) * std_normal_quantile(ALPHA)
        mean, se = mc_estimate(lambda z1, z2: (z1 + z2) <= thresh,
                               AlternativeModel(0.0, 0.0), mc_cfg)
        assert abs(mean - ALPHA) <= 3 * se

    def test_correlated_shift_model(self, mc_cfg):
        # z2 ~ N(theta2, 1) marginally for any rho
        model = AlternativeModel(-1.0, -2.0, 0.6)
        za = std_normal_quantile(ALPHA)
        mean, se = mc_estimate(lambda z1, z2: z2 <= za, model, mc_cfg)
        expected = float(std_normal_cdf(za + 2.0))
        assert abs(mean - expected) <= 3 * se

    def test_seeded_determinism(self):
        cfg = McConfig(reps=50_000, seed=4242)
        model = AlternativeModel(-1.0, -1.0)
        ev = lambda z1, z2: (z1 <= -1.0) & (z2 <= -0.5)
        first = mc_estimate(ev, model, cfg)
        second = mc_estimate(ev, model, cfg)
        assert first == second
        other = mc_estimate(ev, model, McConfig(reps=50_000, seed=4243))
        assert other != first

    def test_tuple_event_matches_one_call_per_array(self):
        # one draw and one evaluation, the same pairs bit for bit
        cfg = McConfig(reps=50_000, seed=77)
        model = AlternativeModel(-2.0, -2.5, 0.3)
        rule = hommel(ALPHA)
        both = mc_estimate(rule.decide_z, model, cfg)
        assert both == [mc_estimate(lambda z1, z2: rule.decide_z(z1, z2)[k],
                                    model, cfg) for k in (0, 1)]
        assert all(type(v) is float for pair in both for v in pair)

    def test_event_shape_checked_per_array(self):
        with pytest.raises(DomainError):
            mc_estimate(lambda z1, z2: (z1 <= 0.0, z2[:10] <= 0.0),
                        AlternativeModel(0.0, 0.0), McConfig(reps=10_000))

    def test_reps_floor(self):
        with pytest.raises(DomainError):
            McConfig(reps=100)
