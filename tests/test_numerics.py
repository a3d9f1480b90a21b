"""Quadrature, bisection, and the counter-based Monte Carlo engine."""

import hashlib
import itertools
import math
import sys
import threading
import time
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

import omt2.numerics
from conftest import (bool_mean_se, exact_se_squared, exact_sums, shifted,
                      whole_draws, whole_sample_mc_estimate)
from omt2 import (AlternativeModel, DomainError, McConfig, ObjectiveSpec,
                  QuadratureConfig, ToleranceNotMet, bisect, build_omt, hommel,
                  mc_estimate, mc_power, normal_pairs, std_normal_cdf,
                  std_normal_quantile)
from omt2.numerics import leggauss, panel_nodes, splitmix64, uniforms
from omt2.power_design import _se

ALPHA = 0.025


class TestQuadratureConfig:
    def test_config_validation(self):
        with pytest.raises(DomainError):
            QuadratureConfig(panels_per_axis=4)
        with pytest.raises(DomainError):
            QuadratureConfig(abs_tol=0.0)

    @pytest.mark.parametrize("field", ["panels_per_axis", "nodes_per_panel"])
    @pytest.mark.parametrize("value", [24.5, 24.0, "24", True, None])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(DomainError):
            QuadratureConfig(**{field: value})

    def test_numpy_integers_stored_as_int(self):
        cfg = QuadratureConfig(panels_per_axis=np.int64(12),
                               nodes_per_panel=np.int32(8))
        assert cfg == QuadratureConfig(12, 8)
        assert type(cfg.panels_per_axis) is int and type(cfg.nodes_per_panel) is int


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
        # an argument error like the bad interval below
        with pytest.raises(DomainError, match="have the same sign$"):
            bisect(lambda t: t * t + 1.0, -1.0, 1.0, tol=1e-9)

    def test_max_iterations_on_jump(self):
        # the interval collapses to float resolution: a numerical failure
        jump = lambda t: 2.0 if t >= 0.3 else -2.0
        with pytest.raises(ToleranceNotMet, match="to floating-point resolution$"):
            bisect(jump, 0.0, 1.0, tol=0.5)

    def test_invalid_interval(self):
        with pytest.raises(DomainError):
            bisect(lambda t: t, 1.0, 0.0, tol=1e-9)


def splitmix64_reference(seed, k):
    """Output k of the stream, by plain python integer arithmetic."""
    mask = (1 << 64) - 1
    z = (seed + (k + 1) * 0x9E3779B97F4A7C15) & mask
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & mask
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & mask
    return z ^ (z >> 31)


class TestSplitmix64:
    def test_matches_scalar_reference(self):
        got = splitmix64(12345, 0, 6)
        expected = [splitmix64_reference(12345, k) for k in range(6)]
        assert [int(x) for x in got] == expected

    @pytest.mark.parametrize("seed", [0, 20260810, 2**64 - 1])
    def test_matches_reference_across_a_block_boundary(self, seed):
        start, count = (1 << 15) - 1, (1 << 15) + 3
        got = splitmix64(seed, start, count)
        assert got.dtype == np.uint64
        assert got.tolist() == [splitmix64_reference(seed, k)
                                for k in range(start, start + count)]

    def test_normal_pairs_bits_pinned(self, fresh_draws):
        # a full block and a short one, pinned bit for bit (no bit depends
        # on the block size)
        zz1, zz2 = normal_pairs(20260810, 3 * (1 << 15) + 17)
        assert hashlib.sha256(zz1.tobytes() + zz2.tobytes()).hexdigest() == (
            "8d7ee9b9a0820a499d3c3a02b240885cb50f36981afb3567306b6ce1fb4964a6")

    def test_block_draws_are_the_memos_slices(self, fresh_draws):
        # a full block and a short one, drawn inside the block as a streamed
        # pass draws them: byte-equal to normal_pairs' slices, and read-only
        seed, reps, step = 20260810, 3 * (1 << 15) + 17, omt2.numerics._BLOCK
        blocks = [omt2.numerics._normal_block(seed, reps, lo)
                  for lo in range(0, reps, step)]
        assert [len(b1) for b1, _ in blocks] == [step, reps - step]
        zz = normal_pairs(seed, reps)
        for k in (0, 1):
            assert np.concatenate([b[k] for b in blocks]).tobytes() == zz[k].tobytes()
        for z in (z for b in blocks for z in b):
            with pytest.raises(ValueError):
                z[0] = 0.0

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
        counts = mc_estimate(lambda z1, z2: (np.ones_like(z1, dtype=bool),
                                             np.zeros_like(z1, dtype=bool)),
                             (AlternativeModel(0.0, 0.0),), mc_cfg)
        assert counts == [mc_cfg.reps, 0]

    def test_marginal_tail_probability(self, mc_cfg):
        za = std_normal_quantile(ALPHA)
        count, = mc_estimate(lambda z1, z2: (z1 <= za,),
                             (AlternativeModel(0.0, 0.0),), mc_cfg)
        mean, se = bool_mean_se(count, mc_cfg.reps)
        assert abs(mean - ALPHA) <= 3 * se

    def test_sum_statistic_tail(self, mc_cfg):
        thresh = math.sqrt(2.0) * std_normal_quantile(ALPHA)
        count, = mc_estimate(lambda z1, z2: ((z1 + z2) <= thresh,),
                             (AlternativeModel(0.0, 0.0),), mc_cfg)
        mean, se = bool_mean_se(count, mc_cfg.reps)
        assert abs(mean - ALPHA) <= 3 * se

    def test_correlated_shift_model(self, mc_cfg):
        # z2 ~ N(theta2, 1) marginally for any rho
        model = AlternativeModel(-1.0, -2.0, 0.6)
        za = std_normal_quantile(ALPHA)
        count, = mc_estimate(lambda z1, z2: (z2 <= za,), (model,), mc_cfg)
        mean, se = bool_mean_se(count, mc_cfg.reps)
        expected = float(std_normal_cdf(za + 2.0))
        assert abs(mean - expected) <= 3 * se

    def test_seeded_determinism(self):
        cfg = McConfig(reps=50_000, seed=4242)
        model = AlternativeModel(-1.0, -1.0)
        ev = lambda z1, z2: ((z1 <= -1.0) & (z2 <= -0.5),)
        first = mc_estimate(ev, (model,), cfg)
        second = mc_estimate(ev, (model,), cfg)
        assert first == second
        other = mc_estimate(ev, (model,), McConfig(reps=50_000, seed=4243))
        assert other != first

    def test_tuple_event_matches_one_call_per_array(self):
        # one draw and one evaluation, the same counts
        cfg = McConfig(reps=50_000, seed=77)
        model = AlternativeModel(-2.0, -2.5, 0.3)
        rule = hommel(ALPHA)
        both = mc_estimate(rule.decide_z, (model,), cfg)
        assert both == [mc_estimate(lambda z1, z2: (rule.decide_z(z1, z2)[k],),
                                    (model,), cfg)[0] for k in (0, 1)]
        assert all(type(count) is int for count in both)

    def test_event_shape_checked_per_array(self):
        with pytest.raises(DomainError):
            mc_estimate(lambda z1, z2: (z1 <= 0.0, z2[:10] <= 0.0),
                        (AlternativeModel(0.0, 0.0),), McConfig(reps=10_000))

    def test_event_returns_a_tuple(self):
        # a bare array is not a tuple of arrays, even of one
        with pytest.raises(DomainError, match="tuple"):
            mc_estimate(lambda z1, z2: z1 <= 0.0,
                        (AlternativeModel(0.0, 0.0),), McConfig(reps=10_000))

    def test_reps_floor(self):
        with pytest.raises(DomainError):
            McConfig(reps=100)

    def test_reps_ceiling(self):
        # checked before any draw, so nothing large is allocated
        assert McConfig(reps=omt2.numerics.MAX_REPS).reps == 2**26
        bound = r"^reps must be an integer in \[10000, 67108864\], got "
        with pytest.raises(DomainError, match=bound + "67108865$"):
            McConfig(reps=omt2.numerics.MAX_REPS + 1)
        with pytest.raises(DomainError, match=bound):
            McConfig(reps=10**12)

    @pytest.mark.parametrize("kwargs", [
        {"reps": 1e6}, {"reps": 20_000.0}, {"reps": "20000"}, {"reps": True},
        {"seed": 1.5}, {"seed": 7.0}, {"seed": "7"}, {"seed": False},
        {"seed": -1}, {"seed": 2**64}])
    def test_reps_and_seed_must_be_integers(self, kwargs):
        with pytest.raises(DomainError):
            McConfig(**kwargs)

    def test_numpy_integers_stored_as_int(self):
        cfg = McConfig(reps=np.int64(20_000), seed=np.uint64(2**64 - 1))
        assert cfg == McConfig(reps=20_000, seed=2**64 - 1)
        assert type(cfg.reps) is int and type(cfg.seed) is int


class TestCountingEngine:
    """Exact counts.  A value that is a signed sum of indicators gets its
    exact sums S1 of x and S2 of x^2 from the counts of the indicators and
    of each pair's overlap (x^2 = x for a bool): its mean S1/n is
    correctly rounded and its SE within an ulp or two of the exact one."""

    CFG = McConfig(reps=100_003, seed=2718)
    MODEL = AlternativeModel(-2.0, -2.5, 0.3)

    # (coefficients a_i, indicators x_i) of each case's value sum a_i * x_i:
    # one bool, the count d1 + d2, and a signed difference
    CASES = {
        "bool": ((1,), lambda z1, z2: (hommel(ALPHA).decide_z(z1, z2)[0],)),
        "int8": ((1, 1), lambda z1, z2: hommel(ALPHA).decide_z(z1, z2)),
        "int64": ((1, -1), lambda z1, z2: (z1 <= -2.0, z2 <= -3.0)),
    }

    @staticmethod
    def with_overlaps(indicators):
        def ev(z1, z2):
            xs = indicators(z1, z2)
            return (*xs, *(a & b for a, b in itertools.combinations(xs, 2)))
        return ev

    @staticmethod
    def sums(coefs, counts):
        """(S1, S2) of sum a_i * x_i by inclusion-exclusion."""
        alone, pairs = counts[:len(coefs)], counts[len(coefs):]
        s1 = sum(a * c for a, c in zip(coefs, alone))
        s2 = (sum(a * a * c for a, c in zip(coefs, alone))
              + 2 * sum(a * b * c for (a, b), c
                        in zip(itertools.combinations(coefs, 2), pairs)))
        return s1, s2

    def values(self, name):
        """The value of every replication, from the whole-sample draws."""
        coefs, indicators = self.CASES[name]
        z1, z2 = shifted(self.MODEL, *whole_draws(self.CFG))
        return sum(a * x.astype(np.int64) for a, x in zip(coefs, indicators(z1, z2)))

    def estimate(self, name):
        coefs, indicators = self.CASES[name]
        counts = mc_estimate(self.with_overlaps(indicators), (self.MODEL,), self.CFG)
        s1, s2 = self.sums(coefs, counts)
        return s1, s2, _se(s1, s2, self.CFG.reps)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_exact_oracle(self, name):
        n = self.CFG.reps
        s1, s2, se = self.estimate(name)
        assert (s1, s2) == exact_sums(self.values(name))
        assert s1 != 0 and s1 / n == float(Fraction(s1, n))
        se2 = exact_se_squared(s1, s2, n)
        with localcontext() as ctx:
            ctx.prec = 60
            exact = (Decimal(se2.numerator) / Decimal(se2.denominator)).sqrt()
            assert abs(Decimal(se) - exact) <= 2 * Decimal(math.ulp(se))

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_se_matches_whole_sample_std(self, name):
        _, _, se = self.estimate(name)
        vals = self.values(name).astype(float)
        ref = vals.std(ddof=1) / math.sqrt(self.CFG.reps)
        assert abs(se - ref) <= 1e-15 * ref

    @pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint16])
    def test_integer_event_rejected(self, dtype):
        # counts only: an integer array, of any width, is not an event
        with pytest.raises(DomainError, match="bool arrays"):
            mc_estimate(lambda z1, z2: ((z1 <= 0.0).astype(dtype),),
                        (AlternativeModel(0.0, 0.0),), McConfig(reps=10_000))

    @pytest.mark.parametrize("value", [2**32, -(2**32), 2**63 - 1])
    def test_integer_values_too_large_for_exact_sums(self, value):
        # values no bool can hold are refused, never summed or wrapped
        with pytest.raises(DomainError, match="bool arrays"):
            mc_estimate(lambda z1, z2: (np.where(z1 <= 0.0, value, 0)
                                        .astype(np.int64),),
                        (AlternativeModel(0.0, 0.0),), McConfig(reps=10_000))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.complex128])
    def test_float_event_rejected(self, dtype):
        with pytest.raises(DomainError, match="bool arrays"):
            mc_estimate(lambda z1, z2: ((z1 <= 0.0).astype(dtype),),
                        (AlternativeModel(0.0, 0.0),), McConfig(reps=10_000))
        with pytest.raises(DomainError, match="bool arrays"):
            mc_estimate(lambda z1, z2: (z1 <= 0.0, (z2 <= 0.0).astype(dtype)),
                        (AlternativeModel(0.0, 0.0),), McConfig(reps=10_000))


@pytest.fixture()
def fresh_draws():
    """Empty the draw cache around a test that changes the block size."""
    normal_pairs.cache_clear()
    yield
    normal_pairs.cache_clear()


class TestBlockedEngine:
    """The engine walks the sample in blocks; no returned bit may depend
    on the block size."""

    CFG = McConfig(reps=20_000, seed=31337)

    @pytest.fixture(scope="class")
    def omt_rule(self):
        spec = ObjectiveSpec(0.2, 0.3, 0.5, AlternativeModel(-2.5, -3.0), ALPHA)
        return build_omt(spec, QuadratureConfig())

    @staticmethod
    def events(rule):
        def alt(z1, z2):
            d1, d2 = rule.decide_z(z1, z2)
            return d1 | d2, d1, d2, d1 & d2
        return {"single": lambda z1, z2: (rule.decide_z(z1, z2)[0],),
                "cells": lambda z1, z2: tuple(np.floor(np.minimum(z1, z2)) == k
                                              for k in range(-4, 3)),
                "tuple": alt}

    @staticmethod
    def recorder(pairs):
        def ev(z1, z2):
            pairs.append((z1, z2))
            return (z1 <= 0.0,)
        return ev

    @staticmethod
    def as_bytes(pairs):
        return Counter((z1.tobytes(), z2.tobytes()) for z1, z2 in pairs)

    @pytest.mark.parametrize("block", [4096, 3000, 1 << 20, None])
    @pytest.mark.parametrize("rho", [0.0, 0.6])
    def test_block_size_leaves_estimates_unchanged(self, block, rho, omt_rule,
                                                   fresh_draws, monkeypatch):
        if block is not None:
            monkeypatch.setattr(omt2.numerics, "_BLOCK", block)
        model = AlternativeModel(-2.0, -2.5, rho)
        # omt rules score independent models only
        rule = omt_rule if rho == 0.0 else hommel(ALPHA)
        for name, ev in self.events(rule).items():
            assert (mc_estimate(ev, (model,), self.CFG)
                    == whole_sample_mc_estimate(ev, (model,), self.CFG)), name
        # the pairs the event sees, bit for bit; the blocks may run in any
        # order, so they are compared as multisets
        seen, whole = [], []
        mc_estimate(self.recorder(seen), (model,), self.CFG)
        whole_sample_mc_estimate(self.recorder(whole), (model,), self.CFG)
        (z1, z2), = whole
        step = omt2.numerics._BLOCK
        want = [(z1[lo:lo + step], z2[lo:lo + step])
                for lo in range(0, len(z1), step)]
        assert (sorted(len(b1) for b1, _ in seen)
                == sorted(len(b1) for b1, _ in want))
        assert self.as_bytes(seen) == self.as_bytes(want)

    @pytest.mark.parametrize("block", [3000, None])
    @pytest.mark.parametrize("rho", [0.0, 0.6])
    def test_models_share_one_draw(self, block, rho, fresh_draws, monkeypatch):
        # an alternative and its two semi-nulls in one call: each pair is
        # its model's full formula, bit for bit
        if block is not None:
            monkeypatch.setattr(omt2.numerics, "_BLOCK", block)
        cfg = McConfig(reps=20_001, seed=99)
        models = (AlternativeModel(-2.0, -2.5, rho), AlternativeModel(-2.0, 0.0, rho),
                  AlternativeModel(0.0, -2.5, rho))
        zz1, zz2 = normal_pairs(cfg.seed, cfg.reps)
        ev = lambda *zs: tuple(z <= -1.0 for z in zs)
        got = mc_estimate(ev, models, cfg)
        assert got == whole_sample_mc_estimate(ev, models, cfg)
        # one pair per model, each as a call with that model alone sees it
        assert got == [pair for m in models for pair in mc_estimate(ev, (m,), cfg)]
        seen = []
        mc_estimate(lambda *zs: seen.append(zs) or ev(*zs), models, cfg)
        for zs in seen:
            assert zs[4].base is zz1 and (zs[3].base is zz2) == (rho == 0.0)
        seen.sort(key=lambda zs: zs[4].ctypes.data)    # block order
        zz1, zz2 = whole_draws(cfg)
        whole = [z for m in models for z in shifted(m, zz1, zz2)]
        for k, z in enumerate(whole):
            assert np.concatenate([zs[k] for zs in seen]).tobytes() == z.tobytes()

    def test_event_sees_blocks(self, fresh_draws, monkeypatch):
        monkeypatch.setattr(omt2.numerics, "_BLOCK", 3000)
        sizes = []

        def ev(z1, z2):
            sizes.append(len(z1))
            return (z1 <= 0.0,)
        mc_estimate(ev, (AlternativeModel(0.0, 0.0),), McConfig(reps=10_001))
        assert Counter(sizes) == Counter({3000: 3, 1001: 1})

    @pytest.mark.parametrize("block, reps", [(None, 70_001), (3000, 10_001)])
    def test_blocked_draws_match_one_stream(self, block, reps, fresh_draws,
                                            monkeypatch):
        if block is not None:
            monkeypatch.setattr(omt2.numerics, "_BLOCK", block)
        z = std_normal_quantile(uniforms(5, 0, 2 * reps))
        zz1, zz2 = normal_pairs(5, reps)
        assert np.array_equal(zz1, z[:reps]) and np.array_equal(zz2, z[reps:])

    def test_cached_draws_are_read_only(self):
        zz1, zz2 = normal_pairs(11, 10_000)
        for zz in (zz1, zz2):
            with pytest.raises(ValueError):
                zz[0] = 0.0
            with pytest.raises(ValueError):
                zz += 1.0
        assert normal_pairs(11, 10_000)[0] is zz1


class TestThreadedEngine:
    """The blocks run on worker threads; no returned bit may depend on the
    worker count, and a block's failure reaches the caller."""

    CFG = McConfig(reps=200_001, seed=4242)     # four blocks, the last short

    @pytest.fixture(scope="class")
    def cases(self):
        spec = ObjectiveSpec(0.2, 0.3, 0.5, AlternativeModel(-2.5, -3.0), ALPHA)
        return [(build_omt(spec, QuadratureConfig()), spec.model),
                (hommel(ALPHA), AlternativeModel(-2.0, -2.5, 0.6))]

    @pytest.mark.parametrize("case", [0, 1], ids=["omt", "hommel-rho0.6"])
    def test_worker_count_leaves_mc_power_unchanged(self, case, cases,
                                                    fresh_draws, monkeypatch):
        rule, model = cases[case]
        results = []
        for workers in (1, 4):
            monkeypatch.setattr(omt2.numerics, "_worker_count", lambda: workers)
            normal_pairs.cache_clear()
            results.append(mc_power(rule, model, self.CFG))
        assert results[0] == results[1]

    def test_worker_count_leaves_counts_unchanged(self, cases, fresh_draws,
                                                  monkeypatch):
        rule, model = cases[1]
        models = (model, AlternativeModel(0.0, model.theta2, model.rho))
        ev = lambda z1, z2, y1, y2: (*rule.decide_z(z1, z2), rule.decide_z(y1, y2)[1])
        want = whole_sample_mc_estimate(ev, models, self.CFG)
        for workers in (1, 4):
            monkeypatch.setattr(omt2.numerics, "_worker_count", lambda: workers)
            normal_pairs.cache_clear()
            assert mc_estimate(ev, models, self.CFG) == want, workers

    @pytest.mark.parametrize("bad", ["float", "arity"])
    def test_failure_in_a_later_block_reaches_caller(self, bad, fresh_draws,
                                                     monkeypatch):
        monkeypatch.setattr(omt2.numerics, "_BLOCK", 3000)
        monkeypatch.setattr(omt2.numerics, "_worker_count", lambda: 4)

        def ev(z1, z2):
            hit = z1 <= 0.0
            if len(z1) == 3000:
                return (hit,)
            return (hit.astype(float),) if bad == "float" else (hit, hit)
        with pytest.raises(DomainError):
            mc_estimate(ev, (AlternativeModel(0.0, 0.0),), McConfig(reps=10_001))

    def test_first_failing_block_reaches_caller(self, fresh_draws, monkeypatch):
        # every block fails, slowly, so that the four workers all fail:
        # the caller sees block 0's error, as a sequential loop would
        # raise it, and no block starts after the first failure
        monkeypatch.setattr(omt2.numerics, "_BLOCK", 3000)
        monkeypatch.setattr(omt2.numerics, "_worker_count", lambda: 4)
        calls = []

        def ev(z1, z2):
            calls.append(len(z1))
            time.sleep(0.02)
            raise ValueError(repr(z1[0]))
        first = repr(std_normal_quantile(uniforms(5, 0, 1))[0])
        with pytest.raises(ValueError) as err:
            mc_estimate(ev, (AlternativeModel(0.0, 0.0),), McConfig(reps=30_000, seed=5))
        assert str(err.value) == first
        assert len(calls) <= 4

    def test_blocks_see_the_callers_numpy_error_state(self, fresh_draws,
                                                      monkeypatch):
        monkeypatch.setattr(omt2.numerics, "_BLOCK", 3000)
        monkeypatch.setattr(omt2.numerics, "_worker_count", lambda: 4)
        seen = []

        def ev(z1, z2):
            seen.append(np.geterr()["divide"])
            return (z1 <= 0.0,)
        with np.errstate(divide="raise"):
            mc_estimate(ev, (AlternativeModel(0.0, 0.0),), McConfig(reps=30_000))
        assert seen == ["raise"] * 10

    def test_concurrent_callers_get_sequential_results(self, cases, fresh_draws):
        # four calling threads, on two seeds that take turns in the one-entry
        # draw memo
        jobs = [(rule, model, McConfig(reps=100_000, seed=seed))
                for rule, model in cases for seed in (1, 2)]
        want = [mc_power(*job) for job in jobs]
        normal_pairs.cache_clear()
        got = [None] * len(jobs)

        def run(i):
            got[i] = mc_power(*jobs[i])
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == want
