"""Objective coefficients and the score function."""

import math

import numpy as np
import pytest

from omt2 import (AlternativeModel, DomainError, ObjectiveSpec,
                  UnsupportedModel, coefficient, combo_any_one, lr_density,
                  pure_any, pure_avg, pure_one, score, score_z)

ALPHA = 0.025
MODEL = AlternativeModel(-2.0, -2.0)


class TestSpecValidation:
    def test_weights_must_be_convex(self):
        with pytest.raises(DomainError):
            ObjectiveSpec(0.5, 0.5, 0.5, MODEL, ALPHA)
        with pytest.raises(DomainError):
            ObjectiveSpec(-0.1, 0.6, 0.5, MODEL, ALPHA)
        with pytest.raises(DomainError):
            ObjectiveSpec(float("nan"), 0.5, 0.5, MODEL, ALPHA)

    def test_alpha_range(self):
        with pytest.raises(DomainError):
            pure_any(MODEL, 0.6)
        with pytest.raises(DomainError):
            pure_any(MODEL, 0.0)

    def test_thetas_strictly_negative(self):
        with pytest.raises(DomainError):
            pure_one(AlternativeModel(0.0, -2.0), ALPHA)

    def test_correlated_model_rejected_at_use(self):
        spec = pure_one(AlternativeModel(-2.0, -2.0, 0.4), ALPHA)
        with pytest.raises(UnsupportedModel):
            score(spec, (0.01, 0.01))


class TestCoefficients:
    def test_pure_any_has_no_marginal_terms(self, rng):
        spec = pure_any(MODEL, ALPHA)
        for _ in range(5):
            p = tuple(rng.uniform(0.001, 0.999, size=2))
            assert coefficient(spec, "a1", p) == 0.0
            assert coefficient(spec, "a2", p) == 0.0

    def test_pure_one_has_no_joint_term(self, rng):
        spec = pure_one(MODEL, ALPHA)
        for _ in range(5):
            p = tuple(rng.uniform(0.001, 0.999, size=2))
            assert coefficient(spec, "a3", p) == 0.0

    def test_pure_avg_half_joint_density(self):
        spec = pure_avg(MODEL, ALPHA)
        # lr(0.5, -2)^2 / 2 = exp(-4) / 2
        assert coefficient(spec, "a1", (0.5, 0.5)) == pytest.approx(
            math.exp(-4.0) / 2.0, rel=1e-12)
        assert coefficient(spec, "a2", (0.5, 0.5)) == pytest.approx(
            math.exp(-4.0) / 2.0, rel=1e-12)

    def test_unknown_coefficient(self):
        with pytest.raises(DomainError):
            coefficient(pure_any(MODEL, ALPHA), "a4", (0.5, 0.5))


class TestScore:
    def test_one_false_null_flank_value(self):
        spec = pure_one(MODEL, ALPHA)
        expected = 0.5 * float(lr_density(0.02, -2.0))
        assert score(spec, (0.02, 0.5)) == pytest.approx(expected, rel=1e-12)
        # direct evaluation of 0.5*exp(quantile(0.02)*(-2) - 2)
        assert expected == pytest.approx(4.1138, abs=1e-3)

    def test_zero_outside_l_domain(self, rng):
        for spec in (pure_any(MODEL, ALPHA), pure_avg(MODEL, ALPHA),
                     pure_one(MODEL, ALPHA), combo_any_one(MODEL, ALPHA)):
            for _ in range(10):
                p = tuple(rng.uniform(0.03, 0.99, size=2))
                assert score(spec, p) == 0.0

    def test_any_score_covers_whole_l_domain(self):
        """The joint-density term stays active when only one p-value is
        small; this is what lets the any-objective construction reach
        level alpha (its region extends into the flanks)."""
        spec = pure_any(MODEL, ALPHA)
        expected = float(lr_density(0.02, -2.0) * lr_density(0.5, -2.0))
        assert score(spec, (0.02, 0.5)) == pytest.approx(expected, rel=1e-12)

    def test_square_value_matches_pairwise_form(self, rng):
        """On the square the one-false-null score is the plain average
        of the two per-coordinate likelihood ratios."""
        spec = pure_one(MODEL, ALPHA)
        for _ in range(20):
            p1, p2 = rng.uniform(1e-4, ALPHA, size=2)
            expected = 0.5 * (float(lr_density(p1, -2.0))
                              + float(lr_density(p2, -2.0)))
            assert score(spec, (p1, p2)) == pytest.approx(expected, rel=1e-12)

    def test_linearity_in_weights(self, rng):
        w = (0.2, 0.3, 0.5)
        mixed = ObjectiveSpec(*w, MODEL, ALPHA)
        pures = (pure_any(MODEL, ALPHA), pure_avg(MODEL, ALPHA),
                 pure_one(MODEL, ALPHA))
        for _ in range(200):
            p = tuple(rng.uniform(1e-4, 0.999, size=2))
            combo = sum(wi * score(s, p) for wi, s in zip(w, pures))
            assert score(mixed, p) == pytest.approx(combo, abs=1e-12 * (1 + combo))

    def test_componentwise_monotone_within_rectangles(self, rng):
        """score(p) >= score(q) whenever p <= q inside one indicator
        rectangle (10^4 ordered pairs)."""
        specs = [pure_any(MODEL, ALPHA), pure_avg(MODEL, ALPHA),
                 pure_one(MODEL, ALPHA), combo_any_one(MODEL, ALPHA)]
        rects = [((1e-6, ALPHA), (1e-6, ALPHA)),
                 ((1e-6, ALPHA), (ALPHA, 1 - 1e-6)),
                 ((ALPHA, 1 - 1e-6), (1e-6, ALPHA))]
        n = 10_000 // (len(specs) * len(rects)) + 1
        for spec in specs:
            for (lo1, hi1), (lo2, hi2) in rects:
                a = np.sort(rng.uniform(lo1, hi1, size=(n, 2)), axis=1)
                b = np.sort(rng.uniform(lo2, hi2, size=(n, 2)), axis=1)
                lo = np.column_stack([a[:, 0], b[:, 0]])
                hi = np.column_stack([a[:, 1], b[:, 1]])
                for (p1, p2), (q1, q2) in zip(lo, hi):
                    assert score(spec, (p1, p2)) >= score(spec, (q1, q2)) - 1e-15

    def test_exchangeable_symmetry(self, rng):
        for spec in (pure_any(MODEL, ALPHA), pure_avg(MODEL, ALPHA),
                     pure_one(MODEL, ALPHA)):
            for _ in range(50):
                p1, p2 = rng.uniform(1e-4, 0.999, size=2)
                s_ab = score(spec, (p1, p2))
                s_ba = score(spec, (p2, p1))
                assert s_ab == pytest.approx(s_ba, abs=1e-12 * (1 + s_ab))

    def test_score_z_vectorization_matches_scalar(self, rng):
        from omt2 import std_normal_quantile
        spec = combo_any_one(AlternativeModel(-1.5, -2.5), ALPHA)
        p = rng.uniform(1e-4, 0.999, size=(40, 2))
        z1 = std_normal_quantile(p[:, 0])
        z2 = std_normal_quantile(p[:, 1])
        vec = score_z(spec, z1, z2)
        for k in range(len(p)):
            assert vec[k] == pytest.approx(score(spec, tuple(p[k])), rel=1e-12)

    def test_out_of_range_p(self):
        spec = pure_one(MODEL, ALPHA)
        with pytest.raises(DomainError):
            score(spec, (0.0, 0.5))
        with pytest.raises(DomainError):
            score(spec, (0.5, 1.0))
