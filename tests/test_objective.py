"""Objective coefficients and the score function."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from conftest import lr_density, measure_spec, score
from omt2 import (MEASURE_WEIGHTS, AlternativeModel, DomainError,
                  ObjectiveSpec, Procedure, score_z)
from omt2.gauss import alpha_lines

ALPHA = 0.025
MODEL = AlternativeModel(-2.0, -2.0)
SPECS = {m: measure_spec(m, MODEL, ALPHA)
         for m in ("pi_any", "pi_avg", "pi_1", "pi_combo")}
PURES = list(SPECS.values())[:3]


class TestSpecValidation:
    def test_weights_must_be_convex(self):
        with pytest.raises(DomainError):
            ObjectiveSpec(0.5, 0.5, 0.5, MODEL, ALPHA)
        with pytest.raises(DomainError):
            ObjectiveSpec(-0.1, 0.6, 0.5, MODEL, ALPHA)
        with pytest.raises(DomainError):
            ObjectiveSpec(float("nan"), 0.5, 0.5, MODEL, ALPHA)

    def test_numpy_weights_stored_as_floats(self):
        # a kink root that overflows is then inf, as for Python weights,
        # instead of a numpy "overflow in scalar divide" warning
        spec = ObjectiveSpec(*np.array([0.0, 1.0, 0.0]), AlternativeModel(-30.0, -30.0),
                             ALPHA)
        assert all(type(w) is float for w in spec.weights)
        rule = Procedure("omt", ALPHA, spec=spec, t_score=1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rule.z_breakpoints() == [alpha_lines(ALPHA)[0]]

    def test_weights_must_be_numbers(self):
        for w in (("1", 0, 0), (1, None, 0)):
            with pytest.raises(DomainError):
                ObjectiveSpec(*w, MODEL, ALPHA)
        assert ObjectiveSpec(np.float64(1.0), 0, 0, MODEL, ALPHA).w_any == 1.0

    def test_alpha_range(self):
        for alpha in (0.6, 0.0, "0.025", None):
            with pytest.raises(DomainError):
                ObjectiveSpec(1, 0, 0, MODEL, alpha)
        assert ObjectiveSpec(1.0, 0.0, 0.0, MODEL, 0.5).alpha == 0.5

    def test_thetas_strictly_negative(self):
        with pytest.raises(DomainError):
            measure_spec("pi_1", AlternativeModel(0.0, -2.0), ALPHA)

    def test_correlated_model_rejected_at_construction(self):
        # checked once, when the spec is built, not at every score
        with pytest.raises(DomainError, match=r"independent p-values only"):
            measure_spec("pi_1", AlternativeModel(-2.0, -2.0, 0.4), ALPHA)


class TestSpecGeometry:
    """The spec derives its score geometry once, outside equality, hash
    and repr."""

    @staticmethod
    def make(alpha=0.025):
        return ObjectiveSpec(0.2, 0.3, 0.5, AlternativeModel(-2.5, -2.0), alpha)

    def test_equal_specs_compare_and_hash_equal(self):
        a, b = self.make(), self.make()
        assert a.cols is not b.cols
        assert a == b and hash(a) == hash(b)
        assert a != self.make(0.05)

    def test_repr_shows_the_fields_alone(self):
        assert repr(self.make()) == (
            "ObjectiveSpec(w_any=0.2, w_avg=0.3, w_one=0.5, model=AlternativeModel("
            "theta1=-2.5, theta2=-2.0, rho=0.0), alpha=0.025)")

    def test_columns_are_read_only(self):
        spec = self.make()
        with pytest.raises(ValueError):
            spec.cols[0][:] = 0.0
        assert [col.shape for col in spec.cols] == [(3, 1)] * 3
        assert [tuple(col[:, 0]) for col in spec.cols] == list(zip(*spec.pieces))

    def test_replace_derives_again(self):
        spec = dataclasses.replace(self.make(), alpha=0.05)
        assert spec.za == alpha_lines(0.05)[0]
        assert spec.ea2 == math.exp(-2.0 * spec.za - 2.0)

    def test_e2_at_za_overflows_to_inf(self):
        # a subnormal alpha puts za near -38.3, and theta2 = -35 then
        # takes theta2*za - theta2^2/2 past log(max float)
        assert ObjectiveSpec(1, 0, 0, AlternativeModel(-1.0, -35.0), 1e-320).ea2 == math.inf


class TestCoefficients:
    """Each objective's (c_g, c_1, c_2) on the square, z1 flank and z2 flank."""

    def test_pure_any_has_no_marginal_terms(self):
        for c_g, c_1, c_2 in SPECS["pi_any"].pieces:
            assert c_1 == 0.0 and c_2 == 0.0

    def test_pure_one_has_no_joint_term(self):
        for c_g, c_1, c_2 in SPECS["pi_1"].pieces:
            assert c_g == 0.0

    def test_pure_avg_half_joint_density(self):
        c_g, c_1, c_2 = SPECS["pi_avg"].pieces[0]
        assert (c_g, c_1, c_2) == (1.0, 0.0, 0.0)
        # on the square a1 = a2 = c_g*lr1*lr2/2; lr(0.5, -2)^2 / 2 = exp(-4) / 2
        a = c_g * lr_density(0.5, -2.0) * lr_density(0.5, -2.0) / 2.0
        assert a == pytest.approx(math.exp(-4.0) / 2.0, rel=1e-12)


class TestScore:
    def test_one_false_null_flank_value(self):
        spec = SPECS["pi_1"]
        expected = 0.5 * float(lr_density(0.02, -2.0))
        assert score(spec, (0.02, 0.5)) == pytest.approx(expected, rel=1e-12)
        # direct evaluation of 0.5*exp(quantile(0.02)*(-2) - 2)
        assert expected == pytest.approx(4.1138, abs=1e-3)

    def test_zero_outside_l_domain(self, rng):
        for spec in SPECS.values():
            for _ in range(10):
                p = tuple(rng.uniform(0.03, 0.99, size=2))
                assert score(spec, p) == 0.0

    def test_any_score_covers_whole_l_domain(self):
        """The joint-density term stays active when only one p-value is
        small; this is what lets the any-objective construction reach
        level alpha (its region extends into the flanks)."""
        spec = SPECS["pi_any"]
        expected = float(lr_density(0.02, -2.0) * lr_density(0.5, -2.0))
        assert score(spec, (0.02, 0.5)) == pytest.approx(expected, rel=1e-12)

    def test_square_value_matches_pairwise_form(self, rng):
        """On the square the one-false-null score is the plain average
        of the two per-coordinate likelihood ratios."""
        spec = SPECS["pi_1"]
        for _ in range(20):
            p1, p2 = rng.uniform(1e-4, ALPHA, size=2)
            expected = 0.5 * (float(lr_density(p1, -2.0))
                              + float(lr_density(p2, -2.0)))
            assert score(spec, (p1, p2)) == pytest.approx(expected, rel=1e-12)

    def test_linearity_in_weights(self, rng):
        w = (0.2, 0.3, 0.5)
        mixed = ObjectiveSpec(*w, MODEL, ALPHA)
        for _ in range(200):
            p = tuple(rng.uniform(1e-4, 0.999, size=2))
            combo = sum(wi * score(s, p) for wi, s in zip(w, PURES))
            assert score(mixed, p) == pytest.approx(combo, abs=1e-12 * (1 + combo))

    def test_componentwise_monotone_within_rectangles(self, rng):
        """score(p) >= score(q) whenever p <= q inside one indicator
        rectangle (10^4 ordered pairs)."""
        specs = list(SPECS.values())
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
        for spec in PURES:
            for _ in range(50):
                p1, p2 = rng.uniform(1e-4, 0.999, size=2)
                s_ab = score(spec, (p1, p2))
                s_ba = score(spec, (p2, p1))
                assert s_ab == pytest.approx(s_ba, abs=1e-12 * (1 + s_ab))

    def test_score_z_vectorization_matches_scalar(self, rng):
        from omt2 import std_normal_quantile
        spec = measure_spec("pi_combo", AlternativeModel(-1.5, -2.5), ALPHA)
        p = rng.uniform(1e-4, 0.999, size=(40, 2))
        z1 = std_normal_quantile(p[:, 0])
        z2 = std_normal_quantile(p[:, 1])
        vec = score_z(spec, z1, z2)
        for k in range(len(p)):
            assert vec[k] == pytest.approx(score(spec, tuple(p[k])), rel=1e-12)

    def test_out_of_range_p(self):
        spec = SPECS["pi_1"]
        with pytest.raises(DomainError):
            score(spec, (0.0, 0.5))
        with pytest.raises(DomainError):
            score(spec, (0.5, 1.0))


def expression_score_z(spec, z1, z2):
    """The score as one out-of-place expression, term by term in the
    order `score_z` forms it in place."""
    za = alpha_lines(spec.alpha)[0]
    z1 = np.asarray(z1, dtype=float)
    z2 = np.asarray(z2, dtype=float)
    t1, t2 = spec.model.theta1, spec.model.theta2
    e1 = np.exp(t1 * z1 - 0.5 * t1 * t1)
    e2 = np.exp(t2 * z2 - 0.5 * t2 * t2)
    in1 = z1 <= za
    in2 = z2 <= za
    g = e1 * e2

    def term(w, x):
        # a zero-weight term is exactly 0, also where x overflowed to inf
        return w * x if w else 0.0
    s = term(spec.w_any, g) * (in1 | in2)
    s = s + in1 * (term(spec.w_avg, g) / 2.0 + term(spec.w_one, e1) / 2.0)
    s = s + in2 * (term(spec.w_avg, g) / 2.0 + term(spec.w_one, e2) / 2.0)
    return s


class TestScoreInPlace:
    WEIGHTS = [*MEASURE_WEIGHTS.values(), (0.2, 0.3, 0.5), (0.0, 0.5, 0.5),
               (0.5, 0.5, 0.0)]
    SPEC_MODEL = AlternativeModel(-2.5, -3.5)

    def inputs(self, rng):
        za = alpha_lines(ALPHA)[0]
        # both sides of the alpha line, the line itself, and shifts large
        # enough that exp overflows (a zero-weight term stays 0 there; where
        # the expression meets inf*0, score_z recomputes the entry)
        z = np.concatenate([rng.uniform(-9.0, 6.0, 60), [za, -300.0, 300.0]])
        z2d = rng.uniform(-9.0, 6.0, (2, 3, 7)).reshape(6, 7)
        return [(-1.7, -2.4), (za, 2.0),
                (np.array(-2.1), np.array(-1.9)),
                (z, rng.permutation(z)), (z2d, z2d[::-1]),
                (z[:7], z2d), (-2.2, z)]

    @pytest.mark.parametrize("w", WEIGHTS)
    def test_bits_match_expression(self, w, rng):
        spec = ObjectiveSpec(*w, self.SPEC_MODEL, ALPHA)
        with np.errstate(over="ignore", invalid="ignore"):
            for z1, z2 in self.inputs(rng):
                got = score_z(spec, z1, z2)
                want = expression_score_z(spec, z1, z2)
                assert type(got) is type(want)
                assert np.shape(got) == np.shape(want)
                kept = ~np.isnan(want)
                assert not np.isnan(got).any()
                assert (np.asarray(got)[kept].tobytes()
                        == np.asarray(want)[kept].tobytes())

    @pytest.mark.parametrize("w", WEIGHTS)
    def test_inf_times_zero_is_recomputed(self, w):
        # (-300, 300): e1 overflows and e2 underflows, so g = e1*e2 is
        # inf*0; (-300, 1): g overflows where z2's indicator is false.  The
        # score is exp(f1 + f2) times the joint weights, plus +inf where
        # w_one meets e1; only those entries change
        spec = ObjectiveSpec(*w, self.SPEC_MODEL, ALPHA)
        z1, z2 = np.array([-300.0, -300.0, -2.5]), np.array([300.0, 1.0, -2.5])
        got = score_z(spec, z1, z2)
        w_any, w_avg, w_one = w
        t1, t2 = self.SPEC_MODEL.theta1, self.SPEC_MODEL.theta2
        g = math.exp((t1 * z1[0] - 0.5 * t1 * t1) + (t2 * z2[0] - 0.5 * t2 * t2))
        want0 = math.inf if w_one else w_any * g + w_avg * g / 2.0
        assert got[0] == pytest.approx(want0, rel=1e-12)
        assert got[1] == math.inf
        with np.errstate(over="ignore", invalid="ignore"):
            assert got[2:].tobytes() == expression_score_z(spec, z1, z2)[2:].tobytes()

    @pytest.mark.parametrize("measure", ["pi_1", "pi_combo"])
    def test_overflow_saturates_at_inf(self, measure):
        # e1 overflows at z1 = -300; no zero weight multiplies that inf, so
        # the score is +inf, with no warning
        spec = measure_spec(measure, self.SPEC_MODEL, ALPHA)
        assert score_z(spec, -300.0, 1.0) == math.inf
        assert np.array_equal(score_z(spec, [-300.0, 1.0], [1.0, -300.0]),
                              [math.inf, math.inf])

    def test_inputs_are_not_written(self, rng):
        spec = ObjectiveSpec(0.2, 0.3, 0.5, self.SPEC_MODEL, ALPHA)
        z1, z2 = rng.uniform(-6.0, 2.0, (2, 500))
        kept = z1.copy(), z2.copy()
        z1.setflags(write=False)
        z2.setflags(write=False)
        score_z(spec, z1, z2)
        assert np.array_equal(z1, kept[0]) and np.array_equal(z2, kept[1])
