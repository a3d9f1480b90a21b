"""Normal kernels: frozen oracle values and distributional properties."""

import math

import numpy as np
import pytest
from mpmath import mp
from scipy.integrate import dblquad, quad

from conftest import lr_density
from omt2 import (AlternativeModel, DomainError, QuadratureConfig, bonferroni,
                  fwer_global, hommel, std_normal_cdf, std_normal_quantile)
from omt2.gauss import ALPHA_MIN, check_alpha, clamp_pvalue


def mp_quantile(u: float, dps: int = 50) -> float:
    """High-precision quantile by bisection on mpmath's normal CDF."""
    with mp.workdps(dps):
        target = mp.mpf(float(u))
        lo, hi = mp.mpf(-40), mp.mpf(40)
        for _ in range(220):
            mid = (lo + hi) / 2
            if mp.ncdf(mid) < target:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


def mp_quantile_newton(u: float, start: float) -> float:
    """The quantile of ``u`` rounded from 40 digits: Newton's method on
    mpmath's normal CDF, iterated until the step drops below 1e-30.

    The last step bounds the remaining error, so the start only sets the
    number of iterations; a start that does not converge fails the test.
    On the sample below this gives the same doubles as
    ``sqrt(2) * erfinv(2u - 1)`` at 340 digits, in a fraction of the time.
    """
    with mp.workdps(40):
        target, z = mp.mpf(float(u)), mp.mpf(float(start))
        for _ in range(40):
            step = (mp.ncdf(z) - target) / mp.npdf(z)
            z -= step
            if abs(step) <= mp.mpf(10) ** -30 * (1 + abs(z)):
                return float(z)
    raise AssertionError(f"Newton did not converge for u={u!r} from {start!r}")


class TestStdNormalCdf:
    def test_symmetry_at_zero(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_quantile_oracle_value(self):
        # Phi(-1.959964) = 0.025 up to the oracle's own rounding
        assert std_normal_cdf(-1.959964) == pytest.approx(0.025, abs=1e-6)

    def test_far_tail_saturates(self):
        assert std_normal_cdf(50.0) == 1.0
        assert std_normal_cdf(-50.0) == 0.0

    def test_matches_mpmath_on_grid(self):
        zs = np.linspace(-8.0, 8.0, 33)
        with mp.workdps(40):
            exact = [float(mp.ncdf(mp.mpf(float(z)))) for z in zs]
        got = std_normal_cdf(zs)
        np.testing.assert_allclose(got, exact, atol=1e-14, rtol=0)

    def test_array_and_scalar_agree(self):
        zs = np.array([-2.0, 0.3, 1.7])
        arr = std_normal_cdf(zs)
        for z, v in zip(zs, arr):
            assert std_normal_cdf(float(z)) == pytest.approx(float(v), abs=1e-16)


class TestStdNormalQuantile:
    def test_median(self):
        assert std_normal_quantile(0.5) == 0.0

    @pytest.mark.parametrize("u,expected", [(0.025, -1.959964), (0.0125, -2.241403)])
    def test_bisection_oracle(self, u, expected):
        oracle = mp_quantile(u)
        assert oracle == pytest.approx(expected, abs=1e-5)
        assert std_normal_quantile(u) == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("u", [0.0, 1.0, -0.2, 1.5, float("nan")])
    def test_domain_errors(self, u):
        with pytest.raises(DomainError):
            std_normal_quantile(u)

    def test_within_8_ulp_of_exact(self, rng):
        u = np.concatenate([rng.uniform(size=1000),
                            np.geomspace(1e-300, 0.49, 200),
                            1.0 - np.geomspace(2.0**-53, 0.49, 100)])
        got = std_normal_quantile(u)
        exact = np.array([mp_quantile_newton(x, z) for x, z in zip(u, got)])
        ulps = np.abs(got - exact) / np.spacing(np.abs(exact))
        worst = int(np.argmax(ulps))
        assert ulps[worst] <= 8, f"{ulps[worst]:.0f} ulp at u={u[worst]!r}"

    def test_round_trip(self, rng):
        """|Phi(quantile(u)) - u| <= 1e-10 across (1e-10, 1 - 1e-10)."""
        u = rng.uniform(1e-10, 1.0 - 1e-10, size=10_000)
        back = std_normal_cdf(std_normal_quantile(u))
        assert np.max(np.abs(back - u)) <= 1e-10

    def test_round_trip_tails(self):
        u = np.concatenate([np.geomspace(1e-10, 0.4, 200),
                            1.0 - np.geomspace(1e-10, 0.4, 200)])
        back = std_normal_cdf(std_normal_quantile(u))
        assert np.max(np.abs(back - u)) <= 1e-12


class TestLrDensity:
    def test_null_is_uniform(self, rng):
        for p in rng.uniform(1e-6, 1 - 1e-6, size=20):
            assert lr_density(p, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_midpoint_value(self):
        for theta in (-0.5, -2.0, -3.7):
            assert lr_density(0.5, theta) == pytest.approx(
                math.exp(-0.5 * theta**2), rel=1e-13)

    def test_direct_evaluation(self):
        # exp((-1.959964)*(-3) - 4.5)
        assert lr_density(0.025, -3.0) == pytest.approx(3.9745, abs=1e-3)
        exact = math.exp(mp_quantile(0.025) * -3.0 - 4.5)
        assert lr_density(0.025, -3.0) == pytest.approx(exact, rel=1e-10)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 2.0])
    def test_domain(self, p):
        with pytest.raises(DomainError):
            lr_density(p, -1.0)

    @pytest.mark.parametrize("theta", [-3.0, -1.0, 0.0])
    def test_integrates_to_one(self, theta):
        val, err = quad(lambda p: lr_density(p, theta), 0.0, 1.0,
                        limit=400, epsabs=1e-11)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_monotone_likelihood_ratio(self):
        p = np.linspace(1e-8, 1 - 1e-8, 2001)
        vals = lr_density(p, -1.5)
        assert np.all(np.diff(vals) < 0)


def bivariate_null_density(z1, z2, rho: float):
    """Standard bivariate normal density with correlation ``rho``: the
    oracle for the correlated global null (`TestBivariateNullDensity`)."""
    if not (math.isfinite(rho) and -1.0 < rho < 1.0):
        raise DomainError(f"rho must be in (-1, 1), got {rho!r}")
    det = 1.0 - rho * rho
    quad_form = (np.square(z1) - 2.0 * rho * np.multiply(z1, z2) + np.square(z2)) / det
    return np.exp(-0.5 * quad_form) / (2.0 * math.pi * math.sqrt(det))


class TestBivariateNullDensity:
    def test_independent_origin(self):
        assert bivariate_null_density(0.0, 0.0, 0.0) == pytest.approx(
            1.0 / (2 * math.pi), rel=1e-14)

    def test_product_form(self):
        phi = lambda z: math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
        assert bivariate_null_density(1.0, -1.0, 0.0) == pytest.approx(
            phi(1.0) * phi(-1.0), rel=1e-13)

    def test_correlated_origin(self):
        assert bivariate_null_density(0.0, 0.0, 0.5) == pytest.approx(
            1.0 / (2 * math.pi * math.sqrt(0.75)), rel=1e-13)

    @pytest.mark.parametrize("rho", [1.0, -1.0, 1.5])
    def test_domain(self, rho):
        with pytest.raises(DomainError):
            bivariate_null_density(0.0, 0.0, rho)

    @pytest.mark.parametrize("rho", [0.0, 0.5, -0.5])
    def test_integrates_to_one(self, rho):
        val, err = dblquad(lambda y, x: bivariate_null_density(x, y, rho),
                           -8.5, 8.5, -8.5, 8.5, epsabs=1e-9)
        assert val == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("rho", [-0.5, 0.3, 0.8])
    def test_correlated_fwer_global(self, rho):
        """The ray quadrature's correlated global-null rejection mass for
        bonferroni and hommel against the density integrated over boxes:
        bonferroni rejects when min(z) <= z(alpha/2), hommel also when
        both z-scores lie in (z(alpha/2), z(alpha)]."""
        za, zh = std_normal_quantile(0.025), std_normal_quantile(0.0125)

        def box(lo, hi):
            return dblquad(lambda y, x: bivariate_null_density(x, y, rho),
                           lo, hi, lo, hi, epsabs=1e-12, epsrel=1e-10)[0]

        fwer_bonf = 2.0 * std_normal_cdf(zh) - box(-12.0, zh)
        cfg = QuadratureConfig()
        assert fwer_global(bonferroni(0.025), rho, cfg) == pytest.approx(
            fwer_bonf, abs=1e-12)
        assert fwer_global(hommel(0.025), rho, cfg) == pytest.approx(
            fwer_bonf + box(zh, za), abs=1e-12)


class TestAlternativeModel:
    def test_rho_domain(self):
        with pytest.raises(DomainError):
            AlternativeModel(-1.0, -1.0, 1.0)

    def test_finite_thetas(self):
        with pytest.raises(DomainError):
            AlternativeModel(float("inf"), -1.0)

    @pytest.mark.parametrize("args", [("-2", -2), (-2, None), (-2, -2, "0.5")])
    def test_non_numeric_fields(self, args):
        with pytest.raises(DomainError):
            AlternativeModel(*args)

    def test_numpy_scalars_accepted(self):
        m = AlternativeModel(np.float64(-2.0), np.float32(-2.5), np.float64(0.5))
        assert (m.theta1, m.theta2, m.rho) == (-2.0, -2.5, 0.5)

    def test_defaults_independent(self):
        m = AlternativeModel(-2.0, -3.0)
        assert m.rho == 0.0
        assert (m.theta1, m.theta2) == (-2.0, -3.0)


class TestRealDomain:
    """The level and p-value checks accept the same reals as the models."""

    def test_numpy_alpha_accepted(self):
        assert hommel(np.float32(0.025)).alpha == float(np.float32(0.025))
        assert check_alpha(np.float64(0.025)) == 0.025

    def test_numpy_pvalue_accepted(self):
        assert (hommel(0.025).decide((np.float32(0.01), 0.5)).as_tuple()
                == hommel(0.025).decide((0.01, 0.5)).as_tuple())

    @pytest.mark.parametrize("p", [True, False, np.True_, "0.5", None])
    def test_pvalue_bools_and_non_numbers_rejected(self, p):
        with pytest.raises(DomainError):
            clamp_pvalue(p)

    @pytest.mark.parametrize("alpha", [True, False, np.True_, "0.025", None])
    def test_alpha_bools_and_non_numbers_rejected(self, alpha):
        with pytest.raises(DomainError):
            check_alpha(alpha)

    @pytest.mark.parametrize("alpha", [5e-324, 1e-310, np.nextafter(ALPHA_MIN, 0.0)])
    def test_subnormal_alpha_rejected(self, alpha):
        with pytest.raises(DomainError, match=r"^alpha must be at least the smallest "
                                              r"normal float 2\.2250738585072014e-308, "):
            check_alpha(alpha)
        assert check_alpha(ALPHA_MIN) == ALPHA_MIN == 2.2250738585072014e-308
