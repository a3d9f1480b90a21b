import contextlib
import math
import signal
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import ndtr, owens_t

from omt2 import (MEASURE_WEIGHTS, AlternativeModel, DomainError, McConfig,
                  ObjectiveSpec, QuadratureConfig, score_z, std_normal_quantile)
from omt2.numerics import uniforms

# Registry filled by test_acceptance; printed as one line per criterion
# at the end of the run.
ACCEPTANCE_RESULTS: dict[str, tuple[bool, str]] = {}


def record_criterion(name: str, passed: bool, detail: str = "") -> None:
    ACCEPTANCE_RESULTS[name] = (passed, detail)


def measure_spec(measure: str, model, alpha: float) -> ObjectiveSpec:
    """The objective whose optimal rule maximizes ``measure``."""
    return ObjectiveSpec(*MEASURE_WEIGHTS[measure], model, alpha)


# -- p-space oracles: the library works in z-space only -----------------

def lr_density(p, theta: float):
    """Density at ``p`` of a p-value generated by ``Phi(theta + Z)``.

    Equals ``exp(quantile(p)*theta - theta**2/2)``, the likelihood
    ratio of the shifted alternative against the uniform null.  Only
    defined on the open interval (0, 1).
    """
    if not math.isfinite(theta):
        raise DomainError(f"theta must be finite, got {theta!r}")
    z = std_normal_quantile(p)
    return np.exp(z * theta - 0.5 * theta * theta)


def _check_p(p1, p2) -> None:
    a1, a2 = np.asarray(p1, dtype=float), np.asarray(p2, dtype=float)
    if np.any(a1 <= 0) or np.any(a1 >= 1) or np.any(a2 <= 0) or np.any(a2 >= 1):
        raise DomainError("p-values must lie in the open unit square")


def score(spec: ObjectiveSpec, p: tuple[float, float]) -> float:
    """Score s(p) of one p-value pair, through `score_z`."""
    p1, p2 = p
    _check_p(p1, p2)
    return float(score_z(spec, std_normal_quantile(p1), std_normal_quantile(p2)))


# -- exact masses for rules whose column cuts are linear in z1 -----------

def linear_primitive(x: float, a: float, b: float) -> float:
    """Integral of phi(z) * Phi(a + b z) over z <= x, in closed form: the
    bivariate normal CDF Phi2(x, a/r; -b/r) with r = sqrt(1 + b^2), through
    Owen's T function (Owen, Ann. Math. Statist. 27, 1956).  The arguments
    of T are formed from (x, a, b), so no 1 - rho^2 cancels as |b| grows."""
    if b == 0.0:
        return float(ndtr(x) * ndtr(a))
    k = a / math.sqrt(1.0 + b * b)
    if x == 0.0 and a == 0.0:
        return 0.25 - math.atan(b) / (2.0 * math.pi)
    if x == 0.0:
        return 0.5 * float(ndtr(k)) - float(owens_t(k, b))
    if a == 0.0:
        return 0.5 * float(ndtr(x)) - float(owens_t(x, b))
    return (0.5 * float(ndtr(x)) + 0.5 * float(ndtr(k))
            - float(owens_t(x, (a + b * x) / x))
            - float(owens_t(k, (x * (1.0 + b * b) + a * b) / a))
            - (0.5 if x * k < 0.0 else 0.0))


def exact_mass(proc, which: str, model=None, span: float = 40.0) -> float:
    """`region_mass` of a rule whose cut is constant, +-inf or linear in z1
    between its `z_breakpoints`, by `linear_primitive` on each segment of
    z1 in [-span, span].  Each segment reads its cut p + q*z1 at two
    interior points and checks a third against it, so a curved cut (an
    omt rule with w_one > 0) raises instead of being integrated.  The
    differences of primitives lose about 1e-16 in absolute terms, so the
    result is an oracle only for masses above about 1e-14."""
    m = model or AlternativeModel(0.0, 0.0)
    sd = math.sqrt(1.0 - m.rho * m.rho)
    ends = sorted({-span, span, *(z for z in proc.z_breakpoints() if -span < z < span)})
    total = 0.0
    for lo, hi in zip(ends, ends[1:]):
        zs = np.array([lo + (hi - lo) / 3.0, 0.5 * (lo + hi), hi - (hi - lo) / 3.0])
        c1, c2 = proc.column_cuts(zs)
        c = c1 if which == "d1" else c2 if which == "d2" else np.maximum(c1, c2)
        xl, xh = lo - m.theta1, hi - m.theta1
        if np.all(np.isinf(c)) and np.all(c == c[0]):
            total += float(ndtr(xh) - ndtr(xl)) if c[0] > 0 else 0.0
            continue
        q = (c[2] - c[0]) / (zs[2] - zs[0])
        p = c[0] - q * zs[0]
        if not abs(p + q * zs[1] - c[1]) <= 1e-9 * (1.0 + abs(c[1])):
            raise ValueError(f"cut of {proc.describe()} is not linear on [{lo}, {hi}]")
        a = (p + q * m.theta1 - m.theta2) / sd
        b = (q - m.rho) / sd
        total += linear_primitive(xh, a, b) - linear_primitive(xl, a, b)
    return total


# -- whole-sample Monte Carlo reference: no blocks, no threads ----------

def exact_sums(vals):
    """(sum x, sum x^2) as Python ints, by counting each distinct value."""
    counts = Counter(np.asarray(vals).tolist())
    return (sum(int(v) * c for v, c in counts.items()),
            sum(int(v) ** 2 * c for v, c in counts.items()))


def exact_se_squared(s1, s2, n):
    """The squared standard error (n*S2 - S1^2) / (n^2 (n-1)), exactly."""
    return Fraction(n * s2 - s1 * s1, n * n * (n - 1))


def whole_draws(cfg: McConfig) -> tuple[np.ndarray, np.ndarray]:
    """The engine's (Z1, Z2) as one full-length draw each."""
    u = uniforms(cfg.seed, 0, 2 * cfg.reps)
    return std_normal_quantile(u[:cfg.reps]), std_normal_quantile(u[cfg.reps:])


def shifted(model, zz1, zz2) -> tuple[np.ndarray, np.ndarray]:
    """One model's (z1, z2) by its full formula, no term dropped."""
    return (model.theta1 + zz1,
            model.theta2 + model.rho * zz1 + math.sqrt(1.0 - model.rho**2) * zz2)


def whole_sample_mc_estimate(event, models, cfg):
    """Reference engine: one draw and one event call on the whole sample,
    then the number of True values in each bool array."""
    zz1, zz2 = whole_draws(cfg)
    counts = []
    for arr in event(*(z for m in models for z in shifted(m, zz1, zz2))):
        assert arr.dtype == bool
        counts.append(sum(arr.tolist()))
    return counts


def bool_mean_se(count, n):
    """Mean and SE of n bool values of which count are True."""
    return count / n, math.sqrt(exact_se_squared(count, count, n))


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError inside the block once ``seconds`` of wall time
    have passed, so that a call that never returns fails its test instead
    of hanging the run (SIGALRM: POSIX, main thread only)."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def quad_cfg() -> QuadratureConfig:
    return QuadratureConfig()


@pytest.fixture(scope="session")
def mc_cfg() -> McConfig:
    return McConfig(reps=1_000_000, seed=20260810)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(98301)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(ACCEPTANCE_RESULTS):
        passed, detail = ACCEPTANCE_RESULTS[name]
        status = "PASS" if passed else "FAIL"
        line = f"{name}: {status}"
        if detail:
            line += f"  ({detail})"
        terminalreporter.write_line(line)
