import contextlib
import math
import signal
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from omt2 import (MEASURE_WEIGHTS, DomainError, McConfig, ObjectiveSpec,
                  QuadratureConfig, score_z, std_normal_quantile)
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
