import math

import numpy as np
import pytest

from omt2 import (MEASURE_WEIGHTS, DomainError, McConfig, ObjectiveSpec,
                  QuadratureConfig, score_z, std_normal_quantile)

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
