"""Deterministic quadrature, scalar root finding, and seeded Monte Carlo.

Quadrature strategy
-------------------
All two-dimensional integrals over the p-value unit square are computed
in z-space (``z_i = quantile(p_i)``), where every density of interest is
a (possibly correlated) bivariate normal and the ``p = alpha`` lines map
to vertical/horizontal panel boundaries.  Fixed Gauss-Legendre panels
are aligned with those boundaries so that no panel straddles an
indicator discontinuity; accuracy is certified by comparing against a
panel-doubled evaluation.

For the decision-region integrals there is a faster exact-inner-integral
path, `procedures.region_mass`: every decision region encountered in
this package has columns of the form ``{z2 <= cut(z1)}``, so the inner
integral is a closed-form normal CDF and only the outer integral needs
quadrature.

Monte Carlo engine
------------------
A counter-based splitmix64 generator drives the simulation so that a
(seed, reps) pair reproduces bit-identical output on any platform or
execution order.  Output k of the stream is

    mix64(seed + (k + 1) * 0x9E3779B97F4A7C15)   (mod 2^64)

where mix64 is the standard splitmix64 finalizer.  Uniforms are the top
53 bits offset by half an ulp (so they lie strictly inside (0, 1)), and
normal deviates are produced by the inverse-CDF transform, reusing
`gauss.std_normal_quantile`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import ndtr

from .errors import DomainError, MaxIterations, NoBracket, ToleranceNotMet
from .gauss import AlternativeModel, std_normal_quantile

__all__ = [
    "QuadratureConfig",
    "McConfig",
    "integrate_region",
    "bisect",
    "mc_estimate",
    "normal_pairs",
]

# Half-width of the z-range used when truncating integrals against a
# normal weight; phi(9.5) ~ 3e-21 so the truncation error is far below
# every tolerance used in the package.
Z_RANGE = 9.5

_MAX_DOUBLINGS = 2


@dataclass(frozen=True)
class QuadratureConfig:
    """Panel layout for deterministic Gauss-Legendre quadrature."""

    panels_per_axis: int = 24
    nodes_per_panel: int = 16
    abs_tol: float = 1e-8

    def __post_init__(self):
        if self.panels_per_axis < 8:
            raise DomainError("panels_per_axis must be >= 8")
        if self.nodes_per_panel < 2:
            raise DomainError("nodes_per_panel must be >= 2")
        if not self.abs_tol > 0:
            raise DomainError("abs_tol must be positive")


@dataclass(frozen=True)
class McConfig:
    """Replication count and seed for the Monte Carlo oracle."""

    reps: int = 1_000_000
    seed: int = 20260810

    def __post_init__(self):
        if self.reps < 10_000:
            raise DomainError("reps must be >= 10_000")
        if not 0 <= int(self.seed) < 2**64:
            raise DomainError("seed must fit in 64 unsigned bits")


_LEGGAUSS_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached Gauss-Legendre nodes/weights on [-1, 1]."""
    if order not in _LEGGAUSS_CACHE:
        _LEGGAUSS_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _LEGGAUSS_CACHE[order]


def panel_nodes(lo: float, hi: float, breaks: Sequence[float],
                panels: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [lo, hi].

    The interval is first split at every interior break point, then each
    segment is subdivided into panels of width at most (hi-lo)/panels.
    Nodes are returned in ascending order, so reductions over them are
    deterministic.
    """
    if not hi > lo:
        raise DomainError(f"empty integration range [{lo}, {hi}]")
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


def _z_density(z1: np.ndarray, z2: np.ndarray, model: AlternativeModel | None) -> np.ndarray:
    """Joint density of the z-scores under ``model`` (None = global null)."""
    if model is None:
        t1 = t2 = rho = 0.0
    else:
        t1, t2, rho = model.theta1, model.theta2, model.rho
    s2 = 1.0 - rho * rho
    r1 = z1 - t1
    r2 = z2 - t2
    quad_form = (r1 * r1 - 2.0 * rho * r1 * r2 + r2 * r2) / s2
    return np.exp(-0.5 * quad_form) / (2.0 * math.pi * math.sqrt(s2))


def integrate_region(f: Callable, indicator: Callable,
                     model: AlternativeModel | None,
                     cfg: QuadratureConfig,
                     extra_breaks: Sequence[float] = ()) -> float:
    """Integrate ``indicator(p) * f(p)`` against the p-value density.

    ``f`` and ``indicator`` receive two same-shaped arrays (p1, p2) and
    must evaluate elementwise.  ``model=None`` integrates against the
    independent uniform null.  Panels are aligned with the mapped
    ``p = alpha`` discontinuity lines supplied via ``extra_breaks`` (in
    p units); the result is certified by panel doubling and
    ToleranceNotMet is raised if doubling up to a cap cannot certify
    ``cfg.abs_tol``.
    """
    breaks_z = [std_normal_quantile(b) for b in extra_breaks if 0.0 < b < 1.0]

    def attempt(panels: int) -> float:
        if model is None:
            m1 = m2 = 0.0
        else:
            m1, m2 = model.theta1, model.theta2
        z1n, w1 = panel_nodes(m1 - Z_RANGE, m1 + Z_RANGE, breaks_z,
                              panels, cfg.nodes_per_panel)
        z2n, w2 = panel_nodes(m2 - Z_RANGE, m2 + Z_RANGE, breaks_z,
                              panels, cfg.nodes_per_panel)
        z1g, z2g = np.meshgrid(z1n, z2n, indexing="ij")
        p1 = ndtr(z1g)
        p2 = ndtr(z2g)
        vals = np.asarray(indicator(p1, p2), dtype=float)
        vals = vals * np.asarray(f(p1, p2), dtype=float)
        vals = vals * _z_density(z1g, z2g, model)
        return float(w1 @ vals @ w2)

    panels = cfg.panels_per_axis
    prev = attempt(panels)
    for _ in range(_MAX_DOUBLINGS):
        panels *= 2
        cur = attempt(panels)
        if abs(cur - prev) <= cfg.abs_tol:
            return cur
        prev = cur
    raise ToleranceNotMet(
        f"panel doubling up to {panels} panels/axis left residual "
        f"{abs(cur - prev):.3g} > abs_tol={cfg.abs_tol:g}")


def bisect(g: Callable[[float], float], lo: float, hi: float,
           tol: float, max_iter: int = 200) -> float:
    """Root of a monotone function by bisection.

    Returns t with ``|g(t)| <= tol``.  Raises NoBracket if g(lo) and
    g(hi) have the same sign, MaxIterations if the interval collapses
    to floating-point resolution without meeting the tolerance.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        raise DomainError(f"invalid bracket [{lo}, {hi}]")
    if not tol > 0:
        raise DomainError("tol must be positive")
    glo, ghi = g(lo), g(hi)
    if abs(glo) <= tol:
        return lo
    if abs(ghi) <= tol:
        return hi
    if math.copysign(1.0, glo) == math.copysign(1.0, ghi):
        raise NoBracket(f"g({lo})={glo:.3g} and g({hi})={ghi:.3g} have the same sign")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if abs(gm) <= tol:
            return mid
        if math.copysign(1.0, gm) == math.copysign(1.0, glo):
            lo, glo = mid, gm
        else:
            hi = mid
        if hi - lo <= abs(mid) * 4e-16 + 1e-300:
            break  # interval at float resolution; |g| never met the tolerance
    raise MaxIterations(f"no root with |g| <= {tol:g} after bisection "
                        f"refined [{lo}, {hi}] to floating-point resolution")


# ----------------------------------------------------------------------
# splitmix64 counter-based RNG
# ----------------------------------------------------------------------

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix64(x: np.ndarray) -> np.ndarray:
    x = x ^ (x >> np.uint64(30))
    x = x * _MIX1
    x = x ^ (x >> np.uint64(27))
    x = x * _MIX2
    return x ^ (x >> np.uint64(31))


def splitmix64(seed: int, start: int, count: int) -> np.ndarray:
    """Outputs start..start+count-1 of the splitmix64 stream for ``seed``."""
    k = np.arange(start, start + count, dtype=np.uint64)
    return _mix64(np.uint64(seed) + (k + np.uint64(1)) * _GAMMA)


def uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Uniform(0,1) variates from the top 53 bits of the stream."""
    bits = splitmix64(seed, start, count) >> np.uint64(11)
    return (bits.astype(np.float64) + 0.5) * 2.0**-53


_PAIR_CACHE: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
_PAIR_CACHE_MAX = 4


def normal_pairs(seed: int, reps: int) -> tuple[np.ndarray, np.ndarray]:
    """Two independent standard-normal vectors of length ``reps``.

    Pair k uses stream outputs k and reps+k, so the k-th replication is
    a pure function of (seed, reps, k).  The most recent draws are
    memoized because many checks reuse the same base sample.
    """
    key = (int(seed), int(reps))
    if key not in _PAIR_CACHE:
        if len(_PAIR_CACHE) >= _PAIR_CACHE_MAX:
            _PAIR_CACHE.pop(next(iter(_PAIR_CACHE)))
        u = uniforms(seed, 0, 2 * reps)
        _PAIR_CACHE[key] = (std_normal_quantile(u[:reps]),
                            std_normal_quantile(u[reps:]))
    return _PAIR_CACHE[key]


def mc_estimate(event: Callable[[np.ndarray, np.ndarray], np.ndarray],
                model: AlternativeModel,
                cfg: McConfig) -> tuple[float, float]:
    """Monte Carlo mean and standard error of ``event(z1, z2)``.

    Draws z1 = theta1 + Z1, z2 = theta2 + rho*Z1 + sqrt(1-rho^2)*Z2 and
    evaluates the event (an indicator or bounded count) on the whole
    sample.  Deterministic for fixed (seed, reps).
    """
    zz1, zz2 = normal_pairs(cfg.seed, cfg.reps)
    z1 = model.theta1 + zz1
    z2 = model.theta2 + model.rho * zz1 + math.sqrt(1.0 - model.rho**2) * zz2
    vals = np.asarray(event(z1, z2), dtype=float)
    if vals.shape != z1.shape:
        raise DomainError("event must return one value per replication")
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(cfg.reps))
    return mean, se
