"""Deterministic quadrature, scalar root finding, and seeded Monte Carlo.

Quadrature strategy
-------------------
Every region probability in this package is one integral,
`procedures.region_mass`.  Integrals over the p-value unit square are
taken in z-space (``z_i = quantile(p_i)``), where the density is a
(possibly correlated) bivariate normal and the ``p = alpha`` lines map
to vertical/horizontal boundaries.  Each decision region has columns of
the form ``{z2 <= cut(z1)}``, so the inner integral is a closed-form
normal CDF and only the outer integral over z1 needs quadrature: fixed
Gauss-Legendre panels (`panel_nodes`) split at the rule's breakpoints
(`Procedure.z_breakpoints`).  The nodes, weights and column cuts are
built once per (rule, z1 range, config) and reused by every event and
model with that range (`procedures._column_plan`).  The result carries
no error estimate.

Monte Carlo engine
------------------
A counter-based splitmix64 generator drives the simulation so that a
(seed, reps) pair reproduces bit-identical output on any platform or
execution order.  Output k of the stream is

    mix64(seed + (k + 1) * 0x9E3779B97F4A7C15)   (mod 2^64)

where mix64 is the standard splitmix64 finalizer.  Uniforms are the top
53 bits offset by half an ulp (so they lie strictly inside (0, 1)), and
normal deviates are produced by the inverse-CDF transform
`gauss.std_normal_quantile` (scipy's ``ndtri``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
# unused here; kept so that ``numerics.ndtr`` stays the shared scipy
# kernel that the benchmark tracer rebinds and its tests assert
from scipy.special import ndtr  # noqa: F401

from .errors import DomainError, MaxIterations, NoBracket
from .gauss import AlternativeModel, std_normal_quantile

__all__ = [
    "QuadratureConfig",
    "McConfig",
    "bisect",
    "mc_estimate",
    "normal_pairs",
]

# Half-width of the z-range used when truncating integrals against a
# normal weight; phi(9.5) ~ 3e-21 so the truncation error is far below
# every tolerance used in the package.
Z_RANGE = 9.5


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


@functools.cache
def leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached Gauss-Legendre nodes/weights on [-1, 1]."""
    return np.polynomial.legendre.leggauss(order)


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
    cuts = np.array(sorted({lo, hi, *(float(b) for b in breaks if lo < float(b) < hi)}))
    a, b = cuts[:-1], cuts[1:]
    n_sub = np.maximum(1, np.ceil((b - a) / ((hi - lo) / panels))).astype(np.intp)
    # one row per panel: panel k of its segment spans edges k and k+1, each
    # as np.linspace(a, b, n_sub + 1) computes it: k*step + a, the last
    # edge b itself (its other path, for a step that underflows to 0,
    # needs a subnormal range)
    seg = np.repeat(np.arange(len(a)), n_sub)
    k = np.arange(len(seg)) - np.repeat(np.cumsum(n_sub) - n_sub, n_sub)
    a, b, n_sub = a[seg], b[seg], n_sub[seg]
    step = (b - a) / n_sub
    left = k * step + a
    right = np.where(k + 1 == n_sub, b, (k + 1) * step + a)
    mid = 0.5 * (left + right)[:, None]
    half = 0.5 * (right - left)[:, None]
    return (mid + half * xs).ravel(), (half * ws).ravel()


def bisect(g: Callable[[float], float], lo: float, hi: float,
           tol: float) -> float:
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
    for _ in range(200):
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


@functools.lru_cache(maxsize=4)
def normal_pairs(seed: int, reps: int) -> tuple[np.ndarray, np.ndarray]:
    """Two independent standard-normal vectors of length ``reps``.

    Pair k uses stream outputs k and reps+k, so the k-th replication is
    a pure function of (seed, reps, k).  The most recent draws are
    memoized because many checks reuse the same base sample.
    """
    u = uniforms(seed, 0, 2 * reps)
    return std_normal_quantile(u[:reps]), std_normal_quantile(u[reps:])


def mc_estimate(event: Callable[[np.ndarray, np.ndarray], np.ndarray],
                model: AlternativeModel, cfg: McConfig
                ) -> tuple[float, float] | list[tuple[float, float]]:
    """Monte Carlo mean and standard error of ``event(z1, z2)``.

    Draws z1 = theta1 + Z1, z2 = theta2 + rho*Z1 + sqrt(1-rho^2)*Z2 and
    evaluates the event (an indicator or bounded count) on the whole
    sample.  An event that returns a tuple of arrays gets a list with
    one ``(mean, se)`` pair per array, all from the one draw and the
    one evaluation.  Deterministic for fixed (seed, reps).
    """
    zz1, zz2 = normal_pairs(cfg.seed, cfg.reps)
    z1 = model.theta1 + zz1
    z2 = model.theta2 + model.rho * zz1 + math.sqrt(1.0 - model.rho**2) * zz2
    out = event(z1, z2)
    pairs = []
    for arr in out if isinstance(out, tuple) else (out,):
        vals = np.asarray(arr, dtype=float)
        if vals.shape != z1.shape:
            raise DomainError("event must return one value per replication")
        pairs.append((float(vals.mean()),
                      float(vals.std(ddof=1) / math.sqrt(cfg.reps))))
    return pairs if isinstance(out, tuple) else pairs[0]
