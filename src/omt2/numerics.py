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
Gauss-Legendre panels (`panel_nodes`) split at each rule's breakpoints
(`Procedure.z_breakpoints`).  Every ray integral takes its nodes,
weights and column cuts from one plan per (rule set, z1 range, config),
reused by every event and model with that range
(`procedures._column_plan`).  The result carries no error estimate.

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

`normal_pairs` and `mc_estimate` split the sample into blocks of
``_BLOCK`` = 2^15 replications, small enough that a block's temporaries
stay in cache, and run the blocks on one thread per CPU this process may
run on: the calling thread and a pool of workers (numpy and scipy
release the interpreter lock inside their loops).  The pool lives only
for the call: no thread starts at import or outlives a call.  The event is called once per
block, possibly at the same time as other blocks and in any order, so
it must be a pure elementwise function: value k may depend only on
replication k's pair (z1[k], z2[k]).  Its values are bool indicators or
small integer counts, whose exact per-block sums of x and x^2 replace
full-length arrays.  The draws of a block are a pure function of
(seed, reps, block), and integer addition is exact, so no estimate can
depend on the block size, the worker count or the order in which the
blocks finish.
"""

from __future__ import annotations

import contextvars
import functools
import math
import os
import threading
from concurrent import futures
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
    "check_count",
    "mc_estimate",
    "normal_pairs",
]

# Half-width of the z-range used when truncating integrals against a
# normal weight; phi(9.5) ~ 3e-21 so the truncation error is far below
# every tolerance used in the package.
Z_RANGE = 9.5

# Replications per Monte Carlo block: 2^15 float64 values are 256 KB, so
# a block's event temporaries stay in a core's L2 cache, and two workers
# hold about what one block of 2^16 held.
_BLOCK = 1 << 15


@dataclass(frozen=True)
class QuadratureConfig:
    """Panel layout for deterministic Gauss-Legendre quadrature."""

    panels_per_axis: int = 24
    nodes_per_panel: int = 16
    abs_tol: float = 1e-8

    def __post_init__(self):
        for name, lo in (("panels_per_axis", 8), ("nodes_per_panel", 2)):
            object.__setattr__(self, name, check_count(name, getattr(self, name), lo))
        if not self.abs_tol > 0:
            raise DomainError("abs_tol must be positive")


@dataclass(frozen=True)
class McConfig:
    """Replication count and seed for the Monte Carlo oracle."""

    reps: int = 1_000_000
    seed: int = 20260810

    def __post_init__(self):
        object.__setattr__(self, "reps", check_count("reps", self.reps, 10_000))
        object.__setattr__(self, "seed", check_count("seed", self.seed, 0, 2**64))


def check_count(name: str, v, lo: int, hi: float = math.inf) -> int:
    """v as a Python int; DomainError unless it is an integer in [lo, hi)
    (a numpy integer passes; a bool, a float or a string does not)."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or not lo <= v < hi:
        raise DomainError(f"{name} must be an integer in [{lo}, {hi}), got {v!r}")
    return int(v)


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


def _worker_count() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _map_blocks(fn: Callable[[int], object], reps: int) -> list:
    """[fn(lo) for lo in range(0, reps, _BLOCK)], the blocks run at once.

    The caller and a pool of worker threads, one per CPU in all, each
    take the next block in order until none is left: a future per block
    would wake the caller once per block, to contend with the workers for
    the interpreter lock.  The pool's tasks run in copies of the caller's
    context (numpy's error state included), and the pool is shut down
    before the call returns.  The results come back in block order.  Once
    a block raises, no block starts, and the caller gets the exception of
    the first failing block, as a sequential loop would.
    """
    starts = range(0, reps, _BLOCK)
    results, errors = [None] * len(starts), {}
    order = iter(range(len(starts)))
    lock = threading.Lock()

    def take() -> int | None:
        with lock:
            return None if errors else next(order, None)

    def work() -> None:
        for k in iter(take, None):
            try:
                results[k] = fn(starts[k])
            except Exception as exc:  # raised in the caller below
                with lock:
                    errors[k] = exc

    ctx = contextvars.copy_context()
    helpers = min(_worker_count(), len(starts)) - 1
    # a pool starts its threads on submit, so with no helper none starts
    with futures.ThreadPoolExecutor(max(1, helpers)) as pool:
        tasks = [pool.submit(ctx.copy().run, work) for _ in range(helpers)]
        work()
    for task in tasks:
        task.result()
    if errors:
        raise errors[min(errors)]
    return results


@functools.lru_cache(maxsize=1)
def normal_pairs(seed: int, reps: int) -> tuple[np.ndarray, np.ndarray]:
    """Two independent standard-normal vectors of length ``reps``.

    Pair k uses stream outputs k and reps+k, so the k-th replication is
    a pure function of (seed, reps, k); the blocks fill disjoint slices.
    Only the latest draws are memoized, as every caller reuses one
    (seed, reps) at a time; they are read-only, so no caller can change
    the draws of the next.
    """
    pair = np.empty(reps), np.empty(reps)

    def fill(lo: int) -> None:
        n = min(_BLOCK, reps - lo)
        for k, zz in enumerate(pair):
            zz[lo:lo + n] = std_normal_quantile(uniforms(seed, k * reps + lo, n))

    _map_blocks(fill, reps)
    for zz in pair:
        zz.setflags(write=False)
    return pair


def _sums(vals: np.ndarray) -> tuple[int, int]:
    """Exact (sum x, sum x^2) of one block of bool or integer event values."""
    if vals.dtype.kind == "b":
        return (k := int(np.count_nonzero(vals))), k
    if vals.dtype.kind not in "iu":
        raise DomainError(f"event values must be bool or integer, got {vals.dtype}")
    x = vals.astype(np.int64)
    # 16-bit values cannot overflow the int64 sums; wider ones are checked
    if vals.dtype.itemsize > 2 and int(np.abs(x).max(initial=0)) ** 2 * x.size >= 2**63:
        raise DomainError("integer event values too large for exact int64 sums")
    return int(x.sum()), int(x @ x)


def mc_estimate(event: Callable[[np.ndarray, np.ndarray], np.ndarray],
                model: AlternativeModel, cfg: McConfig
                ) -> tuple[float, float] | list[tuple[float, float]]:
    """Monte Carlo mean and standard error of ``event(z1, z2)``.

    Draws z1 = theta1 + Z1, z2 = theta2 + rho*Z1 + sqrt(1-rho^2)*Z2 and
    evaluates the event on blocks of ``_BLOCK`` replications, run on one
    thread per CPU (the caller and a pool of workers).  The event is called once per block, possibly
    at the same time as other blocks and in any order, so it must be a
    pure elementwise function: one bool or small integer value per
    replication from that replication's pair alone (a float dtype raises
    DomainError).  Each block returns the exact sums S1 of x and S2 of
    x^2, which are added as Python ints in block order once every block
    has finished: the mean S1/n is correctly rounded, the SE
    sqrt((n*S2 - S1^2) / (n^2 (n-1))) within an ulp, and neither depends
    on the block size, the worker count or the order the blocks finish
    in.  A tuple of arrays gets a list with one ``(mean, se)`` pair per
    array, all from the one draw.  Deterministic for fixed (seed, reps).
    """
    zz1, zz2 = normal_pairs(cfg.seed, cfg.reps)
    t1, t2, rho = model.theta1, model.theta2, model.rho
    scale = math.sqrt(1.0 - rho**2)

    def block(lo: int) -> tuple[bool, list[tuple[int, int]]]:
        b1, b2 = zz1[lo:lo + _BLOCK], zz2[lo:lo + _BLOCK]
        z1 = t1 + b1
        # rho = 0 drops the terms 0*Z1 and 1*Z2, which add nothing: the
        # draws are never +-0, so the sum is unchanged bit for bit
        z2 = t2 + b2 if rho == 0.0 else t2 + rho * b1 + scale * b2
        out = event(z1, z2)
        arrs = out if isinstance(out, tuple) else (out,)
        if any(np.shape(a) != z1.shape for a in arrs):
            raise DomainError("event must return one value per replication")
        return isinstance(out, tuple), [_sums(a) for a in arrs]

    blocks = _map_blocks(block, cfg.reps)
    if len({(is_tuple, len(sums)) for is_tuple, sums in blocks}) > 1:
        raise DomainError("event must return the same number of arrays "
                          "from every block")
    n = cfg.reps
    pairs = []
    # column k holds array k's (S1, S2) from every block, in block order
    for column in zip(*(sums for _, sums in blocks)):
        s1, s2 = (sum(s) for s in zip(*column))
        pairs.append((s1 / n, math.sqrt((n * s2 - s1 * s1) / (n * n * (n - 1)))))
    return pairs if blocks[0][0] else pairs[0]
