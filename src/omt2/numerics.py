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
(`Procedure.z_breakpoints`), on ``theta1 +- Z_RANGE`` for a model with
shift theta1.  Every ray integral takes its nodes, weights and column
cuts from one plan per (rule set, z1 range, config), reused by every
event and model with that range (`procedures._column_plan`).  A threshold
solve asks for a new plan at each step, so a plan is built in one pass
over the nodes: the panel edges of the few segments are plain floats,
and each rule's cuts take a fixed handful of array operations.  The
result carries no error estimate.

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
``_BLOCK`` = 2^16 replications and run the blocks on one thread per CPU
this process may run on: the calling thread and a pool of workers (numpy
and scipy release the interpreter lock inside their loops, and take it
back between calls, so a block is sized for few, large calls).  The pool
lives only for the call: no thread starts at import or outlives a call.
One function, `_normal_block`, draws a block's normals; it serves both.
`normal_pairs` keeps the full-length draw: only the latest draw is
memoized, and a new draw drops it before it is made, so one draw is alive
at a time.  `mc_estimate` reads its blocks from that memo when it holds
the (seed, reps) asked for, and otherwise draws each block inside the
block and drops it there, so it never holds the full-length draw.  So
`power_design.mc_power`, which decides one rule per call, fills the memo
first and draws once per (seed, reps), while `power_design.mc_powers`
(and with it ``omt2 power --mc``) decides all of its rules in one streamed
pass, in O(block) memory at any reps.
`mc_estimate` takes a tuple of models, all shifts of the one draw, and
calls the event once per block with one (z1, z2) pair per model,
possibly at the same time as other blocks and in any order, so the
event must be a pure elementwise function: value k may depend only on
replication k's pairs.  The event returns bool arrays, and `mc_estimate`
the exact number of True values in each, counted as the event hands it
over, so no full-length array is kept (`mc_power` gets each measure's
exact sums of x and x^2 from such counts by inclusion-exclusion).  The
draws of a block are a pure function of (seed, reps, block), and integer
addition is exact, so no count can depend on the block size, the worker
count, the finishing order or whether the blocks came from the memo.
"""

from __future__ import annotations

import contextvars
import functools
import math
import os
import threading
from concurrent import futures
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
# unused here; kept so that ``numerics.ndtr`` stays the shared scipy
# kernel that the benchmark tracer rebinds and its tests assert
from scipy.special import ndtr  # noqa: F401

from .errors import DomainError, ToleranceNotMet
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

# Replications per Monte Carlo block: 2^16 float64 values are 512 KB.  The
# blocks' numpy calls cost a fixed overhead each, and the workers take turns
# on the interpreter lock between calls, so fewer, larger calls run faster
# than blocks that fit a core's L2 cache.
_BLOCK = 1 << 16


@dataclass(frozen=True)
class QuadratureConfig:
    """Panel layout for deterministic Gauss-Legendre quadrature.

    ``abs_tol`` bounds no integral.  Both threshold solves, `build_omt`
    and `build_bittman`, stop at a null mass within the one tolerance
    min(abs_tol, 1e-10, 0.01 * alpha) of alpha, 1e-10 at all three CLI
    profiles for alpha >= 1e-8, and `build_omt` checks its residual.
    """

    panels_per_axis: int = 24
    nodes_per_panel: int = 16
    abs_tol: float = 1e-8

    def __post_init__(self):
        for name, lo in (("panels_per_axis", 8), ("nodes_per_panel", 2)):
            object.__setattr__(self, name, check_count(name, getattr(self, name), lo))
        if not self.abs_tol > 0:
            raise DomainError("abs_tol must be positive")


# Largest replication count: a memoized draw is two float64 arrays of
# reps values, 1 GiB at 2^26.
MAX_REPS = 1 << 26


@dataclass(frozen=True)
class McConfig:
    """Replication count and seed for the Monte Carlo oracle.

    reps lies in [10_000, MAX_REPS = 2^26], so a memoized draw (the one
    per-rule `mc_power` keeps) stays at or below 1 GiB, while a streamed
    pass (`mc_powers`) holds O(block) draws at any reps; seed in [0, 2^64).
    """

    reps: int = 1_000_000
    seed: int = 20260810

    def __post_init__(self):
        object.__setattr__(self, "reps", check_count("reps", self.reps, 10_000,
                                                     MAX_REPS + 1))
        object.__setattr__(self, "seed", check_count("seed", self.seed, 0, 2**64))


def check_count(name: str, v, lo: int, hi: float = math.inf) -> int:
    """v as a Python int; DomainError unless it is an integer in [lo, hi)
    (a numpy integer passes; a bool, a float or a string does not).  The
    message names a finite bound inclusively, as [lo, hi - 1]."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or not lo <= v < hi:
        bounds = f"[{lo}, inf)" if hi == math.inf else f"[{lo}, {hi - 1}]"
        raise DomainError(f"{name} must be an integer in {bounds}, got {v!r}")
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
    deterministic.  The edges are built as plain floats, segment by
    segment; the nodes and weights then take one pass over the panels.
    """
    if not 0.0 < hi - lo < math.inf:
        raise DomainError(f"integration range [{lo}, {hi}] must be finite "
                          f"and non-empty")
    xs, ws = leggauss(order)
    cuts = sorted({lo, hi, *(float(b) for b in breaks if lo < float(b) < hi)})
    width = (hi - lo) / panels
    edges = [lo]
    # each segment's edges as np.linspace(a, b, n + 1) computes them:
    # k*step + a, the last edge b itself (its other path, for a step that
    # underflows to 0, needs a subnormal range)
    for a, b in zip(cuts, cuts[1:]):
        n = math.ceil((b - a) / width) or 1
        if n > 1:
            step = (b - a) / n
            edges += [k * step + a for k in range(1, n)]
        edges.append(b)
    edges = np.array(edges)
    left, right = edges[:-1], edges[1:]
    mid = 0.5 * (left + right)[:, None]
    half = 0.5 * (right - left)[:, None]
    return (mid + half * xs).ravel(), (half * ws).ravel()


def bisect(g: Callable[[float], float], lo: float, hi: float,
           tol: float) -> float:
    """Root of a monotone function by bisection.

    Returns t with ``|g(t)| <= tol``.  Raises DomainError if g(lo) and
    g(hi) have the same sign, ToleranceNotMet if the interval collapses
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
        raise DomainError(f"g({lo})={glo:.3g} and g({hi})={ghi:.3g} have the same sign")
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
    raise ToleranceNotMet(f"no root with |g| <= {tol:g} after bisection "
                          f"refined [{lo}, {hi}] to floating-point resolution")


# ----------------------------------------------------------------------
# splitmix64 counter-based RNG
# ----------------------------------------------------------------------

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def splitmix64(seed: int, start: int, count: int) -> np.ndarray:
    """Outputs start..start+count-1 of the splitmix64 stream for ``seed``,
    formed in place with one scratch array."""
    x = np.arange(start + 1, start + count + 1, dtype=np.uint64)   # k + 1
    x *= _GAMMA
    x += np.uint64(seed)
    t = np.empty_like(x)
    # mix64, the splitmix64 finalizer
    x ^= np.right_shift(x, np.uint64(30), out=t)
    x *= _MIX1
    x ^= np.right_shift(x, np.uint64(27), out=t)
    x *= _MIX2
    x ^= np.right_shift(x, np.uint64(31), out=t)
    return x


def uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Uniform(0,1) variates from the top 53 bits of the stream."""
    bits = splitmix64(seed, start, count)
    bits >>= np.uint64(11)
    u = np.add(bits, 0.5, out=bits.view(np.float64))
    return np.multiply(u, 2.0**-53, out=u)


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


_draws: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
_draws_lock = threading.Lock()


def _normal_block(seed: int, reps: int, lo: int) -> tuple[np.ndarray, np.ndarray]:
    """The two read-only standard-normal vectors of replications
    [lo, lo + _BLOCK) (fewer in the last block), bit for bit the slices
    [lo, lo + _BLOCK) of ``normal_pairs(seed, reps)``."""
    n = min(_BLOCK, reps - lo)
    pair = tuple(std_normal_quantile(uniforms(seed, k * reps + lo, n)) for k in (0, 1))
    for z in pair:
        z.setflags(write=False)
    return pair


def normal_pairs(seed: int, reps: int) -> tuple[np.ndarray, np.ndarray]:
    """Two independent standard-normal vectors of length ``reps``.

    Pair k uses stream outputs k and reps+k, so the k-th replication is
    a pure function of (seed, reps, k); the blocks (`_normal_block`) fill
    disjoint slices.  This is the draw that per-rule `mc_power` keeps:
    only the latest draws are memoized, as every caller reuses one
    (seed, reps) at a time, and a new draw drops the old one before it is
    made, so a process holds one draw, not two.  `mc_powers` streams its
    blocks instead and leaves the memo as it found it.  The draws are
    read-only, so no caller can change those of the next.
    ``normal_pairs.cache_clear()`` empties the memo.
    """
    key = (seed, reps)
    with _draws_lock:
        pair = _draws.get(key)
        if pair is None:
            _draws.clear()
    if pair is not None:
        return pair
    pair = np.empty(reps), np.empty(reps)

    def fill(lo: int) -> None:
        for zz, b in zip(pair, _normal_block(seed, reps, lo)):
            zz[lo:lo + len(b)] = b

    _map_blocks(fill, reps)
    for zz in pair:
        zz.setflags(write=False)
    with _draws_lock:
        _draws.clear()
        _draws[key] = pair
    return pair


normal_pairs.cache_clear = _draws.clear


def _second(t2: float, rho: float, b1: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """theta2 + rho*Z1 + sqrt(1-rho^2)*Z2 on a block, less the terms that add nothing."""
    if rho == 0.0:
        return b2 if t2 == 0.0 else t2 + b2
    scale = math.sqrt(1.0 - rho**2)
    return rho * b1 + scale * b2 if t2 == 0.0 else t2 + rho * b1 + scale * b2


def mc_estimate(event: Callable[..., Iterable[np.ndarray]],
                models: Sequence[AlternativeModel], cfg: McConfig) -> list[int]:
    """Exact count of True values in each array of ``event(z1_a, z2_a, ...)``.

    Model m shifts the one draw to z1 = theta1 + Z1 and z2 = theta2 +
    rho*Z1 + sqrt(1-rho^2)*Z2.  The event gets one pair per model, each
    model's own arrays, and the draw itself for a zero shift (the draws
    are never +-0, so 0.0 + b is b).  It is called once per block of
    ``_BLOCK`` replications, on one thread per CPU and in any order, and
    returns an iterable of bool arrays (any other dtype raises
    DomainError): a tuple, or a generator, whose arrays are counted one
    at a time as it yields them, so that it can form each rule's
    decisions after the last rule's are counted and dropped.  The block's
    draws are the memo's slices when `normal_pairs` holds (seed, reps);
    otherwise the block draws them itself (`_normal_block`) and drops
    them when it is done, so the call holds O(block) draws per thread.
    The block counts are added as Python ints, so no count depends on the
    block size, the worker count, the finishing order or the memo;
    deterministic for fixed (seed, reps).
    """
    with _draws_lock:
        memo = _draws.get((cfg.seed, cfg.reps))

    def block(lo: int) -> list[int]:
        if memo is None:
            b1, b2 = _normal_block(cfg.seed, cfg.reps, lo)
        else:
            b1, b2 = memo[0][lo:lo + _BLOCK], memo[1][lo:lo + _BLOCK]
        counts = []
        for a in event(*(z for m in models for z in (
                b1 if m.theta1 == 0.0 else m.theta1 + b1,
                _second(m.theta2, m.rho, b1, b2)))):
            if np.shape(a) != b1.shape or a.dtype != np.bool_:
                raise DomainError("event must return a tuple (or a generator) of "
                                  "bool arrays, one value per replication")
            counts.append(int(np.count_nonzero(a)))
        return counts

    blocks = _map_blocks(block, cfg.reps)
    if len({len(counts) for counts in blocks}) > 1:
        raise DomainError("event must return the same number of arrays from every block")
    return [sum(column) for column in zip(*blocks)]
