"""Span tracer for the benchmark's traced run.

Each public function of a layer is wrapped and the wrapper is bound in
place of the original under every name that points at it in any
``omt2`` module.  The rebinding matters: ``power_design`` imports
``region_mass`` and ``build_omt`` by name, ``procedures`` imports
``bisect``, ``panel_nodes``, ``score_z`` and ``ndtr`` by name, and
``cli`` imports from both, so patching only the defining module would
miss calls.

A span is recorded only while an operation is open (``Tracer.op``), as
``(name, start, end, parent, op, values, evals)``.  Self time is a
span's duration minus the time its direct children cover.  Spans stay
in memory until `summary` aggregates them.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

_NAME, _T0, _T1, _PARENT, _OP, _VALUES, _EVALS = range(7)


class Tracer:
    """Installs counting/timing wrappers and aggregates their spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self.solved: list = []          # every procedure a solver returned
        self.fresh_draw_ops: set[int] = set()
        self._seen_draws: set[tuple[int, int]] = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def open(self, name: str, values: int = 0) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op,
                           values, 0])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][_T1] = time.perf_counter()
        self.stack.pop()

    def run_op(self, op_id: int, name: str, fn, *args):
        """Run ``fn(*args)`` as top-level operation ``op_id``."""
        self.op = op_id
        idx = self.open(name)
        try:
            return fn(*args)
        finally:
            self.close(idx)
            self.op = None

    # -- wrapping ----------------------------------------------------------
    def _wrapper(self, name, fn, size_arg=None, counted_arg=None,
                 on_result=None, on_call=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(result)
                return result
            values = int(np.size(args[size_arg])) if size_arg is not None else 0
            idx = tracer.open(name, values)
            if on_call is not None:
                on_call(args)
            if counted_arg is not None:
                inner = args[counted_arg]

                def counted(*a):
                    tracer.spans[idx][_EVALS] += 1
                    return inner(*a)
                args = args[:counted_arg] + (counted,) + args[counted_arg + 1:]
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def _rebind(self, original, wrapper) -> None:
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "omt2" or modname.startswith("omt2.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrapper)

    def _patch_method(self, cls, attr, wrapper) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self, omt2) -> None:
        """Wrap the public functions of every layer of ``omt2``."""
        gauss, numerics = omt2.gauss, omt2.numerics
        objective, procedures = omt2.objective, omt2.procedures
        power_design = omt2.power_design

        def note_draw(args):
            key = (int(args[0]), int(args[1]))
            if key not in self._seen_draws:
                self._seen_draws.add(key)
                self.fresh_draw_ops.add(self.op)

        functions = [
            ("gauss.ndtr", gauss.ndtr, {"size_arg": 0}),
            ("gauss.std_normal_quantile", gauss.std_normal_quantile, {"size_arg": 0}),
            ("numerics.panel_nodes", numerics.panel_nodes, {}),
            ("numerics.bisect", numerics.bisect, {"counted_arg": 0}),
            ("numerics.normal_pairs", numerics.normal_pairs, {"on_call": note_draw}),
            ("numerics.mc_estimate", numerics.mc_estimate, {}),
            ("objective.score_z", objective.score_z, {"size_arg": 1}),
            ("procedures.region_mass", procedures.region_mass, {}),
            ("procedures.build_omt", procedures.build_omt,
             {"on_result": self.solved.append}),
            ("procedures.build_bittman", procedures.build_bittman,
             {"on_result": self.solved.append}),
            ("procedures.export_region", procedures.export_region, {}),
            ("power_design.evaluate_power", power_design.evaluate_power, {}),
            ("power_design.fwer_global", power_design.fwer_global, {}),
            ("power_design.mc_power", power_design.mc_power, {}),
            ("power_design.allocation_search", power_design.allocation_search, {}),
            ("power_design.required_n_for_power", power_design.required_n_for_power,
             {"counted_arg": 0}),
            ("power_design.savings_report", power_design.savings_report, {}),
        ]
        for name, fn, opts in functions:
            self._rebind(fn, self._wrapper(name, fn, **opts))
        proc_cls = procedures.Procedure
        for name, cls, attr, opts in (
                ("procedures.decide_z", proc_cls, "decide_z", {"size_arg": 1}),
                ("procedures.column_cuts", proc_cls, "column_cuts", {}),
                ("procedures.RegionGrid.to_csv", procedures.RegionGrid, "to_csv", {})):
            self._patch_method(cls, attr, self._wrapper(name, cls.__dict__[attr], **opts))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation -------------------------------------------------------
    def count_by_op(self, name: str) -> dict[int, int]:
        """Number of spans called ``name`` in each operation."""
        counts: dict[int, int] = defaultdict(int)
        for sp in self.spans:
            if sp[_NAME] == name:
                counts[sp[_OP]] += 1
        return counts

    def summary(self, nested_names=("procedures.region_mass", "procedures.decide_z")):
        """Per-name totals over recorded spans.

        Returns (calls, values, evals, self_s, incl_s, nested, n_ops) where
        ``nested[(ancestor, name)]`` counts spans called ``name`` (one of
        ``nested_names``) anywhere below a span called ``ancestor``.
        """
        calls, values, evals = defaultdict(int), defaultdict(int), defaultdict(int)
        self_s, incl_s = defaultdict(float), defaultdict(float)
        child_s = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp[_PARENT] >= 0:
                child_s[sp[_PARENT]] += sp[_T1] - sp[_T0]
        nested = defaultdict(int)
        ops = set()
        for i, sp in enumerate(self.spans):
            name, dur = sp[_NAME], sp[_T1] - sp[_T0]
            calls[name] += 1
            values[name] += sp[_VALUES]
            evals[name] += sp[_EVALS]
            incl_s[name] += dur
            self_s[name] += dur - child_s[i]
            ops.add(sp[_OP])
            if name not in nested_names:
                continue
            ancestors = set()
            p = sp[_PARENT]
            while p >= 0:
                ancestors.add(self.spans[p][_NAME])
                p = self.spans[p][_PARENT]
            for anc in ancestors:
                nested[(anc, name)] += 1
        return calls, values, evals, self_s, incl_s, nested, len(ops)
