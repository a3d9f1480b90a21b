"""omt2 benchmark: one command, three seeded workloads.

    python3 bench/run.py --workload solve|mc|cli --seed N \
        --seconds S --trace 0|1

Run it from the root of a source checkout; the package is imported from
``src/``.  Load shape: closed loop, one client, one process (``cli``
runs one child process at a time).  A round is the seeded scenario set
of one design question; ``--trace 0`` runs rounds until ``--seconds``
have passed and prints the end-to-end metrics.  ``--trace 1`` runs a
fixed number of rounds (so the traced counts repeat exactly for one
seed), each untraced and again with every layer's public functions
wrapped in spans, and prints the per-layer metrics.  Every
operation's output is checked after the timed loop; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  A scenario printed in a ``# scenario`` line replays
with ``workloads.py`` and the matching function of ``checks.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WORKLOADS = ("solve", "mc", "cli")
# One BLAS/OpenMP thread here and in every child: a single client.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
# Seconds one round took at the commit that defined the benchmark, in the
# slower periods of a 2-vCPU x86-64 VM; a traced run executes
# round(seconds / ROUND_S / 2) rounds, each twice.
ROUND_S = {"solve": 0.42, "mc": 0.92, "cli": 5.3}
# What one round of each workload runs (a round is the unit of round_latency_p50_s).
ROUND_OPS = {"solve": "allocation_search + power table + savings_report",
             "mc": "mc_power on the five benchmark columns",
             "cli": "the six README commands"}
SETUP_SAMPLES = 7
TAIL_BEYOND = 10
LEVEL_CFG_PANELS = 800
# region_mass calls of fixed reference calls at the commit that defined
# the benchmark (ROADMAP baselines); reported beside the traced counts.
REF_BASELINES = {"build_bittman": 31, "evaluate_power": 5, "savings_report": 144,
                 "allocation_search": 127}

IMPORT_PROBE = "import omt2, sys, time; sys.stdout.write(repr(time.perf_counter()))"
START_PROBE = "import sys, time; sys.stdout.write(repr(time.perf_counter()))"


def fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC),
                                                      env.get("PYTHONPATH")]))
    return env


def import_package():
    if not (SRC / "omt2" / "__init__.py").is_file():
        fail(f"no omt2 sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import omt2
    if Path(omt2.__file__).resolve().parent != (SRC / "omt2").resolve():
        fail(f"imported omt2 from {omt2.__file__}, not from {SRC}")
    return omt2


def probe_seconds(code: str, env: dict) -> float:
    """Seconds from spawning a fresh interpreter until it ran ``code``."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        fail(f"probe failed: {proc.stderr.strip()}")
    return float(proc.stdout) - t0


def run_record(omt2) -> dict:
    import numpy
    import scipy

    sha, dirty = None, None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
            st = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=ROOT, capture_output=True, text=True, timeout=10)
            dirty = bool(st.stdout.strip())
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    return {"git_sha": sha, "git_dirty": dirty, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "omt2": omt2.__version__, "nproc": os.cpu_count(),
            "threads": {k: os.environ.get(k) for k in THREAD_ENV}}


# ----------------------------------------------------------------------
# timed loop
# ----------------------------------------------------------------------

class Op(NamedTuple):
    name: str                       # span name of the operation
    label: str                      # column label within the scenario
    scenario: dict
    call: Callable[[], object]
    check: Callable[[object], list[str]]


class Record(NamedTuple):
    op: Op
    round: int                      # index of the round within its phase
    latency: float
    output: object
    error: str | None


def plan(sc: dict, tag: str, workdir: str, env: dict | None) -> list[Op]:
    """The timed operations of one scenario.

    Set-up that is an input of the operations rather than part of them
    (the mc rules) runs here, outside the timed calls.  ``env`` selects
    fresh-process CLI runs; None runs the CLI in this process.
    """
    import checks
    import workloads as w

    kind = sc["kind"]
    if kind == "allocation":
        return [Op("op.allocation", "", sc, lambda: w.run_allocation(sc),
                   lambda out: checks.allocation(sc, out))]
    if kind == "power_table":
        return [Op("op.power_table", "", sc, lambda: w.run_power_table(sc),
                   lambda out: checks.power_table(sc, out))]
    if kind == "savings":
        return [Op("op.savings", "", sc, lambda: w.run_savings(sc),
                   lambda out: checks.savings(sc, out))]
    if kind == "mc":
        model = w.mc_model(sc)
        mcc = w.numerics.McConfig(reps=w.MC_REPS, seed=sc["seed"])
        try:
            cols = w.table_rules(sc["alpha"], model, "benchmark")
        except Exception as exc:  # noqa: BLE001 - a failed set-up fails each column
            error = f"rule set-up: {type(exc).__name__}: {exc}"
            return [Op("op.mc_power", f"col{k}", sc, lambda: None,
                       lambda out, e=error: [e]) for k in range(5)]
        return [Op("op.mc_power", label, sc,
                   lambda rule=rule: w.power_design.mc_power(rule, model, mcc),
                   lambda out, rule=rule: checks.mc(sc, rule, out))
                for label, rule in cols]
    if kind == "cli":
        out_path = os.path.join(workdir, f"{sc['command']}-{tag}.csv")
        argv = w.cli_argv(sc, out_path)
        if env is None:
            def call():
                return w.run_cli_in_process(argv)
        else:
            def call():
                return w.run_cli_process(argv, env, workdir)
        return [Op("cli." + sc["command"], "", sc, call,
                   lambda out: checks.cli(sc, out, out_path))]
    raise ValueError(f"unknown scenario kind {kind!r}")


def run_phase(rounds, tag: str, workdir: str, env: dict | None, tracer=None,
              fresh_seeds: bool = False, start: int = 0,
              deadline: float | None = None,
              before_round: Callable[[], None] | None = None) -> list[Record]:
    """Run every op of ``rounds`` in order; ops are numbered from ``start``.

    With a ``deadline`` (a ``time.perf_counter`` value) no round starts
    after it, so ``rounds`` may be endless.  ``before_round`` runs before
    each round, outside the timed calls.
    """
    records: list[Record] = []
    for r, scenarios_of_round in enumerate(rounds):
        if deadline is not None and time.perf_counter() >= deadline:
            break
        if before_round is not None:
            before_round()
        for sc in scenarios_of_round:
            if fresh_seeds and "seed" in sc:
                sc = {**sc, "seed": sc["seed"] ^ (1 << 62)}
            for op in plan(sc, f"{tag}{start + len(records)}", workdir, env):
                idx = start + len(records)
                t0 = time.perf_counter()
                try:
                    if tracer is None:
                        out = op.call()
                    else:
                        out = tracer.run_op(idx, op.name, op.call)
                    error = None
                except Exception as exc:  # noqa: BLE001 - a failed op is counted
                    out, error = None, f"{type(exc).__name__}: {exc}"
                records.append(Record(op, r, time.perf_counter() - t0, out, error))
    return records


def check_records(records: list[Record]) -> list[tuple[int, list[str]]]:
    failures = []
    for i, rec in enumerate(records):
        if rec.error is not None:
            problems = [rec.error]
        else:
            try:
                problems = rec.op.check(rec.output)
            except Exception as exc:  # noqa: BLE001 - a check that raises fails the op
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            failures.append((i, problems))
    return failures


def print_scenarios(records: list[Record], phase: str) -> None:
    last = None
    for i, rec in enumerate(records):
        if rec.op.scenario is not last:
            last = rec.op.scenario
            print(f"# scenario {phase} op={i} {json.dumps(last, sort_keys=True)}")


def print_failures(failures, records, phase: str) -> None:
    for i, problems in failures:
        op = records[i].op
        print(f"# FAIL {phase} op={i} {op.name} {op.label}: " + "; ".join(problems[:4])
              + f" | scenario {json.dumps(op.scenario, sort_keys=True)}")


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest order statistic with at least
    TAIL_BEYOND samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    k = max(1, n - TAIL_BEYOND)
    return xs[k - 1], 100.0 * k / n, n


def end_to_end(workload: str, seed: int, seconds: int, env: dict,
               workdir: str) -> tuple[dict, list[str], int, int]:
    import scenarios

    proc_env = env if workload == "cli" else None
    warm = scenarios.generate(workload, "warm-up", 1)[0][:1]
    run_phase([warm], "warm", workdir, proc_env)

    # The set-up probes are spread over the timed window, between rounds,
    # so they see the same machine as the ops.
    probes: list[float] = []
    start = time.perf_counter()

    def probe_when_due() -> None:
        while (len(probes) < SETUP_SAMPLES and time.perf_counter() - start
               >= len(probes) * seconds / SETUP_SAMPLES):
            probes.append(probe_seconds(IMPORT_PROBE, env))

    records = run_phase(scenarios.stream(workload, seed), "", workdir, proc_env,
                        deadline=start + seconds, before_round=probe_when_due)
    while len(probes) < SETUP_SAMPLES:
        probes.append(probe_seconds(IMPORT_PROBE, env))
    setup = statistics.median(probes)
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    failures = check_records(records)
    print_scenarios(records, "timed")
    print_failures(failures, records, "timed")
    failed_ids = {i for i, _ in failures}
    ok = [r.latency for i, r in enumerate(records) if i not in failed_ids]
    busy = sum(r.latency for r in records)
    # A round answers one design question with several ops of different
    # kinds; its latency is their sum, and only rounds without a failed op
    # count.  The median over rounds moves when any kind of op gets faster.
    per_round: dict[int, float] = {}
    for rec in records:
        per_round[rec.round] = per_round.get(rec.round, 0.0) + rec.latency
    for i in failed_ids:
        per_round.pop(records[i].round, None)
    lat_tail, pct, n = tail(ok) if ok else (0.0, 0.0, 0)
    attempted, failed = len(records), len(failures)
    metrics = {
        "setup_s": (setup, "s"),
        "ops_per_s": (len(ok) / busy if busy > 0 else 0.0, "1/s"),
        "round_latency_p50_s": (statistics.median(per_round.values()) if per_round else 0.0,
                          "s"),
        "latency_tail_s": (lat_tail, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = [f"setup_s: median of {SETUP_SAMPLES} fresh interpreters, "
             f"spread over the timed window",
             f"ops_per_s: {len(ok)} completed ops in {busy:.3f} s busy",
             f"round_latency_p50_s: median of {len(per_round)} rounds of "
             f"{ROUND_OPS[workload]}",
             f"latency_tail_s: p{pct:.1f} of {n} op samples, "
             f"{n - round(n * pct / 100)} beyond",
             f"peak_rss_mb: {'largest child' if workload == 'cli' else 'this process'}"]
    return metrics, notes, attempted, failed


def per_layer(workload: str, seed: int, seconds: int, env: dict,
              workdir: str, omt2) -> tuple[dict, list[str], int, int]:
    import scenarios
    from tracer import Tracer

    python_start = statistics.median(probe_seconds(START_PROBE, env)
                                     for _ in range(SETUP_SAMPLES))
    rounds = scenarios.generate(workload, seed,
                                max(1, round(rounds_for(workload, seconds) / 2)))
    warm = scenarios.generate(workload, "warm-up", 1)[0][:1]
    run_phase([warm], "warm", workdir, None)
    # Each round runs untraced and traced (with fresh MC seeds), in
    # alternating order, so drift in machine speed cancels out of the
    # overhead estimate.
    tracer = Tracer()
    untraced: list[Record] = []
    traced: list[Record] = []
    for i, rnd in enumerate(rounds):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_trace:
                untraced += run_phase([rnd], "a", workdir, None, start=len(untraced))
                continue
            tracer.install(omt2)
            try:
                traced += run_phase([rnd], "b", workdir, None, tracer=tracer,
                                    fresh_seeds=True, start=len(traced))
            finally:
                tracer.uninstall()

    failures_a = check_records(untraced)
    failures_b = check_records(traced)
    print_scenarios(traced, "traced")
    print_failures(failures_a, untraced, "untraced")
    print_failures(failures_b, traced, "traced")

    level_cfg = omt2.numerics.QuadratureConfig(panels_per_axis=LEVEL_CFG_PANELS,
                                               nodes_per_panel=16)
    level_err = max((abs(omt2.procedures.region_mass(p, "any", None, level_cfg) - p.alpha)
                     for p in {id(p): p for p in tracer.solved}.values()), default=0.0)

    ref, ref_problems = reference_counts(omt2)
    for line in ref_problems:
        print(f"# FAIL reference counts: {line}")

    busy_a = sum(r.latency for r in untraced)
    busy_b = sum(r.latency for r in traced)
    metrics = layer_metrics(tracer, level_err, python_start, busy_b / busy_a - 1.0, ref)
    notes = [f"traced ops: {len(traced)} ({busy_b:.3f} s busy; the same ops "
             f"untraced: {busy_a:.3f} s)",
             f"solved rules re-evaluated at {LEVEL_CFG_PANELS} panels: "
             f"{len({id(p) for p in tracer.solved})}"]
    notes += [f"reference {name}: {ref[name]} region_mass calls "
              f"(baseline {base}{', matches' if ref[name] == base else ', differs'})"
              for name, base in REF_BASELINES.items()]
    attempted = len(untraced) + len(traced)
    failed = len(failures_a) + len(failures_b) + (1 if ref_problems else 0)
    return metrics, notes, attempted, failed


def reference_counts(omt2) -> tuple[dict, list[str]]:
    """region_mass calls of four fixed reference calls, traced twice."""
    from tracer import Tracer

    pd, pr = omt2.power_design, omt2.procedures
    th_ref = pd.theta_from_marginal_power(0.85, 0.025)
    calls = {
        "build_bittman": lambda: pr.build_bittman(0.025),
        "evaluate_power": lambda: pd.evaluate_power(
            pr.hommel(0.025), omt2.gauss.AlternativeModel(-2.5, -2.5, 0.0)),
        "savings_report": lambda: pd.savings_report(
            "pi_any", (1.0, 0.0, 0.0), 4800,
            lambda n: th_ref * (n / 4800) ** 0.5, 0.025),
        "allocation_search": lambda: pd.allocation_search(
            4800, (0.0, 0.0, 1.0), 0.075, 0.04875, [0.0, 0.25, 0.5, 0.75, 1.0], 0.025),
    }
    passes = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install(omt2)
        try:
            for k, fn in enumerate(calls.values()):
                tracer.run_op(k, "ref", fn)
        finally:
            tracer.uninstall()
        per_op = tracer.count_by_op("procedures.region_mass")
        passes.append({name: per_op.get(k, 0) for k, name in enumerate(calls)})
    problems = [f"{name}: {passes[0][name]} then {passes[1][name]} calls"
                for name in calls if passes[0][name] != passes[1][name]]
    return passes[0], problems


def layer_metrics(tracer, level_err: float, python_start: float,
                  overhead: float, ref: dict) -> dict:
    calls, values, evals, self_s, incl_s, nested, n_ops = tracer.summary()

    def ratio(a, b):
        return a / b if b else 0.0

    rm = "procedures.region_mass"
    mc_ops = set(tracer.count_by_op("op.mc_power"))
    m = {
        "gauss.std_normal_quantile.values": (values["gauss.std_normal_quantile"], "count"),
        "gauss.std_normal_quantile.self_s": (self_s["gauss.std_normal_quantile"], "s"),
        "gauss.ndtr.values": (values["gauss.ndtr"], "count"),
        "gauss.ndtr.self_s": (self_s["gauss.ndtr"], "s"),
        "numerics.panel_nodes.calls": (calls["numerics.panel_nodes"], "count"),
        "numerics.panel_nodes.self_s": (self_s["numerics.panel_nodes"], "s"),
        "numerics.bisect.calls": (calls["numerics.bisect"], "count"),
        "numerics.bisect.evals": (evals["numerics.bisect"], "count"),
        "numerics.normal_pairs.calls": (calls["numerics.normal_pairs"], "count"),
        "numerics.normal_pairs.self_s": (self_s["numerics.normal_pairs"], "s"),
        "numerics.normal_pairs.cached_op_frac": (
            ratio(len(mc_ops - tracer.fresh_draw_ops), len(mc_ops)), "1"),
        "numerics.mc_estimate.calls": (calls["numerics.mc_estimate"], "count"),
        "numerics.mc_estimate.self_s": (self_s["numerics.mc_estimate"], "s"),
        "objective.score_z.values": (values["objective.score_z"], "count"),
        "objective.score_z.self_s": (self_s["objective.score_z"], "s"),
        "procedures.region_mass.calls_per_op": (ratio(calls[rm], n_ops), "count"),
        "procedures.region_mass.self_s": (self_s[rm], "s"),
        "procedures.region_mass.us_per_call": (ratio(incl_s[rm], calls[rm]) * 1e6, "us"),
    }
    for solver in ("build_omt", "build_bittman"):
        name = f"procedures.{solver}"
        m[f"{name}.region_mass_per_solve"] = (ratio(nested[(name, rm)], calls[name]),
                                              "count")
        m[f"{name}.self_s"] = (self_s[name], "s")
    m.update({
        "procedures.column_cuts.self_s": (self_s["procedures.column_cuts"], "s"),
        "procedures.decide_z.values": (values["procedures.decide_z"], "count"),
        "procedures.decide_z.self_s": (self_s["procedures.decide_z"], "s"),
        "procedures.export_region.self_s": (self_s["procedures.export_region"], "s"),
        "procedures.RegionGrid.to_csv.self_s": (self_s["procedures.RegionGrid.to_csv"], "s"),
        "procedures.level_err_max": (level_err, "1"),
        "power_design.evaluate_power.calls": (calls["power_design.evaluate_power"], "count"),
        "power_design.evaluate_power.self_s": (self_s["power_design.evaluate_power"], "s"),
    })
    for fn in ("evaluate_power", "savings_report", "allocation_search"):
        name = f"power_design.{fn}"
        m[f"{name}.region_mass_per_call"] = (ratio(nested[(name, rm)], calls[name]),
                                             "count")
    m.update({
        "power_design.required_n_for_power.evals": (
            evals["power_design.required_n_for_power"], "count"),
        "power_design.mc_power.self_s": (self_s["power_design.mc_power"], "s"),
        "power_design.mc_power.decide_z_per_call": (
            ratio(nested[("power_design.mc_power", "procedures.decide_z")],
                  calls["power_design.mc_power"]), "count"),
        "cli.python_start_s": (python_start, "s"),
    })
    for cmd in ("region", "power", "power_mc", "allocate", "apex", "savings"):
        m[f"cli.{cmd}.self_s"] = (self_s[f"cli.{cmd}"], "s")
    m["trace.overhead_frac"] = (overhead, "1")
    for name in REF_BASELINES:
        m[f"ref.{name}.region_mass"] = (ref[name], "count")
    return m


def rounds_for(workload: str, seconds: int) -> int:
    return max(1, round(seconds / ROUND_S[workload]))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    # before numpy loads; the profile variable would change every CLI run
    os.environ.update(THREAD_ENV)
    os.environ.pop("OMT2_QUAD_PROFILE", None)
    omt2 = import_package()
    env = child_env()
    print(f"# omt2 benchmark workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"# record {json.dumps(run_record(omt2), sort_keys=True)}")
    workdir = tempfile.mkdtemp(prefix=".bench_tmp_", dir=ROOT)
    try:
        measure = per_layer if args.trace else end_to_end
        extra = (omt2,) if args.trace else ()
        metrics, notes, attempted, failed = measure(args.workload, args.seed,
                                                    args.seconds, env, workdir, *extra)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for note in notes:
        print(f"# {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value if isinstance(value, int) else f'{value:.6g}'} {unit}")
    if not args.trace:
        # always 0 when the run is correct, so it is not a JSON metric
        print(f"fail_frac = {failed / attempted:.6g} 1 "
              f"({failed} failed of {attempted} attempted)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
