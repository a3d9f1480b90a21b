"""Command-line surface: regions, power tables, allocation, savings.

Subcommands
-----------
region    write a rejection-region grid as CSV and print a summary
power     print a measure x procedure power matrix (optionally with a
          Monte Carlo cross-check)
allocate  power of the optimal rule across sample-allocation splits
apex      the built-in two-population worked example: observed
          p-values, calibrated shifts, per-procedure decisions and a
          power matrix
savings   sample-size saving of the optimal rule over a baseline

Configuration is ``key = value`` lines (# comments allowed); flags
override file values, which override ``OMT2_QUAD_PROFILE`` for the
quadrature profile, and unknown keys are errors.  ``--dump-config``
prints the fully resolved configuration and exits; feeding that file
back via ``--config`` reproduces the run byte-for-byte.

Exit codes: 0 success, 1 stdout closed before the output was written
(``omt2 ... | head -1``; nothing is printed on stderr), 2 configuration
error, 3 numerical failure, 4 unachievable target.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .errors import (ConfigError, DegenerateVariance, DomainError,
                     MaxIterations, NoBracket, Omt2Error, ToleranceNotMet,
                     Unachievable, UnsupportedModel)
from .gauss import AlternativeModel
from .numerics import McConfig, QuadratureConfig
from .objective import ObjectiveSpec
from .power_design import (MEASURE_WEIGHTS, MEASURES, allocation_search,
                           evaluate_power, fwer_global, mc_power,
                           observed_pvalue, savings_report, theta_for_group,
                           theta_from_design, theta_from_marginal_power,
                           TwoArmDesign)
from .procedures import (Procedure, bonferroni, build_bittman, build_omt,
                         closed_stouffer, export_region, fixed_sequence,
                         hommel)

QUAD_PROFILE_ENV = "OMT2_QUAD_PROFILE"

_PROFILES = {
    "coarse": QuadratureConfig(panels_per_axis=12, nodes_per_panel=8, abs_tol=1e-6),
    "default": QuadratureConfig(),
    "fine": QuadratureConfig(panels_per_axis=48, nodes_per_panel=16, abs_tol=1e-10),
}

# --objective and --measure names: the four measures and two aliases
_MEASURE_NAMES = {**{m: m for m in MEASURES}, "pi1": "pi_1", "combo": "pi_combo"}

# (error classes, exit code, stderr label); the first matching row wins
_EXIT_CODES = (((ConfigError, DomainError, DegenerateVariance, UnsupportedModel),
                2, "configuration error"),
               ((ToleranceNotMet, NoBracket, MaxIterations), 3, "numerical failure"),
               (Unachievable, 4, "unachievable target"),
               (Omt2Error, 3, "error"))

# Builtin rules by name, (alpha, quadrature config) -> Procedure, in the
# column order of power tables and apex's decision rows.  Constructors
# are looked up when called, so rebinding this module's names reaches them.
_BUILTINS = {
    "closed_stouffer": lambda a, q: closed_stouffer(a),
    "hommel": lambda a, q: hommel(a),
    "bittman": lambda a, q: build_bittman(a, q),
    "fixed_sequence": lambda a, q: fixed_sequence(a),
    "bonferroni": lambda a, q: bonferroni(a),
}
# --procedures selections: the builtins shown after the omt columns
_SELECTIONS = {"benchmark": ("closed_stouffer", "hommel"),
               "all": tuple(_BUILTINS)}
# --calibration names: True selects the marginal-power calibration
_CALIBRATIONS = {"design": False, "marginal-power": True, "marginal_power": True}
# the optimal-rule columns of every power table: (measure, label)
_OMT_COLUMNS = (("pi_avg", "omt_avg_any"), ("pi_1", "omt_pi1"),
                ("pi_combo", "omt_combo"))

# APEX-style default counts per group, in _COUNT_KEYS order
_COUNT_KEYS = ("events_control", "n_control", "events_treat", "n_treat")
_DEFAULT_COUNTS = {1: (166, 1956, 132, 1914), 2: (57, 1218, 33, 1198)}
_RATE_KEYS = {"rate_control": (float, 0.075), "rate_treat": (float, 0.04875)}


# ----------------------------------------------------------------------
# config resolution
# ----------------------------------------------------------------------

_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _split_line(raw: str) -> tuple[str, str, str]:
    """A config line's (key, '=', value) after its comment is cut off;
    the separator is '' for a line without one."""
    key, sep, val = raw.split("#", 1)[0].partition("=")
    return key.strip(), sep, val.strip()


def read_config_file(path: str, known: dict[str, tuple[type, object]]) -> dict:
    """Parse a line-oriented key = value file against a key table."""
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        key, sep, val = _split_line(raw)
        if not sep:
            if key:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            continue
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        typ = known[key][0]
        try:
            out[key] = _BOOLS[val.lower()] if typ is bool else typ(val)
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return out


def resolve(args: argparse.Namespace,
            keys: dict[str, tuple[type, object]]) -> dict:
    """Merge flag values over config-file values over defaults; an unset
    quadrature profile falls back to the environment, then 'default'."""
    file_vals = read_config_file(args.config, keys) if args.config else {}
    flags = {k: v for k, v in vars(args).items() if v is not None}
    cfg = {key: flags.get(key, file_vals.get(key, default))
           for key, (_, default) in keys.items()}
    cfg["quad_profile"] = (cfg["quad_profile"]
                           or os.environ.get(QUAD_PROFILE_ENV, "default"))
    return cfg


def dump_config(cfg: dict, stream) -> None:
    """Write cfg as a config file; ConfigError, with nothing written, if a
    value would not read back unchanged (a '#', a line break)."""
    lines = []
    for key, val in sorted(cfg.items()):
        if val is None:
            continue
        if isinstance(val, bool):
            val = "true" if val else "false"
        elif isinstance(val, float):
            val = repr(val)
        line = f"{key} = {val}"
        read_back = [_split_line(part)
                     for part in line.replace("\r", "\n").split("\n")]
        if read_back != [(key, "=", str(val))]:
            raise ConfigError(f"{key} = {val!r} would not read back from a "
                              "config file")
        lines.append(line + "\n")
    stream.write("".join(lines))


def _choose(table: dict, name: str, what: str):
    """table[name], or a ConfigError that lists the choices."""
    if name not in table:
        raise ConfigError(f"unknown {what} {name!r} (choose from {sorted(table)})")
    return table[name]


def _measure(name: str) -> str:
    """The measure an --objective or --measure name selects."""
    return _choose(_MEASURE_NAMES, name, "measure")


def _require(cfg: dict, *keys: str) -> None:
    missing = [k for k in keys if cfg.get(k) is None]
    if missing:
        raise ConfigError(f"missing required option(s): {', '.join(missing)}")


def _build_procedure(kind: str, alpha: float, objective: str | None,
                     theta1: float | None, theta2: float | None,
                     qcfg: QuadratureConfig) -> Procedure:
    if kind in _BUILTINS:
        return _BUILTINS[kind](alpha, qcfg)
    if kind == "omt":
        if objective is None or theta1 is None or theta2 is None:
            raise ConfigError("omt needs --objective, --theta1 and --theta2")
        return _omt(_measure(objective), alpha, theta1, theta2, qcfg)
    raise ConfigError(f"unknown procedure {kind!r}")


def _omt(measure: str, alpha: float, th1: float, th2: float,
         qcfg: QuadratureConfig) -> Procedure:
    """The optimal rule for one measure under independent shifts."""
    spec = ObjectiveSpec(*MEASURE_WEIGHTS[measure],
                         AlternativeModel(th1, th2, 0.0), alpha)
    return build_omt(spec, qcfg)


def _power_columns(selection: str, alpha: float, th1: float, th2: float,
                   qcfg: QuadratureConfig) -> list[tuple[str, Procedure]]:
    """The optimal-rule columns, then the selection's builtins."""
    names = _choose(_SELECTIONS, selection, "procedure selection")
    cols = [(label, _omt(m, alpha, th1, th2, qcfg)) for m, label in _OMT_COLUMNS]
    return cols + [(name, _BUILTINS[name](alpha, qcfg)) for name in names]


def _power_table(cols: list[tuple[str, Procedure]],
                 model: AlternativeModel | None, rho: float | None,
                 qcfg: QuadratureConfig, out_stream) -> None:
    """Write the measure x procedure matrix at 4 decimals; model=None
    leaves out the measure rows, rho=None the global-null fwer row."""
    width = max(len(name) for name, _ in cols)

    def row(label: str, cells) -> None:
        out_stream.write(label.ljust(10)
                         + "".join(c.rjust(width + 2) for c in cells) + "\n")

    row("measure", [name for name, _ in cols])
    if model is not None:
        reports = [evaluate_power(proc, model, qcfg) for _, proc in cols]
        for m in MEASURES:
            row(m, [f"{rep.get(m):.4f}" for rep in reports])
    if rho is not None:
        row("fwer", [f"{fwer_global(proc, rho, qcfg):.4f}" for _, proc in cols])


def _write_out(path: str, text: str, stream) -> None:
    if path == "-":
        stream.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {path!r}: {exc}") from exc


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

# each command's config keys: key -> (type, default)
_REGION_KEYS = {"proc": (str, "hommel"), "objective": (str, None),
                "alpha": (float, 0.025), "theta1": (float, None),
                "theta2": (float, None), "grid": (int, 256), "z_lo": (float, -4.0),
                "z_hi": (float, 0.0), "out": (str, "region.csv")}


def cmd_region(cfg: dict, qcfg: QuadratureConfig, out_stream) -> int:
    proc = _build_procedure(cfg["proc"], cfg["alpha"], cfg["objective"],
                            cfg["theta1"], cfg["theta2"], qcfg)
    grid = export_region(proc, cfg["grid"], cfg["z_lo"], cfg["z_hi"])
    _write_out(cfg["out"], grid.to_csv(), out_stream)
    out_stream.write(f"procedure: {proc.describe()}\n")
    out_stream.write(f"alpha = {cfg['alpha']:.6g}\n")
    if proc.kind == "omt":
        out_stream.write(f"threshold t = {proc.t_score:.6g}\n")
    if proc.kind in ("bittman", "closed_stouffer"):
        out_stream.write(f"z-sum threshold = {proc.t_sum:.6g}\n")
    out_stream.write("cells: " + " ".join(
        f"{k}={v}" for k, v in grid.class_counts().items()) + "\n")
    if cfg["out"] != "-":
        out_stream.write(f"region grid written to {cfg['out']}\n")
    return 0


_POWER_KEYS = {"procedures": (str, None), "proc": (str, None),
               "objective": (str, None), "alpha": (float, 0.025),
               "theta1": (float, None), "theta2": (float, None),
               "rho": (float, 0.0), "marginal_power": (float, None),
               "design_arm": (int, None), **_RATE_KEYS, "mc": (bool, False),
               "seed": (int, 20260810), "reps": (int, 1_000_000)}


def cmd_power(cfg: dict, qcfg: QuadratureConfig, out_stream) -> int:
    alpha = cfg["alpha"]
    if cfg["proc"] is not None and cfg["procedures"] is not None:
        raise ConfigError("give proc or procedures, not both")
    sources = [name for name, given in (
        ("theta1/theta2", cfg["theta1"] is not None or cfg["theta2"] is not None),
        ("marginal_power", cfg["marginal_power"] is not None),
        ("design_arm", cfg["design_arm"] is not None)) if given]
    if len(sources) > 1:
        raise ConfigError(f"give one calibration, not {' and '.join(sources)}")
    # calibration: direct shifts, marginal detection power, or the
    # two-proportion design at a given per-arm size
    if cfg["marginal_power"] is not None:
        th1 = th2 = theta_from_marginal_power(cfg["marginal_power"], alpha)
    elif cfg["design_arm"] is not None:
        n = cfg["design_arm"]
        th1 = th2 = theta_from_design(TwoArmDesign(cfg["rate_control"],
                                                   cfg["rate_treat"], n, n))
    else:
        _require(cfg, "theta1", "theta2")
        th1, th2 = cfg["theta1"], cfg["theta2"]
    rho = cfg["rho"]
    if cfg["procedures"] is None and cfg["proc"] is None:
        raise ConfigError("need --proc NAME or --procedures benchmark|all")
    if rho != 0.0 and (cfg["procedures"] is not None or cfg["proc"] == "omt"):
        raise ConfigError("correlated models only evaluate builtin procedures")
    mcc = McConfig(reps=cfg["reps"], seed=cfg["seed"]) if cfg["mc"] else None

    if cfg["proc"] is not None:
        cols = [(cfg["proc"], _build_procedure(cfg["proc"], alpha,
                                               cfg["objective"], th1, th2, qcfg))]
    else:
        cols = _power_columns(cfg["procedures"], alpha, th1, th2, qcfg)

    model = AlternativeModel(th1, th2, rho)
    out_stream.write(f"alpha = {alpha:.6g}  theta = ({th1:.6g}, {th2:.6g})"
                     f"  rho = {rho:.6g}\n")
    null_like = th1 == 0.0 and th2 == 0.0
    _power_table(cols, None if null_like else model, rho, qcfg, out_stream)

    if mcc is not None:
        out_stream.write("monte carlo (mean, se):\n")
        for (name, proc) in cols:
            est = mc_power(proc, model, mcc)
            parts = [f"{m}={est[m][0]:.4f}(se {est[m][1]:.1e})" for m in MEASURES]
            out_stream.write(f"  {name}: " + " ".join(parts) + "\n")
    return 0


_ALLOC_KEYS = {"N": (int, None), "grid": (str, None), "measure": (str, "pi_1"),
               "alpha": (float, 0.025), **_RATE_KEYS,
               "out": (str, "allocation.csv")}


def cmd_allocate(cfg: dict, qcfg: QuadratureConfig, out_stream) -> int:
    _require(cfg, "N", "grid")
    try:
        grid = [float(x) for x in cfg["grid"].split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad allocation grid {cfg['grid']!r}") from exc
    if not grid:
        raise ConfigError("allocation grid is empty")
    weights = MEASURE_WEIGHTS[_measure(cfg["measure"])]
    result = allocation_search(cfg["N"], weights, cfg["rate_control"],
                               cfg["rate_treat"], grid, cfg["alpha"], qcfg)
    _write_out(cfg["out"], result.to_csv(), out_stream)
    out_stream.write(f"objective template: {cfg['measure']}, N = {cfg['N']}\n")
    for m in MEASURES:
        out_stream.write(f"argmax[{m}] = r = {result.argmax[m]:g}\n")
    if cfg["out"] != "-":
        out_stream.write(f"allocation table written to {cfg['out']}\n")
    return 0


_APEX_KEYS = {"alpha": (float, 0.025),
              **{f"{key}{g}": (int, n) for g, counts in _DEFAULT_COUNTS.items()
                 for key, n in zip(_COUNT_KEYS, counts)},
              **_RATE_KEYS, "calibration": (str, "design"),
              "beta": (float, 0.85), "skip_power": (bool, False)}


def cmd_apex(cfg: dict, qcfg: QuadratureConfig, out_stream) -> int:
    alpha = cfg["alpha"]
    counts = [tuple(cfg[f"{key}{g}"] for key in _COUNT_KEYS) for g in (1, 2)]
    p_obs = [observed_pvalue(*c) for c in counts]
    rc, rt = cfg["rate_control"], cfg["rate_treat"]
    th_design = tuple(theta_from_design(TwoArmDesign(
        rc, rt, cfg[f"n_control{g}"], cfg[f"n_treat{g}"])) for g in (1, 2))
    th_marg = theta_from_marginal_power(cfg["beta"], alpha)
    if _choose(_CALIBRATIONS, cfg["calibration"], "calibration"):
        th1 = th2 = th_marg
    else:
        th1, th2 = th_design
    cols = _power_columns("all", alpha, th1, th2, qcfg)

    for g, (ec, nc, et, nt), p in zip((1, 2), counts, p_obs):
        out_stream.write(f"group {g}: events/arm {ec}/{nc} vs {et}/{nt}"
                         f"  one-sided p = {p:.4f}\n")
    out_stream.write(f"calibrated shifts (design, rates {rc:g} vs {rt:g}): "
                     f"theta = ({th_design[0]:.6g}, {th_design[1]:.6g})\n")
    out_stream.write(f"calibrated shifts (marginal power {cfg['beta']:g}): "
                     f"theta = ({th_marg:.6g}, {th_marg:.6g})\n")
    out_stream.write(f"decisions at observed p = ({p_obs[0]:.4f}, {p_obs[1]:.4f}):\n")
    for name, proc in cols:
        d = proc.decide((p_obs[0], p_obs[1]))
        verdict = {(False, False): "retain both",
                   (True, False): "reject H1 only",
                   (False, True): "reject H2 only",
                   (True, True): "reject both"}[d.as_tuple()]
        out_stream.write(f"  {name}: {verdict}\n")

    if not cfg["skip_power"]:
        out_stream.write(f"power matrix ({cfg['calibration']} calibration, "
                         f"theta = ({th1:.6g}, {th2:.6g})):\n")
        n_benchmark = len(_OMT_COLUMNS) + len(_SELECTIONS["benchmark"])
        _power_table(cols[:n_benchmark], AlternativeModel(th1, th2, 0.0), None,
                     qcfg, out_stream)
        out_stream.write("note: power values depend on the calibration mode; "
                         "see --calibration.\n")
    return 0


_SAVINGS_KEYS = {"measure": (str, "pi_any"), "N": (int, 4800), "alpha": (float, 0.025),
                 "calibration": (str, "marginal-power"), "beta": (float, 0.85),
                 **_RATE_KEYS, "n_cap": (int, 200_000)}


def cmd_savings(cfg: dict, qcfg: QuadratureConfig, out_stream) -> int:
    alpha, n_ref = cfg["alpha"], cfg["N"]
    measure = _measure(cfg["measure"])
    rc, rt = cfg["rate_control"], cfg["rate_treat"]
    marginal = _choose(_CALIBRATIONS, cfg["calibration"], "calibration")
    th_ref = theta_from_marginal_power(cfg["beta"], alpha) if marginal else None

    def theta_of_n(n: int) -> float:
        if marginal:
            return th_ref * math.sqrt(n / n_ref)
        return theta_for_group(n // 2, rc, rt)

    rep = savings_report(measure, MEASURE_WEIGHTS[measure], n_ref, theta_of_n,
                         alpha, qcfg, n_cap=cfg["n_cap"])
    out_stream.write(f"measure: {cfg['measure']}  calibration: {cfg['calibration']}\n")
    out_stream.write(f"optimal-rule power at N={n_ref}: {rep.optimal_power:.4f}\n")
    out_stream.write(f"baseline (hommel) power at N={n_ref}: "
                     f"{rep.reference_power:.4f}\n")
    out_stream.write(f"baseline needs N = {rep.n_required} for the same power\n")
    out_stream.write(f"relative saving: {rep.saving_pct:.2f}%\n")
    return 0


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser,
                keys: dict[str, tuple[type, object]]) -> None:
    sub.add_argument("--config", help="key = value configuration file")
    sub.add_argument("--dump-config", action="store_true",
                     help="print resolved configuration and exit")
    for key, (typ, _) in keys.items():
        how = (dict(action="store_const", const=True) if typ is bool
               else dict(type=typ))
        sub.add_argument("--" + key.replace("_", "-"), dest=key, default=None,
                         **how)


# subcommand -> (key table, handler); every command takes quad_profile
_COMMANDS = {name: ({**keys, "quad_profile": (str, None)}, command)
             for name, keys, command in (
                 ("region", _REGION_KEYS, cmd_region),
                 ("power", _POWER_KEYS, cmd_power),
                 ("allocate", _ALLOC_KEYS, cmd_allocate),
                 ("apex", _APEX_KEYS, cmd_apex),
                 ("savings", _SAVINGS_KEYS, cmd_savings))}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omt2", description="Optimal two-hypothesis testing procedures and design")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (keys, _) in _COMMANDS.items():
        _add_common(subs.add_parser(name), keys)
    return parser


def main(argv: list[str] | None = None, out_stream=None) -> int:
    if out_stream is not None:
        return _run(argv, out_stream)
    try:
        code = _run(argv, sys.stdout)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early; send the rest to devnull so that
        # the flush at exit cannot fail again (the SIGPIPE recipe of the
        # Python `signal` docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _run(argv: list[str] | None, out) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    keys, command = _COMMANDS[args.command]
    try:
        cfg = resolve(args, keys)
        qcfg = _choose(_PROFILES, cfg["quad_profile"], "quadrature profile")
        if args.dump_config:
            dump_config(cfg, out)
            return 0
        return command(cfg, qcfg, out)
    except Omt2Error as exc:
        code, label = next((code, label) for types, code, label in _EXIT_CODES
                           if isinstance(exc, types))
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
