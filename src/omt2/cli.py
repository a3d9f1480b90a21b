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
override file values and unknown keys are errors.  ``--dump-config``
prints the fully resolved configuration and exits; feeding that file
back via ``--config`` reproduces the run byte-for-byte.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 unachievable target.
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

# --objective names and the measure whose weights each one selects
_OBJECTIVES = {"pi_any": "pi_any", "pi_avg": "pi_avg", "pi1": "pi_1",
               "pi_1": "pi_1", "combo": "pi_combo"}

# Builtin rules by name: (alpha, quadrature config) -> Procedure.  The
# constructors are looked up when called, so rebinding this module's
# names reaches them.  Table order is the column order of power tables
# and of apex's decision rows.
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
# the optimal-rule columns of every power table: (measure, label)
_OMT_COLUMNS = (("pi_avg", "omt_avg_any"), ("pi_1", "omt_pi1"),
                ("pi_combo", "omt_combo"))

# APEX-style default counts per group, in _COUNT_KEYS order
_COUNT_KEYS = ("events_control", "n_control", "events_treat", "n_treat")
_DEFAULT_COUNTS = {1: (166, 1956, 132, 1914), 2: (57, 1218, 33, 1198)}
_DEFAULT_RATES = {"rate_control": 0.075, "rate_treat": 0.04875}


# ----------------------------------------------------------------------
# config resolution
# ----------------------------------------------------------------------

def _parse_bool(s: str) -> bool:
    if s.lower() in ("1", "true", "yes", "on"):
        return True
    if s.lower() in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {s!r}")


def read_config_file(path: str, known: dict[str, type]) -> dict:
    """Parse a line-oriented key = value file against a key registry."""
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        typ = known[key]
        try:
            out[key] = _parse_bool(val) if typ is bool else typ(val)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return out


def resolve(args: argparse.Namespace, keys: dict[str, type],
            defaults: dict) -> dict:
    """Merge flag values over config-file values over defaults."""
    file_vals = {}
    if getattr(args, "config", None):
        file_vals = read_config_file(args.config, keys)
    cfg = {}
    for key in keys:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
        elif key in file_vals:
            cfg[key] = file_vals[key]
        else:
            cfg[key] = defaults.get(key)
    return cfg


def dump_config(cfg: dict, stream) -> None:
    for key in sorted(cfg):
        val = cfg[key]
        if val is None:
            continue
        if isinstance(val, bool):
            val = "true" if val else "false"
        elif isinstance(val, float):
            val = repr(val)
        stream.write(f"{key} = {val}\n")


def quad_config(profile: str | None) -> QuadratureConfig:
    name = profile or os.environ.get(QUAD_PROFILE_ENV, "default")
    if name not in _PROFILES:
        raise ConfigError(f"unknown quadrature profile {name!r} "
                          f"(choose from {sorted(_PROFILES)})")
    return _PROFILES[name]


def _objective_weights(name: str) -> tuple[float, float, float]:
    if name not in _OBJECTIVES:
        raise ConfigError(f"unknown objective {name!r} "
                          f"(choose from {sorted(_OBJECTIVES)})")
    return MEASURE_WEIGHTS[_OBJECTIVES[name]]


def _measure_weights(measure: str) -> tuple[float, float, float]:
    if measure not in MEASURE_WEIGHTS:
        raise ConfigError(f"unknown measure {measure!r} (choose from {MEASURES})")
    return MEASURE_WEIGHTS[measure]


def _marginal_calibration(name: str) -> bool:
    """True for the marginal-power calibration, False for the design one."""
    if name in ("marginal-power", "marginal_power"):
        return True
    if name != "design":
        raise ConfigError("calibration must be 'design' or 'marginal-power'")
    return False


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
        w = _objective_weights(objective)
        spec = ObjectiveSpec(*w, AlternativeModel(theta1, theta2, 0.0), alpha)
        return build_omt(spec, qcfg)
    raise ConfigError(f"unknown procedure {kind!r}")


def _power_columns(selection: str, alpha: float, th1: float, th2: float,
                   qcfg: QuadratureConfig) -> list[tuple[str, Procedure]]:
    """The optimal-rule columns, then the selection's builtins."""
    model = AlternativeModel(th1, th2, 0.0)
    cols = [(label, build_omt(ObjectiveSpec(*MEASURE_WEIGHTS[m], model, alpha),
                              qcfg))
            for m, label in _OMT_COLUMNS]
    return cols + [(name, _BUILTINS[name](alpha, qcfg))
                   for name in _SELECTIONS[selection]]


def _power_table(cols: list[tuple[str, Procedure]],
                 model: AlternativeModel | None, rho: float | None,
                 qcfg: QuadratureConfig, out_stream) -> None:
    """Write the measure x procedure matrix at 4 decimals.

    model=None leaves out the measure rows; rho=None leaves out the
    global-null fwer row.
    """
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
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

_REGION_KEYS = {"proc": str, "objective": str, "alpha": float, "theta1": float,
                "theta2": float, "grid": int, "z_lo": float, "z_hi": float,
                "out": str, "quad_profile": str}
_REGION_DEFAULTS = {"proc": "hommel", "alpha": 0.025, "grid": 256,
                    "z_lo": -4.0, "z_hi": 0.0, "out": "region.csv"}


def cmd_region(cfg: dict, out_stream) -> int:
    qcfg = quad_config(cfg["quad_profile"])
    proc = _build_procedure(cfg["proc"], cfg["alpha"], cfg["objective"],
                            cfg["theta1"], cfg["theta2"], qcfg)
    grid = export_region(proc, cfg["grid"], cfg["z_lo"], cfg["z_hi"])
    _write_out(cfg["out"], grid.to_csv(), out_stream)
    counts = grid.class_counts()
    out_stream.write(f"procedure: {proc.describe()}\n")
    out_stream.write(f"alpha = {cfg['alpha']:.6g}\n")
    if proc.kind == "omt":
        out_stream.write(f"threshold t = {proc.t_score:.6g}\n")
    if proc.kind in ("bittman", "closed_stouffer"):
        out_stream.write(f"z-sum threshold = {proc.t_sum:.6g}\n")
    out_stream.write("cells: " + " ".join(f"{k}={v}" for k, v in counts.items())
                     + "\n")
    if cfg["out"] != "-":
        out_stream.write(f"region grid written to {cfg['out']}\n")
    return 0


_POWER_KEYS = {"procedures": str, "proc": str, "objective": str, "alpha": float,
               "theta1": float, "theta2": float, "rho": float,
               "marginal_power": float, "design_arm": int,
               "rate_control": float, "rate_treat": float, "mc": bool,
               "seed": int, "reps": int, "quad_profile": str}
_POWER_DEFAULTS = {"procedures": None, "proc": None, "alpha": 0.025,
                   "rho": 0.0, "mc": False, "seed": 20260810,
                   "reps": 1_000_000, **_DEFAULT_RATES}


def cmd_power(cfg: dict, out_stream) -> int:
    qcfg = quad_config(cfg["quad_profile"])
    alpha = cfg["alpha"]
    # calibration: direct shifts, marginal detection power, or the
    # two-proportion design at a given per-arm size
    if cfg["marginal_power"] is not None:
        th = theta_from_marginal_power(cfg["marginal_power"], alpha)
        th1 = th2 = th
    elif cfg["design_arm"] is not None:
        th = theta_from_design(TwoArmDesign(cfg["rate_control"],
                                            cfg["rate_treat"],
                                            cfg["design_arm"],
                                            cfg["design_arm"]))
        th1 = th2 = th
    else:
        _require(cfg, "theta1", "theta2")
        th1, th2 = cfg["theta1"], cfg["theta2"]
    rho = cfg["rho"]
    if cfg["procedures"] is None and cfg["proc"] is None:
        raise ConfigError("need --proc NAME or --procedures benchmark|all")
    if cfg["procedures"] not in (None, *_SELECTIONS):
        raise ConfigError("--procedures must be 'benchmark' or 'all'")
    if rho != 0.0 and (cfg["procedures"] is not None or cfg["proc"] == "omt"):
        raise ConfigError("correlated models only evaluate builtin procedures")

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

    if cfg["mc"]:
        mcc = McConfig(reps=cfg["reps"], seed=cfg["seed"])
        out_stream.write("monte carlo (mean, se):\n")
        for (name, proc) in cols:
            est = mc_power(proc, model, mcc)
            parts = [f"{m}={est[m][0]:.4f}(se {est[m][1]:.1e})" for m in MEASURES]
            out_stream.write(f"  {name}: " + " ".join(parts) + "\n")
    return 0


_ALLOC_KEYS = {"N": int, "grid": str, "measure": str, "alpha": float,
               "rate_control": float, "rate_treat": float, "out": str,
               "quad_profile": str}
_ALLOC_DEFAULTS = {"measure": "pi_1", "alpha": 0.025, **_DEFAULT_RATES,
                   "out": "allocation.csv"}


def cmd_allocate(cfg: dict, out_stream) -> int:
    _require(cfg, "N", "grid")
    qcfg = quad_config(cfg["quad_profile"])
    try:
        grid = [float(x) for x in cfg["grid"].split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad allocation grid {cfg['grid']!r}") from exc
    if not grid:
        raise ConfigError("allocation grid is empty")
    measure = cfg["measure"]
    weights = _measure_weights(measure)
    result = allocation_search(cfg["N"], weights, cfg["rate_control"],
                               cfg["rate_treat"], grid, cfg["alpha"], qcfg)
    _write_out(cfg["out"], result.to_csv(), out_stream)
    out_stream.write(f"objective template: {measure}, N = {cfg['N']}\n")
    for m in MEASURES:
        out_stream.write(f"argmax[{m}] = r = {result.argmax[m]:g}\n")
    if cfg["out"] != "-":
        out_stream.write(f"allocation table written to {cfg['out']}\n")
    return 0


_APEX_COUNTS = {f"{key}{g}": n for g, counts in _DEFAULT_COUNTS.items()
                for key, n in zip(_COUNT_KEYS, counts)}
_APEX_KEYS = {"alpha": float, **dict.fromkeys(_APEX_COUNTS, int),
              "rate_control": float, "rate_treat": float, "calibration": str,
              "beta": float, "skip_power": bool, "quad_profile": str}
_APEX_DEFAULTS = {"alpha": 0.025, **_APEX_COUNTS, **_DEFAULT_RATES,
                  "calibration": "design", "beta": 0.85, "skip_power": False}


def cmd_apex(cfg: dict, out_stream) -> int:
    qcfg = quad_config(cfg["quad_profile"])
    alpha = cfg["alpha"]
    p_obs = []
    for g in (1, 2):
        ec, nc, et, nt = (cfg[f"{key}{g}"] for key in _COUNT_KEYS)
        p = observed_pvalue(ec, nc, et, nt)
        p_obs.append(p)
        out_stream.write(f"group {g}: events/arm {ec}/{nc} vs {et}/{nt}"
                         f"  one-sided p = {p:.4f}\n")

    rc, rt = cfg["rate_control"], cfg["rate_treat"]
    th_design = tuple(
        theta_from_design(TwoArmDesign(rc, rt, cfg[f"n_control{g}"],
                                       cfg[f"n_treat{g}"])) for g in (1, 2))
    th_marg = theta_from_marginal_power(cfg["beta"], alpha)
    out_stream.write(f"calibrated shifts (design, rates {rc:g} vs {rt:g}): "
                     f"theta = ({th_design[0]:.6g}, {th_design[1]:.6g})\n")
    out_stream.write(f"calibrated shifts (marginal power {cfg['beta']:g}): "
                     f"theta = ({th_marg:.6g}, {th_marg:.6g})\n")

    if _marginal_calibration(cfg["calibration"]):
        th1 = th2 = th_marg
    else:
        th1, th2 = th_design

    cols = _power_columns("all", alpha, th1, th2, qcfg)
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


_SAVINGS_KEYS = {"measure": str, "N": int, "alpha": float, "calibration": str,
                 "beta": float, "rate_control": float, "rate_treat": float,
                 "n_cap": int, "quad_profile": str}
_SAVINGS_DEFAULTS = {"measure": "pi_any", "N": 4800, "alpha": 0.025,
                     "calibration": "marginal-power", "beta": 0.85,
                     **_DEFAULT_RATES, "n_cap": 200_000}


def cmd_savings(cfg: dict, out_stream) -> int:
    qcfg = quad_config(cfg["quad_profile"])
    alpha, n_ref = cfg["alpha"], cfg["N"]
    measure = cfg["measure"]
    weights = _measure_weights(measure)
    rc, rt = cfg["rate_control"], cfg["rate_treat"]

    if _marginal_calibration(cfg["calibration"]):
        th_ref = theta_from_marginal_power(cfg["beta"], alpha)

        def theta_of_n(n: int) -> float:
            return th_ref * math.sqrt(n / n_ref)
    else:
        def theta_of_n(n: int) -> float:
            return theta_for_group(n // 2, rc, rt)

    rep = savings_report(measure, weights, n_ref, theta_of_n, alpha, qcfg,
                         n_cap=cfg["n_cap"])
    out_stream.write(f"measure: {measure}  calibration: {cfg['calibration']}\n")
    out_stream.write(f"optimal-rule power at N={n_ref}: {rep.optimal_power:.4f}\n")
    out_stream.write(f"baseline (hommel) power at N={n_ref}: "
                     f"{rep.reference_power:.4f}\n")
    out_stream.write(f"baseline needs N = {rep.n_required} for the same power\n")
    out_stream.write(f"relative saving: {rep.saving_pct:.2f}%\n")
    return 0


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser, keys: dict[str, type]) -> None:
    sub.add_argument("--config", help="key = value configuration file")
    sub.add_argument("--dump-config", action="store_true",
                     help="print resolved configuration and exit")
    for key, typ in keys.items():
        flag = "--" + key.replace("_", "-")
        if typ is bool:
            sub.add_argument(flag, dest=key, action="store_const", const=True,
                             default=None)
        else:
            sub.add_argument(flag, dest=key, type=typ, default=None)


_COMMANDS = {
    "region": (_REGION_KEYS, _REGION_DEFAULTS, cmd_region),
    "power": (_POWER_KEYS, _POWER_DEFAULTS, cmd_power),
    "allocate": (_ALLOC_KEYS, _ALLOC_DEFAULTS, cmd_allocate),
    "apex": (_APEX_KEYS, _APEX_DEFAULTS, cmd_apex),
    "savings": (_SAVINGS_KEYS, _SAVINGS_DEFAULTS, cmd_savings),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omt2",
        description="Optimal two-hypothesis testing procedures and design")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (keys, _, _) in _COMMANDS.items():
        _add_common(subs.add_parser(name), keys)
    return parser


def main(argv: list[str] | None = None, out_stream=None) -> int:
    out = out_stream if out_stream is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    keys, defaults, command = _COMMANDS[args.command]
    try:
        cfg = resolve(args, keys, defaults)
        if args.dump_config:
            dump_config(cfg, out)
            return 0
        return command(cfg, out)
    except (ConfigError, DomainError, DegenerateVariance,
            UnsupportedModel) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ToleranceNotMet, NoBracket, MaxIterations) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except Unachievable as exc:
        print(f"unachievable target: {exc}", file=sys.stderr)
        return 4
    except Omt2Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
