"""Seeded config-file fuzzing of the CLI.

Each README command's resolved configuration (``--dump-config``) is
written back as a config file with values replaced by edge tokens for
their key's type: every key with each of its tokens alone, then seeded
random pairs of keys.  Every case must end within its time limit with
exit code 0, 2, 3 or 4, at most one line on stderr (a numpy warning
counts as a line), and nothing on stdout unless it succeeded.  The keys
that size the work are capped, so that no case grows large.  And
``--dump-config`` of a case exits 2, with the run's message, exactly when
the run exits 2 (a configuration error).
"""

import contextlib
import io
import random
import warnings

import pytest

from conftest import time_limit
from omt2.cli import _COMMANDS, main

# the README commands, their outputs sent to stdout and their sizes capped
README_COMMANDS = {
    "region": ["region", "--proc", "omt", "--objective", "pi1", "--theta1", "-2",
               "--theta2", "-2", "--alpha", "0.025", "--grid", "64", "--out", "-"],
    "power_benchmark": ["power", "--procedures", "benchmark", "--marginal-power",
                        "0.85", "--reps", "10000"],
    "power_fwer": ["power", "--proc", "hommel", "--theta1", "0", "--theta2", "0",
                   "--reps", "10000"],
    "allocate": ["allocate", "--N", "4800", "--grid", "0,0.25,0.5,0.75,1",
                 "--measure", "pi_any", "--out", "-"],
    "apex": ["apex"],
    "savings": ["savings", "--measure", "pi_any", "--N", "4800", "--n-cap", "20000"],
}
# edge tokens per key type; every key also gets an empty value and a comment
TOKENS = {
    float: ("nan", "inf", "-inf", "0", "-0.0", "-1", "1e308", "-1e308", "1e-300", "7.5"),
    int: ("0", "-1", "99999999999999999999", "7.5", "1e308"),
    str: ("no_such_name", "-1e308", "7.5"),
    bool: ("0", "-1", "no_such_name"),
}
COMMON_TOKENS = ("", "#x")
# a token whose integer value passes one of these caps is not used for that key
CAPS = {"grid": 64, "reps": 10_000, "N": 20_000, "n_cap": 20_000}
PAIRS_PER_COMMAND = 25
SEED = 20261019


def _tokens(command: str, key: str) -> list[str]:
    typ = _COMMANDS[command][0][key][0]
    out = []
    for token in TOKENS[typ] + COMMON_TOKENS:
        try:
            if int(token) > CAPS[key]:
                continue
        except (KeyError, ValueError):
            pass
        out.append(token)
    return out


def _run(argv):
    """(exit code, stdout, stderr lines, warnings) of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as warned, \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv, out_stream=out)
    return code, out.getvalue(), err.getvalue().splitlines(), [str(w.message) for w in warned]


def _cases(name, tmp_path):
    """(change, config file) of each case of one README command."""
    argv = README_COMMANDS[name]
    code, dumped, err, warned = _run(argv + ["--dump-config"])
    assert (code, err, warned) == (0, [], [])
    base = dict(line.split(" = ", 1) for line in dumped.splitlines())
    keys = sorted(base)
    rnd = random.Random(f"{SEED}:{name}")
    changes = [{key: token} for key in keys for token in _tokens(argv[0], key)]
    for _ in range(PAIRS_PER_COMMAND):
        changes.append({key: rnd.choice(_tokens(argv[0], key))
                        for key in rnd.sample(keys, 2)})
    for case, change in enumerate(changes):
        path = tmp_path / f"case{case}.cfg"
        path.write_text("".join(f"{k} = {change.get(k, v)}\n" for k, v in base.items()))
        yield change, str(path)


@pytest.mark.parametrize("name", sorted(README_COMMANDS))
def test_edge_tokens_end_typed(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)      # a token may name the output file
    command = README_COMMANDS[name][0]
    bad = []
    for change, path in _cases(name, tmp_path):
        try:
            with time_limit(10):
                code, out, err, warned = _run([command, "--config", path])
        except Exception as exc:     # a timeout, or a traceback at the command line
            bad.append((change, repr(exc)))
            continue
        if (code not in (0, 2, 3, 4) or len(err) + len(warned) > 1
                or (code != 0 and out)):
            bad.append((change, code, err, warned))
    assert bad == []


# The one refusal a dump does not make: the quadrature's bound on |theta1|,
# which a run meets only where it evaluates a power at the shift.
QUADRATURE_BOUND = "configuration error: theta1 must lie in ("


@pytest.mark.parametrize("name", sorted(README_COMMANDS))
def test_dump_refuses_exactly_what_the_run_refuses(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    command = README_COMMANDS[name][0]
    bad, refused = [], 0
    for change, path in _cases(name, tmp_path):
        with time_limit(20):
            code, _, err, _ = _run([command, "--config", path])
            dump_code, _, dump_err, _ = _run([command, "--config", path, "--dump-config"])
        if code == 2 and err[0].startswith(QUADRATURE_BOUND):
            continue
        refused += code == 2
        if (code == 2) != (dump_code == 2) or (code == 2 and err != dump_err):
            bad.append((change, code, err, dump_code, dump_err))
    assert bad == []
    assert refused > 0
