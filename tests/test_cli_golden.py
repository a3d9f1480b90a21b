"""Golden CLI output: stdout and exit code of a fixed command corpus.

The corpus is the six README commands plus a few wider runs (all
builtins, seeded Monte Carlo, a correlated model, the second apex
calibration, a design-calibrated savings search and a correlated model
at a far shift).  Each command runs
in-process through `omt2.cli.main` inside a temporary directory; the
record keeps the exit code, stdout and the sha256 of every file the
command writes there (the `region` and `allocate` CSVs).

Every command in the README's CLI code block must be in the corpus, so
a README command cannot drift away from pinned output.

A refactor must leave `tests/data/cli_golden.txt` byte-identical.  A
change that moves printed digits on purpose regenerates the file with

    PYTHONPATH=src python tests/test_cli_golden.py

and lists every moved line in CHANGES.md.
"""

import hashlib
import io
import os
import pathlib
import sys
import tempfile

GOLDEN = pathlib.Path(__file__).parent / "data" / "cli_golden.txt"
README = pathlib.Path(__file__).parent.parent / "README.md"

COMMANDS = (
    "region --proc omt --objective pi1 --theta1 -2 --theta2 -2 "
    "--alpha 0.025 --grid 256 --out region.csv",
    "power --procedures benchmark --marginal-power 0.85",
    "power --proc hommel --theta1 0 --theta2 0",
    "allocate --N 4800 --grid 0,0.25,0.5,0.75,1 --measure pi_any",
    "apex",
    "savings --measure pi_any --N 4800",
    "power --procedures all --theta1 -3.1 --theta2 -2.4",
    "power --procedures benchmark --theta1 -2.5 --theta2 -3 --mc "
    "--reps 100000 --seed 7",
    "power --proc hommel --theta1 -2 --theta2 -2.5 --rho 0.5 --mc "
    "--reps 100000",
    "apex --calibration marginal-power",
    "savings --measure pi_combo --N 3000 --calibration design",
    "power --proc hommel --theta1=-3e6 --theta2=-2.5 --rho 0.5",
)


def render(workdir: pathlib.Path) -> str:
    """Run the corpus in workdir and return its record."""
    from omt2.cli import main

    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        blocks = []
        for command in COMMANDS:
            buf = io.StringIO()
            code = main(command.split(), out_stream=buf)
            lines = [f"=== omt2 {command}", f"exit {code}"]
            for written in sorted(workdir.iterdir()):
                digest = hashlib.sha256(written.read_bytes()).hexdigest()
                lines.append(f"wrote {written.name} sha256 {digest}")
                written.unlink()
            blocks.append("\n".join(lines) + "\n" + buf.getvalue())
    finally:
        os.chdir(cwd)
    return "".join(blocks)


def readme_commands() -> list[str]:
    """The arguments of each `omt2 ...` line in the README's CLI code
    block, with `\\` continuations joined, trailing `# ...` comments
    dropped and whitespace normalized."""
    text = README.read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```bash\n", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    commands = []
    for line in block.splitlines():
        words = line.split(" #", 1)[0].split()
        if words[:1] == ["omt2"]:
            commands.append(" ".join(words[1:]))
    return commands


def test_readme_commands_are_pinned():
    commands = readme_commands()
    assert commands, "no omt2 commands in the README's CLI code block"
    pinned = {" ".join(c.split()) for c in COMMANDS}
    assert [c for c in commands if c not in pinned] == []


def test_cli_output_matches_golden(tmp_path, monkeypatch):
    from omt2.cli import QUAD_PROFILE_ENV

    monkeypatch.delenv(QUAD_PROFILE_ENV, raising=False)
    assert render(tmp_path) == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    os.environ.pop("OMT2_QUAD_PROFILE", None)
    with tempfile.TemporaryDirectory() as tmp:
        text = render(pathlib.Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(text, encoding="utf-8")
    sys.stdout.write(f"wrote {GOLDEN} ({len(text.splitlines())} lines)\n")
