#!/usr/bin/env python3
"""Golden outputs: what the README commands and both experiment scripts print.

Usage: python scripts/golden.py --check | --write

The outputs are the stdout and exit code of every ``barronlab`` command in
the README (its command block and the Known results table), the files and
stdout of ``run_all_experiments.py --seed 0`` and the stdout of
``witness_report.py --seed 0``, all run in this process.  ``--write``
rewrites them under tests/golden/.  ``--check`` regenerates them in a
temporary directory and compares them with the checked-in files: text that
is not a number, exit codes, verdicts and integers must match exactly, and
other numbers within a relative 1e-12, since BLAS on another host may move
the last bits.  It names the file and line of each mismatch, prints whether
the bytes are identical, and exits 1 on a mismatch.
"""

import argparse
import contextlib
import importlib.util
import io
import math
import pathlib
import re
import shlex
import sys
import tempfile
from itertools import zip_longest

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from barronlab import cli  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"
SEED_ARGV = ["--seed", "0"]
REL_TOL = 1e-12
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def readme_commands() -> list[list[str]]:
    """The README's ``barronlab`` command lines, then its Known results commands."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("barronlab ")]
    known = text.split("### Known results", 1)[1].split("\n## ", 1)[0]
    return commands + [shlex.split(line.split("`")[1]) for line in known.splitlines()
                       if line.startswith("| `rates ")]


def run_script(name: str, argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of ``scripts/<name>.py`` run in this process."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out, saved = io.StringIO(), sys.argv
    sys.argv = [name, *argv]
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = module.main()
    finally:
        sys.argv = saved
    return code, out.getvalue()


def outputs() -> dict[str, str]:
    """Every golden output, by its path under tests/golden/."""
    found, codes = {}, []
    for index, argv in enumerate(readme_commands()):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.dispatch(argv)
        found[f"readme/{index:02d}_{argv[0]}.out"] = out.getvalue()
        codes.append(f"barronlab {shlex.join(argv)}: {code}")
    with tempfile.TemporaryDirectory() as tmp:
        code, found["run_all_experiments/stdout.txt"] = run_script(
            "run_all_experiments", [tmp, *SEED_ARGV])
        codes.append(f"run_all_experiments.py {shlex.join(SEED_ARGV)}: {code}")
        for path in sorted(pathlib.Path(tmp).iterdir()):
            found[f"run_all_experiments/{path.name}"] = path.read_text(encoding="utf-8")
    code, found["witness_report/stdout.txt"] = run_script("witness_report", SEED_ARGV)
    codes.append(f"witness_report.py {shlex.join(SEED_ARGV)}: {code}")
    found["exit_codes.txt"] = "".join(line + "\n" for line in codes)
    return found


def read(directory: pathlib.Path) -> dict[str, str]:
    return {path.relative_to(directory).as_posix(): path.read_text(encoding="utf-8")
            for path in sorted(directory.rglob("*")) if path.is_file()}


def same_number(want: str, got: str) -> bool:
    if not any(c in want + got for c in ".eE"):
        return want == got  # integers, counts and exit codes
    return math.isclose(float(want), float(got), rel_tol=REL_TOL, abs_tol=0.0)


def same_line(want: str, got: str) -> bool:
    """Equal text between numbers, and each number equal within ``REL_TOL``."""
    a, b = NUMBER.split(want), NUMBER.split(got)
    return len(a) == len(b) and all(
        x == y if i % 2 == 0 else same_number(x, y) for i, (x, y) in enumerate(zip(a, b)))


def compare(want: dict[str, str], got: dict[str, str]) -> list[str]:
    """One message per file that differs beyond the tolerance, naming its first bad line."""
    found = []
    for name in sorted(set(want) | set(got)):
        path = f"tests/golden/{name}"
        if name not in got:
            found.append(f"{path}: checked in, but no longer produced")
        elif name not in want:
            found.append(f"{path}: produced, but not checked in")
        elif want[name] != got[name]:
            pairs = zip_longest(want[name].splitlines(True), got[name].splitlines(True),
                                fillvalue="")
            for line, (a, b) in enumerate(pairs, 1):
                if not same_line(a, b):
                    found.append(f"{path}:{line}: expected {a!r}, got {b!r}")
                    break
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true")
    mode.add_argument("--write", action="store_true")
    args = parser.parse_args()
    got = outputs()
    if args.write:
        for path in GOLDEN.rglob("*"):
            if path.is_file():
                path.unlink()
        for name, text in got.items():
            (GOLDEN / name).parent.mkdir(parents=True, exist_ok=True)
            (GOLDEN / name).write_text(text, encoding="utf-8")
        print(f"wrote {len(got)} files to {GOLDEN.relative_to(ROOT)}")
        return 0
    want = read(GOLDEN)
    changed = sorted(name for name in set(want) | set(got) if want.get(name) != got.get(name))
    print("bytes identical: " + ("yes" if not changed else "no, in " + ", ".join(changed)))
    mismatches = compare(want, got)
    for message in mismatches:
        print(message)
    print(f"golden check: {'fail' if mismatches else 'pass'} ({len(got)} outputs)")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
