#!/usr/bin/env python3
"""Run one fixed matrix of CLI runs against two source trees and compare them.

    python3 scripts/compare_cli.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding the `localrules` package (a
checkout's `src`). Every run is `python -m localrules ...` with that
directory on PYTHONPATH, on the datasets in this checkout's `data/`, so the
two trees see the same files and echo the same paths. A run counts as equal
when its stdout, its exit code and its stderr, less the `wall_seconds=` line
that `evaluate` writes there, are equal. One line is printed per run that
differs; the exit status is 1 if any run differs, 0 otherwise.

The matrix covers monks1-3 and tictactoe in both modes (k-fold `evaluate` at
one and two workers, `evaluate --loocv`, `predict --show-rules` and `rules`
on rows 0, 5 and 17, `discretize`), the same commands in levels mode on
the `loocv-continuous` benchmark dataset (`perfbench/synth.make_continuous(2)`,
written once to a temporary directory, so both trees read the same file),
`--override '*=levels'`, k-fold `evaluate` on monks2 and on tictactoe with
every cell as levels at each of `--eps 0.2`, `--cmin-mism 0`, `--kappa
0.5`, `--max-depth 2` (search branches the default flags rarely take),
`--lambda 0` and `--lambda 1` (the weights at which one half of every score
is zero), the usage and data error paths (a negative `--threads` for
`evaluate` and `predict` among them), and `selftest --trials 300`.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"
DATASETS = ("monks1", "monks2", "monks3", "tictactoe")
MODES = ("levels", "exact")
ROWS = ("0", "5", "17")


def _files(name: str) -> list[str]:
    return ["--data", str(DATA / f"{name}.csv"), "--schema", str(DATA / f"{name}.schema")]


def write_continuous(directory: Path) -> list[str]:
    """The seed-2 synthetic continuous dataset, as files in directory."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import synth  # the benchmark's data generator, only imported

    csv_text, schema_text = synth.make_continuous(2)
    data, schema = directory / "continuous.csv", directory / "continuous.schema"
    data.write_text(csv_text, encoding="utf-8")
    schema.write_text(schema_text, encoding="utf-8")
    return ["--data", str(data), "--schema", str(schema)]


def matrix(continuous: list[str]) -> list[list[str]]:
    """Every run; continuous holds the --data/--schema flags of write_continuous."""
    runs = [
        ["evaluate", *continuous, "--threads", "1"],
        ["evaluate", *continuous, "--threads", "2"],
        ["evaluate", *continuous, "--loocv", "--threads", "2"],
        ["discretize", *continuous],
    ]
    for row in ROWS:
        runs.append(["predict", *continuous, "--row", row, "--show-rules"])
        runs.append(["rules", *continuous, "--row", row])
    for name in DATASETS:
        for mode in MODES:
            base = _files(name) + ["--mode", mode]
            runs += [
                ["evaluate", *base, "--threads", "1"],
                ["evaluate", *base, "--threads", "2"],
                ["evaluate", *base, "--loocv", "--threads", "2"],
                ["discretize", *base],
            ]
            for row in ROWS:
                runs.append(["predict", *base, "--row", row, "--show-rules"])
                runs.append(["rules", *base, "--row", row])
    tictactoe = _files("tictactoe") + ["--mode", "exact", "--override", "*=levels"]
    runs += [
        ["evaluate", *tictactoe, "--threads", "2"],
        ["rules", *tictactoe, "--row", "5"],
        ["discretize", *tictactoe],
    ]
    for flag in (
        ["--eps", "0.2"], ["--cmin-mism", "0"], ["--kappa", "0.5"], ["--max-depth", "2"],
        ["--lambda", "0"], ["--lambda", "1"],
    ):
        runs.append(["evaluate", *_files("monks2"), *flag, "--threads", "2"])
        runs.append(["evaluate", *tictactoe, *flag, "--threads", "2"])
    monks = _files("monks1")
    missing = ["--data", str(DATA / "absent.csv"), "--schema", str(DATA / "monks1.schema")]
    runs += [
        ["predict"],
        ["no-such-command"],
        ["evaluate", *monks, "--kappa", "0"],
        ["evaluate", *monks, "--threads", "-1"],
        ["predict", *monks, "--threads", "-7"],
        ["predict", *monks, "--override", "ghost=exact"],
        ["predict", *monks, "--row", "999"],
        ["predict", *missing],
        ["rules", *missing, "--lambda", "5"],
        ["selftest", "--trials", "0"],
        ["selftest", "--trials", "300"],
    ]
    return runs


def run(src: str, args: list[str]) -> tuple[int, str, str]:
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "localrules", *args],
        env=env, capture_output=True, text=True, check=False,
    )
    err = "".join(
        line for line in done.stderr.splitlines(keepends=True)
        if not line.startswith("wall_seconds=")
    )
    return done.returncode, done.stdout, err


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: compare_cli.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    for src in argv:
        if not (Path(src) / "localrules" / "__init__.py").is_file():
            print(f"error: {src} holds no localrules package", file=sys.stderr)
            return 2
    old_src, new_src = (str(Path(src).resolve()) for src in argv)
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        runs = matrix(write_continuous(Path(tmp)))
        for args in runs:
            old, new = run(old_src, args), run(new_src, args)
            parts = [
                part for part, a, b in zip(("exit code", "stdout", "stderr"), old, new) if a != b
            ]
            if parts:
                differ += 1
                print(f"differs ({', '.join(parts)}): localrules {' '.join(args)}")
    print(f"{len(runs)} runs, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
