#!/usr/bin/env python3
"""Run one fixed matrix of CLI runs against two source trees and compare them.

    python3 scripts/compare_cli.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding the `localrules` package (a
checkout's `src`). Every run that matrix() lists is `python -m localrules
...` with that directory on PYTHONPATH, on the datasets in this checkout's
`data/` and on inputs written once to a temporary directory, so the two
trees see the same files and echo the same paths. A run counts as equal
when its stdout, its exit code and its stderr, less the `wall_seconds=` line
that `evaluate` writes there, are equal. One line is printed per run that
differs, naming what differs and the run's arguments, then a note line per
`evaluate` run whose `--threads` count this host runs at fewer processes
(evaluate.worker_count clamps it to the CPUs), then a last line `N runs, M
differ`; the exit status is 1 if any run differs, 0 otherwise.
"""

from __future__ import annotations

import csv
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
COMMANDS = ("predict", "rules", "evaluate", "discretize", "selftest")


def _files(name: str) -> list[str]:
    return ["--data", str(DATA / f"{name}.csv"), "--schema", str(DATA / f"{name}.schema")]


def write_continuous(directory: Path, whole_x1: bool = False) -> list[str]:
    """The seed-2 synthetic continuous dataset, as files in directory.

    With whole_x1, x1 is rounded to a whole number, so that its value groups
    hold several rows, often of both labels; the files are then named tied.
    """
    sys.path.insert(0, str(ROOT / "perfbench"))
    import synth  # the benchmark's data generator, only imported

    csv_text, schema_text = synth.make_continuous(2)
    if whole_x1:
        header, *rows = csv_text.splitlines()
        cells = [row.split(",") for row in rows]
        for row in cells:
            if row[0] != "?":
                row[0] = str(round(float(row[0])))
        csv_text = "\n".join([header] + [",".join(row) for row in cells]) + "\n"
    name = "tied" if whole_x1 else "continuous"
    data, schema = directory / f"{name}.csv", directory / f"{name}.schema"
    data.write_text(csv_text, encoding="utf-8")
    schema.write_text(schema_text, encoding="utf-8")
    return ["--data", str(data), "--schema", str(schema)]


def write_cut(directory: Path, name: str, keep: tuple[str, ...]) -> list[str]:
    """Dataset name with only the columns in keep, as files in directory."""
    header, *rows = csv.reader((DATA / f"{name}.csv").read_text(encoding="utf-8").splitlines())
    schema = (DATA / f"{name}.schema").read_text(encoding="utf-8").splitlines()
    kept = [line for line in schema if line.split(":")[0] in keep]
    names = [line.split(":")[0] for line in kept]
    cols = [header.index(n) for n in names]
    lines = [",".join(names)] + [",".join(row[i] for i in cols) for row in rows]
    data, schema_path = directory / f"{name}-cut.csv", directory / f"{name}-cut.schema"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    schema_path.write_text("\n".join(kept) + "\n", encoding="utf-8")
    return ["--data", str(data), "--schema", str(schema_path)]


def write_small(directory: Path) -> list[list[str]]:
    """The runs on small inputs, written as files into directory."""
    schema = "a: bool\nc: class {y,n}\n"
    oversized = "T" * 140000  # one field over the csv module's limit
    inputs = {
        "kind": ("a,c\nT,y\nF,n\n", "a: frobnicate\nc: class {y,n}\n"),
        "token": ("a,c\nT,y\nmaybe,n\n", schema),
        "label": ("a,c\nT,y\nF,maybe\n", schema),
        "header": ("c,a\ny,T\nn,F\n", schema),
        "field": (f"a,c\nT,y\n{oversized},n\n", schema),
        "blank": ("a,c\n?,?\nT,y\nF,n\n", schema),
        "lone": ("a,c\nT,y\nF,n\nF,n\n", schema),
        "gap": ("a,c\nT,y\n\nF,n\nX,y\n", schema),  # a blank record before row 2
    }
    files = {}
    for name, (csv_text, schema_text) in inputs.items():
        data, schema_path = directory / f"{name}.csv", directory / f"{name}.schema"
        data.write_text(csv_text, encoding="utf-8")
        schema_path.write_text(schema_text, encoding="utf-8")
        files[name] = ["--data", str(data), "--schema", str(schema_path)]
    names = ("kind", "token", "label", "header", "field", "gap")
    runs = [["predict", *files[name]] for name in names]
    runs.append(["evaluate", *files["lone"], "--loocv"])
    return runs + [["predict", *files["blank"]], ["rules", *files["blank"]]]


def matrix(
    continuous: list[str], tied: list[str], cut: list[str], small: list[list[str]]
) -> list[list[str]]:
    """Every run.

    Each of six non-default search flags runs k-fold and leave-one-out
    evaluate and rules on one row, so it meets the walk of a fold's split
    and the walk of a lone query. continuous and tied hold the --data/--schema
    flags of write_continuous, plain and with whole_x1, cut those of
    write_cut, and small the runs of write_small.
    """
    runs = [
        ["evaluate", *continuous, "--threads", "1"],
        ["evaluate", *continuous, "--threads", "2"],
        ["evaluate", *continuous, "--loocv", "--threads", "1"],
        ["evaluate", *continuous, "--loocv", "--threads", "2"],
        ["evaluate", *cut, "--threads", "1"],
        ["evaluate", *cut, "--loocv", "--threads", "1"],
        ["discretize", *continuous],
        ["discretize", *continuous, "--override", "*=levels"],
    ]
    for row in ROWS:
        runs.append(["predict", *continuous, "--row", row, "--show-rules"])
        runs.append(["rules", *continuous, "--row", row])
    # Leaving a row out of a tie group with both labels moves its class count
    # without emptying it: the held-out grid fits meet mixed groups.
    runs += [["evaluate", *tied, "--loocv", "--threads", threads] for threads in ("1", "2")]
    runs += [["predict", *tied, "--row", row] for row in ROWS]
    every_level = ["--override", "*=levels", "--kappa", "0.9"]
    runs += [["rules", *continuous, *every_level, "--row", row] for row in ROWS]
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
    runs += [["evaluate", *tictactoe, "--threads", "2"], ["discretize", *tictactoe]]
    runs += [["rules", *tictactoe, "--row", row] for row in ROWS]  # level displays of nominals
    # Three processes cut the rows into runs of unequal size (958 and 400
    # rows), and the run boundaries cut folds. Runs use no more processes
    # than there are CPUs, so a host with fewer than three runs these at two.
    runs += [
        ["evaluate", *_files("tictactoe"), "--mode", "exact", "--threads", "3"],
        ["evaluate", *continuous, "--loocv", "--threads", "3"],
    ]
    for flag in (
        ["--eps", "0.2"], ["--cmin-mism", "0"], ["--cmin-mism", "0.0625"], ["--kappa", "0.5"],
        ["--max-depth", "2"], ["--lambda", "0"], ["--lambda", "1"],
    ):
        runs.append(["evaluate", *_files("monks2"), *flag, "--threads", "2"])
        runs.append(["evaluate", *tictactoe, *flag, "--threads", "2"])
        # Leave-one-out walks one split per held-out class, dealt to one and
        # to two processes; a single row walks a lone query.
        for threads in ("1", "2"):
            runs.append(["evaluate", *continuous, *flag, "--loocv", "--threads", threads])
        runs.append(["rules", *tictactoe, *flag, "--row", "5"])
    # At --cmin-mism 0.0625 a class of 16j training rows has the whole-number
    # mismatch floor j: monks1's 144 rows a class at 3 folds, monks2's 128
    # positives in 8 of 10 folds, tictactoe's 304 negatives in 8 of 12, and
    # the continuous data's 160 rows of class y once one of 161 is held out.
    whole = ["--cmin-mism", "0.0625"]
    runs += [
        ["evaluate", *_files("monks1"), *whole],
        ["evaluate", *_files("monks2"), *whole, "--folds", "10"],
        ["evaluate", *_files("tictactoe"), "--mode", "exact", *whole, "--folds", "12"],
    ]
    # Other fold counts give the split walks other batch sizes and shares.
    for data in (_files("monks2"), _files("tictactoe") + ["--mode", "exact"]):
        for folds in ("2", "10"):
            for threads in ("1", "2"):
                runs.append(
                    ["evaluate", *data, "--folds", folds, "--seed", "7", "--threads", threads]
                )
    # The node counts share one int in fields as wide as the largest count
    # the batch can reach: small batches of the largest counts, and deeper
    # paths, which widen the fields.
    runs.append(["evaluate", *tictactoe, "--folds", "10", "--threads", "1"])
    runs.append(["evaluate", *_files("monks2"), "--max-depth", "12"])
    monks = _files("monks1")
    runs.append(["evaluate", *monks, "--cmin", "0"])  # rules that match no row
    missing = ["--data", str(DATA / "absent.csv"), "--schema", str(DATA / "monks1.schema")]
    runs += [["--help"]] + [[command, "--help"] for command in COMMANDS]
    runs += [
        ["predict"],
        ["no-such-command"],
        ["evaluate", *monks, "--kappa", "0"],
        ["evaluate", *monks, "--threads", "-1"],
        ["evaluate", *monks, "--loocv", "--folds", "5"],
        ["predict", *monks, "--threads", "-7"],
        ["predict", *monks, "--override", "ghost=exact"],
        ["evaluate", *monks, "--override", "c=exact"],
        ["predict", *monks, "--row", "999"],
        ["predict", *missing],
        ["rules", *missing, "--lambda", "5"],
        ["selftest", "--trials", "0"],
        ["selftest", "--trials", "300"],
    ]
    return runs + small


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


def clamped(runs: list[list[str]], src: str) -> list[str]:
    """A note per evaluate run whose --threads count src's worker_count lowers here."""
    sys.path.insert(0, src)
    from localrules.evaluate import available_cpus, worker_count

    cpus = available_cpus()
    notes = []
    for args in runs:
        if args[0] == "evaluate" and "--threads" in args:
            threads = int(args[args.index("--threads") + 1])
            if threads > 0 and (allowed := worker_count(threads, threads, cpus)) < threads:
                notes.append(
                    f"note: {allowed} processes, not {threads}, on {cpus} CPUs: "
                    f"localrules {' '.join(args)}"
                )
    return notes


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
        directory = Path(tmp)
        runs = matrix(
            write_continuous(directory),
            write_continuous(directory, whole_x1=True),
            write_cut(directory, "monks2", ("a1", "a2", "a5", "c")),
            write_small(directory),
        )
        for args in runs:
            old, new = run(old_src, args), run(new_src, args)
            parts = [
                part for part, a, b in zip(("exit code", "stdout", "stderr"), old, new) if a != b
            ]
            if parts:
                differ += 1
                print(f"differs ({', '.join(parts)}): localrules {' '.join(args)}")
    for note in clamped(runs, new_src):
        print(note)
    print(f"{len(runs)} runs, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
