"""Exit codes, output shape, and flag plumbing of the command line."""

import io
import math
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import localrules
from localrules.cli import _same_outcome, main, random_instance
from localrules.evaluate import worker_count
from localrules.search import search_local_rules

SCHEMA = """\
flag: bool
size: continuous
c: class {on, off}
"""


def _write_copy_class(tmp_path, n=24):
    lines = ["flag,size,c"]
    for i in range(n):
        lines.append(f"{'t' if i % 2 == 0 else 'f'},{float(i % 7)},{'on' if i % 2 == 0 else 'off'}")
    data = tmp_path / "toy.csv"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    schema = tmp_path / "toy.schema"
    schema.write_text(SCHEMA, encoding="utf-8")
    return str(data), str(schema)


def _run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_predict_happy_path(tmp_path, capsys):
    data, schema = _write_copy_class(tmp_path)
    code, out, err = _run(
        ["predict", "--data", data, "--schema", schema, "--row", "0"], capsys
    )
    assert code == 0
    assert "class=on" in out
    assert "probability=1.000000" in out
    assert "source=combined_rule" in out
    assert f"data={data}" in out  # effective config is echoed
    assert "weight=0.75" in out


def test_predict_show_rules_lists_spec_format(tmp_path, capsys):
    data, schema = _write_copy_class(tmp_path)
    code, out, _ = _run(
        ["predict", "--data", data, "--schema", schema, "--show-rules"], capsys
    )
    assert code == 0
    assert "IF flag=T THEN class=on" in out


def test_rules_command_reports_search_stats(tmp_path, capsys):
    data, schema = _write_copy_class(tmp_path)
    code, out, _ = _run(
        ["rules", "--data", data, "--schema", schema, "--row", "1"], capsys
    )
    assert code == 0
    assert "row=1" in out
    assert "best=" in out and "threshold=" in out and "nodes=" in out
    assert any(line.startswith("IF ") for line in out.splitlines())


def test_evaluate_writes_report_and_stderr_timing(tmp_path, capsys):
    data, schema = _write_copy_class(tmp_path)
    out_file = tmp_path / "report.txt"
    code, out, err = _run(
        [
            "evaluate", "--data", data, "--schema", schema,
            "--folds", "3", "--seed", "1", "--out", str(out_file),
        ],
        capsys,
    )
    assert code == 0
    assert "correctness=1.000000" in out
    assert out_file.read_text(encoding="utf-8") == out
    assert "wall_seconds=" in err
    assert "wall" not in out


def test_evaluate_output_independent_of_threads(tmp_path, capsys):
    data, schema = _write_copy_class(tmp_path)
    texts = []
    for threads in ("1", "3"):
        out_file = tmp_path / f"report{threads}.txt"
        code, _, _ = _run(
            [
                "evaluate", "--data", data, "--schema", schema,
                "--threads", threads, "--out", str(out_file),
            ],
            capsys,
        )
        assert code == 0
        texts.append(out_file.read_bytes())
    assert texts[0] == texts[1]


def test_evaluate_loocv_flag(tmp_path, capsys):
    data, schema = _write_copy_class(tmp_path, n=12)
    code, out, _ = _run(
        ["evaluate", "--data", data, "--schema", schema, "--loocv"], capsys
    )
    assert code == 0
    assert "method=loocv" in out
    assert "tests=12" in out


def test_discretize_prints_cut_lists(tmp_path, capsys):
    data, schema = _write_copy_class(tmp_path)
    code, out, _ = _run(["discretize", "--data", data, "--schema", schema], capsys)
    assert code == 0
    assert any(line.startswith("size:") for line in out.splitlines())


def test_discretize_skips_an_unlabeled_row_zero(tmp_path, capsys):
    data, schema = _write_copy_class(tmp_path)
    lines = Path(data).read_text(encoding="utf-8").splitlines()
    lines[1] = "f,6.0,?"  # row 0, the default query, unlabeled
    Path(data).write_text("\n".join(lines) + "\n", encoding="utf-8")
    without = tmp_path / "without.csv"
    without.write_text("\n".join([lines[0]] + lines[2:]) + "\n", encoding="utf-8")
    outputs = []
    for path in (data, str(without)):
        code, out, err = _run(["discretize", "--data", path, "--schema", schema], capsys)
        assert code == 0, err
        outputs.append([line for line in out.splitlines() if not line.startswith("data=")])
    assert outputs[0] == outputs[1]
    assert any(line.startswith("size: ") for line in outputs[0])


def test_missing_schema_is_a_data_error(tmp_path, capsys):
    data, _ = _write_copy_class(tmp_path)
    code, _, err = _run(
        ["predict", "--data", data, "--schema", str(tmp_path / "absent.schema")],
        capsys,
    )
    assert code == 2
    assert "absent.schema" in err


def test_missing_data_file_wins_over_a_bad_parameter(tmp_path, capsys):
    _, schema = _write_copy_class(tmp_path)
    code, _, err = _run(
        ["rules", "--data", str(tmp_path / "absent.csv"), "--schema", schema,
         "--lambda", "5"],
        capsys,
    )
    assert code == 2
    assert "absent.csv" in err


@pytest.mark.parametrize("which", ["data", "schema"])
def test_non_utf8_file_is_a_data_error(tmp_path, capsys, which):
    files = dict(zip(("data", "schema"), _write_copy_class(tmp_path)))
    bad = Path(files[which])
    bad.write_bytes(bad.read_bytes() + b"\xe9\n")  # a Latin-1 byte
    code, out, err = _run(
        ["predict", "--data", files["data"], "--schema", files["schema"]], capsys
    )
    assert code == 2
    assert out == ""
    assert f"cannot read {which} file {bad}" in err
    assert "Traceback" not in err


def test_unwritable_out_file_is_a_usage_error(tmp_path, capsys):
    data, schema = _write_copy_class(tmp_path)
    target = tmp_path / "absent" / "report.txt"
    code, out, err = _run(
        ["predict", "--data", data, "--schema", schema, "--out", str(target)], capsys
    )
    assert code == 1
    assert "class=on" in out  # the report is printed before the write fails
    assert err.startswith(f"error: cannot write --out file {target}: ")
    assert "Traceback" not in err


def test_bad_parameter_is_a_usage_error(tmp_path, capsys):
    data, schema = _write_copy_class(tmp_path)
    code, _, err = _run(
        ["evaluate", "--data", data, "--schema", schema, "--kappa", "0"], capsys
    )
    assert code == 1
    assert "error:" in err


def test_negative_threads_is_a_usage_error(tmp_path, capsys):
    # --threads is a shared flag: only evaluate uses the count, every subcommand checks it.
    data, schema = _write_copy_class(tmp_path)
    for command in ("evaluate", "predict", "rules", "discretize"):
        code, out, err = _run(
            [command, "--data", data, "--schema", schema, "--threads", "-7"], capsys
        )
        assert (code, out) == (1, ""), command
        assert err == "error: --threads must be at least 0, got -7\n"


@pytest.mark.parametrize("flag", [["--lambda", "5"], ["--cmin", "2"], ["--max-depth", "0"]])
def test_discretize_rejects_a_bad_quality_flag_like_rules(tmp_path, capsys, flag):
    data, schema = _write_copy_class(tmp_path)
    results = [
        _run([command, "--data", data, "--schema", schema, *flag], capsys)
        for command in ("discretize", "rules")
    ]
    assert results[0] == results[1]
    code, out, err = results[0]
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "must be" in err


def test_unknown_override_is_a_usage_error(tmp_path, capsys):
    data, schema = _write_copy_class(tmp_path)
    code, _, err = _run(
        ["predict", "--data", data, "--schema", schema, "--override", "ghost=exact"],
        capsys,
    )
    assert code == 1
    assert "ghost" in err


def test_row_out_of_range_is_a_data_error(tmp_path, capsys):
    data, schema = _write_copy_class(tmp_path)
    code, _, _ = _run(
        ["predict", "--data", data, "--schema", schema, "--row", "999"], capsys
    )
    assert code == 2


def test_usage_errors_exit_one(capsys):
    assert main(["predict"]) == 1  # missing required flags
    assert main(["no-such-command"]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_mode_and_override_flags_reach_the_encoder(tmp_path, capsys):
    data, schema = _write_copy_class(tmp_path)
    code, out, _ = _run(
        [
            "rules", "--data", data, "--schema", schema,
            "--mode", "exact", "--override", "size=levels",
        ],
        capsys,
    )
    assert code == 0
    assert "mode=exact" in out
    assert "overrides=size=levels" in out


def test_wildcard_override_covers_every_attribute(tmp_path, capsys):
    data, schema = _write_copy_class(tmp_path)
    code, out, _ = _run(
        [
            "discretize", "--data", data, "--schema", schema,
            "--override", "*=levels", "--override", "size=exact",
        ],
        capsys,
    )
    assert code == 0
    assert "overrides=*=levels,size=exact" in out
    # the wildcard put the boolean attribute in level mode; the later
    # specific flag pulled the continuous one back out
    assert "flag: False True" in out
    assert "size:" not in out


def _write_far_query(tmp_path):
    """Row 0 is x = 999, far from every training x; in exact mode it matches none."""
    lines = ["x,c", "999.0,?"] + [f"{float(i)},{'y' if i % 2 == 0 else 'n'}" for i in range(30)]
    data = tmp_path / "far.csv"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    schema = tmp_path / "far.schema"
    schema.write_text("x: continuous\nc: class {y, n}\n", encoding="utf-8")
    return str(data), str(schema)


def test_predict_survives_rules_that_match_no_row(tmp_path, capsys):
    data, schema = _write_far_query(tmp_path)
    code, out, err = _run(
        ["predict", "--data", data, "--schema", schema, "--mode", "exact", "--cmin", "0"],
        capsys,
    )
    assert code == 0, err
    assert "source=class_prior" in out


def test_rules_lists_no_rule_that_matches_no_row(tmp_path, capsys):
    data, schema = _write_far_query(tmp_path)
    code, out, err = _run(
        ["rules", "--data", data, "--schema", schema, "--mode", "exact", "--cmin", "0"],
        capsys,
    )
    assert code == 0, err
    assert "rules=0\nbest=none\n" in out
    assert "IF " not in out


def test_same_outcome_tells_apart_a_one_ulp_difference():
    rng = random.Random(4)
    outcome = None
    while outcome is None or not outcome.rules:
        outcome = search_local_rules(*random_instance(rng))
    assert _same_outcome(outcome, replace(outcome))
    up = math.nextafter(outcome.best_quality, 2.0)
    rule = replace(outcome.rules[0], quality=up)
    for changed in (
        replace(outcome, best_quality=up),
        replace(outcome, final_threshold=math.nextafter(outcome.final_threshold, 2.0)),
        replace(outcome, rules=(rule,) + outcome.rules[1:]),
    ):
        assert not _same_outcome(outcome, changed)


def test_selftest_passes_quick_run(capsys):
    code, out, err = _run(["selftest", "--trials", "25", "--seed", "3"], capsys)
    assert code == 0
    assert "passed=25" in out
    assert "failed=0" in out


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_selftest_without_trials_is_a_usage_error(capsys, trials):
    code, out, err = _run(["selftest", "--trials", trials], capsys)
    assert code == 1
    assert "--trials" in err
    assert "passed=" not in out


@pytest.mark.parametrize("runner", [[sys.executable, "-m", "localrules"]])
def test_module_entry_point(tmp_path, runner):
    data, schema = _write_copy_class(tmp_path)
    # The child imports the package the tests import, installed or not.
    src = str(Path(localrules.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        runner + ["predict", "--data", data, "--schema", schema],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert "class=on" in proc.stdout


def test_unlabeled_training_row_is_a_data_error(tmp_path, capsys):
    data, schema = _write_copy_class(tmp_path)
    lines = Path(data).read_text(encoding="utf-8").splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0] + ",?"  # row 0, the default query, unlabeled
    Path(data).write_text("\n".join(lines) + "\n", encoding="utf-8")
    for command, row in (("predict", "2"), ("rules", "3")):
        code, out, err = _run(
            [command, "--data", data, "--schema", schema, "--row", row], capsys
        )
        assert code == 2
        assert out == ""
        assert "row 0" in err and "class" in err
    code, out, _ = _run(["predict", "--data", data, "--schema", schema], capsys)
    assert code == 0
    assert "class=on" in out


def test_unsplittable_csv_exits_two_naming_the_row(tmp_path, capsys):
    data, schema = _write_copy_class(tmp_path)
    lines = Path(data).read_text(encoding="utf-8").splitlines()
    lines[3] = "t," + "1" * 140000 + ",on"  # row 2: one field over the csv limit
    Path(data).write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = _run(["evaluate", "--data", data, "--schema", schema], capsys)
    assert code == 2
    assert out == ""
    assert "row 2" in err and "field larger than field limit" in err
    assert "Traceback" not in err


_FLOAT_FLAGS = ("--lambda", "--cmin", "--cmin-mism", "--kappa", "--eps")
_INT_FLAGS = {
    "predict": ("--max-depth", "--row"),
    "rules": ("--max-depth", "--row"),
    "evaluate": ("--max-depth", "--folds", "--seed"),
    "discretize": ("--max-depth",),
}


@st.composite
def _numeric_flags(draw):
    command = draw(st.sampled_from(sorted(_INT_FLAGS) + ["selftest"]))
    if command == "selftest":
        return [command, f"--trials={draw(st.integers(-3, 3))}", f"--seed={draw(st.integers())}"]
    args = [command]
    for flag in _FLOAT_FLAGS:
        if draw(st.booleans()):
            args.append(f"{flag}={draw(st.floats())!r}")
    for flag in _INT_FLAGS[command]:
        if draw(st.booleans()):
            args.append(f"{flag}={draw(st.integers())}")
    # Small counts only: huge ones are covered by worker_count below.
    args.append(f"--threads={draw(st.integers(-2, 2))}")
    if command == "evaluate" and draw(st.booleans()):
        args.append("--loocv")
    return args


@pytest.fixture(scope="module")
def copy_class_files(tmp_path_factory):
    return _write_copy_class(tmp_path_factory.mktemp("fuzz"))


@settings(max_examples=60, deadline=None)
@given(args=_numeric_flags())
@example(args=["evaluate", "--folds=1000000000000", "--threads=1"])
@example(args=["predict", "--row=-1", "--max-depth=0", "--threads=1"])
@example(args=["rules", "--cmin=nan", "--kappa=inf", "--threads=1"])
def test_numeric_flags_never_raise(copy_class_files, args):
    data, schema = copy_class_files
    if args[0] != "selftest":
        args = args + ["--data", data, "--schema", schema]
    out, err = io.StringIO(), io.StringIO()
    # One CPU: every --threads value runs in this process.
    with mock.patch("localrules.evaluate.available_cpus", lambda: 1), \
            mock.patch("localrules.cli.available_cpus", lambda: 1), \
            redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    assert code in (0, 1, 2), (args, err.getvalue())
    assert "Traceback" not in err.getvalue()


@settings(max_examples=200, deadline=None)
@given(st.integers(), st.integers(0, 10**6), st.integers(1, 512))
def test_worker_count_never_exceeds_cpus_or_items(threads, n_items, cpus):
    workers = worker_count(threads, n_items, cpus)
    assert 1 <= workers <= max(1, min(cpus, n_items))
