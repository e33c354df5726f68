"""End-to-end acceptance gate.

Every check prints one [PASS]/[FAIL] line with the measured values (run
with -s to see the passing ones too; a failing check repeats its line in
the assertion message).

The congressional-votes and diabetes benchmarks are observational data and
are not shipped; until their raw UCI files are imported with
scripts/import_uci.py, their checks fail with a message naming the missing
file. That is deliberate: a green run must mean the published numbers were
actually reproduced, never that a stand-in was substituted.
"""

import math
import random
import time
from pathlib import Path

import pytest

from localrules import data
from localrules.cli import main
from localrules.discretize import build_grids
from localrules.encode import LOWER, UPPER, encode
from localrules.evaluate import evaluate_cv
from localrules.exhaustive import exhaustive_rules
from localrules.predict import SOURCE_PRIOR, encode_row, predict_encoded
from localrules.rules import Contingency, QualityParams, quality
from localrules.search import search_local_rules

from helpers import (
    assert_equivalent,
    component_truth_ladder,
    conflict_instance,
    random_instance,
)

DATA = Path(__file__).resolve().parent.parent / "data"
THREADS = 4

IMPORT_HINTS = {
    "vote": "fetch the raw UCI house-votes file and run: python scripts/import_uci.py vote <raw>",
    "pima": "fetch the raw UCI diabetes file and run: python scripts/import_uci.py pima <raw>",
    "diabetes": "fetch the raw UCI diabetes file and run: python scripts/import_uci.py diabetes <raw>",
}


def _verdict(label: str, ok: bool, detail: str) -> str:
    line = f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}"
    print(line)
    return line


def _load_dataset(label: str, name: str) -> data.Dataset:
    csv_path = DATA / f"{name}.csv"
    if not csv_path.exists():
        hint = IMPORT_HINTS.get(name, "run: python scripts/make_datasets.py")
        line = _verdict(label, False, f"{csv_path} is missing; {hint}")
        pytest.fail(line, pytrace=False)
    return data.parse_dataset(
        csv_path.read_text(), (DATA / f"{name}.schema").read_text()
    )


def test_search_matches_reference_enumeration():
    """Depth-first search and brute-force enumeration agree everywhere."""
    rng = random.Random(20260817)
    started = time.perf_counter()
    nonempty = 0
    for _ in range(500):
        inst, params = random_instance(rng)
        search_out = search_local_rules(inst, params)
        assert_equivalent(search_out, exhaustive_rules(inst, params))
        nonempty += bool(search_out.rules)
    elapsed = time.perf_counter() - started
    ok = elapsed < 60.0
    line = _verdict(
        "reference agreement", ok,
        f"500/500 instances identical ({nonempty} with accepted rules) in {elapsed:.1f}s",
    )
    assert ok, line


def test_opposing_perfect_rules_fall_back():
    """Two perfect opposite rules cancel out; the prior answers 0.5."""
    inst, params = conflict_instance()
    p = predict_encoded(inst, params)
    qualities = [r.quality for r in p.rules]
    ok = (
        qualities == [1.0, 1.0]
        and p.combined.quality == 0.5
        and not p.combined.accepted
        and p.source == SOURCE_PRIOR
        and p.probability == 0.5
    )
    line = _verdict(
        "conflicting perfect rules", ok,
        f"rule qualities {qualities}, combined {p.combined.quality} "
        f"accepted={p.combined.accepted}, fallback probability {p.probability}",
    )
    assert ok, line


BENCHMARKS = [
    ("monks1", 1.0, 0.01),
    ("monks2", 0.71, 0.05),
    ("monks3", 0.972, 0.03),
    ("tictactoe", 0.99, 0.02),
    ("vote", 0.96, 0.03),
    ("pima", 0.77, 0.04),
    ("diabetes", 0.78, 0.04),
]


@pytest.mark.parametrize("name,target,tol", BENCHMARKS, ids=[b[0] for b in BENCHMARKS])
def test_benchmark_correctness(name, target, tol):
    """3-fold stratified CV at default parameters hits the published number."""
    label = f"3-fold correctness {name}"
    d = _load_dataset(label, name)
    report = evaluate_cv(d, QualityParams(), k=3, seed=1, threads=THREADS, dataset_label=name)
    ok = abs(report.correctness - target) <= tol
    line = _verdict(label, ok, f"C={report.correctness:.6f} target {target}±{tol}")
    assert ok, line


def test_mode_contrast_tictactoe():
    """Forcing boundary encoding onto literal board cells costs accuracy."""
    d = _load_dataset("mode contrast tictactoe", "tictactoe")
    forced = {i: "levels" for i in range(9)}
    levels = evaluate_cv(
        d, QualityParams(), k=3, seed=1, overrides=forced, threads=THREADS,
        dataset_label="tictactoe",
    )
    exact = evaluate_cv(
        d, QualityParams(), k=3, seed=1, mode="exact", threads=THREADS,
        dataset_label="tictactoe",
    )
    ok = abs(levels.correctness - 0.82) <= 0.05 and abs(exact.correctness - 0.99) <= 0.02
    line = _verdict(
        "mode contrast tictactoe", ok,
        f"forced-boundary C={levels.correctness:.6f} target 0.82±0.05, "
        f"equality C={exact.correctness:.6f} target 0.99±0.02",
    )
    assert ok, line


def test_mode_contrast_monks2():
    """Equality-only encoding is expected to strand every row on the prior."""
    d = _load_dataset("mode contrast monks2", "monks2")
    levels = evaluate_cv(d, QualityParams(), k=3, seed=1, threads=THREADS, dataset_label="monks2")
    exact = evaluate_cv(
        d, QualityParams(), k=3, seed=1, mode="exact", threads=THREADS, dataset_label="monks2"
    )
    ok = exact.fallback_fraction == 1.0 and abs(levels.correctness - 0.71) <= 0.05
    line = _verdict(
        "mode contrast monks2", ok,
        f"equality-mode fallback fraction {exact.fallback_fraction:.6f} (expected 1.0, "
        f"C={exact.correctness:.6f}), boundary-mode C={levels.correctness:.6f} target 0.71±0.05",
    )
    assert ok, line


def test_score_of_empty_match_is_weight():
    rng = random.Random(5)
    for _ in range(200):
        t = Contingency(0, 0, rng.randrange(1, 50), rng.randrange(1, 50))
        w = rng.random()
        assert quality(t, True, w) == w
        assert quality(t, False, w) == w
    _verdict("empty-match score", True, "score equals the weight exactly, 400 tables")


def test_score_of_perfect_rule_is_weight_plus_coverage():
    rng = random.Random(6)
    for _ in range(200):
        n_tt = rng.randrange(1, 50)
        n_ft = rng.randrange(0, 50)
        n_ff = rng.randrange(1, 50)
        w = rng.random()
        t = Contingency(n_tt, 0, n_ft, n_ff)
        assert quality(t, True, w) == w + (1 - w) * (n_tt / (n_tt + n_ft))
    _verdict("perfect-rule score", True, "weight + (1-weight)*coverage exactly, 200 tables")


def test_score_stays_in_unit_interval():
    rng = random.Random(7)
    for _ in range(500):
        t = Contingency(*(rng.randrange(0, 30) for _ in range(4)))
        if t.n_pos == 0 or t.n_neg == 0:
            continue
        for target in (True, False):
            q = quality(t, target, rng.random())
            assert 0.0 <= q <= 1.0, f"{t} scored {q}"
    _verdict("score bounds", True, "all random tables scored inside [0, 1]")


def test_coverage_floor_identity():
    """Acceptance-threshold algebra: the match floor is min_cover * class prior."""
    rng = random.Random(8)
    for _ in range(200):
        w = rng.choice((0.0, 0.25, 0.5, 0.75, 0.9))
        c = rng.random()
        params = QualityParams(weight=w, min_cover=c)
        n_pos, n = rng.randrange(1, 100), rng.randrange(100, 300)
        prior = n_pos / n
        derived = (params.base_threshold - w) / (1 - w) * prior
        assert abs(derived - c * prior) <= 1e-12
    _verdict("coverage floor identity", True, "floor == min_cover * class prior to 1e-12")


def test_equality_collapses_to_boundary_pair():
    """An equality component equals the AND of its two adjacent boundaries."""
    rng = random.Random(9)
    for _ in range(100):
        k = rng.randrange(2, 7)
        attrs = (
            data.Attribute("r", "ordered", tuple(str(v) for v in range(k))),
            data.Attribute("c", "class", ("y", "n")),
        )
        rows = [
            (rng.randrange(k) if rng.random() > 0.1 else None, rng.randrange(2))
            for _ in range(rng.randrange(5, 40))
        ]
        pred = (rng.randrange(k), None)
        grids = build_grids(attrs, rows, 1, [0])
        inst_levels = encode(attrs, rows, pred, 1, grids, "levels")
        inst_exact = encode(attrs, rows, pred, 1, None, "exact")
        (eq,) = inst_exact.components
        # The grid is every value 0..k-1, one boundary component per level in order.
        upper = inst_levels.components[pred[0]]
        assert upper.kind == UPPER
        collapsed = upper.match_bits
        if pred[0] > 0:
            lower = inst_levels.components[pred[0] - 1]
            assert lower.kind == LOWER
            collapsed &= lower.match_bits
        assert collapsed == eq.match_bits
    _verdict("conjunction collapse", True, "boundary pair AND == equality bits, 100 instances")


def test_boundary_ladder_is_monotone():
    rng = random.Random(10)
    for _ in range(100):
        k = rng.randrange(2, 8)
        attrs = (
            data.Attribute("r", "ordered", tuple(str(v) for v in range(k))),
            data.Attribute("c", "class", ("y", "n")),
        )
        rows = [(rng.randrange(k), rng.randrange(2)) for _ in range(10)]
        pred = (rng.randrange(k), None)
        grids = build_grids(attrs, rows, 1, [0])
        inst = encode(attrs, rows, pred, 1, grids, "levels")
        ladder = component_truth_ladder(inst.components)
        assert list(ladder) == sorted(ladder), f"non-monotone ladder {ladder}"
    _verdict("boundary ladder", True, "predicate truths monotone along every grid")


def test_report_bytes_identical_across_threads(tmp_path):
    """The written evaluation report is a pure function of data and seed."""
    out = []
    for threads in ("1", "3"):
        path = tmp_path / f"report-{threads}.txt"
        code = main([
            "evaluate", "--data", str(DATA / "monks1.csv"),
            "--schema", str(DATA / "monks1.schema"),
            "--folds", "3", "--seed", "1",
            "--threads", threads, "--out", str(path),
        ])
        assert code == 0
        out.append(path.read_bytes())
    ok = out[0] == out[1]
    line = _verdict(
        "report determinism", ok,
        f"--threads 1 vs 3 reports {'byte-identical' if ok else 'DIFFER'} ({len(out[0])} bytes)",
    )
    assert ok, line


def test_pruning_beats_raw_enumeration():
    """Visited nodes on the votes data sit far below the unpruned subset count."""
    label = "pruning ratio"
    d = _load_dataset(label, "vote")
    params = QualityParams()
    visited = unpruned = 0
    for row in range(50):
        inst = encode_row(d, row)
        visited += search_local_rules(inst, params).nodes_visited
        m = inst.n_components
        unpruned += sum(math.comb(m, i) for i in range(1, params.max_terms + 1))
    ratio = unpruned / visited
    ok = ratio >= 100.0
    line = _verdict(
        label, ok,
        f"{unpruned} unpruned subsets vs {visited} visited nodes over 50 rows, ratio {ratio:.0f}x",
    )
    assert ok, line
