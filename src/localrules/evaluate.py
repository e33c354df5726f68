"""Average-performance estimation over a labeled dataset.

Stratified k-fold cross-validation: each class's rows are shuffled with a
seeded generator and dealt round-robin over the folds, so per-class fold
sizes differ by at most one. Every test row is predicted with its class cell
masked, against training rows from the other folds only: each fold's
training split gets one query encoder (predict.query_encoder), shared by
every test row of the fold, so the test rows never influence their own
encoding. Leave-one-out uses one encoder over all rows: a held-out row is a
bit dropped from the index and a member taken out of the grid fit's value
groups, which are sorted once per evaluation.

All test rows of an evaluation are independent and may be predicted by one
pool of worker processes. The merge preserves row order and all accumulators
are integers, so the rendered report is byte-identical for any worker count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from multiprocessing import get_context
from random import Random

from .data import Dataset
from .encode import MODE_LEVELS
from .errors import BadParams, BadValue, TooFewRows
from .predict import SOURCE_PRIOR, predict_encoded, query_encoder
# Unused here, but perfbench/tracing.py wraps these names in this module too.
from .predict import build_grids, encode, mask_class  # noqa: F401
from .rules import QualityParams


@dataclass(frozen=True)
class ConfusionCounts:
    """Test-row counts by (actual class, predicted class), positive first."""

    pos_pos: int
    pos_neg: int
    neg_pos: int
    neg_neg: int

    @property
    def total(self) -> int:
        return self.pos_pos + self.pos_neg + self.neg_pos + self.neg_neg

    @property
    def correct(self) -> int:
        return self.pos_pos + self.neg_neg


@dataclass(frozen=True)
class EvaluationReport:
    dataset_label: str
    method: str  # "cv" or "loocv"
    mode: str
    k: int | None
    seed: int | None
    params: QualityParams
    overrides: dict
    class_labels: tuple[str, str]
    n_rows: int
    folds: tuple[ConfusionCounts, ...]
    pooled: ConfusionCounts
    correctness: float
    fallback_fraction: float
    mean_nodes: float

    @property
    def n_tests(self) -> int:
        return self.pooled.total


def _rows_by_class(d: Dataset, least: int, what: str) -> tuple[list[int], list[int]]:
    """Row indices per class; every row labeled, every class with least rows or more."""
    by_class: tuple[list[int], list[int]] = ([], [])
    for i, row in enumerate(d.rows):
        g = row[d.class_col]
        if g is None:
            raise BadValue(f"row {i} has no class label; evaluation needs labeled rows")
        by_class[g].append(i)
    for label, rows in zip(d.class_values, by_class):
        if len(rows) < least:
            raise TooFewRows(f"class {label!r} has {len(rows)} rows, fewer than {least} {what}")
    return by_class


def stratified_kfold(d: Dataset, k: int, seed: int) -> tuple[tuple[int, ...], ...]:
    """Row indices per fold; per-class counts differ by at most one."""
    if k < 2:
        raise BadParams(f"need at least 2 folds, got {k}")
    by_class = _rows_by_class(d, k, "folds")
    rng = Random(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    for rows in by_class:
        rng.shuffle(rows)
        for j, idx in enumerate(rows):
            folds[j % k].append(idx)
    return tuple(tuple(sorted(fold)) for fold in folds)


# The per-item function of the run in progress. Forked pool workers inherit
# it: a closure does not pickle, so the pool maps _call_worker instead.
_WORKER = None


def _call_worker(item):
    return _WORKER(item)


def _outcome(inst, params):
    p = predict_encoded(inst, params)
    return p.target, p.search.nodes_visited, p.source == SOURCE_PRIOR


def available_cpus() -> int:
    counter = getattr(os, "process_cpu_count", os.cpu_count)
    return counter() or 1


def worker_count(threads: int, n_items: int, cpus: int) -> int:
    """Pool size: the requested count, clamped to the CPUs and the work items."""
    return max(1, min(threads, cpus, n_items))


def _run_pool(threads: int, worker, items) -> list:
    """worker(item) for every item, in order, with _WORKER = worker."""
    global _WORKER
    threads = worker_count(threads, len(items), available_cpus())
    _WORKER = worker
    try:
        if threads == 1:
            return [worker(item) for item in items]
        with get_context("fork").Pool(threads) as pool:
            return pool.map(_call_worker, items)
    finally:
        _WORKER = None


def _confusion(rows, class_col: int, results) -> ConfusionCounts:
    """Counts of (row label, predicted target) pairs; every row is labeled."""
    counts = [[0, 0], [0, 0]]
    for row, (target, _, _) in zip(rows, results):
        counts[row[class_col]][0 if target else 1] += 1
    return ConfusionCounts(counts[0][0], counts[0][1], counts[1][0], counts[1][1])


def evaluate_cv(
    d: Dataset,
    params: QualityParams,
    k: int = 3,
    seed: int = 1,
    mode: str = MODE_LEVELS,
    overrides: dict | None = None,
    threads: int = 1,
    dataset_label: str = "data",
) -> EvaluationReport:
    folds = stratified_kfold(d, k, seed)
    encoders = []
    for fold in folds:
        test_set = frozenset(fold)
        training = [row for i, row in enumerate(d.rows) if i not in test_set]
        encoders.append(query_encoder(d, training, mode, overrides))
    items = [(f, row) for f, fold in enumerate(folds) for row in fold]

    def predict_row(item):
        fold, row = item
        return _outcome(encoders[fold](d.rows[row]), params)

    results = _run_pool(threads, predict_row, items)
    in_order = iter(results)  # each fold's tally takes its rows' results off the front
    fold_counts = tuple(
        _confusion([d.rows[i] for i in fold], d.class_col, in_order) for fold in folds
    )
    tested = [d.rows[row] for _, row in items]
    return _build_report(
        d, params, "cv", mode, k, seed, overrides, fold_counts, tested, results, dataset_label
    )


def evaluate_loocv(
    d: Dataset,
    params: QualityParams,
    mode: str = MODE_LEVELS,
    overrides: dict | None = None,
    threads: int = 1,
    dataset_label: str = "data",
) -> EvaluationReport:
    # A class's lone row, held out, would leave a single-class training split.
    _rows_by_class(d, 2, "for leave-one-out")
    encode_query = query_encoder(d, d.rows, mode, overrides)

    def predict_row(row):
        return _outcome(encode_query(d.rows[row], row), params)

    results = _run_pool(threads, predict_row, range(len(d.rows)))
    return _build_report(
        d, params, "loocv", mode, None, None, overrides, (), d.rows, results, dataset_label
    )


def _build_report(
    d, params, method, mode, k, seed, overrides, fold_counts, tested, results, label
) -> EvaluationReport:
    """The report over results, the outcomes of the rows tested, in the same order."""
    pooled = _confusion(tested, d.class_col, results)
    total = pooled.total
    return EvaluationReport(
        dataset_label=label,
        method=method,
        mode=mode,
        k=k,
        seed=seed,
        params=params,
        overrides=dict(overrides or {}),
        class_labels=d.class_values,
        n_rows=len(d.rows),
        folds=fold_counts,
        pooled=pooled,
        correctness=pooled.correct / total,
        fallback_fraction=sum(fell_back for _, _, fell_back in results) / total,
        mean_nodes=sum(nodes for _, nodes, _ in results) / total,
    )


def render_report(r: EvaluationReport) -> str:
    """Line-oriented key=value text; excludes wall time and worker count."""
    lines = [
        f"dataset={r.dataset_label}",
        f"method={r.method}",
        f"mode={r.mode}",
    ]
    if r.method == "cv":
        lines.append(f"folds={r.k}")
        lines.append(f"seed={r.seed}")
    if r.overrides:
        forced = ",".join(f"{i}:{m}" for i, m in sorted(r.overrides.items()))
        lines.append(f"overrides={forced}")
    lines += r.params.echo_lines() + [
        f"rows={r.n_rows}",
        f"tests={r.n_tests}",
        f"correctness={r.correctness:.6f}",
        f"fallback_fraction={r.fallback_fraction:.6f}",
        f"all_fallback={'true' if r.fallback_fraction == 1.0 else 'false'}",
        f"mean_nodes={r.mean_nodes:.6f}",
    ]
    for i, counts in enumerate(r.folds):
        lines.append(f"fold={i} tests={counts.total} correct={counts.correct}")
    lines.append("confusion:")
    pos, neg = r.class_labels
    total = r.n_tests
    cells = (
        (pos, pos, r.pooled.pos_pos),
        (pos, neg, r.pooled.pos_neg),
        (neg, pos, r.pooled.neg_pos),
        (neg, neg, r.pooled.neg_neg),
    )
    for actual, predicted, count in cells:
        lines.append(
            f"actual={actual} predicted={predicted} "
            f"count={count} proportion={count / total:.6f}"
        )
    return "\n".join(lines) + "\n"
