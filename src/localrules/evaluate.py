"""Average-performance estimation over a labeled dataset.

Stratified k-fold cross-validation: each class's rows are shuffled with a
seeded generator and dealt round-robin over the folds, so per-class fold
sizes differ by at most one. Every test row is predicted with its class cell
masked, against training rows from the other folds only: each fold's
training split gets one query encoder (predict.query_encoder), shared by
every test row of the fold, so the test rows never influence their own
encoding. Leave-one-out uses one encoder over all rows: a held-out row is
counted out of the index's bitsets by the search and taken out of the grid
fit's value groups, which are sorted once per evaluation.

A fold's rows are walked as one split. The paper's local rules are the
projection of the global rules onto the event to classify, and the rows of
one fold are projections of one training split. k-fold's folds are its test
folds: their rows go through one encoder, so they share the class bits and
the grids, and a component display names one component with one match set
in all of them. Leave-one-out's folds are its two classes: each row is
encoded with itself held out (encode.EncodedInstance.held_out), the
components keep the index's bitsets, and the rows of one class share one
walk with one row of that class counted out of every count (search.py gives
the argument). A fold's rows are encoded first and held in one
search.SplitWalk, and each row is predicted through predict_encoded with
it: the first row's search walks every row of the fold, and each row reads
from that walk exactly what a walk of the row alone returns, node count
included. Rows that encode alike, duplicates included, need nothing more.
The encode pass stops at the first row that fails to encode, the rows
before it are predicted, and then its error is raised, so the error raised
is still the first failing row's, folds in turn.

All test rows of an evaluation are independent, so threads=N predicts them
in N processes, the calling one included: the rows, fold by fold, are cut
into N contiguous runs whose sizes differ by at most one, the caller
predicts the first and one forked child predicts each other. Each process
walks the rows of its own run of a fold, so only a fold that straddles a
run boundary is split: k-fold makes at most k + N - 1 walks, not k * N, and
leave-one-out at most 2 + N - 1. The merge joins the runs in order, and
raises the first failing run's error, so the error raised is the one a
single process raises. All accumulators are integers, so the rendered
report is byte-identical for any worker count.
"""

from __future__ import annotations

import os
import pickle
import signal
from dataclasses import dataclass
from itertools import groupby, islice
from operator import itemgetter
from random import Random

from .data import Dataset
from .encode import MODE_LEVELS
from .errors import BadParams, DataError
from .predict import SOURCE_PRIOR, predict_encoded, query_encoder
# Unused here, but perfbench/tracing.py wraps these names in this module too.
from .predict import build_grids, encode, mask_class  # noqa: F401
from .rules import QualityParams
from .search import SplitWalk


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
            raise DataError(f"row {i} has no class label; evaluation needs labeled rows")
        by_class[g].append(i)
    for label, rows in zip(d.class_values, by_class):
        if len(rows) < least:
            raise DataError(f"class {label!r} has {len(rows)} rows, fewer than {least} {what}")
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


def available_cpus() -> int:
    """CPUs this process may run on, after its affinity mask where the OS has one."""
    if hasattr(os, "process_cpu_count"):  # Python 3.13+
        return os.process_cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


def worker_count(threads: int, n_items: int, cpus: int) -> int:
    """Processes to predict with, the caller included: threads, where 0 means
    every CPU, clamped to the CPUs and the items."""
    if threads < 0:
        raise BadParams(f"threads must be at least 0, got {threads}")
    return max(1, min(threads or cpus, cpus, n_items))


def _fork_share(run_share, start: int, stop: int) -> tuple:
    """(pid, read end) of a child that pickles (True, run_share(start, stop)),
    or (False, the error it raised), to the pipe."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            try:
                answer = True, run_share(start, stop)
            except Exception as exc:  # raised by the parent in share order
                answer = False, exc
            data = pickle.dumps(answer)
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb")


def _run_pool(workers: int, run_share, n_items: int) -> list:
    """The results of items 0..n_items-1, in order, over workers processes.

    run_share(start, stop) returns the results of items start..stop-1 in
    order, or raises the error of the first of them that fails. Share w is
    the contiguous run from w * n_items // workers up to
    (w + 1) * n_items // workers, so share sizes differ by at most one. The
    caller runs share 0 and forks one child per other share; each child
    pickles back its answer, and the answers are joined in share order. The
    error raised is the first failing share's, so the first failing item's,
    as one process would raise it. Every child is reaped before this returns,
    and killed first if the caller's own share raises or is interrupted.
    """
    bounds = [w * n_items // workers for w in range(workers + 1)]
    children = []  # (pid, read end of its pipe)
    piped = None
    try:
        for w in range(1, workers):
            children.append(_fork_share(run_share, bounds[w], bounds[w + 1]))
        results = run_share(0, bounds[1])
        piped = [pipe.read() for _, pipe in children]
    finally:
        for pid, pipe in children:
            if piped is None:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()
    if not all(piped):
        raise RuntimeError("an evaluation worker process ended without a result")
    for ok, answer in map(pickle.loads, piped):
        if not ok:
            raise answer
        results += answer
    return results


def _predict_rows(d: Dataset, params, encoders, folds, held_out: bool, workers: int) -> list:
    """(label, predicted target, nodes, fell back) per row, fold by fold.

    encoders[f] encodes the rows of folds[f]; held_out says that they are
    rows of its training split, each to be held out of its own query, and
    then each fold holds rows of one class. A fold's rows in one share are
    walked together, as one search.SplitWalk (see the module docstring).
    """
    items = [(f, row) for f, fold in enumerate(folds) for row in fold]

    def run_share(start: int, stop: int) -> list:
        results = []
        for f, group in groupby(items[start:stop], itemgetter(0)):
            rows = [row for _, row in group]
            encoded, failure = [], None
            for row in rows:
                try:
                    encoded.append(encoders[f](d.rows[row], row if held_out else None))
                except Exception as exc:
                    failure = exc  # raised at its turn, after the rows before it
                    break
            split = SplitWalk(encoded)
            for row, inst in zip(rows, encoded):
                p = predict_encoded(inst, params, split)
                label = d.rows[row][d.class_col]
                results.append((label, p.target, p.search.nodes_visited, p.source == SOURCE_PRIOR))
            if failure is not None:
                raise failure
        return results

    return _run_pool(workers, run_share, len(items))


def _confusion(results) -> ConfusionCounts:
    """Counts of (row label, predicted target) pairs; every row is labeled."""
    counts = [[0, 0], [0, 0]]
    for label, target, _, _ in results:
        counts[label][0 if target else 1] += 1
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
    workers = worker_count(threads, len(d.rows), available_cpus())
    folds = stratified_kfold(d, k, seed)
    encoders = []
    for fold in folds:
        test_set = frozenset(fold)
        training = [row for i, row in enumerate(d.rows) if i not in test_set]
        encoders.append(query_encoder(d, training, mode, overrides))
    results = _predict_rows(d, params, encoders, folds, False, workers)
    in_order = iter(results)  # each fold's tally takes its rows' results off the front
    fold_counts = tuple(_confusion(islice(in_order, len(fold))) for fold in folds)
    return _build_report(
        d, params, "cv", mode, k, seed, overrides, fold_counts, results, dataset_label
    )


def evaluate_loocv(
    d: Dataset,
    params: QualityParams,
    mode: str = MODE_LEVELS,
    overrides: dict | None = None,
    threads: int = 1,
    dataset_label: str = "data",
) -> EvaluationReport:
    workers = worker_count(threads, len(d.rows), available_cpus())
    # A class's lone row, held out, would leave a single-class training split.
    by_class = _rows_by_class(d, 2, "for leave-one-out")
    encode_query = query_encoder(d, d.rows, mode, overrides)
    results = _predict_rows(d, params, (encode_query,) * len(by_class), by_class, True, workers)
    return _build_report(
        d, params, "loocv", mode, None, None, overrides, (), results, dataset_label
    )


def _build_report(
    d, params, method, mode, k, seed, overrides, fold_counts, results, label
) -> EvaluationReport:
    """The report over results, the outcomes of the rows tested."""
    pooled = _confusion(results)
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
        fallback_fraction=sum(fell_back for _, _, _, fell_back in results) / total,
        mean_nodes=sum(nodes for _, _, nodes, _ in results) / total,
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
