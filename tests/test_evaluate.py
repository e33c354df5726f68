"""Stratified folds, confusion pooling, leave-one-out, report rendering."""

import os
import random
import time
from pathlib import Path
from unittest import mock

import pytest

from localrules import evaluate, predict, search
from localrules.data import Attribute, Dataset, load_dataset
from localrules.errors import BadParams, DataError
from localrules.evaluate import (
    ConfusionCounts,
    evaluate_cv,
    evaluate_loocv,
    render_report,
    stratified_kfold,
    worker_count,
)
from localrules.predict import SOURCE_PRIOR, predict_for_row
from localrules.rules import QualityParams

from helpers import unshared_outcomes

TWO_CLASS = ("yes", "no")


def _dataset(labels, extra_cols=0):
    attrs = tuple(Attribute(f"b{i}", "bool") for i in range(extra_cols)) + (
        Attribute("c", "class", TWO_CLASS),
    )
    rng = random.Random(99)
    rows = tuple(
        tuple(rng.random() < 0.5 for _ in range(extra_cols)) + (g,) for g in labels
    )
    return Dataset(attrs, rows, extra_cols)


def _copy_class_dataset(n=30):
    attrs = (
        Attribute("flag", "bool"),
        Attribute("extra", "nominal", ("a", "b")),
        Attribute("c", "class", ("on", "off")),
    )
    rows = tuple((i % 2 == 0, i % 3 % 2, 0 if i % 2 == 0 else 1) for i in range(n))
    return Dataset(attrs, rows, 2)


def _noisy_dataset(n=42, seed=5):
    rng = random.Random(seed)
    attrs = (
        Attribute("b1", "bool"),
        Attribute("b2", "bool"),
        Attribute("n1", "nominal", ("u", "v", "w")),
        Attribute("c", "class", TWO_CLASS),
    )
    rows = []
    for _ in range(n):
        b1, b2 = rng.random() < 0.5, rng.random() < 0.5
        n1 = rng.randrange(3)
        g = 0 if (b1 == b2) ^ (rng.random() < 0.2) else 1
        rows.append((b1, b2, n1, g))
    return Dataset(attrs, tuple(rows), 3)


def _fold_class_counts(d, folds):
    out = []
    for fold in folds:
        pos = sum(1 for i in fold if d.rows[i][d.class_col] == 0)
        out.append((pos, len(fold) - pos))
    return out


def test_exactly_divisible_classes_split_evenly():
    d = _dataset([0] * 9 + [1] * 6)
    folds = stratified_kfold(d, 3, seed=1)
    assert _fold_class_counts(d, folds) == [(3, 2)] * 3
    assert sorted(i for fold in folds for i in fold) == list(range(15))


def test_remainder_rows_spread_by_pigeonhole():
    d = _dataset([0] * 10 + [1] * 3)
    folds = stratified_kfold(d, 3, seed=1)
    counts = _fold_class_counts(d, folds)
    assert sorted(pos for pos, _ in counts) == [3, 3, 4]
    assert [neg for _, neg in counts] == [1, 1, 1]


def test_same_seed_same_folds():
    d = _dataset([0] * 20 + [1] * 20)
    assert stratified_kfold(d, 4, seed=7) == stratified_kfold(d, 4, seed=7)
    assert stratified_kfold(d, 4, seed=7) != stratified_kfold(d, 4, seed=8)


def test_fold_guards():
    with pytest.raises(DataError, match="^class 'yes' has 2 rows, fewer than 3 folds$"):
        stratified_kfold(_dataset([0] * 2 + [1] * 9), 3, seed=1)
    with pytest.raises(BadParams):
        stratified_kfold(_dataset([0] * 5 + [1] * 5), 1, seed=1)
    with pytest.raises(DataError, match="^row 5 has no class label; evaluation needs"):
        stratified_kfold(_dataset([0] * 5 + [None] + [1] * 5), 2, seed=1)


def test_unlabeled_row_is_the_same_error_in_both_evaluate_modes():
    d = _dataset([0] * 5 + [None] + [1] * 5, extra_cols=1)
    with pytest.raises(DataError, match="^row 5 has no class label; evaluation needs"):
        evaluate_cv(d, QualityParams(), k=2)
    with pytest.raises(DataError, match="^row 5 has no class label; evaluation needs"):
        evaluate_loocv(d, QualityParams())


def test_copied_class_is_perfect_at_any_fold_count():
    d = _copy_class_dataset()
    for k in (2, 3, 5):
        report = evaluate_cv(d, QualityParams(), k=k, seed=1)
        assert report.correctness == 1.0
        assert report.fallback_fraction == 0.0
        assert report.n_tests == len(d.rows)


def test_pooled_counts_equal_fold_sums_and_recount():
    d = _noisy_dataset()
    report = evaluate_cv(d, QualityParams(), k=3, seed=1)
    cells = ("pos_pos", "pos_neg", "neg_pos", "neg_neg")
    pooled = ConfusionCounts(*(sum(getattr(c, cell) for c in report.folds) for cell in cells))
    assert pooled == report.pooled
    assert report.correctness == pooled.correct / pooled.total
    assert pooled.total == len(d.rows)
    assert report.mean_nodes > 0


def test_report_is_identical_for_any_worker_count():
    params = QualityParams()
    # At 3 workers 42 rows share out 14/14/14, on the fold boundaries, and 44
    # rows share out 14/15/15, which cuts two folds.
    for n in (42, 44):
        d = _noisy_dataset(n)
        serial = evaluate_cv(d, params, k=3, seed=2, threads=1)
        for threads in (2, 3):
            with mock.patch.object(evaluate, "available_cpus", return_value=3):
                parallel = evaluate_cv(d, params, k=3, seed=2, threads=threads)
            assert render_report(serial) == render_report(parallel), (n, threads)
            assert serial.pooled == parallel.pooled


def _continuous_dataset(n=60, seed=3):
    rng = random.Random(seed)
    attrs = (
        Attribute("x", "continuous"),
        Attribute("o", "ordered", ("lo", "mid", "hi")),
        Attribute("c", "class", TWO_CLASS),
    )
    rows = []
    for _ in range(n):
        x = round(rng.uniform(0, 10), 1) if rng.random() > 0.05 else None
        g = int((x or 0) > 5) ^ (rng.random() < 0.1)
        rows.append((x, rng.randrange(3), g))
    return Dataset(attrs, tuple(rows), 2)


def test_loocv_report_is_identical_for_any_worker_count():
    for n in (60, 61):  # 20/20/20 and 20/20/21 at 3 workers
        d = _continuous_dataset(n)
        serial = evaluate_loocv(d, QualityParams(), threads=1)
        for threads in (2, 3):
            with mock.patch.object(evaluate, "available_cpus", return_value=3):
                parallel = evaluate_loocv(d, QualityParams(), threads=threads)
            assert render_report(serial) == render_report(parallel), (n, threads)
            assert serial.pooled == parallel.pooled
        assert serial.mean_nodes > 0


def _cut(name, keep):
    """The shipped dataset name with only the attributes in keep, and its class."""
    data = Path(__file__).resolve().parents[1] / "data"
    d = load_dataset(data / f"{name}.csv", data / f"{name}.schema")
    cols = [i for i, a in enumerate(d.attributes) if a.name in keep] + [d.class_col]
    rows = tuple(tuple(row[i] for i in cols) for row in d.rows)
    return Dataset(tuple(d.attributes[i] for i in cols), rows, len(cols) - 1)


_SHARING_DATASETS = {
    "monks1[a1,a2]": lambda: _cut("monks1", ("a1", "a2")),
    "monks2[a1,a2,a5]": lambda: _cut("monks2", ("a1", "a2", "a5")),
    "noisy": _noisy_dataset,
    "continuous": _continuous_dataset,
}
_SHARING_PARAMS = (
    QualityParams(),
    QualityParams(eps=0.2),
    QualityParams(keep_frac=0.5, min_mism=0.0),
)


@pytest.mark.parametrize("k", [2, 3, None], ids=["2-fold", "3-fold", "loocv"])
@pytest.mark.parametrize("name", sorted(_SHARING_DATASETS))
def test_rows_sharing_a_projection_get_the_unshared_outcome(name, k):
    """Shared searches give each row what its own search gives, at 1 and 2 workers.

    k-fold walks each fold's rows as one split, once per fold in each share
    that holds some of its rows; leave-one-out walks the rows holding out one
    class together, once per class and share.
    """
    d = _SHARING_DATASETS[name]()
    folds = (range(len(d.rows)),) if k is None else stratified_kfold(d, k, seed=1)
    # One walk per fold, or per class for leave-one-out, each shared by rows.
    n_walks = len({row[d.class_col] for row in d.rows}) if k is None else k
    assert n_walks < len(d.rows)

    def run(params, threads):
        if k is None:
            return evaluate_loocv(d, params, threads=threads)
        return evaluate_cv(d, params, k=k, seed=1, threads=threads)

    for params in _SHARING_PARAMS:
        want = unshared_outcomes(d, params, folds, held_out=k is None)
        # The report the evaluator renders from the unshared outcomes.
        with mock.patch.object(evaluate, "_predict_rows", return_value=want):
            want_text = render_report(run(params, 1))
        for threads in (1, 2):
            with mock.patch.object(evaluate, "available_cpus", return_value=2), \
                    mock.patch.object(evaluate, "_build_report",
                                      wraps=evaluate._build_report) as build, \
                    mock.patch.object(evaluate, "predict_encoded",
                                      wraps=evaluate.predict_encoded) as predictions, \
                    mock.patch.object(search, "search_split",
                                      wraps=search.search_split) as walks:
                text = render_report(run(params, threads))
            tallied = build.call_args.args[8]  # the outcomes the report counts
            assert tallied == want, (params, threads)
            assert text == want_text, (params, threads)
            if threads == 1:  # forked workers count their calls in their own copy
                assert (predictions.call_count, walks.call_count) == (len(d.rows), n_walks)


def _tagged_dataset(n=24):
    """_noisy_dataset plus an id cell, so each row's query names its row."""
    base = _noisy_dataset(n)
    attrs = (Attribute("id", "nominal", tuple(f"r{i}" for i in range(n))),) + base.attributes
    rows = tuple((i,) + row for i, row in enumerate(base.rows))
    return Dataset(attrs, rows, base.class_col + 1)


def _run(d, k, threads):
    """evaluate_cv at k folds, or evaluate_loocv when k is None, on 2 CPUs."""
    with mock.patch.object(evaluate, "available_cpus", return_value=2):
        if k is None:
            return evaluate_loocv(d, QualityParams(), threads=threads)
        return evaluate_cv(d, QualityParams(), k=k, seed=1, threads=threads)


def _rows_in_item_order(d, k):
    """Row per item index of _predict_rows; at 2 workers the caller runs the first half."""
    if k is None:
        return list(range(len(d.rows)))
    return [row for fold in stratified_kfold(d, k, seed=1) for row in fold]


def _failing_on(rows):
    """predict_encoded, but a DataError naming the row for the given rows."""
    displays = {f"id=r{row}" for row in rows}
    real = evaluate.predict_encoded

    def predict(inst, params, split=None):
        for c in inst.components:
            if c.display in displays:
                raise DataError(f"cannot predict {c.display}")
        return real(inst, params, split)

    return predict


def _encode_failing_on(rows):
    """predict.encode, but a DataError naming the row for the given rows."""
    real = predict.encode

    def encode(index, pred_row, grids=None, held_out=None):
        if pred_row[0] in rows:  # the id cell
            raise DataError(f"cannot encode id=r{pred_row[0]}")
        return real(index, pred_row, grids, held_out)

    return encode


def _raised(d, k, threads, failing_rows, encode_failing_rows=()):
    with mock.patch.object(evaluate, "predict_encoded", _failing_on(failing_rows)), \
            mock.patch.object(predict, "encode", _encode_failing_on(encode_failing_rows)), \
            pytest.raises(DataError) as raised:
        _run(d, k, threads)
    return raised.value


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("k", [3, None], ids=["3-fold", "loocv"])
def test_no_worker_process_outlives_an_evaluation(k):
    d = _tagged_dataset()
    order = _rows_in_item_order(d, k)
    _run(d, k, 2)
    _assert_no_child_left()
    for position in (4, 16):  # the caller's share, then the child's
        _raised(d, k, 2, [order[position]])
        _assert_no_child_left()


@pytest.mark.parametrize("k", [3, None], ids=["3-fold", "loocv"])
def test_a_failing_row_raises_the_same_error_at_any_worker_count(k):
    d = _tagged_dataset()
    order = _rows_in_item_order(d, k)
    # The 24 items split 12/12 at 2 workers. One row in either share; one row
    # in each share, far from the boundary and either side of it; then two
    # rows in one share, with the lower one in either share.
    for positions in ([6], [18], [3, 15], [11, 12], [0, 1], [13, 14]):
        failing = [order[i] for i in positions]
        want = _raised(d, k, 1, failing)
        got = _raised(d, k, 2, failing)
        assert str(want) == f"cannot predict id=r{failing[0]}"
        assert (type(got), str(got)) == (type(want), str(want)), positions
    # One row fails in its encode pass and another in its predict pass. k-fold
    # encodes a fold's rows before it predicts any of them, so a later row of
    # the fold fails to encode before an earlier one fails to predict; the
    # lower row's error is still the one raised. The pairs lie in the caller's
    # share, across the shares either way round, in the child's share, and
    # either side of the boundary, which cuts the middle fold of 3.
    for predicted, encoded in ((2, 5), (3, 18), (13, 15), (5, 2), (18, 3), (11, 12)):
        row, other = order[predicted], order[encoded]
        lower = f"cannot predict id=r{row}"
        if encoded < predicted:
            lower = f"cannot encode id=r{other}"
        for threads in (1, 2):
            got = _raised(d, k, threads, [row], [other])
            assert str(got) == lower, (predicted, encoded, threads)
    _assert_no_child_left()


def test_a_worker_process_that_dies_without_a_result_raises():
    d = _tagged_dataset()
    caller = os.getpid()
    real = evaluate.predict_encoded

    def predict(inst, params, split=None):
        if os.getpid() != caller:
            os._exit(3)
        return real(inst, params, split)

    with mock.patch.object(evaluate, "predict_encoded", predict), \
            pytest.raises(RuntimeError, match="ended without a result"):
        _run(d, 3, 2)
    _assert_no_child_left()


def test_an_interrupted_caller_kills_its_worker_processes():
    d = _tagged_dataset()
    caller = os.getpid()

    def predict(inst, params, split=None):
        if os.getpid() != caller:
            time.sleep(60)  # only the kill ends this child in time
        raise KeyboardInterrupt

    started = time.monotonic()
    with mock.patch.object(evaluate, "predict_encoded", predict), \
            pytest.raises(KeyboardInterrupt):
        _run(d, 3, 2)
    assert time.monotonic() - started < 30
    _assert_no_child_left()


@pytest.mark.parametrize("n", [1, 2, 5, 24, 958])
def test_the_pool_deals_contiguous_shares_and_joins_them_in_order(n, tmp_path):
    log = tmp_path / "shares"

    def run_share(start, stop):
        # One short append per share, from whichever process runs it.
        fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        os.write(fd, f"{start} {stop}\n".encode())
        os.close(fd)
        return True, list(range(start, stop))

    for workers in (1, 2, 3):
        log.write_text("")
        assert evaluate._run_pool(workers, run_share, n) == list(range(n)), workers
        shares = sorted(tuple(map(int, line.split())) for line in log.read_text().splitlines())
        assert len(shares) == workers
        sizes = [stop - start for start, stop in shares]
        assert max(sizes) - min(sizes) <= 1, shares
        assert [i for start, stop in shares for i in range(start, stop)] == list(range(n))
    _assert_no_child_left()


def _shares_in_turn(workers, run_share, n_items):
    """_run_pool's contiguous shares, run one after another in this process."""
    results = []
    for w in range(workers):
        ok, answer = run_share(w * n_items // workers, (w + 1) * n_items // workers)
        assert ok, answer
        results += answer
    return results


def test_a_fold_is_split_only_where_a_share_boundary_cuts_it():
    d = _noisy_dataset()
    k = 3
    tallied, walks = {}, {}
    for workers in (1, 2):
        with mock.patch.object(evaluate, "available_cpus", return_value=workers), \
                mock.patch.object(evaluate, "_run_pool", _shares_in_turn), \
                mock.patch.object(evaluate, "_build_report",
                                  wraps=evaluate._build_report) as build, \
                mock.patch.object(search, "search_split",
                                  wraps=search.search_split) as walked:
            evaluate_cv(d, QualityParams(), k=k, seed=1, threads=workers)
        tallied[workers] = build.call_args.args[8]
        walks[workers] = walked.call_count
    # One walk per fold, and one more for the middle fold the boundary cuts.
    assert walks == {1: k, 2: k + 1}
    assert tallied[2] == tallied[1]


def test_available_cpus_honours_the_affinity_mask(monkeypatch):
    monkeypatch.delattr(os, "process_cpu_count", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert evaluate.available_cpus() == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert evaluate.available_cpus() == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert evaluate.available_cpus() == 1


def test_rules_matching_no_row_do_not_abort_an_evaluation():
    # At min_cover 0 a rule matching no training row scores exactly the base
    # threshold; in exact mode every held-out x matches no training row.
    attrs = (Attribute("x", "continuous"), Attribute("c", "class", TWO_CLASS))
    d = Dataset(attrs, tuple((float(i), i % 2) for i in range(30)), 1)
    report = evaluate_cv(d, QualityParams(min_cover=0.0), k=3, seed=1, mode="exact")
    assert report.n_tests == 30
    assert report.fallback_fraction == 1.0


def test_wall_time_and_workers_never_reach_the_text():
    text = render_report(evaluate_cv(_noisy_dataset(), QualityParams(), k=3, seed=1))
    assert "wall" not in text
    assert "thread" not in text
    assert "second" not in text


def test_loocv_counts_every_row_once():
    d = _copy_class_dataset(57)
    report = evaluate_loocv(d, QualityParams())
    assert report.method == "loocv"
    assert report.n_tests == 57
    assert report.correctness == 1.0
    assert report.folds == ()


def test_loocv_runs_past_six_hundred_rows():
    report = evaluate_loocv(_copy_class_dataset(601), QualityParams())
    assert report.n_tests == 601
    assert report.correctness == 1.0


def test_degenerate_two_row_dataset_is_too_few_rows_for_loocv():
    d = _dataset([0, 1], extra_cols=1)
    with pytest.raises(DataError, match=r"^class 'yes' has 1 rows, .*leave-one-out"):
        evaluate_loocv(d, QualityParams())


def test_render_structure_round_trips():
    d = _noisy_dataset()
    report = evaluate_cv(
        d, QualityParams(), k=3, seed=4, dataset_label="noisy", threads=1
    )
    text = render_report(report)
    lines = text.splitlines()
    assert lines[0] == "dataset=noisy"
    assert "method=cv" in lines
    assert f"tests={report.n_tests}" in lines
    assert f"correctness={report.correctness:.6f}" in lines
    confusion_at = lines.index("confusion:")
    cells = lines[confusion_at + 1 :]
    assert len(cells) == 4
    total = 0
    for cell in cells:
        fields = dict(part.split("=") for part in cell.split())
        total += int(fields["count"])
    assert total == report.n_tests
    fold_lines = [ln for ln in lines if ln.startswith("fold=")]
    assert len(fold_lines) == 3


def test_all_fallback_runs_are_marked():
    # Class is independent of the lone attribute, so no rule can be accepted.
    attrs = (Attribute("b", "bool"), Attribute("c", "class", TWO_CLASS))
    rows = tuple((i % 2 == 0, (i // 2) % 2) for i in range(24))
    report = evaluate_cv(Dataset(attrs, rows, 1), QualityParams(), k=3, seed=1)
    assert report.fallback_fraction == 1.0
    assert "all_fallback=true" in render_report(report)


def test_all_missing_test_row_is_predicted_from_the_prior():
    d = _copy_class_dataset()
    blank = (None, None, d.rows[0][2])
    d = Dataset(d.attributes, (blank,) + d.rows[1:], d.class_col)
    p = predict_for_row(d, 0, QualityParams())
    assert p.source == SOURCE_PRIOR
    assert p.search.nodes_visited == 0 and p.rules == ()
    # Every other row is predicted by its copied class, so the blank row is
    # the only fallback in either evaluation.
    for report in (
        evaluate_cv(d, QualityParams(), k=3, seed=1),
        evaluate_loocv(d, QualityParams()),
    ):
        assert report.n_tests == len(d.rows)
        assert report.fallback_fraction == 1 / len(d.rows)


def test_unknown_mode_raises_bad_params():
    # A typo would otherwise encode in exact mode, or be echoed as given.
    d = _cut("monks1", ("a1", "a2", "a5"))
    with pytest.raises(BadParams, match="^mode must be 'exact' or 'levels', got 'level'$"):
        predict_for_row(d, 7, QualityParams(), "level")
    with pytest.raises(BadParams, match="got 'bogus'$"):
        evaluate_cv(d, QualityParams(), mode="bogus")
    with pytest.raises(BadParams, match="got 'lvl'$"):
        evaluate_loocv(d, QualityParams(), overrides={0: "lvl"})


def test_worker_count_is_clamped_to_cpus_and_items():
    assert worker_count(2, 319, cpus=2) == 2
    assert worker_count(64, 319, cpus=2) == 2
    assert worker_count(8, 3, cpus=16) == 3
    assert worker_count(8, 0, cpus=16) == 1
    assert worker_count(0, 10, cpus=4) == 4  # 0 asks for every CPU
    assert worker_count(0, 3, cpus=4) == 3
    assert worker_count(3, 10, cpus=4) == 3
    with pytest.raises(BadParams, match="^threads must be at least 0, got -5$"):
        worker_count(-5, 10, cpus=4)


def test_negative_thread_count_raises_before_any_encoder_is_built():
    d = _copy_class_dataset()
    with mock.patch.object(evaluate, "query_encoder") as built:
        with pytest.raises(BadParams, match="^threads must be at least 0, got -1$"):
            evaluate_cv(d, QualityParams(), threads=-1)
        with pytest.raises(BadParams, match="^threads must be at least 0, got -1$"):
            evaluate_loocv(d, QualityParams(), threads=-1)
    built.assert_not_called()
