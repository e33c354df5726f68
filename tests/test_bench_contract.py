"""The names and signatures the benchmark harness in perfbench/ relies on.

perfbench/tracing.py swaps layer functions of localrules.evaluate and
localrules.predict for span-recording wrappers and certifies leave-one-out
searches against the unpruned oracle through the one-shot layer functions.
A refactor that renames one of them, changes a positional signature, or
routes a layer around its name would break `perfbench/run.py --trace 1`
or the certification without failing any other test; these tests fail
instead. The seed-1 `cv-monks` reports are compared with their pinned refs
here as well. perfbench/ is only imported, never modified.
"""

import random
import sys
from pathlib import Path

from localrules.data import Attribute, Dataset
from localrules.evaluate import evaluate_cv, evaluate_loocv, render_report, stratified_kfold
from localrules.rules import QualityParams

from helpers import unshared_outcomes

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402  (found through the path entry above)
import workloads  # noqa: E402


def _continuous_dataset(n=36, seed=5):
    """Two continuous attributes, one with a planted interval, and an ordered one."""
    rng = random.Random(seed)
    attrs = (
        Attribute("x1", "continuous"),
        Attribute("x2", "continuous"),
        Attribute("o", "ordered", ("a", "b", "c")),
        Attribute("c", "class", ("y", "n")),
    )
    rows = []
    for _ in range(n):
        x1 = float(rng.randrange(12))
        x2 = round(rng.gauss(0.0, 1.0), 1) if rng.random() > 0.1 else None
        g = int((x1 < 4 or x1 > 8) != (rng.random() < 0.1))
        rows.append((x1, x2, rng.randrange(3), g))
    return Dataset(attrs, tuple(rows), 3)


def test_every_wrapped_name_resolves():
    for module, name, span in tracing.WRAPPED:
        assert callable(tracing.layer_function(module, name, span.split(".")[0]))


def test_certify_loocv_agrees_with_the_oracle():
    certified, disagreements = tracing.certify_loocv(
        _continuous_dataset(), "levels", QualityParams()
    )
    assert certified > 0
    assert disagreements == []


def test_traced_loocv_records_every_required_layer():
    d = _continuous_dataset()
    params = QualityParams()
    tr = tracing.Tracer()
    with tracing.traced_calls(tr):
        traced = evaluate_loocv(d, params, threads=1)
    tr.check()
    fits = [span for span in tr.spans if span[0] == "discretize.fit"]
    assert len(fits) == len(d.rows)
    assert tr.counts["discretize.calls"] == len(d.rows)
    assert tr.counts["encode.calls"] == len(d.rows)
    # Rows holding out one class share a walk, yet each row still searches
    # and combines through the traced names, with its own node count.
    searches = [span for span in tr.spans if span[0] == "search"]
    assert tr.counts["predict.queries"] == len(searches) == len(d.rows)
    want = unshared_outcomes(d, params, (range(len(d.rows)),), held_out=True)
    assert tr.counts["search.nodes"] == sum(nodes for _, _, nodes, _ in want)
    untraced = evaluate_loocv(d, params, threads=1)
    assert render_report(traced) == render_report(untraced)


def test_traced_kfold_records_every_required_layer():
    """A fold's rows are walked as one split, yet each row still searches and
    combines through the traced names, with its own node count."""
    d = _continuous_dataset()
    params = QualityParams()
    tr = tracing.Tracer()
    with tracing.traced_calls(tr):
        traced = evaluate_cv(d, params, k=3, seed=1, threads=1)
    tr.check()
    n = len(d.rows)
    assert tr.counts["discretize.calls"] == tr.counts["encode.calls"] == n
    searches = [span for span in tr.spans if span[0] == "search"]
    assert len(searches) == tr.counts["predict.queries"] == n
    want = unshared_outcomes(d, params, stratified_kfold(d, 3, 1), held_out=False)
    assert tr.counts["search.nodes"] == sum(nodes for _, _, nodes, _ in want)
    untraced = evaluate_cv(d, params, k=3, seed=1, threads=1)
    assert render_report(traced) == render_report(untraced)


def test_cv_monks_reports_equal_the_pinned_refs():
    """Seed-1 `cv-monks` reports, rendered as the workload renders them.

    The refs pin mean_nodes too, so a search change that moves a node count
    fails here without a benchmark run.
    """
    w = workloads.WORKLOADS["cv-monks"]
    seed = workloads.DEFAULT_SEED
    for name, d in w.setup(w.inputs(seed)).items():
        report = w.evaluate(d, name, seed, threads=1)
        assert report.encode() == workloads.pinned_path(f"{w.name}-{name}").read_bytes()
