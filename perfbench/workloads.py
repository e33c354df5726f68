"""The benchmark's four workloads.

Each workload turns the benchmark seed into inputs, sets up the program
(`setup`, the part `setup_s` times), and lists the distinct requests of one
pass of the timed loop. A request calls one stable entry point of the library
(`evaluate_cv`, `evaluate_loocv`, `predict_for_row`, `render_report`) and
carries the check its output must pass. Layer functions are used only by
the tracer and by the oracle certification, both outside the timed loop, so
a change to them never stops the end-to-end metrics.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from random import Random
from typing import Callable

from localrules import QualityParams, evaluate_cv, evaluate_loocv, predict_for_row, render_report
from localrules.data import load_dataset, parse_dataset

import synth
import tracing

HERE = Path(__file__).resolve().parent
DATA = HERE.parent / "data"
REFS = HERE / "refs"
FOLD_SEED_REFS = REFS / "cv-fold-seeds.json"  # CV correctness at FOLD_SEEDS

DEFAULT_SEED = 1  # pinned references exist for this seed
PARAMS = QualityParams()
FOLDS = 3
QUERY_ROWS = 100  # distinct queries per pass; 10 of them lie beyond p90

FOLD_SEEDS = range(1, 101)  # the fold seeds of refs/cv-fold-seeds.json
BAND_MARGIN = 0.05  # how far CV correctness may stray from the fold seeds' range
MAX_FALLBACK = 0.5  # most CV predictions must come from rules, not the prior
# The synthetic data flips 6% of its planted labels. LOOCV correctness over
# generator seeds 0-25 was 0.805-0.923 when this was written; predicting the
# prior alone scores about 0.6.
LOOCV_MIN_CORRECTNESS = 0.75

FORCED_LEVELS = {i: "levels" for i in range(9)}  # every tictactoe cell


@dataclass(frozen=True)
class Request:
    key: str  # requests with one key must return one output
    rows: int  # predictions the request makes
    call: Callable[[], object]
    check: Callable[[object], str | None]  # None when the output is correct


def report_value(report: str, key: str) -> str:
    m = re.search(rf"^{re.escape(key)}=(\S+)", report, re.MULTILINE)
    return m.group(1) if m else ""


def _check_report(ref: str | None, n_rows: int, judge, report: str) -> str | None:
    """Pinned bytes at the default seed; otherwise full coverage and judge(report)."""
    if ref is not None:
        return None if report == ref else "report differs from the pinned reference"
    if report_value(report, "tests") != str(n_rows):
        return f"report covers {report_value(report, 'tests')} of {n_rows} rows"
    return judge(report)


def _within(lo: float, hi: float, report: str) -> str | None:
    c = float(report_value(report, "correctness"))
    if not lo <= c <= hi:
        return f"correctness {c} outside [{lo:.6f}, {hi:.6f}]"
    f = float(report_value(report, "fallback_fraction"))
    return None if f <= MAX_FALLBACK else f"fallback fraction {f} above {MAX_FALLBACK}"


def _at_least(floor: float, report: str) -> str | None:
    c = float(report_value(report, "correctness"))
    return None if c >= floor else f"correctness {c} below {floor}"


def cv_band(request: str) -> tuple[float, float]:
    """The range CV correctness must lie in at a non-default fold seed.

    Correctness depends on the fold split, with a long low tail: 3-fold
    equality-mode tictactoe scores 0.973 at fold seed 1 and 0.943 at one of
    243 other seeds, and monks1 scores 1.0 at most seeds but 0.951 at some.
    So the band is the range over the pinned fold seeds, widened by
    BAND_MARGIN on both sides. It still excludes what predicting the prior
    alone scores (monks1 0.5, monks3 0.53, tictactoe 0.65); on monks2, where
    the prior scores inside the range, MAX_FALLBACK catches that failure.
    """
    pinned = json.loads(FOLD_SEED_REFS.read_text(encoding="utf-8"))[request]
    return min(pinned) - BAND_MARGIN, max(pinned) + BAND_MARGIN


def pinned_path(name: str) -> Path:
    """Where the rendered report of request `name` at the default seed is pinned."""
    return REFS / f"{name}-seed{DEFAULT_SEED}.txt"


def _pinned_report(name: str, seed: int) -> str | None:
    return pinned_path(name).read_text(encoding="utf-8") if seed == DEFAULT_SEED else None


class CvWorkload:
    """Stratified k-fold CV over shipped datasets; the seed picks the folds."""

    span = "evaluate.run"  # the traced run's span around one request

    def __init__(self, name, datasets, mode, overrides, workers, why):
        self.name = name
        self.datasets = datasets
        self.mode = mode
        self.overrides = overrides
        self.workers = workers
        self.why = why

    def inputs(self, seed: int):
        return [(DATA / f"{n}.csv", DATA / f"{n}.schema") for n in self.datasets]

    def setup(self, inputs):
        return {n: load_dataset(str(c), str(s)) for n, (c, s) in zip(self.datasets, inputs)}

    def evaluate(self, d, label, seed, threads):
        r = evaluate_cv(
            d, PARAMS, k=FOLDS, seed=seed, mode=self.mode, overrides=self.overrides,
            threads=threads, dataset_label=label,
        )
        return render_report(r)

    def requests(self, state, seed: int, threads: int | None = None):
        refs = {n: _pinned_report(f"{self.name}-{n}", seed) for n in state}
        bands = {n: cv_band(f"{self.name}-{n}") for n in state}
        threads = self.workers if threads is None else threads
        return [
            Request(
                n, len(d.rows), partial(self.evaluate, d, n, seed, threads),
                partial(_check_report, refs[n], len(d.rows), partial(_within, *bands[n])),
            )
            for n, d in state.items()
        ]

    def certify(self, state, seed):
        return 0, []


class QueryWorkload:
    """One closed-loop client calling predict_for_row on seeded tictactoe rows."""

    name = "query-tictactoe-levels"
    span = "predict.query"
    workers = 1
    mode = "levels"
    overrides = FORCED_LEVELS
    refs_path = REFS / "query-tictactoe-levels.json"  # every row's prediction
    cost_path = REFS / "query-tictactoe-levels-nodes.json"  # every row's search nodes
    why = "closed loop, one client: predict_for_row on seeded tictactoe rows, all cells as levels"

    def inputs(self, seed: int):
        return [(DATA / "tictactoe.csv", DATA / "tictactoe.schema")]

    def setup(self, inputs):
        ((c, s),) = inputs
        return load_dataset(str(c), str(s))

    def sample(self, d, seed: int) -> list[int]:
        """One row from each of QUERY_ROWS equal strata, in seeded order.

        The strata are the file's rows ordered by their pinned search-node
        counts, so every seed draws rows of the same spread of cost. Drawn by
        file position instead, the node count of the sample's median row
        moved 6.7% between seeds, which the latency percentiles inherited.
        """
        nodes = json.loads(self.cost_path.read_text(encoding="utf-8"))
        order = sorted(range(len(d.rows)), key=lambda row: (nodes[row], row))
        rng, n = Random(seed), len(order)
        bounds = [i * n // QUERY_ROWS for i in range(QUERY_ROWS + 1)]
        rows = [order[rng.randrange(lo, hi)] for lo, hi in zip(bounds, bounds[1:])]
        rng.shuffle(rows)
        return rows

    def predict(self, d, row: int):
        return self.summary(predict_for_row(d, row, PARAMS, self.mode, self.overrides))

    @staticmethod
    def summary(p) -> list:
        """The checked part of a prediction; search-node counts may change."""
        return [p.label, p.source, p.probability, [list(r.term_ids) for r in p.rules]]

    def _check(self, ref, out) -> str | None:
        return None if out == ref else f"prediction {out[:3]} differs from reference {ref[:3]}"

    def _request(self, d, refs, row: int) -> Request:
        return Request(
            f"row{row}", 1, partial(self.predict, d, row), partial(self._check, refs[row])
        )

    def _refs(self):
        return json.loads(self.refs_path.read_text(encoding="utf-8"))

    def requests(self, state, seed: int, threads: int | None = None):
        refs = self._refs()
        return [self._request(state, refs, r) for r in self.sample(state, seed)]

    def certify(self, state, seed):
        return 0, []


class LoocvWorkload:
    """Leave-one-out over seeded synthetic data with continuous attributes."""

    name = "loocv-continuous"
    span = "evaluate.run"
    workers = 1
    datasets = 2  # per seed; two even out how much a dataset's grids sway the timings
    why = "LOOCV over seeded continuous data: entropy-MDL grids are refitted for every row"

    def inputs(self, seed: int):
        return [synth.make_continuous(self.datasets * seed + j) for j in range(self.datasets)]

    def setup(self, inputs):
        return {f"synthetic{j}": parse_dataset(*texts) for j, texts in enumerate(inputs)}

    def evaluate(self, d, label):
        return render_report(
            evaluate_loocv(d, PARAMS, mode="levels", threads=1, dataset_label=label)
        )

    def requests(self, state, seed: int, threads: int | None = None):
        judge = partial(_at_least, LOOCV_MIN_CORRECTNESS)
        return [
            Request(
                n, len(d.rows), partial(self.evaluate, d, n),
                partial(
                    _check_report, _pinned_report(f"{self.name}-{n}", seed), len(d.rows), judge
                ),
            )
            for n, d in state.items()
        ]

    def certify(self, state, seed):
        """Search against the unpruned oracle on every row it can enumerate."""
        certified, bad = 0, []
        for d in state.values():
            n, msgs = tracing.certify_loocv(d, "levels", PARAMS)
            certified += n
            bad += msgs
        return certified, bad


WORKLOADS = {
    w.name: w
    for w in (
        CvWorkload(
            "cv-monks", ("monks1", "monks2", "monks3"), "levels", None, 1,
            "the paper's reproduction run: 3-fold CV in levels mode, search-bound",
        ),
        CvWorkload(
            "cv-tictactoe", ("tictactoe",), "exact", None, 2,
            "3-fold CV in equality mode at 2 workers: encode-bound, the only fork-pool user",
        ),
        QueryWorkload(),
        LoocvWorkload(),
    )
}
