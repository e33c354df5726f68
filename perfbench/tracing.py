"""Per-layer tracing of the library's own entry points.

A traced run calls the same stable entry points as the timed runs, at one
worker, while the layer functions that `localrules.evaluate` and
`localrules.predict` call by name are swapped for wrappers. Each wrapper
records one span per call (name, start, end, parent span, query id) and the
counters read from the call's result, then returns that result unchanged.
Spans stay in memory and are written out when the run ends; self times and
the per-layer counters come from them. The traced outputs must equal the
untraced ones, which also shows the wrappers change nothing.

When a wrapped name is gone, when a result no longer has the field a counter
reads, or when a layer is never called through its name, the traced run
names the layer it could not trace; the timed runs depend on none of this.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# (module, name looked up at call time, span name); a span's layer is the
# part of its name before the first dot.
WRAPPED = (
    ("localrules.evaluate", "stratified_kfold", "evaluate.kfold"),
    ("localrules.evaluate", "build_grids", "discretize.fit"),
    ("localrules.evaluate", "mask_class", "predict.mask"),
    ("localrules.evaluate", "encode", "encode"),
    ("localrules.predict", "split_for_prediction", "data.split"),
    ("localrules.predict", "mask_class", "predict.mask"),
    ("localrules.predict", "build_grids", "discretize.fit"),
    ("localrules.predict", "encode", "encode"),
    ("localrules.predict", "search_local_rules", "search"),
    ("localrules.predict", "combine", "predict.combine"),
)

# Counters read from each span's result.
COUNTERS = {
    "discretize.fit": lambda grids: {
        "discretize.calls": 1, "discretize.levels": sum(len(g) for g in grids.values()),
    },
    "encode": lambda inst: {
        "encode.calls": 1,
        "encode.components": inst.n_components,
        "encode.cell_scans": inst.n_components * inst.n_rows,
    },
    "search": lambda out: {
        "search.nodes": out.nodes_visited, "search.rules_accepted": len(out.rules),
    },
    "predict.combine": lambda comb: {
        "predict.queries": 1, "predict.fallbacks": int(not comb.accepted),
    },
}
# A prediction starts at the first of these spans, which each open a new query
# unless they follow the span named here, and it ends at its predict.combine.
QUERY_STARTS = {"predict.query": None, "data.split": "predict.query", "predict.mask": "data.split"}
# Every workload goes through these; a traced run that saw none of one lost it.
REQUIRED_SPANS = ("discretize.fit", "encode", "search", "predict.combine")


class Untraceable(Exception):
    def __init__(self, layer: str, reason: str):
        super().__init__(f"cannot trace layer {layer!r}: {reason}")


def layer_function(module: str, name: str, layer: str):
    try:
        return getattr(importlib.import_module(module), name)
    except (ImportError, AttributeError):
        raise Untraceable(layer, f"{module}.{name} no longer exists") from None


class Tracer:
    """In-memory spans plus counters attributed to the span that read them."""

    def __init__(self):
        self.origin = perf_counter()
        self.spans: list[list] = []  # [name, start, end, parent, query, counts]
        self.counts: Counter = Counter()
        self.drift: Untraceable | None = None
        self._open: list[int] = []
        self._queries = 0
        self._in_query = False
        self._last = None

    def _query_of(self, name: str) -> int | None:
        if name in QUERY_STARTS and self._last != QUERY_STARTS[name]:
            self._queries += 1
            self._in_query = True
        self._last = name
        return self._queries if self._in_query else None

    @contextmanager
    def span(self, name: str):
        rec = [name, perf_counter(), 0.0, self._open[-1] if self._open else None, None, None]
        rec[4] = self._query_of(name)
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = perf_counter()
            self._open.pop()
            if name == "predict.combine":
                self._in_query = False

    def wrap(self, fn, name: str):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
                if counter is not None and self.drift is None:
                    try:
                        rec[5] = counter(out)
                    except (AttributeError, TypeError) as exc:
                        self.drift = Untraceable(
                            name.split(".")[0], f"result of {fn.__name__} changed: {exc}"
                        )
                    else:
                        self.counts.update(rec[5])
            return out

        return traced

    def self_times(self) -> Counter:
        """Per span name: summed duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, _, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def check(self) -> None:
        """Raise for a layer whose result changed or that was never traced."""
        if self.drift is not None:
            raise self.drift
        seen = {rec[0] for rec in self.spans}
        for name in REQUIRED_SPANS:
            if name not in seen:
                raise Untraceable(
                    name.split(".")[0], f"no {name} call went through the wrapped names"
                )

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, query, counts) in enumerate(self.spans):
                rec = {
                    "id": i, "name": name, "layer": name.split(".")[0],
                    "start": start - self.origin, "end": end - self.origin,
                    "parent": parent, "query": query,
                }
                if counts:
                    rec["counts"] = counts
                fh.write(json.dumps(rec) + "\n")


@contextmanager
def traced_calls(tr: Tracer):
    """Swap every WRAPPED name for a tracing wrapper; restore them on exit."""
    saved = []
    try:
        for module, name, span in WRAPPED:
            fn = layer_function(module, name, span.split(".")[0])
            mod = importlib.import_module(module)
            saved.append((mod, name, fn))
            setattr(mod, name, tr.wrap(fn, span))
        yield
    finally:
        for mod, name, fn in reversed(saved):
            setattr(mod, name, fn)


def _outcome(fn, inst, params):
    try:
        r = fn(inst, params)
    except Exception as exc:  # the oracle and the search must fail alike
        return type(exc).__name__, None, None, None
    rules = [(x.term_ids, x.target, x.quality) for x in r.rules]
    return "ok", rules, r.best_quality, r.final_threshold


def _same(a, b) -> bool:
    if a[0] != b[0] or a[0] != "ok":
        return a[0] == b[0]
    if len(a[1]) != len(b[1]) or (a[2] is None) != (b[2] is None):
        return False
    for (ta, ga, qa), (tb, gb, qb) in zip(a[1], b[1]):
        if ta != tb or ga != gb or abs(qa - qb) > 1e-12:
            return False
    if a[2] is not None and abs(a[2] - b[2]) > 1e-12:
        return False
    return abs(a[3] - b[3]) <= 1e-12


def certify_loocv(d, mode, params) -> tuple[int, list[str]]:
    """Compare search with the unpruned oracle on every row it can enumerate.

    Returns (rows certified, one message per disagreement).
    """
    split = layer_function("localrules.data", "split_for_prediction", "data")
    mask = layer_function("localrules.predict", "mask_class", "predict")
    fit = layer_function("localrules.discretize", "build_grids", "discretize")
    needing = layer_function("localrules.encode", "attrs_needing_grids", "encode")
    encode = layer_function("localrules.encode", "encode", "encode")
    search = layer_function("localrules.search", "search_local_rules", "search")
    oracle = layer_function("localrules.exhaustive", "exhaustive_rules", "exhaustive")
    max_components = layer_function("localrules.exhaustive", "MAX_COMPONENTS", "exhaustive")

    level_attrs = needing(d.attributes, mode, None)
    certified, bad = 0, []
    for i in range(len(d.rows)):
        row, training = split(d, i)
        pred_row = mask(row, d.class_col)
        grids = fit(d.attributes, training, d.class_col, level_attrs)
        inst = encode(d.attributes, training, pred_row, d.class_col, grids, mode, None)
        if not 0 < inst.n_components <= max_components:
            continue
        certified += 1
        got = _outcome(search, inst, params)
        want = _outcome(oracle, inst, params)
        if not _same(got, want):
            bad.append(f"row {i}: search {got[:2]} vs oracle {want[:2]}")
    return certified, bad


def layer_metrics(tr: Tracer, workers: int, wall: float, serial_wall: float, traced_wall: float):
    """Per-layer metrics.

    wall is the untraced pass at the workload's worker count, serial_wall the
    same pass at one worker and traced_wall the traced pass. The layer sum is
    scaled by serial_wall / traced_wall, so the tracer's own cost does not
    count towards the evaluate figures.
    """
    st, c = tr.self_times(), tr.counts
    traced_sum = sum(v for k, v in st.items() if not k.startswith(("evaluate.", "data.parse")))
    layer_sum = traced_sum * serial_wall / traced_wall
    nodes, queries = max(c["search.nodes"], 1), max(c["predict.queries"], 1)
    return {
        "data.parse_s": (st["data.parse"], "s"),
        "discretize.fit_s": (st["discretize.fit"], "s"),
        "discretize.calls": (c["discretize.calls"], "count"),
        "discretize.levels": (c["discretize.levels"], "count"),
        "encode.s": (st["encode"], "s"),
        "encode.calls": (c["encode.calls"], "count"),
        "encode.components": (c["encode.components"], "count"),
        "encode.cell_scans": (c["encode.cell_scans"], "count"),
        "search.s": (st["search"], "s"),
        "search.nodes": (c["search.nodes"], "count"),
        "search.nodes_per_ms": (c["search.nodes"] / max(st["search"] * 1000, 1e-9), "1/ms"),
        "search.rules_accepted": (c["search.rules_accepted"], "count"),
        "search.accept_ratio": (c["search.rules_accepted"] / nodes, "ratio"),
        "predict.combine_s": (st["predict.combine"], "s"),
        "predict.fallback_fraction": (c["predict.fallbacks"] / queries, "ratio"),
        "evaluate.overhead_s": (workers * wall - layer_sum, "s"),
        "evaluate.parallel_efficiency": (layer_sum / (workers * wall), "ratio"),
        "trace.overhead_s": (traced_wall - serial_wall, "s"),
    }
