#!/usr/bin/env python3
"""Regenerate the pinned reference outputs in perfbench/refs/.

    python3 perfbench/make_refs.py

Writes the rendered report of every `evaluate_*` request at the default
seed, and the prediction (label, source, probability, accepted-rule term
ids) for every tictactoe row in the query workload's encoding, so a query
of any seed has a reference. For every CV request it also pins the
correctness at each of `FOLD_SEEDS`, from which the checks at other seeds
take their bands (about seven minutes). Beside them it
writes each row's search-node count, by which the query workload stratifies
its sample; those counts are not checked. The references record what the program answered when they
were made; regenerate them only for a change that is meant to alter
outputs, and say so where the change is described.
"""

from __future__ import annotations

import json
import sys

from run import import_program

CALIBRATION_THREADS = 2  # reports do not depend on the worker count


def main() -> int:
    import_program()
    from localrules import predict_for_row
    from workloads import (
        DEFAULT_SEED, FOLD_SEED_REFS, FOLD_SEEDS, PARAMS, REFS, WORKLOADS,
        CvWorkload, LoocvWorkload, pinned_path, report_value,
    )

    REFS.mkdir(exist_ok=True)
    by_fold_seed = {}
    for w in WORKLOADS.values():
        state = w.setup(w.inputs(DEFAULT_SEED))
        if isinstance(w, CvWorkload):
            for n, d in state.items():
                text = w.evaluate(d, n, DEFAULT_SEED, w.workers)
                pinned_path(f"{w.name}-{n}").write_text(text, encoding="utf-8")
                reports = [w.evaluate(d, n, s, CALIBRATION_THREADS) for s in FOLD_SEEDS]
                by_fold_seed[f"{w.name}-{n}"] = [
                    float(report_value(r, "correctness")) for r in reports
                ]
        elif isinstance(w, LoocvWorkload):
            for n, d in state.items():
                pinned_path(f"{w.name}-{n}").write_text(w.evaluate(d, n), encoding="utf-8")
        else:
            preds = [
                predict_for_row(state, row, PARAMS, w.mode, w.overrides)
                for row in range(len(state.rows))
            ]
            with open(w.refs_path, "w", encoding="utf-8") as fh:
                fh.write("[\n" + ",\n".join(json.dumps(w.summary(p)) for p in preds) + "\n]\n")
            nodes = [p.search.nodes_visited for p in preds]
            w.cost_path.write_text(json.dumps(nodes) + "\n", encoding="utf-8")
        print(f"{w.name}: references written", flush=True)
    FOLD_SEED_REFS.write_text(json.dumps(by_fold_seed, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
