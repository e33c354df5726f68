"""Command-line front end: reproducible runs over CSV datasets.

Subcommands: predict, rules, evaluate, discretize, selftest. This module
only parses, loads and prints: search flag defaults are QualityParams's, and
evaluate decides what a worker count means. Every run echoes its effective
configuration, so results are self-describing. Worker count and wall time
never appear in the output text (wall time goes to the error stream), so
files written with --out are byte-identical for any --threads value.

Exit codes: 0 success, 1 usage or parameter error, 2 data error.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

from .data import (BOOL_KIND, CLASS_KIND, CONTINUOUS_KIND, IGNORE_KIND, NOMINAL_KIND,
                   ORDERED_KIND, Attribute, Dataset, format_cell, load_dataset)
from .discretize import build_grids
from .encode import MODE_EXACT, MODE_LEVELS, attrs_needing_grids
from .errors import BadParams, DataError
from .evaluate import evaluate_cv, evaluate_loocv, render_report
from .exhaustive import exhaustive_rules
from .predict import encode_row, predict_encoded
from .rules import QualityParams, format_rule
from .search import search_local_rules

_MODES = (MODE_LEVELS, MODE_EXACT)
_SEARCH_FLAGS = (
    ("--lambda", "weight", "exclusion/coverage tradeoff weight"),
    ("--cmin", "min_cover", "minimal coverage share"),
    ("--cmin-mism", "min_mism", "minimal per-term mismatch share"),
    ("--max-depth", "max_terms", "maximal terms per rule"),
    ("--kappa", "keep_frac", "keep rules within this fraction of the best"),
    ("--eps", "eps", "correctness slack for the perfect cutoff"),
)


def _add_param_flags(ap: argparse.ArgumentParser) -> None:
    ap.add_argument("--data", required=True, help="CSV file with a header row")
    ap.add_argument("--schema", required=True, help="sidecar `name: kind` file")
    for flag, field, meaning in _SEARCH_FLAGS:
        default = getattr(QualityParams, field)  # the dataclass field's default
        ap.add_argument(flag, dest=field, type=type(default), default=default,
                        help=f"{meaning} (default {default})")
    ap.add_argument("--mode", choices=_MODES, default=MODE_LEVELS,
                    help="ordered/continuous comparison mode (default levels)")
    ap.add_argument("--override", action="append", default=[], metavar="ATTR=MODE",
                    help="force a mode for one attribute (repeatable)")
    ap.add_argument("--threads", type=int, default=0,
                    help="evaluate's worker processes, 0 or more; 0 = all available")
    ap.add_argument("--out", help="also write the output text to this file")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="localrules",
        description="Lazy rule induction around single prediction points.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("predict", help="predict the class of one row")
    _add_param_flags(p)
    p.add_argument("--row", type=int, default=0, help="row to predict (default 0)")
    p.add_argument("--show-rules", action="store_true", help="list the accepted rules")

    p = sub.add_parser("rules", help="list accepted rules for one row")
    _add_param_flags(p)
    p.add_argument("--row", type=int, default=0, help="prediction point (default 0)")

    p = sub.add_parser("evaluate", help="cross-validated average correctness")
    _add_param_flags(p)
    # None tells an unset flag apart, so --loocv can reject a given one.
    p.add_argument("--folds", type=int, default=None, help="fold count (default 3)")
    p.add_argument("--seed", type=int, default=None, help="shuffle seed (default 1)")
    p.add_argument("--loocv", action="store_true", help="leave-one-out instead of k-fold")

    p = sub.add_parser("discretize", help="print induced grids per attribute")
    _add_param_flags(p)

    p = sub.add_parser("selftest", help="randomized search-vs-reference trials")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", default=None)

    return parser


def _parse_overrides(specs, attributes: tuple[Attribute, ...]):
    names = {a.name: i for i, a in enumerate(attributes)}
    skip = {i for i, a in enumerate(attributes) if a.kind in (CLASS_KIND, IGNORE_KIND)}
    overrides: dict[int, str] = {}
    for spec in specs:  # left to right, so a later flag wins
        name, sep, mode = spec.partition("=")
        if not sep or mode not in _MODES:
            raise BadParams(f"override {spec!r} is not ATTR={'|'.join(_MODES)}")
        if name == "*":
            overrides.update((i, mode) for i in range(len(attributes)) if i not in skip)
        elif name not in names:
            raise BadParams(f"override names unknown attribute {name!r}")
        elif names[name] in skip:
            raise BadParams(f"override names {name!r}, which is not encoded")
        else:
            overrides[names[name]] = mode
    return overrides


def _config(args) -> tuple[Dataset, dict, QualityParams]:
    # Data first: a missing data file exits 2 even beside an out-of-range flag.
    d = load_dataset(args.data, args.schema)
    overrides = _parse_overrides(args.override, d.attributes)
    if args.threads < 0:
        raise BadParams(f"--threads must be at least 0, got {args.threads}")
    params = QualityParams(**{field: getattr(args, field) for _, field, _ in _SEARCH_FLAGS})
    return d, overrides, params


def _echo_lines(args, params: QualityParams) -> list[str]:
    # Deliberately omits --threads and --out: the written report must
    # not depend on the worker count or on where it is stored.
    lines = [
        f"data={args.data}",
        f"schema={args.schema}",
        f"mode={args.mode}",
    ]
    if args.override:
        lines.append("overrides=" + ",".join(args.override))
    return lines + params.echo_lines()


def _emit(text: str, out: str | None) -> None:
    sys.stdout.write(text)
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise BadParams(f"cannot write --out file {out}: {exc}") from None


def _cmd_predict(args) -> int:
    d, overrides, params = _config(args)
    inst = encode_row(d, args.row, args.mode, overrides)
    p = predict_encoded(inst, params)
    lines = _echo_lines(args, params) + [
        f"row={args.row}",
        f"class={p.label}",
        f"probability={p.probability:.6f}",
        f"source={p.source}",
        f"rules={len(p.rules)}",
        f"nodes={p.search.nodes_visited}",
    ]
    if args.show_rules:
        lines += [format_rule(r, inst.components, inst.class_labels) for r in p.rules]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_rules(args) -> int:
    d, overrides, params = _config(args)
    inst = encode_row(d, args.row, args.mode, overrides)
    outcome = predict_encoded(inst, params).search
    best = "none" if outcome.best_quality is None else f"{outcome.best_quality:.6f}"
    lines = _echo_lines(args, params) + [
        f"row={args.row}",
        f"rules={len(outcome.rules)}",
        f"best={best}",
        f"threshold={outcome.final_threshold:.6f}",
        f"nodes={outcome.nodes_visited}",
    ]
    lines += [format_rule(r, inst.components, inst.class_labels) for r in outcome.rules]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_evaluate(args) -> int:
    d, overrides, params = _config(args)
    label = Path(args.data).stem
    started = time.perf_counter()
    if args.loocv:
        for flag, value in (("--folds", args.folds), ("--seed", args.seed)):
            if value is not None:
                raise BadParams(f"{flag} does not apply to --loocv")
        report = evaluate_loocv(
            d, params, args.mode, overrides, args.threads, dataset_label=label
        )
    else:
        report = evaluate_cv(
            d, params, 3 if args.folds is None else args.folds,
            1 if args.seed is None else args.seed, args.mode, overrides, args.threads,
            dataset_label=label,
        )
    text = f"data={args.data}\nschema={args.schema}\n" + render_report(report)
    _emit(text, args.out)
    print(f"wall_seconds={time.perf_counter() - started:.3f}", file=sys.stderr)
    return 0


def _cmd_discretize(args) -> int:
    d, overrides, params = _config(args)
    wanted = attrs_needing_grids(d.attributes, args.mode, overrides)
    grids = build_grids(d.attributes, d.rows, d.class_col, wanted)  # labeled rows only
    lines = _echo_lines(args, params)
    for i in wanted:
        attr = d.attributes[i]
        shown = (format_cell(y, attr) for y in grids[i])
        lines.append(f"{attr.name}: " + " ".join(shown))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


_POOL = (
    Attribute("b1", BOOL_KIND),
    Attribute("b2", BOOL_KIND),
    Attribute("n1", NOMINAL_KIND, ("u", "v", "w")),
    Attribute("n2", NOMINAL_KIND, ("p", "q")),
    Attribute("o1", ORDERED_KIND, ("1", "2", "3", "4")),
    Attribute("o2", ORDERED_KIND, ("lo", "hi")),
    Attribute("x1", CONTINUOUS_KIND),
    Attribute("x2", CONTINUOUS_KIND),
)


def _random_cell(rng: random.Random, attr: Attribute):
    if rng.random() < 0.08:
        return None
    if attr.kind == BOOL_KIND:
        return rng.random() < 0.5
    if attr.kind in (NOMINAL_KIND, ORDERED_KIND):
        return rng.randrange(len(attr.values))
    return float(rng.randrange(20))


def random_instance(rng: random.Random):
    """A random encoded instance with mixed component kinds, plus params."""
    while True:
        attrs = tuple(rng.sample(_POOL, rng.randrange(2, 5))) + (
            Attribute("c", CLASS_KIND, ("y", "n")),
        )
        class_col = len(attrs) - 1
        rows = [
            tuple(_random_cell(rng, a) for a in attrs[:-1]) + (rng.randrange(2),)
            for _ in range(rng.randrange(12, 201))
        ]
        pred = tuple(_random_cell(rng, a) for a in attrs[:-1]) + (None,)
        mode = MODE_EXACT if rng.random() < 0.25 else MODE_LEVELS
        overrides = {}
        if rng.random() < 0.25:
            for i, a in enumerate(attrs[:-1]):
                if a.kind == NOMINAL_KIND and rng.random() < 0.5:
                    overrides[i] = MODE_LEVELS
        inst = encode_row(Dataset(attrs, (pred, *rows), class_col), 0, mode, overrides)
        if not 1 <= inst.n_components <= 12:
            continue
        if inst.n_pos == 0 or inst.n_neg == 0:
            continue
        params = QualityParams(
            weight=rng.choice((0.0, 0.5, 0.75, 0.9, 1.0)),
            min_cover=rng.choice((0.0, 0.02, 0.08, 0.2)),
            min_mism=rng.choice((0.0, 0.02, 0.1)),
            max_terms=rng.randrange(2, 9),
            keep_frac=rng.choice((0.8, 0.95, 1.0)),
        )
        return inst, params


def _same_outcome(a, b) -> bool:
    """Equal rules, best quality and final threshold, compared exactly.

    The search scores from rules.score_tables and the reference through
    rules.count_quality; the two are bit-identical for equal counts.
    """
    return (a.rules, a.best_quality, a.final_threshold) == (
        b.rules, b.best_quality, b.final_threshold
    )


def run_selftest(trials: int, seed: int) -> tuple[int, int]:
    rng = random.Random(seed)
    passed = failed = 0
    for trial in range(trials):
        inst, params = random_instance(rng)
        if _same_outcome(search_local_rules(inst, params), exhaustive_rules(inst, params)):
            passed += 1
        else:
            failed += 1
            print(
                f"trial {trial}: search and reference disagree "
                f"(components={inst.n_components}, rows={inst.n_rows})",
                file=sys.stderr,
            )
    return passed, failed


def _cmd_selftest(args) -> int:
    if args.trials < 1:
        raise BadParams(f"--trials must be at least 1, got {args.trials}")
    passed, failed = run_selftest(args.trials, args.seed)
    text = f"trials={args.trials}\npassed={passed}\nfailed={failed}\n"
    _emit(text, args.out)
    return 0 if failed == 0 else 1


_COMMANDS = {
    "predict": _cmd_predict,
    "rules": _cmd_rules,
    "evaluate": _cmd_evaluate,
    "discretize": _cmd_discretize,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return _COMMANDS[args.command](args)
    except BadParams as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
