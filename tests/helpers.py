"""Shared builders for search/equivalence tests."""

import csv
import io
import math
import random
from collections import Counter
from dataclasses import replace

from localrules import cli, discretize, encode
from localrules.data import Attribute, Dataset, format_cell
from localrules.encode import (
    EXACT,
    LOWER,
    MODE_EXACT,
    MODE_LEVELS,
    UPPER,
    Component,
    EncodedInstance,
)
from localrules.errors import DataError
from localrules.predict import SOURCE_PRIOR, predict_encoded, query_encoder
from localrules.rules import (
    Contingency,
    QualityParams,
    Rule,
    count_quality,
    mismatch_floors,
    quality,
    select_target,
)
from localrules.search import SearchOutcome, _sorted_rules


def conflict_instance():
    """Two components, each perfectly predicting one class at full coverage.

    100 training rows split 50/50. The prediction row agrees with the
    positive rows on the first attribute and with the negative rows on the
    second, so each component alone is a perfect full-coverage rule for its
    class and the union of the two match sets covers everything.
    """
    attrs = (
        Attribute("x1", "bool"),
        Attribute("x2", "bool"),
        Attribute("c", "class", ("pos", "neg")),
    )
    rows = [(True, False, 0)] * 50 + [(False, True, 1)] * 50
    inst = encode.encode(attrs, rows, (True, True, None), 2)
    params = QualityParams(weight=0.5, min_cover=0.01, min_mism=0.01, keep_frac=0.95)
    return inst, params


def hypercube_instance(m: int):
    """All 2^m boolean rows, class = even parity, prediction row all-true.

    Every component matches exactly the rows with its bit set; every nonempty
    subset has a nonempty mixed-class subcube as its match set, so no prune
    can fire under zeroed floors and a vanishing keep fraction.
    """
    attrs = tuple(Attribute(f"b{i}", "bool") for i in range(m)) + (
        Attribute("c", "class", ("even", "odd")),
    )
    rows = [
        tuple((v >> i) & 1 == 1 for i in range(m)) + (v.bit_count() % 2,)
        for v in range(2**m)
    ]
    pred = (True,) * m + (None,)
    inst = encode.encode(attrs, rows, pred, m)
    params = QualityParams(
        weight=0.75, min_cover=0.0, min_mism=0.0, max_terms=m, keep_frac=1e-9
    )
    return inst, params


random_instance = cli.random_instance


def component_truth_ladder(attr_components) -> tuple[bool, ...]:
    """The prediction value's predicate truths (value <= y_l) along one grid.

    The components must be one attribute's boundary components in id order,
    which is grid order: the l-th holds level y_l, and it is UPPER exactly
    when the prediction value satisfies value <= y_l.
    """
    return tuple(c.kind == UPPER for c in attr_components)


def assert_equivalent(search_out, oracle_out):
    assert len(search_out.rules) == len(oracle_out.rules), (
        f"{len(search_out.rules)} accepted vs reference {len(oracle_out.rules)}"
    )
    for a, b in zip(search_out.rules, oracle_out.rules):
        assert a.term_ids == b.term_ids
        assert a.target == b.target
        assert a.quality == b.quality
        assert a.match_bits == b.match_bits
    assert search_out.best_quality == oracle_out.best_quality
    assert search_out.final_threshold == oracle_out.final_threshold


def permuted_copy(inst: EncodedInstance, perm):
    """Same instance with components reordered by perm (an id is a position)."""
    return replace(inst, components=tuple(inst.components[old] for old in perm))


def entropy_mdl_cuts(values, labels) -> list[float]:
    """The entropy-MDL cuts of one missing-free column, as GridFitter fits them."""
    return list(discretize._Column(values, labels).cuts())


def serialize_csv(d: Dataset) -> str:
    """Emit canonical CSV; reparsing with the same schema reproduces d exactly."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([a.name for a in d.attributes])
    for row in d.rows:
        writer.writerow([format_cell(v, a) for v, a in zip(row, d.attributes)])
    return buf.getvalue()


# Reference entropy-MDL cut search: a Counter recount at every candidate cut
# and on every slice. The prefix-count search in discretize must equal it bit
# for bit.


def _entropy(counts) -> float:
    n = sum(counts)
    if n == 0:
        return 0.0
    h = 0.0
    for c in counts:
        if c:
            p = c / n
            h -= p * math.log2(p)
    return h


def _midpoint(a: float, b: float) -> float | None:
    # Halve first so the sum cannot overflow; reject degenerate float gaps.
    mid = a / 2 + b / 2
    return mid if a < mid < b else None


def best_split(pairs: list[tuple[float, object]]) -> tuple[int, float, float] | None:
    """Lowest-weighted-entropy cut for a value-sorted (value, label) list.

    Returns (boundary index, cut value, weighted entropy); ties go to the
    leftmost cut. None when no two distinct values exist.
    """
    n = len(pairs)
    left: Counter = Counter()
    right = Counter(label for _, label in pairs)
    best: tuple[int, float, float] | None = None
    for i in range(n - 1):
        label = pairs[i][1]
        left[label] += 1
        right[label] -= 1
        if pairs[i][0] == pairs[i + 1][0]:
            continue
        cut = _midpoint(pairs[i][0], pairs[i + 1][0])
        if cut is None:
            continue
        w = ((i + 1) * _entropy(left.values()) + (n - i - 1) * _entropy(right.values())) / n
        if best is None or w < best[2]:
            best = (i, cut, w)
    return best


def _mdl_accepts(pairs, split_at: int, w: float) -> bool:
    n = len(pairs)
    whole = Counter(label for _, label in pairs)
    lo = Counter(label for _, label in pairs[: split_at + 1])
    hi = Counter(label for _, label in pairs[split_at + 1 :])
    e, e1, e2 = _entropy(whole.values()), _entropy(lo.values()), _entropy(hi.values())
    k, k1, k2 = len(whole), len(lo), len(hi)
    gain = e - w
    threshold = math.log2(n - 1) / n + (
        math.log2(3**k - 2) - k * e + k1 * e1 + k2 * e2
    ) / n
    return gain > threshold


def _recurse(pairs: list[tuple[float, object]], out: list[float]) -> None:
    if len(pairs) < 2 or len({label for _, label in pairs}) < 2:
        return
    found = best_split(pairs)
    if found is None:
        return
    split_at, cut, w = found
    if not _mdl_accepts(pairs, split_at, w):
        return
    _recurse(pairs[: split_at + 1], out)
    out.append(cut)
    _recurse(pairs[split_at + 1 :], out)


def reference_cuts(values, labels) -> list[float]:
    """The reference counterpart of entropy_mdl_cuts."""
    pairs = sorted(zip(values, labels), key=lambda p: p[0])
    out: list[float] = []
    _recurse(pairs, out)
    return out


# Reference encoder: one scan of every training row per component. The
# TrainingIndex lookups in encode must equal it bit for bit.


def _exact_component(i, attr, v0, training_rows) -> Component:
    bits = 0
    for n, row in enumerate(training_rows):
        if row[i] is not None and row[i] == v0:
            bits |= 1 << n
    return Component(
        attr=i,
        kind=EXACT,
        level=v0,
        match_bits=bits,
        display=f"{attr.name}={format_cell(v0, attr)}",
    )


def _level_components(i, attr, v0, grid, training_rows) -> list[Component]:
    out = []
    for y in grid:
        if v0 <= y:
            kind, op = UPPER, "<="
        else:
            kind, op = LOWER, ">"
        bits = 0
        for n, row in enumerate(training_rows):
            v = row[i]
            if v is None:
                continue
            if (v <= y) if kind == UPPER else (v > y):
                bits |= 1 << n
        out.append(
            Component(
                attr=i,
                kind=kind,
                level=y,
                match_bits=bits,
                display=f"{attr.name}{op}{format_cell(y, attr)}",
            )
        )
    return out


def effective_mode(attr: Attribute, mode: str, overrides: dict | None, index: int) -> str:
    """One attribute's mode: "" for the class and ignored columns."""
    if attr.kind in ("class", "ignore"):
        return ""
    if overrides and index in overrides:
        return overrides[index]
    if mode == MODE_LEVELS and attr.kind in ("ordered", "continuous"):
        return MODE_LEVELS
    return MODE_EXACT


def reference_encode(
    attributes,
    training_rows,
    pred_row,
    class_col: int,
    grids: dict | None = None,
    mode: str = MODE_LEVELS,
    overrides: dict | None = None,
) -> EncodedInstance:
    """The reference counterpart of encode.encode."""
    exact_cols: list[int] = []
    level_cols: list[int] = []
    for i, attr in enumerate(attributes):
        eff = effective_mode(attr, mode, overrides, i)
        if not eff or pred_row[i] is None:
            continue
        (level_cols if eff == MODE_LEVELS else exact_cols).append(i)

    components: list[Component] = []
    for i in exact_cols:
        components.append(_exact_component(i, attributes[i], pred_row[i], training_rows))
    for i in level_cols:
        if grids is None or i not in grids:
            raise DataError(f"attribute {attributes[i].name!r} needs a level grid")
        components.extend(
            _level_components(i, attributes[i], pred_row[i], grids[i], training_rows)
        )

    class_bits = 0
    n = len(training_rows)
    for row_index, row in enumerate(training_rows):
        g = row[class_col]
        assert g is not None, "training rows must be labeled"
        if g == 0:
            class_bits |= 1 << row_index

    class_values = attributes[class_col].values
    assert class_values is not None
    return EncodedInstance(
        components=tuple(components),
        n_rows=n,
        class_bits=class_bits,
        class_labels=(class_values[0], class_values[1]),
    )


def linear_min_cover_count(threshold, class_total, weight, start=0) -> int:
    """The reference counterpart of rules.min_cover_count: a scan upward.

    It scores a perfect rule covering count rows of the class in place, by
    count_quality with an exclusion ratio of 1/1, not from rules.score_tables.
    """
    for count in range(start, class_total + 1):
        if count_quality(count, 0, class_total, 1, True, weight) >= threshold:
            return count
    return class_total + 1


# Reference walk: every child of an expanded node is formed over the full
# range above the last term, and each of its one-term drops is rebuilt and
# tested by XOR. The candidate-tail walk in search must return the same
# SearchOutcome, nodes_visited included.


def reference_search(inst: EncodedInstance, params: QualityParams) -> SearchOutcome:
    """The reference counterpart of search.search_local_rules.

    A query holding out a row is walked as its plain() encoding.
    """
    inst = inst.plain()
    if inst.n_pos == 0 or inst.n_neg == 0:
        raise DataError("training rows contain a single class")

    m = inst.n_components
    comps = inst.components
    class_bits = inst.class_bits
    n_pos, n_neg = inst.n_pos, inst.n_neg
    full_mask = (1 << inst.n_rows) - 1
    weight = params.weight
    keep = params.keep_frac
    min_corr = 1.0 - params.eps
    mism_floor_pos, mism_floor_neg = mismatch_floors(params, n_pos, n_neg)

    threshold = params.base_threshold
    floor_pos = linear_min_cover_count(threshold, n_pos, weight)
    floor_neg = linear_min_cover_count(threshold, n_neg, weight)

    found: list[Rule] = []
    best: float | None = None
    visits = 0

    def walk(term_ids, match, drops, used_groups, last_cid, depth):
        nonlocal threshold, floor_pos, floor_neg, best, visits
        for cid in range(last_cid + 1, m):
            comp = comps[cid]
            gk = comp.group_key
            if gk is not None and gk in used_groups:
                continue
            child_match = match & comp.match_bits
            visits += 1
            cpos = (child_match & class_bits).bit_count()
            cneg = child_match.bit_count() - cpos
            if cpos < floor_pos and cneg < floor_neg:
                continue  # no descendant can reach the threshold

            child_drops = [d & comp.match_bits for d in drops]
            child_drops.append(match)
            admissible = True
            blocked = False
            for d in child_drops:
                mism = d ^ child_match  # child_match is a subset of every drop
                mp = (mism & class_bits).bit_count()
                if not (mp > mism_floor_pos or mism.bit_count() - mp > mism_floor_neg):
                    admissible = False
                    break
                if d:
                    dp = (d & class_bits).bit_count()
                    dn = d.bit_count() - dp
                    if (dp if dp >= dn else dn) >= min_corr * (dp + dn):
                        blocked = True
                        break
            if not admissible or blocked:
                continue

            table = Contingency(cpos, cneg, n_pos - cpos, n_neg - cneg)
            target = select_target(table)
            q = quality(table, target, weight)
            child_ids = term_ids + (cid,)
            if q >= threshold and child_match:
                found.append(Rule(child_ids, child_match, table, target, q))
                if best is None or q > best:
                    best = q
                    if keep * q > threshold:
                        threshold = keep * q
                        floor_pos = linear_min_cover_count(threshold, n_pos, weight, floor_pos)
                        floor_neg = linear_min_cover_count(threshold, n_neg, weight, floor_neg)

            if depth + 1 >= params.max_terms or child_match == 0:
                continue
            n_match = cpos + cneg
            if (cpos if cpos >= cneg else cneg) >= min_corr * n_match:
                continue  # pure enough; supersets are blocked by definition
            child_groups = used_groups if gk is None else used_groups | {gk}
            walk(child_ids, child_match, child_drops, child_groups, cid, depth + 1)

    walk((), full_mask, [], frozenset(), -1, 0)

    if best is None:
        return SearchOutcome((), None, params.base_threshold, visits)
    final = max(params.base_threshold, keep * best)
    kept = [r for r in found if r.quality >= final]
    return SearchOutcome(_sorted_rules(kept), best, final, visits)


def unshared_outcomes(d: Dataset, params: QualityParams, folds, held_out: bool, mode=MODE_LEVELS):
    """The reference for evaluate's shared walks: each row searched on its own.

    Returns (label, predicted target, nodes, fell back) per row of folds,
    fold by fold, as the evaluators tally them. Every row is encoded through
    predict.query_encoder, over its fold's training rows (held_out False) or
    over all rows with itself held out, and predicted by predict_encoded as
    a split of one.
    """
    outcomes = []
    for fold in folds:
        test_set = frozenset(() if held_out else fold)
        training = [row for i, row in enumerate(d.rows) if i not in test_set]
        encode_query = query_encoder(d, training, mode)
        for row in fold:
            inst = encode_query(d.rows[row], row if held_out else None)
            p = predict_encoded(inst, params)
            label = d.rows[row][d.class_col]
            outcomes.append((label, p.target, p.search.nodes_visited, p.source == SOURCE_PRIOR))
    return outcomes
