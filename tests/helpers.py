"""Shared builders for search/equivalence tests."""

import math
import random
from collections import Counter

from localrules import discretize, encode
from localrules.data import Attribute
from localrules.encode import EncodedInstance
from localrules.rules import QualityParams


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


_POOL = (
    Attribute("b1", "bool"),
    Attribute("b2", "bool"),
    Attribute("n1", "nominal", ("u", "v", "w")),
    Attribute("n2", "nominal", ("p", "q")),
    Attribute("o1", "ordered", ("1", "2", "3", "4")),
    Attribute("o2", "ordered", ("lo", "hi")),
    Attribute("x1", "continuous"),
    Attribute("x2", "continuous"),
)


def _random_cell(rng, attr):
    if rng.random() < 0.08:
        return None
    if attr.kind == "bool":
        return rng.random() < 0.5
    if attr.kind in ("nominal", "ordered"):
        return rng.randrange(len(attr.values))
    return float(rng.randrange(20))


def random_instance(rng: random.Random, max_components=12, max_rows=200):
    """A random encoded instance with mixed component kinds, plus params."""
    while True:
        attrs = tuple(rng.sample(_POOL, rng.randrange(2, 5))) + (
            Attribute("c", "class", ("y", "n")),
        )
        class_col = len(attrs) - 1
        n = rng.randrange(12, max_rows + 1)
        rows = [
            tuple(_random_cell(rng, a) for a in attrs[:-1]) + (rng.randrange(2),)
            for _ in range(n)
        ]
        pred = tuple(_random_cell(rng, a) for a in attrs[:-1]) + (None,)
        mode = "exact" if rng.random() < 0.25 else "levels"
        overrides = {}
        if rng.random() < 0.25:
            for i, a in enumerate(attrs[:-1]):
                if a.kind == "nominal" and rng.random() < 0.5:
                    overrides[i] = "levels"
        grids = discretize.build_grids(
            attrs, rows, class_col, encode.attrs_needing_grids(attrs, mode, overrides)
        )
        inst = encode.encode(attrs, rows, pred, class_col, grids, mode, overrides)
        if not 1 <= inst.n_components <= max_components:
            continue
        if inst.n_pos == 0 or inst.n_neg == 0:
            continue
        params = QualityParams(
            weight=rng.choice((0.5, 0.75, 0.9)),
            min_cover=rng.choice((0.0, 0.02, 0.08, 0.2)),
            min_mism=rng.choice((0.0, 0.02, 0.1)),
            max_terms=rng.randrange(2, 9),
            keep_frac=rng.choice((0.8, 0.95, 1.0)),
        )
        return inst, params


def outcome_key(rules):
    return [(r.term_ids, r.target, r.quality) for r in rules]


def assert_equivalent(search_out, oracle_out):
    assert len(search_out.rules) == len(oracle_out.rules), (
        f"{len(search_out.rules)} accepted vs reference {len(oracle_out.rules)}"
    )
    for a, b in zip(search_out.rules, oracle_out.rules):
        assert a.term_ids == b.term_ids
        assert a.target == b.target
        assert abs(a.quality - b.quality) <= 1e-12
        assert a.match_bits == b.match_bits
    if search_out.best_quality is None:
        assert oracle_out.best_quality is None
    else:
        assert abs(search_out.best_quality - oracle_out.best_quality) <= 1e-12
    assert abs(search_out.final_threshold - oracle_out.final_threshold) <= 1e-12


def permuted_copy(inst: EncodedInstance, perm):
    """Same instance with components relabeled by perm (new id = position)."""
    from dataclasses import replace

    comps = [replace(inst.components[old], cid=new) for new, old in enumerate(perm)]
    groups = {}
    for c in comps:
        if c.group_key is not None:
            groups.setdefault(c.group_key, []).append(c.cid)
    return replace(
        inst,
        components=tuple(comps),
        groups={k: tuple(v) for k, v in groups.items()},
    )


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
    """The reference counterpart of discretize.entropy_mdl_cuts."""
    pairs = sorted(zip(values, labels), key=lambda p: p[0])
    out: list[float] = []
    _recurse(pairs, out)
    return out
