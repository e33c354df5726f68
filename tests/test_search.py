"""Pruned search: frozen small cases, invariants, and reference equivalence.

Hand-checked expectations frozen here:

* Conflict pair (helpers.conflict_instance): components 0 and 1 perfectly
  predict opposite classes at full coverage. Node {0} scores 1.0 (exclusion
  50/50, coverage 50/50), tightens the threshold to 0.95, and is pure, so it
  is never expanded; {1} also scores 1.0. Exactly 2 nodes are formed and both
  singletons are accepted. The two-term set never exists on either side: the
  search never builds it, the reference blocks it (its one-term drops are the
  pure opposite-class match sets).

* Hypercube (helpers.hypercube_instance, m=10): 1024 rows, class = parity.
  Every subcube of dimension >= 1 splits evenly by class, so with zeroed
  floors and keep_frac=1e-9 no prune ever fires and the walk forms every
  nonempty subset exactly once: 2^10 - 1 = 1023 nodes. Only the full
  conjunction (match = the single all-true row, a positive) reaches the base
  threshold: alpha = 0.75 * (512/512) + 0.25 * (1/512) = 0.75048828125, a
  dyadic rational, so equality is exact.

* Disjoint components: x1 matches rows 0-4, x2 matches rows 5-9, x3 matches
  all ten, classes alternate. Nodes formed: {0}, {0,1} (empty match, floor-
  pruned at min_cover=0.08 but still counted), {0,2} (term 2 excludes
  nothing: inadmissible), {1}, {1,2}, {2} = 6 of the 7 subsets; {0,1,2} is
  never formed because the empty node {0,1} is not expanded.
"""

import random
import sys
from dataclasses import replace
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    assert_equivalent,
    conflict_instance,
    hypercube_instance,
    permuted_copy,
    random_instance,
    reference_search,
)
from localrules.data import Attribute, load_dataset, parse_dataset
from localrules.discretize import build_grids
from localrules.encode import attrs_needing_grids, encode
from localrules.evaluate import stratified_kfold
from localrules.errors import DataError
from localrules.exhaustive import exhaustive_rules
from localrules.predict import encode_row, query_encoder
from localrules.rules import QualityParams
from localrules.search import SearchOutcome, search_local_rules

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import synth  # noqa: E402  (the benchmark's data generator, only imported)


def test_conflicting_components_yield_two_perfect_rules():
    inst, params = conflict_instance()
    out = search_local_rules(inst, params)
    assert out.nodes_visited == 2
    assert [r.term_ids for r in out.rules] == [(0,), (1,)]
    assert [r.quality for r in out.rules] == [1.0, 1.0]
    assert [r.target for r in out.rules] == [True, False]
    assert out.best_quality == 1.0
    assert out.final_threshold == 0.95
    assert out.rules[0].match_bits == (1 << 50) - 1
    assert out.rules[1].match_bits == ((1 << 100) - 1) ^ ((1 << 50) - 1)


def test_hypercube_forms_every_nonempty_subset_once():
    inst, params = hypercube_instance(10)
    out = search_local_rules(inst, params)
    assert out.nodes_visited == 2**10 - 1
    assert len(out.rules) == 1
    rule = out.rules[0]
    assert rule.term_ids == tuple(range(10))
    assert rule.quality == 0.75048828125
    assert rule.match_bits == 1 << 1023
    assert out.best_quality == 0.75048828125


def _recursion_depth() -> int:
    """The caller's call depth as the recursion limit counts it (to within one)."""

    def headroom(n):
        try:
            return headroom(n + 1)
        except RecursionError:
            return n

    return sys.getrecursionlimit() - headroom(0)


def test_search_depth_takes_no_interpreter_stack():
    # The hypercube walk reaches depth 10; the search keeps its path on its
    # own stack, so a few frames above the caller's depth suffice.
    inst, params = hypercube_instance(10)
    expected = search_local_rules(inst, params)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_recursion_depth() + 8)
    try:
        out = search_local_rules(inst, params)
    finally:
        sys.setrecursionlimit(limit)
    assert out == expected


def test_small_hypercube_node_count():
    inst, params = hypercube_instance(4)
    assert search_local_rules(inst, params).nodes_visited == 15


def _disjoint_instance():
    attrs = (
        Attribute("x1", "bool"),
        Attribute("x2", "bool"),
        Attribute("x3", "bool"),
        Attribute("c", "class", ("y", "n")),
    )
    rows = [(i < 5, i >= 5, True, i % 2) for i in range(10)]
    return encode(attrs, rows, (True, True, True, None), 3)


def test_empty_match_node_is_counted_but_not_expanded():
    inst = _disjoint_instance()
    params = QualityParams(weight=0.75, min_cover=0.08, min_mism=0.0, max_terms=3)
    out = search_local_rules(inst, params)
    assert out.nodes_visited == 6
    for rule in out.rules:
        assert rule.match_bits != 0


def test_rules_matching_no_row_are_never_accepted():
    # At weight 1 the empty {x1, x2} scores exactly the base threshold of 1.
    inst = _disjoint_instance()
    params = QualityParams(weight=1.0, max_terms=3)
    out = search_local_rules(inst, params)
    assert all(rule.match_bits != 0 for rule in out.rules)
    assert_equivalent(out, exhaustive_rules(inst, params))
    assert out == reference_search(inst, params)


def test_raising_min_cover_never_increases_node_count():
    rng = random.Random(11)
    for _ in range(25):
        inst, params = random_instance(rng)
        counts = [
            search_local_rules(inst, replace(params, min_cover=c)).nodes_visited
            for c in (0.0, 0.08, 0.25)
        ]
        assert counts[0] >= counts[1] >= counts[2], counts


def test_keep_frac_one_accepts_only_ties_for_best():
    rng = random.Random(13)
    seen_any = False
    for _ in range(25):
        inst, params = random_instance(rng)
        out = search_local_rules(inst, replace(params, keep_frac=1.0))
        for rule in out.rules:
            assert rule.quality == out.best_quality
        seen_any = seen_any or bool(out.rules)
    assert seen_any


def test_component_relabeling_leaves_accepted_set_invariant():
    rng = random.Random(17)
    drawn = (random_instance(rng) for _ in range(20))
    # Tictactoe with every cell as levels: up to 18 boundary groups, whose
    # ids the shuffle scatters, so each group mask holds non-contiguous ids.
    rows = sorted(random.Random(5).sample(range(958), 20))
    every_cell = ((inst, QualityParams()) for inst in _tictactoe_level_rows(rows))
    for inst, params in chain(drawn, every_cell):
        perm = list(range(inst.n_components))
        rng.shuffle(perm)
        base = search_local_rules(inst, params)
        shuffled = search_local_rules(permuted_copy(inst, perm), params)
        remapped = {
            (frozenset(perm[i] for i in r.term_ids), r.target, r.quality)
            for r in shuffled.rules
        }
        assert remapped == {
            (frozenset(r.term_ids), r.target, r.quality) for r in base.rules
        }
        if base.best_quality is None:
            assert shuffled.best_quality is None
        else:
            assert shuffled.best_quality == base.best_quality


def test_accepted_rules_never_repeat_a_boundary_group():
    rng = random.Random(19)
    for _ in range(30):
        inst, params = random_instance(rng)
        out = search_local_rules(inst, params)
        for rule in out.rules:
            keys = [
                inst.components[cid].group_key
                for cid in rule.term_ids
                if inst.components[cid].group_key is not None
            ]
            assert len(keys) == len(set(keys))


def test_term_count_respects_depth_limit():
    rng = random.Random(23)
    for _ in range(15):
        inst, params = random_instance(rng)
        out = search_local_rules(inst, replace(params, max_terms=2))
        assert all(len(r.term_ids) <= 2 for r in out.rules)


def test_nonzero_eps_runs_and_keeps_rules_sorted():
    rng = random.Random(29)
    for _ in range(10):
        inst, params = random_instance(rng)
        out = search_local_rules(inst, replace(params, eps=0.3))
        qualities = [r.quality for r in out.rules]
        assert qualities == sorted(qualities, reverse=True)


def test_componentless_query_gets_the_empty_outcome():
    # The search, the enumeration and the reference walk give one answer.
    inst, params = conflict_instance()
    blank = replace(inst, components=())
    empty = SearchOutcome((), None, params.base_threshold, 0)
    for search in (search_local_rules, exhaustive_rules, reference_search):
        assert search(blank, params) == empty


def test_single_class_training_raises():
    # The class check comes first: without components too, no score exists.
    inst, params = conflict_instance()
    single_class = replace(inst, class_bits=0)
    for broken in (single_class, replace(single_class, components=())):
        with pytest.raises(DataError, match="^training rows contain a single class$"):
            search_local_rules(broken, params)


def test_search_matches_reference_on_random_instances():
    rng = random.Random(7)
    nonempty = 0
    for _ in range(60):
        inst, params = random_instance(rng)
        out = search_local_rules(inst, params)
        assert_equivalent(out, exhaustive_rules(inst, params))
        nonempty += bool(out.rules)
    assert nonempty >= 10  # the generator must not produce only trivia


def test_outcome_is_deterministic():
    inst, params = conflict_instance()
    assert search_local_rules(inst, params).rules == search_local_rules(inst, params).rules


# Candidate tails against the reference walk (helpers.reference_search, the
# search before tails): the whole SearchOutcome must be identical, down to
# match bits, float qualities and nodes_visited.


def _level_heavy_instance(rng):
    """Ordered attributes in level mode only, so every component is grouped.

    The class leans on the first attribute (value <= pivot) with 15% noise,
    so rules exist and several boundary groups meet on one path.
    """
    while True:
        n_attrs = rng.randrange(2, 4)
        attrs = tuple(
            Attribute(f"o{j}", "ordered", tuple(str(v) for v in range(rng.randrange(3, 8))))
            for j in range(n_attrs)
        ) + (Attribute("c", "class", ("y", "n")),)
        pivot = rng.randrange(len(attrs[0].values))
        rows = []
        for _ in range(rng.randrange(12, 121)):
            cells = tuple(
                None if rng.random() < 0.05 else rng.randrange(len(a.values))
                for a in attrs[:-1]
            )
            lean = cells[0] is not None and cells[0] <= pivot
            rows.append(cells + (int(lean != (rng.random() < 0.15)),))
        pred = tuple(rng.randrange(len(a.values)) for a in attrs[:-1]) + (None,)
        grids = build_grids(attrs, rows, n_attrs, attrs_needing_grids(attrs, "levels"))
        inst = encode(attrs, rows, pred, n_attrs, grids, "levels")
        if 1 <= inst.n_components <= 16 and inst.n_pos and inst.n_neg:
            return inst


def _varied_case(seed: int, variant: str):
    rng = random.Random(seed)
    if variant == "level-heavy":
        inst = _level_heavy_instance(rng)
        _, params = random_instance(rng)
        return inst, params
    inst, params = random_instance(rng)
    if variant == "min_mism=0":
        params = replace(params, min_mism=0.0)
    elif variant == "keep_frac<1":
        params = replace(params, keep_frac=rng.choice((0.3, 0.6, 0.9)))
    elif variant == "shallow":
        params = replace(params, max_terms=rng.randrange(1, 4))
    elif variant == "eps>0":
        params = replace(params, eps=rng.choice((0.05, 0.2, 0.4)))
    elif variant == "pure root":
        # eps just wide enough that the whole training set counts as pure, so
        # every singleton is blocked by its parent-match drop.
        majority = max(inst.n_pos, inst.n_neg) / inst.n_rows
        params = replace(params, eps=min(0.99, 1.0 - majority + 0.01))
    return inst, params


VARIANTS = ("random", "min_mism=0", "keep_frac<1", "shallow", "eps>0", "pure root", "level-heavy")


@settings(max_examples=400, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), variant=st.sampled_from(VARIANTS))
def test_candidate_tails_match_the_reference_walk(seed, variant):
    inst, params = _varied_case(seed, variant)
    out = search_local_rules(inst, params)
    assert out == reference_search(inst, params)
    if variant == "pure root":
        assert out.rules == () and out.nodes_visited == inst.n_components


def _grouped(inst) -> bool:
    """Whether the instance holds a boundary component, hence a group."""
    return any(c.group_key for c in inst.components)


def test_varied_cases_exercise_every_path():
    """The property's instances reach groups, accepted rules and deep paths."""
    seen = {v: [0, 0, 0] for v in VARIANTS}  # grouped instances, with rules, max terms
    for seed in range(40):
        for v in VARIANTS:
            inst, params = _varied_case(seed, v)
            out = search_local_rules(inst, params)
            seen[v][0] += _grouped(inst)
            seen[v][1] += bool(out.rules)
            seen[v][2] = max([seen[v][2]] + [len(r.term_ids) for r in out.rules])
    assert seen["level-heavy"][0] == 40
    assert all(seen[v][1] >= 5 for v in VARIANTS if v != "pure root")
    assert seen["pure root"][1] == 0
    assert seen["level-heavy"][2] >= 2 and seen["min_mism=0"][2] >= 3


# The same walk against the reference on instances shaped like the
# benchmark's: deeper paths, more boundary groups and more rows than the
# random instances above reach. Besides the default parameters, eps=0.2
# makes drops pure within eps without being single-class, and min_mism=0
# lets every term that excludes a row pass the redundancy test.


def _data(name):
    return load_dataset(str(ROOT / "data" / f"{name}.csv"), str(ROOT / "data" / f"{name}.schema"))


def _fold_rows(name, mode):
    """The rows of the seed-1 first fold, encoded as 3-fold CV does."""
    d = _data(name)
    fold = stratified_kfold(d, 3, 1)[0]
    held = frozenset(fold)
    training = [row for i, row in enumerate(d.rows) if i not in held]
    encode_query = query_encoder(d, training, mode)
    return [encode_query(d.rows[row]) for row in fold]


def _tictactoe_level_rows(rows=(0, 157, 420, 663, 901)):
    d = _data("tictactoe")
    every_cell = {i: "levels" for i in range(9)}
    return [encode_row(d, row, "levels", every_cell) for row in rows]


def _loocv_continuous_rows(rows=range(0, 400, 10)):
    d = parse_dataset(*synth.make_continuous(2))
    encode_query = query_encoder(d, d.rows, "levels")  # as leave-one-out shares it
    return [encode_query(d.rows[row], row) for row in rows]


WORKLOADS = {
    "monks1": lambda: _fold_rows("monks1", "levels"),
    "monks2": lambda: _fold_rows("monks2", "levels"),
    "monks3": lambda: _fold_rows("monks3", "levels"),
    "tictactoe-exact": lambda: _fold_rows("tictactoe", "exact"),
    "tictactoe-levels": _tictactoe_level_rows,
    "loocv-continuous": _loocv_continuous_rows,
}
WORKLOAD_PARAMS = {
    "": QualityParams(),
    "eps=0.2": QualityParams(eps=0.2),
    "min_mism=0": QualityParams(min_mism=0.0),
}


@pytest.mark.parametrize(
    "workload, params",
    [
        pytest.param(w, p, id=f"{w}-{name}" if name else w)
        for name, p in WORKLOAD_PARAMS.items()
        for w in WORKLOADS
    ],
)
def test_workload_instances_match_the_reference_walk(workload, params):
    insts = WORKLOADS[workload]()
    grouped = accepted = 0
    for inst in insts:
        out = search_local_rules(inst, params)
        assert out == reference_search(inst, params)
        grouped += _grouped(inst)
        accepted += bool(out.rules)
    # eps=0.2 cuts more paths at a pure-enough node: monks2 accepts on 23 of 145 rows
    assert accepted >= len(insts) // (2 if params == QualityParams() else 8)
    if workload != "tictactoe-exact":  # equality components form no boundary group
        assert grouped == len(insts)
