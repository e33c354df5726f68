"""Reference enumeration: per-set predicates checked without any pruning.

Frozen expectations:

* Conflict pair: 3 sets pass the group filter ({0}, {1}, {0,1}); the pair is
  rejected because dropping either term leaves the other's pure opposite-class
  match set, so only the two perfect singletons become candidates.

* One ordered attribute with values (a,b,c,d), prediction value d: levels
  0..2 sit below the prediction value (lower side, one group) and the top
  level is its own upper group, so of the 15 nonempty subsets only
  3 + 1 + 3*1 = 7 respect group exclusivity.
"""

import random
from dataclasses import replace

import pytest

from helpers import conflict_instance, random_instance
from localrules.data import Attribute
from localrules.discretize import build_grids
from localrules.encode import Component, EncodedInstance, encode
from localrules.errors import DataError
from localrules.exhaustive import MAX_COMPONENTS, exhaustive_rules
from localrules.rules import QualityParams


def test_conflict_pair_examines_three_sets_and_blocks_the_pair():
    inst, params = conflict_instance()
    out = exhaustive_rules(inst, params)
    assert out.nodes_visited == 3
    assert [r.term_ids for r in out.rules] == [(0,), (1,)]
    assert [r.quality for r in out.rules] == [1.0, 1.0]
    assert out.best_quality == 1.0
    assert out.final_threshold == 0.95


def test_group_duplicates_are_not_examined():
    attrs = (
        Attribute("o", "ordered", ("a", "b", "c", "d")),
        Attribute("c", "class", ("y", "n")),
    )
    rows = [(0, 0), (1, 1), (2, 0), (3, 1)]
    grids = build_grids(attrs, rows, 1, [0])
    inst = encode(attrs, rows, (3, None), 1, grids)
    assert inst.n_components == 4
    sides = {c.group_key for c in inst.components}
    assert sides == {(0, "lower"), (0, "upper")}
    out = exhaustive_rules(inst, QualityParams(min_cover=0.0, min_mism=0.0))
    assert out.nodes_visited == 7


def test_single_perfect_component_is_kept():
    attrs = (Attribute("x", "bool"), Attribute("c", "class", ("y", "n")))
    rows = [(True, 0)] * 3 + [(False, 1)] * 3
    inst = encode(attrs, rows, (True, None), 1)
    out = exhaustive_rules(inst, QualityParams())
    assert [r.term_ids for r in out.rules] == [(0,)]
    assert out.rules[0].quality == 1.0
    assert out.rules[0].target is True


def test_component_cap():
    comps = tuple(
        Component(attr=i, kind="exact", level=True, match_bits=1, display=f"a{i}=T")
        for i in range(MAX_COMPONENTS + 1)
    )
    inst = EncodedInstance(
        components=comps,
        n_rows=2,
        class_bits=1,
        class_labels=("y", "n"),
    )
    cap = f"^{MAX_COMPONENTS + 1} components; reference enumeration allows {MAX_COMPONENTS}$"
    with pytest.raises(DataError, match=cap):
        exhaustive_rules(inst, QualityParams())


def test_guard_errors():
    inst, params = conflict_instance()
    single_class = replace(inst, class_bits=0)
    for broken in (single_class, replace(single_class, components=())):
        with pytest.raises(DataError, match="^training rows contain a single class$"):
            exhaustive_rules(broken, params)


def test_rules_sorted_by_quality_then_ids():
    rng = random.Random(31)
    for _ in range(20):
        inst, params = random_instance(rng)
        out = exhaustive_rules(inst, params)
        keys = [(-r.quality, r.term_ids) for r in out.rules]
        assert keys == sorted(keys)
        for rule in out.rules:
            assert rule.quality >= out.final_threshold
            assert rule.quality >= params.base_threshold
