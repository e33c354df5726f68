"""Combined-rule conflict resolution and fallback behavior.

Frozen conflict case (helpers.conflict_instance): the two accepted perfect
rules predict opposite classes and together cover all 100 rows, so the union
scores 0.5 * 0 + 0.5 * 1 = 0.5 at weight 0.5, below the base threshold
0.505. The prediction must fall back to the prior, which is exactly 0.5 and
breaks the tie toward the positive class.
"""

import random

from helpers import conflict_instance, random_instance, reference_encode
from localrules.data import Attribute, Dataset, split_for_prediction
from localrules.discretize import build_grids
from localrules.encode import attrs_needing_grids, encode
from localrules.evaluate import stratified_kfold
from localrules.predict import (
    SOURCE_COMBINED,
    SOURCE_PRIOR,
    combine,
    encode_row,
    mask_class,
    predict_encoded,
    predict_for_row,
    query_encoder,
)
from localrules.rules import QualityParams, contingency, quality, select_target
from localrules.search import search_local_rules

BOOL_CLASS = (Attribute("x", "bool"), Attribute("c", "class", ("pos", "neg")))


def test_conflicting_perfect_rules_fall_back_to_prior():
    inst, params = conflict_instance()
    p = predict_encoded(inst, params)
    assert len(p.rules) == 2
    assert p.combined.match_bits == (1 << 100) - 1
    assert p.combined.quality == 0.5
    assert not p.combined.accepted
    assert p.source == SOURCE_PRIOR
    assert p.target is True
    assert p.label == "pos"
    assert p.probability == 0.5


def test_single_accepted_rule_is_its_own_combination():
    rows = [(True, 0)] * 3 + [(False, 0)] * 7 + [(False, 1)] * 5
    inst = encode(BOOL_CLASS, rows, (True, None), 1)
    p = predict_encoded(inst, QualityParams())
    assert len(p.rules) == 1
    rule = p.rules[0]
    assert rule.quality == 0.75 + 0.25 * 0.3
    assert p.combined.match_bits == rule.match_bits
    assert p.combined.quality == rule.quality
    assert p.combined.accepted
    assert p.source == SOURCE_COMBINED
    assert p.label == "pos"
    assert p.probability == 1.0  # perfectly correct union


def test_no_accepted_rules_fall_back_even_at_even_prior():
    rows = (
        [(True, 0)] * 6 + [(True, 1)] * 6 + [(False, 0)] * 4 + [(False, 1)] * 4
    )
    inst = encode(BOOL_CLASS, rows, (True, None), 1)
    p = predict_encoded(inst, QualityParams())
    assert p.rules == ()
    assert p.combined.match_bits == 0
    assert not p.combined.accepted
    assert p.source == SOURCE_PRIOR
    assert p.target is True  # tie goes to the positive class
    assert p.probability == 0.5


def test_rules_matching_no_row_fall_back_to_the_prior():
    # At min_cover 0 the x=999 component, which matches no training row,
    # scores the base threshold but is not accepted: a rule must match a row.
    attrs = (Attribute("x", "continuous"), Attribute("c", "class", ("pos", "neg")))
    rows = [(float(i), i % 2) for i in range(30)]
    inst = encode(attrs, rows, (999.0, None), 1, {}, "exact")
    p = predict_encoded(inst, QualityParams(min_cover=0.0))
    assert p.rules == ()
    assert not p.combined.accepted
    assert p.source == SOURCE_PRIOR
    assert p.probability == 0.5


def test_agreeing_perfect_rules_make_a_perfect_combination():
    attrs = (
        Attribute("x1", "bool"),
        Attribute("x2", "bool"),
        Attribute("c", "class", ("pos", "neg")),
    )
    rows = (
        [(True, False, 0)] * 2
        + [(True, True, 0)] * 2
        + [(False, True, 0)] * 2
        + [(False, False, 0)] * 2
        + [(False, False, 1)] * 6
    )
    inst = encode(attrs, rows, (True, True, None), 2)
    p = predict_encoded(inst, QualityParams())
    assert len(p.rules) == 2
    assert all(r.target is True and r.correctness == 1.0 for r in p.rules)
    assert p.combined.accepted
    assert p.combined.correctness == 1.0
    assert p.combined.table.n_match == 6
    assert p.source == SOURCE_COMBINED
    assert p.probability == 1.0


def test_combined_quality_matches_direct_recount():
    rng = random.Random(37)
    for _ in range(20):
        inst, params = random_instance(rng)
        outcome = search_local_rules(inst, params)
        combined = combine(outcome.rules, inst.class_bits, inst.n_rows, params)
        expected = 0
        for rule in outcome.rules:
            expected |= rule.match_bits
        assert combined.match_bits == expected
        table = contingency(expected, inst.class_bits, inst.n_rows)
        assert combined.table == table
        assert combined.quality == quality(table, select_target(table), params.weight)


def test_union_never_shrinks_as_rules_are_added():
    rng = random.Random(41)
    for _ in range(15):
        inst, params = random_instance(rng)
        rules = search_local_rules(inst, params).rules
        previous = 0
        for k in range(len(rules) + 1):
            current = combine(rules[:k], inst.class_bits, inst.n_rows, params)
            assert previous & current.match_bits == previous
            previous = current.match_bits


def test_prediction_probability_matches_source():
    rng = random.Random(43)
    for _ in range(25):
        inst, params = random_instance(rng)
        p = predict_encoded(inst, params)
        if p.source == SOURCE_COMBINED:
            assert p.combined.accepted
            assert p.probability == p.combined.correctness
        else:
            count = inst.n_pos if p.target else inst.n_neg
            assert p.probability == count / inst.n_rows
        assert 0.0 <= p.probability <= 1.0


def _copy_class_dataset() -> Dataset:
    attrs = (
        Attribute("flag", "bool"),
        Attribute("noise", "continuous"),
        Attribute("c", "class", ("on", "off")),
    )
    rows = tuple(
        (i % 2 == 0, float(i % 7), "on" if i % 2 == 0 else "off") for i in range(24)
    )
    coded = tuple(
        (r[0], r[1], 0 if r[2] == "on" else 1) for r in rows
    )
    return Dataset(attrs, coded, 2)


def test_predict_for_row_recovers_a_copied_class():
    d = _copy_class_dataset()
    for row in (0, 1, 7):
        p = predict_for_row(d, row, QualityParams())
        assert p.source == SOURCE_COMBINED
        assert p.label == ("on" if d.rows[row][0] else "off")
        assert p.probability == 1.0


_MODE_CASES = (("levels", None), ("exact", None), ("exact", {1: "levels"}))


def test_encode_row_equals_reference_on_every_split():
    labeled = _copy_class_dataset()
    # A query row may be unlabeled (selftest encodes one this way): it is
    # held out of the index and the grid fit like any other row.
    unlabeled = Dataset(
        labeled.attributes, (mask_class(labeled.rows[0], 2),) + labeled.rows[1:], 2
    )
    for d, rows in ((labeled, range(len(labeled.rows))), (unlabeled, [0])):
        for mode, overrides in _MODE_CASES:
            level_attrs = attrs_needing_grids(d.attributes, mode, overrides)
            leave_one_out = query_encoder(d, d.rows, mode, overrides)  # shared by every row
            for row in rows:
                pred_row, training = split_for_prediction(d, row)
                grids = build_grids(d.attributes, training, 2, level_attrs)
                want = reference_encode(
                    d.attributes, training, mask_class(pred_row, 2), 2, grids, mode, overrides
                )
                assert repr(leave_one_out(d.rows[row], row)) == repr(want)
                assert repr(encode_row(d, row, mode, overrides)) == repr(want)
    # One encoder per k-fold training split serves every test row of the fold.
    d = labeled
    for mode, overrides in _MODE_CASES:
        level_attrs = attrs_needing_grids(d.attributes, mode, overrides)
        for k in (2, 3):
            for fold in stratified_kfold(d, k, 1):
                training = [r for i, r in enumerate(d.rows) if i not in fold]
                encode_query = query_encoder(d, training, mode, overrides)
                grids = build_grids(d.attributes, training, 2, level_attrs)
                for row in fold:
                    pred_row = mask_class(d.rows[row], 2)
                    want = reference_encode(
                        d.attributes, training, pred_row, 2, grids, mode, overrides
                    )
                    assert repr(encode_query(d.rows[row])) == repr(want)


def test_prediction_cannot_see_the_test_label():
    d = _copy_class_dataset()
    flipped_rows = list(d.rows)
    flipped_rows[3] = d.rows[3][:2] + (1 - d.rows[3][2],)
    flipped = Dataset(d.attributes, tuple(flipped_rows), 2)
    assert predict_for_row(d, 3, QualityParams()) == predict_for_row(
        flipped, 3, QualityParams()
    )


def test_mask_class_only_touches_the_class_cell():
    assert mask_class((1, 2, 3), 1) == (1, None, 3)
    assert mask_class((True, 0), 1) == (True, None)
