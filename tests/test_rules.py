"""Contingency counting, target selection, quality values, floors.

Frozen oracle values (hand-counted before implementation):

  10 training rows, 6 positive / 4 negative; rule matches 5 rows, 4 of them
  positive; predicted class positive, weight 0.75:
    exclusion 3/4, coverage 4/6
    quality = 0.75 * 0.75 + 0.25 * (2/3) = 0.72916666...

  conflict construction: 100 rows, 50/50 split, rule matches everything,
  weight 0.5: exclusion 0, coverage 1 -> quality 0.5.

  weight 0.75, min_cover 0.08: base threshold 0.77; per-class probability
  floor = 0.08 * 0.5 = 0.04 for an even split; count floor for a class with
  100 rows = 8 (the count-8 perfect rule sits exactly on the threshold).
"""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import linear_min_cover_count
from localrules import rules
from localrules.errors import BadParams, DataError


def test_contingency_examples():
    t = rules.contingency(0b1111, 0b0011, 4)
    assert (t.n_tt, t.n_tf, t.n_ft, t.n_ff) == (2, 2, 0, 0)
    t = rules.contingency(0, 0b0011, 4)
    assert (t.n_tt, t.n_tf) == (0, 0)
    assert (t.n_ft, t.n_ff) == (2, 2)


def test_contingency_length_guard():
    with pytest.raises(DataError, match="^bit vector longer than 4 rows$"):
        rules.contingency(0b10000, 0b1, 4)
    with pytest.raises(DataError, match="^bit vector longer than 4 rows$"):
        rules.contingency(0b1, 0b10000, 4)


def test_contingency_against_naive_recount():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(1, 64)
        match = rng.getrandbits(n)
        cls = rng.getrandbits(n)
        t = rules.contingency(match, cls, n)
        n_tt = sum(1 for r in range(n) if match >> r & 1 and cls >> r & 1)
        n_tf = sum(1 for r in range(n) if match >> r & 1 and not cls >> r & 1)
        n_ft = sum(1 for r in range(n) if not match >> r & 1 and cls >> r & 1)
        assert (t.n_tt, t.n_tf, t.n_ft, t.n_ff) == (n_tt, n_tf, n_ft, n - n_tt - n_tf - n_ft)


def test_select_target():
    assert rules.select_target(rules.Contingency(4, 1, 0, 0)) is True
    assert rules.select_target(rules.Contingency(1, 4, 0, 0)) is False
    # tie on the match set -> majority class
    assert rules.select_target(rules.Contingency(2, 2, 4, 2)) is True
    assert rules.select_target(rules.Contingency(2, 2, 2, 4)) is False
    # full tie -> positive
    assert rules.select_target(rules.Contingency(2, 2, 3, 3)) is True
    # empty match -> majority
    assert rules.select_target(rules.Contingency(0, 0, 6, 4)) is True
    assert rules.select_target(rules.Contingency(0, 0, 4, 6)) is False


def test_quality_hand_example():
    t = rules.Contingency(4, 1, 2, 3)
    q = rules.quality(t, True, 0.75)
    assert abs(q - 0.7291666666666667) < 1e-12
    assert q == 0.75 * (3 / 4) + 0.25 * (4 / 6)


def test_quality_conflict_combined_rule_value():
    t = rules.contingency((1 << 100) - 1, (1 << 50) - 1, 100)
    target = rules.select_target(t)  # 50/50 tie -> positive
    assert target is True
    assert rules.quality(t, target, 0.5) == 0.5


def test_quality_empty_match_is_weight():
    t = rules.contingency(0, 0b0011, 5)
    assert rules.quality(t, True, 0.75) == 0.75
    assert rules.quality(t, True, 0.5) == 0.5


def test_quality_extremes_in_weight():
    t = rules.Contingency(3, 2, 1, 4)
    # weight 1: pure exclusion ratio; weight 0: pure coverage ratio
    assert rules.quality(t, True, 1.0) == 4 / 6
    assert rules.quality(t, True, 0.0) == 3 / 4


def test_perfectly_correct_rule_identity():
    for cover_count, class_total, weight in [(3, 10, 0.75), (1, 7, 0.3), (5, 5, 0.9)]:
        t = rules.Contingency(cover_count, 0, class_total - cover_count, 6)
        q = rules.quality(t, True, weight)
        assert q == weight + (1 - weight) * (cover_count / class_total)
        assert q == rules.score_tables(class_total, weight)[2][cover_count]


@st.composite
def _match_counts(draw):
    n_pos = draw(st.integers(1, 500))
    n_neg = draw(st.integers(1, 500))
    return draw(st.integers(0, n_pos)), draw(st.integers(0, n_neg)), n_pos, n_neg


@settings(max_examples=400, deadline=None)
@given(_match_counts(), st.sampled_from((0.0, 1.0)) | st.floats(0, 1))
@example((0, 0, 7, 3), 0.75)  # empty match: the tie goes to the larger class
@example((0, 0, 3, 7), 0.75)
@example((4, 4, 10, 10), 0.5)  # tie within the match and overall
@example((4, 4, 9, 12), 0.9)
@example((5, 0, 5, 8), 1.0)
@example((0, 8, 5, 8), 0.0)
def test_count_quality_is_quality_bit_for_bit(counts, weight):
    n_tt, n_tf, n_pos, n_neg = counts
    table = rules.Contingency(n_tt, n_tf, n_pos - n_tt, n_neg - n_tf)
    chosen = rules.select_target(table)
    for target in (chosen, not chosen):
        got = rules.count_quality(n_tt, n_tf, n_pos, n_neg, target, weight)
        assert got.hex() == rules.quality(table, target, weight).hex()
        # The operation order the pinned reports were computed with.
        excl, cover = (table.n_ff / n_neg, n_tt / n_pos) if target else (
            table.n_ft / n_pos, n_tf / n_neg
        )
        assert got.hex() == (weight * excl + (1 - weight) * cover).hex()
        # The search's scores: one entry of each per-count half, added.
        ex_pos, cov_pos, _ = rules.score_tables(n_pos, weight)
        ex_neg, cov_neg, _ = rules.score_tables(n_neg, weight)
        summed = ex_neg[n_tf] + cov_pos[n_tt] if target else ex_pos[n_tt] + cov_neg[n_tf]
        assert summed.hex() == got.hex()
    perfect = rules.score_tables(n_pos, weight)[2][n_tt]
    assert perfect.hex() == rules.count_quality(n_tt, 0, n_pos, 1, True, weight).hex()


def test_quality_degenerate_distribution():
    with pytest.raises(DataError, match="^both class values need training rows$"):
        rules.quality(rules.Contingency(2, 0, 3, 0), True, 0.75)
    with pytest.raises(DataError, match="^both class values need training rows$"):
        rules.quality(rules.Contingency(0, 2, 0, 3), True, 0.75)


@settings(max_examples=150, deadline=None)
@given(st.tuples(st.integers(0, 40), st.integers(0, 40), st.integers(0, 40), st.integers(0, 40)),
       st.floats(0, 1), st.booleans())
def test_quality_bounds(counts, weight, target):
    t = rules.Contingency(*counts)
    if t.n_pos == 0 or t.n_neg == 0:
        return
    assert 0.0 <= rules.quality(t, target, weight) <= 1.0


def test_quality_invariant_under_row_permutation():
    rng = random.Random(3)
    n = 40
    match = rng.getrandbits(n)
    cls = rng.getrandbits(n)
    base = rules.quality(rules.contingency(match, cls, n), True, 0.75)
    for _ in range(20):
        perm = list(range(n))
        rng.shuffle(perm)
        pm = sum(((match >> i) & 1) << p for i, p in enumerate(perm))
        pc = sum(((cls >> i) & 1) << p for i, p in enumerate(perm))
        assert rules.quality(rules.contingency(pm, pc, n), True, 0.75) == base


def test_make_rule():
    r = rules.make_rule((1, 3), 0b0111, 0b0011, 4, 0.75)
    assert r.term_ids == (1, 3)
    assert r.target is True
    assert (r.cover_count, r.class_total) == (2, 2)
    assert r.correctness == 2 / 3
    assert r.quality == rules.quality(r.table, True, 0.75)


def test_params_defaults_and_base_threshold():
    p = rules.QualityParams()
    assert (p.weight, p.min_cover, p.min_mism) == (0.75, 0.08, 0.02)
    assert (p.max_terms, p.keep_frac, p.eps) == (8, 1.0, 0.0)
    assert p.base_threshold == 0.75 + 0.25 * 0.08  # 0.77


def test_params_validation():
    with pytest.raises(BadParams):
        rules.QualityParams(weight=1.5)
    with pytest.raises(BadParams):
        rules.QualityParams(min_cover=-0.1)
    with pytest.raises(BadParams):
        rules.QualityParams(keep_frac=0.0)
    with pytest.raises(BadParams):
        rules.QualityParams(max_terms=0)
    with pytest.raises(BadParams):
        rules.QualityParams(eps=1.0)
    # zero floors are legal: they disable pruning without changing acceptance
    rules.QualityParams(min_cover=0.0, min_mism=0.0)


def test_floor_identity_and_counts():
    p = rules.QualityParams(weight=0.75, min_cover=0.08, min_mism=0.02)
    # probability identity: (base - weight) * P / (1 - weight) == min_cover * P
    for share in (0.5, 0.3, 0.9):
        derived = (p.base_threshold - p.weight) * share / (1 - p.weight)
        assert abs(derived - p.min_cover * share) < 1e-12
        assert abs(p.min_cover * share - 0.08 * share) < 1e-15
    floor_pos = rules.min_cover_count(p.base_threshold, 100, p.weight)
    floor_neg = rules.min_cover_count(p.base_threshold, 50, p.weight)
    mism_pos, mism_neg = rules.mismatch_floors(p, 100, 50)
    # a perfect rule covering exactly 8 of 100 sits on the threshold and is kept
    assert floor_pos == 8
    perfect = rules.score_tables(100, 0.75)[2]
    assert perfect[8] >= p.base_threshold
    assert perfect[7] < p.base_threshold
    assert floor_neg == 4
    assert (mism_pos, mism_neg) == (0.02 * 100, 0.02 * 50)


def test_floor_full_coverage_limit():
    # min_cover = 1: only full-coverage perfect rules reach the threshold
    p = rules.QualityParams(min_cover=1.0)
    floor_pos = rules.min_cover_count(p.base_threshold, 10, p.weight)
    floor_neg = rules.min_cover_count(p.base_threshold, 7, p.weight)
    assert (floor_pos, floor_neg) == (10, 7)


def test_floor_scan_handles_unreachable_threshold():
    assert rules.min_cover_count(2.0, 10, 0.75) == 11


@st.composite
def _floor_cases(draw):
    """(threshold, class_total, weight); thresholds often sit on a count's score."""
    total = draw(st.integers(1, 400))
    weight = draw(st.sampled_from((0.0, 1.0)) | st.floats(0, 1))
    on = rules.count_quality(draw(st.integers(0, total)), 0, total, 1, True, weight)
    threshold = draw(
        st.sampled_from((on, math.nextafter(on, -math.inf), math.nextafter(on, math.inf)))
        | st.floats(0, 2)
    )
    return threshold, total, weight


@settings(max_examples=500, deadline=None)
@given(_floor_cases())
@example((0.77, 100, 0.75))  # count 8 sits exactly on the threshold
@example((math.nextafter(0.77, 1), 100, 0.75))
@example((1.0, 10, 1.0))  # weight 1: every count scores 1.0
@example((math.nextafter(1.0, 2), 10, 1.0))  # unreachable
@example((0.0, 10, 0.0))  # weight 0: count 0 scores 0.0
def test_min_cover_count_equals_the_linear_scan(case):
    # min_cover_count bisects the cached perfect-score table; the scan
    # scores a perfect rule with count_quality count by count.
    assert rules.min_cover_count(*case) == linear_min_cover_count(*case)


def test_format_rule():
    class FakeComponent:
        def __init__(self, display):
            self.display = display

    comps = [FakeComponent("a=1"), FakeComponent("b>2")]
    r = rules.make_rule((0, 1), 0b0111, 0b0011, 4, 0.75)
    text = rules.format_rule(r, comps, ("yes", "no"))
    assert text == "IF a=1 AND b>2 THEN class=yes  [alpha=0.625000, cover=2/2, correct=2/3]"
