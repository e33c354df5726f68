"""Entropy-MDL cut selection.

Frozen oracle values, worked out by hand before implementation:

  values [1,2,3,10,11,12], labels [A,A,A,B,B,B]:
    single candidate-minimizing cut at (3+10)/2 = 6.5; gain = 1.0 bit;
    MDL threshold = log2(5)/6 + (log2(7) - 2)/6 = 0.52154716949...
    -> accepted, and both halves are pure: cuts == [6.5].

  values [1,2,3,4], labels [A,B,A,B]:
    best weighted entropy 0.68872 (tie 1.5 vs 3.5, leftmost), gain 0.31128;
    MDL threshold = log2(3)/4 + (log2(7) - 2 + 2*0.91830)/4 = 1.05723
    -> rejected: cuts == [].

  24 values 1..24, labels 6xA, 12xB, 6xA:
    top level ties at 6.5 and 18.5 (weighted entropy 0.68872); leftmost wins;
    gain 0.31128 > threshold 0.29865 -> accept 6.5; right segment then
    accepts 18.5 (gain 0.91830 > 0.28101): cuts == [6.5, 18.5].
"""

import random
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from localrules import discretize
from localrules.data import Attribute, Dataset, parse_dataset, split_for_prediction
from localrules.errors import DataError

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import synth  # noqa: E402  (found through the path entry above)


def test_hand_example_single_cut():
    cuts = helpers.entropy_mdl_cuts([1, 2, 3, 10, 11, 12], [0, 0, 0, 1, 1, 1])
    assert cuts == [6.5]


def test_alternating_labels_rejected_by_mdl():
    assert helpers.entropy_mdl_cuts([1, 2, 3, 4], [0, 1, 0, 1]) == []


def test_two_block_boundaries():
    values = [float(v) for v in range(1, 25)]
    labels = [0] * 6 + [1] * 12 + [0] * 6
    assert helpers.entropy_mdl_cuts(values, labels) == [6.5, 18.5]


def test_pure_labels_give_no_cuts():
    assert helpers.entropy_mdl_cuts([1, 2, 3, 4], [0, 0, 0, 0]) == []


def test_equal_values_give_no_cuts():
    assert helpers.entropy_mdl_cuts([7, 7, 7, 7], [0, 1, 0, 1]) == []


def test_three_label_values_raise():
    with pytest.raises(DataError, match="^entropy cuts need at most 2 label values, got 3$"):
        helpers.entropy_mdl_cuts([1.0, 2.0, 3.0], [0, 1, 2])


def test_input_order_is_irrelevant():
    rng = random.Random(7)
    values = [float(v) for v in range(1, 25)]
    labels = [0] * 6 + [1] * 12 + [0] * 6
    expected = helpers.entropy_mdl_cuts(values, labels)
    for _ in range(10):
        pairs = list(zip(values, labels))
        rng.shuffle(pairs)
        got = helpers.entropy_mdl_cuts([v for v, _ in pairs], [g for _, g in pairs])
        assert got == expected


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-50, 50), st.integers(0, 1)),
        min_size=2,
        max_size=40,
    )
)
def test_cut_structure_properties(pairs):
    values = [float(v) for v, _ in pairs]
    labels = [g for _, g in pairs]
    cuts = helpers.entropy_mdl_cuts(values, labels)
    assert cuts == sorted(cuts)
    assert len(set(cuts)) == len(cuts)
    distinct = sorted(set(values))
    for c in cuts:
        # Strictly inside the observed range, never on an observed value,
        # and between two adjacent distinct values.
        assert distinct[0] < c < distinct[-1]
        assert c not in distinct
    # Bound: no more cuts than class-boundary points of the sorted sequence.
    ordered = sorted(zip(values, labels), key=lambda p: p[0])
    boundaries = sum(
        1 for i in range(len(ordered) - 1) if ordered[i][1] != ordered[i + 1][1]
    )
    assert len(cuts) <= boundaries


# Values that stress the scan: heavy ties, signed zeros, the subnormal
# extremes and values whose halves or midpoints sit at the float limits.
_EXTREMES = (1e308, -1e308, 1.7976931348623157e308, 5e-324, -5e-324, 0.0, -0.0)
_VALUES = st.one_of(
    st.integers(-3, 3).map(float),
    st.sampled_from(_EXTREMES),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _assert_same_cuts(values, labels):
    got = helpers.entropy_mdl_cuts(values, labels)
    want = helpers.reference_cuts(values, labels)
    assert got == want
    assert list(map(repr, got)) == list(map(repr, want))  # signed zeros too


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_VALUES, st.integers(0, 1)), min_size=2, max_size=60))
def test_cuts_equal_reference_exactly(pairs):
    values = [v for v, _ in pairs]
    _assert_same_cuts(values, [g for _, g in pairs])
    _assert_same_cuts(values, ["neg" if g else "pos" for _, g in pairs])


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(0, 1), min_size=1, max_size=30),
    st.integers(1, 3),
)
def test_mirrored_labels_tie_break_like_reference(half, repeat):
    # A mirrored label sequence makes mirrored cuts score exactly alike, so
    # the leftmost-wins tie break decides; repeats add ties within values.
    labels = half + half[::-1]
    values = [float(i // repeat) for i in range(len(labels))]
    _assert_same_cuts(values, labels)


def _continuous_dataset(n=48, seed=3):
    rng = random.Random(seed)
    attrs = (
        Attribute("x1", "continuous"),
        Attribute("x2", "continuous"),
        Attribute("o", "ordered", ("a", "b", "c")),
        Attribute("c", "class", ("y", "n")),
    )
    rows = []
    for _ in range(n):
        x1 = float(rng.randrange(12))
        x2 = round(rng.gauss(0.0, 1.0), 1) if rng.random() > 0.1 else None
        g = int((x1 < 4 or x1 > 8) != (rng.random() < 0.1))
        rows.append((x1, x2, rng.randrange(3), g))
    return Dataset(attrs, tuple(rows), 3)


def test_build_grids_equal_reference_on_every_leave_one_out_split():
    d = _continuous_dataset()
    fitter = discretize.GridFitter(d.attributes, d.rows, d.class_col)
    for i in range(len(d.rows)):
        _, training = split_for_prediction(d, i)
        grids = discretize.build_grids(d.attributes, training, d.class_col, [0, 1, 2])
        assert fitter.grids([0, 1, 2], i) == grids
        assert grids[2] == (0, 1, 2)
        for attr in (0, 1):
            pairs = [(r[attr], r[d.class_col]) for r in training if r[attr] is not None]
            want = helpers.reference_cuts([v for v, _ in pairs], [g for _, g in pairs])
            assert grids[attr] == tuple(want)
        assert grids[0]  # the interval planted on x1 is cut on every split


_XC = (Attribute("x", "continuous"), Attribute("c", "class", ("y", "n")))


def _assert_fitter_matches_every_split(cells):
    """GridFitter with each row held out == build_grids and the reference on the rest."""
    rows = tuple((v, g) for v, g in cells)
    fitter = discretize.GridFitter(_XC, rows, 1)
    for held_out in [None, *range(len(rows))]:
        rest = [r for i, r in enumerate(rows) if i != held_out]
        got = fitter.grids([0], held_out)[0]
        split = discretize.build_grids(_XC, rest, 1, [0])[0]
        known = [(v, g) for v, g in rest if v is not None]
        want = () if len(known) < 2 else tuple(
            helpers.reference_cuts([v for v, _ in known], [g for _, g in known])
        )
        assert got == split == want, held_out
        assert repr(got) == repr(split) == repr(want), held_out


# Adjacent floats: 5e-324 and 1e-323 have no midpoint strictly between them,
# so they share a value group with several distinct values.
_TINY = (5e-324, 1e-323, 1.5e-323, 2e-323)


# Columns with few distinct values and a planted threshold (one label in ten
# flipped): mixed tie groups on both sides of cuts the MDL rule accepts.
def _planted(t, n, rng):
    values = [rng.randrange(10) for _ in range(n)]
    return [(float(v), int((v >= t) != (rng.random() < 0.1))) for v in values]


_PLANTED = st.builds(
    _planted, st.integers(1, 8), st.integers(2, 60), st.randoms(use_true_random=False)
)


# Drawn columns: any values, missing ones included, or a planted threshold.
_COLUMNS = st.one_of(
    st.lists(
        st.tuples(st.one_of(_VALUES, st.sampled_from(_TINY), st.none()), st.integers(0, 1)),
        min_size=1,
        max_size=40,
    ),
    _PLANTED,
)


@settings(max_examples=300, deadline=None)
@given(_COLUMNS)
@example([(1.0, 0), (2.0, 0), (3.0, 1)])  # single-class once row 2 is out
@example([(1.0, 0), (None, 1), (2.0, 1)])  # fewer than 2 known values left
@example([(v, i % 2) for i, v in enumerate([1.0, 2.0, 2.0, 3.0, 4.0, 4.0, 5.0] * 2)])
@example([(v, g) for v, g in zip(_TINY * 2, [0, 1, 1, 0, 1, 0, 0, 1])])
@example([(-0.0, 0), (0.0, 1), (-5e-324, 1), (5e-324, 0), (1e308, 1), (-1e308, 0)])
@example(  # with row 3 out, the lowest cut lies between two mixed groups, one of them its own
    [
        (float(v), g)
        for v, g in zip(
            [5, 3, 7, 7, 8, 7, 6, 0, 5, 1, 7, 8, 7, 8, 1, 4, 5, 9, 8, 0, 3, 8, 8, 0, 5],
            [0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0],
        )
    ]
)
@example(  # with row 5 out, a gap before its group and one after it tie lowest
    list(zip([0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 3.0, 4.0, 4.0, 6.0, 7.0],
             [1, 1, 1, 1, 0, 0, 1, 0, 0, 0, 0]))
)
@example(  # with row 7 out, two gaps before its group tie lowest
    [(float(v), g) for v, g in enumerate([0, 0, 0, 0, 1, 0, 1, 1, 1, 1, 1])]
)
@example(  # a gap next to row 5's group ties the lowest before it, next to row 4's after it
    list(zip([0.0, 0.0, 1.0, 1.0, 2.0, 3.0, 3.0, 4.0, 4.0, 8.0, 9.0],
             [1, 1, 1, 1, 0, 0, 1, 0, 0, 0, 0]))
)
@example(  # right of the label-1 run no side holds a 1: NaN entries in the label-1 tables
    [(float(v), int(4 <= v < 10)) for v in range(1, 15)]
)
def test_grid_fitter_equals_every_leave_one_out_split(cells):
    _assert_fitter_matches_every_split(cells)


def _screened_column(cells):
    """The _Column of cells' known values, with each position's reference held-out cuts."""
    known = [(v, g) for v, g in cells if v is not None]
    values, labels = [v for v, _ in known], [g for _, g in known]
    held_out = [
        tuple(helpers.reference_cuts(values[:p] + values[p + 1 :], labels[:p] + labels[p + 1 :]))
        for p in range(len(values))
    ]
    return discretize._Column(values, labels), held_out


# Columns built around one row each, which the screen must flag: leaving it
# out changes the cuts.
# Rows 0 and 1 border the cut at 4.0; without row 0 it moves to 5.0.
_NEXT_TO_CUT = [(6.0, 1), (2.0, 0), (8.0, 1)]
# Without row 44 its group empties, and the merged gap, at 44.0, is cut.
# Distinct values in runs of one label: 9 of label 0, then 2 of label 1, ...
_MERGED = [
    (float(v), g)
    for v, g in enumerate(
        g for g, size in [(0, 9), (1, 2), (0, 10), (1, 1), (0, 5), (1, 11), (0, 1), (1, 6), (0, 13)]
        for _ in range(size)
    )
]
# The range left of 3.5, cut at 0.5, is single-class without row 0.
_SINGLE_CLASS = [(float(v), int(1 <= v <= 3)) for v in range(12)]
# Rows 2..6 keep the lowest gap, 4.5, but without one of them MDL accepts it.
_VERDICT = [(3.0, 1)] + [(float(v), 0) for v in range(6, 12)]
# Without row 3 the group {0.0, 5e-324, 1e-323} parts at 5e-324.
_REFIT = [(0.0, 0)] * 3 + [(5e-324, 1)] + [(1e-323, 1)] * 3
# Without row 10, a gap left of its group ties the lowest gap right of it.
_TIED = list(
    zip(
        [float(v) for v in range(23)] + [float(v) for v in range(26, 38)],
        [0] * 9 + [1, 0, 1, 0, 0] + [1] * 9 + [0] * 12,
    )
)
_FLAGGED = [
    (_NEXT_TO_CUT, 0), (_MERGED, 44), (_SINGLE_CLASS, 0), (_VERDICT, 2), (_REFIT, 3), (_TIED, 10)
]


@settings(max_examples=300, deadline=None)
@given(_COLUMNS)
@example(_NEXT_TO_CUT)
@example(_MERGED)
@example(_SINGLE_CLASS)
@example(_VERDICT)
@example(_REFIT)
@example(_TIED)
@example(  # right of the label-1 run no side holds a 1: NaN entries in the label-1 tables
    [(float(v), int(4 <= v < 10)) for v in range(1, 15)]
)
def test_screen_clears_only_rows_that_keep_the_full_cuts(cells):
    col, held_out = _screened_column(cells)
    full = tuple(helpers.reference_cuts(col.values, col.labels))
    for p, cuts in enumerate(held_out):
        if col.keeps_full_cuts(p):
            assert repr(cuts) == repr(full), p
    # The screen's walk is the full fit: the cuts it keeps are the fit's.
    assert repr(col.cuts()) == repr(full)


def test_screen_examples_flag_their_rows():
    for cells, p in _FLAGGED:
        col, held_out = _screened_column(cells)
        assert not col.keeps_full_cuts(p)
        assert held_out[p] != col.cuts(), cells


def test_screen_clears_most_rows_of_a_long_synthetic_column():
    # A screen that flags every row is still correct, so only its yield
    # shows that it works. Measured on generator seed 4 (outside the pinned
    # benchmark pair 2, 3): x1 clears 357 of 389 positions (382 keep the full
    # cuts), x2 383 of 394 (393), x3 387 of 389 (389). The floor allows 5 fewer.
    d = parse_dataset(*synth.make_continuous(4))
    fitter = discretize.GridFitter(d.attributes, d.rows, d.class_col)
    floors = {"x1": 357 - 5, "x2": 383 - 5, "x3": 387 - 5}
    for attr, a in enumerate(d.attributes):
        if a.name in floors:
            col = fitter._column(attr)[0]
            cleared = sum(map(col.keeps_full_cuts, range(len(col.values))))
            assert cleared >= floors[a.name], (a.name, cleared)


def test_grid_fitter_split_cases_are_exercised():
    # Each held-out case the fitter treats apart, on a column built for it:
    # a member of a tie group, the sole member of its group (its two gaps
    # merge), the first and last sorted value, a lone value of a
    # multi-value group, and a missing value.
    values = [0.0, 1.0, 1.0, 2.0, 3.0, 3.0, 4.0, 5.0, 5e-324, 1e-323, None, 6.0]
    labels = [0, 1, 0, 1, 1, 0, 0, 1, 1, 0, 1, 0]
    _assert_fitter_matches_every_split(list(zip(values, labels)))
    col = discretize.GridFitter(_XC, tuple(zip(values, labels)), 1)._column(0)[0]
    assert col.refit  # the lone values of the group {5e-324, 1e-323}
    assert 1 in col.sizes and any(size > 1 for size in col.sizes)


def test_grid_fitter_equals_every_split_of_a_long_synthetic_column():
    # 400 rows; continuous columns of 280-380 value groups with 99-185
    # boundary gaps and pure runs of up to 33 groups, far beyond the property
    # tests' columns. Generator seed 4 lies outside the pinned benchmark pair (2, 3).
    d = parse_dataset(*synth.make_continuous(4))
    level_attrs = [i for i, a in enumerate(d.attributes) if a.kind in ("continuous", "ordered")]
    fitter = discretize.GridFitter(d.attributes, d.rows, d.class_col)
    for i in range(len(d.rows)):
        training = split_for_prediction(d, i)[1]
        grids = discretize.build_grids(d.attributes, training, d.class_col, level_attrs)
        assert fitter.grids(level_attrs, i) == grids, i


def test_grid_fitter_skips_unlabeled_rows():
    rows = ((1.0, 0), (2.0, 0), (3.0, None), (10.0, 1), (11.0, 1), (12.0, 1))
    fitter = discretize.GridFitter(_XC, rows, 1)
    labeled = rows[:2] + rows[3:]
    assert fitter.grids([0]) == fitter.grids([0], 2) == discretize.build_grids(_XC, labeled, 1, [0])


ATTRS = (
    Attribute("o", "ordered", ("low", "med", "high")),
    Attribute("x", "continuous"),
    Attribute("b", "bool"),
    Attribute("g", "nominal", ("r", "s")),
    Attribute("c", "class", ("y", "n")),
)


def test_initial_grid_ordered_uses_all_declared_values():
    assert discretize.build_grids(ATTRS, [], 4, [0]) == {0: (0, 1, 2)}


def test_initial_grid_continuous_from_cuts():
    rows = [(None, float(v), None, None, g) for v, g in
            zip([1, 2, 3, 10, 11, 12], [0, 0, 0, 1, 1, 1])]
    assert discretize.build_grids(ATTRS, rows, 4, [1]) == {1: (6.5,)}


def test_initial_grid_degenerate_cases_are_empty():
    assert discretize.build_grids(ATTRS, [(None, 5.0, None, None, 0)], 4, [1]) == {1: ()}
    rows = [(None, 5.0, None, None, 0), (None, 6.0, None, None, 0)]
    assert discretize.build_grids(ATTRS, rows, 4, [1]) == {1: ()}


def test_initial_grid_wrong_kind():
    attrs = ATTRS + (Attribute("id", "ignore"),)
    with pytest.raises(DataError, match="^attribute 'c' is class, which has no levels$"):
        discretize.build_grids(attrs, [], 4, [4])
    with pytest.raises(DataError, match="^attribute 'id' is ignore, which has no levels$"):
        discretize.build_grids(attrs, [], 4, [5])


def test_build_grids_covers_forced_unordered_kinds():
    rows = [(0, float(v), v % 2 == 0, 0, g) for v, g in
            zip([1, 2, 3, 10, 11, 12], [0, 0, 0, 1, 1, 1])]
    grids = discretize.build_grids(ATTRS, rows, 4, [0, 1, 2, 3])
    assert grids == {0: (0, 1, 2), 1: (6.5,), 2: (False, True), 3: (0, 1)}
