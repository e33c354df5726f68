"""One walk per training split: search_split against the reference walk.

search_split walks every query encoded against one training split at once,
and search_local_rules walks a lone query as a split of one, so both are
checked against the independent reference walk (helpers.reference_search),
query by query: each query must get exactly the SearchOutcome the reference
gives it, the same rules (term ids, match sets, tables, targets,
qualities), best quality, final threshold and node count, compared with ==.
The batches are k-fold test rows of the shipped datasets, continuous data
with missing cells, batches with duplicate rows and an all-? row, and small
random datasets drawn by Hypothesis, each under nine flag sets that move
the threshold, the floors, the purity slack and the depth. The walk
branches on the batch size, so a query is also walked alone and beside its
duplicate, and must get the reference's outcome in each batch. The walk
keeps the queries' node counts as fields of one int, sized by the number of
term sets a query can form, so that bound is checked too, and batches put a
count that fills its field, or one far above its neighbours', beside small
ones. Mismatch floors that are whole numbers, or one ulp off one, and a
one-class set with and without a pure drop at eps = 0 have cases of their
own.

Leave-one-out queries hold their row out of one index over all rows, and
the rows holding out one class are walked together over the index's own
bitsets. Each such query must get exactly what its row gets when encoded
over the other rows alone, with a TrainingIndex and a GridFitter of its
own: the same outcome from search_local_rules and from the reference.
"""

import random
from dataclasses import replace
from math import comb, nextafter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import hypercube_instance, reference_search
from localrules import search
from localrules.data import Attribute, Dataset, load_dataset
from localrules.discretize import GridFitter
from localrules.encode import TrainingIndex, attrs_needing_grids
from localrules.errors import DataError
from localrules.evaluate import stratified_kfold
from localrules.predict import mask_class, query_encoder
from localrules.rules import QualityParams
from localrules.search import SplitWalk, search_local_rules, search_split

DATA = Path(__file__).resolve().parents[1] / "data"

FLAG_SETS = {
    "defaults": QualityParams(),
    "eps=0.2": QualityParams(eps=0.2),
    "eps=0.05,max_terms=3": QualityParams(eps=0.05, max_terms=3),
    "keep_frac=0.5,min_mism=0": QualityParams(keep_frac=0.5, min_mism=0.0),
    "weight=0.5,min_cover=0.02": QualityParams(weight=0.5, min_cover=0.02),
    "weight=0": QualityParams(weight=0.0),
    "weight=1": QualityParams(weight=1.0),
    "max_terms=1": QualityParams(max_terms=1),
    "min_cover=0": QualityParams(min_cover=0.0),
}
EVERY_CELL = {i: "levels" for i in range(9)}  # tictactoe's nine cells


def _shipped(name):
    return load_dataset(DATA / f"{name}.csv", DATA / f"{name}.schema")


def _fold_batches(d, k, mode, overrides=None, stride=1):
    """Per fold of seed-1 k-fold CV: the queries of every stride-th test row.

    Every query is encoded as evaluate_cv encodes it.
    """
    batches = []
    for fold in stratified_kfold(d, k, seed=1):
        held = frozenset(fold)
        training = [row for i, row in enumerate(d.rows) if i not in held]
        encode_query = query_encoder(d, training, mode, overrides)
        batches.append([encode_query(d.rows[row]) for row in fold[::stride]])
    return batches


def _assert_split_walk_exact(batches, params):
    for insts in batches:
        want = [reference_search(inst, params) for inst in insts]
        assert search_split(insts, params) == want


def _assert_alone_and_paired(insts, want, params):
    """Each query, walked alone and beside its duplicate, gets its reference outcome."""
    for inst, outcome in zip(insts, want):
        assert search_split([inst], params) == [outcome]
        assert search_local_rules(inst, params) == outcome
        assert search_split([inst, inst], params) == [outcome, outcome]


# Two continuous attributes, an ordered and a bool one, and the class.
CONTINUOUS_ATTRS = (
    Attribute("x", "continuous"),
    Attribute("y", "continuous"),
    Attribute("o", "ordered", ("lo", "mid", "hi")),
    Attribute("b", "bool"),
    Attribute("c", "class", ("y", "n")),
)


def _continuous(seed, n=48):
    """CONTINUOUS_ATTRS with missing cells."""
    rng = random.Random(seed)
    rows = []
    for _ in range(n):
        x = round(rng.uniform(0, 10), 1) if rng.random() > 0.1 else None
        y = round(rng.gauss(0, 1), 1) if rng.random() > 0.2 else None
        o = rng.randrange(3) if rng.random() > 0.1 else None
        b = rng.random() < 0.5
        g = int(((x or 0) > 5) != b) ^ (rng.random() < 0.15)
        rows.append((x, y, o, b, g))
    return Dataset(CONTINUOUS_ATTRS, tuple(rows), 4)


# (dataset, mode, overrides, stride): every stride-th test row of a fold is
# in its batch at 2 and 10 folds, every row at 3 folds (the benchmark's).
# With every cell as levels the reference walk takes about 55 ms a row, so
# tictactoe then keeps a 64th of each fold at every fold count.
SHIPPED = {
    "monks1-levels": ("monks1", "levels", None, 4),
    "monks2-levels": ("monks2", "levels", None, 4),
    "monks3-levels": ("monks3", "levels", None, 4),
    "monks1-exact": ("monks1", "exact", None, 4),
    "monks2-exact": ("monks2", "exact", None, 4),
    "monks3-exact": ("monks3", "exact", None, 4),
    "tictactoe-exact": ("tictactoe", "exact", None, 4),
    "tictactoe-levels": ("tictactoe", "exact", EVERY_CELL, 64),
}


@pytest.mark.parametrize("k", [2, 3, 10])
@pytest.mark.parametrize("case", sorted(SHIPPED))
def test_split_walk_equals_the_per_query_search_on_shipped_folds(case, k):
    name, mode, overrides, stride = SHIPPED[case]
    if k == 3 and overrides is None:
        stride = 1
    batches = _fold_batches(_shipped(name), k, mode, overrides, stride)
    for params in FLAG_SETS.values():
        _assert_split_walk_exact(batches, params)


@pytest.mark.parametrize("k", [2, 3, 10])
@pytest.mark.parametrize("mode", ["levels", "exact"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_split_walk_equals_the_per_query_search_on_continuous_folds(seed, mode, k):
    batches = _fold_batches(_continuous(seed), k, mode)
    for params in FLAG_SETS.values():
        _assert_split_walk_exact(batches, params)


@pytest.mark.parametrize("mode", ["levels", "exact"])
def test_duplicate_and_all_missing_queries_get_their_own_outcome(mode):
    d = _continuous(4)
    training = d.rows[:36]
    encode_query = query_encoder(d, training, mode)
    rows = [d.rows[i] for i in (36, 37, 38, 36, 39, 37, 36)]
    blank = (None,) * len(d.attributes)
    insts = [encode_query(row) for row in rows[:3]] + [encode_query(blank)]
    insts += [encode_query(row) for row in rows[3:]]
    assert insts[3].n_components == 0
    for params in FLAG_SETS.values():
        want = [reference_search(inst, params) for inst in insts]
        got = search_split(insts, params)
        assert got == want
        assert got[3].nodes_visited == 0 and got[3].rules == ()
        _assert_alone_and_paired(insts, want, params)


def _drawn_dataset(rng):
    """Up to four attributes of any kind, missing cells, and a noisy planted rule."""
    kinds = rng.choices(("bool", "nominal", "ordered", "continuous"), k=rng.randint(1, 4))
    attrs = []
    for i, kind in enumerate(kinds):
        values = ("p", "q", "r") if kind in ("nominal", "ordered") else None
        attrs.append(Attribute(f"a{i}", kind, values))
    attrs.append(Attribute("c", "class", ("y", "n")))
    rows = []
    for _ in range(rng.randint(8, 40)):
        cells = []
        for kind in kinds:
            if rng.random() < 0.15:
                cells.append(None)
            elif kind == "bool":
                cells.append(rng.random() < 0.5)
            elif kind == "continuous":
                cells.append(float(rng.randrange(8)))
            else:
                cells.append(rng.randrange(3))
        first = cells[0]
        g = int(bool(first) and first is not None) ^ (rng.random() < 0.25)
        rows.append((*cells, g))
    return Dataset(tuple(attrs), tuple(rows), len(kinds))


def _term_sets(inst, params):
    """The number of term sets of at most max_terms of inst's components."""
    m = inst.n_components
    return sum(comb(m, k) for k in range(1, params.max_terms + 1))


@settings(max_examples=400, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(2, 4),
    mode=st.sampled_from(["levels", "exact"]),
    params=st.sampled_from(list(FLAG_SETS.values())),
)
def test_split_walk_equals_the_per_query_search_on_drawn_folds(seed, k, mode, params):
    d = _drawn_dataset(random.Random(seed))
    try:
        folds = stratified_kfold(d, k, seed=seed)
    except DataError:
        assume(False)  # a class with fewer rows than folds
    for fold in folds:
        held = frozenset(fold)
        training = [row for i, row in enumerate(d.rows) if i not in held]
        encode_query = query_encoder(d, training, mode)
        insts = [encode_query(d.rows[row]) for row in fold]
        want = [reference_search(inst, params) for inst in insts]
        # The walk packs the node counts into fields sized by this bound.
        for inst, outcome in zip(insts, want):
            assert outcome.nodes_visited <= _term_sets(inst, params)
        insts += insts[:2]  # duplicates of earlier queries
        assert search_split(insts, params) == want + want[:2]
        _assert_alone_and_paired(insts, want, params)


def test_a_count_that_fills_its_field_leaves_its_neighbours_alone():
    # Every nonempty subset of the cube's ten components is formed, so its
    # count is 2**10 - 1, the bound itself, and fills a ten-bit field.
    cube, params = hypercube_instance(10)
    blank = replace(cube, components=())
    pair = replace(cube, components=cube.components[:2])
    want = [search_local_rules(inst, params) for inst in (cube, blank, pair)]
    assert want[0].nodes_visited == _term_sets(cube, params) == 2**10 - 1
    got = search_split([cube, blank, cube, pair, cube], params)
    assert got == [want[0], want[1], want[0], want[2], want[0]]


def _known(row, cells, class_col):
    """row with every cell outside cells missing; the class is kept."""
    return tuple(v if i in cells or i == class_col else None for i, v in enumerate(row))


def test_a_high_count_row_beside_rows_of_one_or_two_known_cells():
    # With every cell as levels, row 81 forms over 16,000 term sets at the
    # defaults, while a row of one or two known cells forms a handful: a
    # carry out of, or a borrow from, the wide row's field would change a
    # neighbour's count.
    d = _shipped("tictactoe")
    fold = stratified_kfold(d, 3, seed=1)[0]
    held = frozenset(fold)
    training = [row for i, row in enumerate(d.rows) if i not in held]
    encode_query = query_encoder(d, training, "exact", EVERY_CELL)
    wide = encode_query(d.rows[81])
    known = ({4}, {0, 8}, {2}, {1, 3}, {6, 7})
    narrow = [encode_query(_known(d.rows[n], cells, d.class_col)) for n, cells in zip(fold, known)]
    insts = [narrow[0], wide, narrow[1], narrow[2], wide, wide, narrow[3], narrow[4]]
    assert wide.n_components == 27 and max(i.n_components for i in narrow) <= 6
    for params in FLAG_SETS.values():
        want = {id(inst): reference_search(inst, params) for inst in (wide, *narrow)}
        assert search_split(insts, params) == [want[id(inst)] for inst in insts]
        if params == QualityParams():
            assert want[id(wide)].nodes_visited > 16000


def test_a_single_class_split_raises_the_same_error():
    d = _continuous(5)
    training = [row for row in d.rows if row[d.class_col] == 0]
    encode_query = query_encoder(d, training, "levels")
    insts = [encode_query(row) for row in d.rows[:5]]
    with pytest.raises(DataError) as reference:
        reference_search(insts[0], QualityParams())
    for batch in (insts, insts[:1]):
        with pytest.raises(DataError) as walked:
            search_split(batch, QualityParams())
        assert str(walked.value) == str(reference.value)


def test_queries_of_two_splits_are_refused():
    batches = _fold_batches(_continuous(6), 2, "levels")
    with pytest.raises(ValueError):
        search_split(batches[0] + batches[1], QualityParams())


def test_a_split_walks_once_per_params_and_answers_only_its_queries():
    batches = _fold_batches(_continuous(7), 3, "levels")
    split = SplitWalk(batches[0])
    every_params = (QualityParams(), QualityParams(eps=0.2))
    want = {
        params: [reference_search(inst, params) for inst in batches[0]]
        for params in every_params
    }
    with mock.patch.object(search, "search_split", wraps=search.search_split) as walks:
        for params in every_params:
            for inst, outcome in zip(batches[0], want[params]):
                assert search_local_rules(inst, params, split) == outcome
        assert walks.call_count == 2
    with pytest.raises(ValueError):
        search_local_rules(batches[1][0], QualityParams(), split)



def _counted(seed, n_pos, n_neg):
    """n_pos rows of class y and n_neg of class n over CONTINUOUS_ATTRS, with missing cells."""
    rng = random.Random(seed)
    rows = []
    for g, n in ((0, n_pos), (1, n_neg)):
        for _ in range(n):
            x = round(rng.uniform(0, 8) + 2 * g, 1) if rng.random() > 0.1 else None
            y = round(rng.gauss(g, 1), 1) if rng.random() > 0.2 else None
            o = min(2, rng.randrange(3) + (rng.random() < 0.3) * g) if rng.random() > 0.1 else None
            b = rng.random() < 0.3 + 0.4 * g
            rows.append((x, y, o, b, g))
    return Dataset(CONTINUOUS_ATTRS, tuple(rows), 4)


# A mismatch count k passes the floor min_mism * n when k > floor of it, and
# at 0.0625 the floor is a whole number where a class holds 16j rows. Below
# that value by one ulp the product falls just under the whole number, and
# above it just over, so a test at the wrong side of a whole-number floor, or
# one rounding it, gets some count wrong.
INTEGRAL = (nextafter(0.0625, 0.0), 0.0625, nextafter(0.0625, 1.0))


@pytest.mark.parametrize("mode", ["levels", "exact"])
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("min_mism", INTEGRAL)
def test_whole_number_mismatch_floors_in_folds_lone_and_held_out_walks(min_mism, seed, mode):
    every_params = [
        QualityParams(min_mism=min_mism),
        QualityParams(min_mism=min_mism, eps=0.2),
        QualityParams(min_mism=min_mism, min_cover=0.02, keep_frac=0.5),
    ]
    # Three folds of 48 rows a class train on 32 rows of each.
    batches = _fold_batches(_counted(seed, 48, 48), 3, mode)
    assert {(insts[0].n_pos, insts[0].n_neg) for insts in batches} == {(32, 32)}
    # Holding out a row of 33 leaves 32 of its class, and one of 49 leaves 48.
    held_out = _held_out_batches(_counted(seed, 33, 49), mode, stride=2)
    for params in every_params:
        for insts in batches:
            want = [reference_search(inst, params) for inst in insts]
            assert search_split(insts, params) == want
            _assert_alone_and_paired(insts, want, params)
        _assert_held_out_walk_exact(held_out, params)


def _three_bools(bc_negative):
    """The queries a=b=c=T and a=c=T, b=F over three bool attributes.

    For the first, {a, b, c} matches two rows of class y, and {a, b} and
    {a, c} hold both classes. {b, c} holds only class y, unless bc_negative
    adds a row of class n to it.
    """
    attrs = (*(Attribute(name, "bool") for name in "abc"), Attribute("k", "class", ("y", "n")))
    rows = [(True, True, True, 0)] * 2 + [(False, True, True, 0), (False, False, False, 0)]
    rows += [(True, True, False, 1), (True, False, True, 1), (False, False, False, 1)]
    if bc_negative:
        rows.append((False, True, True, 1))
    d = Dataset(attrs, tuple(rows), 3)
    encode_query = query_encoder(d, d.rows, "exact")
    return encode_query((True, True, True, None)), encode_query((True, False, True, None))


@pytest.mark.parametrize("bc_negative", [False, True])
def test_a_one_class_set_is_blocked_by_a_pure_drop_at_eps_0(bc_negative):
    # {a, b, c} holds one class, so at eps = 0 its drops' purity is read: a
    # pure {b, c} blocks it, and one of both classes does not.
    inst, other = _three_bools(bc_negative)
    params = QualityParams(min_mism=0.0, keep_frac=0.5)
    want = [reference_search(inst, params), reference_search(other, params)]
    found = {rule.term_ids for rule in want[0].rules}
    assert ((0, 1, 2) in found) == bc_negative
    assert search_split([inst, other, inst], params) == [*want, want[0]]
    _assert_alone_and_paired([inst, other], want, params)


def _held_out_batches(d, mode, overrides=None, stride=1):
    """d's leave-one-out queries, one batch per held-out class, and references.

    Every row is held out of one index over all of d, as evaluate_loocv
    encodes it. Every stride-th row is also encoded over the other rows
    alone, with its own TrainingIndex and GridFitter. Returns a list of
    (batch, {position in the batch: that row's own encoding}).
    """
    encode_query = query_encoder(d, d.rows, mode, overrides)
    level_attrs = attrs_needing_grids(d.attributes, mode, overrides)
    batches = {}
    for n, row in enumerate(d.rows):
        batch, own = batches.setdefault(row[d.class_col], ([], {}))
        if n % stride == 0:
            training = d.rows[:n] + d.rows[n + 1:]
            grids = GridFitter(d.attributes, training, d.class_col).grids(level_attrs)
            index = TrainingIndex(d.attributes, training, d.class_col)
            own[len(batch)] = index.encode(mask_class(row, d.class_col), grids)
        batch.append(encode_query(row, n))
    return list(batches.values())


def _assert_held_out_walk_exact(batches, params):
    for batch, own in batches:
        got = search_split(batch, params)
        for q, inst in own.items():
            want = reference_search(inst, params)
            assert got[q] == want
            assert search_local_rules(inst, params) == want


# (dataset, mode, overrides, rows kept, stride): the rows kept are a slice
# of the shipped file, and every stride-th of them is checked.
HELD_OUT = {
    "monks1-levels": ("monks1", "levels", None, slice(None), 3),
    "monks2-levels": ("monks2", "levels", None, slice(None), 3),
    "monks3-levels": ("monks3", "levels", None, slice(None), 3),
    "tictactoe-exact": ("tictactoe", "exact", None, slice(None), 2),
    "tictactoe-levels": ("tictactoe", "exact", EVERY_CELL, slice(None, None, 16), 2),
}


@pytest.mark.parametrize("case", sorted(HELD_OUT))
def test_held_out_walk_equals_each_rows_own_split_on_shipped_data(case):
    name, mode, overrides, kept, stride = HELD_OUT[case]
    d = _shipped(name)
    d = Dataset(d.attributes, d.rows[kept], d.class_col)
    batches = _held_out_batches(d, mode, overrides, stride)
    for params in FLAG_SETS.values():
        _assert_held_out_walk_exact(batches, params)


def _interval_data(seed, n=60):
    """A planted interval on x with label noise, a noisy y, an ordered o, and
    missing cells in all three; the first six rows appear twice."""
    rng = random.Random(seed)
    attrs = (
        Attribute("x", "continuous"),
        Attribute("y", "continuous"),
        Attribute("o", "ordered", ("lo", "mid", "hi")),
        Attribute("c", "class", ("y", "n")),
    )
    rows = []
    for _ in range(n):
        x = round(rng.uniform(0, 12), 1) if rng.random() > 0.05 else None
        y = round(rng.gauss(0, 1), 1) if rng.random() > 0.15 else None
        o = rng.randrange(3) if rng.random() > 0.1 else None
        inside = 3 < x < 8 if x is not None else y is not None and y > 0
        rows.append((x, y, o, int(inside != (rng.random() < 0.1))))
    return Dataset(attrs, tuple(rows + rows[:6]), 3)


@pytest.mark.parametrize("mode", ["levels", "exact"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_held_out_walk_equals_each_rows_own_split_on_continuous_data(seed, mode):
    d = _interval_data(seed)
    # Some rows' held-out grid differs from the grid of every row.
    fitter = GridFitter(d.attributes, d.rows, d.class_col)
    full = fitter.grids([0, 1])
    assert full[0] and any(fitter.grids([0, 1], n) != full for n in range(len(d.rows)))
    batches = _held_out_batches(d, mode)
    for params in FLAG_SETS.values():
        _assert_held_out_walk_exact(batches, params)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    mode=st.sampled_from(["levels", "exact"]),
    params=st.sampled_from(list(FLAG_SETS.values())),
)
def test_held_out_walk_equals_each_rows_own_split_on_drawn_data(seed, mode, params):
    d = _drawn_dataset(random.Random(seed))
    labels = [row[d.class_col] for row in d.rows]
    assume(min(labels.count(0), labels.count(1)) >= 2)  # no single-class split
    for batch, own in _held_out_batches(d, mode):
        want = [search_local_rules(own[q], params) for q in range(len(batch))]
        assert want == [reference_search(own[q], params) for q in range(len(batch))]
        batch += batch[:2]  # duplicates of earlier queries
        assert search_split(batch, params) == want + want[:2]


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    mode=st.sampled_from(["levels", "exact"]),
    params=st.sampled_from(list(FLAG_SETS.values())),
)
def test_a_lone_held_out_query_gets_the_outcome_of_its_plain_encoding(seed, mode, params):
    # Alone, a held-out query is walked over the index's bitsets with its
    # row counted out, as in its batch, not as its plain() encoding.
    d = _drawn_dataset(random.Random(seed))
    labels = [row[d.class_col] for row in d.rows]
    assume(min(labels.count(0), labels.count(1)) >= 2)  # no single-class split
    encode_query = query_encoder(d, d.rows, mode)
    for n, row in enumerate(d.rows):
        inst = encode_query(row, n)
        assert search_split([inst], params) == [search_local_rules(inst.plain(), params)]


def test_held_out_queries_of_two_classes_or_beside_plain_ones_are_refused():
    d = _continuous(6)
    encode_query = query_encoder(d, d.rows, "levels")
    pos, neg = ([n for n, row in enumerate(d.rows) if row[d.class_col] == g] for g in (0, 1))
    plain = encode_query(d.rows[0])
    held = [encode_query(d.rows[n], n) for n in (pos[0], pos[1], neg[0])]
    not_its_row = encode_query(d.rows[pos[0]], pos[1])
    refused = (
        held, held[1:], [held[0], plain], [plain, held[0]], [held[0], not_its_row], [not_its_row]
    )
    for batch in refused:
        with pytest.raises(ValueError):
            search_split(batch, QualityParams())
    assert search_split(held[:2], QualityParams())  # one class: walked
