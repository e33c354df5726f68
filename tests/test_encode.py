"""Component construction: match bitmasks, boundary sides, canonical order."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localrules import encode
from localrules.data import Attribute, Dataset
from localrules.discretize import GridFitter
from localrules.errors import DataError
from localrules.predict import query_encoder

from helpers import component_truth_ladder, reference_encode

CONT = (Attribute("x", "continuous"), Attribute("c", "class", ("y", "n")))
GRID = {0: (1.0, 3.0, 5.0)}
TRAIN = [(0.5, 0), (2.0, 1), (4.0, 0), (6.0, 1), (None, 0)]


def bits(*rows):
    out = 0
    for r in rows:
        out |= 1 << r
    return out


def test_grid_135_point_above_two_levels():
    # prediction value 4: predicate truths (F,F,T) -> two lower, one upper
    inst = encode.encode(CONT, TRAIN, (4.0, None), 1, GRID)
    assert [c.kind for c in inst.components] == ["lower", "lower", "upper"]
    assert [c.display for c in inst.components] == ["x>1.0", "x>3.0", "x<=5.0"]
    lower0, lower1, upper2 = inst.components
    assert lower0.match_bits == bits(1, 2, 3)  # value > 1
    assert lower1.match_bits == bits(2, 3)  # value > 3
    assert upper2.match_bits == bits(0, 1, 2)  # value <= 5
    # the missing training value (row 4) matches nothing
    for c in inst.components:
        assert not c.match_bits >> 4 & 1


def test_grid_135_point_below_everything():
    inst = encode.encode(CONT, TRAIN, (0.0, None), 1, GRID)
    assert [c.kind for c in inst.components] == ["upper"] * 3
    assert [c.match_bits for c in inst.components] == [bits(0), bits(0, 1), bits(0, 1, 2)]


def test_nominal_exact_match_bits():
    attrs = (Attribute("g", "nominal", ("red", "blue")), Attribute("c", "class", ("y", "n")))
    train = [(0, 0), (1, 1), (0, 0)]
    inst = encode.encode(attrs, train, (0, None), 1)
    (comp,) = inst.components
    assert comp.match_bits == bits(0, 2)
    assert comp.display == "g=red"


def test_missing_prediction_value_suppresses_attribute():
    inst = encode.encode(CONT, TRAIN, (None, None), 1, GRID)
    assert inst.components == ()


def test_missing_training_value_mismatches_exact_component_too():
    attrs = (Attribute("b", "bool"), Attribute("c", "class", ("y", "n")))
    inst = encode.encode(attrs, [(True, 0), (None, 1)], (True, None), 1)
    assert inst.components[0].match_bits == bits(0)


def test_class_bits_and_counts():
    inst = encode.encode(CONT, TRAIN, (4.0, None), 1, GRID)
    assert inst.class_bits == bits(0, 2, 4)  # class index 0 = positive = "y"
    assert (inst.n_pos, inst.n_neg, inst.n_rows) == (3, 2, 5)
    assert inst.class_labels == ("y", "n")


def test_canonical_component_order_and_groups():
    attrs = (
        Attribute("o", "ordered", ("a", "b")),
        Attribute("x", "continuous"),
        Attribute("b", "bool"),
        Attribute("n", "nominal", ("u", "v")),
        Attribute("c", "class", ("y", "n")),
    )
    train = [(0, 1.0, True, 0, 0), (1, 4.0, False, 1, 1)]
    inst = encode.encode(
        attrs, train, (1, 3.0, True, 0, None), 4, {0: (0, 1), 1: (2.5,)}
    )
    order = [(c.attr, c.kind) for c in inst.components]
    assert order == [(2, "exact"), (3, "exact"), (0, "lower"), (0, "upper"), (1, "lower")]
    assert [c.group_key for c in inst.components] == [
        None,
        None,
        (0, "lower"),
        (0, "upper"),
        (1, "lower"),
    ]
    assert inst.components[0].display == "b=T"
    assert inst.components[2].display == "o>a"
    assert inst.components[3].display == "o<=b"
    assert inst.components[4].display == "x>2.5"


def test_exact_mode_gives_single_equality_component_per_attribute():
    attrs = (Attribute("o", "ordered", ("a", "b", "c")), Attribute("c", "class", ("y", "n")))
    inst = encode.encode(attrs, [(0, 0), (2, 1)], (2, None), 1, mode="exact")
    (comp,) = inst.components
    assert comp.kind == "exact" and comp.match_bits == bits(1)


def test_override_forces_levels_on_nominal():
    attrs = (Attribute("n", "nominal", ("u", "v", "w")), Attribute("c", "class", ("y", "n")))
    train = [(0, 0), (1, 1), (2, 0)]
    inst = encode.encode(
        attrs, train, (1, None), 1, grids={0: (0, 1, 2)}, overrides={0: "levels"}
    )
    assert [c.kind for c in inst.components] == ["lower", "upper", "upper"]
    assert [c.display for c in inst.components] == ["n>u", "n<=v", "n<=w"]


def test_warm_index_components_equal_a_cold_index_field_for_field():
    # Kept entries hold each key's bitset and display: a query encoded
    # again through a warm index, or through a fresh one, yields the same
    # components, display included.
    attrs = (
        Attribute("x", "continuous"),
        Attribute("n", "nominal", ("u", "v", "w")),
        Attribute("b", "bool"),
        Attribute("c", "class", ("y", "n")),
    )
    rows = [(float(j % 6), j % 3, j % 2 == 0, j % 4 % 2) for j in range(12)]
    grids = {0: (0.5, 2.5, 4.5), 1: (0, 1, 2)}  # n forced to levels
    pred = (3.0, 1, True, None)
    index = encode.TrainingIndex(attrs, rows, 3)
    for held_out in (None, 4):
        first = index.encode(pred, grids, held_out).components
        again = index.encode(pred, grids, held_out).components
        cold = encode.TrainingIndex(attrs, rows, 3).encode(pred, grids, held_out).components
        assert [c._asdict() for c in first] == [c._asdict() for c in cold]
        assert [c._asdict() for c in again] == [c._asdict() for c in cold]
    assert [c.display for c in cold] == ["b=T", "x>0.5", "x>2.5", "x<=4.5", "n>u", "n<=v", "n<=w"]
    assert [c.group_key for c in cold[:3]] == [None, (0, "lower"), (0, "lower")]
    with pytest.raises(AttributeError):
        cold[0].display = "b=F"  # components are immutable records


def test_missing_grid_raises():
    with pytest.raises(DataError, match="^attribute 'x' needs a level grid$"):
        encode.encode(CONT, TRAIN, (4.0, None), 1, grids={})
    with pytest.raises(DataError, match="^attribute 'x' needs a level grid$"):
        encode.encode(CONT, TRAIN, (4.0, None), 1, grids=None)


def test_empty_grid_contributes_no_components():
    inst = encode.encode(CONT, TRAIN, (4.0, None), 1, grids={0: ()})
    assert inst.components == ()


def test_attrs_needing_grids():
    attrs = (
        Attribute("o", "ordered", ("a", "b")),
        Attribute("x", "continuous"),
        Attribute("b", "bool"),
        Attribute("c", "class", ("y", "n")),
    )
    assert encode.attrs_needing_grids(attrs, "levels") == [0, 1]
    assert encode.attrs_needing_grids(attrs, "exact") == []
    assert encode.attrs_needing_grids(attrs, "exact", {0: "levels"}) == [0]
    assert encode.attrs_needing_grids(attrs, "levels", {1: "exact", 2: "levels"}) == [0, 2]


def test_truth_ladder_examples():
    above = encode.encode(CONT, TRAIN, (4.0, None), 1, GRID)
    below = encode.encode(CONT, TRAIN, (0.0, None), 1, GRID)
    assert component_truth_ladder(above.components) == (False, False, True)
    assert component_truth_ladder(below.components) == (True, True, True)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(-10, 10),
    st.lists(st.floats(-10, 10), min_size=1, max_size=6, unique=True),
)
def test_truth_ladder_is_monotone(value, levels):
    grid = tuple(sorted(levels))
    attrs = (Attribute("x", "continuous"), Attribute("c", "class", ("y", "n")))
    inst = encode.encode(
        attrs, [(0.0, 0), (1.0, 1)], (value, None), 1, grids={0: grid}
    )
    ladder = component_truth_ladder(inst.components)
    assert ladder == tuple(value <= y for y in grid)  # the l-th component holds y_l
    for a, b in zip(ladder, ladder[1:]):
        assert (not a) or b  # once true, stays true at higher levels


def _random_instance(rng):
    attrs = (
        Attribute("o", "ordered", tuple("abcdef")),
        Attribute("x", "continuous"),
        Attribute("c", "class", ("y", "n")),
    )
    n = rng.randrange(5, 40)
    rows = [
        (
            rng.randrange(6) if rng.random() > 0.1 else None,
            round(rng.uniform(0, 10), 2) if rng.random() > 0.1 else None,
            rng.randrange(2),
        )
        for _ in range(n)
    ]
    pred = (rng.randrange(6), round(rng.uniform(0, 10), 2), None)
    grids = {0: (0, 1, 2, 3, 4, 5), 1: tuple(sorted({round(rng.uniform(0, 10), 1) for _ in range(4)}))}
    return encode.encode(attrs, rows, pred, 2, grids)


def test_conjunction_collapse_bit_exact():
    # Within one attribute and side, AND of two match sets equals the match
    # set of a single component: the higher level on the lower side, the
    # lower level on the upper side.
    rng = random.Random(42)
    for _ in range(50):
        inst = _random_instance(rng)
        for cid, a in enumerate(inst.components):
            for b in inst.components[cid + 1 :]:
                if a.group_key is None or a.group_key != b.group_key:
                    continue
                # ids follow the grid, so a holds the lower level
                collapsed = b if a.kind == "lower" else a
                assert a.match_bits & b.match_bits == collapsed.match_bits


def test_exact_equals_boundary_pair():
    # For an integer-valued ordered attribute with the full grid,
    # (value = a) has the same matches as (value <= a) and not (value <= a-1).
    rng = random.Random(9)
    attrs = (Attribute("o", "ordered", tuple("pqrst")), Attribute("c", "class", ("y", "n")))
    grid = {0: (0, 1, 2, 3, 4)}
    for _ in range(30):
        rows = [(rng.randrange(5), rng.randrange(2)) for _ in range(rng.randrange(4, 30))]
        for a in range(1, 5):
            pred = (a, None)
            exact = encode.encode(attrs, rows, pred, 1, mode="exact")
            levels = encode.encode(attrs, rows, pred, 1, grids=grid)
            # one boundary component per grid level, in grid order
            lower_below = levels.components[a - 1]  # matches value > a-1
            upper_at = levels.components[a]  # matches value <= a
            assert (lower_below.kind, upper_at.kind) == ("lower", "upper")
            assert (
                exact.components[0].match_bits
                == lower_below.match_bits & upper_at.match_bits
            )


# TrainingIndex against the per-row scan reference in helpers.

_CONT_POOL = (-0.0, 0.0, 0.5, 1.0, 2.5, -3.0, 1e308, -1e308, 5e-324)


def _cells(kind):
    if kind == "bool":
        return st.booleans()
    if kind in ("nominal", "ordered"):
        return st.integers(0, 2)
    return st.sampled_from(_CONT_POOL) | st.floats(-4, 4)


def _levels(kind):
    if kind == "bool":
        return st.lists(st.booleans(), max_size=2)
    if kind in ("nominal", "ordered"):
        return st.lists(st.integers(0, 2), max_size=3)
    return st.lists(st.sampled_from(_CONT_POOL) | st.floats(-4, 4), max_size=4)


@st.composite
def _index_cases(draw):
    kinds = draw(st.lists(st.sampled_from(("bool", "nominal", "ordered", "continuous")),
                          min_size=1, max_size=4))
    attrs = [
        Attribute(f"a{j}", kind, ("p", "q", "r") if kind in ("nominal", "ordered") else None)
        for j, kind in enumerate(kinds)
    ]
    class_col = draw(st.integers(0, len(attrs)))
    attrs.insert(class_col, Attribute("c", "class", ("y", "n")))
    attrs = tuple(attrs)

    def row(label):
        cells = [
            None if a.kind == "class" else draw(st.none() | _cells(a.kind)) for a in attrs
        ]
        cells[class_col] = label
        return tuple(cells)

    rows = [row(draw(st.integers(0, 1))) for _ in range(draw(st.integers(1, 25)))]
    pred = row(None)
    mode = draw(st.sampled_from(("exact", "levels")))
    overrides = {
        i: m
        for i, a in enumerate(attrs)
        if a.kind != "class"
        and (m := draw(st.sampled_from((None, "exact", "levels")))) is not None
    }
    grids = {
        i: tuple(sorted(set(draw(_levels(attrs[i].kind)))))
        for i in encode.attrs_needing_grids(attrs, mode, overrides)
    }
    if grids and draw(st.booleans()):
        del grids[draw(st.sampled_from(sorted(grids)))]
    return attrs, rows, pred, class_col, grids, mode, overrides


def _outcome(fn):
    """fn()'s result, or its DataError's message."""
    try:
        return fn()
    except DataError as exc:
        return f"DataError: {exc}"


@settings(max_examples=300, deadline=None)
@given(_index_cases())
def test_training_index_equals_reference_scan(case):
    attrs, rows, pred, class_col, grids, mode, overrides = case
    index = encode.TrainingIndex(attrs, rows, class_col)
    n = len(rows)
    for held_out in (None, 0, n // 2, n - 1):  # one index serves every split
        training = [r for j, r in enumerate(rows) if j != held_out]
        want = _outcome(
            lambda: reference_encode(attrs, training, pred, class_col, grids, mode, overrides)
        )
        # The one-shot encode decides the level-mode attributes itself and
        # fails with the reference's message where a grid was dropped.
        one_shot = _outcome(
            lambda: encode.encode(attrs, training, pred, class_col, grids, mode, overrides)
        )
        assert repr(one_shot) == repr(want)
        if isinstance(want, str):
            continue
        # The index takes the grids' keys as the level-mode attributes. A
        # held-out query keeps the index's own bitsets, counts its training
        # split, and plain() is the encoding over the other rows.
        raw = index.encode(pred, grids, held_out)
        assert raw.held_out == held_out
        assert (raw.n_pos, raw.n_neg, raw.n_rows) == (want.n_pos, want.n_neg, want.n_rows)
        assert raw.split_class_bits == want.class_bits
        assert raw.class_bits == index.class_bits
        whole = index.encode(pred, grids)
        assert raw.components == whole.components
        got = raw.plain()
        assert got == want
        assert repr(got) == repr(want)  # signed zeros in displays
        assert [c.match_bits for c in got.components] == [
            c.match_bits for c in want.components
        ]
        assert (got.class_bits, got.n_pos, got.n_neg, got.n_rows) == (
            want.class_bits, want.n_pos, want.n_neg, want.n_rows
        )


def test_unlabeled_rows_raise_unless_held_out():
    attrs = (Attribute("b", "bool"), Attribute("c", "class", ("y", "n")))
    rows = [(True, 0), (False, None), (True, 1)]
    index = encode.TrainingIndex(attrs, rows, 1)
    inst = index.encode((True, None), held_out=1)
    assert (inst.n_rows, inst.n_pos, inst.n_neg) == (2, 1, 1)
    plain = inst.plain()
    assert (plain.n_rows, plain.class_bits, plain.components[0].match_bits) == (2, 0b01, 0b11)
    for held_out in (None, 0, 2):
        with pytest.raises(DataError, match="^row 1: training row has a missing class value$"):
            index.encode((True, None), held_out=held_out)


def test_index_keeps_no_bitsets_for_exact_continuous_queries():
    # "== v" on a continuous attribute can take a new v for every query, so
    # those bitsets are rebuilt each time; only the nominal ones are kept.
    attrs = (
        Attribute("x", "continuous"),
        Attribute("n", "nominal", ("p", "q")),
        Attribute("c", "class", ("y", "n")),
    )
    rows = [(float(j), j % 2, j % 3 % 2) for j in range(60)]
    index = encode.TrainingIndex(attrs, rows, 2)
    for j in range(60):
        inst = index.encode((float(j), j % 2, None))  # no grids: all exact
        assert inst.components[0].match_bits == 1 << j
    assert len(index._components) == 2


def test_queries_sharing_a_key_share_one_component():
    attrs = (
        Attribute("x", "continuous"),
        Attribute("n", "nominal", ("p", "q")),
        Attribute("c", "class", ("y", "n")),
    )
    rows = [(float(j), j % 2, j % 3 % 2) for j in range(6)]
    index = encode.TrainingIndex(attrs, rows, 2)
    grids = {0: (1.5, 3.5)}
    below = index.encode((1.0, 0, None), grids)
    above = index.encode((2.0, 0, None), grids)
    held = index.encode((1.0, 0, None), grids, held_out=3)
    assert [c.display for c in below.components] == ["n=p", "x<=1.5", "x<=3.5"]
    assert [c.display for c in above.components] == ["n=p", "x>1.5", "x<=3.5"]
    for j in (0, 2):  # n=p and x<=3.5: one key, one object, held out or not
        assert below.components[j] is above.components[j] is held.components[j]
    assert below.components[1] is held.components[1]
    # "== v" on a continuous attribute is rebuilt for every query.
    first, again = (index.encode((2.0, 1, None)) for _ in range(2))
    assert first.components[1] is again.components[1]  # n=q
    assert first.components[0] == again.components[0]
    assert first.components[0] is not again.components[0]


# Every query a query_encoder builds lists its components in strictly
# increasing Component.order, so the search sorts a split's union by it.


def _assert_in_canonical_order(inst):
    keys = [c.order for c in inst.components]
    assert all(a < b for a, b in zip(keys, keys[1:])), keys


@settings(max_examples=300, deadline=None)
@given(_index_cases())
def test_every_query_lists_its_components_in_increasing_order(case):
    attrs, rows, pred, class_col, _, mode, overrides = case
    d = Dataset(attrs, tuple(rows), class_col)
    encode_query = query_encoder(d, rows, mode, overrides)
    _assert_in_canonical_order(encode_query(pred))
    for n, row in enumerate(rows):
        _assert_in_canonical_order(encode_query(row))
        _assert_in_canonical_order(encode_query(row, held_out=n))


def test_held_out_queries_whose_grids_differ_keep_the_order():
    # x's entropy cut sits between the classes; holding out a row next to
    # it moves the cut, so those queries meet levels no other query has.
    attrs = (
        Attribute("x", "continuous"),
        Attribute("b", "bool"),
        Attribute("n", "nominal", ("p", "q", "r")),
        Attribute("c", "class", ("y", "n")),
    )
    rows = tuple(
        (None if j == 7 else float(j), j % 2 == 0, None if j == 4 else j % 3, int(j >= 10))
        for j in range(20)
    )
    d = Dataset(attrs, rows, 3)
    overrides = {1: "levels", 2: "levels"}
    fitter = GridFitter(attrs, rows, 3)
    full = fitter.grids([0])
    assert full[0] and any(fitter.grids([0], n) != full for n in range(len(rows)))
    encode_query = query_encoder(d, rows, "levels", overrides)
    for n, row in enumerate(rows):
        _assert_in_canonical_order(encode_query(row))
        _assert_in_canonical_order(encode_query(row, held_out=n))
