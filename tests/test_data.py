"""Dataset parsing, validation, round-trips, and prediction-point splits."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localrules import data
from localrules.errors import DataError

from helpers import serialize_csv

MINI_SCHEMA = "a: bool\nc: class {yes,no}\n"


def test_parse_minimal():
    d = data.parse_dataset("a,c\nT,yes\nF,no\n", MINI_SCHEMA)
    assert len(d.rows) == 2
    assert d.class_col == 1
    assert d.rows[0] == (True, 0)
    assert d.rows[1] == (False, 1)
    assert d.class_values == ("yes", "no")


def test_load_dataset_accepts_a_byte_order_mark(tmp_path):
    csv_path, schema_path = tmp_path / "bom.csv", tmp_path / "bom.schema"
    csv_path.write_text("\ufeffa,c\nT,yes\nF,no\n", encoding="utf-8")
    schema_path.write_text("\ufeff" + MINI_SCHEMA, encoding="utf-8")
    d = data.load_dataset(str(csv_path), str(schema_path))
    assert d == data.parse_dataset("a,c\nT,yes\nF,no\n", MINI_SCHEMA)


def test_question_mark_is_missing_in_any_column():
    d = data.parse_dataset("a,c\n?,yes\nT,no\n", MINI_SCHEMA)
    assert d.rows[0][0] is None


def test_prediction_row_class_may_be_missing_but_training_may_not():
    d = data.parse_dataset("a,c\nT,?\nF,no\n", MINI_SCHEMA)
    assert d.rows[0][1] is None
    with pytest.raises(DataError, match="^row 1: training row has a missing class value$"):
        data.parse_dataset("a,c\nT,yes\nF,?\n", MINI_SCHEMA)


def test_three_class_values_rejected():
    with pytest.raises(DataError, match="^schema line 1: class needs exactly 2 values$"):
        data.parse_schema("c: class {a,b,x}")
    # Declared binary but a third token shows up in the column.
    with pytest.raises(DataError, match="^row 1, column 'c': class value 'maybe' not among"):
        data.parse_dataset("a,c\nT,yes\nF,maybe\n", MINI_SCHEMA)


def test_schema_errors():
    with pytest.raises(DataError, match="^schema declares no class attribute$"):
        data.parse_dataset("a\nT\nF\n", "a: bool\n")
    with pytest.raises(DataError, match="^duplicate attribute name in schema$"):
        data.parse_schema("a: bool\nc: class {y,n}\na: continuous\n")
    with pytest.raises(DataError, match="^schema line 1: bool takes no value list$"):
        data.parse_schema("a: bool {x,y}\nc: class {y,n}\n")
    with pytest.raises(DataError, match="^schema line 1: nominal needs a value list$"):
        data.parse_schema("a: nominal\nc: class {y,n}\n")
    with pytest.raises(DataError, match="^schema line 1: unrecognized kind ' frobnicate'$"):
        data.parse_schema("a: frobnicate\nc: class {y,n}\n")
    with pytest.raises(DataError, match="^schema line 1: duplicate value in list$"):
        data.parse_schema("x: nominal {u,v,u}\nc: class {y,n}\n")
    with pytest.raises(DataError, match="^schema declares more than one class attribute$"):
        data.parse_schema("c: class {y,n}\nd: class {a,b}\n")


def test_header_and_arity_errors():
    with pytest.raises(DataError, match=r"^unknown column\(s\) in header: \['b'\]$"):
        data.parse_dataset("a,b\nT,yes\nF,no\n", MINI_SCHEMA)
    with pytest.raises(DataError, match="^header .* does not match schema order"):
        data.parse_dataset("c,a\nyes,T\nno,F\n", MINI_SCHEMA)
    with pytest.raises(DataError, match="^row 0: expected 2 fields, got 3$"):
        data.parse_dataset("a,c\nT,yes,extra\nF,no\n", MINI_SCHEMA)


def test_value_errors():
    with pytest.raises(DataError, match="^row 0, column 'a': 'maybe' is not a boolean token$"):
        data.parse_dataset("a,c\nmaybe,yes\nF,no\n", MINI_SCHEMA)
    schema = "x: continuous\nc: class {y,n}\n"
    with pytest.raises(DataError, match="^row 0, column 'x': 'abc' is not a number$"):
        data.parse_dataset("x,c\nabc,y\n1.5,n\n", schema)
    with pytest.raises(DataError, match="^row 0, column 'x': 'inf' is not finite$"):
        data.parse_dataset("x,c\ninf,y\n1.5,n\n", schema)
    schema = "g: nominal {red,blue}\nc: class {y,n}\n"
    with pytest.raises(DataError, match="^row 0, column 'g': 'green' not a declared nominal"):
        data.parse_dataset("g,c\ngreen,y\nred,n\n", schema)


def test_unsplittable_csv_is_a_data_error_naming_the_record():
    with pytest.raises(DataError, match=r"row 0 \(line 2\): new-line character"):
        data.parse_dataset("a,c\n1\r2,y\n", MINI_SCHEMA)
    oversized = "T" * 131073
    with pytest.raises(DataError, match=r"row 1 \(line 3\): field larger than field limit"):
        data.parse_dataset(f"a,c\nT,yes\n{oversized},no\n", MINI_SCHEMA)
    with pytest.raises(DataError, match=r"header \(line 1\)"):
        data.parse_dataset("a\rb,c\nT,yes\n", MINI_SCHEMA)


def test_blank_records_take_no_row_number():
    # Row n in every message is the dataset's row n, which a blank record
    # does not shift: a bad cell, a missing label and an unsplittable record
    # after one all name the same row.
    blank = "a,c\nT,yes\n\nF,no\n"
    d = data.parse_dataset(blank + "T,no\n", MINI_SCHEMA)
    assert d.rows == ((True, 0), (False, 1), (True, 1))
    with pytest.raises(DataError, match=r"^row 2, column 'a': 'X' is not a boolean token$"):
        data.parse_dataset(blank + "X,yes\n", MINI_SCHEMA)
    with pytest.raises(DataError, match="^row 2: training row has a missing class value$"):
        data.parse_dataset(blank + "T,?\n", MINI_SCHEMA)
    oversized = "T" * 131073
    with pytest.raises(DataError, match=r"^row 2 \(line 5\): field larger than field limit"):
        data.parse_dataset(blank + f"{oversized},no\n", MINI_SCHEMA)


def test_too_small():
    with pytest.raises(DataError, match="^need a prediction row plus at least one training row$"):
        data.parse_dataset("a,c\nT,yes\n", MINI_SCHEMA)
    with pytest.raises(DataError, match="^CSV has no header row$"):
        data.parse_dataset("", MINI_SCHEMA)


def test_schema_comments_and_whitespace():
    schema = "#  leading comment\n  a :  bool\n\n  c:class { yes , no }\n"
    d = data.parse_dataset("a,c\nT,yes\nF,no\n", schema)
    assert d.class_values == ("yes", "no")


def test_whitespace_around_tokens():
    d = data.parse_dataset("a,c\n T , yes\nF,no\n", MINI_SCHEMA)
    assert d.rows[0] == (True, 0)


def test_integer_literals_parse_as_reals():
    schema = "x: continuous\nc: class {y,n}\n"
    d = data.parse_dataset("x,c\n3,y\n4.5,n\n", schema)
    assert d.rows[0][0] == 3.0
    assert isinstance(d.rows[0][0], float)


def test_split_for_prediction_basic():
    rows = "a,c\n" + "".join(f"{'TF'[i % 2]},yes\n" for i in range(5))
    d = data.parse_dataset(rows, "a: bool\nc: class {yes,no}\n")
    pred, train = data.split_for_prediction(d, 2)
    assert pred is d.rows[2]
    assert len(train) == 4
    # Same objects, original relative order, union equals the full row set.
    assert train == [d.rows[0], d.rows[1], d.rows[3], d.rows[4]]
    assert all(t is r for t, r in zip(train, [d.rows[0], d.rows[1], d.rows[3], d.rows[4]]))
    with pytest.raises(DataError, match=r"^row 5 out of range 0\.\.4$"):
        data.split_for_prediction(d, 5)
    with pytest.raises(DataError, match=r"^row -1 out of range 0\.\.4$"):
        data.split_for_prediction(d, -1)


def test_split_covers_every_row_exactly_once_loo_style():
    d = data.parse_dataset("a,c\nT,yes\nF,no\nT,no\n", MINI_SCHEMA)
    seen = []
    for r in range(len(d.rows)):
        pred, train = data.split_for_prediction(d, r)
        assert len(train) == len(d.rows) - 1
        seen.append(pred)
    assert seen == list(d.rows)


# Round-trip property over randomly generated datasets.

_schema_attr = st.sampled_from(
    [
        data.Attribute("b1", "bool"),
        data.Attribute("n1", "nominal", ("red", "blue", "green")),
        data.Attribute("o1", "ordered", ("low", "med", "high")),
        data.Attribute("x1", "continuous"),
        data.Attribute("skip", "ignore"),
    ]
)


def _cell_strategy(attr: data.Attribute):
    missing = st.just(None)
    if attr.kind == "bool":
        return st.booleans() | missing
    if attr.kind in ("nominal", "ordered"):
        return st.integers(0, len(attr.values) - 1) | missing
    if attr.kind == "continuous":
        return (
            st.floats(allow_nan=False, allow_infinity=False, width=64) | missing
        )
    return st.text(alphabet="abcxyz", min_size=1, max_size=3)


@st.composite
def _datasets(draw):
    body = draw(st.lists(_schema_attr, min_size=1, max_size=4, unique_by=lambda a: a.name))
    class_col = draw(st.integers(0, len(body)))
    attrs = list(body)
    attrs.insert(class_col, data.Attribute("cls", "class", ("p", "q")))
    n_rows = draw(st.integers(2, 8))
    rows = []
    for i in range(n_rows):
        cells = [draw(_cell_strategy(a)) for a in attrs]
        cells[class_col] = draw(st.integers(0, 1)) if i else draw(st.sampled_from([0, 1, None]))
        rows.append(tuple(cells))
    return data.Dataset(tuple(attrs), tuple(rows), class_col)


@settings(max_examples=60, deadline=None)
@given(_datasets())
def test_round_trip(d):
    schema_lines = []
    for a in d.attributes:
        spec = a.kind if a.values is None else f"{a.kind} {{{','.join(a.values)}}}"
        schema_lines.append(f"{a.name}: {spec}")
    reparsed = data.parse_dataset(serialize_csv(d), "\n".join(schema_lines))
    assert reparsed == d


# Fuzz: whatever the CSV and schema text, parse_dataset either returns a
# Dataset or raises a DataError subclass; nothing else may escape.

_FUZZ_SCHEMAS = (
    MINI_SCHEMA,
    "x: continuous\ng: nominal {red,blue}\nc: class {y,n}\n",
    "o: ordered {lo,hi}\nskip: ignore\nc: class {y,n}\n",
)
_CSV_PIECES = st.sampled_from(
    ["a", "c", "x", "g", "o", "skip", ",", '"', "\n", "\r", "\r\n", "\0", " ", "?",
     "T", "F", "yes", "no", "y", "n", "red", "lo", "1", "-0", "1e400", "nan", "\ufeff"]
)


@st.composite
def _csv_texts(draw):
    if draw(st.booleans()):
        return draw(st.text(max_size=80))
    header = draw(st.sampled_from(["a,c\n", "x,g,c\n", "o,skip,c\n", ""]))
    return header + "".join(draw(st.lists(_CSV_PIECES, max_size=40)))


@settings(max_examples=300, deadline=None)
@given(
    csv_text=_csv_texts(),
    schema_text=st.one_of(st.sampled_from(_FUZZ_SCHEMAS), st.text(max_size=60)),
)
def test_parse_dataset_raises_only_data_errors(csv_text, schema_text):
    try:
        d = data.parse_dataset(csv_text, schema_text)
    except DataError:
        return
    assert len(d.rows) >= 2
