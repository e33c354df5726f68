"""Typed observation tables.

A dataset couples a schema (attribute kinds, declared category lists, one
binary class column) with parsed rows. Cell representation after interning:

    None           missing ("?" in the file)
    bool           boolean attribute
    int            index into the declared value list (nominal/ordered/class)
    float          continuous attribute
    str            raw token of an ignored column (kept only for round-trips)

Row 0 is the default prediction point; its class may be missing. Every other
row must be fully labeled.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass

from .errors import (
    BadValue,
    EmptyInput,
    IndexOutOfRange,
    MalformedCsv,
    NoClassColumn,
    NonBinaryClass,
    SchemaMismatch,
)

BOOL_KIND = "bool"
NOMINAL_KIND = "nominal"
ORDERED_KIND = "ordered"
CONTINUOUS_KIND = "continuous"
IGNORE_KIND = "ignore"
CLASS_KIND = "class"

_VALUED_KINDS = (NOMINAL_KIND, ORDERED_KIND, CLASS_KIND)
_TRUE_TOKENS = frozenset({"t", "true", "1", "y", "yes"})
_FALSE_TOKENS = frozenset({"f", "false", "0", "n", "no"})
_MISSING_TOKEN = "?"

_KIND_RE = re.compile(
    r"^(bool|nominal|ordered|continuous|ignore|class)\s*(\{(.*)\})?$"
)


@dataclass(frozen=True)
class Attribute:
    name: str
    kind: str
    values: tuple[str, ...] | None = None


@dataclass(frozen=True)
class Dataset:
    attributes: tuple[Attribute, ...]
    rows: tuple[tuple, ...]
    class_col: int

    @property
    def class_values(self) -> tuple[str, str]:
        values = self.attributes[self.class_col].values
        assert values is not None and len(values) == 2
        return (values[0], values[1])


def parse_schema(schema_text: str) -> tuple[Attribute, ...]:
    """Parse the sidecar format: one `name: kind` line per attribute."""
    attributes: list[Attribute] = []
    for lineno, raw in enumerate(schema_text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, sep, kind_spec = line.partition(":")
        if not sep or not name.strip():
            raise SchemaMismatch(f"schema line {lineno}: expected 'name: kind'")
        name = name.strip()
        m = _KIND_RE.match(" ".join(kind_spec.split()))
        if not m:
            raise SchemaMismatch(f"schema line {lineno}: unrecognized kind {kind_spec!r}")
        kind, braces, inner = m.group(1), m.group(2), m.group(3)
        values: tuple[str, ...] | None = None
        if kind in _VALUED_KINDS:
            if braces is None:
                raise SchemaMismatch(f"schema line {lineno}: {kind} needs a value list")
            values = tuple(v.strip() for v in inner.split(","))
            if any(not v for v in values):
                raise SchemaMismatch(f"schema line {lineno}: empty value in list")
            if len(set(values)) != len(values):
                raise SchemaMismatch(f"schema line {lineno}: duplicate value in list")
        elif braces is not None:
            raise SchemaMismatch(f"schema line {lineno}: {kind} takes no value list")
        if kind == CLASS_KIND and len(values or ()) != 2:
            raise NonBinaryClass(f"schema line {lineno}: class needs exactly 2 values")
        attributes.append(Attribute(name=name, kind=kind, values=values))
    if not attributes:
        raise EmptyInput("schema declares no attributes")
    names = [a.name for a in attributes]
    if len(set(names)) != len(names):
        raise SchemaMismatch("duplicate attribute name in schema")
    class_count = sum(1 for a in attributes if a.kind == CLASS_KIND)
    if class_count == 0:
        raise NoClassColumn("schema declares no class attribute")
    if class_count > 1:
        raise SchemaMismatch("schema declares more than one class attribute")
    return tuple(attributes)


def _parse_cell(token: str, attr: Attribute, where: str):
    token = token.strip()
    if token == _MISSING_TOKEN:
        return None
    if attr.kind == BOOL_KIND:
        low = token.lower()
        if low in _TRUE_TOKENS:
            return True
        if low in _FALSE_TOKENS:
            return False
        raise BadValue(f"{where}: {token!r} is not a boolean token")
    if attr.kind == CONTINUOUS_KIND:
        try:
            x = float(token)
        except ValueError:
            raise BadValue(f"{where}: {token!r} is not a number") from None
        if not math.isfinite(x):
            raise BadValue(f"{where}: {token!r} is not finite")
        return x
    if attr.kind == CLASS_KIND:
        assert attr.values is not None
        if token not in attr.values:
            raise NonBinaryClass(f"{where}: class value {token!r} not among {attr.values}")
        return attr.values.index(token)
    if attr.kind in (NOMINAL_KIND, ORDERED_KIND):
        assert attr.values is not None
        if token not in attr.values:
            raise BadValue(f"{where}: {token!r} not a declared {attr.kind} value")
        return attr.values.index(token)
    assert attr.kind == IGNORE_KIND
    return token


def _csv_records(csv_text: str):
    """The CSV records in order: the header, then row 0, row 1, ...

    A record the csv module cannot split raises MalformedCsv naming it.
    """
    reader = csv.reader(io.StringIO(csv_text))
    recno = -1  # the header
    while True:
        try:
            record = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            where = "header" if recno < 0 else f"row {recno}"
            raise MalformedCsv(f"{where} (line {reader.line_num}): {exc}") from None
        yield record
        recno += 1


def parse_dataset(csv_text: str, schema_text: str) -> Dataset:
    attributes = parse_schema(schema_text)
    class_col = next(i for i, a in enumerate(attributes) if a.kind == CLASS_KIND)

    records = _csv_records(csv_text)
    header = next(records, None)
    if header is None:
        raise EmptyInput("CSV has no header row")
    header = [h.strip() for h in header]
    names = [a.name for a in attributes]
    if header != names:
        unknown = [h for h in header if h not in names]
        if unknown:
            raise SchemaMismatch(f"unknown column(s) in header: {unknown}")
        raise SchemaMismatch(f"header {header} does not match schema order {names}")

    rows: list[tuple] = []
    for recno, record in enumerate(records):
        if not record:
            continue
        if len(record) != len(attributes):
            raise SchemaMismatch(
                f"row {recno}: expected {len(attributes)} fields, got {len(record)}"
            )
        where_base = f"row {recno}"
        rows.append(
            tuple(
                _parse_cell(tok, attr, f"{where_base}, column {attr.name!r}")
                for tok, attr in zip(record, attributes)
            )
        )
    if len(rows) < 2:
        raise EmptyInput("need a prediction row plus at least one training row")
    for n, row in enumerate(rows):
        if n != 0 and row[class_col] is None:
            raise BadValue(f"row {n}: training row has a missing class value")
    return Dataset(attributes=attributes, rows=tuple(rows), class_col=class_col)


def format_cell(value, attr: Attribute) -> str:
    if value is None:
        return _MISSING_TOKEN
    if attr.kind == BOOL_KIND:
        return "T" if value else "F"
    if attr.kind == CONTINUOUS_KIND:
        return repr(value)
    if attr.kind in _VALUED_KINDS:
        assert attr.values is not None
        return attr.values[value]
    return str(value)


def serialize_csv(d: Dataset) -> str:
    """Emit canonical CSV; reparsing with the same schema reproduces d exactly."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([a.name for a in d.attributes])
    for row in d.rows:
        writer.writerow([format_cell(v, a) for v, a in zip(row, d.attributes)])
    return buf.getvalue()


def split_for_prediction(d: Dataset, row: int) -> tuple[tuple, list[tuple]]:
    """Designate one row as the prediction point; the rest keep their order.

    Returns the original row tuples; the training list is a new list of them.
    """
    if not 0 <= row < len(d.rows):
        raise IndexOutOfRange(f"row {row} out of range 0..{len(d.rows) - 1}")
    training = [r for i, r in enumerate(d.rows) if i != row]
    return d.rows[row], training


def load_dataset(data_path: str, schema_path: str) -> Dataset:
    """File-level entry point used by the CLI; missing or non-UTF-8 files become DataErrors.

    Both files are read as UTF-8 with an optional byte-order mark, which
    spreadsheet exports often put before the header.
    """
    try:
        with open(schema_path, "r", encoding="utf-8-sig") as fh:
            schema_text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaMismatch(f"cannot read schema file {schema_path}: {exc}") from None
    try:
        with open(data_path, "r", encoding="utf-8-sig") as fh:
            csv_text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise BadValue(f"cannot read data file {data_path}: {exc}") from None
    return parse_dataset(csv_text, schema_text)
