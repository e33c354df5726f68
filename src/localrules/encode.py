"""Antecedent components for one prediction point.

Each component is a Boolean feature of the form "this row agrees with the
prediction row", together with its precomputed match set over the training
rows (an int bitmask, bit n = training row n matches).

Unordered attributes yield one equality component. Ordered and continuous
attributes in level mode yield one component per grid level y: the underlying
predicate is (value <= y), and a training row matches when its predicate truth
equals the prediction row's. Levels the prediction value exceeds therefore
match rows with value > y ("lower" side, they bound the point from below);
the remaining levels match rows with value <= y ("upper" side). At most one
component per side of one attribute can appear in a conjunction without
redundancy, which is what the search's group exclusivity exploits.

Missing values never support a rule: a missing training value mismatches
every component of its attribute, and a missing prediction value suppresses
the attribute entirely.

Match sets are properties of the training rows, not of the query: a
TrainingIndex fitted once on a training split serves every query encoded
against it, and leaving one of its rows out is a bit removal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from operator import eq, gt, itemgetter, le

from .data import (
    CLASS_KIND,
    CONTINUOUS_KIND,
    IGNORE_KIND,
    ORDERED_KIND,
    Attribute,
    format_cell,
)
from .errors import BadValue, MissingGrid

EXACT = "exact"
LOWER = "lower"
UPPER = "upper"

MODE_EXACT = "exact"
MODE_LEVELS = "levels"


@dataclass(frozen=True)
class Component:
    cid: int
    attr: int
    kind: str  # EXACT, LOWER, or UPPER
    match_bits: int
    display: str
    level_index: int | None = None
    level: object = None  # grid threshold for LOWER/UPPER
    value: object = None  # prediction-row value for EXACT

    @property
    def group_key(self) -> tuple[int, str] | None:
        # Exact components are mutually independent; boundary components of
        # one attribute and side are interchangeable up to conjunction collapse.
        return None if self.kind == EXACT else (self.attr, self.kind)


@dataclass(frozen=True)
class EncodedInstance:
    components: tuple[Component, ...]
    n_rows: int
    class_bits: int  # bit n set = training row n has the positive class
    n_pos: int
    n_neg: int
    groups: dict
    class_labels: tuple[str, str]

    @property
    def n_components(self) -> int:
        return len(self.components)


def attrs_needing_grids(attributes, mode: str, overrides: dict | None = None) -> list[int]:
    """Level-mode attributes: per overrides, else ordered and continuous ones in levels mode."""
    overrides = overrides or {}
    return [
        i
        for i, a in enumerate(attributes)
        if a.kind not in (CLASS_KIND, IGNORE_KIND)
        and overrides.get(i, mode if a.kind in (ORDERED_KIND, CONTINUOUS_KIND) else MODE_EXACT)
        == MODE_LEVELS
    ]


def _level_token(attr: Attribute, level) -> str:
    if attr.values is not None:
        return attr.values[level]
    if isinstance(level, bool):
        return "T" if level else "F"
    return repr(level)


_NAN_FOR_NONE = {None: math.nan}  # NaN compares false with every value
_ASCII_BITS = bytes.maketrans(b"\0\1", b"01")


def _bitset(flags) -> int:
    """Row bitset from one truth value per row (bit n set when flag n is true)."""
    return int(bytes(flags).translate(_ASCII_BITS)[::-1] or b"0", 2)


def _without(bits: int, n: int | None) -> int:
    """bits with bit n removed and the bits above it shifted down (n None: bits)."""
    return bits if n is None else (bits & ((1 << n) - 1)) | ((bits >> (n + 1)) << n)


class TrainingIndex:
    """Vertical row bitsets of one training set, fitted once and shared.

    A bitset ("== v", "<= y" or "> y" on one attribute, Eclat's tid-lists) is
    built in one pass over the rows when a query first needs it. An index made
    for one query thus does no more work than scanning the rows that query
    needs. Bitsets whose keys are few are kept, so later queries look them up:
    "== v" on a bool, nominal or ordered attribute and "<= y"/"> y" on a grid
    level. "== v" on a continuous attribute may take a new v for every query
    and is rebuilt each time, so the kept bitsets never outgrow the grids and
    the declared values.
    """

    def __init__(self, attributes: tuple[Attribute, ...], rows, class_col: int):
        self.attributes = attributes
        self.rows = rows
        self.class_labels = attributes[class_col].values
        labels = list(map(itemgetter(class_col), rows))
        self.unlabeled = [n for n, g in enumerate(labels) if g is None]
        self.class_bits = _bitset(map(eq, labels, repeat(0)))
        self._columns: dict[int, list] = {}
        self._bits: dict[tuple, int] = {}

    def _column(self, i: int) -> list:
        """Attribute i's cells with NaN for missing, which fails ==, <= and > alike."""
        col = self._columns.get(i)
        if col is None:
            cells = list(map(itemgetter(i), self.rows))
            col = self._columns[i] = list(map(_NAN_FOR_NONE.get, cells, cells))
        return col

    def _rows(self, op, i: int, value) -> int:
        """Rows whose known value of attribute i satisfies op(value_of_row, value)."""
        key = (op, i, value)
        bits = self._bits.get(key)
        if bits is None:
            bits = _bitset(map(op, self._column(i), repeat(value)))
            if op is not eq or self.attributes[i].kind != CONTINUOUS_KIND:
                self._bits[key] = bits
        return bits

    def check_labeled(self, held_out: int | None = None) -> None:
        """Raise BadValue naming an unlabeled row other than held_out."""
        for n in self.unlabeled:
            if n != held_out:
                raise BadValue(f"row {n}: training row has a missing class value")

    def encode(
        self, pred_row, grids: dict | None = None, held_out: int | None = None
    ) -> EncodedInstance:
        """Build the component set for pred_row against the indexed rows.

        held_out = n leaves row n out exactly as if it had never been
        indexed: every bitset loses bit n and the bits above it move down.
        grids maps each level-mode attribute index -> ascending level tuple
        (empty tuple = the attribute contributes nothing); every other
        attribute is compared for equality. Component ids are dense and
        canonically ordered: equality components first by attribute, then
        boundary components by (attribute, level).
        """
        self.check_labeled(held_out)
        grids = grids or {}
        components: list[Component] = []
        for i, attr in enumerate(self.attributes):
            v0 = pred_row[i]
            if v0 is None or i in grids or attr.kind in (CLASS_KIND, IGNORE_KIND):
                continue
            bits = _without(self._rows(eq, i, v0), held_out)
            display = f"{attr.name}={format_cell(v0, attr)}"
            components.append(Component(len(components), i, EXACT, bits, display, value=v0))
        groups: dict = {}
        for i in sorted(grids):
            attr, v0 = self.attributes[i], pred_row[i]
            if v0 is None:
                continue
            for l, y in enumerate(grids[i]):
                if v0 <= y:
                    kind, op, bits = UPPER, "<=", self._rows(le, i, y)
                else:
                    kind, op, bits = LOWER, ">", self._rows(gt, i, y)
                display = f"{attr.name}{op}{_level_token(attr, y)}"
                groups.setdefault((i, kind), []).append(len(components))
                components.append(
                    Component(len(components), i, kind, _without(bits, held_out), display, l, y)
                )

        class_bits = _without(self.class_bits, held_out)
        n = len(self.rows) - (held_out is not None)
        n_pos = class_bits.bit_count()
        return EncodedInstance(
            components=tuple(components),
            n_rows=n,
            class_bits=class_bits,
            n_pos=n_pos,
            n_neg=n - n_pos,
            groups={k: tuple(v) for k, v in groups.items()},
            class_labels=self.class_labels,
        )


def encode(
    attributes: tuple[Attribute, ...],
    training_rows,
    pred_row,
    class_col: int,
    grids: dict | None = None,
    mode: str = MODE_LEVELS,
    overrides: dict | None = None,
) -> EncodedInstance:
    """TrainingIndex(attributes, training_rows, class_col).encode(...), for one query.

    grids may hold more attributes than mode and overrides put in level mode;
    a level-mode attribute with a known prediction value needs a grid.
    """
    index = TrainingIndex(attributes, training_rows, class_col)
    index.check_labeled()
    level_grids = {}
    for i in attrs_needing_grids(attributes, mode, overrides):
        if grids is not None and i in grids:
            level_grids[i] = grids[i]
        elif pred_row[i] is not None:
            raise MissingGrid(f"attribute {attributes[i].name!r} needs a level grid")
    return index.encode(pred_row, level_grids)
