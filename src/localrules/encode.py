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
against it, and hands the same Component to every query that needs it. A
query that holds one of the indexed rows out keeps the index's own
components and records the row: the search counts it out (it lies in the
match set of each of its own components), and plain() removes its bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from operator import eq, gt, itemgetter, le
from typing import NamedTuple

from .data import (
    CLASS_KIND,
    CONTINUOUS_KIND,
    IGNORE_KIND,
    ORDERED_KIND,
    Attribute,
    format_cell,
)
from .errors import BadParams, DataError

EXACT = "exact"
LOWER = "lower"
UPPER = "upper"

MODE_EXACT = "exact"
MODE_LEVELS = "levels"


class Component(NamedTuple):
    attr: int
    kind: str  # EXACT, LOWER, or UPPER
    level: object  # the value compared against: the query's own (EXACT) or a grid level
    match_bits: int
    display: str

    @property
    def order(self) -> tuple:
        # The canonical order, in which every query lists its components:
        # equality components by attribute, then boundary ones by attribute and level.
        return self.kind != EXACT, self.attr, self.level

    @property
    def group_key(self) -> tuple[int, str] | None:
        # Exact components are mutually independent; boundary components of
        # one attribute and side are interchangeable up to conjunction collapse.
        return None if self.kind == EXACT else (self.attr, self.kind)


@dataclass(frozen=True)
class EncodedInstance:
    """A query's components over the indexed rows, and its training split.

    With held_out = n, indexed row n is not a training row: every bitset
    still holds its bit, and n_rows, n_pos and n_neg count the rows without
    it. plain() is the same query with row n removed from every bitset.
    """

    components: tuple[Component, ...]
    n_rows: int  # training rows
    class_bits: int  # bit n set = indexed row n has the positive class
    class_labels: tuple[str, str]
    held_out: int | None = None

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def held_out_counts(self) -> tuple[int, int]:
        """(positive, negative) rows held out: (0, 0), (1, 0) or (0, 1)."""
        if self.held_out is None:
            return 0, 0
        pos = self.class_bits >> self.held_out & 1
        return pos, 1 - pos

    @property
    def n_pos(self) -> int:
        return self.class_bits.bit_count() - self.held_out_counts[0]

    @property
    def n_neg(self) -> int:
        return self.n_rows - self.n_pos

    @property
    def split_class_bits(self) -> int:
        """class_bits over the training rows alone, numbered as plain() numbers them."""
        return without_row(self.class_bits, self.held_out)

    def plain(self) -> EncodedInstance:
        """This query encoded over its training rows alone: held_out's bit removed."""
        n = self.held_out
        if n is None:
            return self
        components = tuple(
            c._replace(match_bits=without_row(c.match_bits, n)) for c in self.components
        )
        return EncodedInstance(components, self.n_rows, self.split_class_bits, self.class_labels)


def attrs_needing_grids(attributes, mode: str, overrides: dict | None = None) -> list[int]:
    """Level-mode attributes: per overrides, else ordered and continuous ones in levels mode."""
    overrides = overrides or {}
    for given in (mode, *overrides.values()):
        if given not in (MODE_EXACT, MODE_LEVELS):
            raise BadParams(f"mode must be {MODE_EXACT!r} or {MODE_LEVELS!r}, got {given!r}")
    return [
        i
        for i, a in enumerate(attributes)
        if a.kind not in (CLASS_KIND, IGNORE_KIND)
        and overrides.get(i, mode if a.kind in (ORDERED_KIND, CONTINUOUS_KIND) else MODE_EXACT)
        == MODE_LEVELS
    ]


_KINDS = {eq: (EXACT, "="), le: (UPPER, "<="), gt: (LOWER, ">")}  # op -> (kind, sign)
_NAN_FOR_NONE = {None: math.nan}  # NaN compares false with every value
_ASCII_BITS = bytes.maketrans(b"\0\1", b"01")


def _bitset(flags) -> int:
    """Row bitset from one truth value per row (bit n set when flag n is true)."""
    return int(bytes(flags).translate(_ASCII_BITS)[::-1] or b"0", 2)


def without_row(bits: int, n: int | None) -> int:
    """bits with bit n removed and the bits above it shifted down (n None: bits)."""
    return bits if n is None else (bits & ((1 << n) - 1)) | ((bits >> (n + 1)) << n)


class TrainingIndex:
    """Vertical row bitsets of one training set, fitted once and shared.

    A component's bitset ("== v", "<= y" or "> y" on one attribute, Eclat's
    tid-lists) is built in one pass over the rows when a query first needs
    it. An index made for one query thus does no more work than scanning the
    rows that query needs. Components whose keys are few are kept whole, so
    later queries get the same Component object: "== v" on a bool, nominal
    or ordered attribute and "<= y"/"> y" on a grid level. "== v" on a
    continuous attribute may take a new v for every query and is rebuilt each
    time, so the kept components never outgrow the grids and the declared
    values. Keys compare by value, so two levels of one attribute that are
    equal but print differently (2 and 2.0, or -0.0 and 0.0) would share one
    display; no fitted grid holds such a pair.
    """

    def __init__(self, attributes: tuple[Attribute, ...], rows, class_col: int):
        self.attributes = attributes
        self.rows = rows
        self.class_labels = attributes[class_col].values
        labels = list(map(itemgetter(class_col), rows))
        self.unlabeled = [n for n, g in enumerate(labels) if g is None]
        self.class_bits = _bitset(map(eq, labels, repeat(0)))
        self._columns: dict[int, list] = {}
        self._components: dict[tuple, Component] = {}  # (op, attr, value) -> component

    def _column(self, i: int) -> list:
        """Attribute i's cells with NaN for missing, which fails ==, <= and > alike."""
        col = self._columns.get(i)
        if col is None:
            cells = list(map(itemgetter(i), self.rows))
            col = self._columns[i] = list(map(_NAN_FOR_NONE.get, cells, cells))
        return col

    def _component(self, op, i: int, value) -> Component:
        """Attribute i's component whose rows' known values satisfy op(value_of_row, value)."""
        key = (op, i, value)
        got = self._components.get(key)
        if got is None:
            attr = self.attributes[i]
            kind, sign = _KINDS[op]
            bits = _bitset(map(op, self._column(i), repeat(value)))
            got = Component(i, kind, value, bits, attr.name + sign + format_cell(value, attr))
            if op is not eq or attr.kind != CONTINUOUS_KIND:
                self._components[key] = got
        return got

    def check_labeled(self, held_out: int | None = None) -> None:
        """Raise DataError naming an unlabeled row other than held_out."""
        for n in self.unlabeled:
            if n != held_out:
                raise DataError(f"row {n}: training row has a missing class value")

    def encode(
        self, pred_row, grids: dict | None = None, held_out: int | None = None
    ) -> EncodedInstance:
        """Build the component set for pred_row against the indexed rows.

        held_out = n leaves row n out of the training split: the components
        keep the index's own bitsets, bit n included, and the instance
        records n (see EncodedInstance); its plain() is the encoding over
        the other rows, as if row n had never been indexed. grids maps each
        level-mode attribute index -> ascending level tuple (empty tuple =
        the attribute contributes nothing); every other
        attribute is compared for equality. A component's id is its
        position, and the components come in increasing Component.order.
        """
        self.check_labeled(held_out)
        grids = grids or {}
        components: list[Component] = []
        for i, attr in enumerate(self.attributes):
            v0 = pred_row[i]
            if v0 is None or i in grids or attr.kind in (CLASS_KIND, IGNORE_KIND):
                continue
            components.append(self._component(eq, i, v0))
        for i in sorted(grids):
            v0 = pred_row[i]
            if v0 is None:
                continue
            for y in grids[i]:
                components.append(self._component(le if v0 <= y else gt, i, y))

        return EncodedInstance(
            components=tuple(components),
            n_rows=len(self.rows) - (held_out is not None),
            class_bits=self.class_bits,
            class_labels=self.class_labels,
            held_out=held_out,
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
            raise DataError(f"attribute {attributes[i].name!r} needs a level grid")
    return index.encode(pred_row, level_grids)
