"""Supervised discretization: level grids for ordered and continuous attributes.

Continuous attributes get cut points from recursive entropy minimization with
the minimum-description-length stopping rule (Fayyad & Irani, IJCAI 1993);
ordered discrete attributes use every declared value as a level. The
resulting grid feeds the encoder's boundary components.

A GridFitter fits the grids of one row set once and serves every
leave-one-out split of it. Each continuous column is sorted once into value
groups: the runs of values between two gaps that can hold a cut (a gap
between equal values, or between adjacent floats whose midpoint is not
strictly between them, cannot), each with its size and class count. Leaving
a row out takes one member from its group; a group that empties merges its
two gaps into one. The cut search scans only class-boundary gaps, those
between two groups that are not pure in the same class: across a run of
groups pure in one class the weighted entropy is strictly concave (Fayyad &
Irani, Machine Learning 8, 1992), so its minimum never lies inside the run.
A subrange that does not hold the left-out row has the same contents for
every split, so its cuts are kept, keyed by its group bounds. In one that
does, a boundary gap's weight depends only on the row's label and on which
side of the row's group the gap lies, so per range and label two tables keep
the leftmost lowest weight up to and from each gap; a split weighs only the
two gaps next to its row, against one entry of each table.

Most rows change no cut, and a screen finds them once per column, on the
first held-out request, before any such fit. It walks the full fit's ranges
and, per range and label, reads from the same tables which runs of groups
keep the range's decision: the same lowest gap, ties to the leftmost, and
the same MDL verdict, tested with the exact arguments a held-out fit would
pass. It compares the very doubles that fit compares, so it needs no
floating-point slack: a row it clears gets the full fit's cuts, bit for bit.
It flags the rows of the two groups next to a range's lowest gap, whose
removal can drop that gap or merge it into a new one, every row of a label
whose removal leaves an accepting range single-class, and the rows fitted
from a fresh sort; only those run the held-out fit. Under leave-one-out
with several processes, each forked process sorts and screens its own
columns.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate, repeat
from operator import add, itemgetter, neg, truediv
from typing import NamedTuple

from .data import (
    BOOL_KIND,
    CONTINUOUS_KIND,
    NOMINAL_KIND,
    ORDERED_KIND,
    Attribute,
)
from .errors import DataError


def _entropy(a: int, b: int) -> float:
    # Entropy of a two-label count pair. The two terms are subtracted from 0.0
    # one after the other; IEEE addition is commutative, so the result is the
    # same bits whichever label is counted in a.
    n = a + b
    h = 0.0
    if a:
        p = a / n
        h -= p * math.log2(p)
    if b:
        p = b / n
        h -= p * math.log2(p)
    return h


def _midpoint(a: float, b: float) -> float | None:
    # Halve first so the sum cannot overflow; reject degenerate float gaps.
    mid = a / 2 + b / 2
    return mid if a < mid < b else None


def _term(rows: int, ones: int) -> float:
    """One side's share of a cut's weighted entropy, times the range's size.

    NaN for impossible counts: a table's term of a side that lacks the
    left-out row it assumes, which no split reads.
    """
    return rows * _entropy(ones, rows - ones) if 0 <= ones <= rows else math.nan


def _running_min(sums, gaps, n: int) -> tuple[array, array]:
    """Running lowest sum / n, the first kept on ties, and the gap it lies at."""
    pairs = list(accumulate(zip(map(truediv, sums, repeat(n)), gaps), min))
    return array("d", [w for w, _ in pairs]), array("l", [k for _, k in pairs])


def _purity(size: int, ones: int) -> int:
    """1 or 0 for a group pure in the counted label or the other, -1 if mixed."""
    return 1 if ones == size else 0 if ones == 0 else -1


def _mdl_accepts(n: int, c: int, n1: int, c1: int, w: float) -> bool:
    n2, c2 = n - n1, c - c1
    e, e1, e2 = _entropy(c, n - c), _entropy(c1, n1 - c1), _entropy(c2, n2 - c2)
    k = (c > 0) + (c < n)
    k1 = (c1 > 0) + (c1 < n1)
    k2 = (c2 > 0) + (c2 < n2)
    gain = e - w
    threshold = math.log2(n - 1) / n + (
        math.log2(3**k - 2) - k * e + k1 * e1 + k2 * e2
    ) / n
    return gain > threshold


class _Removal(NamedTuple):
    """One left-out member of group `group`; `label` is 1 when it has the counted label.

    gaps maps the group's two neighbouring gap indices to their cut values,
    for those of them that remain class boundaries after the removal. When
    the group empties, its two gaps become one, kept at the right-hand
    index: cutting there splits the rows as the merged gap does.
    """

    group: int
    label: int
    gaps: dict


class _Column:
    """One attribute's known values, sorted once into value groups."""

    def __init__(self, values, labels):
        kinds = len(set(labels))
        if kinds > 2:
            raise DataError(f"entropy cuts need at most 2 label values, got {kinds}")
        self.values, self.labels = values, labels
        self.first = labels[0] if labels else None  # the counted label
        order = sorted(range(len(values)), key=values.__getitem__)
        self.group_of = group_of = [0] * len(values)
        sizes: list[int] = []
        ones: list[int] = []
        firsts: list = []
        lasts: list = []
        self.gap_cuts = gap_cuts = []  # gap g lies between groups g and g + 1
        multi: list[bool] = []  # the group holds more than one distinct value
        lone: list[int] = []  # positions whose value no other position has
        run_start = 0
        prev = None
        for rank, p in enumerate(order):
            x = values[p]
            if not rank or x != prev:
                if rank - run_start == 1:
                    lone.append(order[run_start])
                run_start = rank
                cut = _midpoint(prev, x) if rank else None
                if cut is None and rank:
                    multi[-1] = True
                else:
                    if rank:
                        gap_cuts.append(cut)
                    sizes.append(0)
                    ones.append(0)
                    firsts.append(x)
                    lasts.append(x)
                    multi.append(False)
            g = len(sizes) - 1
            sizes[g] += 1
            ones[g] += labels[p] == self.first
            lasts[g] = x
            group_of[p] = g
            prev = x
        if len(order) - run_start == 1:
            lone.append(order[run_start])
        # Taking out a lone value of a multi-value group changes which of its
        # gaps can hold a cut; such a split is fitted from a fresh sort.
        self.refit = {p for p in lone if multi[group_of[p]]}
        self.sizes, self.ones, self.firsts, self.lasts = sizes, ones, firsts, lasts
        self.cs = list(accumulate(sizes, initial=0))
        self.cp = list(accumulate(ones, initial=0))
        self.pure = pure = list(map(_purity, sizes, ones))
        self.boundaries = [
            k for k in range(len(sizes) - 1) if pure[k] < 0 or pure[k] != pure[k + 1]
        ]
        self._memo: dict[int, tuple] = {}
        self._mdl: dict[tuple, bool] = {}  # _mdl_accepts by its arguments
        self._tables: dict[tuple[int, int, int], tuple[array, array, array, array]] = {}
        self._flags: tuple[bytearray, bytearray] | None = None  # by label, from _screen

    def _removal(self, p: int) -> _Removal:
        j = self.group_of[p]
        label = int(self.labels[p] == self.first)
        pure, last = self.pure, len(self.sizes) - 1
        gaps = {}
        if self.sizes[j] == 1:
            if 0 < j < last and (pure[j - 1] < 0 or pure[j - 1] != pure[j + 1]):
                gaps[j] = _midpoint(self.lasts[j - 1], self.firsts[j + 1])
        else:
            pj = _purity(self.sizes[j] - 1, self.ones[j] - label)
            if j > 0 and (pure[j - 1] < 0 or pure[j - 1] != pj):
                gaps[j - 1] = self.gap_cuts[j - 1]
            if j < last and (pj < 0 or pj != pure[j + 1]):
                gaps[j] = self.gap_cuts[j]
        return _Removal(j, label, gaps)

    def cuts(self, held_out: int | None = None) -> tuple:
        """Cut points of all values but the one at position held_out."""
        if held_out is None or self.keeps_full_cuts(held_out):
            return self._cuts(0, len(self.sizes), None)
        if held_out in self.refit:
            p = held_out
            values, labels = self.values, self.labels
            return _Column(values[:p] + values[p + 1 :], labels[:p] + labels[p + 1 :]).cuts()
        return self._cuts(0, len(self.sizes), self._removal(held_out))

    def keeps_full_cuts(self, p: int) -> bool:
        """Whether the screen proves that leaving position p out keeps every cut."""
        if self._flags is None:
            self._screen()
        flags = self._flags[self.labels[p] == self.first]
        return not flags[self.group_of[p]] and p not in self.refit

    def _count(self, label: int, start: int, stop: int) -> int:
        """Rows labelled label (1: the counted label) in groups start..stop-1."""
        ones = self.cp[stop] - self.cp[start]
        return ones if label else self.cs[stop] - self.cs[start] - ones

    def _sides(self, lo: int, hi: int) -> tuple[list[int], list[float], list[float]]:
        """The boundary gaps of groups lo..hi-1, with each one's left and right term."""
        b, cs, cp = self.boundaries, self.cs, self.cp
        gaps = b[bisect_left(b, lo) : bisect_left(b, hi - 1)]
        lefts = [_term(cs[k + 1] - cs[lo], cp[k + 1] - cp[lo]) for k in gaps]
        rights = [_term(cs[hi] - cs[k + 1], cp[hi] - cp[k + 1]) for k in gaps]
        return gaps, lefts, rights

    def _screen(self) -> None:
        """Flag, per label, the groups whose row may not keep the full fit's cuts.

        It walks the full fit's ranges once. A held-out fit takes the same
        decision in a range, the same lowest gap k and the same MDL verdict,
        when the range's tables say so: with the row right of k, k's weight
        is its entry in the first table, and with the row left of k, in the
        second. These are the exact doubles the fit compares, so no slack is
        needed. The rows kept on each side form one run of groups, found by
        bisection (_kept). Always flagged: rows of the two groups next to k,
        whose gaps a removal can drop or merge, and every row of a label
        whose removal leaves an accepting range single-class. The walk is
        the full fit, so it also keeps each range's cuts for _cuts.
        """
        size = len(self.sizes)
        self._flags = flags = (bytearray(size), bytearray(size))
        cs, cp = self.cs, self.cp
        ranges = [(0, size)]
        cut_gaps = []
        for lo, hi in ranges:  # grows with the accepted cuts' subranges
            n, c = cs[hi] - cs[lo], cp[hi] - cp[lo]
            if n < 2 or not 0 < c < n:
                continue  # no fit here, and a row fewer makes none either
            sides = self._sides(lo, hi)
            found = self._best(lo, hi, n, c, None, sides)
            if found is None:
                continue  # a single group: a row fewer leaves no gap either
            k = found[0]
            accepted = self._accepts(n, c, *found[1:])
            if accepted:
                ranges += [(lo, k + 1), (k + 1, hi)]
                cut_gaps.append(k)
            for label, flag in enumerate(flags):
                if self._count(label, lo, hi):
                    start = lo
                    for run_start, run_stop in self._kept(lo, hi, k, accepted, label, sides):
                        flag[start:run_start] = b"\1" * (run_start - start)
                        start = run_stop
                    flag[start:hi] = b"\1" * (hi - start)
        cut_gaps.sort()
        for lo, hi in ranges:  # each range's cuts, kept as _cuts keeps them
            gaps = cut_gaps[bisect_left(cut_gaps, lo) : bisect_left(cut_gaps, hi - 1)]
            self._memo.setdefault(lo * len(cs) + hi, tuple(self.gap_cuts[k] for k in gaps))

    def _kept(self, lo: int, hi: int, k: int, accepted: bool, label: int, sides) -> list:
        """Runs (start, stop) of the groups of lo..hi-1 whose row labelled
        label, left out, keeps the range's decision: lowest gap k, and the
        MDL verdict `accepted`.

        With the row in group j, a gap before j weighs its first-table kind
        and a gap from j on its second-table kind. For j < k, k weighs
        last_w[i] and stays lowest when every gap before j weighs more (up
        to the first first_w at or below it) and every gap from j to k does
        (after the last gap whose last_k lies before k). For j > k + 1, k
        weighs first_w[i]: the gaps before k must weigh more (first_k[i] is
        k), those from k to j no less (up to the first first_k past k), and
        those from j on no less (after the last last_w below it). A group
        that empties merges its two gaps into one at its right-hand gap,
        whose weight is the same double as the left-hand gap's first-table
        weight; both gaps are weighed here, so the merged one is too. A
        running minimum that starts at a NaN entry is NaN throughout, and
        one that does not holds none; either way no row of the label lies
        where a bisection would misread it.
        """
        cs, cp = self.cs, self.cp
        n, c = cs[hi] - cs[lo] - 1, cp[hi] - cp[lo] - label
        if n < 2 or not 0 < c < n:
            return [] if accepted else [(lo, hi)]
        gaps = sides[0]
        first_w, first_k, last_w, last_k = self._table(lo, hi, n, label, sides)
        i = bisect_left(gaps, k)
        n_left, a = cs[k + 1] - cs[lo], cp[k + 1] - cp[lo]
        kept = []
        if (
            self._count(label, lo, k)
            and last_k[i] == k
            and self._accepts(n, c, n_left - 1, a - label, last_w[i]) == accepted
        ):
            w = last_w[i]
            after = bisect_left(last_k, k)  # gaps from here to k weigh more than w
            before = bisect_left(first_w, -w, key=neg)  # gaps before this one weigh more
            start = gaps[after - 1] + 1 if after else lo
            stop = gaps[before] + 1 if before < len(gaps) else k
            kept.append((start, min(stop, k)))
        if (
            self._count(label, k + 2, hi)
            and first_k[i] == k
            and self._accepts(n, c, n_left, a, first_w[i]) == accepted
        ):
            w = first_w[i]
            before = bisect_right(first_k, k)  # gaps from k to here weigh w or more
            after = bisect_left(last_w, w)  # gaps from here on weigh w or more
            start = gaps[after - 1] + 1 if after else lo
            stop = gaps[before] + 1 if before < len(gaps) else hi
            kept.append((max(start, k + 2), stop))
        return [run for run in kept if run[0] < run[1]]

    def _table(
        self, lo: int, hi: int, n: int, label: int, sides=None
    ) -> tuple[array, array, array, array]:
        """Per boundary gap of lo..hi-1 (n rows once a row labelled label is out):
        weight and gap of the lowest (full left + right a row short) / n up to
        it, and of the lowest (left a row short + full right) / n from it on.
        A short side without a row of the label has a NaN term. Those gaps are
        a tail of the first kind and a head of the second, and lie right and
        left of the row's group, where no split reads that kind. sides, when
        given, is _sides(lo, hi).
        """
        key = (lo, hi, label)
        got = self._tables.get(key)
        if got is None:
            cs, cp = self.cs, self.cp
            gaps, lefts, rights = sides or self._sides(lo, hi)
            short_lefts = [_term(cs[k + 1] - cs[lo] - 1, cp[k + 1] - cp[lo] - label) for k in gaps]
            short_rights = [_term(cs[hi] - cs[k + 1] - 1, cp[hi] - cp[k + 1] - label) for k in gaps]
            firsts = _running_min(map(add, lefts, short_rights), gaps, n)
            lasts = _running_min(map(add, reversed(short_lefts), reversed(rights)), gaps[::-1], n)
            got = self._tables[key] = firsts + tuple(a[::-1] for a in lasts)
        return got

    def _best(self, lo: int, hi: int, n: int, c: int, rm: _Removal | None, sides=None):
        """(gap, left rows, left counted labels, weighted entropy) of the lowest cut.

        With rm among the groups, the lowest boundary gap left of rm's group
        and the lowest right of it come from the range's table; only rm's two
        neighbouring gaps are weighed here. Ties go to the leftmost gap.
        sides, when given, is _sides(lo, hi).
        """
        cs, cp = self.cs, self.cp
        if rm is None:
            gaps, lefts, rights = sides or self._sides(lo, hi)
            if not gaps:
                return None
            sums = map(add, lefts, rights)
            w, k = min(zip(map(truediv, sums, repeat(n)), gaps))  # ties: the leftmost gap
        else:
            b = self.boundaries
            start, stop = bisect_left(b, lo), bisect_left(b, hi - 1)
            j, label = rm.group, rm.label
            mid = max(start, bisect_left(b, j - 1))
            after = max(mid, bisect_right(b, j))
            first_w, first_k, last_w, last_k = self._table(lo, hi, n, label)
            best = [(first_k[mid - 1 - start], first_w[mid - 1 - start])] if mid > start else []
            for k in (j - 1, j):
                if k in rm.gaps and lo <= k < hi - 1:
                    shift = k >= j
                    n_left = cs[k + 1] - cs[lo] - shift
                    a = cp[k + 1] - cp[lo] - label * shift
                    best.append((k, (_term(n_left, a) + _term(n - n_left, c - a)) / n))
            if after < stop:
                best.append((last_k[after - start], last_w[after - start]))
            if not best:
                return None
            k, w = min(best, key=itemgetter(1))  # gap order: the leftmost lowest wins
        shift = rm is not None and k >= rm.group
        n_left = cs[k + 1] - cs[lo] - shift
        a = cp[k + 1] - cp[lo] - (rm.label if shift else 0)
        return k, n_left, a, w

    def _accepts(self, *test) -> bool:
        """_mdl_accepts(*test), kept: the held-out fits of one range and
        label meet the same test again."""
        got = self._mdl.get(test)
        if got is None:
            got = self._mdl[test] = _mdl_accepts(*test)
        return got

    def _cuts(self, lo: int, hi: int, rm: _Removal | None) -> tuple:
        """Cuts of groups lo..hi-1, without rm's member when it lies among them."""
        if rm is not None and not lo <= rm.group < hi:
            rm = None
        if rm is None:
            key = lo * len(self.cs) + hi
            got = self._memo.get(key)
            if got is not None:
                return got
        n = self.cs[hi] - self.cs[lo]
        c = self.cp[hi] - self.cp[lo]
        if rm is not None:
            n -= 1
            c -= rm.label
        out = ()
        if n >= 2 and 0 < c < n:
            found = self._best(lo, hi, n, c, rm)
            if found is not None and self._accepts(n, c, *found[1:]):
                k = found[0]
                cut = rm.gaps[k] if rm is not None and k in rm.gaps else self.gap_cuts[k]
                out = self._cuts(lo, k + 1, rm) + (cut,) + self._cuts(k + 1, hi, rm)
        if rm is None:
            self._memo[key] = out
        return out


class GridFitter:
    """Level grids of one labeled row set, fitted once for all its splits.

    grids(level_attrs, held_out=n) equals build_grids on every row but n.
    Unlabeled rows take no part in a fit. Columns are sorted on first use.
    """

    def __init__(self, attributes: tuple[Attribute, ...], rows, class_col: int):
        self.attributes = attributes
        self.rows = rows
        self.class_col = class_col
        self._columns: dict[int, tuple[_Column, list]] = {}

    def _column(self, attr: int) -> tuple[_Column, list]:
        """Attribute attr's column and each row's position in it (None: not in it)."""
        got = self._columns.get(attr)
        if got is None:
            cc = self.class_col
            known = [
                n for n, r in enumerate(self.rows) if r[attr] is not None and r[cc] is not None
            ]
            position: list = [None] * len(self.rows)
            for p, n in enumerate(known):
                position[n] = p
            col = _Column([self.rows[n][attr] for n in known], [self.rows[n][cc] for n in known])
            got = self._columns[attr] = (col, position)
        return got

    def grids(self, level_attrs, held_out: int | None = None) -> dict[int, tuple]:
        """Grids for every attribute index in level_attrs, row held_out left out.

        Ordered, nominal and boolean attributes (the latter two when an
        encoding override forces level treatment) use their declared value
        order. Continuous attributes use the entropy cuts; fewer than two
        usable rows, or a single-class column, yield an empty grid, so the
        attribute contributes no boundary components.
        """
        grids: dict[int, tuple] = {}
        for attr in level_attrs:
            a = self.attributes[attr]
            if a.kind in (NOMINAL_KIND, ORDERED_KIND):
                assert a.values is not None
                grids[attr] = tuple(range(len(a.values)))
            elif a.kind == BOOL_KIND:
                grids[attr] = (False, True)
            elif a.kind == CONTINUOUS_KIND:
                col, position = self._column(attr)
                grids[attr] = col.cuts(None if held_out is None else position[held_out])
            else:
                raise DataError(f"attribute {a.name!r} is {a.kind}, which has no levels")
        return grids


def build_grids(attributes, rows, class_col: int, level_attrs) -> dict[int, tuple]:
    """Grids for every attribute index in level_attrs, fitted on the labeled rows."""
    return GridFitter(attributes, rows, class_col).grids(level_attrs)
