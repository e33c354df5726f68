"""Supervised discretization: level grids for ordered and continuous attributes.

Continuous attributes get cut points from recursive entropy minimization with
the minimum-description-length stopping rule; ordered discrete attributes use
every declared value as a level. The resulting grid feeds the encoder's
boundary components.
"""

from __future__ import annotations

import math

from .data import (
    BOOL_KIND,
    CONTINUOUS_KIND,
    NOMINAL_KIND,
    ORDERED_KIND,
    Attribute,
)
from .errors import EmptyInput, LengthMismatch, NonBinaryClass, WrongKind


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


def _prefix_counts(labels) -> list[int]:
    """Prefix counts of the first label: entry i counts it among labels[:i].

    Any index range [lo, hi) then holds ones[hi] - ones[lo] of that label.
    More than two label values raise NonBinaryClass.
    """
    kinds = len(set(labels))
    if kinds > 2:
        raise NonBinaryClass(f"entropy cuts need at most 2 label values, got {kinds}")
    ones = [0]
    if labels:
        first, count = labels[0], 0
        for g in labels:
            count += g == first
            ones.append(count)
    return ones


def _best_split(xs, ones, lo: int, hi: int) -> tuple[int, float, float] | None:
    n = hi - lo
    base = ones[lo]
    total = ones[hi] - base
    best: tuple[int, float, float] | None = None
    for i in range(lo, hi - 1):
        x, nxt = xs[i], xs[i + 1]
        if x == nxt:
            continue
        n_left = i + 1 - lo
        a = ones[i + 1] - base
        b = total - a
        w = (n_left * _entropy(a, n_left - a) + (n - n_left) * _entropy(b, n - n_left - b)) / n
        if best is None or w < best[2]:
            cut = _midpoint(x, nxt)
            if cut is not None:
                best = (i, cut, w)
    return best


def best_split(pairs: list[tuple[float, object]]) -> tuple[int, float, float] | None:
    """Lowest-weighted-entropy cut for a value-sorted (value, label) list.

    Returns (boundary index, cut value, weighted entropy); ties go to the
    leftmost cut. None when no two distinct values exist. Labels must take at
    most two values.
    """
    ones = _prefix_counts([g for _, g in pairs])
    return _best_split([v for v, _ in pairs], ones, 0, len(pairs))


def _mdl_accepts(ones, lo: int, split_at: int, hi: int, w: float) -> bool:
    n = hi - lo
    mid = split_at + 1
    c, c1 = ones[hi] - ones[lo], ones[mid] - ones[lo]
    c2 = c - c1
    n1, n2 = mid - lo, hi - mid
    e, e1, e2 = _entropy(c, n - c), _entropy(c1, n1 - c1), _entropy(c2, n2 - c2)
    k = (c > 0) + (c < n)
    k1 = (c1 > 0) + (c1 < n1)
    k2 = (c2 > 0) + (c2 < n2)
    gain = e - w
    threshold = math.log2(n - 1) / n + (
        math.log2(3**k - 2) - k * e + k1 * e1 + k2 * e2
    ) / n
    return gain > threshold


def _recurse(xs, ones, lo: int, hi: int, out: list[float]) -> None:
    n = hi - lo
    c = ones[hi] - ones[lo]
    if n < 2 or c == 0 or c == n:
        return
    found = _best_split(xs, ones, lo, hi)
    if found is None:
        return
    split_at, cut, w = found
    if not _mdl_accepts(ones, lo, split_at, hi, w):
        return
    _recurse(xs, ones, lo, split_at + 1, out)
    out.append(cut)
    _recurse(xs, ones, split_at + 1, hi, out)


def entropy_mdl_cuts(values, labels) -> list[float]:
    """Cut points for one continuous attribute given binary class labels.

    Inputs must be missing-free and of equal length >= 2, with at most two
    label values (more raise NonBinaryClass); the result is a strictly
    increasing (possibly empty) list of thresholds, each strictly between two
    adjacent observed values. One sort, then linear scans over index ranges
    of one prefix-count array.
    """
    if len(values) != len(labels):
        raise LengthMismatch(f"{len(values)} values vs {len(labels)} labels")
    if len(values) < 2:
        raise EmptyInput("need at least 2 values to consider a cut")
    order = sorted(range(len(values)), key=values.__getitem__)
    xs = [values[i] for i in order]
    ones = _prefix_counts([labels[i] for i in order])
    out: list[float] = []
    _recurse(xs, ones, 0, len(xs), out)
    return out


def initial_grid(attributes: tuple[Attribute, ...], rows, attr: int, class_col: int):
    """Level grid for one attribute, computed from the given training rows.

    Ordered attributes use every declared value (as category indices);
    continuous attributes use the entropy cuts. Fewer than two usable rows,
    or a single-class column, yields an empty grid: the attribute then simply
    contributes no boundary components.
    """
    a = attributes[attr]
    if a.kind == ORDERED_KIND:
        assert a.values is not None
        return tuple(range(len(a.values)))
    if a.kind != CONTINUOUS_KIND:
        raise WrongKind(f"attribute {a.name!r} is {a.kind}, not ordered/continuous")
    known = [row for row in rows if row[attr] is not None]
    if len(known) < 2:
        return ()
    return tuple(entropy_mdl_cuts([r[attr] for r in known], [r[class_col] for r in known]))


def build_grids(attributes, rows, class_col: int, level_attrs) -> dict[int, tuple]:
    """Grids for every attribute index in level_attrs.

    Unlike initial_grid this also accepts nominal and boolean attributes,
    which arise when an encoding override forces level treatment on an
    unordered attribute: their declared value order becomes the grid.
    """
    grids: dict[int, tuple] = {}
    for attr in level_attrs:
        a = attributes[attr]
        if a.kind == NOMINAL_KIND:
            assert a.values is not None
            grids[attr] = tuple(range(len(a.values)))
        elif a.kind == BOOL_KIND:
            grids[attr] = (False, True)
        else:
            grids[attr] = initial_grid(attributes, rows, attr, class_col)
    return grids
