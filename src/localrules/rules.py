"""Scoring one candidate rule.

A rule's quality blends two ratios: how much of the non-predicted class it
excludes (weight) and how much of the predicted class it covers (1 - weight).
A perfectly correct rule therefore scores weight + (1-weight) * coverage,
which is where the acceptance threshold comes from: base_threshold is the
score of a perfectly correct rule covering min_cover of its class.

All counts are exact integers, and every score is one float expression in
them: exclusion(n_tf of n_neg) + coverage(n_tt of n_pos), each half computed
alone and then added (count_quality). So every caller (the search, the
reference enumerator, the combined-rule check and the floor estimates)
produces bit-identical values for identical counts. score_tables caches each
half for every count of one class total and weight; a table entry is the same
IEEE operations on the same operands as the half computed in place, and a
sum of two table entries is the same final addition, so a score read from
the tables equals count_quality bit for bit. The same holds for a perfect
rule's score, exclusion(0) + coverage(count), which the count floors bisect.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, fields
from functools import lru_cache

from .errors import BadParams, DataError


@dataclass(frozen=True)
class Contingency:
    """Joint counts of (rule matches) x (class is positive) over training rows."""

    n_tt: int
    n_tf: int
    n_ft: int
    n_ff: int

    @property
    def n_pos(self) -> int:
        return self.n_tt + self.n_ft

    @property
    def n_neg(self) -> int:
        return self.n_tf + self.n_ff

    @property
    def n_match(self) -> int:
        return self.n_tt + self.n_tf


def contingency(match_bits: int, class_bits: int, n_rows: int) -> Contingency:
    if match_bits >> n_rows or class_bits >> n_rows:
        raise DataError(f"bit vector longer than {n_rows} rows")
    n_tt = (match_bits & class_bits).bit_count()
    n_tf = match_bits.bit_count() - n_tt
    n_ft = class_bits.bit_count() - n_tt
    return Contingency(n_tt, n_tf, n_ft, n_rows - n_tt - n_tf - n_ft)


def select_target(t: Contingency) -> bool:
    """Predicted class: the one dominating the match set.

    Ties go to the class with more training rows overall, then to positive.
    """
    if t.n_tt != t.n_tf:
        return t.n_tt > t.n_tf
    return t.n_pos >= t.n_neg


def _exclusion(other_matched: int, other_total: int, weight: float) -> float:
    """Weighted share of the non-predicted class that the rule leaves out."""
    return weight * ((other_total - other_matched) / other_total)


def _coverage(matched: int, total: int, weight: float) -> float:
    """Weighted share of the predicted class that the rule covers."""
    return (1 - weight) * (matched / total)


def count_quality(
    n_tt: int, n_tf: int, n_pos: int, n_neg: int, target: bool, weight: float
) -> float:
    """quality() from a rule's match counts by class and the class totals.

    Holds the single float expression all quality values flow through, as
    the sum of its two halves; score_tables holds the same halves per count.
    """
    if not target:  # score the negative class as the predicted one
        n_tt, n_tf, n_pos, n_neg = n_tf, n_tt, n_neg, n_pos
    return _exclusion(n_tf, n_neg, weight) + _coverage(n_tt, n_pos, weight)


@lru_cache(maxsize=8)
def score_tables(
    class_total: int, weight: float
) -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]:
    """(exclusion, coverage, perfect) for every count 0..class_total of one class.

    exclusion[k] is the exclusion half when k rows of this class match and
    it is not the predicted class; coverage[k] the coverage half when it is.
    A rule predicting the positive class scores neg_exclusion[n_tf] +
    pos_coverage[n_tt], equal to count_quality bit for bit. perfect[k] =
    exclusion[0] + coverage[k], a perfect rule's score, is count_quality(k,
    0, class_total, 1, True, weight) bit for bit (both exclusion ratios are
    exactly 1), and never falls as k rises. A search needs the tables of its
    two class totals at one weight, hence the small cache.
    """
    counts = range(class_total + 1)
    exclusion = tuple(_exclusion(k, class_total, weight) for k in counts)
    coverage = tuple(_coverage(k, class_total, weight) for k in counts)
    return exclusion, coverage, tuple(exclusion[0] + c for c in coverage)


def quality(t: Contingency, target: bool, weight: float) -> float:
    """Weighted exclusion/coverage score in [0, 1] for the given predicted class."""
    if t.n_pos == 0 or t.n_neg == 0:
        raise DataError("both class values need training rows")
    return count_quality(t.n_tt, t.n_tf, t.n_pos, t.n_neg, target, weight)


@dataclass(frozen=True)
class Rule:
    term_ids: tuple[int, ...]
    match_bits: int
    table: Contingency
    target: bool
    quality: float

    @property
    def cover_count(self) -> int:
        return self.table.n_tt if self.target else self.table.n_tf

    @property
    def class_total(self) -> int:
        return self.table.n_pos if self.target else self.table.n_neg

    @property
    def correctness(self) -> float:
        return self.cover_count / self.table.n_match if self.table.n_match else 0.0


@dataclass(frozen=True)
class SearchOutcome:
    rules: tuple[Rule, ...]  # sorted by descending quality, then term ids
    best_quality: float | None  # None when nothing was accepted
    final_threshold: float  # max(base_threshold, keep_frac * best_quality)
    nodes_visited: int  # the search's formed children; the enumeration's examined sets


def make_rule(term_ids, match_bits: int, class_bits: int, n_rows: int, weight: float) -> Rule:
    t = contingency(match_bits, class_bits, n_rows)
    target = select_target(t)
    return Rule(
        term_ids=tuple(term_ids),
        match_bits=match_bits,
        table=t,
        target=target,
        quality=quality(t, target, weight),
    )


@dataclass(frozen=True)
class QualityParams:
    weight: float = 0.75  # share of the score carried by the exclusion ratio
    min_cover: float = 0.08  # class fraction a rule must cover to be acceptable
    min_mism: float = 0.02  # class fraction each term must uniquely exclude
    max_terms: int = 8
    keep_frac: float = 1.0  # keep rules scoring at least this fraction of the best
    eps: float = 0.0  # slack on "perfectly correct" for the search cutoff

    def __post_init__(self):
        if not 0.0 <= self.weight <= 1.0:
            raise BadParams(f"weight must be in [0,1], got {self.weight}")
        if not 0.0 <= self.min_cover <= 1.0:
            raise BadParams(f"min_cover must be in [0,1], got {self.min_cover}")
        if not 0.0 <= self.min_mism <= 1.0:
            raise BadParams(f"min_mism must be in [0,1], got {self.min_mism}")
        if self.max_terms < 1:
            raise BadParams(f"max_terms must be >= 1, got {self.max_terms}")
        if not 0.0 < self.keep_frac <= 1.0:
            raise BadParams(f"keep_frac must be in (0,1], got {self.keep_frac}")
        if not 0.0 <= self.eps < 1.0:
            raise BadParams(f"eps must be in [0,1), got {self.eps}")

    @property
    def base_threshold(self) -> float:
        return self.weight + (1 - self.weight) * self.min_cover

    def echo_lines(self) -> list[str]:
        """One key=value line per field, in declaration order, for every output to echo."""
        return [f"{f.name}={getattr(self, f.name)!r}" for f in fields(self)]


def mismatch_floors(params: QualityParams, n_pos: int, n_neg: int) -> tuple[float, float]:
    """Per-class row-count floors for the term-redundancy test (strict >)."""
    return (params.min_mism * n_pos, params.min_mism * n_neg)


def min_cover_count(threshold: float, class_total: int, weight: float) -> int:
    """Smallest per-class match count whose best achievable score reaches threshold.

    Bisected on the class's perfect-score table (score_tables) rather than
    solved algebraically, so the boundary count agrees exactly with the
    scorer; the bisection is exact because that table never falls as the
    count rises. Returns class_total + 1 when even full coverage cannot
    reach threshold.
    """
    return bisect_left(score_tables(class_total, weight)[2], threshold)


def format_rule(rule: Rule, components, class_labels: tuple[str, str]) -> str:
    terms = " AND ".join(components[cid].display for cid in rule.term_ids)
    label = class_labels[0] if rule.target else class_labels[1]
    return (
        f"IF {terms} THEN class={label}  "
        f"[alpha={rule.quality:.6f}, cover={rule.cover_count}/{rule.class_total}, "
        f"correct={rule.cover_count}/{rule.table.n_match}]"
    )
