"""Conflict resolution and the final class prediction for one instance.

Accepted rules may disagree, so no single rule decides. Their match sets are
merged into one combined match set and that union is scored exactly like a
rule. When the union passes the initial acceptance level (the base threshold,
not the dynamically tightened one), the prediction is the union's dominating
class with its conditional class frequency as the probability estimate.
Otherwise the prediction falls back to the training majority class with its
unconditional prior.
"""

from __future__ import annotations

from dataclasses import dataclass

from .data import Dataset, split_for_prediction
from .discretize import GridFitter
from .encode import EncodedInstance, TrainingIndex, attrs_needing_grids
from .rules import Contingency, QualityParams, Rule, contingency, quality, select_target
from .search import SearchOutcome, search_local_rules

# Per-query grid fits and encodings go through these names, so each can be
# swapped as one layer.
build_grids = GridFitter.grids
encode = TrainingIndex.encode

SOURCE_COMBINED = "combined_rule"
SOURCE_PRIOR = "class_prior"


def mask_class(row: tuple, class_col: int) -> tuple:
    """The prediction point with its class label removed.

    Every prediction path goes through this, so a predictor reading a test
    label is impossible rather than merely avoided.
    """
    return row[:class_col] + (None,) + row[class_col + 1 :]


@dataclass(frozen=True)
class CombinedRule:
    match_bits: int  # union over accepted rules
    table: Contingency
    target: bool
    quality: float
    accepted: bool

    @property
    def correctness(self) -> float:
        covered = self.table.n_tt if self.target else self.table.n_tf
        return covered / self.table.n_match


@dataclass(frozen=True)
class Prediction:
    target: bool  # True = positive class (first declared value)
    label: str
    probability: float
    source: str  # SOURCE_COMBINED or SOURCE_PRIOR
    search: SearchOutcome
    combined: CombinedRule

    @property
    def rules(self) -> tuple[Rule, ...]:
        return self.search.rules


def combine(
    rules, class_bits: int, n_rows: int, params: QualityParams
) -> CombinedRule:
    """Score the union of the rules' match sets as one rule.

    Every accepted rule matches a training row, so the union is empty only
    for an empty rule list. It is rejected outright: it carries no evidence
    even when the score alone clears the threshold, and has no correctness.
    """
    union = 0
    for rule in rules:
        union |= rule.match_bits
    table = contingency(union, class_bits, n_rows)
    target = select_target(table)
    q = quality(table, target, params.weight)
    accepted = union != 0 and q >= params.base_threshold
    return CombinedRule(union, table, target, q, accepted)


def predict_encoded(inst: EncodedInstance, params: QualityParams) -> Prediction:
    """Search, combine, and fall back to the prior when the union is rejected.

    A prediction point without components (every attribute missing, say) has
    nothing to build a rule from; it skips the search, visits no nodes, and
    is predicted from the prior like any point without an accepted rule.
    """
    if inst.n_components == 0:
        outcome = SearchOutcome((), None, params.base_threshold, 0)
    else:
        outcome = search_local_rules(inst, params)
    combined = combine(outcome.rules, inst.class_bits, inst.n_rows, params)
    if combined.accepted:
        target, probability, source = combined.target, combined.correctness, SOURCE_COMBINED
    else:
        target = inst.n_pos >= inst.n_neg
        probability = (inst.n_pos if target else inst.n_neg) / inst.n_rows
        source = SOURCE_PRIOR
    label = inst.class_labels[0 if target else 1]
    return Prediction(target, label, probability, source, outcome, combined)


def encode_row(
    d: Dataset,
    row: int,
    mode: str = "levels",
    overrides: dict | None = None,
    index: TrainingIndex | None = None,
    fitter: GridFitter | None = None,
) -> EncodedInstance:
    """Encode one dataset row, class masked, against all the other rows.

    index, a TrainingIndex, and fitter, a GridFitter, both over all of d's
    rows (each built when None), are shared by every such split: the row is
    dropped from the index's bitsets and left out of the grid fit, so it
    never influences its own encoding.
    """
    pred_row, _ = split_for_prediction(d, row)  # also checks the row's range
    pred_row = mask_class(pred_row, d.class_col)
    if index is None:
        index = TrainingIndex(d.attributes, d.rows, d.class_col)
    if fitter is None:
        fitter = GridFitter(d.attributes, d.rows, d.class_col)
    grids = build_grids(fitter, attrs_needing_grids(d.attributes, mode, overrides), row)
    return encode(index, pred_row, grids, mode, overrides, held_out=row)


def predict_for_row(
    d: Dataset,
    row: int,
    params: QualityParams,
    mode: str = "levels",
    overrides: dict | None = None,
) -> Prediction:
    """Predict one dataset row from all the others."""
    return predict_encoded(encode_row(d, row, mode, overrides), params)
