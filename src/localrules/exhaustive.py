"""Unpruned reference enumeration used to certify the search.

Every nonempty term set up to max_terms is generated outright and tested
against the acceptance predicates directly: no subtree reasoning, no
threshold-driven skipping, every drop mask recomputed from scratch. Slow on
purpose; guarded to at most 16 components.

It certifies the search at eps = 0 only. There testing the one-term drops
suffices: a drop's match set lies inside the match set of every subset of
it, and a nonempty part of a one-class row set holds one class, so a set
with a pure proper subset has a pure drop (or an empty one, which fails the
redundancy test). Purity within eps > 0 is not inherited that way, so
the search, which never expands a node pure within eps, can miss a set this
enumeration accepts. For example, at eps = 0.4 a prefix matching 6 rows of
one class and 4 of the other is pure within eps, so the search forms none of
its supersets, while a superset none of whose own one-term drops is pure
within eps passes every test here. At eps > 0 the search's contract is the
reference walk in tests/helpers.py (reference_search).

Group exclusivity is part of the rule-space definition rather than a prune
(two same-side components of one attribute collapse into one, so such sets
are duplicates of smaller sets), which keeps set equality with the search
well-defined.

It returns the search's rules.SearchOutcome, whose nodes_visited counts the
term sets examined; a query without components examines none.
"""

from __future__ import annotations

from itertools import combinations

from .encode import EncodedInstance
from .errors import DataError
from .rules import QualityParams, Rule, SearchOutcome, make_rule, mismatch_floors

MAX_COMPONENTS = 16


def exhaustive_rules(inst: EncodedInstance, params: QualityParams) -> SearchOutcome:
    inst = inst.plain()  # a held-out row's bit leaves every set
    m = inst.n_components
    if m > MAX_COMPONENTS:
        raise DataError(f"{m} components; reference enumeration allows {MAX_COMPONENTS}")
    if inst.n_pos == 0 or inst.n_neg == 0:
        raise DataError("training rows contain a single class")

    comps = inst.components
    class_bits = inst.class_bits
    full_mask = (1 << inst.n_rows) - 1
    floor_pos, floor_neg = mismatch_floors(params, inst.n_pos, inst.n_neg)
    min_corr = 1.0 - params.eps

    candidates: list[Rule] = []
    examined = 0
    for size in range(1, min(params.max_terms, m) + 1):
        for combo in combinations(range(m), size):
            groups = [comps[cid].group_key for cid in combo if comps[cid].group_key]
            if len(groups) != len(set(groups)):
                continue  # duplicate of a smaller set by conjunction collapse
            examined += 1

            keep = True
            for leave_out in combo:
                drop = full_mask
                for cid in combo:
                    if cid != leave_out:
                        drop &= comps[cid].match_bits
                mism = drop & ~comps[leave_out].match_bits
                mp = (mism & class_bits).bit_count()
                mn = mism.bit_count() - mp
                if not (mp > floor_pos or mn > floor_neg):
                    keep = False  # this term excludes nothing it may claim
                    break
                if drop:
                    dp = (drop & class_bits).bit_count()
                    dn = drop.bit_count() - dp
                    if max(dp, dn) >= min_corr * (dp + dn):
                        keep = False  # properly contains a (near-)pure rule
                        break
            if not keep:
                continue

            match = full_mask
            for cid in combo:
                match &= comps[cid].match_bits
            if not match:
                continue  # a rule must match a training row
            candidates.append(make_rule(combo, match, class_bits, inst.n_rows, params.weight))

    best = max((r.quality for r in candidates), default=None)
    if best is None or best < params.base_threshold:
        return SearchOutcome((), None, params.base_threshold, examined)
    final = max(params.base_threshold, params.keep_frac * best)
    kept = [r for r in candidates if r.quality >= final]
    kept.sort(key=lambda r: (-r.quality, r.term_ids))
    return SearchOutcome(tuple(kept), best, final, examined)
