"""Depth-first enumeration of candidate term sets with sound pruning.

Subsets are enumerated canonically (component ids strictly increasing along a
path), so each set is formed at most once. Five prunes apply at a node:

  1. depth: paths stop at max_terms.
  2. group exclusivity: at most one lower-side and one upper-side component of
     one attribute per path (a second one collapses into a single component,
     so those sets are duplicates by construction).
  3. perfect cutoff: a node whose match set is pure (correctness >= 1 - eps)
     is recorded and not expanded; a superset can only shrink a pure match
     set, and the companion "blocked" test below makes this order-independent.
  4. coverage floor: a node is dropped when, for every class, even a
     perfectly correct descendant at the node's per-class match count could
     not reach the current acceptance threshold. The per-class count floors
     are found by bisecting the class's table of perfect scores
     (rules.score_tables), the scorer's own float values, so a rule sitting
     exactly on the threshold is never lost.
  5. term redundancy: every term must uniquely exclude rows. The rows
     matching all other terms but mismatching this one must exceed the
     mismatch floor for at least one class. Mismatch sets only shrink along a
     path, so a violation prunes the whole subtree.

"Blocked" formalizes the perfect cutoff without reference to traversal
order: a set is blocked when some one-term drop has a nonempty match set of
correctness >= 1 - eps. At eps = 0 a set survives (not blocked, admissible)
exactly when it properly contains no nonempty pure subset, which is what the
unpruned reference enumeration (exhaustive.py) checks as a per-set predicate.
At eps > 0 the two can differ, because purity within eps is not inherited by
subsets: a node pure within eps is not expanded, so a superset of it is never
formed even when none of that superset's own one-term drops is pure within
eps, and the enumeration, which tests only those drops, accepts it. There
the contract is the reference walk in tests/helpers.py (reference_search),
which prunes as this search does, without the candidate tails.

Candidate tails (OPUS, Webb 1995; LCM's tail pruning, Uno et al. 2004): a
node forms its children only from the candidates that can still extend it,
its tail. The parent forms a child's tail when it decides to expand the
child, in one pass over the candidates after the child in its own tail, and
enters the child only when a candidate survives. A tail entry is (cid,
match, pos, neg, drop, drop_pure): the extended set's match set with its two
class counts, and its drop, the match set one level up (the same candidate
added to the parent). The drop is the extended set's one-term drop of the
node's newest term; the parent's pass formed it, with its counts, as that
candidate's own entry. A candidate leaves the tail of the whole subtree when
the extended set misses the coverage floor, when its new term excludes too
few of the node's rows, when the newest term excludes too few of the drop's
rows, or when the drop holds a single class. Each failure repeats at every
descendant: there the match sets are subsets of these, the floors only rise,
and a nonempty subset of a one-class set is pure at any eps (an empty one
leaves the term no row to exclude). A drop that is pure only within eps
(drop_pure) blocks its one extended set and leaves the candidate in the
tail, because a subset of it need not be pure within eps. All mismatch
counts come by subtraction, because a term set's match set lies inside
every one-term drop: the new term leaves (node - child) rows unmatched, and
a dropped term leaves (drop - child) rows. The children in a tail get the
remaining checks in canonical order (the floor at the current threshold,
drop_pure, then the redundancy and blocked tests of the drops of the node's
older terms), so the threshold rises at the same points as in a walk over
every child. A child of the root has no older term: its drop is the root
match, which the root's own pass already tested.
Each test reads only the counts that can decide it. A mismatch count k
exceeds its floor x = min_mism * n exactly when k > floor(x), so the drop
and tail tests compare popcounts with integer limits; a drop's total
popcount is read only when its positive one fails. At eps = 0 only a set
that lacks a class is pure, and a drop holds the child's match set, so the
purity of a child and of its drops is read only at eps > 0 or when the
child lacks a class, and a tail entry's drop, which holds both classes,
is tested for purity only at eps > 0.
A child is scored on its two class counts as the sum of two table entries
(rules.score_tables: the exclusion half at the other class's count and the
coverage half at the predicted class's), which equals rules.count_quality bit
for bit. Its Contingency is built only when it reaches a threshold and
matches a training row (an empty match set scores at most the base
threshold, so it never raises it), and its Rule only when it passes the
final filter.

The walk is one loop over an explicit stack, so its depth takes no
interpreter stack. The node being expanded is held in locals: the match sets
of its one-term drops of its older terms, its used-group mask, its tail, the
index of its next candidate and the queries at it; its terms are one path
list. Entering a child pushes the node's frame (drops, used, tail, next
index, queries) and appends the child's term to the path. When a node's tail
is done, the loop pops the parent's frame and the path's last term, and the
parent resumes at the candidate after that child, so nodes are entered in
canonical depth-first order.

A component's id is its position. A path's used boundary groups are one
mask over ids: the union of its terms' group masks, each the ids sharing the
term's Component.group_key (0 for an exact one). A tail candidate in a used
group is skipped by testing its bit.

A query without components forms no node and gets the empty outcome, after
the single-class check, which comes first because every score needs both
classes.

One walk (search_split) answers the queries of one training split; a lone
query (predict, rules, predict_for_row) is a split of one. The queries share
the class bits, so a display names one component with one match set in all
of them. The walk runs over the union of their components sorted by
Component.order (equality components by attribute, then boundary components
by attribute and level, whichever grid a level came from), the order in
which each query lists its own, so each query's order is a restriction of
the union's; a lone query's union is its own components. A term set's facts
that do not depend on the query are computed once for every query that
reaches it: its match set and class counts, the drop tests of its older
terms, its score and the tail it hands down. Each query keeps its own
threshold, best quality, found rules and node count. A set of queries (those
at a node, those holding a component, those under a threshold) is one int in
which query q owns a field of W bits, all ones when q is in the set, so a
union or an intersection of sets is one OR or one AND over the whole batch:

  - entry: a candidate must meet the count floors of the lowest threshold;
    a query holding it enters when its threshold is at most the better
    perfect score at the candidate's two counts (its own floors).
  - acceptance: a rule is found for the entering queries whose threshold
    it reaches and raises their thresholds, and the floors of the lowest
    threshold are bisected again.
  - node count: the counts are fields of one int too, query q's in field
    q (SIMD within a register, Fisher and Dietz 1998). Expanding a node
    adds, in each entering query's field, the query's components above the
    newest term outside the used groups: the counts gain a step ANDed with
    the entering queries' fields, one AND and one add for the batch. In
    every field the step holds that query's number: the sum of the low bits
    of the holders' fields over the ids above the term, less those of the
    used ids there, kept per walk by the term and the used ids. No field
    carries into the next: a query with m components forms each term set
    of at most max_terms of them at most once, so its count never exceeds
    sum(comb(m, k) for k in 1..max_terms), and W is that bound's bit length
    at the largest m of the batch.
  - term ids: a query's id of a term is the popcount of its components
    below the term.

A lone walk differs from a batch in two steps, each measured to pay: its
one query holds every component and meets the entry floors, so it enters
without the entry mask, and it adds the ids above less the used ones to a
plain int in place of the step.

Restricted to one query, this is that query's own canonical walk with the
same threshold history. The one difference is where the coverage floor cuts:
a tail is formed under the lowest threshold of the batch, and each query's
own floor applies when it enters a candidate. Thresholds only rise and counts
only shrink down a path, so a candidate the query's own walk would have left
out of a tail fails the query's entry test there and at every descendant, and
entering a child whose tail holds nothing the query can use changes nothing
it returns. So a query's rules (term ids, match set, table, target, quality),
best quality, final threshold and node count are the same in any batch, alone
included.

Leave-one-out queries each hold out one row of one index over all rows
(encode.EncodedInstance.held_out), and keep the index's own bitsets. The
held-out row p agrees with itself on ==, <= and > (a missing cell drops its
attribute, and parsing rejects non-finite floats), so it lies in the match
set of each of its own components, and every set its walk forms, the root
included, holds p. Over the index's bitsets, then, every set counts one row
more of p's class than over p's training rows, and as many of the other
class, so subtracting one row of p's class from every popcount gives p's own
counts at every set (one holding only p counts as empty). The queries
holding out rows of one class are therefore walked together over the index's
bitsets with that one subtraction: tail entries hold the queries' own
counts, and the drop and tail tests fold the subtraction into their limits.
Every query's rules, best quality, final threshold and node count are those
of its own walk over its training rows, once its match sets lose p's bit
(encode.without_row). A lone held-out query is walked the same way, as a
batch of one. A batch that holds out rows of both classes, mixes held-out
and plain queries, or holds a query that does not match its own held-out
row, a lone one included, is refused. A candidate that no query at a node
holds may count one row short there, but no query in the subtree enters it.

The acceptance threshold tightens dynamically to keep_frac * best-so-far; a
final filter re-applies max(base_threshold, keep_frac * best), so the result
is independent of the order in which rules are found. The search itself is
sequential and deterministic; callers parallelize across prediction points.

nodes_visited is the count of children the canonical, unfiltered enumeration
forms: the root forms every component, and an expanded node forms every
component id above its last term that is not in a used group, whether or not
its tail holds it. The parent adds that count (the ids above the child's
term less those in the child's used-group mask) when it decides to expand a
child, and it enters the child only when the child's tail, formed at that
point, holds a candidate: without one, the child would only count. Children
of a pruned node, and of a node with an empty match set, are never formed
(every term of an empty node's child would have an empty mismatch set, so
those children are all inadmissible anyway). The count is therefore
independent of the tail filter and comparable across versions of the search.
"""

from __future__ import annotations

from bisect import bisect_right
from math import comb, floor
from operator import attrgetter

from .encode import Component, EncodedInstance, without_row
from .errors import DataError
from .rules import (
    Contingency,
    QualityParams,
    Rule,
    SearchOutcome,
    min_cover_count,
    mismatch_floors,
    score_tables,
)


def _sorted_rules(found: list[Rule]) -> tuple[Rule, ...]:
    return tuple(sorted(found, key=lambda r: (-r.quality, r.term_ids)))


def _group_masks(components) -> list[int]:
    """Each component's boundary group as a component-id mask (0 for an exact one).

    A path's used groups are the union of its terms' group masks.
    """
    keys = [c.group_key for c in components]
    masks = {None: 0}
    for cid, key in enumerate(keys):
        if key is not None:
            masks[key] = masks.get(key, 0) | 1 << cid
    return [masks[key] for key in keys]


def search_local_rules(
    inst: EncodedInstance, params: QualityParams, split: SplitWalk | None = None
) -> SearchOutcome:
    """The query's accepted rules, best quality, final threshold and node count.

    With split, one of whose queries inst is, the answer is read from the
    split's one walk; without one, inst is walked as a split of one.
    """
    if split is not None:
        return split.outcome(inst, params)
    return search_split([inst], params)[0]


def _split_union(instances) -> tuple[list, list]:
    """(union, each query's union ids).

    A component is keyed by its display. The union comes in increasing
    Component.order, in which every query of one query_encoder lists its own
    components, so each query's order is a restriction of the union's.
    Queries encoded against different grids of one attribute thus share a
    walk too. Components with one key that no query holds together (the two
    sides of one level, say) keep the order they were met in.
    """
    first = instances[0]
    if any(inst.class_bits != first.class_bits for inst in instances):
        raise ValueError("the queries were not encoded against one training split")
    if any(inst.held_out_counts != first.held_out_counts for inst in instances):
        raise ValueError("the queries do not hold out rows of one class, or mix in plain ones")
    if first.held_out is not None and any(
        not c.match_bits >> inst.held_out & 1 for inst in instances for c in inst.components
    ):
        raise ValueError("a query does not match its own held-out row")
    union: dict[str, Component] = {}
    for inst in instances:
        for c in inst.components:
            if union.setdefault(c.display, c) != c:
                raise ValueError(f"component {c.display!r} differs between the queries")
    comps = sorted(union.values(), key=attrgetter("order"))
    uid = {c.display: cid for cid, c in enumerate(comps)}
    return comps, [[uid[c.display] for c in inst.components] for inst in instances]


def _levels(at: dict[float, int]) -> tuple[list[float], list[int]]:
    """(levels, below) of the queries at[t] at each threshold t; see search_split."""
    levels = sorted(at)
    below = [0]
    for level in levels:
        below.append(below[-1] | at[level])
    return levels, below


def search_split(instances, params: QualityParams) -> list[SearchOutcome]:
    """search_local_rules(inst, params) for every query of one training split, in one walk.

    The queries must share the class bits, as every query of one
    query_encoder does. Queries that each hold out a row of the index must
    all hold out rows of one class; they are walked over the index's own
    bitsets with the held-out row counted out (see the module docstring), a
    lone one too.
    """
    if not instances:
        return []
    n_pos, n_neg = instances[0].n_pos, instances[0].n_neg
    if n_pos == 0 or n_neg == 0:
        raise DataError("training rows contain a single class")

    n_queries = len(instances)
    lone = n_queries == 1
    comps, ids = _split_union(instances)
    m = len(comps)
    max_terms = params.max_terms
    # Query q owns bits [width*q, width*(q+1)) of every query mask, all ones
    # when q is in the set, and of counts, which holds what its expansions
    # add to its node count. No count exceeds the number of term sets of at
    # most max_terms of its components, so no field carries into the next.
    most = max(map(len, ids))
    width = sum(comb(most, k) for k in range(1, min(most, max_terms) + 1)).bit_length() or 1
    field = (1 << width) - 1
    if not lone:
        # units[cid]: the low bit of the field of each query holding cid;
        # holders[cid]: those fields; suffix[cid]: the sum of units above cid.
        units = [0] * m
        for q, row in enumerate(ids):
            for cid in row:
                units[cid] |= 1 << width * q
        holders = [unit * field for unit in units]
        suffix = [0] * m
        for cid in range(m - 1, 0, -1):
            suffix[cid - 1] = suffix[cid] + units[cid]
        steps: dict[tuple[int, int], int] = {}  # (cid, child_used >> cid) -> step
    counts = 0
    bits = [c.match_bits for c in comps]
    group_mask = _group_masks(comps)
    weight = params.weight
    keep = params.keep_frac
    min_corr = 1.0 - params.eps
    slack = params.eps > 0  # at eps = 0 only a one-class set is pure
    class_bits = instances[0].class_bits
    # Every set the walk forms holds the held-out row of each query at it,
    # so a popcount over the walked bitsets is that query's own count plus
    # hp (positive) or hn (negative). Tail entries hold the own counts; the
    # drop and tail tests read raw popcounts against limits with the offsets
    # folded in. A count k exceeds a mismatch floor x exactly when k >
    # floor(x), so those limits are integers.
    hp, hn = instances[0].held_out_counts
    h = hp + hn
    mism_pos, mism_neg = map(floor, mismatch_floors(params, n_pos, n_neg))
    pos_gap, neg_gap = hp - mism_pos, hn - mism_neg
    tie_target = n_pos >= n_neg
    ex_pos, cov_pos, perfect_pos = score_tables(n_pos, weight)
    ex_neg, cov_neg, perfect_neg = score_tables(n_neg, weight)
    base = params.base_threshold

    # Per query: its threshold, best quality and found rules.
    thresholds = [base] * n_queries
    best: list[float | None] = [None] * n_queries
    found: list[list[tuple]] = [[] for _ in range(n_queries)]
    # The queries grouped by threshold: levels ascending, below[k] the queries
    # whose threshold is under levels[k].
    at = {base: (1 << width * n_queries) - 1}
    levels, below = [base], [0, at[base]]
    # The lowest threshold and its count floors, which every query's reach.
    lowest = base
    floor_pos = min_cover_count(base, n_pos, weight)
    floor_neg = min_cover_count(base, n_neg, weight)

    # The frame of the node being expanded, whose terms are path: its drops'
    # match sets, its used groups, its tail, its next candidate's index and
    # the queries at it.
    drops, used, tail, start, rows = [], 0, [], 0, below[1]
    entering = rows  # a lone query is the only one at every node
    if max(n_pos, n_neg) < min_corr * (n_pos + n_neg):
        # Only an impure root is expanded. At a pure enough root every
        # singleton is blocked by its one drop (the parent match). Every
        # root candidate's drop is the root match, so there the drop tests
        # would repeat the new-term tests, and a root child has no older
        # term to drop.
        full = (1 << (instances[0].n_rows + h)) - 1
        for cid in range(m):
            match = full & bits[cid]
            cpos = (match & class_bits).bit_count() - hp
            cneg = match.bit_count() - cpos - h
            if (cpos >= floor_pos or cneg >= floor_neg) and (
                n_pos - cpos > mism_pos or n_neg - cneg > mism_neg
            ):
                tail.append((cid, match, cpos, cneg, full, False))
    path: list[int] = []
    stack = []  # the frames of the node's ancestors, each at its next candidate

    while True:
        leaf = len(path) + 1 >= max_terms
        last = len(tail) - 1
        for i in range(start, last + 1):
            cid, child_match, cpos, cneg, drop, drop_pure = tail[i]
            if drop_pure or cpos < floor_pos and cneg < floor_neg:
                continue  # blocked, or no descendant can reach any threshold
            if not lone:
                # The queries holding the child whose count floors it meets:
                # a threshold no higher than the better perfect score at one
                # of its counts.
                reach = perfect_pos[cpos]
                if perfect_neg[cneg] > reach:
                    reach = perfect_neg[cneg]
                entering = rows & holders[cid] & below[bisect_right(levels, reach)]
                if not entering:
                    continue

            b = bits[cid]
            # At eps = 0 a child of both classes is impure, and so is each of
            # its drops, which hold its match set.
            test_pure = slack or not cpos or not cneg
            # A dropped term excludes enough rows when a raw popcount of the
            # drop exceeds its limit.
            pos_limit = cpos + hp + mism_pos
            neg_limit = cneg + hn + mism_neg
            child_drops = []
            for d in drops:
                d &= b
                dp = (d & class_bits).bit_count()
                if dp <= pos_limit and d.bit_count() - dp <= neg_limit:
                    break  # the dropped term no longer excludes enough rows
                if test_pure:
                    # The drop excludes rows, so it is nonempty.
                    dp -= hp
                    dn = d.bit_count() - dp - h
                    if (dp if dp >= dn else dn) >= min_corr * (dp + dn):
                        break  # blocked by a pure one-term drop
                child_drops.append(d)
            else:  # admissible and not blocked
                # select_target's choice, scored as count_quality from the tables
                target = cpos > cneg if cpos != cneg else tie_target
                q = ex_neg[cneg] + cov_pos[cpos] if target else ex_pos[cpos] + cov_neg[cneg]
                if q >= lowest and (cpos or cneg):
                    # Found for the entering queries whose threshold q reaches.
                    accepting = entering & below[bisect_right(levels, q)]
                    table = Contingency(cpos, cneg, n_pos - cpos, n_neg - cneg)
                    rule = ((*path, cid), child_match, table, target, q)
                    raised = False
                    while accepting:
                        low = accepting & -accepting
                        j = (low.bit_length() - 1) // width
                        mine = low * field
                        accepting ^= mine
                        found[j].append(rule)
                        if best[j] is None or q > best[j]:
                            best[j] = q
                            old = thresholds[j]
                            if keep * q > old:
                                thresholds[j] = new = keep * q
                                at[old] ^= mine
                                if not at[old]:
                                    del at[old]
                                at[new] = at.get(new, 0) | mine
                                raised = True
                    if raised:
                        levels, below = _levels(at)
                        lowest = levels[0]
                        floor_pos = min_cover_count(lowest, n_pos, weight)
                        floor_neg = min_cover_count(lowest, n_neg, weight)

                if leaf:
                    continue
                if test_pure and (cpos if cpos >= cneg else cneg) >= min_corr * (cpos + cneg):
                    continue  # empty, or pure enough: supersets are blocked by definition
                # Expand the child: each entering query forms every one of its
                # ids above cid outside the child's used groups, whether or
                # not the tail still holds it. A boundary cid's own bit is in
                # child_used, hence the shift past it.
                child_used = used | group_mask[cid]
                if not lone:
                    # In field q, step counts q's ids above cid outside the
                    # used groups: the suffix less the units of the used ids.
                    key = (cid, child_used >> cid)
                    step = steps.get(key)
                    if step is None:
                        step = suffix[cid]
                        rest = key[1] >> 1
                        while rest:
                            low = rest & -rest
                            rest ^= low
                            step -= units[cid + low.bit_length()]
                        steps[key] = step
                    counts += step & entering
                else:
                    counts += m - 1 - cid - (child_used >> (cid + 1)).bit_count()
                # Without a candidate in its tail, the child only counts.
                if i == last:
                    continue
                # The child's tail, from the candidates after it, under the
                # floors of the lowest threshold; each query's own floors
                # apply when it enters a candidate. Each entry's match set
                # becomes the new entry's drop. A candidate that fails here
                # fails at every descendant, so it leaves the whole subtree.
                # The raw popcounts of an extension must stay under the
                # node's counts, and under the drop's, less the mismatch
                # floors, for its terms to exclude enough rows.
                pos_floor, neg_floor = floor_pos + hp, floor_neg + hn
                pos_cut, neg_cut = cpos + pos_gap, cneg + neg_gap
                child_tail = []
                for ocid, odrop, dpos, dneg, _, _ in tail[i + 1:]:
                    if child_used >> ocid & 1 or not (dpos and dneg):
                        continue
                    omatch = child_match & bits[ocid]
                    opos = (omatch & class_bits).bit_count()
                    oneg = omatch.bit_count() - opos
                    if (
                        (opos >= pos_floor or oneg >= neg_floor)
                        and (opos < pos_cut or oneg < neg_cut)
                        and (opos < dpos + pos_gap or oneg < dneg + neg_gap)
                    ):
                        # The drop holds both classes here; pure within eps,
                        # it blocks this one extended set, but a subset of
                        # it need not be.
                        odrop_pure = slack and (
                            (dpos if dpos >= dneg else dneg) >= min_corr * (dpos + dneg)
                        )
                        child_tail.append((ocid, omatch, opos - hp, oneg - hn, odrop, odrop_pure))
                if child_tail:
                    if path:  # a root child has no older term to drop
                        child_drops.append(drop)
                    stack.append((drops, used, tail, i + 1, rows))
                    path.append(cid)
                    drops, used, tail, start = child_drops, child_used, child_tail, 0
                    rows = entering
                    break
        else:  # the node is done: resume its parent, if any
            if not stack:
                break
            drops, used, tail, start, rows = stack.pop()
            path.pop()

    outcomes = []
    for j, row in enumerate(ids):
        # A threshold is max(base, keep * best) throughout, so it ends as
        # the final one. A held-out query's match sets lose its held-out
        # row's bit. The root forms every singleton, and the expansions add
        # the rest.
        n = instances[j].held_out
        local = {cid: position for position, cid in enumerate(row)}
        kept = [
            Rule(tuple(map(local.__getitem__, terms)), without_row(match, n), table, target, q)
            for terms, match, table, target, q in found[j]
            if q >= thresholds[j]
        ]
        nodes = len(row) + (counts >> width * j & field)
        outcomes.append(SearchOutcome(_sorted_rules(kept), best[j], thresholds[j], nodes))
    return outcomes


class SplitWalk:
    """Queries answered by one search_split walk.

    The queries are those of one training split, or queries that each hold
    out a row of one index, the rows all of one class: search_split refuses
    any other mix. The walk runs when the first outcome of a query is asked
    for, once per params, and a query's outcome is looked up by the query
    object itself.
    """

    def __init__(self, instances):
        self._queries = list(instances)
        self._outcomes: dict[QualityParams, dict[int, SearchOutcome]] = {}

    def outcome(self, inst: EncodedInstance, params: QualityParams) -> SearchOutcome:
        outcomes = self._outcomes.get(params)
        if outcomes is None:
            walked = search_split(self._queries, params)
            outcomes = self._outcomes[params] = dict(zip(map(id, self._queries), walked))
        try:
            return outcomes[id(inst)]
        except KeyError:
            raise ValueError("the query is not one of this split's") from None
