"""Maximal-chain transversals: minimal vertex covers, independent sets,
covering number, and brute-force unmixedness.

The transversal enumerator is MMCS (K. Murakami and T. Uno, *Efficient
algorithms for dualizing large-scale hypergraphs*, Discrete Appl. Math.
170, 2014) on bitmasks: it only ever extends a set whose every vertex
still has a critical edge, so it produces each minimal transversal once
and nothing else.  It is meant for desk-scale inputs and raises
BudgetExceeded rather than truncating.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from . import kernel
from .errors import BudgetExceeded
from .posets import GradedPoset, maximal_chains

DEFAULT_COVER_BUDGET = 24


def check_cover_budget(size: int, budget: int) -> None:
    """Raise BudgetExceeded if a transversal enumeration over ``size``
    vertices exceeds ``budget``.  Callers that list maximal chains as
    the hyperedges check first, since that listing is exponential too."""
    if size > budget:
        raise BudgetExceeded(
            f"transversal enumeration limited to {budget} vertices")


def minimal_transversals(edges: Iterable[frozenset],
                         universe: Sequence[str],
                         budget: int = DEFAULT_COVER_BUDGET) -> list[frozenset]:
    """All inclusion-minimal sets meeting every hyperedge, ordered by
    size and then by their sorted universe indices.

    The search adds one vertex at a time.  Each chosen vertex keeps its
    critical edges, the edges it alone meets; a vertex whose addition
    would leave a chosen vertex with none is not added, so every set
    reached is minimal for the edges it meets.  It branches on the
    uncovered edge with the fewest candidate vertices, and a vertex
    branched on is a candidate only in its later siblings' subtrees, so
    no set is reached twice.  An empty hyperedge is unsatisfiable.
    """
    check_cover_budget(len(universe), budget)
    order = {v: i for i, v in enumerate(universe)}
    edge_masks = sorted({sum(1 << order[v] for v in e) for e in edges})
    if 0 in edge_masks:
        return []
    # hits[v]: the edges (as a bitmask over edge_masks) that vertex v meets
    hits = [0] * len(universe)
    for k, e in enumerate(edge_masks):
        while e:
            b = e & -e
            e ^= b
            hits[b.bit_length() - 1] |= 1 << k
    found: list[int] = []

    def extend(chosen: int, crit: list[int], uncovered: int,
               cand: int) -> None:
        # crit[i] holds the critical edges of the i-th chosen vertex
        if not uncovered:
            found.append(chosen)
            return
        branch, fewest = 0, len(universe) + 1
        rest = uncovered
        while rest:
            b = rest & -rest
            rest ^= b
            c = edge_masks[b.bit_length() - 1] & cand
            if c.bit_count() < fewest:
                branch, fewest = c, c.bit_count()
                if not fewest:
                    return
        cand &= ~branch
        while branch:
            b = branch & -branch
            branch ^= b
            hit = hits[b.bit_length() - 1]
            miss = ~hit
            kept = [c & miss for c in crit]
            if all(kept):
                extend(chosen | b, kept + [hit & uncovered],
                       uncovered & miss, cand)
            cand |= b

    extend(0, [], (1 << len(edge_masks)) - 1, (1 << len(universe)) - 1)
    return [frozenset(universe[i] for i in range(len(universe)) if m >> i & 1)
            for m in kernel.size_lex_sorted(found)]


def is_vertex_cover(g: GradedPoset, candidate: Iterable[str]) -> bool:
    """True iff ``candidate`` meets every maximal chain, i.e. no rank-1
    element outside it reaches a maximal element through elements
    outside it: one pass over the child masks, listing no chain.
    Raises ``UnknownElement`` on a name not in ``g``."""
    cover = 0
    for e in candidate:
        cover |= 1 << g.poset.index(e)
    kids = g.poset.child_masks
    todo = g.rank_masks[1] & ~cover if g.rbar() else 0
    while todo:
        low = todo & -todo
        cover |= low  # a visited element is not visited again
        children = kids[low.bit_length() - 1]
        if not children:
            return False
        todo = (todo | children) & ~cover
    return True


def minimal_vertex_covers(g: GradedPoset,
                          budget: int = DEFAULT_COVER_BUDGET) -> list[frozenset[str]]:
    """All minimal transversals of the maximal-chain hypergraph."""
    check_cover_budget(len(g.elements), budget)
    chains = [frozenset(c) for c in maximal_chains(g)]
    return minimal_transversals(chains, g.elements, budget)


def covering_number(g: GradedPoset,
                    budget: int = DEFAULT_COVER_BUDGET) -> int:
    covers = minimal_vertex_covers(g, budget)
    return min((len(c) for c in covers), default=0)


def height(g: GradedPoset, budget: int = DEFAULT_COVER_BUDGET) -> int:
    """Height of the flag ideal = vertex covering number."""
    return covering_number(g, budget)


def krull_dim(g: GradedPoset, budget: int = DEFAULT_COVER_BUDGET) -> int:
    """Krull dimension of the quotient = |P| - covering number."""
    return len(g) - covering_number(g, budget)


def is_unmixed_bruteforce(g: GradedPoset,
                          budget: int = DEFAULT_COVER_BUDGET) -> bool:
    """True iff all minimal vertex covers share one cardinality."""
    sizes = {len(c) for c in minimal_vertex_covers(g, budget)}
    return len(sizes) <= 1


def maximal_independent_sets(g: GradedPoset,
                             budget: int = DEFAULT_COVER_BUDGET) -> list[frozenset[str]]:
    """Complements of the minimal vertex covers."""
    universe = frozenset(g.elements)
    return [universe - c for c in minimal_vertex_covers(g, budget)]
