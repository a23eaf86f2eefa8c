"""The bipartite-layer complexes of a multidegree.

A restriction of the Stanley-Reisner complex of a flag ideal is a join
of layer complexes, one per pair of consecutive ranks.  Each is the
restriction, to its two vertex sides, of the complex whose nonfaces are
the poset's cover edges.  ``layer_sides`` names those sides as masks
over element positions, the pairs (B_i, A_{i+1}) the layer product of
``homology`` computes each complex on.
"""

from __future__ import annotations

from .posets import GradedPoset


def layer_sides(g: GradedPoset, a: int) -> list[tuple[int, int]]:
    """The vertex sides (B_i, A_{i+1}) of the layer complexes of the
    multidegree whose element positions are the bits of ``a``, as
    masks, for i = 1 .. rbar-1.

    A_i = A intersect (rank i) and B_i = A_i minus the maximal elements
    of the whole poset.  Maximal elements are dropped from every bottom
    side, including rank 1: a rank-1 maximal element is an isolated
    point of the poset, so its variable splits off as a separate Koszul
    factor, which in join terms is the irrelevant complex (the join
    identity).  Keeping it as an edgeless vertex would instead cone the
    layer complex and kill the product.
    """
    bottoms = a & ~sum(1 << x for x, kids in enumerate(g.poset.child_masks)
                       if not kids)
    ranks = g.rank_masks
    return [(bottoms & ranks[i], a & ranks[i + 1])
            for i in range(1, g.rbar())]
