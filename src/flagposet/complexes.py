"""The bipartite-layer complexes of a multidegree.

A restriction of the Stanley-Reisner complex of a flag ideal is a join
of layer complexes, one per pair of consecutive ranks.  Each is the
restriction, to its two vertex sides, of the complex whose nonfaces are
the poset's cover edges; ``layer_sides`` names those sides, and
``homology.betti_polynomial_fast`` computes each complex on kernel
bitmasks.
"""

from __future__ import annotations

from typing import Iterable

from .posets import GradedPoset


def layer_sides(g: GradedPoset, multidegree: Iterable[str]
                ) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    """The vertex sides (B_i, A_{i+1}) of the layer complexes of a
    multidegree, for i = 1 .. rbar-1.

    A_i = A intersect (rank i) and B_i = A_i minus the maximal elements
    of the whole poset.  Maximal elements are dropped from every bottom
    side, including rank 1: a rank-1 maximal element is an isolated
    point of the poset, so its variable splits off as a separate Koszul
    factor, which in join terms is the irrelevant complex (the join
    identity).  Keeping it as an edgeless vertex would instead cone the
    layer complex and kill the product.
    """
    a = frozenset(multidegree)
    for e in a:
        g.poset.index(e)
    maxes = set(g.poset.maximal_elements())
    layers = [tuple(e for e in g.layer(i) if e in a)
              for i in range(1, g.rbar() + 1)]
    return [(tuple(e for e in layers[i - 1] if e not in maxes), layers[i])
            for i in range(1, g.rbar())]
