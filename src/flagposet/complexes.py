"""Simplicial complexes: order complexes, Stanley-Reisner complexes,
restrictions, joins, suspensions, and the bipartite-layer complexes used
by the join decomposition of flag-ideal Betti numbers.

A complex stores an ambient vertex tuple and its facets.  Two degenerate
values are distinct and both representable: the void complex (no faces
at all, empty facet list) and the irrelevant complex {<empty face>}
(a single empty facet and no vertices).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .covers import DEFAULT_COVER_BUDGET, minimal_transversals
from .errors import InvalidParameter, UnknownElement, VertexClash
from .ideals import SquarefreeIdeal
from .posets import BipartiteLayer, GradedPoset, Poset, maximal_chains


class SimplicialComplex:
    """Vertex list plus pairwise inclusion-incomparable facets."""

    __slots__ = ("vertices", "facets")

    def __init__(self, vertices: Sequence[str], facets: Iterable):
        vertices = tuple(vertices)
        vset = set(vertices)
        if len(vset) != len(vertices):
            raise InvalidParameter("duplicate vertex")
        fsets = [frozenset(f) for f in facets]
        for f in fsets:
            if not f <= vset:
                raise UnknownElement(f"facet {sorted(f)} leaves the vertex set")
        # drop non-maximal faces, keep a canonical order
        maximal = []
        for f in sorted(set(fsets), key=lambda f: -len(f)):
            if not any(f < m for m in maximal):
                maximal.append(f)
        index = {v: i for i, v in enumerate(vertices)}
        maximal.sort(key=lambda f: (len(f), sorted(index[v] for v in f)))
        self.vertices = vertices
        self.facets = tuple(maximal)

    def is_void(self) -> bool:
        return not self.facets

    def is_irrelevant(self) -> bool:
        return self.facets == (frozenset(),)

    def dim(self) -> int:
        """Dimension; -1 for the irrelevant complex, -2 for the void one."""
        if self.is_void():
            return -2
        return max(len(f) for f in self.facets) - 1

    def has_face(self, candidate: Iterable[str]) -> bool:
        c = frozenset(candidate)
        return any(c <= f for f in self.facets)

    def __eq__(self, other) -> bool:
        return (isinstance(other, SimplicialComplex)
                and set(self.vertices) == set(other.vertices)
                and set(self.facets) == set(other.facets))

    def __hash__(self) -> int:
        return hash((frozenset(self.vertices), frozenset(self.facets)))

    def __repr__(self) -> str:
        if self.is_void():
            return "SimplicialComplex(void)"
        if self.is_irrelevant():
            return "SimplicialComplex({?})".replace("?", "∅")
        return (f"SimplicialComplex({len(self.vertices)} vertices, "
                f"{len(self.facets)} facets)")


VOID = SimplicialComplex((), ())
IRRELEVANT = SimplicialComplex((), (frozenset(),))


def full_simplex(vertices: Sequence[str]) -> SimplicialComplex:
    return SimplicialComplex(vertices, [frozenset(vertices)])


def order_complex(p: Poset | GradedPoset) -> SimplicialComplex:
    """Faces are the chains of the poset; facets its maximal chains."""
    poset = p.poset if isinstance(p, GradedPoset) else p
    if not poset.elements:
        return IRRELEVANT
    return SimplicialComplex(poset.elements,
                             [frozenset(c.elements) for c in maximal_chains(poset)])


def stanley_reisner_complex(ideal: SquarefreeIdeal,
                            budget: int = DEFAULT_COVER_BUDGET) -> SimplicialComplex:
    """Complex whose minimal nonfaces are the generator supports.

    Facets are complements of the minimal transversals of the generator
    hypergraph; the zero ideal gives the full simplex.
    """
    if not ideal.generators:
        return full_simplex(ideal.variables)
    universe = frozenset(ideal.variables)
    transversals = minimal_transversals(ideal.generators, ideal.variables,
                                        budget)
    return SimplicialComplex(ideal.variables,
                             [universe - t for t in transversals])


def restrict(x: SimplicialComplex, subset: Iterable[str]) -> SimplicialComplex:
    """Faces of x contained in ``subset``; may be void or irrelevant."""
    a = frozenset(subset)
    vertices = tuple(v for v in x.vertices if v in a)
    if x.is_void():
        return SimplicialComplex(vertices, ())
    cut = [f & a for f in x.facets]
    return SimplicialComplex(vertices, cut)


def join(x: SimplicialComplex, y: SimplicialComplex) -> SimplicialComplex:
    """Join of complexes on disjoint vertex sets."""
    if set(x.vertices) & set(y.vertices):
        raise VertexClash("join needs disjoint vertex sets")
    facets = [fx | fy for fx in x.facets for fy in y.facets]
    return SimplicialComplex(x.vertices + y.vertices, facets)


def suspension(x: SimplicialComplex) -> SimplicialComplex:
    """Join with two fresh points."""
    base = "s"
    k = 0
    while f"{base}{k}" in x.vertices or f"{base}{k + 1}" in x.vertices:
        k += 2
    two = SimplicialComplex((f"{base}{k}", f"{base}{k + 1}"),
                            [{f"{base}{k}"}, {f"{base}{k + 1}"}])
    return join(x, two)


def independence_complex(vertices: Sequence[str],
                         edges: Iterable[tuple[str, str]]) -> SimplicialComplex:
    """Faces are the subsets containing no edge."""
    edge_sets = [frozenset(e) for e in edges]
    if not edge_sets:
        return full_simplex(vertices)
    universe = frozenset(vertices)
    transversals = minimal_transversals(edge_sets, vertices,
                                        budget=max(len(vertices), 1))
    return SimplicialComplex(vertices, [universe - t for t in transversals])


def y_complex(layer: BipartiteLayer) -> SimplicialComplex:
    """Complex on the top side whose faces are the top subsets avoiding
    the neighborhood of at least one bottom vertex.

    Void when the bottom side is empty; irrelevant when every top vertex
    meets every bottom neighborhood.
    """
    if not layer.bottom:
        return SimplicialComplex(layer.top, ())
    tops = frozenset(layer.top)
    facets = [tops - frozenset(layer.neighbors_bottom(a)) for a in layer.bottom]
    return SimplicialComplex(layer.top, facets)


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


def x_complexes(g: GradedPoset, multidegree: Iterable[str]) -> list[SimplicialComplex]:
    """The bipartite-layer independence complexes of a multidegree.

    The i-th complex lives on B_i union A_{i+1} (see ``layer_sides``);
    its nonfaces are the cover edges between the two sides.
    """
    out = []
    for bottom, top in layer_sides(g, multidegree):
        bset, tset = set(bottom), set(top)
        edges = [(p, q) for p, q in g.covers if p in bset and q in tset]
        out.append(independence_complex(bottom + top, edges))
    return out
