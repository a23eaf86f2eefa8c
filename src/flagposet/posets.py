"""Finite posets presented by Hasse diagrams.

A poset is given by an ordered list of element ids plus its cover
relations.  The cover digraph must be acyclic and irredundant (no stated
cover may also be realized by a longer directed path), so the input is a
genuine Hasse diagram; transitively redundant covers are an error, not
silently reduced.

A ``GradedPoset`` wraps a poset with its rank function, which it derives
from the Hasse diagram (minimal elements have rank 1 and each cover adds
1); a poset without one raises ``NotGraded``.

All values are immutable after construction and every operation here is
pure, so shared use across threads is safe.  Enumerations are stable:
elements keep their input order, covers are kept in a canonical order,
and chain lists are sorted lexicographically by id sequence.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass

from .errors import (
    BudgetExceeded,
    CycleDetected,
    EmptySelection,
    InvalidParameter,
    NotGraded,
    ParseError,
    RedundantCover,
    UnknownElement,
)

DEFAULT_ISO_BUDGET = 24

_ID_RE = re.compile(r"^[A-Za-z0-9_]+$")


def topological_order(succ) -> list[int]:
    """Topological order of the digraph on 0..n-1 whose successor lists
    are ``succ`` (n = len(succ)).

    Kahn's algorithm that always takes the smallest ready vertex next,
    so the order depends on the digraph alone, not on how the successor
    lists are ordered.  The list is shorter than n exactly when the
    digraph has a cycle: the vertices left out are those on a cycle or
    reachable from one.
    """
    indeg = [0] * len(succ)
    for vs in succ:
        for v in vs:
            indeg[v] += 1
    ready = [u for u, d in enumerate(indeg) if d == 0]
    order = []
    while ready:
        u = heapq.heappop(ready)
        order.append(u)
        for v in succ[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(ready, v)
    return order


class Poset:
    """A finite poset with elements in a fixed order and validated covers.

    Besides the names, the Hasse diagram is kept as read-only tables
    indexed by element position: ``child_indices`` and
    ``parent_indices`` (ascending), ``child_masks`` (the children as a
    bitmask), ``down_sets`` (each element with everything below it,
    as a bitmask) and ``topological_indices`` (every position, in the
    ``topological_order`` of the cover digraph)."""

    __slots__ = ("elements", "covers", "child_indices", "parent_indices",
                 "child_masks", "down_sets", "topological_indices",
                 "_index", "_minimal", "_maximal")

    def __init__(self, elements, covers):
        elements = tuple(str(e) for e in elements)
        seen = set()
        for e in elements:
            if e in seen:
                raise InvalidParameter(f"duplicate element id: {e}")
            seen.add(e)
        index = {e: i for i, e in enumerate(elements)}
        norm = []
        cover_set = set()
        for p, q in covers:
            p, q = str(p), str(q)
            if p not in index:
                raise UnknownElement(f"unknown element in cover: {p}")
            if q not in index:
                raise UnknownElement(f"unknown element in cover: {q}")
            if p == q:
                raise CycleDetected(f"self-cover: {p}")
            if (p, q) in cover_set:
                raise InvalidParameter(f"duplicate cover: {p} < {q}")
            cover_set.add((p, q))
            norm.append((index[p], index[q]))
        norm.sort()

        n = len(elements)
        children = [[] for _ in range(n)]
        parents = [[] for _ in range(n)]
        kids = [0] * n
        for i, j in norm:
            children[i].append(j)
            parents[j].append(i)
            kids[i] |= 1 << j

        topo = topological_order(children)
        if len(topo) != n:
            placed = set(topo)
            bad = [elements[i] for i in range(n) if i not in placed]
            raise CycleDetected(f"cover digraph has a cycle through {bad}")

        # Down-sets in topological order.  A cover (p, q) is redundant iff
        # another parent of q lies above p, i.e. p lies in the strict
        # down-set of a parent of q; the first in cover order is named.
        down = [0] * n
        redundant = 0
        for u in topo:
            below = ups = 0
            for v in parents[u]:
                below |= down[v] ^ 1 << v
                ups |= 1 << v
            redundant |= below & ups
            down[u] = below | ups | 1 << u
        if redundant:
            i, j = next((i, j) for i, j in norm for v in parents[j]
                        if v != i and down[v] >> i & 1)
            raise RedundantCover(f"cover {elements[i]} < {elements[j]} is "
                                 "implied by a longer path")

        self.elements = elements
        self.covers = tuple((elements[i], elements[j]) for i, j in norm)
        self.child_indices = tuple(tuple(c) for c in children)
        self.parent_indices = tuple(tuple(pr) for pr in parents)
        self.child_masks = tuple(kids)
        self.down_sets = tuple(down)
        self.topological_indices = tuple(topo)
        self._index = index
        self._minimal = tuple(elements[i] for i in range(n) if not parents[i])
        self._maximal = tuple(elements[i] for i in range(n) if not children[i])

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Poset) and self.elements == other.elements
                and self.covers == other.covers)

    def __hash__(self) -> int:
        return hash((self.elements, self.covers))

    def __repr__(self) -> str:
        return f"Poset({len(self.elements)} elements, {len(self.covers)} covers)"

    def index(self, e: str) -> int:
        try:
            return self._index[e]
        except KeyError:
            raise UnknownElement(f"unknown element: {e}") from None

    def __contains__(self, e) -> bool:
        return e in self._index

    def children(self, e: str) -> tuple[str, ...]:
        return tuple(self.elements[i]
                     for i in self.child_indices[self.index(e)])

    def parents(self, e: str) -> tuple[str, ...]:
        return tuple(self.elements[i]
                     for i in self.parent_indices[self.index(e)])

    def minimal_elements(self) -> tuple[str, ...]:
        return self._minimal

    def maximal_elements(self) -> tuple[str, ...]:
        return self._maximal

    def less(self, a: str, b: str) -> bool:
        """Strict order a < b."""
        return self.leq(a, b) and a != b

    def leq(self, a: str, b: str) -> bool:
        i = self.index(a)
        return bool(self.down_sets[self.index(b)] >> i & 1)

    def is_cover(self, a: str, b: str) -> bool:
        return self.index(b) in self.child_indices[self.index(a)]


class GradedPoset:
    """A poset together with its rank function.

    The rank function of a graded poset is unique, so it is derived
    rather than given: walking the Hasse diagram upwards, a minimal
    element gets rank 1 and every other element 1 more than each of its
    parents.  Two parents of different ranks make the poset ungraded,
    and the constructor raises ``NotGraded``.  ``rank_masks[i]`` is the
    bitmask, over element positions, of the rank-i elements
    (``rank_masks[0]`` is 0).
    """

    __slots__ = ("poset", "rank", "rank_masks", "_layers")

    def __init__(self, poset: Poset):
        ranks = [0] * len(poset)
        for u in poset.topological_indices:
            parents = poset.parent_indices[u]
            r = ranks[parents[0]] + 1 if parents else 1
            for v in parents:
                if ranks[v] + 1 != r:
                    names = poset.elements
                    raise NotGraded(
                        f"{names[u]} covers {names[parents[0]]} and "
                        f"{names[v]}, which have different ranks")
            ranks[u] = r
        self.poset = poset
        self.rank = dict(zip(poset.elements, ranks))
        rbar = max(ranks, default=0)
        layers = [[] for _ in range(rbar + 1)]
        masks = [0] * (rbar + 1)
        for x, (e, r) in enumerate(zip(poset.elements, ranks)):
            layers[r].append(e)
            masks[r] |= 1 << x
        self._layers = tuple(tuple(layer) for layer in layers)
        self.rank_masks = tuple(masks)

    # -- delegation -------------------------------------------------
    @property
    def elements(self) -> tuple[str, ...]:
        return self.poset.elements

    @property
    def covers(self) -> tuple[tuple[str, str], ...]:
        return self.poset.covers

    def __len__(self) -> int:
        return len(self.poset)

    def __repr__(self) -> str:
        return f"GradedPoset({len(self.poset)} elements, rank {self.rbar()})"

    # -- rank structure ----------------------------------------------
    def rbar(self) -> int:
        """Largest rank (0 for the empty poset)."""
        return len(self._layers) - 1

    def runder(self) -> int:
        """Smallest rank of a maximal element (0 for the empty poset)."""
        maxes = self.poset.maximal_elements()
        return min((self.rank[e] for e in maxes), default=0)

    def layer(self, i: int) -> tuple[str, ...]:
        """Elements of rank i, in stored element order."""
        if not 1 <= i <= self.rbar():
            raise InvalidParameter(f"rank {i} outside 1..{self.rbar()}")
        return self._layers[i]

    def layer_sizes(self) -> tuple[int, ...]:
        return tuple(len(self._layers[i]) for i in range(1, self.rbar() + 1))

    def trimmed_layer(self, i: int) -> tuple[str, ...]:
        """Rank-i elements that are not maximal in the whole poset."""
        maxes = set(self.poset.maximal_elements())
        return tuple(e for e in self.layer(i) if e not in maxes)

    def is_pure(self) -> bool:
        r = self.rbar()
        return all(self.rank[e] == r for e in self.poset.maximal_elements())


def maximal_chains(p: Poset | GradedPoset) -> list[tuple[str, ...]]:
    """All maximal chains, sorted lexicographically by id sequence."""
    poset = p.poset if isinstance(p, GradedPoset) else p
    out: list[tuple[str, ...]] = []
    stack: list[str] = []

    def descend(e: str) -> None:
        stack.append(e)
        kids = poset.children(e)
        if not kids:
            out.append(tuple(stack))
        else:
            for c in kids:
                descend(c)
        stack.pop()

    for e in poset.minimal_elements():
        descend(e)
    out.sort()
    return out


def rank_selection(g: GradedPoset, ranks) -> GradedPoset:
    """Induced subposet on the elements whose rank lies in ``ranks``.

    The order is the restriction of the ambient order and the Hasse
    diagram is recomputed; its derived ranks are 1..|S|, the position
    of the original rank within sorted(S).  The result is always
    graded: a cover of the restriction joins consecutive selected
    ranks, because any saturated ambient chain between two comparable
    elements passes through every intermediate rank.
    """
    S = sorted(set(ranks))
    if not S:
        raise EmptySelection("rank selection needs at least one rank")
    if S[0] < 1 or S[-1] > g.rbar():
        raise InvalidParameter(f"ranks {S} outside 1..{g.rbar()}")
    keep = [e for e in g.elements if g.rank[e] in S]
    covers = [(a, b) for lo, hi in zip(S, S[1:]) for a in g.layer(lo)
              for b in g.layer(hi) if g.poset.less(a, b)]
    return GradedPoset(Poset(keep, covers))


@dataclass(frozen=True)
class BipartiteLayer:
    """Two disjoint vertex lists with edges between them."""

    bottom: tuple[str, ...]
    top: tuple[str, ...]
    edges: frozenset[tuple[str, str]]

    def __post_init__(self):
        bset, tset = set(self.bottom), set(self.top)
        if len(bset) < len(self.bottom) or len(tset) < len(self.top):
            raise InvalidParameter("a layer side lists a vertex twice")
        if bset & tset:
            raise InvalidParameter("layer sides must be disjoint")
        for a, b in self.edges:
            if a not in bset or b not in tset:
                raise InvalidParameter(f"edge ({a},{b}) leaves the layer")

    def neighbors_bottom(self, a: str) -> tuple[str, ...]:
        return tuple(b for b in self.top if (a, b) in self.edges)

    def neighbors_top(self, b: str) -> tuple[str, ...]:
        return tuple(a for a in self.bottom if (a, b) in self.edges)


def layer_pair(g: GradedPoset, i: int, trim: bool = False) -> BipartiteLayer:
    """The bipartite graph between ranks i and i+1.

    With ``trim`` the bottom side drops rank-i elements that are maximal
    in the whole poset (they have no edges anyway).
    """
    if not 1 <= i <= g.rbar() - 1:
        raise InvalidParameter(f"layer index {i} outside 1..{g.rbar() - 1}")
    bottom = g.trimmed_layer(i) if trim else g.layer(i)
    top = g.layer(i + 1)
    bset = set(bottom)
    edges = frozenset((p, q) for p, q in g.covers if p in bset)
    return BipartiteLayer(bottom, top, edges)


def bipartite_poset(bottom, top, edges) -> Poset:
    """The rank <= 2 poset whose Hasse diagram is a bipartite graph."""
    return Poset(tuple(bottom) + tuple(top), edges)


def connected_components(p: Poset | GradedPoset) -> list[Poset]:
    """Components of the Hasse diagram, as induced sub-posets."""
    poset = p.poset if isinstance(p, GradedPoset) else p
    n = len(poset.elements)
    comp = [-1] * n
    ncomp = 0
    for start in range(n):
        if comp[start] >= 0:
            continue
        stack = [start]
        comp[start] = ncomp
        while stack:
            u = stack.pop()
            for j in poset.child_indices[u] + poset.parent_indices[u]:
                if comp[j] < 0:
                    comp[j] = ncomp
                    stack.append(j)
        ncomp += 1
    out = []
    for c in range(ncomp):
        elems = [poset.elements[i] for i in range(n) if comp[i] == c]
        eset = set(elems)
        covers = [(a, b) for a, b in poset.covers if a in eset]
        out.append(Poset(elems, covers))
    return out


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def chain(n: int) -> GradedPoset:
    """Total order on n elements c1 < ... < cn."""
    if n < 1:
        raise InvalidParameter("chain needs n >= 1")
    elems = [f"c{i}" for i in range(1, n + 1)]
    covers = [(elems[i], elems[i + 1]) for i in range(n - 1)]
    return GradedPoset(Poset(elems, covers))


def antichain(n: int) -> GradedPoset:
    """n pairwise-incomparable elements."""
    if n < 1:
        raise InvalidParameter("antichain needs n >= 1")
    elems = [f"p{i}" for i in range(1, n + 1)]
    return GradedPoset(Poset(elems, []))


def letterplace_poset(n: int, q: Poset | GradedPoset) -> GradedPoset:
    """Poset on [n] x Q whose maximal chains encode length-n multichains
    of Q: (i, a) is covered by (i+1, b) exactly when a <= b in Q."""
    if n < 1:
        raise InvalidParameter("letterplace needs n >= 1")
    qp = q.poset if isinstance(q, GradedPoset) else q
    elems = [f"x{i}_{a}" for i in range(1, n + 1) for a in qp.elements]
    pairs = [(a, b) for x, a in enumerate(qp.elements)
             for b, down in zip(qp.elements, qp.down_sets) if down >> x & 1]
    covers = [(f"x{i}_{a}", f"x{i + 1}_{b}") for i in range(1, n)
              for a, b in pairs]
    return GradedPoset(Poset(elems, covers))


def hom_rt_poset(r: int, t: int) -> GradedPoset:
    """Poset on r x t elements a{i}_{j} with a{i}_{j} covered-below
    a{i+1}_{j'} exactly when j <= j'; its flag ideal is the letterplace
    ideal of two chains (maximal chains = monotone index sequences)."""
    if r < 1 or t < 1:
        raise InvalidParameter("hom poset needs r, t >= 1")
    elems = [f"a{i}_{j}" for i in range(1, r + 1) for j in range(1, t + 1)]
    covers = []
    for i in range(1, r):
        for j in range(1, t + 1):
            for jp in range(j, t + 1):
                covers.append((f"a{i}_{j}", f"a{i + 1}_{jp}"))
    return GradedPoset(Poset(elems, covers))


def v_poset(r: int, s: int) -> Poset:
    """One minimal element a with two chains a < b1 < ... < br and
    a < c1 < ... < cs above it."""
    if r < 1 or s < 1:
        raise InvalidParameter("v poset needs r, s >= 1")
    elems = ["a"] + [f"b{k}" for k in range(1, r + 1)] + \
        [f"c{k}" for k in range(1, s + 1)]
    covers = [("a", "b1"), ("a", "c1")]
    covers += [(f"b{k}", f"b{k + 1}") for k in range(1, r)]
    covers += [(f"c{k}", f"c{k + 1}") for k in range(1, s)]
    return Poset(elems, covers)


def v_coletterplace_poset(r: int, s: int, n: int) -> GradedPoset:
    """Poset on (V poset) x [n] whose flag ideal collects the graphs of
    isotone maps from the V poset to [n].

    The c-leg is loaded bottom-up with reversed index order so that a
    maximal chain reads off exactly one isotone map.
    """
    if r < 1 or s < 1 or n < 1:
        raise InvalidParameter("co-letterplace needs r, s, n >= 1")
    elems = [f"c{k}_{i}" for k in range(s, 0, -1) for i in range(1, n + 1)]
    elems += [f"a_{i}" for i in range(1, n + 1)]
    elems += [f"b{k}_{i}" for k in range(1, r + 1) for i in range(1, n + 1)]
    covers = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i <= j:
                covers.append((f"a_{i}", f"b1_{j}"))
                for k in range(1, r):
                    covers.append((f"b{k}_{i}", f"b{k + 1}_{j}"))
            if j <= i:
                covers.append((f"c1_{i}", f"a_{j}"))
                for k in range(2, s + 1):
                    covers.append((f"c{k}_{i}", f"c{k - 1}_{j}"))
    return GradedPoset(Poset(elems, covers))


def pentagon() -> Poset:
    """Five-element poset with maximal chains of lengths 3 and 4; it has
    no rank function."""
    return Poset("abcde", [("a", "b"), ("a", "c"), ("b", "e"),
                           ("c", "d"), ("d", "e")])


def example_3_4() -> GradedPoset:
    """Bundled 9-element example: both consecutive-rank layers are
    unmixed but the poset is not (one minimal cover has size 4)."""
    elems = ["a1", "b1", "c1", "a2", "b2", "c2", "a3", "b3", "c3"]
    covers = [("a1", "a2"), ("a2", "a3"), ("b1", "a2"), ("b1", "b2"),
              ("b1", "c2"), ("b2", "b3"), ("c1", "c2"), ("c2", "b3"),
              ("c2", "c3")]
    return GradedPoset(Poset(elems, covers))


def example_3_6() -> GradedPoset:
    """Bundled 12-element pure example: satisfies the weak recombination
    conditions but is not unmixed."""
    elems = ["a1", "b1", "c1", "d1", "a2", "b2", "c2", "d2",
             "a3", "b3", "c3", "d3"]
    covers = [("a1", "a2"), ("a1", "c2"), ("a2", "a3"), ("a2", "b3"),
              ("b1", "b2"), ("b1", "d2"), ("b2", "b3"), ("c1", "c2"),
              ("c2", "c3"), ("c2", "d3"), ("d1", "d2"), ("d2", "d3")]
    return GradedPoset(Poset(elems, covers))


def example_4_9() -> GradedPoset:
    """Bundled 16-element example whose flag ideal has 17 generators and
    is Cohen-Macaulay without being generated in a single degree."""
    elems = ["a1", "b1", "c1", "d1", "e1", "a2", "b2", "c2", "d2", "e2",
             "a3", "b3", "d3", "e3", "b4", "d4"]
    covers = [("a1", "a2"), ("a1", "c2"), ("a1", "e2"),
              ("a2", "a3"), ("a2", "b3"), ("a2", "d3"), ("a2", "e3"),
              ("b1", "b2"), ("b1", "c2"), ("b1", "e2"),
              ("b2", "b3"), ("b2", "e3"),
              ("b3", "b4"), ("b3", "d4"),
              ("c1", "c2"), ("c1", "e2"),
              ("d1", "d2"), ("d2", "d3"), ("d2", "e3"), ("d3", "d4"),
              ("e1", "e2"), ("e2", "e3")]
    return GradedPoset(Poset(elems, covers))


# ---------------------------------------------------------------------------
# Isomorphism at desk scale
# ---------------------------------------------------------------------------

def are_isomorphic(p: Poset | GradedPoset, q: Poset | GradedPoset,
                   budget: int = DEFAULT_ISO_BUDGET) -> dict[str, str] | None:
    """A cover-preserving bijection p -> q, or None.

    Backtracking over candidate images, pruned by iterated degree
    refinement.  Only intended for small posets; raises BudgetExceeded
    above ``budget`` elements.
    """
    pp = p.poset if isinstance(p, GradedPoset) else p
    qq = q.poset if isinstance(q, GradedPoset) else q
    if len(pp) > budget or len(qq) > budget:
        raise BudgetExceeded(
            f"isomorphism search limited to {budget} elements")
    if len(pp) != len(qq) or len(pp.covers) != len(qq.covers):
        return None

    def colors(poset: Poset) -> dict[str, int]:
        col = {e: 0 for e in poset.elements}
        for _ in range(len(poset) + 1):
            sig = {}
            for e in poset.elements:
                sig[e] = (col[e],
                          tuple(sorted(col[c] for c in poset.children(e))),
                          tuple(sorted(col[c] for c in poset.parents(e))))
            values = sorted(set(sig.values()))
            new = {e: values.index(sig[e]) for e in poset.elements}
            if new == col:
                break
            col = new
        return col

    pc, qc = colors(pp), colors(qq)
    if sorted(pc.values()) != sorted(qc.values()):
        return None

    order = sorted(pp.elements,
                   key=lambda e: (sum(1 for f in qq.elements
                                      if qc[f] == pc[e]), pp.index(e)))
    mapping: dict[str, str] = {}
    used: set[str] = set()

    def consistent(e: str, f: str) -> bool:
        for e2, f2 in mapping.items():
            if pp.is_cover(e, e2) != qq.is_cover(f, f2):
                return False
            if pp.is_cover(e2, e) != qq.is_cover(f2, f):
                return False
        return True

    def assign(k: int) -> bool:
        if k == len(order):
            return True
        e = order[k]
        for f in qq.elements:
            if f in used or qc[f] != pc[e]:
                continue
            if not consistent(e, f):
                continue
            mapping[e] = f
            used.add(f)
            if assign(k + 1):
                return True
            del mapping[e]
            used.discard(f)
        return False

    if assign(0):
        return dict(mapping)
    return None


# ---------------------------------------------------------------------------
# Poset text format v1
# ---------------------------------------------------------------------------

MAGIC = "# flagposet v1"


def parse_poset_text(text: str) -> Poset:
    """Parse the poset text format v1.

    Line 1 is the magic header, line 2 lists the elements, every further
    nonempty line declares one cover ``<id> < <id>``.  Duplicate covers,
    self-covers and unknown ids are rejected with the offending line
    number.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != MAGIC:
        raise ParseError(1, f"expected header {MAGIC!r}")
    if len(lines) < 2 or not lines[1].strip().startswith("elements:"):
        raise ParseError(2, "expected 'elements: <id> <id> ...'")
    ids = lines[1].strip()[len("elements:"):].split()
    for e in ids:
        if not _ID_RE.match(e):
            raise ParseError(2, f"bad element id: {e}")
    if len(set(ids)) != len(ids):
        raise ParseError(2, "duplicate element id")
    known = set(ids)
    covers = []
    seen = set()
    for lineno, raw in enumerate(lines[2:], start=3):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3 or parts[1] != "<":
            raise ParseError(lineno, f"expected '<id> < <id>', got {line!r}")
        a, _, b = parts
        if a not in known:
            raise ParseError(lineno, f"unknown element: {a}")
        if b not in known:
            raise ParseError(lineno, f"unknown element: {b}")
        if a == b:
            raise ParseError(lineno, f"self-cover: {a}")
        if (a, b) in seen:
            raise ParseError(lineno, f"duplicate cover: {a} < {b}")
        seen.add((a, b))
        covers.append((a, b))
    return Poset(ids, covers)


def poset_to_text(p: Poset | GradedPoset) -> str:
    """Serialize to the poset text format v1 (covers sorted
    lexicographically)."""
    poset = p.poset if isinstance(p, GradedPoset) else p
    lines = [MAGIC, "elements: " + " ".join(poset.elements)]
    for a, b in sorted(poset.covers):
        lines.append(f"{a} < {b}")
    return "\n".join(lines) + "\n"
