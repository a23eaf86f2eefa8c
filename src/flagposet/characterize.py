"""Structural characterizations with certificates.

Unmixedness and Cohen-Macaulayness of a graded poset's flag ideal are
decided through chain decompositions: per-layer perfect matchings
between the non-maximal rank-i elements and rank i+1 compose into
disjoint maximal chains covering the poset.  On top of the
decomposition, two recombination conditions on pairs of saturated
chains decide unmixedness, and the existence of a chain labeling
monotone along covers decides Cohen-Macaulayness.

The recombination conditions are decomposition-independent once the
matchings exist (if they hold for one decomposition the poset is
unmixed, and an unmixed poset satisfies them for every decomposition),
so they are checked once.  Their pairs of chains are not listed, which
would take time exponential in the rank: one upward sweep per
decomposition chain walks both chains of every pair up together, one
rank at a time, and keeps, for each current element of the first, the
bitmask of current elements of the second that have not met it, so a
chain costs at most w states per rank for layer width w.  Only when a
sweep fails does a product automaton of one instance, run on narrowed
element sets, pick the first failing pair of the enumeration order as
the witness.  The labeling condition needs no search either: a
labeling monotone along covers makes every layer's biadjacency matrix
triangular in label order, with a nonzero diagonal, so the
decomposition it labels is the poset's only one.  The first
decomposition found therefore has a monotone labeling exactly when the
poset is Cohen-Macaulay, and its chains also give the bi-Cohen-Macaulay
isomorphism onto the two-chain grid.

A layer has a linear resolution's shape when it is a Ferrers graph: no
isolated vertex, and its neighbourhoods nested.  One Ferrers core
decides it on neighbourhood bitmasks, fed by the poset's child masks
and down-sets for a rank pair or by one pass over the edges of a named
``BipartiteLayer``.

The checks run on element positions and the bitmask tables that
``posets`` keeps of the Hasse diagram, from input to verdict: names are
built only for the certificate or witness that is returned, and the
certificate's validator maps them back to positions once.

The certificate's readers sit next to it: the level filtrations of a
chain-decomposed poset, the minimal vertex cover each one picks, and the
variable order under which the Alexander dual is weakly polymatroidal.

Everything here is pure and deterministic; verdicts carry either a
certificate (when true) or a concrete witness (when false).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import covers, homology
from .errors import (
    InvalidCertificate,
    InvalidParameter,
    NotGraded,
    UnknownElement,
)
from .fields import GF2
from .ideals import flag_ideal
from .posets import (
    BipartiteLayer,
    GradedPoset,
    Poset,
    connected_components,
    layer_pair,
    rank_selection,
    topological_order,
)


@dataclass(frozen=True)
class ChainDecomposition:
    """Disjoint saturated chains, each from a rank-1 element up to a
    maximal element, jointly covering the poset; the tuple order is the
    chain labeling.  Construction raises ``InvalidCertificate`` unless
    the chains are such a decomposition."""

    graded: GradedPoset
    chains: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        # names become positions once; the checks read the rank masks
        # and child masks
        p = self.graded.poset
        try:
            positions = [list(map(p.index, c)) for c in self.chains]
        except UnknownElement as err:
            raise InvalidCertificate(f"chain holds an {err}") from None
        names, masks, kmask = p.elements, self.graded.rank_masks, p.child_masks
        seen = 0
        for c, xs in zip(self.chains, positions):
            if not xs:
                raise InvalidCertificate("empty chain")
            if not masks[1] >> xs[0] & 1:
                raise InvalidCertificate(f"chain must start at rank 1: {c}")
            if kmask[xs[-1]]:
                raise InvalidCertificate(
                    f"chain must end at a maximal element: {c}")
            a = xs[0]
            mask = 1 << a
            for b in xs[1:]:
                if not kmask[a] >> b & 1:
                    raise InvalidCertificate(
                        f"not saturated: {names[a]} < {names[b]}")
                mask |= 1 << b
                a = b
            # a saturated chain repeats no element
            if seen & mask:
                x = next(x for x in xs if seen >> x & 1)
                raise InvalidCertificate(f"chains overlap at {names[x]}")
            seen |= mask
        if seen != (1 << len(p)) - 1:
            raise InvalidCertificate("chains must cover the poset")


@dataclass(frozen=True)
class Verdict:
    """Boolean answer plus a certificate (true) or witness (false)."""

    value: bool
    certificate: object = None
    witness: object = None

    def __bool__(self) -> bool:
        return self.value


# ---------------------------------------------------------------------------
# Chain decompositions read off the Hasse diagram
# ---------------------------------------------------------------------------
#
# A decomposition is a map ``up`` from every non-maximal element to one of
# its children that no two elements share; following it from each rank-1
# element gives the chains.  Parents are stored in element order, so the
# matching below tries neighbours in a fixed order and its result is
# deterministic.  It runs on element positions, and so do the chains it
# returns, until a verdict names them.

def _positions(m: int) -> list[int]:
    """The set bits of ``m``, ascending."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


def _kuhn(tops, neighbors, match: dict) -> bool:
    """Kuhn's augmenting paths: give each of ``tops`` a distinct one of
    its ``neighbors``, recorded in ``match`` as neighbour -> top on top
    of the pairs already there.  False once a top cannot be placed."""

    def augment(t, visited: set) -> bool:
        for b in neighbors(t):
            if b in visited:
                continue
            visited.add(b)
            if b not in match or augment(match[b], visited):
                match[b] = t
                return True
        return False

    return all(augment(t, set()) for t in tops)


def _maximal_mask(p: Poset) -> int:
    """The maximal elements, as a bitmask over element positions."""
    return sum(1 << x for x, kids in enumerate(p.child_masks) if not kids)


def _first_decomposition(g: GradedPoset, maxes: int
                         ) -> tuple[tuple[tuple[int, ...], ...] | None, int]:
    """One chain decomposition as element positions, or (None, offending
    layer index): layer by layer, every rank-(i+1) element is matched to
    a distinct parent, which needs as many of them as non-maximal rank-i
    elements.  ``maxes`` is the bitmask of the maximal elements."""
    p, masks = g.poset, g.rank_masks
    up: dict[int, int] = {}
    for i in range(1, g.rbar()):
        if ((masks[i] & ~maxes).bit_count() != masks[i + 1].bit_count()
                or not _kuhn(_positions(masks[i + 1]),
                             p.parent_indices.__getitem__, up)):
            return None, i
    chains = []
    for x in _positions(masks[1] if g.rbar() >= 1 else 0):
        c = [x]
        while c[-1] in up:
            c.append(up[c[-1]])
        chains.append(tuple(c))
    return tuple(chains), 0


def _named(p: Poset, chain) -> tuple[str, ...]:
    """A chain of element positions as names."""
    return tuple(map(p.elements.__getitem__, chain))


# ---------------------------------------------------------------------------
# Recombination conditions in one upward sweep per chain
# ---------------------------------------------------------------------------
#
# Condition 3 takes, for each decomposition chain and ranks i < j, every
# saturated chain c1 down from chain[j] and every c2 up from chain[i] to
# rank j, and asks for a saturated chain from c1's start to c2's end whose
# element at each rank between comes from c1 or c2.  Condition 4 asks the
# same of c1 down from chain[k] and c2 up from chain[i] to a maximal
# element w of rank j, i < j < k, recombining from c1's start up to w.
#
# No pair is listed.  Walking c1 and c2 up together, the elements of the
# two that are reachable from c1's start always include c1's own, which
# covers the one before; once c2's element is reachable, so is each later
# one, which covers it.  So a pair fails exactly when the two never meet:
# they start apart, and no element of c1 is covered by c2's element one
# rank up, c2's end included.
#
# One upward sweep per decomposition chain C decides both conditions for
# all of C's instances at once.  Its states map c1's element a, kept below
# C's top, to the bitmask of c2's elements of a's rank that have not met
# c1: at most w states per rank for layer width w.  Each rank i below C's
# length adds a start for every other rank-i element a below C's top,
# with chain[i] as c2's element; a pair that meets is dropped.  Merging
# the start ranks and the two conditions keeps the decision: every
# instance's run lies inside the sweep, and every state is a never-met
# pair of one instance, of condition 3 once a is covered by an element
# of C, and of condition 4 because c1 extends through a to C's top,
# whose down-set holds that of every chain[k].
#
# Only a failed sweep names its witness, with the product automaton of
# one instance: its states are the pairs (c1's element, c2's element) of
# one rank that have not met, at most w^2 per rank, and run on narrowed
# element sets it picks the first failing pair of the enumeration order.
# Everything runs on the index tables that ``posets`` keeps of the Hasse
# diagram: child and parent indices, child masks, down-sets and rank
# masks.

def _sweep_fails(g: GradedPoset, c: tuple[int, ...], maxes: int) -> bool:
    """True if some instance of condition 3 or 4 on the decomposition
    chain ``c`` (element positions, rank 1 up) has a failing pair;
    ``maxes`` is the bitmask of the maximal elements."""
    p, masks = g.poset, g.rank_masks
    kmask, kids = p.child_masks, p.child_indices
    under = p.down_sets[c[-1]]
    states: dict[int, int] = {}
    for r in range(1, len(c)):
        # c2 starts at chain[r], c1 at every other rank-r element
        start = 1 << c[r - 1]
        m = under & masks[r] & ~start
        while m:
            low = m & -m
            a = low.bit_length() - 1
            states[a] = states.get(a, 0) | start
            m ^= low
        nxt: dict[int, int] = {}
        for a, bs in states.items():
            step = 0
            while bs:
                low = bs & -bs
                step |= kmask[low.bit_length() - 1]
                bs ^= low
            step &= ~kmask[a]
            if not step:
                continue
            # condition 3 ends at chain[r + 1], if it covers a; condition 4
            # at a maximal element of rank r + 1, if C reaches higher
            if (kmask[a] >> c[r] & 1
                    or r + 1 < len(c) and step & maxes & masks[r + 1]):
                return True
            for a2 in kids[a]:
                if under >> a2 & 1:
                    nxt[a2] = nxt.get(a2, 0) | step
        states = nxt
    return False


def _cases(g: GradedPoset, chains):
    """The instances of conditions 3 and 4 in checking order, each as
    (condition, chain, i, bottom, top, height, span, w), all element
    positions: c1 runs ``height`` covers from rank i up to ``top``, and
    c2 ``span`` covers up from the chain's rank-i element ``bottom`` to
    any element (``w`` None) or to the maximal element ``w``."""
    for c in chains:
        for i in range(1, len(c) + 1):
            for j in range(i + 1, len(c) + 1):
                yield 3, c, i, c[i - 1], c[j - 1], j - i, j - i, None
    p = g.poset
    maxes: dict[int, list[int]] = {}
    for x, kids in enumerate(p.child_masks):
        if not kids:
            maxes.setdefault(g.rank[p.elements[x]], []).append(x)
    for c in chains:
        for i in range(1, len(c) - 1):
            for k in range(i + 2, len(c) + 1):
                for j in range(i + 1, k):
                    for w in maxes.get(j, ()):
                        yield 4, c, i, c[i - 1], c[k - 1], k - i, j - i, w


def _fails(p: Poset, amasks, bmasks, ends: int) -> bool:
    """Run the automaton over ``len(amasks)`` covers, c1 and c2 keeping
    to ``amasks[l]`` and ``bmasks[l]`` at level l and c2 ending in
    ``ends``; True if some pair fails.  Every element of ``amasks[l]``
    must have a child in the next level's set (or in c1's element above
    the last level), so that each state extends to a whole c1."""
    kmask, kids = p.child_masks, p.child_indices
    span = len(amasks)
    states = {a: bmasks[0] & ~(1 << a) for a in _positions(amasks[0])}
    for level in range(1, span + 1):
        nxt: dict[int, int] = {}
        for a, bs in states.items():
            step = 0
            for b in _positions(bs):
                step |= kmask[b]
            step &= ~kmask[a]
            if level == span:
                if step & ends:
                    return True
                continue
            step &= bmasks[level]
            if step:
                for a2 in kids[a]:
                    if amasks[level] >> a2 & 1:
                        nxt[a2] = nxt.get(a2, 0) | step
        states = nxt
    return False


def _failing_pair(g: GradedPoset, i: int, bottom: int, top: int,
                  height: int, span: int,
                  w: int | None) -> tuple[list[str], list[str]] | None:
    """The first failing (c1, c2) of one instance in enumeration order,
    or None.  Pairs are ordered by c1, built from the top down through
    parents in stored order, then by c2, built from the bottom up
    through children; each element is the first whose choice still has
    a failing completion, which the automaton decides."""
    p, below, rank_masks = g.poset, g.poset.down_sets, g.rank_masks
    ends = rank_masks[i + span] if w is None else 1 << w
    bmask = -1 if w is None else below[w]

    def fails(c1: list[int], c2: list[int]) -> bool:
        fixed = height - len(c1)  # c1 is fixed above this level
        amasks = [1 << c1[height - lv] if lv > fixed
                  else below[c1[-1]] & rank_masks[i + lv]
                  for lv in range(span)]
        bmasks = [(1 << c2[lv] if lv < len(c2) else -1) & bmask
                  for lv in range(span)]
        return _fails(p, amasks, bmasks,
                      (1 << c2[span] if len(c2) > span else -1) & ends)

    c1, c2 = [top], [bottom]
    if not fails(c1, c2):
        return None
    while len(c1) <= height:
        c1.append(next(x for x in p.parent_indices[c1[-1]]
                       if fails(c1 + [x], c2)))
    while len(c2) <= span:
        c2.append(next(y for y in p.child_indices[c2[-1]]
                       if fails(c1, c2 + [y])))
    return [p.elements[x] for x in reversed(c1)], [p.elements[y] for y in c2]


# ---------------------------------------------------------------------------
# Unmixedness and Cohen-Macaulayness
# ---------------------------------------------------------------------------

def _chain_conditions(g: GradedPoset) -> tuple[tuple | None, dict | None]:
    """Conditions 2-4, shared by unmixedness and Cohen-Macaulayness: a
    chain decomposition, and the two recombination conditions on it,
    decided by one sweep per chain.  Returns ``(chains, None)``, the
    chains as element positions, or ``(None, witness)`` for the first
    condition that fails; only then do the instances run one by one, to
    name the first failing pair."""
    p = g.poset
    maxes = _maximal_mask(p)
    chains, bad = _first_decomposition(g, maxes)
    if chains is None:
        return None, {"condition": 2, "layer": bad}
    for u, chain in enumerate(chains):
        if not _sweep_fails(g, chain, maxes):
            continue
        # no instance on an earlier chain fails, so the first failure in
        # checking order lies on chains[u:]
        for cond, through, *case in _cases(g, chains[u:]):
            pair = _failing_pair(g, *case)
            if pair:
                witness = {"condition": cond, "through": _named(p, through),
                           "chain1": pair[0], "chain2": pair[1]}
                if cond == 4:
                    witness["maximal"] = g.elements[case[-1]]
                return None, witness
        raise RuntimeError(
            f"internal disagreement: the sweep through chain "
            f"{_named(p, chain)} fails, but no instance names a failing pair")
    return chains, None


def check_unmixed_structural(g: GradedPoset) -> Verdict:
    """Unmixedness via layer sizes, per-layer perfect matchings, and the
    two recombination conditions."""
    sizes = g.layer_sizes()
    for i in range(len(sizes) - 1):
        if sizes[i] < sizes[i + 1]:
            return Verdict(False, witness={"condition": 1,
                                           "layer_sizes": list(sizes)})
    chains, witness = _chain_conditions(g)
    if chains is None:
        return Verdict(False, witness=witness)
    # longest first; the chains come in order of their rank-1 positions,
    # which the stable sort keeps among equal lengths
    ordered = sorted(chains, key=len, reverse=True)
    return Verdict(True, certificate=ChainDecomposition(
        g, tuple(_named(g.poset, c) for c in ordered)))


def check_weak_conditions(g: GradedPoset) -> tuple[bool, bool]:
    """The weakened recombination conditions: the recombined chain may
    run anywhere in the poset, so a pair holds exactly when c1's start
    lies below c2's end.  Per decomposition chain and ranks i < j, each
    condition is then one test on bitmasks: every rank-i element below
    chain[j] (condition 3), or below the chain's top when j is not its
    last rank (condition 4, covering every chain[k] above j), lies below
    every rank-j end above chain[i], any element for condition 3 and a
    maximal one for condition 4.  Vacuously true when no chain
    decomposition exists."""
    p, masks = g.poset, g.rank_masks
    maxes = _maximal_mask(p)
    chains, _ = _first_decomposition(g, maxes)
    if chains is None:
        return True, True
    below, kids = p.down_sets, p.child_indices
    above = [0] * len(p)
    for x in reversed(p.topological_indices):
        up = 1 << x
        for y in kids[x]:
            up |= above[y]
        above[x] = up

    def holds(starts: int, ends: int) -> bool:
        while starts:
            low = starts & -starts
            if ends & ~above[low.bit_length() - 1]:
                return False
            starts ^= low
        return True

    ok3 = ok4 = True
    for c in chains:
        for i in range(1, len(c)):
            for j in range(i + 1, len(c) + 1):
                ends = above[c[i - 1]] & masks[j]
                ok3 = ok3 and holds(below[c[j - 1]] & masks[i], ends)
                ok4 = ok4 and (j == len(c) or holds(below[c[-1]] & masks[i],
                                                    ends & maxes))
    return ok3, ok4


def _label_order(g: GradedPoset, chains) -> list[int] | None:
    """Topological order of the chain constraint digraph (an edge u -> v
    for each cover from chain u into chain v), or None on a cycle; the
    chains are element positions."""
    tid = [0] * len(g.poset)
    for u, c in enumerate(chains):
        for x in c:
            tid[x] = u
    succ: list[set[int]] = [set() for _ in chains]
    for x, ys in enumerate(g.poset.child_indices):
        u = tid[x]
        for y in ys:
            if tid[y] != u:
                succ[u].add(tid[y])
    order = topological_order(succ)
    return order if len(order) == len(chains) else None


def check_cm_structural(g: GradedPoset) -> Verdict:
    """Cohen-Macaulayness: equal counts of minimal and maximal elements,
    a chain decomposition, the recombination conditions, and a chain
    labeling of that decomposition monotone along covers (a poset with
    such a labeling has no other decomposition)."""
    if not g.elements:
        return Verdict(True, certificate=ChainDecomposition(g, ()))
    p1 = len(g.layer(1))
    nmax = len(g.poset.maximal_elements())
    if p1 != nmax:
        return Verdict(False, witness={"condition": 1,
                                       "minimal": p1, "maximal": nmax})
    chains, witness = _chain_conditions(g)
    if chains is None:
        return Verdict(False, witness=witness)
    order = _label_order(g, chains)
    if order is None:
        return Verdict(False, witness={
            "condition": 5,
            "note": "every chain labeling has a cover running downward"})
    return Verdict(True, certificate=ChainDecomposition(
        g, tuple(_named(g.poset, chains[u]) for u in order)))


# ---------------------------------------------------------------------------
# Ferrers layers and linear resolutions
# ---------------------------------------------------------------------------
#
# One core, ``_ferrers``, reads neighbourhood bitmasks: a rank pair of a
# poset gives them as child masks and down-sets, with no layer of names,
# and ``is_ferrers`` builds them from a named layer's edges.  Staircase
# orders and witnesses are names, built once the verdict is known.

def has_2k2(layer: BipartiteLayer) -> tuple[str, str, str, str] | None:
    """Two disjoint edges with no cross edges, or None."""
    edges = sorted(layer.edges)
    for idx, (a1, b1) in enumerate(edges):
        for a2, b2 in edges[idx + 1:]:
            if a1 == a2 or b1 == b2:
                continue
            if (a1, b2) in layer.edges or (a2, b1) in layer.edges:
                continue
            return (a1, b1, a2, b2)
    return None


def _by_degree(hoods) -> list[int]:
    """Indices into ``hoods`` by neighbourhood size, largest first, ties
    in index order (the sort is stable)."""
    degrees = [h.bit_count() for h in hoods]
    return sorted(range(len(hoods)), key=degrees.__getitem__, reverse=True)


def _ferrers(bottom, bhoods, top, thoods, names) -> Verdict:
    """The Ferrers core: ``bottom`` and ``top`` list the vertex ids of
    the two sides in side order, ``bhoods`` and ``thoods`` their
    neighbourhoods as bitmasks over the ids, and ``names[v]`` is the
    name of id v.  Names are built only for the verdict.

    The bottom neighbourhoods are nested exactly when no two edges form
    an induced 2K2, and so are the top ones, so only the bottom side's
    staircase is checked; the witness of its first failing pair x, y
    takes the least name of N(x) - N(y) and of N(y) - N(x)."""
    for side, hoods in ((bottom, bhoods), (top, thoods)):
        if not all(hoods):
            return Verdict(False, witness={
                "isolated_vertex": names[side[hoods.index(0)]]})
    rows = _by_degree(bhoods)
    for k, l in zip(rows, rows[1:]):
        if bhoods[l] & ~bhoods[k]:
            q1 = min(names[z] for z in _positions(bhoods[k] & ~bhoods[l]))
            q2 = min(names[z] for z in _positions(bhoods[l] & ~bhoods[k]))
            return Verdict(False, witness={"two_disjoint_edges": (
                names[bottom[k]], q1, names[bottom[l]], q2)})
    return Verdict(True, certificate={
        "rows": [names[bottom[k]] for k in rows],
        "cols": [names[top[k]] for k in _by_degree(thoods)]})


def is_ferrers(layer: BipartiteLayer) -> Verdict:
    """Staircase recognition: no isolated vertices, and neighborhoods on
    both sides totally ordered by inclusion after a degree sort.  The
    certificate is the pair of staircase orderings; the witness is an
    isolated vertex or an induced pair of disjoint edges."""
    nb = len(layer.bottom)
    names = layer.bottom + layer.top
    ids = {v: k for k, v in enumerate(names)}
    hoods = [0] * len(names)
    for a, b in layer.edges:
        hoods[ids[a]] |= 1 << ids[b]
        hoods[ids[b]] |= 1 << ids[a]
    return _ferrers(range(nb), hoods[:nb], range(nb, len(names)),
                    hoods[nb:], names)


def _layer_ferrers(g: GradedPoset, i: int) -> Verdict:
    """``is_ferrers(layer_pair(g, i))`` on element positions: a rank-i
    element's neighbourhood is its child mask, and a rank-(i+1)
    element's is its down-set within rank i, its parents."""
    p, masks = g.poset, g.rank_masks
    bottom, top = _positions(masks[i]), _positions(masks[i + 1])
    return _ferrers(bottom, [p.child_masks[a] for a in bottom],
                    top, [p.down_sets[b] & masks[i] for b in top],
                    p.elements)


def has_linear_resolution_structural(g: GradedPoset) -> Verdict:
    """Pure, and every consecutive-rank layer is a Ferrers graph."""
    if not g.is_pure():
        ranks = sorted({g.rank[e] for e in g.poset.maximal_elements()})
        return Verdict(False, witness={"impure": {"maximal_ranks": ranks}})
    layers = []
    for i in range(1, g.rbar()):
        verdict = _layer_ferrers(g, i)
        if not verdict.value:
            return Verdict(False, witness={"layer": i, **verdict.witness})
        layers.append({"layer": i, **verdict.certificate})
    return Verdict(True, certificate={"layers": layers})


def is_bi_cm(g: GradedPoset, iso_budget: int | None = None) -> Verdict:
    """Cohen-Macaulay with a linear resolution; when true the certificate
    holds the isomorphism onto the two-chain letterplace grid of the
    poset's dimensions, read off the Cohen-Macaulay chains.

    ``iso_budget`` is ignored: no isomorphism is searched for.  It stays
    only while the benchmark's structural workload still passes it."""
    cm = check_cm_structural(g)
    lr = has_linear_resolution_structural(g) if cm.value else None
    return _bi_cm_verdict(g, cm, lr)


def _bi_cm_verdict(g: GradedPoset, cm: Verdict,
                   lr: Verdict | None) -> Verdict:
    """``is_bi_cm`` from the CM and linear-resolution verdicts; ``lr``
    is read only when ``cm`` holds."""
    if not cm.value:
        return Verdict(False, witness={"not_cm": cm.witness})
    if not lr.value:
        return Verdict(False, witness={"no_linear_resolution": lr.witness})
    if not g.elements:
        return Verdict(True, certificate={"hom_parameters": None,
                                          "isomorphism": {}})
    chains = cm.certificate.chains
    return Verdict(True, certificate={"hom_parameters": (g.rbar(),
                                                         len(chains)),
                                      "isomorphism": _grid_map(g, chains),
                                      "chains": chains,
                                      "staircases": lr.certificate})


def _grid_map(g: GradedPoset, chains) -> dict[str, str]:
    """The rank-i element of the u-th chain as ``a{i}_{u}``, the names of
    ``hom_rt_poset(r, t)``; raises ``InvalidCertificate`` unless that is
    an isomorphism.  Chains of r elements each make the map a bijection;
    every cover, which raises the rank by 1, then lands on a grid cover
    when u does not decrease along it, and equal cover counts make the
    covers correspond."""
    r, t = g.rbar(), len(chains)
    label = {e: u for u, c in enumerate(chains, 1) for e in c}
    if (any(len(c) != r for c in chains)
            or any(label[p] > label[q] for p, q in g.covers)
            or len(g.covers) != (r - 1) * t * (t + 1) // 2):
        raise InvalidCertificate(f"the chains do not map onto the "
                                 f"{r}x{t} grid")
    return {e: f"a{g.rank[e]}_{label[e]}" for e in g.elements}


def herzog_hibi_bipartite_cm(layer: BipartiteLayer) -> Verdict:
    """Cohen-Macaulay bipartite graphs: equal sides and a labeling with
    a perfect matching whose induced relation (i <= j iff edge a_i b_j)
    is a partial order.  Such a labeling makes the biadjacency matrix
    triangular with a nonzero diagonal, so its matching is the layer's
    only perfect matching, and one Kuhn matching decides."""
    if len(layer.bottom) != len(layer.top):
        return Verdict(False, witness={"sizes": (len(layer.bottom),
                                                 len(layer.top))})
    if not layer.bottom:
        return Verdict(True, certificate={"pairs": []})
    no_order = Verdict(False, witness={
        "reason": "no perfect matching induces a partial order"})
    match: dict[str, str] = {}
    if not _kuhn(layer.top, layer.neighbors_top, match):
        return no_order
    bottom_of = {t: b for b, t in match.items()}
    pairs = [(bottom_of[t], t) for t in layer.top]
    r = range(len(pairs))
    rel = [[(pairs[i][0], pairs[j][1]) in layer.edges for j in r]
           for i in r]
    if any(i != j and rel[i][j] and rel[j][i] for i in r for j in r):
        return no_order
    if any(rel[i][j] and rel[j][k] and not rel[i][k]
           for i in r for j in r for k in r):
        return no_order
    # an antisymmetric, transitive relation has no cycle, so every pair
    # is placed
    order = topological_order([[j for j in r if j != i and rel[i][j]]
                               for i in r])
    return Verdict(True, certificate={
        "pairs": [list(pairs[u]) for u in order]})


# ---------------------------------------------------------------------------
# Filtrations attached to a chain-decomposition certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Filtration:
    """Nested chain-label sets J_1 >= J_2 >= ... >= J_r (0-based labels),
    each J_i up-closed in the layer relation between ranks i-1 and i."""

    levels: tuple[frozenset[int], ...]

    def exit_rank(self, label: int) -> int:
        return max(i + 1 for i, level in enumerate(self.levels)
                   if label in level)


def _validate_certificate(cert) -> tuple[GradedPoset, tuple[tuple[str, ...], ...]]:
    g = getattr(cert, "graded", None)
    chains = getattr(cert, "chains", None)
    if not isinstance(g, GradedPoset) or chains is None:
        raise InvalidCertificate("need a chain-decomposition certificate")
    # constructing the decomposition runs its checks
    return g, ChainDecomposition(g, tuple(tuple(c) for c in chains)).chains


def _layer_relation(g: GradedPoset, chains, i: int) -> tuple[list[int], dict]:
    """Ground labels alive at rank i and the relation k <= j given by a
    cover from chain k's rank-(i-1) element to chain j's rank-i element."""
    ground = [u for u, c in enumerate(chains) if len(c) >= i]
    rel = {u: set() for u in ground}
    for j in ground:
        for k in ground:
            if k == j:
                rel[k].add(j)
            elif g.poset.is_cover(chains[k][i - 2], chains[j][i - 1]):
                rel[k].add(j)
    return ground, rel


def filtrations(cert) -> list[Filtration]:
    """All level filtrations of a chain-decomposed poset.

    Level 1 contains every chain label; level i must be a subset of
    level i-1, live on chains of length >= i, and be up-closed in the
    layer relation between ranks i-1 and i.
    """
    g, chains = _validate_certificate(cert)
    r = g.rbar()
    labels = frozenset(range(len(chains)))
    if r == 0:
        return []
    results: list[Filtration] = []
    grounds = {}
    rels = {}
    for i in range(2, r + 1):
        grounds[i], rels[i] = _layer_relation(g, chains, i)

    def descend(i: int, prefix: list[frozenset[int]]) -> None:
        if i > r:
            results.append(Filtration(tuple(prefix)))
            return
        pool = sorted(set(prefix[-1]) & set(grounds[i]))
        for bits in range(1 << len(pool)):
            subset = frozenset(pool[k] for k in range(len(pool))
                               if (bits >> k) & 1)
            rel = rels[i]
            if all(rel[k] <= subset for k in subset):
                descend(i + 1, prefix + [subset])

    descend(2, [labels])
    results.sort(key=lambda f: tuple(sorted(level) for level in f.levels))
    return results


def filtration_to_monomial(filt: Filtration, cert) -> frozenset[str]:
    """The vertex cover picking, on each chain, the element at the
    chain's exit rank."""
    _, chains = _validate_certificate(cert)
    return frozenset(chains[u][filt.exit_rank(u) - 1]
                     for u in range(len(chains)))


def dual_variable_order(cert) -> tuple[str, ...]:
    """Variable order under which the Alexander dual of a chain-
    decomposed Cohen-Macaulay poset is weakly polymatroidal: later
    chain first, higher rank first within a chain.

    The chain index is the primary key.  The exchange that witnesses
    the property swaps two elements of one chain, moving the cover
    element up in rank, so the swapped-out variable must come later in
    the order than the swapped-in one whenever both sit on the same
    chain; ordering by rank first instead breaks the exchange on
    impure posets (a higher-rank element of an earlier chain would be
    scanned before lower-rank elements of later chains)."""
    g, chains = _validate_certificate(cert)
    position = {}
    for u, c in enumerate(chains):
        for e in c:
            position[e] = (-u, -g.rank[e])
    return tuple(sorted(g.elements, key=lambda e: position[e]))


# ---------------------------------------------------------------------------
# Classification report
# ---------------------------------------------------------------------------

def jsonable(obj):
    """Recursively turn verdict payloads into JSON-serializable data."""
    if isinstance(obj, Verdict):
        return {"value": obj.value,
                "certificate": jsonable(obj.certificate),
                "witness": jsonable(obj.witness)}
    if isinstance(obj, ChainDecomposition):
        return {"chains": [list(c) for c in obj.chains]}
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj


def classification_report(p: Poset | GradedPoset, f=None,
                          budgets: dict | None = None) -> dict:
    """Full classification of one poset: structural checks side by side
    with the homological oracles, plus per-layer summaries.

    For ungraded input only the gradedness flag is meaningful; the other
    fields are null.  ``budgets`` may set ``cover_enum`` and
    ``betti_vars``; any other key raises ``InvalidParameter``.
    """
    if f is None:
        f = GF2
    b = {
        "cover_enum": covers.DEFAULT_COVER_BUDGET,
        "betti_vars": homology.DEFAULT_BETTI_VARS,
    }
    unknown = sorted(set(budgets or ()) - set(b))
    if unknown:
        raise InvalidParameter(f"unknown budgets: {', '.join(unknown)}")
    b.update(budgets or {})
    poset = p.poset if isinstance(p, GradedPoset) else p
    try:
        g = p if isinstance(p, GradedPoset) else GradedPoset(poset)
    except NotGraded:
        g = None
    report: dict = {
        "elements": len(poset),
        "covers": len(poset.covers),
        "graded": g is not None,
        "field": str(f),
        "pure": None,
        "connected": None,
        "generators": None,
        "unmixed": None,
        "cm": None,
        "linear_resolution": None,
        "bi_cm": None,
        "layers": None,
        "certificates": None,
        "witnesses": None,
    }
    if g is None:
        return report
    unmixed_s = check_unmixed_structural(g)
    cm_s = check_cm_structural(g)
    lr_s = has_linear_resolution_structural(g)
    bi = _bi_cm_verdict(g, cm_s, lr_s)
    # the flag ideal lists every maximal chain, so the transversal budget
    # fires before it and both oracles; the Betti one fires at the start
    # of oracle_verdicts
    covers.check_cover_budget(len(poset), b["cover_enum"])
    ideal = flag_ideal(g)
    cm_o, lr_o = homology.oracle_verdicts(ideal, f, b["betti_vars"])
    unmixed_o = covers.is_unmixed_bruteforce(g, b["cover_enum"])
    report.update({
        "pure": g.is_pure(),
        "connected": len(connected_components(poset)) <= 1,
        "generators": len(ideal.generators),
        "unmixed": {
            "structural": unmixed_s.value,
            "oracle": unmixed_o,
        },
        "cm": {
            "structural": cm_s.value,
            "oracle": cm_o,
        },
        "linear_resolution": {
            "structural": lr_s.value,
            "oracle": lr_o,
        },
        "bi_cm": bi.value,
    })
    layers = []
    for i in range(1, g.rbar()):
        sub = rank_selection(g, {i, i + 1})
        trimmed = layer_pair(g, i, trim=True)
        layers.append({
            "ranks": [i, i + 1],
            "unmixed": check_unmixed_structural(sub).value,
            "ferrers": _layer_ferrers(g, i).value,
            "herzog_hibi_cm": herzog_hibi_bipartite_cm(trimmed).value,
        })
    report["layers"] = layers
    report["certificates"] = jsonable({
        "unmixed": unmixed_s.certificate,
        "cm": cm_s.certificate,
        "linear_resolution": lr_s.certificate,
        "bi_cm": bi.certificate,
    })
    report["witnesses"] = jsonable({
        "unmixed": unmixed_s.witness,
        "cm": cm_s.witness,
        "linear_resolution": lr_s.witness,
        "bi_cm": bi.witness,
    })
    return report
