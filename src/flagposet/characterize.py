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
so they are checked once.  The labeling condition needs no search
either: a labeling monotone along covers makes every layer's
biadjacency matrix triangular in label order, with a nonzero diagonal,
so the decomposition it labels is the poset's only one.  The first
decomposition found therefore has a monotone labeling exactly when the
poset is Cohen-Macaulay, and its chains also give the bi-Cohen-Macaulay
isomorphism onto the two-chain grid.

Everything here is pure and deterministic; verdicts carry either a
certificate (when true) or a concrete witness (when false).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceeded, InvalidCertificate
from .posets import (
    BipartiteLayer,
    GradedPoset,
    Poset,
    connected_components,
    layer_pair,
    rank_function,
    rank_selection,
    topological_order,
)

DEFAULT_CHAIN_PAIRS = 200000


@dataclass(frozen=True)
class ChainDecomposition:
    """Disjoint saturated chains, each from a rank-1 element up to a
    maximal element, jointly covering the poset; the tuple order is the
    chain labeling.  Construction raises ``InvalidCertificate`` unless
    the chains are such a decomposition."""

    graded: GradedPoset
    chains: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        g = self.graded
        seen: set[str] = set()
        maxes = set(g.poset.maximal_elements())
        for c in self.chains:
            if not c:
                raise InvalidCertificate("empty chain")
            if g.rank[c[0]] != 1:
                raise InvalidCertificate(f"chain must start at rank 1: {c}")
            if c[-1] not in maxes:
                raise InvalidCertificate(
                    f"chain must end at a maximal element: {c}")
            for a, b in zip(c, c[1:]):
                if not g.poset.is_cover(a, b):
                    raise InvalidCertificate(f"not saturated: {a} < {b}")
            for e in c:
                if e in seen:
                    raise InvalidCertificate(f"chains overlap at {e}")
                seen.add(e)
        if seen != set(g.elements):
            raise InvalidCertificate("chains must cover the poset")

    def rank_ordering(self, i: int) -> tuple[str, ...]:
        """Rank-i elements in chain-label order."""
        return tuple(c[i - 1] for c in self.chains if len(c) >= i)


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
# deterministic.

def _kuhn(tops, neighbors, match: dict[str, str]) -> bool:
    """Kuhn's augmenting paths: give each of ``tops`` a distinct one of
    its ``neighbors``, recorded in ``match`` as neighbour -> top on top
    of the pairs already there.  False once a top cannot be placed."""

    def augment(t: str, visited: set[str]) -> bool:
        for b in neighbors(t):
            if b in visited:
                continue
            visited.add(b)
            if b not in match or augment(match[b], visited):
                match[b] = t
                return True
        return False

    return all(augment(t, set()) for t in tops)


def _assemble_chains(g: GradedPoset,
                     up: dict[str, str]) -> tuple[tuple[str, ...], ...]:
    chains = []
    for e in g.layer(1) if g.rbar() >= 1 else ():
        c = [e]
        while c[-1] in up:
            c.append(up[c[-1]])
        chains.append(tuple(c))
    return tuple(chains)


def _first_decomposition(g: GradedPoset) -> tuple[tuple[tuple[str, ...], ...] | None, int]:
    """One chain decomposition, or (None, offending layer index): layer
    by layer, every rank-(i+1) element is matched to a distinct parent,
    which needs as many of them as non-maximal rank-i elements."""
    up: dict[str, str] = {}
    for i in range(1, g.rbar()):
        tops = g.layer(i + 1)
        if (len(g.trimmed_layer(i)) != len(tops)
                or not _kuhn(tops, g.poset.parents, up)):
            return None, i
    return _assemble_chains(g, up), 0


# ---------------------------------------------------------------------------
# Recombination conditions on chain pairs
# ---------------------------------------------------------------------------

class _PairBudget:
    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def tick(self) -> None:
        self.used += 1
        if self.used > self.limit:
            raise BudgetExceeded(
                f"chain-pair enumeration exceeded {self.limit}")


def _saturated_chains(g: GradedPoset, start: str, steps: int, up: bool,
                      target: str | None = None) -> list[tuple[str, ...]]:
    """Saturated chains with ``steps`` covers from ``start``, up along
    children or down along parents, each listed bottom to top.  With a
    ``target`` the walk keeps to elements <= it and ends there."""
    step = g.poset.children if up else g.poset.parents
    paths = [(start,)]
    for _ in range(steps):
        paths = [c + (x,) for c in paths for x in step(c[-1])
                 if target is None or g.poset.leq(x, target)]
    if target is not None:
        paths = [c for c in paths if c[-1] == target]
    return paths if up else [c[::-1] for c in paths]


def _recombines(g: GradedPoset, start: str, c1: tuple[str, ...],
                c2: tuple[str, ...], end: str, span: int) -> bool:
    """Is there a saturated chain start < ... < end whose intermediate
    element at each level comes from c1 or c2?"""
    reach = {start}
    for level in range(1, span):
        candidates = {c1[level], c2[level]}
        reach = {y for y in candidates
                 if any(g.poset.is_cover(x, y) for x in reach)}
        if not reach:
            return False
    return any(g.poset.is_cover(x, end) for x in reach)


def _condition3(g: GradedPoset, chains, budget: _PairBudget,
                weak: bool) -> tuple[bool, dict | None]:
    for chain in chains:
        for i in range(1, len(chain) + 1):
            for j in range(i + 1, len(chain) + 1):
                down = _saturated_chains(g, chain[j - 1], j - i, up=False)
                up = _saturated_chains(g, chain[i - 1], j - i, up=True)
                for c1 in down:
                    for c2 in up:
                        budget.tick()
                        start, end = c1[0], c2[-1]
                        if weak:
                            ok = g.poset.less(start, end)
                        else:
                            ok = _recombines(g, start, c1, c2, end, j - i)
                        if not ok:
                            return False, {"through": chain,
                                           "chain1": list(c1),
                                           "chain2": list(c2)}
    return True, None


def _condition4(g: GradedPoset, chains, budget: _PairBudget,
                weak: bool) -> tuple[bool, dict | None]:
    maxes_by_rank: dict[int, list[str]] = {}
    for e in g.poset.maximal_elements():
        maxes_by_rank.setdefault(g.rank[e], []).append(e)
    for chain in chains:
        for i in range(1, len(chain) - 1):
            for k in range(i + 2, len(chain) + 1):
                down = _saturated_chains(g, chain[k - 1], k - i, up=False)
                for j in range(i + 1, k):
                    for w in maxes_by_rank.get(j, ()):
                        up = _saturated_chains(g, chain[i - 1], j - i,
                                                up=True, target=w)
                        for c1 in down:
                            for c2 in up:
                                budget.tick()
                                start = c1[0]
                                if weak:
                                    ok = g.poset.less(start, w)
                                else:
                                    ok = _recombines(g, start, c1, c2, w,
                                                     j - i)
                                if not ok:
                                    return False, {"through": chain,
                                                   "chain1": list(c1),
                                                   "chain2": list(c2),
                                                   "maximal": w}
    return True, None


# ---------------------------------------------------------------------------
# Unmixedness and Cohen-Macaulayness
# ---------------------------------------------------------------------------

def _chain_conditions(g: GradedPoset,
                      chain_pairs: int) -> tuple[tuple | None, dict | None]:
    """Conditions 2-4, shared by unmixedness and Cohen-Macaulayness: a
    chain decomposition, and the two recombination conditions on it.
    Returns ``(chains, None)``, or ``(None, witness)`` for the first
    condition that fails."""
    chains, bad = _first_decomposition(g)
    if chains is None:
        return None, {"condition": 2, "layer": bad}
    budget = _PairBudget(chain_pairs)
    ok, wit = _condition3(g, chains, budget, weak=False)
    if not ok:
        return None, {"condition": 3, **wit}
    ok, wit = _condition4(g, chains, budget, weak=False)
    if not ok:
        return None, {"condition": 4, **wit}
    return chains, None


def check_unmixed_structural(g: GradedPoset,
                             chain_pairs: int = DEFAULT_CHAIN_PAIRS) -> Verdict:
    """Unmixedness via layer sizes, per-layer perfect matchings, and the
    two recombination conditions."""
    sizes = g.layer_sizes()
    for i in range(len(sizes) - 1):
        if sizes[i] < sizes[i + 1]:
            return Verdict(False, witness={"condition": 1,
                                           "layer_sizes": list(sizes)})
    chains, witness = _chain_conditions(g, chain_pairs)
    if chains is None:
        return Verdict(False, witness=witness)
    ordered = tuple(sorted(chains, key=lambda c: (-len(c),
                                                  g.poset.index(c[0]))))
    return Verdict(True, certificate=ChainDecomposition(g, ordered))


def check_weak_conditions(g: GradedPoset,
                          chain_pairs: int = DEFAULT_CHAIN_PAIRS) -> tuple[bool, bool]:
    """The weakened recombination conditions: the recombined chain may
    run anywhere in the poset.  Vacuously true when no chain
    decomposition exists."""
    chains, _ = _first_decomposition(g)
    if chains is None:
        return True, True
    budget = _PairBudget(chain_pairs)
    ok3, _ = _condition3(g, chains, budget, weak=True)
    ok4, _ = _condition4(g, chains, budget, weak=True)
    return ok3, ok4


def _label_order(g: GradedPoset, chains) -> list[int] | None:
    """Topological order of the chain constraint digraph (an edge u -> v
    for each cover from chain u into chain v), or None on a cycle."""
    tid = {e: u for u, c in enumerate(chains) for e in c}
    succ: list[set[int]] = [set() for _ in chains]
    for p, q in g.covers:
        if tid[p] != tid[q]:
            succ[tid[p]].add(tid[q])
    order = topological_order(succ)
    return order if len(order) == len(chains) else None


def check_cm_structural(g: GradedPoset,
                        chain_pairs: int = DEFAULT_CHAIN_PAIRS) -> Verdict:
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
    chains, witness = _chain_conditions(g, chain_pairs)
    if chains is None:
        return Verdict(False, witness=witness)
    order = _label_order(g, chains)
    if order is None:
        return Verdict(False, witness={
            "condition": 5,
            "note": "every chain labeling has a cover running downward"})
    ordered = tuple(chains[u] for u in order)
    return Verdict(True, certificate=ChainDecomposition(g, ordered))


# ---------------------------------------------------------------------------
# Ferrers layers and linear resolutions
# ---------------------------------------------------------------------------

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


def is_ferrers(layer: BipartiteLayer) -> Verdict:
    """Staircase recognition: no isolated vertices, and neighborhoods on
    both sides totally ordered by inclusion after a degree sort.  The
    certificate is the pair of staircase orderings; the witness is an
    isolated vertex or an induced pair of disjoint edges."""
    if not layer.bottom and not layer.top:
        return Verdict(True, certificate={"rows": [], "cols": []})
    nb = {a: frozenset(layer.neighbors_bottom(a)) for a in layer.bottom}
    nt = {b: frozenset(layer.neighbors_top(b)) for b in layer.top}
    for v in layer.bottom:
        if not nb[v]:
            return Verdict(False, witness={"isolated_vertex": v})
    for v in layer.top:
        if not nt[v]:
            return Verdict(False, witness={"isolated_vertex": v})

    def staircase(side, hoods):
        pos = {v: i for i, v in enumerate(side)}
        order = sorted(side, key=lambda v: (-len(hoods[v]), pos[v]))
        for x, y in zip(order, order[1:]):
            if not hoods[y] <= hoods[x]:
                q2 = min(hoods[y] - hoods[x])
                q1 = min(hoods[x] - hoods[y])
                return None, (x, q1, y, q2)
        return order, None

    rows, viol = staircase(layer.bottom, nb)
    if rows is None:
        x, q1, y, q2 = viol
        return Verdict(False, witness={"two_disjoint_edges":
                                       (x, q1, y, q2)})
    cols, viol = staircase(layer.top, nt)
    if cols is None:
        b1, a1, b2, a2 = viol
        return Verdict(False, witness={"two_disjoint_edges":
                                       (a1, b1, a2, b2)})
    return Verdict(True, certificate={"rows": list(rows),
                                      "cols": list(cols)})


def has_linear_resolution_structural(g: GradedPoset) -> Verdict:
    """Pure, and every consecutive-rank layer is a Ferrers graph."""
    if not g.elements:
        return Verdict(True, certificate={"layers": []})
    if not g.is_pure():
        ranks = sorted({g.rank[e] for e in g.poset.maximal_elements()})
        return Verdict(False, witness={"impure": {"maximal_ranks": ranks}})
    layers = []
    for i in range(1, g.rbar()):
        verdict = is_ferrers(layer_pair(g, i, trim=False))
        if not verdict.value:
            return Verdict(False, witness={"layer": i, **verdict.witness})
        layers.append({"layer": i, **verdict.certificate})
    return Verdict(True, certificate={"layers": layers})


def is_bi_cm(g: GradedPoset, iso_budget: int | None = None,
             chain_pairs: int = DEFAULT_CHAIN_PAIRS) -> Verdict:
    """Cohen-Macaulay with a linear resolution; when true the certificate
    holds the isomorphism onto the two-chain letterplace grid of the
    poset's dimensions, read off the Cohen-Macaulay chains.

    ``iso_budget`` is ignored: no isomorphism is searched for.  It stays
    only while the benchmark's structural workload still passes it."""
    cm = check_cm_structural(g, chain_pairs)
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
    fields are null.
    """
    from .covers import DEFAULT_COVER_BUDGET, is_unmixed_bruteforce
    from .fields import GF2
    from .homology import DEFAULT_BETTI_VARS, oracle_verdicts
    from .ideals import flag_ideal

    if f is None:
        f = GF2
    b = {
        "cover_enum": DEFAULT_COVER_BUDGET,
        "betti_vars": DEFAULT_BETTI_VARS,
        "chain_pairs": DEFAULT_CHAIN_PAIRS,
    }
    if budgets:
        b.update(budgets)
    poset = p.poset if isinstance(p, GradedPoset) else p
    g = p if isinstance(p, GradedPoset) else rank_function(poset)
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
    ideal = flag_ideal(g)
    unmixed_s = check_unmixed_structural(g, b["chain_pairs"])
    cm_s = check_cm_structural(g, b["chain_pairs"])
    lr_s = has_linear_resolution_structural(g)
    bi = _bi_cm_verdict(g, cm_s, lr_s)
    # both oracles are exponential, so both size budgets fire before
    # either starts, the transversal one (as in minimal_transversals)
    # first and the Betti one at the start of oracle_verdicts
    if len(poset) > b["cover_enum"]:
        raise BudgetExceeded(f"transversal enumeration limited to "
                             f"{b['cover_enum']} vertices")
    cm_o, lr_o = oracle_verdicts(ideal, f, b["betti_vars"])
    unmixed_o = is_unmixed_bruteforce(g, b["cover_enum"])
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
        untrimmed = layer_pair(g, i, trim=False)
        trimmed = layer_pair(g, i, trim=True)
        layers.append({
            "ranks": [i, i + 1],
            "unmixed": check_unmixed_structural(sub, b["chain_pairs"]).value,
            "ferrers": is_ferrers(untrimmed).value,
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
