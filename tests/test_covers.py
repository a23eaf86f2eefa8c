import itertools
import random
from collections import Counter

import pytest

import flagposet as fp
from flagposet.errors import BudgetExceeded, UnknownElement

from conftest import corpus_poset, sweep_poset


def reference_minimal_transversals(edges, universe):
    """Independent reference: branch-and-bound over the hyperedges,
    smallest first, branching on the vertices of each unmet edge in
    universe order, then a minimality post-filter."""
    order = {v: i for i, v in enumerate(universe)}
    edge_list = sorted({frozenset(e) for e in edges},
                       key=lambda e: (len(e), sorted(order[v] for v in e)))
    if any(not e for e in edge_list):
        return []
    found = set()

    def rec(i, chosen):
        if i == len(edge_list):
            found.add(chosen)
            return
        e = edge_list[i]
        if e & chosen:
            rec(i + 1, chosen)
            return
        for v in sorted(e, key=order.get):
            rec(i + 1, chosen | {v})

    rec(0, frozenset())
    minimal = []
    for c in sorted(found, key=len):
        if not any(m < c for m in minimal):
            minimal.append(c)
    minimal.sort(key=lambda c: (len(c), sorted(order[v] for v in c)))
    return minimal


def _chain_hypergraph(g):
    return [frozenset(c) for c in fp.maximal_chains(g)], g.elements


def brute_minimal_covers(g):
    """Independent oracle: scan all subsets of the ground set."""
    chains = [frozenset(c) for c in fp.maximal_chains(g)]
    elems = list(g.elements)
    covers = []
    for k in range(len(elems) + 1):
        for sub in itertools.combinations(elems, k):
            s = frozenset(sub)
            if all(s & c for c in chains):
                covers.append(s)
    return [c for c in covers if not any(o < c for o in covers)]


def reference_is_vertex_cover(g, candidate):
    """Independent reference: the candidate meets every listed maximal
    chain."""
    cset = set(candidate)
    return all(cset & set(c) for c in fp.maximal_chains(g))


def test_is_vertex_cover():
    g = fp.example_3_4()
    assert fp.is_vertex_cover(g, g.layer(1))
    assert not fp.is_vertex_cover(g, set())
    assert fp.is_vertex_cover(g, {"a1", "b1", "b3", "c3"})
    assert not fp.is_vertex_cover(fp.antichain(2), {"p1"})
    with pytest.raises(UnknownElement):
        fp.is_vertex_cover(g, {"zz"})
    with pytest.raises(UnknownElement):
        fp.is_vertex_cover(g, {"a1", "b1", "b3", "c3", "zz"})


def test_is_vertex_cover_matches_chain_listing(corpus_b):
    rng = random.Random(20261019)
    pool = corpus_b + [sweep_poset(bits, iso) for iso in (False, True)
                       for bits in range(512)]
    verdicts = Counter()
    for k, g in enumerate(pool):
        elems = list(g.elements)
        candidates = [set(), set(elems), set(g.poset.minimal_elements()),
                      set(g.poset.maximal_elements())]
        candidates += [set(rng.sample(elems, rng.randint(1, len(elems))))
                       for _ in range(6) if elems]
        if k < len(corpus_b):
            # minimal covers, each also with one element taken out
            for c in fp.minimal_vertex_covers(g):
                candidates.append(set(c))
                candidates.append(set(c) - {min(c)})
        for c in candidates:
            got = fp.is_vertex_cover(g, c)
            assert got == reference_is_vertex_cover(g, c), (g, c)
            verdicts[got] += 1
    assert verdicts[True] > 3000 and verdicts[False] > 3000


def test_is_vertex_cover_lists_no_chains(monkeypatch):
    from flagposet import covers

    def no_listing(g):
        raise AssertionError("maximal chains listed")

    monkeypatch.setattr(covers, "maximal_chains", no_listing)
    g = fp.hom_rt_poset(10, 10)
    assert fp.is_vertex_cover(g, g.layer(1))
    assert fp.is_vertex_cover(g, g.layer(10))
    # a1_1 < a2_1 < ... < a10_1 avoids the rest of layer 1
    assert not fp.is_vertex_cover(g, set(g.layer(1)) - {"a1_1"})
    # a maximal chain is a1_{j1} < ... < a10_{j10} with j1 <= ... <= j10;
    # j_i - i starts >= 0, ends <= 0 and drops by at most 1 per step, so
    # it is 0 somewhere; a constant j = 5 meets the diagonal only at a5_5
    diagonal = {f"a{i}_{i}" for i in range(1, 11)}
    assert fp.is_vertex_cover(g, diagonal)
    assert not fp.is_vertex_cover(g, diagonal - {"a5_5"})
    # j = 1, 1, 1, 1, 1, 10, ..., 10 jumps over the antidiagonal
    assert not fp.is_vertex_cover(g, {f"a{i}_{11 - i}" for i in range(1, 11)})


def test_minimal_cover_shapes():
    assert fp.minimal_vertex_covers(fp.antichain(4)) \
        == [frozenset({"p1", "p2", "p3", "p4"})]
    singles = fp.minimal_vertex_covers(fp.chain(5))
    assert sorted(singles, key=sorted) \
        == [frozenset({f"c{i}"}) for i in range(1, 6)]


def test_example_3_4_cover_sizes():
    covers = fp.minimal_vertex_covers(fp.example_3_4())
    sizes = Counter(len(c) for c in covers)
    assert sizes[4] == 1
    assert set(sizes) == {3, 4}
    big = [c for c in covers if len(c) == 4]
    assert big == [frozenset({"a1", "b1", "b3", "c3"})]


@pytest.mark.parametrize("name", ["3.4", "3.6", "hom22", "chain"])
def test_minimal_covers_match_subset_scan(name):
    g = {"3.4": fp.example_3_4(), "3.6": fp.example_3_6(),
         "hom22": fp.hom_rt_poset(2, 2), "chain": fp.chain(4)}[name]
    got = set(fp.minimal_vertex_covers(g))
    assert got == set(brute_minimal_covers(g))


def test_covering_number_height_dim():
    assert fp.covering_number(fp.chain(6)) == 1
    assert fp.krull_dim(fp.chain(6)) == 5
    assert fp.height(fp.chain(6)) == 1
    g = fp.example_3_4()
    assert fp.covering_number(g) == 3
    assert fp.krull_dim(g) == 6
    assert fp.covering_number(fp.hom_rt_poset(2, 2)) == 2


def test_unmixed_bruteforce():
    assert not fp.is_unmixed_bruteforce(fp.example_3_4())
    assert not fp.is_unmixed_bruteforce(fp.example_3_6())
    assert fp.is_unmixed_bruteforce(fp.chain(7))
    assert fp.is_unmixed_bruteforce(fp.antichain(3))


def test_maximal_independent_sets_are_complements():
    g = fp.example_3_4()
    covers = set(fp.minimal_vertex_covers(g))
    indep = set(fp.maximal_independent_sets(g))
    universe = frozenset(g.elements)
    assert indep == {universe - c for c in covers}
    # no maximal chain inside an independent set
    chains = [frozenset(c) for c in fp.maximal_chains(g)]
    for s in indep:
        assert not any(c <= s for c in chains)
    assert fp.maximal_independent_sets(fp.antichain(3)) \
        == [frozenset()]
    two = fp.chain(2)
    assert set(fp.maximal_independent_sets(two)) \
        == {frozenset({"c1"}), frozenset({"c2"})}


def test_covers_decompose_over_components():
    p = fp.Poset(["a1", "a2", "b1", "b2", "b3"],
                 [("a1", "a2"), ("b1", "b2"), ("b2", "b3")])
    g = fp.GradedPoset(p)
    covers = set(fp.minimal_vertex_covers(g))
    parts = [fp.GradedPoset(c) for c in fp.connected_components(p)]
    expected = set()
    for c1 in fp.minimal_vertex_covers(parts[0]):
        for c2 in fp.minimal_vertex_covers(parts[1]):
            expected.add(c1 | c2)
    assert covers == expected


def test_budget_is_enforced():
    with pytest.raises(BudgetExceeded):
        fp.minimal_vertex_covers(fp.antichain(25))
    assert len(fp.minimal_vertex_covers(fp.antichain(25), budget=30)) == 1


def test_cover_meets_each_certificate_chain_once():
    # on unmixed posets every minimal cover meets each decomposition
    # chain exactly once
    for seed in range(60):
        g = corpus_poset(seed)
        verdict = fp.check_unmixed_structural(g)
        if not verdict.value:
            continue
        chains = verdict.certificate.chains
        for cover in fp.minimal_vertex_covers(g):
            for chain in chains:
                assert len(cover & set(chain)) == 1


def test_transversals_match_reference_on_posets(corpus_b):
    pool = corpus_b + [sweep_poset(bits, iso) for iso in (False, True)
                       for bits in range(512)]
    for g in pool:
        edges, universe = _chain_hypergraph(g)
        assert fp.minimal_transversals(edges, universe) \
            == reference_minimal_transversals(edges, universe), g


def test_transversals_match_reference_on_random_hypergraphs():
    rng = random.Random(20140501)
    universe = [f"v{i}" for i in range(9)]
    nonempty = 0
    for trial in range(400):
        n = rng.randint(1, len(universe))
        edges = [frozenset(rng.sample(universe[:n], rng.randint(1, n)))
                 for _ in range(rng.randint(0, 8))]
        if edges and trial % 3 == 0:
            edges += rng.sample(edges, rng.randint(1, len(edges)))
        if trial % 40 == 0:
            edges.append(frozenset())
        got = fp.minimal_transversals(edges, universe[:n])
        assert got == reference_minimal_transversals(edges, universe[:n]), \
            edges
        if frozenset() in edges:
            assert got == []
        nonempty += bool(got)
    assert nonempty > 300
    assert fp.minimal_transversals([], universe) == [frozenset()]


def test_transversal_counts_on_grids():
    # minimal vertex covers of hom(r, t); past the default 24-vertex
    # budget, so the budget is raised to the element count
    for (r, t), count in (((5, 5), 126), ((6, 6), 462)):
        g = fp.hom_rt_poset(r, t)
        edges, universe = _chain_hypergraph(g)
        covers = fp.minimal_transversals(edges, universe, budget=len(g))
        assert len(covers) == count
        assert len(set(covers)) == count
        for c in covers:
            meets = [c & e for e in edges]
            assert all(meets)
            assert {v for m in meets if len(m) == 1 for v in m} == c
