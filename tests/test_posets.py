import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flagposet as fp
from flagposet.errors import (
    BudgetExceeded,
    CycleDetected,
    EmptySelection,
    InvalidParameter,
    NotGraded,
    ParseError,
    RedundantCover,
    UnknownElement,
)
from flagposet.generate import RandomPosetSpec, random_graded_poset

from conftest import (
    corpus_poset,
    generated_chain_posets,
    structural_grids_posets,
    sweep_poset,
)


def test_build_two_chain():
    p = fp.Poset(["a", "b"], [("a", "b")])
    assert p.minimal_elements() == ("a",)
    assert p.maximal_elements() == ("b",)
    assert p.less("a", "b") and not p.less("b", "a")
    assert p.leq("a", "a") and p.leq("a", "b") and not p.leq("b", "a")
    with pytest.raises(UnknownElement):
        p.leq("zz", "zz")


def test_build_rejects_cycle():
    with pytest.raises(CycleDetected):
        fp.Poset(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(CycleDetected):
        fp.Poset(["a"], [("a", "a")])


def test_topological_order_takes_smallest_ready_vertex():
    # first-in-first-out would give 0, 1, 3, 2 on both digraphs
    assert fp.posets.topological_order([[3], [2], [], []]) == [0, 1, 2, 3]
    assert fp.posets.topological_order([[3, 2], [], [], []]) == [0, 1, 2, 3]
    # 1 -> 2 -> 1 is a cycle: 0 and 3 are placed, 1 and 2 are not
    assert fp.posets.topological_order([[1], [2], [1], []]) == [0, 3]
    assert fp.posets.topological_order([]) == []
    with pytest.raises(CycleDetected) as excinfo:
        fp.Poset("abcd", [("d", "a"), ("a", "b"), ("b", "c"),
                          ("c", "b")])
    assert str(excinfo.value) == "cover digraph has a cycle through ['b', 'c']"
    # the chain labeling of a CM certificate is the sort's order
    assert fp.check_cm_structural(fp.example_4_9()).certificate.chains == (
        ("a1", "a2", "a3"), ("b1", "b2", "b3", "b4"), ("c1", "c2"),
        ("d1", "d2", "d3", "d4"), ("e1", "e2", "e3"))


def test_build_rejects_redundant_cover():
    with pytest.raises(RedundantCover):
        fp.Poset("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    # a < c, a < d and b < d are all redundant; the first in cover order
    # is named
    with pytest.raises(RedundantCover) as excinfo:
        fp.Poset("abcd", [("b", "d"), ("c", "d"), ("a", "d"),
                          ("b", "c"), ("a", "c"), ("a", "b")])
    assert str(excinfo.value) == "cover a < c is implied by a longer path"


def _reachable(p, e):
    """Elements at or above e, by a depth-first search over the cover
    list."""
    up = {x: [] for x in p.elements}
    for a, b in p.covers:
        up[a].append(b)
    seen, stack = {e}, [e]
    while stack:
        for b in up[stack.pop()]:
            if b not in seen:
                seen.add(b)
                stack.append(b)
    return seen


@pytest.mark.parametrize("pool", ["corpus", "sweep", "grids", "generated"])
def test_diagram_tables_match_naive_references(corpus_b, pool):
    posets = {
        "corpus": lambda: corpus_b,
        "sweep": lambda: [sweep_poset(bits, iso) for iso in (False, True)
                          for bits in range(512)],
        "grids": lambda: structural_grids_posets(1)[::7],
        "generated": lambda: generated_chain_posets(200),
    }[pool]()
    for g in posets:
        p = g.poset
        bit = {e: 1 << x for x, e in enumerate(p.elements)}
        above = {e: _reachable(p, e) for e in p.elements}
        for x, e in enumerate(p.elements):
            assert p.down_sets[x] == sum(bit[d] for d in p.elements
                                         if e in above[d])
            assert p.child_masks[x] == sum(bit[c] for c in p.children(e))
            assert p.child_indices[x] == tuple(sorted(
                p.index(b) for a, b in p.covers if a == e))
            assert p.parent_indices[x] == tuple(sorted(
                p.index(a) for a, b in p.covers if b == e))
            for f in p.elements:
                assert p.less(e, f) == (f in above[e] and f != e)
        assert g.rank_masks == (0,) + tuple(
            sum(bit[e] for e in g.layer(i)) for i in range(1, g.rbar() + 1))


def test_build_rejects_unknown_and_duplicates():
    with pytest.raises(UnknownElement):
        fp.Poset(["a"], [("a", "b")])
    with pytest.raises(InvalidParameter):
        fp.Poset(["a", "a"], [])
    with pytest.raises(InvalidParameter):
        fp.Poset(["a", "b"], [("a", "b"), ("a", "b")])


def test_pentagon_is_a_valid_poset_but_ungraded():
    p = fp.pentagon()
    assert len(p) == 5 and len(p.covers) == 5
    with pytest.raises(NotGraded):
        fp.GradedPoset(p)


def test_rank_function_on_chains_and_unions():
    g = fp.chain(4)
    assert [g.rank[e] for e in g.elements] == [1, 2, 3, 4]
    # disjoint union of a 2-chain and a 3-chain: minimal elements rank 1
    p = fp.Poset(["a1", "a2", "b1", "b2", "b3"],
                 [("a1", "a2"), ("b1", "b2"), ("b2", "b3")])
    g = fp.GradedPoset(p)
    assert g.rank == {"a1": 1, "a2": 2, "b1": 1, "b2": 2, "b3": 3}


def test_builder_ranks_match_closed_forms(corpus_b):
    """The derived ranks of every builder against the rank formula of
    its construction."""
    for n in range(1, 7):
        assert fp.chain(n).rank == {f"c{i}": i for i in range(1, n + 1)}
        assert fp.antichain(n).rank == {f"p{i}": 1 for i in range(1, n + 1)}
    for r in range(1, 5):
        for t in range(1, 5):
            assert fp.hom_rt_poset(r, t).rank == {
                f"a{i}_{j}": i for i in range(1, r + 1)
                for j in range(1, t + 1)}
    for q in (fp.pentagon(), fp.chain(3), fp.v_poset(1, 2)):
        qp = q.poset if isinstance(q, fp.GradedPoset) else q
        for n in range(1, 4):
            assert fp.letterplace_poset(n, q).rank == {
                f"x{i}_{a}": i for i in range(1, n + 1) for a in qp.elements}
    for r in range(1, 4):
        for s in range(1, 4):
            for n in range(1, 4):
                expected = {}
                for i in range(1, n + 1):
                    expected[f"a_{i}"] = s + 1
                    for k in range(1, s + 1):
                        expected[f"c{k}_{i}"] = s - k + 1
                    for k in range(1, r + 1):
                        expected[f"b{k}_{i}"] = s + 1 + k
                assert fp.v_coletterplace_poset(r, s, n).rank == expected
    for g in (fp.example_3_4(), fp.example_3_6(), fp.example_4_9()):
        assert g.rank == {e: int(e[1]) for e in g.elements}
    for seed in range(30):
        g = random_graded_poset(RandomPosetSpec((2, 4, 3, 1), 0.3, seed))
        assert g.rank == {e: int(e[1:].split("_")[0]) for e in g.elements}
    impure = [g for g in corpus_b if not g.is_pure()]
    assert impure
    for g in impure:
        for k in range(1, g.rbar() + 1):
            for S in itertools.combinations(range(1, g.rbar() + 1), k):
                sel = fp.rank_selection(g, S)
                assert sel.rank == {e: S.index(g.rank[e]) + 1
                                    for e in g.elements if g.rank[e] in S}


def test_maximal_chains_basic():
    assert len(fp.maximal_chains(fp.antichain(5))) == 5
    assert len(fp.maximal_chains(fp.chain(6))) == 1
    chains = fp.maximal_chains(fp.example_3_4())
    assert len(chains) == 7
    assert ("a1", "a2", "a3") in chains and ("c1", "c2", "c3") in chains
    assert chains == sorted(chains)


def test_rank_selection_full_range_is_copy():
    g = fp.example_3_4()
    sel = fp.rank_selection(g, {1, 2, 3})
    assert sel.elements == g.elements
    assert set(sel.covers) == set(g.covers)
    assert sel.rank == g.rank


def test_rank_selection_layer_of_3_4():
    sel = fp.rank_selection(fp.example_3_4(), {1, 2})
    assert set(sel.elements) == {"a1", "b1", "c1", "a2", "b2", "c2"}
    assert len(sel.covers) == 5


def test_rank_selection_skipping_a_rank_matches_reachability():
    g = fp.hom_rt_poset(3, 2)
    sel = fp.rank_selection(g, {1, 3})
    # oracle: two-step saturated reachability through rank 2
    expected = set()
    for a in g.layer(1):
        for b in g.layer(3):
            if any(g.poset.is_cover(a, m) and g.poset.is_cover(m, b)
                   for m in g.layer(2)):
                expected.add((a, b))
    assert set(sel.covers) == expected
    assert all(sel.rank[e] in (1, 2) for e in sel.elements)


def test_rank_selection_errors():
    g = fp.chain(3)
    with pytest.raises(EmptySelection):
        fp.rank_selection(g, set())
    with pytest.raises(InvalidParameter):
        fp.rank_selection(g, {0, 1})


def test_rank_selection_composition():
    g = fp.example_4_9()
    once = fp.rank_selection(g, {2, 3, 4})
    twice = fp.rank_selection(once, {1, 2})  # ranks 2,3 of the original
    direct = fp.rank_selection(g, {2, 3})
    assert twice.elements == direct.elements
    assert set(twice.covers) == set(direct.covers)


def test_layer_pair():
    g = fp.example_3_4()
    layer = fp.layer_pair(g, 1, trim=True)
    assert layer.bottom == ("a1", "b1", "c1")
    assert layer.top == ("a2", "b2", "c2")
    assert len(layer.edges) == 5
    # trimming drops a maximal element sitting at the bottom rank
    g49 = fp.example_4_9()
    trimmed = fp.layer_pair(g49, 2, trim=True)
    assert "c2" not in trimmed.bottom
    assert "c2" in fp.layer_pair(g49, 2, trim=False).bottom
    # pure poset: trim is a no-op below the top
    pure = fp.hom_rt_poset(3, 2)
    assert fp.layer_pair(pure, 1, trim=True) == fp.layer_pair(pure, 1)


def test_connected_components_against_union_find():
    def components_oracle(p):
        parent = {e: e for e in p.elements}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in p.covers:
            parent[find(a)] = find(b)
        return len({find(e) for e in p.elements})

    assert len(fp.connected_components(fp.chain(3))) == 1
    union = fp.Poset(["a1", "a2", "b1", "b2"],
                     [("a1", "a2"), ("b1", "b2")])
    assert len(fp.connected_components(union)) == 2
    for p in [fp.example_3_6().poset, fp.example_3_4().poset, union]:
        assert len(fp.connected_components(p)) == components_oracle(p)
    # partition property
    comps = fp.connected_components(union)
    assert sum(len(c) for c in comps) == len(union)


def test_letterplace_poset_degenerate_and_hom_covers():
    q = fp.chain(3).poset
    assert fp.letterplace_poset(1, q).covers == ()
    h = fp.hom_rt_poset(2, 2)
    assert set(h.covers) == {("a1_1", "a2_1"), ("a1_1", "a2_2"),
                             ("a1_2", "a2_2")}


def test_example_4_9_shape():
    g = fp.example_4_9()
    assert len(g) == 16
    assert g.rbar() == 4
    assert set(g.poset.maximal_elements()) == {"c2", "a3", "e3", "b4", "d4"}


def test_builders_reject_bad_sizes():
    for builder in (fp.chain, fp.antichain):
        with pytest.raises(InvalidParameter):
            builder(0)
    with pytest.raises(InvalidParameter):
        fp.hom_rt_poset(0, 2)
    with pytest.raises(InvalidParameter):
        fp.v_coletterplace_poset(1, 1, 0)


def test_isomorphism_identity_and_negatives():
    g = fp.example_3_4().poset
    iso = fp.are_isomorphic(g, g)
    assert iso is not None
    assert sorted(iso) == sorted(iso.values()) == sorted(g.elements)
    assert all(g.is_cover(iso[a], iso[b]) for a, b in g.covers)
    assert fp.are_isomorphic(fp.chain(3), fp.antichain(3)) is None


def test_isomorphism_hom_vs_letterplace():
    h = fp.hom_rt_poset(2, 3)
    lp = fp.letterplace_poset(2, fp.chain(3))
    iso = fp.are_isomorphic(h, lp)
    assert iso is not None
    hp, lpp = h.poset, lp.poset
    assert all(lpp.is_cover(iso[a], iso[b]) for a, b in hp.covers)


def test_isomorphism_budget():
    with pytest.raises(BudgetExceeded):
        fp.are_isomorphic(fp.antichain(30), fp.antichain(30))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=199))
def test_maximal_chain_lengths_match_top_rank(seed):
    g = corpus_poset(seed)
    for c in fp.maximal_chains(g):
        assert len(c) == g.rank[c[-1]]
    if g.is_pure():
        assert {len(c) for c in fp.maximal_chains(g)} == {g.rbar()}


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=199), st.data())
def test_chains_split_over_components(seed, data):
    g = corpus_poset(seed)
    comps = fp.connected_components(g)
    total = sum(len(fp.maximal_chains(c)) for c in comps)
    assert total == len(fp.maximal_chains(g))
    ranks = sorted(set(g.rank.values()))
    lo = data.draw(st.integers(min_value=1, max_value=len(ranks)))
    hi = data.draw(st.integers(min_value=lo, max_value=len(ranks)))
    window = set(range(lo, hi + 1))
    sub = fp.rank_selection(g, window)
    assert set(sub.elements) == {e for e in g.elements
                                 if g.rank[e] in window}


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

def test_text_round_trip():
    g = fp.example_3_6()
    text = fp.poset_to_text(g)
    assert text.splitlines()[0] == "# flagposet v1"
    p = fp.parse_poset_text(text)
    assert p.elements == g.elements
    assert set(p.covers) == set(g.covers)
    covers_lines = text.splitlines()[2:]
    assert covers_lines == sorted(covers_lines)


@pytest.mark.parametrize("text,line", [
    ("nonsense\n", 1),
    ("# flagposet v1\nwrong\n", 2),
    ("# flagposet v1\nelements: a b\na<b\n", 3),
    ("# flagposet v1\nelements: a b\na < c\n", 3),
    ("# flagposet v1\nelements: a b\na < b\na < b\n", 4),
    ("# flagposet v1\nelements: a a\n", 2),
    ("# flagposet v1\nelements: a b\na < b\n\nb < b\n", 5),
])
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(ParseError) as err:
        fp.parse_poset_text(text)
    assert err.value.line == line


def test_bipartite_layer_rejects_bad_sides():
    # the Ferrers test and the Herzog-Hibi matching give each vertex one
    # neighbourhood, so a side may not list a vertex twice
    edges = frozenset([("a", "c"), ("b", "c")])
    for bottom, top, message in [(("a", "b", "a"), ("c",), "twice"),
                                 (("a", "b"), ("c", "c"), "twice"),
                                 (("a", "b"), ("c", "a"), "disjoint")]:
        with pytest.raises(InvalidParameter, match=message):
            fp.BipartiteLayer(bottom, top, edges)
    with pytest.raises(InvalidParameter, match="leaves the layer"):
        fp.BipartiteLayer(("a",), ("c",), edges)
