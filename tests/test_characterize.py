import itertools

import pytest

import flagposet as fp
from flagposet.errors import BudgetExceeded, InvalidCertificate

from conftest import corpus_poset, sweep_layer, sweep_poset


def test_unmixed_structural_on_named_examples():
    v = fp.check_unmixed_structural(fp.example_3_4())
    assert not v.value
    assert v.witness["condition"] in (3, 4)
    assert not fp.check_unmixed_structural(fp.example_3_6()).value
    v = fp.check_unmixed_structural(fp.chain(5))
    assert v.value
    assert v.certificate.chains == (tuple(f"c{i}" for i in range(1, 6)),)


def test_unmixed_certificate_is_valid():
    v = fp.check_unmixed_structural(fp.example_4_9())
    assert v.value
    chains = v.certificate.chains
    assert sorted(len(c) for c in chains) == [2, 3, 3, 4, 4]
    # nested layer counts: lengths are non-increasing in label order
    lengths = [len(c) for c in chains]
    assert lengths == sorted(lengths, reverse=True)


def test_weak_conditions():
    assert fp.check_weak_conditions(fp.example_3_6()) == (True, True)
    twok2 = fp.rank_function(fp.bipartite_poset(
        ("p1", "p2"), ("q1", "q2"), [("p1", "q1"), ("p2", "q2")]))
    assert fp.check_weak_conditions(twok2) == (True, True)
    # strong conditions imply the weak ones wherever a decomposition exists
    for seed in range(50):
        g = corpus_poset(seed)
        if fp.check_unmixed_structural(g).value:
            assert fp.check_weak_conditions(g) == (True, True)


def test_cm_structural_on_named_examples():
    v = fp.check_cm_structural(fp.example_4_9())
    assert v.value
    assert len(v.certificate.chains) == 5
    assert not fp.check_cm_structural(fp.example_3_4()).value
    assert not fp.check_cm_structural(fp.example_3_6()).value
    for r in (1, 2, 3):
        for t in (1, 2, 3):
            g = fp.hom_rt_poset(r, t)
            assert fp.check_cm_structural(g).value
            assert fp.is_cm_oracle(fp.flag_ideal(g))


def test_cm_label_monotonicity():
    v = fp.check_cm_structural(fp.example_4_9())
    chains = v.certificate.chains
    label = {}
    for u, c in enumerate(chains):
        for e in c:
            label[e] = u
    g = fp.example_4_9()
    for p, q in g.covers:
        assert label[p] <= label[q]


def test_cm_rejects_k22_by_labeling():
    k22 = fp.rank_function(fp.bipartite_poset(
        ("p1", "p2"), ("q1", "q2"),
        [(p, q) for p in ("p1", "p2") for q in ("q1", "q2")]))
    v = fp.check_cm_structural(k22)
    assert not v.value
    assert v.witness == {
        "condition": 5,
        "note": "every chain labeling has a cover running downward"}


@pytest.mark.parametrize("layer1_hall, bad_layer", [(True, 1), (False, 2)])
def test_condition2_witness_names_first_failing_layer(layer1_hall, bad_layer):
    # equal layer sizes everywhere; a Hall violation (two tops sharing
    # their only parent) in layer 2, and in layer 1 too when asked
    layer1 = ([("a1", "b1"), ("a1", "b2"), ("a2", "b3"), ("a3", "b3")]
              if layer1_hall else [("a1", "b1"), ("a2", "b2"), ("a3", "b3")])
    layer2 = [("b1", "c1"), ("b1", "c2"), ("b2", "c3"), ("b3", "c3")]
    g = fp.rank_function(fp.build_poset(
        ["a1", "a2", "a3", "b1", "b2", "b3", "c1", "c2", "c3"],
        layer1 + layer2))
    witness = {"condition": 2, "layer": bad_layer}
    assert fp.check_unmixed_structural(g).witness == witness
    assert fp.check_cm_structural(g).witness == witness


def test_cm_certificate_reorders_chains_of_a_rank3_poset():
    # the cover a2 < b1 runs from the chain of a2 into the chain of a1,
    # so the labeling puts the chain of a2 first
    g = fp.rank_function(fp.build_poset(
        ["a1", "b1", "c1", "a2", "b2", "c2"],
        [("a1", "b1"), ("b1", "c1"), ("a2", "b2"), ("b2", "c2"),
         ("a2", "b1"), ("b2", "c1")]))
    chains = (("a2", "b2", "c2"), ("a1", "b1", "c1"))
    assert fp.check_cm_structural(g).certificate.chains == chains


def _matchings(tops, neighbors):
    """Reference enumerator: every way to give each of ``tops`` a
    distinct one of its ``neighbors``, as the chosen neighbours in top
    order; tops are assigned in order and neighbours tried in order."""
    adj = [neighbors(t) for t in tops]
    used = set()
    acc = []

    def rec(k):
        if k == len(adj):
            yield tuple(acc)
            return
        for b in adj[k]:
            if b in used:
                continue
            used.add(b)
            acc.append(b)
            yield from rec(k + 1)
            acc.pop()
            used.discard(b)

    return rec(0)


def _all_decompositions(g):
    """Reference enumerator: every chain decomposition of a poset whose
    layers have sides of equal size, each as the set of its chains."""
    tops = [e for i in range(2, g.rbar() + 1) for e in g.layer(i)]
    for bottoms in _matchings(tops, g.poset.parents):
        up = dict(zip(bottoms, tops))
        chains = []
        for e in g.layer(1):
            c = [e]
            while c[-1] in up:
                c.append(up[c[-1]])
            chains.append(tuple(c))
        yield frozenset(chains)


def test_cm_posets_and_layers_have_one_decomposition(corpus_b):
    # a labeling monotone along covers makes every layer's biadjacency
    # matrix triangular with a nonzero diagonal, so a CM poset has one
    # chain decomposition and a Herzog-Hibi CM layer one perfect matching
    pool = [sweep_poset(bits, iso) for iso in (False, True)
            for bits in range(512)] + corpus_b
    cm_count = 0
    for g in pool:
        v = fp.check_cm_structural(g)
        if v.value and g.elements:
            cm_count += 1
            assert list(_all_decompositions(g)) \
                == [frozenset(v.certificate.chains)]
    assert cm_count == 376
    hh_count = 0
    for bits in range(512):
        layer = sweep_layer(bits)
        if layer.bottom and fp.herzog_hibi_bipartite_cm(layer).value:
            hh_count += 1
            assert len(list(_matchings(layer.top, layer.neighbors_top))) == 1
    assert hh_count == 177


def test_chain_decomposition_validation():
    g = fp.example_3_4()
    with pytest.raises(InvalidCertificate):
        fp.ChainDecomposition(g, (("a1", "a2"),))
    with pytest.raises(InvalidCertificate):
        fp.ChainDecomposition(g, (("a1", "a3"),))


def test_ferrers_and_2k2():
    kmn = sweep_layer(0b111111111)
    assert fp.is_ferrers(kmn).value
    assert fp.has_2k2(kmn) is None
    twok2 = fp.BipartiteLayer(("p1", "p2"), ("q1", "q2"),
                              frozenset([("p1", "q1"), ("p2", "q2")]))
    v = fp.is_ferrers(twok2)
    assert not v.value and "two_disjoint_edges" in v.witness
    a, b, c, d = fp.has_2k2(twok2)
    assert {(a, b), (c, d)} == {("p1", "q1"), ("p2", "q2")}
    iso = fp.BipartiteLayer(("a", "b"), ("c",), frozenset([("a", "c")]))
    v = fp.is_ferrers(iso)
    assert not v.value and v.witness == {"isolated_vertex": "b"}
    empty = fp.BipartiteLayer((), (), frozenset())
    assert fp.is_ferrers(empty).value


def test_ferrers_certificate_is_a_staircase():
    layer = sweep_layer(0b000111011)
    v = fp.is_ferrers(layer)
    if v.value:
        rows, cols = v.certificate["rows"], v.certificate["cols"]
        hood = {a: set(layer.neighbors_bottom(a)) for a in rows}
        for x, y in zip(rows, rows[1:]):
            assert hood[y] <= hood[x]


def test_ferrers_equals_no_2k2_on_sweep():
    for bits in range(512):
        layer = sweep_layer(bits)
        if not layer.edges:
            continue
        assert fp.is_ferrers(layer).value == (fp.has_2k2(layer) is None)


def test_linear_resolution_structural():
    for r, t in [(2, 3), (3, 2), (3, 3), (1, 4)]:
        assert fp.has_linear_resolution_structural(fp.hom_rt_poset(r, t)).value
    v = fp.has_linear_resolution_structural(fp.example_3_4())
    assert not v.value and v.witness["layer"] == 1
    union = fp.rank_function(fp.build_poset(
        ["a1", "a2", "b1", "b2"], [("a1", "a2"), ("b1", "b2")]))
    v = fp.has_linear_resolution_structural(union)
    assert not v.value  # two disjoint chains give a 2K2 layer
    impure = fp.example_4_9()
    v = fp.has_linear_resolution_structural(impure)
    assert not v.value and "impure" in v.witness
    # rank-1 boundary case: linear resolution without connectivity
    anti = fp.antichain(3)
    assert fp.has_linear_resolution_structural(anti).value
    assert len(fp.connected_components(anti)) == 3


def test_bi_cm():
    v = fp.is_bi_cm(fp.hom_rt_poset(2, 3))
    assert v.value
    assert v.certificate["hom_parameters"] == (2, 3)
    assert v.certificate["isomorphism"] is not None
    assert not fp.is_bi_cm(fp.example_4_9()).value
    assert fp.is_bi_cm(fp.chain(4)).value
    assert fp.is_bi_cm(fp.antichain(4)).value


def test_bi_cm_isomorphism_is_read_off_the_chains(corpus_b):
    pool = [fp.hom_rt_poset(r, t) for r in range(1, 25)
            for t in range(1, 25) if r * t <= 24]
    pool += [sweep_poset(bits, iso) for iso in (False, True)
             for bits in range(512)] + corpus_b
    checked = 0
    for g in pool:
        v = fp.is_bi_cm(g)
        if v.value and g.elements:
            r, t = v.certificate["hom_parameters"]
            assert v.certificate["isomorphism"] \
                == fp.are_isomorphic(g, fp.hom_rt_poset(r, t))
            checked += 1
    assert checked == 213
    # beyond the isomorphism search's 24-element budget
    v = fp.is_bi_cm(fp.hom_rt_poset(7, 7))
    assert v.value and v.certificate["hom_parameters"] == (7, 7)


def test_bi_cm_checks_the_grid_map(monkeypatch):
    # the map read off the CM chains is checked, not trusted: with the
    # linear-resolution verdict forced, an impure CM poset (4.9) and two
    # disjoint 2-chains (2 covers, the 2x2 grid has 3) have no grid map
    from flagposet import characterize
    monkeypatch.setattr(characterize, "has_linear_resolution_structural",
                        lambda g: fp.Verdict(True, certificate={}))
    two_chains = fp.rank_function(fp.build_poset(
        ["a1", "a2", "b1", "b2"], [("a1", "a2"), ("b1", "b2")]))
    for g in (fp.example_4_9(), two_chains):
        assert fp.check_cm_structural(g).value
        with pytest.raises(InvalidCertificate):
            fp.is_bi_cm(g)


def test_herzog_hibi():
    single = fp.BipartiteLayer(("a",), ("b",), frozenset([("a", "b")]))
    assert fp.herzog_hibi_bipartite_cm(single).value
    k22 = fp.BipartiteLayer(("a1", "a2"), ("b1", "b2"),
                            frozenset([("a1", "b1"), ("a1", "b2"),
                                       ("a2", "b1"), ("a2", "b2")]))
    hh = fp.herzog_hibi_bipartite_cm(k22)
    oracle = fp.is_cm_oracle(fp.SquarefreeIdeal(
        ("a1", "a2", "b1", "b2"), [frozenset(e) for e in k22.edges]))
    assert hh.value == oracle == False  # noqa: E712
    c6 = fp.BipartiteLayer(
        ("a1", "a2", "a3"), ("b1", "b2", "b3"),
        frozenset([("a1", "b1"), ("a2", "b1"), ("a2", "b2"),
                   ("a3", "b2"), ("a3", "b3"), ("a1", "b3")]))
    c6_oracle = fp.is_cm_oracle(fp.SquarefreeIdeal(
        ("a1", "a2", "a3", "b1", "b2", "b3"),
        [frozenset(e) for e in c6.edges]))
    assert fp.herzog_hibi_bipartite_cm(c6).value == c6_oracle == False  # noqa: E712
    unequal = fp.BipartiteLayer(("a1", "a2"), ("b1",),
                                frozenset([("a1", "b1")]))
    assert not fp.herzog_hibi_bipartite_cm(unequal).value


def test_herzog_hibi_certificate_order():
    staircase = fp.BipartiteLayer(
        ("a1", "a2"), ("b1", "b2"),
        frozenset([("a1", "b1"), ("a1", "b2"), ("a2", "b2")]))
    v = fp.herzog_hibi_bipartite_cm(staircase)
    assert v.value
    pairs = v.certificate["pairs"]
    index = {a: i for i, (a, _) in enumerate(pairs)}
    top_index = {b: i for i, (_, b) in enumerate(pairs)}
    for a, b in staircase.edges:
        assert index[a] <= top_index[b]


def test_structural_equals_oracle_smoke(corpus_b):
    for g in corpus_b[:25]:
        ideal = fp.flag_ideal(g)
        assert fp.check_unmixed_structural(g).value \
            == fp.is_unmixed_bruteforce(g)
        assert fp.check_cm_structural(g).value == fp.is_cm_oracle(ideal)
        assert fp.has_linear_resolution_structural(g).value \
            == fp.has_linear_resolution_oracle(ideal)


def test_monotone_rank_selection_implications(corpus_b):
    # unmixedness and Cohen-Macaulayness pass to contiguous windows,
    # and to arbitrary nonempty windows of pure posets
    checked = 0
    for g in corpus_b[:80]:
        unmixed = fp.check_unmixed_structural(g).value
        cm = fp.check_cm_structural(g).value
        if not unmixed:
            continue
        r = g.rbar()
        contiguous = [frozenset(range(i, j + 1))
                      for i in range(1, r + 1) for j in range(i, r + 1)]
        windows = set(contiguous)
        if g.is_pure():
            windows.update(frozenset(s)
                           for k in range(1, r + 1)
                           for s in itertools.combinations(range(1, r + 1), k))
        for window in sorted(windows, key=sorted):
            sub = fp.rank_selection(g, window)
            assert fp.check_unmixed_structural(sub).value
            if cm and (window in contiguous or g.is_pure()):
                assert fp.check_cm_structural(sub).value
        checked += 1
    assert checked >= 5


def test_monotone_rank_selection_on_pure_grids():
    # arbitrary rank subsets of the bi-CM grids stay Cohen-Macaulay
    g = fp.hom_rt_poset(3, 3)
    for window in ({1, 3}, {2}, {1, 2}, {3}):
        sub = fp.rank_selection(g, window)
        assert fp.check_cm_structural(sub).value
        assert fp.is_cm_oracle(fp.flag_ideal(sub))


def test_cm_implies_unmixed(corpus_b):
    for g in corpus_b:
        if fp.check_cm_structural(g).value:
            assert fp.check_unmixed_structural(g).value


def test_classification_report_fields():
    report = fp.classification_report(fp.pentagon())
    assert report["graded"] is False
    assert report["unmixed"] is None and report["cm"] is None
    report = fp.classification_report(fp.example_3_4())
    assert report["graded"] and report["pure"] and report["connected"]
    assert report["unmixed"] == {"structural": False, "oracle": False}
    assert [layer["unmixed"] for layer in report["layers"]] == [True, True]
    report = fp.classification_report(fp.example_4_9())
    assert report["generators"] == 17
    assert report["cm"] == {"structural": True, "oracle": True}
    assert report["bi_cm"] is False
    import json
    json.dumps(report)  # fully serializable


def test_classification_report_runs_each_structural_check_once(monkeypatch):
    from flagposet import characterize
    calls = []
    for name in ("check_cm_structural", "has_linear_resolution_structural"):
        def counted(*args, _fn=getattr(characterize, name), _name=name):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(characterize, name, counted)
    for g in (fp.hom_rt_poset(2, 3), fp.example_4_9(), fp.example_3_4()):
        calls.clear()
        report = fp.classification_report(g)
        assert sorted(calls) == ["check_cm_structural",
                                 "has_linear_resolution_structural"]
        bi = fp.is_bi_cm(g)
        assert report["bi_cm"] == bi.value
        assert report["certificates"]["bi_cm"] \
            == characterize.jsonable(bi.certificate)
        assert report["witnesses"]["bi_cm"] == characterize.jsonable(bi.witness)


def test_classification_report_checks_size_budgets_first(monkeypatch):
    # each size budget stops the report before the other oracle's
    # exponential work starts: hom(4, 5) has 20 > 18 Betti variables,
    # and hom(4, 4) has 16 > 10 elements for the transversals
    from flagposet import covers, homology

    def refuse(*args, **kwargs):
        raise AssertionError("exponential work started before a budget")
    monkeypatch.setattr(covers, "is_unmixed_bruteforce", refuse)
    with pytest.raises(BudgetExceeded,
                       match="Betti table limited to 18 variables"):
        fp.classification_report(fp.hom_rt_poset(4, 5))
    monkeypatch.undo()
    monkeypatch.setattr(homology, "oracle_verdicts", refuse)
    with pytest.raises(BudgetExceeded,
                       match="transversal enumeration limited to 10 vertices"):
        fp.classification_report(fp.hom_rt_poset(4, 4),
                                 budgets={"cover_enum": 10})
