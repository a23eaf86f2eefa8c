import itertools

import pytest

import flagposet as fp
from flagposet.errors import BudgetExceeded, InvalidCertificate, InvalidParameter

from conftest import (
    census,
    corpus_poset,
    generated_chain_posets,
    impure_chain_posets,
    structural_grids_posets,
    sweep_layer,
    sweep_poset,
)


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
    twok2 = fp.GradedPoset(fp.bipartite_poset(
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
    k22 = fp.GradedPoset(fp.bipartite_poset(
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
    g = fp.GradedPoset(fp.Poset(
        ["a1", "a2", "a3", "b1", "b2", "b3", "c1", "c2", "c3"],
        layer1 + layer2))
    witness = {"condition": 2, "layer": bad_layer}
    assert fp.check_unmixed_structural(g).witness == witness
    assert fp.check_cm_structural(g).witness == witness


def test_cm_certificate_reorders_chains_of_a_rank3_poset():
    # the cover a2 < b1 runs from the chain of a2 into the chain of a1,
    # so the labeling puts the chain of a2 first
    g = fp.GradedPoset(fp.Poset(
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


def _saturated_chains(g, start, steps, up, target=None):
    """Reference walker: saturated chains with ``steps`` covers from
    ``start``, up along children or down along parents, each listed
    bottom to top.  With a ``target`` the walk keeps to elements <= it
    and ends there."""
    step = g.poset.children if up else g.poset.parents
    paths = [(start,)]
    for _ in range(steps):
        paths = [c + (x,) for c in paths for x in step(c[-1])
                 if target is None or g.poset.leq(x, target)]
    if target is not None:
        paths = [c for c in paths if c[-1] == target]
    return paths if up else [c[::-1] for c in paths]


def _recombines(g, start, c1, c2, end, span):
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


def _condition3(g, chains, weak):
    """Reference: every pair of chains, in enumeration order."""
    for chain in chains:
        for i in range(1, len(chain) + 1):
            for j in range(i + 1, len(chain) + 1):
                down = _saturated_chains(g, chain[j - 1], j - i, up=False)
                up = _saturated_chains(g, chain[i - 1], j - i, up=True)
                for c1 in down:
                    for c2 in up:
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


def _condition4(g, chains, weak):
    """Reference: every pair of chains, in enumeration order."""
    maxes_by_rank = {}
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


def _decomposition(g):
    """The first chain decomposition, as element positions, or None."""
    from flagposet import characterize
    return characterize._first_decomposition(
        g, characterize._maximal_mask(g.poset))


def _named(g, chains):
    return [tuple(g.elements[x] for x in c) for c in chains]


def _reference_chain_conditions(g):
    chains, bad = _decomposition(g)
    if chains is None:
        return None, {"condition": 2, "layer": bad}
    for number, condition in ((3, _condition3), (4, _condition4)):
        ok, wit = condition(g, _named(g, chains), weak=False)
        if not ok:
            return None, {"condition": number, **wit}
    return chains, None


def _reference_weak_conditions(g):
    chains, _ = _decomposition(g)
    if chains is None:
        return True, True
    return (_condition3(g, _named(g, chains), weak=True)[0],
            _condition4(g, _named(g, chains), weak=True)[0])


def _structural_json(g):
    from flagposet.characterize import jsonable
    return [jsonable(fp.check_unmixed_structural(g)),
            jsonable(fp.check_cm_structural(g)),
            list(fp.check_weak_conditions(g))]


@pytest.mark.parametrize("pool, failing", [
    ("sweep", {3: 210}), ("corpus", {3: 5}), ("grids", {}),
    ("generated", {3: 48, 4: 7})])
def test_chain_conditions_equal_pair_enumeration(monkeypatch, corpus_b,
                                                 pool, failing):
    # the automaton gives the verdicts and the first failing pair of the
    # enumeration that lists every pair of saturated chains
    from flagposet import characterize
    posets = {
        "sweep": lambda: [sweep_poset(bits, iso) for iso in (False, True)
                          for bits in range(512)],
        "corpus": lambda: corpus_b,
        "grids": lambda: structural_grids_posets(1)[::7],
        "generated": lambda: generated_chain_posets(200),
    }[pool]()
    got = [_structural_json(g) for g in posets]
    memo = {}  # the unmixed and CM checks share one reference run

    def reference(g):
        if id(g) not in memo:
            memo[id(g)] = _reference_chain_conditions(g)
        return memo[id(g)]

    monkeypatch.setattr(characterize, "_chain_conditions", reference)
    reference = [_structural_json(g)[:2] + [list(_reference_weak_conditions(g))]
                 for g in posets]
    assert got == reference
    counts = {}
    for unmixed, _, _ in got:
        if unmixed["witness"] and unmixed["witness"]["condition"] > 2:
            cond = unmixed["witness"]["condition"]
            counts[cond] = counts.get(cond, 0) + 1
    assert counts == failing


@pytest.mark.parametrize("pool, failing, weak", [
    ("census", {3: 105}, {(True, True): 1418, (False, True): 105}),
    ("impure", {3: 278, 4: 30},
     {(True, True): 492, (False, False): 176, (False, True): 102,
      (True, False): 30})])
def test_sweep_equals_instances(pool, failing, weak):
    # one sweep per chain fails exactly when one of the chain's instances
    # of condition 3 or 4 has a failing pair
    from flagposet import characterize
    posets = {
        "census": lambda: [g for n in range(1, 7) for g, _ in census(n)],
        "impure": lambda: impure_chain_posets(800),
    }[pool]()
    counts, outcomes = {}, {}
    for g in posets:
        chains, _ = _decomposition(g)
        maxes = characterize._maximal_mask(g.poset)
        for chain in chains or ():
            assert characterize._sweep_fails(g, chain, maxes) == any(
                characterize._failing_pair(g, *case[2:])
                for case in characterize._cases(g, [chain]))
        cond = (fp.check_unmixed_structural(g).witness or {}).get("condition")
        if cond in (3, 4):
            counts[cond] = counts.get(cond, 0) + 1
        key = fp.check_weak_conditions(g)
        outcomes[key] = outcomes.get(key, 0) + 1
    assert counts == failing
    assert outcomes == weak


class WitnessSearched(Exception):
    pass


def _five_checks(g):
    return (fp.check_unmixed_structural(g), fp.check_cm_structural(g),
            fp.has_linear_resolution_structural(g),
            fp.check_weak_conditions(g), fp.is_bi_cm(g))


def test_witness_automaton_runs_only_on_a_failure(monkeypatch):
    from flagposet import characterize
    failing = {}
    for g in generated_chain_posets(200):
        witness = fp.check_unmixed_structural(g).witness or {}
        failing.setdefault(witness.get("condition"), g)

    def searched(*args):
        raise WitnessSearched

    monkeypatch.setattr(characterize, "_failing_pair", searched)
    grids = ([fp.hom_rt_poset(r, t) for r in range(1, 9)
              for t in range(1, 9)] + [fp.hom_rt_poset(12, 12)])
    for g in structural_grids_posets(1)[::7] + grids + [fp.example_4_9()]:
        unmixed, cm, linear, weak, bi = _five_checks(g)
        assert unmixed.value and cm.value and weak == (True, True)
        if g in grids:
            assert linear.value and bi.value
    for cond in (3, 4):
        with pytest.raises(WitnessSearched):
            fp.check_unmixed_structural(failing[cond])


def test_sweep_instance_disagreement_is_an_internal_error(monkeypatch):
    from flagposet import characterize
    g, witness = next((g, w) for g in generated_chain_posets(200)
                      for w in [fp.check_unmixed_structural(g).witness]
                      if w and w["condition"] == 3)
    monkeypatch.setattr(characterize, "_failing_pair", lambda *args: None)
    with pytest.raises(RuntimeError, match="internal disagreement") as err:
        fp.check_unmixed_structural(g)
    assert str(tuple(witness["through"])) in str(err.value)


def test_grids_pass_the_chain_conditions_at_default_budgets():
    v = fp.is_bi_cm(fp.hom_rt_poset(8, 8))
    assert v.value and v.certificate["hom_parameters"] == (8, 8)
    assert fp.check_cm_structural(fp.hom_rt_poset(10, 10)).value


def test_chain_decomposition_validation():
    g = fp.example_3_4()
    with pytest.raises(InvalidCertificate):
        fp.ChainDecomposition(g, (("a1", "a2"),))
    with pytest.raises(InvalidCertificate):
        fp.ChainDecomposition(g, (("a1", "a3"),))
    # every branch, on the grid a1_1 < a2_1, a2_2 and a1_2 < a2_2
    g = fp.hom_rt_poset(2, 2)
    fp.ChainDecomposition(g, (("a1_1", "a2_1"), ("a1_2", "a2_2")))
    for chains, message in [
            (((),), "empty chain"),
            ((("a2_1",),), "chain must start at rank 1: ('a2_1',)"),
            ((("a1_1",),), "chain must end at a maximal element: ('a1_1',)"),
            ((("a1_2", "a2_1"), ("a1_1", "a2_2")),
             "not saturated: a1_2 < a2_1"),
            ((("a1_1", "a2_2"), ("a1_2", "a2_2")), "chains overlap at a2_2"),
            ((("a1_1", "a2_1"),), "chains must cover the poset"),
            ((("zz",),), "chain holds an unknown element: zz"),
            ((("a1_1", "zz"),), "chain holds an unknown element: zz")]:
        with pytest.raises(InvalidCertificate) as err:
            fp.ChainDecomposition(g, chains)
        assert str(err.value) == message


def test_certificate_readers_reject_unknown_elements():
    # the readers validate what they are given through ChainDecomposition
    from types import SimpleNamespace
    g = fp.hom_rt_poset(2, 2)
    good = fp.check_cm_structural(g).certificate
    filt = fp.filtrations(good)[0]
    for chains in ((("zz",),), (("a1_1", "zz"),)):
        cert = SimpleNamespace(graded=g, chains=chains)
        for read in (fp.filtrations, fp.dual_variable_order,
                     lambda c: fp.filtration_to_monomial(filt, c)):
            with pytest.raises(InvalidCertificate,
                               match="unknown element: zz"):
                read(cert)


# sha256 over the sort_keys JSON of the unmixed, CM, linear-resolution
# and bi-CM verdicts and the weak conditions of each poset below, one
# line each; a change to a value, certificate or witness changes it
STRUCTURAL_DIGEST = (
    "66463162cb73175fa11ef69595db74512c30708055e6f764ca29b1c577c7b119")


def test_structural_verdicts_are_pinned():
    import hashlib
    import json
    from flagposet.characterize import _layer_ferrers, jsonable
    pool = (structural_grids_posets(1) + structural_grids_posets(2)
            + [g for n in range(1, 7) for g, _ in census(n)]
            + [fp.hom_rt_poset(r, t) for r in range(1, 9)
               for t in range(1, 9)])
    h = hashlib.sha256()
    counts = {}
    for g in pool:
        row = [jsonable(fp.check_unmixed_structural(g)),
               jsonable(fp.check_cm_structural(g)),
               jsonable(fp.has_linear_resolution_structural(g)),
               jsonable(fp.is_bi_cm(g)),
               list(fp.check_weak_conditions(g))]
        h.update(json.dumps(row, sort_keys=True).encode())
        h.update(b"\n")
        # the Ferrers core on child masks against the independent
        # induced-2K2 search on the named layer; a maximal element below
        # the top rank is an isolated vertex
        for i in range(1, g.rbar()):
            layer = fp.layer_pair(g, i)
            value = _layer_ferrers(g, i).value
            isolated = len({a for a, _ in layer.edges}) < len(layer.bottom)
            assert value == (not isolated and fp.has_2k2(layer) is None)
            counts[value, isolated] = counts.get((value, isolated), 0) + 1
    assert h.hexdigest() == STRUCTURAL_DIGEST
    assert len(pool) == 5499
    assert counts == {(True, False): 2717, (False, False): 6928,
                      (False, True): 892}


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
    union = fp.GradedPoset(fp.Poset(
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
    two_chains = fp.GradedPoset(fp.Poset(
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


# sha256 over the sort_keys JSON of the reports of corpus posets 0-39,
# one line each; a change to a verdict, witness, certificate or count
# in any of them changes it
REPORT_DIGEST_40 = (
    "9cad2d31be264dc5bccccb9cb8be6e6162c47bf76e878cd9040270ff7fea86d5")


def test_classification_reports_are_pinned(corpus_b):
    import hashlib
    import json
    h = hashlib.sha256()
    for g in corpus_b[:40]:
        h.update(json.dumps(fp.classification_report(g),
                            sort_keys=True).encode())
        h.update(b"\n")
    assert h.hexdigest() == REPORT_DIGEST_40


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


def test_classification_report_rejects_unknown_budgets():
    # a budget the report does not read would otherwise be ignored
    g = fp.example_3_4()
    for budgets in ({"chain_pairs": 5}, {"cover_enum": 50, "iso": 1}):
        with pytest.raises(InvalidParameter, match="unknown budgets"):
            fp.classification_report(g, budgets=budgets)
    assert (fp.classification_report(g, budgets={"cover_enum": 50,
                                                 "betti_vars": 50})
            == fp.classification_report(g))
