import itertools
import json
import math

import pytest

import flagposet as fp
from flagposet.errors import (
    InvalidCertificate,
    InvalidParameter,
    NotAVPoset,
    NotEquigenerated,
    UnknownVariable,
)

from conftest import corpus_poset


def ideal(vars_, gens):
    return fp.SquarefreeIdeal(vars_, [frozenset(g) for g in gens])


def test_constructor_validates():
    with pytest.raises(InvalidParameter):
        ideal("xy", [("x", "y"), ("x",)])  # not an antichain
    with pytest.raises(InvalidParameter):
        ideal("xy", [()])
    with pytest.raises(UnknownVariable):
        ideal("xy", [("z",)])
    # a comparable pair is rejected across size classes and in any
    # input order; equal-size generators are never comparable
    with pytest.raises(InvalidParameter):
        ideal("wxyz", [("w", "x", "y"), ("y", "z"), ("x", "y", "z"),
                       ("w", "x", "y", "z")])
    with pytest.raises(InvalidParameter):
        ideal("wxyz", [("w", "z"), ("x", "y", "z"), ("x",), ("y", "z")])
    assert len(ideal("wxyz", [("w", "x"), ("x", "y"), ("w", "y", "z"),
                              ("x", "z")]).generators) == 4
    # from_generators minimalizes instead
    i = fp.SquarefreeIdeal.from_generators("xyz", [("x", "y"), ("x",)])
    assert i.generators == (frozenset({"x"}),)


def test_flag_ideal_counts():
    assert len(fp.flag_ideal(fp.chain(5)).generators) == 1
    assert len(fp.flag_ideal(fp.chain(5)).generators[0]) == 5
    assert len(fp.flag_ideal(fp.antichain(6)).generators) == 6
    assert len(fp.flag_ideal(fp.example_4_9()).generators) == 17


def test_alexander_dual_basics():
    i = ideal("abc", [("a", "b", "c")])
    assert set(fp.alexander_dual(i).generators) == {frozenset({v})
                                                    for v in "abc"}
    flag = fp.flag_ideal(fp.example_3_4())
    assert fp.alexander_dual(fp.alexander_dual(flag)) == flag
    degrees = sorted(len(g) for g in fp.alexander_dual(flag).generators)
    assert degrees.count(4) == 1 and set(degrees) == {3, 4}


def test_alexander_dual_involution_on_corpus():
    for seed in range(200):
        flag = fp.flag_ideal(corpus_poset(seed))
        assert fp.alexander_dual(fp.alexander_dual(flag)) == flag


def test_weakly_polymatroidal():
    single = ideal("ab", [("a", "b")])
    assert fp.is_weakly_polymatroidal(single, ("a", "b"))
    counter = ideal("wxyz", [("w", "z"), ("x", "y")])
    assert not fp.is_weakly_polymatroidal(counter, ("w", "x", "y", "z"))
    mixed = fp.SquarefreeIdeal("abc", [frozenset("a"), frozenset("bc")])
    with pytest.raises(NotEquigenerated):
        fp.is_weakly_polymatroidal(mixed, ("a", "b", "c"))
    with pytest.raises(InvalidParameter):
        fp.is_weakly_polymatroidal(single, ("a",))


def test_weakly_polymatroidal_cm_dual_preset():
    g = fp.example_4_9()
    cert = fp.check_cm_structural(g).certificate
    dual = fp.alexander_dual(fp.flag_ideal(g))
    order = fp.dual_variable_order(cert)
    assert fp.is_weakly_polymatroidal(dual, order)


def test_linear_quotients():
    # Kokubo-Hibi order: decreasing lex in the given variable order
    three = ideal("abcd", [("a", "b"), ("a", "c"), ("b", "d")])
    assert fp.has_linear_quotients(three, "abcd")  # ab > ac > bd
    assert not fp.has_linear_quotients(three, "cdab")  # ac > bd > ab
    pair = ideal("abcd", [("a", "b"), ("c", "d")])
    assert not any(fp.has_linear_quotients(pair, order)
                   for order in itertools.permutations("abcd"))
    assert fp.has_linear_quotients(ideal("ab", [("a", "b")]), "ba")
    mixed = fp.SquarefreeIdeal("abc", [frozenset("a"), frozenset("bc")])
    with pytest.raises(NotEquigenerated):
        fp.has_linear_quotients(mixed, "abc")
    with pytest.raises(InvalidParameter):
        fp.has_linear_quotients(three, "abc")
    with pytest.raises(InvalidParameter):
        fp.has_linear_quotients(three, "abcc")


def test_weakly_polymatroidal_implies_linear_quotients(corpus_b):
    # checked, not assumed: every CM dual here is weakly polymatroidal
    # under its dual order, and has linear quotients in that order
    grids = [fp.hom_rt_poset(r, t) for r in range(1, 17)
             for t in range(1, 16 // r + 1)]
    checked = 0
    for g in corpus_b + [fp.example_4_9()] + grids:
        verdict = fp.check_cm_structural(g)
        if not verdict.value:
            continue
        dual = fp.alexander_dual(fp.flag_ideal(g))
        order = fp.dual_variable_order(verdict.certificate)
        assert fp.is_weakly_polymatroidal(dual, order)
        assert fp.has_linear_quotients(dual, order)
        checked += 1
    assert checked == 21 + 1 + len(grids) == 72


def test_letterplace_generators():
    q = fp.chain(3).poset
    l1 = fp.letterplace_generators(1, q)
    assert all(len(g) == 1 for g in l1.generators)
    assert len(l1.generators) == 3
    l23 = fp.letterplace_generators(2, q)
    assert len(l23.generators) == 6  # multichains q1 <= q2 in a 3-chain
    for r in (1, 2, 3):
        for t in (1, 2, 3):
            lp = fp.letterplace_generators(r, fp.chain(t))
            assert len(lp.generators) == math.comb(t + r - 1, r)
            hom = fp.flag_ideal(fp.hom_rt_poset(r, t))
            rename = {f"x{i}_c{j}": f"a{i}_{j}"
                      for i in range(1, r + 1) for j in range(1, t + 1)}
            renamed = {frozenset(rename[v] for v in g) for g in lp.generators}
            assert renamed == set(hom.generators)


def test_v_coletterplace_generators():
    with pytest.raises(NotAVPoset):
        fp.v_coletterplace_generators(fp.chain(3), 2)
    with pytest.raises(NotAVPoset):
        fp.v_coletterplace_generators(
            fp.Poset("abc", [("a", "c"), ("b", "c")]), 2)
    q = fp.v_poset(1, 1)
    gens = fp.v_coletterplace_generators(q, 2)
    # isotone maps from the V poset on {a < b1, a < c1} to [2]
    maps = [phi for phi in itertools.product((1, 2), repeat=3)
            if phi[0] <= phi[1] and phi[0] <= phi[2]]
    assert len(gens.generators) == len(maps)
    # and they agree with the maximal chains of the matching poset
    flag = fp.flag_ideal(fp.v_coletterplace_poset(1, 1, 2))
    rename = {f"x{e}_{i}": f"{e}_{i}"
              for e in ("a", "b1", "c1") for i in (1, 2)}
    assert {frozenset(rename[v] for v in g) for g in gens.generators} \
        == set(flag.generators)


def test_filtrations_trivial_and_hom():
    anti = fp.antichain(3)
    cert = fp.check_cm_structural(anti).certificate
    filts = fp.filtrations(cert)
    assert len(filts) == 1
    assert fp.filtration_to_monomial(filts[0], cert) \
        == frozenset(anti.elements)
    hom = fp.hom_rt_poset(2, 2)
    cert = fp.check_cm_structural(hom).certificate
    filts = fp.filtrations(cert)
    assert len(filts) == 3
    covers = set(fp.minimal_vertex_covers(hom))
    assert {fp.filtration_to_monomial(f, cert) for f in filts} == covers


def test_filtrations_match_covers_on_4_9():
    g = fp.example_4_9()
    cert = fp.check_cm_structural(g).certificate
    filts = fp.filtrations(cert)
    covers = set(fp.minimal_vertex_covers(g))
    assert len(filts) == len(covers)
    assert {fp.filtration_to_monomial(f, cert) for f in filts} == covers


def test_filtrations_reject_bad_certificate():
    g = fp.example_3_4()

    class Fake:
        graded = g
        chains = (("a1", "a2"),)  # does not cover, does not end maximal

    with pytest.raises(InvalidCertificate):
        fp.filtrations(Fake())
    with pytest.raises(InvalidCertificate):
        fp.filtrations(object())


def test_json_round_trip():
    i = fp.flag_ideal(fp.example_3_4())
    again = fp.SquarefreeIdeal.from_json(i.to_json())
    assert again == i
    data = json.loads(i.to_json())
    assert set(data) == {"variables", "generators"}
    assert all(g == sorted(g) for g in data["generators"])
