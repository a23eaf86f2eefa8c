import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flagposet as fp
from flagposet.errors import BudgetExceeded, InvalidParameter, VariableClash
from flagposet.fields import GF, GF2, QQ, LaurentPoly, poly_from_dims
from conftest import (RP2_FACETS, census, downward_closure,
                      generated_chain_posets, impure_chain_posets,
                      rp2_flag_poset, sweep_poset)

t = LaurentPoly.t_power
FIELDS = [GF2, GF(32003), QQ]
TABLE_FIELDS = [GF2, GF(3), GF(32003), QQ]


def cohomology(nonfaces, mask, f=GF2):
    """H(X, t) of the complex on ``mask`` whose nonfaces are ``nonfaces``."""
    faces = fp.kernel.faces_from_nonfaces(nonfaces, mask)
    return poly_from_dims(fp.kernel.cohomology_dims(faces, f.p or 0))


@pytest.mark.parametrize("f", FIELDS)
def test_cohomology_conventions(f):
    pair = fp.SquarefreeIdeal("ab", [frozenset("ab")])
    # A = {} restricts to {empty face}; no generator inside A to a simplex
    assert fp.restriction_cohomology_poly(pair, (), f) == t(-1)
    assert fp.restriction_cohomology_poly(pair, "a", f) == LaurentPoly.zero()
    assert fp.restriction_cohomology_poly(pair, "ab", f) == t(0)
    hollow = fp.SquarefreeIdeal("abc", [frozenset("abc")])
    assert fp.restriction_cohomology_poly(hollow, "abc", f) == t(1)
    assert fp.restriction_cohomology_poly(hollow, "ab", f) \
        == LaurentPoly.zero()
    four = fp.SquarefreeIdeal("wxyz", [frozenset("wy"), frozenset("xz")])
    assert fp.restriction_cohomology_poly(four, "wxyz", f) == t(1)


def test_projective_plane_detects_characteristic():
    # minimal 6-vertex triangulation; homology differs between GF(2)
    # and the rationals, so the exact linear algebra is really exact
    facets = [sum(1 << int(v) - 1 for v in f) for f in RP2_FACETS]
    faces = downward_closure(facets, 6)

    def rp2(f):
        return poly_from_dims(fp.kernel.cohomology_dims(faces, f.p or 0))

    assert rp2(GF2) == LaurentPoly({1: 1, 2: 1})
    assert rp2(QQ) == LaurentPoly.zero()
    assert rp2(GF(32003)) == LaurentPoly.zero()


FIVE = 0b11111


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=FIVE), max_size=6),
       st.lists(st.integers(min_value=0, max_value=FIVE), max_size=6))
def test_join_formula(x_nonfaces, y_nonfaces):
    # X on vertices 0..4 and Y on 5..9; X * Y is the complex on all ten
    # whose nonfaces are both lists
    y_nonfaces = [n << 5 for n in y_nonfaces]
    for f in (GF2, GF(32003)):
        x = cohomology(x_nonfaces, FIVE, f)
        y = cohomology(y_nonfaces, FIVE << 5, f)
        assert cohomology(x_nonfaces + y_nonfaces, FIVE | FIVE << 5, f) \
            == t(1) * x * y


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=FIVE), max_size=6))
def test_suspension_formula(x_nonfaces):
    # the suspension of X on vertices 0..4 is its join with the two points
    # s0 = 5, s1 = 6, i.e. the complex with the extra nonface {s0, s1}
    for f in (GF2, GF(32003)):
        assert cohomology(x_nonfaces + [0b1100000], FIVE | 0b1100000, f) \
            == t(1) * cohomology(x_nonfaces, FIVE, f)


def test_layer_suspension_relation(corpus_b):
    # the independence complex of a layer is the suspension of its
    # Y-complex, the complex on the top side whose facets are top - N(a)
    # over the bottom vertices a, at the level of cohomology polynomials
    # (nonempty top side)
    checked = 0
    for g in corpus_b[:60]:
        for i in range(1, g.rbar()):
            layer = fp.layer_pair(g, i, trim=True)
            if not layer.top:
                continue
            bit = {v: 1 << k
                   for k, v in enumerate(layer.bottom + layer.top)}
            top = sum(bit[v] for v in layer.top)
            edges = [bit[a] | bit[b] for a, b in layer.edges]
            lhs = cohomology(edges, top | sum(bit[v] for v in layer.bottom))
            facets = [top & ~sum(bit[b] for b in layer.neighbors_bottom(a))
                      for a in layer.bottom]
            faces = downward_closure(facets, top.bit_length())
            y = fp.kernel.cohomology_dims(faces, 2)
            assert lhs == t(1) * poly_from_dims(y)
            checked += 1
    assert checked > 50


def test_betti_multidegree():
    g = fp.example_3_4()
    ideal = fp.flag_ideal(g)
    support = ("a1", "a2", "a3")
    assert fp.betti_multidegree(ideal, support) == [1, 0, 0]
    twok2 = fp.SquarefreeIdeal(("x1", "y1", "x2", "y2"),
                               [frozenset({"x1", "y1"}),
                                frozenset({"x2", "y2"})])
    assert fp.betti_multidegree(twok2, ("x1", "y1", "x2", "y2")) \
        == [0, 1, 0, 0]
    assert fp.betti_multidegree(ideal, ("a1", "b1")) == [0, 0]
    with pytest.raises(BudgetExceeded):
        fp.betti_multidegree(ideal, g.elements, budget=4)


def test_betti_polynomials():
    g = fp.hom_rt_poset(3, 2)
    chain = ("a1_1", "a2_1", "a3_1")
    assert fp.betti_polynomial_fast(g, chain) == t(3)
    assert fp.betti_polynomial_bruteforce(fp.flag_ideal(g), chain) == t(3)
    gap = fp.betti_polynomial_fast(g, ("a1_1", "a3_1"))
    assert gap.is_zero()
    two = fp.GradedPoset(fp.bipartite_poset(
        ("p1", "p2"), ("q1", "q2"), [("p1", "q1"), ("p2", "q2")]))
    assert fp.betti_polynomial_fast(two, ("p1", "p2", "q1", "q2")) == t(3)


def test_lcm_lattice_order(corpus_b):
    # by size, then by the sorted list of variable indices
    for g in corpus_b[::5]:
        ideal = fp.flag_ideal(g)
        index = {v: i for i, v in enumerate(ideal.variables)}
        lattice = fp.lcm_lattice(ideal)
        assert lattice == sorted(
            set(lattice), key=lambda a: (len(a), sorted(index[v] for v in a)))
        unions = {frozenset().union(*c) for k in range(1, 4)
                  for c in itertools.combinations(ideal.generators, k)}
        assert unions <= set(lattice)
        assert all(frozenset().union(*(gen for gen in ideal.generators
                                       if gen <= a)) == a for a in lattice)


@pytest.mark.parametrize("f", [GF2, GF(3), QQ], ids=str)
def test_graded_betti_table_equals_hochster_table(corpus_b, f):
    # the layer product on every lcm-lattice multidegree against the
    # excised Hochster table, entry for entry, on corpus members, on
    # impure posets (maximal elements on three ranks or more) and on a
    # poset whose rank-1 element m is maximal; the entries come in
    # lcm_lattice order
    pool = [g for g in corpus_b[::10] if len(g) <= 10]
    assert len(pool) >= 12
    impure = [g for g in impure_chain_posets(40) if len(g) <= 10][:10]
    assert len(impure) == 10
    pool += impure
    pool.append(fp.example_4_9())
    pool.append(fp.GradedPoset(fp.Poset(
        ["m", "p1", "p2", "q1", "q2", "r"],
        [("p1", "q1"), ("p2", "q1"), ("p2", "q2"), ("q1", "r")])))
    for g in pool:
        ideal = fp.flag_ideal(g)
        table = fp.graded_betti_table(g, f)
        assert table.entries == fp.full_betti_table(ideal, f).entries, g
        order = list(dict.fromkeys(a for _, a in table.entries))
        assert order == [a for a in fp.lcm_lattice(ideal) if a in order], g


def test_betti_polynomial_empty_multidegree():
    g = fp.example_3_4()
    assert fp.betti_polynomial_fast(g, ()) == t(1)
    assert fp.betti_polynomial_bruteforce(fp.flag_ideal(g), ()) == t(1)


def test_full_betti_table():
    single = fp.SquarefreeIdeal("abc", [frozenset("abc")])
    table = fp.full_betti_table(single)
    assert table.entries == {(0, frozenset("abc")): 1}
    k22 = fp.SquarefreeIdeal(("x1", "x2", "y1", "y2"),
                             [frozenset({a, b}) for a in ("x1", "x2")
                              for b in ("y1", "y2")])
    assert fp.full_betti_table(k22).total() == {0: 4, 1: 4, 2: 1}
    # the lcm lattice comes by size, then by sorted variable index
    assert fp.lcm_lattice(k22) == [frozenset(a.split()) for a in (
        "x1 y1", "x1 y2", "x2 y1", "x2 y2", "x1 x2 y1", "x1 x2 y2",
        "x1 y1 y2", "x2 y1 y2", "x1 x2 y1 y2")]
    # beta_0 rows are exactly the generator supports
    flag = fp.flag_ideal(fp.example_3_4())
    table = fp.full_betti_table(flag)
    assert {a for (j, a) in table.entries if j == 0} \
        == set(flag.generators)
    # an entry off the first linear strand exists
    s = fp.example_3_4().runder()
    assert any(len(a) != j + s for j, a in table.entries)
    with pytest.raises(BudgetExceeded):
        fp.full_betti_table(flag, budget=5)


def _brute_vector(ideal, a, f):
    """The literal Hochster reference, as a betti_multidegree vector."""
    poly = fp.betti_polynomial_bruteforce(ideal, a, f)
    return [poly.coefficient(len(a) - j) for j in range(len(a))]


def _assert_excised_route(ideal, multidegrees, f):
    table = fp.full_betti_table(ideal, f)
    lattice = set(fp.lcm_lattice(ideal))
    nonzero = 0
    for a in multidegrees:
        a = frozenset(a)
        vec = fp.betti_multidegree(ideal, a, f)
        assert vec == _brute_vector(ideal, a, f), (ideal.generators, a, f)
        if a in lattice:
            assert vec == [table.entries.get((j, a), 0)
                           for j in range(len(a))], (a, f)
        else:
            assert not any(vec), (a, f)
        nonzero += any(vec)
    assert {a for _, a in table.entries} <= lattice
    return nonzero


@pytest.mark.parametrize("f", TABLE_FIELDS, ids=str)
def test_excised_route_matches_bruteforce_on_corpus(corpus_b, f):
    nonzero = 0
    for g in corpus_b[::4]:
        if len(g) <= 10:
            ideal = fp.flag_ideal(g)
            nonzero += _assert_excised_route(ideal, fp.lcm_lattice(ideal), f)
    assert nonzero > 1000


@pytest.mark.parametrize("f", TABLE_FIELDS, ids=str)
def test_excised_route_on_every_subset(corpus_b, f):
    # all subsets of small posets: A = {}, cones over a vertex in no
    # generator inside A, and the lcm-lattice multidegrees
    small = [g for g in corpus_b if len(g) <= 7][:6]
    assert len(small) == 6
    for g in small:
        ideal = fp.flag_ideal(g)
        subsets = [a for k in range(len(g) + 1)
                   for a in itertools.combinations(g.elements, k)]
        _assert_excised_route(ideal, subsets, f)


@pytest.mark.parametrize("f", TABLE_FIELDS, ids=str)
def test_excised_route_with_singleton_generators(f):
    # isolated elements of the sweep are maximal chains of length one:
    # the excised vertex may be a whole generator, and then the pair
    # keeps the empty face
    checked = 0
    for bits in range(0, 512, 37):
        g = sweep_poset(bits, include_isolated=True)
        ideal = fp.flag_ideal(g)
        if any(len(gen) == 1 for gen in ideal.generators):
            subsets = [a for k in range(len(g) + 1)
                       for a in itertools.combinations(g.elements, k)]
            _assert_excised_route(ideal, subsets, f)
            checked += 1
    assert checked >= 5


def _mixed_degree_ideals(count):
    """Seeded squarefree ideals on 5-7 variables with generators of
    degree 1-4, minimalized."""
    rng = random.Random(20261019)
    out = []
    while len(out) < count:
        variables = [f"x{i}" for i in range(1, rng.randint(5, 7) + 1)]
        gens = [rng.sample(variables, rng.choice((1, 2, 2, 3, 3, 4)))
                for _ in range(rng.randint(3, 10))]
        out.append(fp.SquarefreeIdeal.from_generators(variables, gens))
    return out


@pytest.mark.parametrize("f", TABLE_FIELDS, ids=str)
def test_excised_route_on_mixed_degree_ideals(f):
    # the colon step meets degree-1, empty and non-minimal nonfaces
    nonzero = 0
    for ideal in _mixed_degree_ideals(40):
        subsets = [a for k in range(len(ideal.variables) + 1)
                   for a in itertools.combinations(ideal.variables, k)]
        nonzero += _assert_excised_route(ideal, subsets, f)
    assert nonzero > 50


def _ideal(*generators):
    variables = sorted({v for g in generators for v in g.split()})
    return fp.SquarefreeIdeal(variables, [frozenset(g.split())
                                          for g in generators])


def test_excision_stopping_cases(monkeypatch):
    # a cone: x3 lies in no generator inside A
    assert fp.betti_multidegree(_ideal("x1 x2", "x3 x4"),
                                ("x1", "x2", "x3")) == [0, 0, 0]
    # a simplex: no generator inside A
    assert fp.betti_multidegree(_ideal("x1 x2"), ("x1",)) == [0]
    # the path x1-x2-x3-x4: x1 and x4 peel off in one round and leave
    # the empty nonface x2 x3 - {x2, x3}, a void complex on no vertex
    path = _ideal("x1 x2", "x2 x3", "x3 x4")
    assert fp.betti_multidegree(path, path.variables) == [0, 0, 0, 0]
    # x1 and x3 peel off and leave {empty face} at cardinality 2
    square = _ideal("x1 x2", "x3 x4")
    assert fp.betti_multidegree(square, square.variables) == [0, 1, 0, 0]
    # x0 peels off (shift 1) and leaves a 5-cycle of nonfaces whose
    # vertices all lie in two: the pair goes to the matching
    cycle = _ideal("x0 x1", *(f"x{i} x{i % 5 + 2}" for i in range(2, 7)))
    seen = []
    morse = fp.kernel.morse_cohomology_dims

    def recording(face_masks, p):
        seen.append(morse(face_masks, p))
        return seen[-1]

    monkeypatch.setattr(fp.kernel, "morse_cohomology_dims", recording)
    for f in TABLE_FIELDS:
        seen.clear()
        vec = fp.betti_multidegree(cycle, cycle.variables, f)
        assert vec == [0, 0, 0, 1, 0, 0, 0]
        assert vec == _brute_vector(cycle, cycle.variables, f)
        assert seen == [[0, 0, 1]], f


@pytest.mark.parametrize("p", [2, 3, 0])
def test_one_round_peels_every_single_vertex(p):
    def excised(nonfaces, mask):
        dims = fp.homology._excised_dims(nonfaces, mask, p, {})
        plain = fp.kernel.cohomology_dims(
            fp.kernel.faces_from_nonfaces(nonfaces, mask), p)
        assert poly_from_dims(dims) == poly_from_dims(plain), nonfaces
        return dims

    # ab and bc on {a, b, c}: a and c are single, T = {b} and the shift
    # is |T| = 1, not |b| + |b| = 2; {empty face} is left
    assert excised([0b011, 0b110], 0b111) == [0, 1]
    # ab and cd share nothing: T = {b, d}
    assert excised([0b0011, 0b1100], 0b1111) == [0, 0, 1]
    # a is single in ab; the peel leaves the nonface b - {b} empty
    assert excised([0b11, 0b10], 0b11) == []
    # a is single in abc and d in cd, T = {b, c}: bc - T is empty
    assert excised([0b0111, 0b0110, 0b1100], 0b1111) == []
    # a repeated nonface counts twice: neither copy of ab is peeled by
    # the first round; the collapse drops the copy and peels ab, leaving
    # {empty face} at cardinality 1
    assert excised([0b11, 0b11], 0b11) == [0, 1]


@pytest.mark.parametrize("p", [2, 3, 0])
def test_collapse_empties_the_mask(p):
    # abcde peels off in the first round (T = bcde, shift 4) and leaves
    # the nonfaces {h}, {h} on {h}: the collapse drops the copy, h is no
    # vertex, and no vertex is left: {empty face} at cardinality 4, the
    # 3-sphere of abcde's boundary
    nonfaces, mask = [0b11111, 1 << 7, 1 << 7], 0b10011111
    assert fp.homology._excised_dims(nonfaces, mask, p, {}) \
        == [0, 0, 0, 0, 1]
    assert fp.kernel.cohomology_dims(
        fp.kernel.faces_from_nonfaces(nonfaces, mask), p) == [0, 0, 0, 0, 1]


def test_excision_peels_example_4_9(monkeypatch):
    # every excision is one round of peeling or a residual shape the
    # table has met before, except 119 shapes new to the table; each of
    # those collapses all the way, so nothing is matched.  A second
    # table counts the same, so no memo outlives its table
    calls = {"collapse": 0, "morse": 0}
    collapsed = fp.homology._collapsed_dims
    morse = fp.kernel.morse_cohomology_dims

    def counting_collapse(inside, mask, p):
        calls["collapse"] += 1
        return collapsed(inside, mask, p)

    def counting_morse(face_masks, p):
        calls["morse"] += 1
        return morse(face_masks, p)

    monkeypatch.setattr(fp.homology, "_collapsed_dims", counting_collapse)
    monkeypatch.setattr(fp.kernel, "morse_cohomology_dims", counting_morse)
    ideal = fp.flag_ideal(fp.example_4_9())
    for _ in range(2):
        calls.update(collapse=0, morse=0)
        fp.full_betti_table(ideal, GF2)
        assert calls == {"collapse": 119, "morse": 0}
    # K_{6,6} has (2^6 - 1)^2 lcm multidegrees B | T but only 5^2
    # residual shapes, which is what the memo is for; each restriction
    # is two disjoint simplices, so beta_{|A|-2,A} = 1 is its one entry
    bottom = tuple(f"b{i}" for i in range(6))
    top = tuple(f"t{i}" for i in range(6))
    k66 = fp.flag_ideal(fp.GradedPoset(fp.bipartite_poset(
        bottom, top, [(b, u) for b in bottom for u in top])))
    lattice = fp.lcm_lattice(k66)
    assert len(lattice) == 3969
    for f in (GF2, GF(3), QQ):
        calls.update(collapse=0, morse=0)
        table = fp.full_betti_table(k66, f)
        assert calls == {"collapse": 25, "morse": 0}, f
        assert table.entries == {(len(a) - 2, a): 1 for a in lattice}


@pytest.mark.parametrize("f", [GF2, GF(3), QQ], ids=str)
def test_excision_memo_keys_residual_shapes(f, monkeypatch):
    # a memo miss is a call of _collapsed_dims
    p = f.p or 0
    misses = []
    collapsed = fp.homology._collapsed_dims

    def counting_collapse(inside, mask, p):
        misses.append(mask)
        return collapsed(inside, mask, p)

    monkeypatch.setattr(fp.homology, "_collapsed_dims", counting_collapse)

    def excised(nonfaces, mask, memo):
        dims = fp.homology._excised_dims(nonfaces, mask, p, memo)
        plain = fp.kernel.cohomology_dims(
            fp.kernel.faces_from_nonfaces(nonfaces, mask), p)
        assert poly_from_dims(dims) == poly_from_dims(plain), \
            (nonfaces, mask, f)
        return dims

    # seeded nonface families on at most 9 of 12 positions, with
    # repeated, nested and empty nonfaces, all through one memo: a key
    # that merged two different residual complexes would answer one of
    # them wrongly
    rng = random.Random(20261019)
    cases = []
    for _ in range(400):
        verts = rng.sample(range(12), rng.randint(1, 9))
        nonfaces = [sum(1 << v for v in
                        rng.sample(verts, rng.randint(1, min(3, len(verts)))))
                    for _ in range(rng.randint(0, 7))]
        if nonfaces and rng.random() < 0.3:
            nonfaces.append(rng.choice(nonfaces))
        if nonfaces and rng.random() < 0.3:
            nonfaces.append(rng.choice(nonfaces) | 1 << rng.choice(verts))
        if rng.random() < 0.05:
            nonfaces.append(0)
        cases.append((nonfaces, sum(1 << v for v in verts)))
    memo = {}
    for nonfaces, mask in cases:
        excised(nonfaces, mask, memo)
    assert len(memo) == len(misses)
    # with a fresh memo per case the shapes that repeat miss again
    misses.clear()
    for nonfaces, mask in cases:
        fp.homology._excised_dims(nonfaces, mask, p, {})
    assert len(memo) < len(misses)
    # the 5-cycle of test_excision_stopping_cases and a copy moved up
    # by five positions: one residual shape, one miss
    cycle = [0b11] + [1 << i | 1 << i % 5 + 2 for i in range(2, 7)]
    memo = {}
    misses.clear()
    for shift in (0, 5):
        dims = excised([n << shift for n in cycle], 0b1111111 << shift, memo)
        assert dims == [0, 0, 0, 1]
    assert len(memo) == len(misses) == 1
    # torsion survives a memo filled by the rest of the lcm lattice
    ideal = _rp2_ideal()
    gens = [sum(1 << "123456".index(v) for v in g) for g in ideal.generators]
    memo = {}
    for mask in fp.kernel.size_lex_sorted(fp.homology._lcm_unions(gens)):
        dims = excised([g for g in gens if not g & ~mask], mask, memo)
    assert mask == 0b111111
    expected = [0, 0, 1, 1, 0, 0] if f == GF2 else [0] * 6
    assert fp.homology._betti_vector(dims, 6) == expected


@pytest.mark.parametrize("f", [GF2, GF(3), QQ], ids=str)
def test_collapse_keeps_cohomology(f, monkeypatch):
    p = f.p or 0
    matched = []
    morse = fp.kernel.morse_cohomology_dims

    def recording(face_masks, p):
        matched.append(morse(face_masks, p))
        return matched[-1]

    monkeypatch.setattr(fp.kernel, "morse_cohomology_dims", recording)

    def collapsed(nonfaces, mask):
        dims = fp.homology._collapsed_dims(nonfaces, mask, p)
        plain = fp.kernel.cohomology_dims(
            fp.kernel.faces_from_nonfaces(nonfaces, mask), p)
        assert poly_from_dims(dims) == poly_from_dims(plain), \
            (nonfaces, mask, f)
        return dims

    # seeded nonface families on 2-9 of 10 positions, with repeated,
    # nested and one-vertex nonfaces
    rng = random.Random(20261020)
    for _ in range(500):
        verts = rng.sample(range(10), rng.randint(2, 9))
        nonfaces = [sum(1 << v for v in rng.sample(
                        verts, min(rng.choice((2, 2, 3, 3, 4)), len(verts))))
                    for _ in range(rng.randint(2, 12))]
        if rng.random() < 0.3:
            nonfaces.append(rng.choice(nonfaces))
        if rng.random() < 0.3:
            nonfaces.append(rng.choice(nonfaces) | 1 << rng.choice(verts))
        if rng.random() < 0.2:
            nonfaces.append(1 << rng.choice(verts))
        collapsed(nonfaces, sum(1 << v for v in verts))
    assert matched
    # every vertex of these lies in two or more nonfaces, and the first
    # dominated pair is not symmetric: deleting the dominating vertex
    # instead would give two classes.  An independence complex, where
    # N(0) = {2, 4} lies inside N(1) = {2, 3, 4} ...
    matched.clear()
    graph = [0b101, 0b110, 0b1010, 0b1100, 0b10001, 0b10010, 0b10100]
    assert collapsed(graph, 0b11111) == [0, 1]
    # ... and a 3-uniform complex where 1 is dominated by 3
    triples = [0b111, 0b1101, 0b10011, 0b10110, 0b11100]
    assert collapsed(triples, 0b11111) == [0, 0, 1]
    assert matched == []
    # the 5-cycle of test_excision_stopping_cases has no dominated vertex
    # and still reaches the matching
    cycle = [1 << i | 1 << (i + 1) % 5 for i in range(5)]
    assert poly_from_dims(collapsed(cycle, 0b11111)) == t(1)
    assert matched == [[0, 0, 1]]
    # so does the projective plane, whose torsion survives
    gens = [sum(1 << "123456".index(v) for v in g)
            for g in _rp2_ideal().generators]
    dims = collapsed(gens, 0b111111)
    expected = [0, 0, 1, 1, 0, 0] if f == GF2 else [0] * 6
    assert fp.homology._betti_vector(dims, 6) == expected


def test_full_betti_table_on_hom_grids():
    # every lcm multidegree of hom(r, t) with rt <= 12 over GF(2), and
    # with rt <= 10 over GF(3) and QQ
    for f, most in ((GF2, 12), (GF(3), 10), (QQ, 10)):
        for r in range(1, most + 1):
            for s in range(1, most // r + 1):
                ideal = fp.flag_ideal(fp.hom_rt_poset(r, s))
                table = fp.full_betti_table(ideal, f)
                lattice = fp.lcm_lattice(ideal)
                for a in lattice:
                    assert [table.entries.get((j, a), 0)
                            for j in range(len(a))] \
                        == _brute_vector(ideal, a, f), (r, s, a, f)
                assert {a for _, a in table.entries} <= set(lattice)


def _rp2_ideal():
    """The Stanley-Reisner ideal of the six-vertex projective plane: its
    minimal nonfaces are the ten triangles that are not facets."""
    facets = {frozenset(x) for x in RP2_FACETS}
    return fp.SquarefreeIdeal("123456", [
        frozenset(c) for c in itertools.combinations("123456", 3)
        if frozenset(c) not in facets])


def test_excised_route_sees_torsion():
    ideal = _rp2_ideal()
    whole = frozenset("123456")
    for f in TABLE_FIELDS:
        _assert_excised_route(ideal, fp.lcm_lattice(ideal), f)
    assert fp.betti_multidegree(ideal, whole, GF2) == [0, 0, 1, 1, 0, 0]
    assert fp.betti_multidegree(ideal, whole, QQ) == [0] * 6
    assert fp.betti_multidegree(ideal, whole, GF(3)) == [0] * 6


def test_flag_ideal_with_torsion():
    g = rp2_flag_poset()
    ideal = fp.flag_ideal(g)
    assert (len(g), len(ideal.generators)) == (16, 30)
    for f in TABLE_FIELDS:
        expected = LaurentPoly({4: 1, 5: 1}) if f == GF2 \
            else LaurentPoly.zero()
        assert fp.betti_polynomial_fast(g, g.elements, f) == expected, f
        assert fp.betti_polynomial_bruteforce(ideal, g.elements, f) \
            == expected, f
    # projdim(R/I) is 13 over GF(2) and 12 over GF(3)
    tables = {f: fp.full_betti_table(ideal, f) for f in (GF2, GF(3))}
    two, three = (t.total() for t in tables.values())
    assert (two.pop(11), two.pop(12)) == (17, 1)
    assert three.pop(11) == 16
    assert two == three and max(two) == 10
    # the layer product and the literal Hochster computation read the
    # same table in each field: every multidegree of 15 or 16 elements
    # (the whole one is the only entry the fields disagree on) and a
    # seeded sample of the others; the whole lattice has 37,836
    # multidegrees, and the layer product over all of them takes about a
    # minute in the pure kernel
    lattice = fp.lcm_lattice(ideal)
    rng = random.Random(20261019)
    top = [a for a in lattice if len(a) >= 15]
    fast = top + rng.sample([a for a in lattice if len(a) < 15], 600)
    brute = rng.sample([a for a in lattice if len(a) <= 10], 200)
    for f, table in tables.items():
        def entry(a):
            return LaurentPoly({len(a) - j: table.entries.get((j, a), 0)
                                for j in range(len(a))})

        for a in fast:
            assert fp.betti_polynomial_fast(g, a, f) == entry(a), (f, a)
        for a in brute:
            assert fp.betti_polynomial_bruteforce(ideal, a, f) == entry(a), \
                (f, a)


def test_tables_eliminate_only_past_the_matching(monkeypatch):
    # the matching's fallback calls _kernel_py's own binding of
    # cohomology_dims, so both bindings are counted
    calls = []
    plain = fp.kernel.cohomology_dims

    def counting(face_masks, p):
        calls.append(len(face_masks))
        return plain(face_masks, p)

    monkeypatch.setattr(fp.kernel, "cohomology_dims", counting)
    monkeypatch.setattr(fp._kernel_py, "cohomology_dims", counting)
    fp.full_betti_table(fp.flag_ideal(fp.example_4_9()))
    assert calls == []
    ideal = _rp2_ideal()
    whole = frozenset("123456")
    expected = {GF2: [0, 0, 1, 1, 0, 0], QQ: [0] * 6, GF(3): [0] * 6}
    for f, vec in expected.items():
        calls.clear()
        assert fp.betti_multidegree(ideal, whole, f) == vec
        assert calls, f


def test_oracle_verdicts_build_no_table(monkeypatch):
    examples = [fp.flag_ideal(fp.example_4_9()),
                fp.flag_ideal(fp.example_3_4()),
                fp.flag_ideal(fp.hom_rt_poset(2, 2)),
                fp.SquarefreeIdeal("ab", [])]
    built = []
    table_of = fp.homology.full_betti_table

    def recording(ideal, *args):
        built.append(ideal)
        return table_of(ideal, *args)

    monkeypatch.setattr(fp.homology, "full_betti_table", recording)
    for ideal in examples:
        fp.oracle_verdicts(ideal)
        fp.is_cm_oracle(ideal)
        fp.has_linear_resolution_oracle(ideal)
    assert built == []


def _table_verdicts(ideal, dual, f):
    """Cohen-Macaulayness as projdim = height, and linearity of the
    ideal and of its Alexander dual, read off their full Betti tables."""
    def linear(i, table):
        return i.is_equigenerated() and table.is_linear(i.generator_degree())

    table, dual_table = (fp.full_betti_table(i, f) for i in (ideal, dual))
    height = min(len(g) for g in dual.generators)
    return (table.projective_dimension_of_quotient() == height,
            linear(ideal, table), linear(dual, dual_table))


def test_oracle_verdicts_equal_table_verdicts(corpus_b, named_graded):
    # every labelled graded poset with at most five elements, the
    # corpus, the named examples, and the plane whose torsion makes
    # the fields disagree
    posets = [g for n in range(1, 6) for g, _ in census(n)]
    posets += corpus_b + list(named_graded.values())
    ideals = [fp.flag_ideal(g) for g in posets] + [_rp2_ideal()]
    pairs = [(ideal, fp.alexander_dual(ideal)) for ideal in ideals]
    cm = {}
    for f in (GF2, GF(3), QQ):
        for ideal, dual in pairs:
            cm_t, linear_t, dual_linear_t = _table_verdicts(ideal, dual, f)
            assert fp.oracle_verdicts(ideal, f) == (cm_t, linear_t), \
                (ideal, f)
            assert fp.has_linear_resolution_oracle(ideal, f) == linear_t
            assert fp.has_linear_resolution_oracle(dual, f) == dual_linear_t
        cm[f] = fp.is_cm_oracle(ideals[-1], f)
    assert cm == {GF2: False, GF(3): True, QQ: True}


def test_oracle_verdicts_stop_at_the_first_witness(monkeypatch):
    # example 3.4's flag ideal and, over GF(2), the projective plane's
    # Stanley-Reisner ideal are neither Cohen-Macaulay nor linear, so a
    # witness stops each walk early.  The plane's ideal is its own
    # Alexander dual and the dual of 3.4's is not equigenerated, so
    # between them they stop both the ideal's walk and Eagon-Reiner's;
    # the walks of one call visit fewer multidegrees than one lattice
    # holds (3.4's two lattices hold 42 and 112)
    calls = []
    excised = fp.homology._excised_dims

    def counting(*args):
        calls.append(args[1])
        return excised(*args)

    rp2 = _rp2_ideal()
    assert fp.alexander_dual(rp2) == rp2
    monkeypatch.setattr(fp.homology, "_excised_dims", counting)
    for ideal in (fp.flag_ideal(fp.example_3_4()), rp2):
        calls.clear()
        assert fp.oracle_verdicts(ideal) == (False, False)
        assert 0 < len(calls) < len(fp.lcm_lattice(ideal))


def test_oracle_verdicts_skip_masks_below_the_height(monkeypatch):
    # x1, x2 x3, x4 x5 x6 is a complete intersection of height 3 in three
    # degrees: ``off`` is set from the start and ``deep`` never is, so
    # the ideal's walk stops at its first mask with fewer than three
    # elements.  It visits the five larger of its seven lcm masks (not
    # x2 x3 or x1), and Eagon-Reiner walks all 21 of the dual's
    calls = []
    excised = fp.homology._excised_dims

    def counting(*args):
        calls.append(args[1])
        return excised(*args)

    ideal = _ideal("x1", "x2 x3", "x4 x5 x6")
    dual = fp.alexander_dual(ideal)
    assert (len(fp.lcm_lattice(ideal)), len(fp.lcm_lattice(dual))) == (7, 21)
    monkeypatch.setattr(fp.homology, "_excised_dims", counting)
    assert fp.oracle_verdicts(ideal) == (True, False)
    assert len(calls) == 5 + 21
    assert [m.bit_count() for m in calls[:5]] == [6, 5, 4, 3, 3]


def test_betti_table_csv():
    table = fp.full_betti_table(fp.flag_ideal(fp.hom_rt_poset(2, 2)))
    lines = table.to_csv().splitlines()
    assert lines[0] == "j,|A|,A,beta"
    assert "0,2,a1_1;a2_1,1" in lines


def test_component_assembly():
    x = fp.SquarefreeIdeal("ab", [frozenset("ab")])
    y = fp.SquarefreeIdeal("cd", [frozenset("cd")])
    tx, ty = fp.full_betti_table(x), fp.full_betti_table(y)
    combined = fp.component_betti_assembly([tx, ty])
    assert combined.entries[(1, frozenset("abcd"))] == 1
    assert combined.entries[(0, frozenset("ab"))] == 1
    assert fp.component_betti_assembly([tx]).entries == tx.entries
    with pytest.raises(VariableClash):
        fp.component_betti_assembly([tx, tx])
    with pytest.raises(InvalidParameter, match=r"GF\(2\), GF\(3\)"):
        fp.component_betti_assembly([tx, fp.full_betti_table(y, GF(3))])
    with pytest.raises(InvalidParameter, match=r"GF\(2\), QQ"):
        fp.component_betti_assembly([fp.full_betti_table(x, QQ), ty])


def test_component_assembly_matches_direct(corpus_b):
    checked = 0
    for g in corpus_b:
        comps = fp.connected_components(g)
        if len(comps) < 2 or len(g) > 10:
            continue
        tables = [fp.full_betti_table(fp.flag_ideal(fp.GradedPoset(c)))
                  for c in comps]
        direct = fp.full_betti_table(fp.flag_ideal(g))
        assert fp.component_betti_assembly(tables).entries == direct.entries
        checked += 1
        if checked >= 5:
            break
    assert checked >= 2


def test_cm_oracle_budget_fires_before_the_dual(monkeypatch):
    def enumerate_transversals(*args, **kwargs):
        raise AssertionError("transversals enumerated past the budget")

    monkeypatch.setattr("flagposet.ideals.minimal_transversals",
                        enumerate_transversals)
    with pytest.raises(BudgetExceeded):
        fp.is_cm_oracle(fp.flag_ideal(fp.hom_rt_poset(4, 5)))


def test_oracles():
    l22 = fp.flag_ideal(fp.hom_rt_poset(2, 2))
    assert fp.has_linear_resolution_oracle(l22)
    assert fp.is_cm_oracle(l22)
    twok2 = fp.SquarefreeIdeal(("x1", "y1", "x2", "y2"),
                               [frozenset({"x1", "y1"}),
                                frozenset({"x2", "y2"})])
    assert not fp.has_linear_resolution_oracle(twok2)
    assert fp.is_cm_oracle(twok2)  # complete intersection
    assert fp.is_cm_oracle(fp.flag_ideal(fp.example_4_9()))
    assert not fp.is_cm_oracle(fp.flag_ideal(fp.example_3_4()))
    zero = fp.SquarefreeIdeal("ab", [])
    assert fp.has_linear_resolution_oracle(zero)
    assert fp.is_cm_oracle(zero)
    # not equigenerated: no linear resolution
    assert not fp.has_linear_resolution_oracle(fp.flag_ideal(fp.example_4_9()))


def test_first_strand_predicate():
    g = fp.hom_rt_poset(3, 2)
    pred = fp.first_strand_multidegrees(g)
    assert pred(("a1_1", "a2_1", "a3_1"))
    assert not pred(("a2_1", "a3_1"))  # misses rank 1
    two = fp.GradedPoset(fp.bipartite_poset(
        ("p1", "p2"), ("q1", "q2"), [("p1", "q1"), ("p2", "q2")]))
    assert not fp.first_strand_multidegrees(two)(("p1", "p2", "q1", "q2"))
    k22 = fp.GradedPoset(fp.bipartite_poset(
        ("p1", "p2"), ("q1", "q2"),
        [(p, q) for p in ("p1", "p2") for q in ("q1", "q2")]))
    assert fp.first_strand_multidegrees(k22)(("p1", "p2", "q1", "q2"))


def test_first_strand_predicate_on_impure_posets():
    # the predicate against the t^s coefficient of the layer product on
    # every nonempty multidegree of the small seeded posets whose
    # maximal elements lie on several ranks, or that have an isolated
    # rank-1 maximal element
    pool = [g for g in impure_chain_posets(200) + generated_chain_posets(200)
            if len(g) <= 10]
    assert len(pool) == 217
    assert any(not g.is_pure() and g.runder() > 1 for g in pool)
    assert any(g.runder() == 1 and g.rbar() > 1 for g in pool)
    for g in pool:
        pred = fp.first_strand_multidegrees(g)
        s = g.runder()
        for k in range(1, len(g) + 1):
            for a in itertools.combinations(g.elements, k):
                assert pred(a) \
                    == (fp.betti_polynomial_fast(g, a).coefficient(s) != 0), \
                    (g, a)


def test_cross_field_agreement_with_rationals(corpus_b):
    # a small subsample over GF(2), GF(32003) and the rationals, on both
    # the brute-force and the layer-product path
    for g in corpus_b[:5]:
        ideal = fp.flag_ideal(g)
        for k in range(0, min(len(g), 6) + 1):
            for a in itertools.combinations(g.elements, k):
                values = {}
                for f in FIELDS:
                    values[f"brute {f}"] = fp.betti_polynomial_bruteforce(
                        ideal, a, f)
                    values[f"fast {f}"] = fp.betti_polynomial_fast(g, a, f)
                assert len(set(map(repr, values.values()))) == 1, (a, values)


def test_laurent_poly_json():
    p = LaurentPoly({-1: 1, 2: 3})
    assert LaurentPoly.from_json(p.to_json()) == p


def test_lcm_walk_order_is_size_then_value(corpus_b):
    # the walk's two plain sorts give the order of the single key
    # (size, value), largest first, on every corpus ideal and its dual
    for g in corpus_b:
        ideal = fp.flag_ideal(g)
        for walked in (ideal, fp.alexander_dual(ideal)):
            width = len(walked.variables)
            masks = [mask for mask, _ in fp.homology._lcm_walk(walked)]
            assert masks == sorted(
                masks, key=lambda m: m.bit_count() << width | m, reverse=True)
            assert len(set(masks)) == len(masks)


# sha256 over the entries of full_betti_table, in insertion order with
# their values, and over oracle_verdicts, of every ideal of
# _pinned_ideals: all of them over GF(2), every fifth and the named
# examples, the hom grids and the plane over GF(3) and QQ
TABLE_DIGESTS = {
    GF2: "0befcbe5f12d48f43459fc089be0d3782ee8019036cd85c56ba17eb09d751251",
    GF(3): "59eb664db0ab1c7c172ac27510ee14a34f73b0b2a22f3191ed4fdcf11f4212d2",
    QQ: "59eb664db0ab1c7c172ac27510ee14a34f73b0b2a22f3191ed4fdcf11f4212d2",
}


def _pinned_ideals(corpus_b, named_graded):
    posets = corpus_b + [g for n in range(1, 6) for g, _ in census(n)]
    posets += list(named_graded.values())
    posets += [fp.hom_rt_poset(r, s) for r in range(1, 5) for s in range(1, 5)]
    ideals = [fp.flag_ideal(g) for g in posets] + [_rp2_ideal()]
    tail = len(named_graded) + 16 + 1
    return {GF2: ideals, GF(3): ideals[::5] + ideals[-tail:],
            QQ: ideals[::5] + ideals[-tail:]}


def test_betti_tables_and_oracle_verdicts_are_pinned(corpus_b, named_graded):
    import hashlib
    for f, ideals in _pinned_ideals(corpus_b, named_graded).items():
        h = hashlib.sha256()
        for ideal in ideals:
            for (j, a), b in fp.full_betti_table(ideal, f).entries.items():
                h.update(f"{j} {','.join(sorted(a))} {b};".encode())
            h.update(repr(fp.oracle_verdicts(ideal, f)).encode() + b"\n")
        assert h.hexdigest() == TABLE_DIGESTS[f], (f, h.hexdigest())


def test_live_masks_are_the_non_void_lcm_masks(corpus_b, named_graded):
    # the cube's lcm masks are _lcm_unions, and the walk keeps, in its
    # order, exactly the ones whose peeling round does not end void:
    # the cube's second evaluation of _peeled's void exit against the
    # first.  hom(4, 5) has 20 variables and several slabs; the union of
    # 3.4's flag ideal and a path on eight vertices has 17, with voids
    # on both sides of the slab boundary
    ideals = [fp.flag_ideal(g) for g in corpus_b]
    ideals += [fp.alexander_dual(ideal) for ideal in ideals]
    posets = [g for n in range(1, 6) for g, _ in census(n)]
    posets += [named_graded[k] for k in ("3.4", "3.6", "4.9")]
    bottom = tuple(f"b{i}" for i in range(6))
    top = tuple(f"t{i}" for i in range(6))
    posets += [rp2_flag_poset(), fp.hom_rt_poset(4, 5),
               fp.GradedPoset(fp.bipartite_poset(
                   bottom, top, [(b, u) for b in bottom for u in top]))]
    ideals += [fp.flag_ideal(g) for g in posets] + [_rp2_ideal()]
    flag = fp.flag_ideal(named_graded["3.4"])
    path = [frozenset({f"x{i}", f"x{i + 1}"}) for i in range(1, 8)]
    ideals += [fp.SquarefreeIdeal(
                   flag.variables + tuple(f"x{i}" for i in range(1, 9)),
                   list(flag.generators) + path),
               fp.SquarefreeIdeal("ab", []),
               fp.SquarefreeIdeal("abc", [frozenset("ac")])]
    assert len(ideals[-3].variables) == 17
    for ideal in ideals:
        width = len(ideal.variables)
        unions = fp.homology._lcm_unions(ideal.masks)
        lcm = set()
        for base, vec, _ in fp.homology._cube(ideal.masks, width):
            lcm |= {base | a for a, bit in enumerate(bin(vec)[:1:-1])
                    if bit == "1"}
        assert lcm == unions, ideal
        expected = [
            mask for mask in sorted(unions, reverse=True,
                                    key=lambda m: m.bit_count() << width | m)
            if fp.homology._peeled(
                [g for g in ideal.masks if not g & ~mask], mask) is not None]
        assert [m for m, _ in fp.homology._lcm_walk(ideal)] == expected, \
            ideal


def test_betti_budget_fires_before_the_cube(monkeypatch):
    def cube(*args):
        raise AssertionError("subset cube built past the budget")

    monkeypatch.setattr(fp.homology, "_cube", cube)
    ideal = _ideal(*(f"x{i} x{i + 1}" for i in range(1, 19)))
    assert len(ideal.variables) == 19
    for oracle in (fp.full_betti_table, fp.has_linear_resolution_oracle,
                   fp.oracle_verdicts):
        with pytest.raises(BudgetExceeded):
            oracle(ideal)
