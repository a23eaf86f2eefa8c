"""Acceptance suite.

One test per acceptance criterion; every check is exact (integer
equality of verdicts, polynomials, and tables) and each test prints a
single PASS/FAIL line (visible with ``pytest -s`` or on failure).
"""

import itertools
import math
import time
from collections import Counter

import pytest

import flagposet as fp
from flagposet.fields import GF, GF2
from conftest import sweep_layer, sweep_poset

GF_BIG = GF(32003)


def _report(number: int, ok: bool, message: str) -> None:
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {message}")
    assert ok, message


@pytest.fixture(scope="module")
def betti_identity(corpus_b):
    """One pass over every corpus multidegree with |A| <= 10, recording
    both Betti-polynomial paths and the first-strand comparison."""
    mismatches = []
    strand_mismatches = []
    count = 0
    for g in corpus_b:
        ideal = fp.flag_ideal(g)
        pred = fp.first_strand_multidegrees(g)
        s = g.runder()
        for k in range(0, min(len(g.elements), 10) + 1):
            for a in itertools.combinations(g.elements, k):
                count += 1
                fast = fp.betti_polynomial_fast(g, a)
                brute = fp.betti_polynomial_bruteforce(ideal, a)
                if fast != brute:
                    mismatches.append((g, a))
                if a and pred(a) != (fast.coefficient(s) != 0):
                    strand_mismatches.append((g, a))
    return count, mismatches, strand_mismatches


def test_criterion_1_paper_examples_exact():
    start = time.monotonic()
    ok = True
    notes = []

    try:
        fp.GradedPoset(fp.pentagon())
    except fp.NotGraded:
        pass
    else:
        ok, notes = False, notes + ["pentagon graded"]

    g34 = fp.example_3_4()
    covers = fp.minimal_vertex_covers(g34)
    sizes = Counter(len(c) for c in covers)
    big = [c for c in covers if len(c) == 4]
    if fp.is_unmixed_bruteforce(g34) or fp.check_unmixed_structural(g34).value:
        ok, notes = False, notes + ["3.4 unmixed"]
    if sizes[4] != 1 or set(sizes) != {3, 4} \
            or big != [frozenset({"a1", "b1", "b3", "c3"})]:
        ok, notes = False, notes + ["3.4 cover sizes"]
    for window in ({1, 2}, {2, 3}):
        sub = fp.rank_selection(g34, window)
        if not (fp.check_unmixed_structural(sub).value
                and fp.is_unmixed_bruteforce(sub)):
            ok, notes = False, notes + [f"3.4 layer {window} not unmixed"]

    g36 = fp.example_3_6()
    if not g36.is_pure():
        ok, notes = False, notes + ["3.6 impure"]
    if fp.check_weak_conditions(g36) != (True, True):
        ok, notes = False, notes + ["3.6 weak conditions"]
    if fp.is_unmixed_bruteforce(g36) or fp.check_unmixed_structural(g36).value:
        ok, notes = False, notes + ["3.6 unmixed"]

    g49 = fp.example_4_9()
    if len(fp.flag_ideal(g49).generators) != 17:
        ok, notes = False, notes + ["4.9 generator count"]
    if not fp.check_cm_structural(g49).value:
        ok, notes = False, notes + ["4.9 structural CM"]
    if not fp.is_cm_oracle(fp.flag_ideal(g49)):
        ok, notes = False, notes + ["4.9 CM oracle"]

    elapsed = time.monotonic() - start
    if elapsed >= 10.0:
        ok, notes = False, notes + [f"runtime {elapsed:.1f}s >= 10s"]
    _report(1, ok, f"paper examples exact in {elapsed:.1f}s"
            + (f" problems: {notes}" if notes else ""))


def test_criterion_2_structural_equals_oracle(corpus_b):
    start = time.monotonic()
    disagreements = []
    for bits in range(512):
        g = sweep_poset(bits, include_isolated=True)
        ideal = fp.flag_ideal(g)
        if fp.check_unmixed_structural(g).value \
                != fp.is_unmixed_bruteforce(g):
            disagreements.append(("unmixed", "sweep", bits))
        if fp.check_cm_structural(g).value != fp.is_cm_oracle(ideal):
            disagreements.append(("cm", "sweep", bits))
        if fp.has_linear_resolution_structural(g).value \
                != fp.has_linear_resolution_oracle(ideal):
            disagreements.append(("linear", "sweep", bits))
    for seed, g in enumerate(corpus_b):
        ideal = fp.flag_ideal(g)
        if fp.check_unmixed_structural(g).value \
                != fp.is_unmixed_bruteforce(g):
            disagreements.append(("unmixed", "random", seed))
        if fp.check_cm_structural(g).value != fp.is_cm_oracle(ideal):
            disagreements.append(("cm", "random", seed))
        if fp.has_linear_resolution_structural(g).value \
                != fp.has_linear_resolution_oracle(ideal):
            disagreements.append(("linear", "random", seed))
    elapsed = time.monotonic() - start
    ok = not disagreements and elapsed < 300.0
    _report(2, ok,
            f"512 bipartite + {len(corpus_b)} random posets, "
            f"{len(disagreements)} disagreements, {elapsed:.0f}s (< 300s)")


def test_criterion_3_betti_product_identity(betti_identity):
    count, mismatches, _ = betti_identity
    _report(3, not mismatches,
            f"layer-product polynomial = Hochster brute force on "
            f"{count} multidegrees, {len(mismatches)} mismatches")


def test_criterion_4_first_strand(betti_identity):
    count, _, strand_mismatches = betti_identity
    _report(4, not strand_mismatches,
            f"first-strand predicate matches the t^s coefficient on "
            f"{count} multidegrees, {len(strand_mismatches)} mismatches")


def test_criterion_5_ferrers_equivalences(corpus_b):
    bad = []
    for bits in range(512):
        layer = sweep_layer(bits)
        ferrers = fp.is_ferrers(layer).value
        no_2k2 = fp.has_2k2(layer) is None
        if layer.edges:
            g = sweep_poset(bits, include_isolated=False)
            linear = fp.has_linear_resolution_oracle(fp.flag_ideal(g))
        else:
            linear = True  # zero ideal
        if not ferrers == no_2k2 == linear:
            bad.append(bits)
    implications = []
    for seed, g in enumerate(corpus_b):
        if fp.has_linear_resolution_structural(g).value:
            if not g.is_pure() \
                    or len(fp.connected_components(g)) > 1:
                implications.append(seed)
    ok = not bad and not implications
    _report(5, ok,
            f"Ferrers <=> 2K2-free <=> linear resolution on 512 graphs "
            f"({len(bad)} failures); linear => pure and connected on the "
            f"corpus ({len(implications)} counterexamples)")


def test_criterion_6_bi_cm(corpus_b, named_graded):
    problems = []
    for r in (1, 2, 3):
        for t in (1, 2, 3):
            g = fp.hom_rt_poset(r, t)
            verdict = fp.is_bi_cm(g)
            multichains = sum(
                1 for _ in itertools.combinations_with_replacement(
                    range(t), r))
            expected = math.comb(t + r - 1, r)
            if not verdict.value or verdict.certificate["isomorphism"] is None:
                problems.append(f"hom({r},{t}) not bi-CM")
            if len(fp.flag_ideal(g).generators) != multichains \
                    or multichains != expected:
                problems.append(f"hom({r},{t}) generator count")
    pool = list(named_graded.values()) + list(corpus_b)
    bicm_count = 0
    for g in pool:
        verdict = fp.is_bi_cm(g)
        if verdict.value and g.elements:
            bicm_count += 1
            r, t = g.rbar(), len(g.layer(1))
            if verdict.certificate["hom_parameters"] != (r, t) \
                    or verdict.certificate["isomorphism"] is None:
                problems.append("bi-CM poset without grid isomorphism")
    _report(6, not problems,
            f"hom grids bi-CM with C(t+r-1,r) generators; "
            f"{bicm_count} bi-CM corpus posets all isomorphic to their "
            f"grid; problems: {problems}")


def test_criterion_7_filtration_correspondence(corpus_b, named_graded):
    problems = []
    cm_count = 0
    for g in list(named_graded.values()) + list(corpus_b):
        verdict = fp.check_cm_structural(g)
        if not verdict.value or not g.elements:
            continue
        cm_count += 1
        cert = verdict.certificate
        dual = fp.alexander_dual(fp.flag_ideal(g))
        monomials = {fp.filtration_to_monomial(f, cert)
                     for f in fp.filtrations(cert)}
        if monomials != set(dual.generators):
            problems.append("filtration monomials != dual generators")
        if not fp.is_weakly_polymatroidal(dual, fp.dual_variable_order(cert)):
            problems.append("dual not weakly polymatroidal under preset")
    ok = not problems and cm_count >= 10
    _report(7, ok,
            f"{cm_count} CM posets: filtrations match Alexander duals and "
            f"duals are weakly polymatroidal; problems: {problems}")


def test_criterion_8_field_robustness(corpus_b):
    subsample = corpus_b[::8]
    assert len(subsample) == 25
    disagreements = []
    for seed, g in enumerate(subsample):
        ideal = fp.flag_ideal(g)
        # criterion 2 verdicts over GF(32003)
        if fp.is_cm_oracle(ideal, GF_BIG) != fp.is_cm_oracle(ideal, GF2):
            disagreements.append(("cm", seed))
        if fp.has_linear_resolution_oracle(ideal, GF_BIG) \
                != fp.has_linear_resolution_oracle(ideal, GF2):
            disagreements.append(("linear", seed))
        # criteria 3 and 4 over GF(32003)
        pred = fp.first_strand_multidegrees(g)
        s = g.runder()
        for k in range(0, min(len(g.elements), 10) + 1):
            for a in itertools.combinations(g.elements, k):
                fast = fp.betti_polynomial_fast(g, a, GF_BIG)
                if fast != fp.betti_polynomial_bruteforce(ideal, a, GF_BIG):
                    disagreements.append(("betti", seed, a))
                if a and pred(a) != (fast.coefficient(s) != 0):
                    disagreements.append(("strand", seed, a))
    # criterion 5's linear-resolution leg over GF(32003)
    for bits in range(0, 512, 16):
        layer = sweep_layer(bits)
        if not layer.edges:
            continue
        g = sweep_poset(bits, include_isolated=False)
        linear = fp.has_linear_resolution_oracle(fp.flag_ideal(g), GF_BIG)
        if linear != fp.is_ferrers(layer).value:
            disagreements.append(("ferrers", bits))
    _report(8, not disagreements,
            f"25-poset subsample re-run over GF(32003): "
            f"{len(disagreements)} verdict changes")
