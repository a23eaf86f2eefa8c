"""Every labelled graded poset with at most six elements.

A graded poset is a composition of n into layer widths plus, for each
element above rank 1, a nonempty set of parents one rank down.  On each
the structural checks must agree with the homological oracles over
GF(2); a disagreement is a finding, not a case to filter out.
"""

import itertools

import pytest

import flagposet as fp


def compositions(n):
    if n == 0:
        yield ()
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def census(n):
    """Each graded poset on n elements, with the layer of each element."""
    for widths in compositions(n):
        layers = [[f"p{i}_{k}" for k in range(1, w + 1)]
                  for i, w in enumerate(widths, 1)]
        options = [[[(below[k], e) for k in range(len(below)) if m >> k & 1]
                    for m in range(1, 1 << len(below))]
                   for below, layer in zip(layers, layers[1:])
                   for e in layer]
        layer_of = {e: i for i, layer in enumerate(layers, 1) for e in layer}
        for pick in itertools.product(*options):
            poset = fp.Poset(list(layer_of), [c for cs in pick for c in cs])
            yield fp.GradedPoset(poset), layer_of


@pytest.mark.parametrize("n, count", [(1, 1), (2, 2), (3, 6), (4, 26),
                                      (5, 158), (6, 1330)])
def test_census_structural_equals_oracle(n, count):
    seen = 0
    disagreements = []
    for g, layer_of in census(n):
        seen += 1
        assert g.rank == layer_of
        report = fp.classification_report(g, fp.GF2)
        for key in ("unmixed", "cm", "linear_resolution"):
            if report[key]["structural"] != report[key]["oracle"]:
                disagreements.append((fp.poset_to_text(g), key))
        bi = report["cm"]["oracle"] and report["linear_resolution"]["oracle"]
        if fp.is_bi_cm(g).value != bi:
            disagreements.append((fp.poset_to_text(g), "bi_cm"))
    assert seen == count
    assert disagreements == []
