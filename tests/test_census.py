"""Every labelled graded poset with at most six elements.

A graded poset is a composition of n into layer widths plus, for each
element above rank 1, a nonempty set of parents one rank down.  On each
the structural checks must agree with the homological oracles over
GF(2); a disagreement is a finding, not a case to filter out.
"""

import pytest

import flagposet as fp
from conftest import census


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
