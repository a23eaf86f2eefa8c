import pytest

import flagposet as fp
from flagposet.errors import InvalidParameter
from flagposet.generate import RandomPosetSpec, random_graded_poset


def test_determinism():
    spec = RandomPosetSpec((3, 3, 2), 0.4, 123)
    a = fp.poset_to_text(random_graded_poset(spec))
    b = fp.poset_to_text(random_graded_poset(spec))
    assert a == b
    other = fp.poset_to_text(random_graded_poset(
        RandomPosetSpec((3, 3, 2), 0.4, 124)))
    assert a != other


def test_rank_one_is_antichain():
    g = random_graded_poset(RandomPosetSpec((5,), 0.9, 1))
    assert g.covers == () and g.rbar() == 1


def test_graded_by_construction():
    for seed in range(30):
        spec = RandomPosetSpec((2, 4, 3, 1), 0.3, seed)
        g = random_graded_poset(spec)
        # every upper vertex has a parent
        assert g.layer_sizes() == (2, 4, 3, 1)
        for e in g.elements:
            if g.rank[e] > 1:
                assert g.poset.parents(e)


def test_edge_probability_extremes():
    dense = random_graded_poset(RandomPosetSpec((3, 3), 1.0, 5))
    assert len(dense.covers) == 9
    sparse = random_graded_poset(RandomPosetSpec((3, 3), 0.0, 5))
    assert len(sparse.covers) == 3  # exactly the forced parents


def test_spec_validation():
    with pytest.raises(InvalidParameter):
        RandomPosetSpec((), 0.5, 0)
    with pytest.raises(InvalidParameter):
        RandomPosetSpec((1, 0), 0.5, 0)
    with pytest.raises(InvalidParameter):
        RandomPosetSpec((2,), 1.5, 0)
