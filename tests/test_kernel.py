"""The pure kernel against hand-checked values and independent
references: plain dense elimination (Fractions over QQ, integers mod p
over GF(p)) and a brute-force subset filter, on seeded random inputs
and on two torsion complexes listed by downward closure.
"""

import random
from fractions import Fraction

import pytest

from flagposet import _kernel_py
from conftest import downward_closure


def _rank_reference(rows, p=0):
    """Reference rank by dense elimination, over QQ in Fractions when
    p = 0 and over GF(p) in integers mod p otherwise."""
    mat = [[x % p if p else Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        top = mat[rank]
        inv = pow(top[col], -1, p) if p else 1 / top[col]
        for i in range(rank + 1, len(mat)):
            f = mat[i][col] * inv
            row = [x - f * y for x, y in zip(mat[i], top)]
            mat[i] = [x % p for x in row] if p else row
        rank += 1
    return rank


def _cohomology_dims_reference(face_masks, p=0):
    """Reference reduced cohomology over GF(p), or QQ when p = 0,
    straight from the definition: dim H^c = #faces of size c - rank d_c
    - rank d_(c-1)."""
    if not face_masks:
        return []
    top = max(bin(f).count("1") for f in face_masks)
    levels = [sorted(f for f in face_masks if bin(f).count("1") == c)
              for c in range(top + 2)]
    ranks = []
    for c in range(top + 1):
        cur, nxt = levels[c], levels[c + 1]
        rows = [[0] * len(nxt) for _ in cur]
        for j, g in enumerate(nxt):
            for i, f in enumerate(cur):
                if f & ~g == 0:
                    b = g ^ f
                    rows[i][j] = (-1) ** bin(f & (b - 1)).count("1")
        ranks.append(_rank_reference(rows, p) if nxt else 0)
    return [len(levels[c]) - ranks[c] - (ranks[c - 1] if c else 0)
            for c in range(top + 1)]


def test_rank_gf2_known_values():
    assert _kernel_py.rank_gf2([], 0) == 0
    assert _kernel_py.rank_gf2([0b1, 0b10, 0b11], 2) == 2
    assert _kernel_py.rank_gf2([0b111, 0b111], 3) == 1
    # wide rows exercise the multi-word path
    wide = [1 << k for k in (0, 64, 128)]
    assert _kernel_py.rank_gf2(wide, 129) == 3


def test_rank_mod_p_known_values():
    assert _kernel_py.rank_mod_p([[1, 2], [2, 4]], 32003) == 1
    assert _kernel_py.rank_mod_p([[1, 2], [2, 4]], 3) == 1
    assert _kernel_py.rank_mod_p([[2, 0], [0, 1]], 3) == 2
    # rank can drop in finite characteristic
    assert _kernel_py.rank_mod_p([[3]], 3) == 0
    assert _kernel_py.rank_mod_p([], 3) == 0
    assert _kernel_py.rank_qq([[3]]) == 1
    assert _kernel_py.rank_qq([]) == 0


def test_rank_qq_matches_fraction_elimination():
    rng = random.Random(11)
    drops_mod_3 = 0
    for trial in range(400):
        n = rng.randrange(1, 8)
        m = rng.randrange(1, 8)
        if trial % 2:
            # a product of thin factors: rank at most k, often less
            k = rng.randrange(1, min(n, m) + 1)
            left = [[rng.randrange(-3, 4) for _ in range(k)] for _ in range(n)]
            right = [[rng.randrange(-3, 4) for _ in range(m)]
                     for _ in range(k)]
            rows = [[sum(x * y for x, y in zip(lr, col))
                     for col in zip(*right)] for lr in left]
        else:
            rows = [[rng.randrange(-9, 10) for _ in range(m)]
                    for _ in range(n)]
        expected = _rank_reference(rows)
        assert _kernel_py.rank_qq(rows) == expected, rows
        for p in (3, 5, 32003):
            assert _kernel_py.rank_mod_p(rows, p) \
                == _rank_reference(rows, p), (rows, p)
        drops_mod_3 += _kernel_py.rank_mod_p(rows, 3) < expected
    assert drops_mod_3 > 10


def test_rank_gf2_matches_reference_elimination():
    rng = random.Random(42)
    deficient = 0
    for trial in range(200):
        m = rng.randrange(1, 91)
        # sums of a few dense or sparse random rows, so rows often cross
        # 64 bits and often depend on each other
        basis = [rng.getrandbits(m) if trial % 2 else
                 1 << rng.randrange(m) | 1 << rng.randrange(m)
                 for _ in range(rng.randrange(1, 10))]
        rows = []
        for _ in range(rng.randrange(0, 12)):
            row = 0
            for b in rng.sample(basis, rng.randrange(1, len(basis) + 1)):
                row ^= b
            rows.append(row)
        expected = _rank_reference([[r >> j & 1 for j in range(m)]
                                   for r in rows], 2)
        assert _kernel_py.rank_gf2(rows, m) == expected, (rows, m)
        deficient += expected < len(rows)
    assert deficient > 50


def test_faces_from_nonfaces_semantics():
    # square: nonfaces are the two diagonals
    faces = _kernel_py.faces_from_nonfaces([0b0101, 0b1010], 0b1111)
    assert 0 in faces
    assert 0b0101 not in faces and 0b1111 not in faces
    assert len(faces) == 1 + 4 + 4
    assert _kernel_py.faces_from_nonfaces([0], 0b11) == []
    assert _kernel_py.faces_from_nonfaces([], 0b11) == [0, 1, 2, 3]
    # nonfaces outside sub_mask are skipped, however wide
    wide = [1 << 70 | 1, 1 << 65 | 1 << 64, 0b101]
    assert _kernel_py.faces_from_nonfaces(wide, 0b111) \
        == _kernel_py.faces_from_nonfaces([0b101], 0b111)


def test_faces_from_nonfaces_matches_subset_filter():
    rng = random.Random(7)
    for _ in range(200):
        nverts = rng.randrange(1, 9)
        full = (1 << nverts) - 1
        gens = [rng.getrandbits(nverts) for _ in range(rng.randrange(0, 5))]
        sub = rng.getrandbits(nverts) & ~(1 << rng.randrange(nverts))
        expected = [s for s in range(full + 1) if s & ~sub == 0
                    and not any(g & ~s == 0 for g in gens)]
        assert _kernel_py.faces_from_nonfaces(gens, sub) == expected, \
            (gens, sub)


# the six-vertex projective plane: torsion only, so QQ sees no
# cohomology while GF(2) does
RP2_FACETS = [0b010011, 0b100011, 0b001101, 0b100101, 0b011001, 0b001110,
              0b010110, 0b101010, 0b110100, 0b111000]


def _moore_space_faces():
    """A mod-3 Moore space: the circle 0, 1, 2, a ring r_0..r_8 wrapped
    three times around it, and the cone from 12 over the ring; H_1 is
    Z/3, so only GF(3) sees cohomology."""
    ring = [3 + i % 9 for i in range(10)]
    facets = []
    for i in range(9):
        a, b = i % 3, (i + 1) % 3
        facets += [(a, b, ring[i]), (b, ring[i], ring[i + 1]),
                   (ring[i], ring[i + 1], 12)]
    return downward_closure([sum(1 << v for v in f) for f in facets], 13)


def _random_complexes():
    """Seeded random complexes on at most 6 vertices, by nonfaces."""
    rng = random.Random(5)
    for _ in range(150):
        nverts = rng.randrange(1, 7)
        full = (1 << nverts) - 1
        gens = [rng.getrandbits(nverts) & full or 1
                for _ in range(rng.randrange(0, 5))]
        yield gens, _kernel_py.faces_from_nonfaces(gens, full)


def _excision_pairs():
    """Seeded random complexes on at most 7 vertices, each with every
    star-excision pair (del v, lk v) of it: the faces avoiding v whose
    union with v is not a face."""
    rng = random.Random(23)
    for _ in range(120):
        nverts = rng.randrange(1, 8)
        full = (1 << nverts) - 1
        gens = [rng.getrandbits(nverts) & full or 1
                for _ in range(rng.randrange(0, 6))]
        faces = _kernel_py.faces_from_nonfaces(gens, full)
        listed = set(faces)
        pairs = [(k, [f for f in faces if not f & 1 << k
                      and f | 1 << k not in listed])
                 for k in range(nverts) if 1 << k in listed]
        yield gens, faces, pairs


def test_cohomology_dims_known_values():
    assert _kernel_py.cohomology_dims([], 2) == []
    assert _kernel_py.cohomology_dims([0], 2) == [1]
    two_points = [0, 0b1, 0b10]
    assert _kernel_py.cohomology_dims(two_points, 2) == [0, 1]
    hollow = [0, 1, 2, 4, 0b011, 0b101, 0b110]
    assert _kernel_py.cohomology_dims(hollow, 2) == [0, 0, 1]
    assert _kernel_py.cohomology_dims(hollow, 32003) == [0, 0, 1]
    assert _kernel_py.cohomology_dims(hollow, 0) == [0, 0, 1]
    # (del 1, lk 1) of the hollow triangle, a relative pair: only the
    # edge 2-4 is left, and its boundary points lie in the link
    for p in (2, 32003):
        assert _kernel_py.cohomology_dims([0b110], p) == [0, 0, 1]
    faces = _moore_space_faces()
    assert len(faces) == 80
    for p in (3, 2, 5, 7, 32003, 0):
        expected = [0, 0, 1, 1] if p == 3 else [0, 0, 0, 0]
        assert _kernel_py.cohomology_dims(faces, p) \
            == _cohomology_dims_reference(faces, p) == expected, p


@pytest.mark.parametrize("p", [2, 3, 32003, 0],
                         ids=["GF(2)", "GF(3)", "GF(32003)", "QQ"])
def test_cohomology_dims_matches_reference_elimination(p):
    for gens, faces in _random_complexes():
        assert _kernel_py.cohomology_dims(faces, p) \
            == _cohomology_dims_reference(faces, p), gens


def test_cohomology_dims_over_qq_matches_fraction_elimination():
    faces = downward_closure(RP2_FACETS, 6)
    assert _kernel_py.cohomology_dims(faces, 0) \
        == _cohomology_dims_reference(faces) == [0, 0, 0, 0]
    assert _kernel_py.cohomology_dims(faces, 2) == [0, 0, 1, 1]


def _trimmed(dims):
    while dims and dims[-1] == 0:
        dims = dims[:-1]
    return dims


def test_cohomology_dims_of_star_excision_pairs():
    # H~*(X) = H*(del v, lk v) for every vertex v of X
    pairs = 0
    for gens, faces, excised in _excision_pairs():
        for p in (2, 3, 0):
            whole = _trimmed(_kernel_py.cohomology_dims(faces, p))
            for k, pair in excised:
                assert _trimmed(_kernel_py.cohomology_dims(pair, p)) \
                    == whole, (gens, k, p)
                pairs += 1
    assert pairs > 500


@pytest.mark.parametrize("p", [2, 3, 32003, 0],
                         ids=["GF(2)", "GF(3)", "GF(32003)", "QQ"])
def test_morse_cohomology_dims_matches_reference(p, monkeypatch):
    eliminated = []
    plain = _kernel_py.cohomology_dims

    def counting(face_masks, q):
        eliminated.append(face_masks)
        return plain(face_masks, q)

    monkeypatch.setattr(_kernel_py, "cohomology_dims", counting)

    def check(faces):
        eliminated.clear()
        assert _kernel_py.morse_cohomology_dims(faces, p) \
            == _cohomology_dims_reference(faces, p), (faces, p)
        return bool(eliminated)

    random_lists = [faces for _, faces in _random_complexes()]
    random_lists += [pair for _, _, excised in _excision_pairs()
                     for _, pair in excised]
    fell_back = sum(map(check, random_lists))
    assert len(random_lists) > 500
    assert fell_back < len(random_lists) // 10, fell_back
    # torsion puts cohomology over GF(2) or GF(3) in two degrees, so the
    # critical faces of any matching span two cardinalities
    assert check(downward_closure(RP2_FACETS, 6))
    assert check(_moore_space_faces())
