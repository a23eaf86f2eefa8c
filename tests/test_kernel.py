"""The two kernel twins must agree exactly; a few hand-checked values
pin the semantics.

When the compiled twin is not installed, the twin tests build the
tracked C source with gcc into a temporary directory and load it from
there; they skip when that is not possible either.
"""

import importlib.util
import random
import shutil
import subprocess
import sysconfig
from fractions import Fraction
from pathlib import Path

import pytest

from flagposet import _kernel_py
from flagposet import kernel

try:
    from flagposet import _kernel_c as _installed_c
except ImportError:
    _installed_c = None

C_SOURCE = Path(_kernel_py.__file__).with_name("_kernel_c.c")


@pytest.fixture(scope="module")
def _kernel_c(tmp_path_factory):
    """The compiled twin: installed, or built here from the C source."""
    if _installed_c is not None:
        return _installed_c
    gcc = shutil.which("gcc")
    include = sysconfig.get_paths()["include"]
    if gcc is None or not C_SOURCE.exists() \
            or not Path(include, "Python.h").exists():
        pytest.skip("compiled kernel not built and no toolchain to build it")
    target = tmp_path_factory.mktemp("kernel_c") \
        / ("_kernel_c" + sysconfig.get_config_var("EXT_SUFFIX"))
    build = subprocess.run([gcc, "-O2", "-shared", "-fPIC", f"-I{include}",
                            str(C_SOURCE), "-o", str(target)],
                           capture_output=True, text=True, timeout=300)
    if build.returncode != 0:
        pytest.skip(f"compiled kernel failed to build: {build.stderr[-400:]}")
    spec = importlib.util.spec_from_file_location("flagposet._kernel_c",
                                                  target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rank_fraction(rows):
    """Reference rank over QQ by dense Fraction elimination."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for i in range(rank + 1, len(mat)):
            f = mat[i][col] / mat[rank][col]
            mat[i] = [x - f * y for x, y in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def _cohomology_dims_fraction(face_masks):
    """Reference reduced cohomology over QQ, straight from the
    definition: dim H^c = #faces of size c - rank d_c - rank d_(c-1)."""
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
        ranks.append(_rank_fraction(rows) if nxt else 0)
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
        expected = _rank_fraction(rows)
        assert _kernel_py.rank_qq(rows) == expected, rows
        drops_mod_3 += _kernel_py.rank_mod_p(rows, 3) < expected
    assert drops_mod_3 > 10


def test_faces_from_nonfaces_semantics():
    # square: nonfaces are the two diagonals
    faces = _kernel_py.faces_from_nonfaces([0b0101, 0b1010], 0b1111)
    assert 0 in faces
    assert 0b0101 not in faces and 0b1111 not in faces
    assert len(faces) == 1 + 4 + 4
    assert _kernel_py.faces_from_nonfaces([0], 0b11) == []
    assert _kernel_py.faces_from_nonfaces([], 0b11) == [0, 1, 2, 3]


def test_faces_from_facets_semantics():
    assert _kernel_py.faces_from_facets([]) == []
    assert _kernel_py.faces_from_facets([0]) == [0]
    assert _kernel_py.faces_from_facets([0b11, 0b101]) \
        == [0, 1, 2, 3, 4, 5]


def test_cohomology_dims_known_values():
    assert _kernel_py.cohomology_dims([], 2) == []
    assert _kernel_py.cohomology_dims([0], 2) == [1]
    two_points = [0, 0b1, 0b10]
    assert _kernel_py.cohomology_dims(two_points, 2) == [0, 1]
    hollow = [0, 1, 2, 4, 0b011, 0b101, 0b110]
    assert _kernel_py.cohomology_dims(hollow, 2) == [0, 0, 1]
    assert _kernel_py.cohomology_dims(hollow, 32003) == [0, 0, 1]
    assert _kernel_py.cohomology_dims(hollow, 0) == [0, 0, 1]


def test_cohomology_dims_over_qq_matches_fraction_elimination():
    rng = random.Random(5)
    for _ in range(150):
        nverts = rng.randrange(1, 7)
        full = (1 << nverts) - 1
        gens = [rng.getrandbits(nverts) & full or 1
                for _ in range(rng.randrange(0, 5))]
        faces = _kernel_py.faces_from_nonfaces(gens, full)
        assert _kernel_py.cohomology_dims(faces, 0) \
            == _cohomology_dims_fraction(faces)
    # the six-vertex projective plane: torsion only, so QQ sees no
    # cohomology while GF(2) does
    rp2 = [0b010011, 0b100011, 0b001101, 0b100101, 0b011001, 0b001110,
           0b010110, 0b101010, 0b110100, 0b111000]
    faces = _kernel_py.faces_from_facets(rp2)
    assert _kernel_py.cohomology_dims(faces, 0) \
        == _cohomology_dims_fraction(faces) == [0, 0, 0, 0]
    assert _kernel_py.cohomology_dims(faces, 2) == [0, 0, 1, 1]


def _trimmed(dims):
    while dims and dims[-1] == 0:
        dims = dims[:-1]
    return dims


def test_cohomology_dims_of_star_excision_pairs():
    # H~*(X) = H*(del v, lk v) for every vertex v of X: the pair's faces
    # are those avoiding v whose union with v is not a face
    rng = random.Random(23)
    pairs = 0
    for _ in range(120):
        nverts = rng.randrange(1, 8)
        full = (1 << nverts) - 1
        gens = [rng.getrandbits(nverts) & full or 1
                for _ in range(rng.randrange(0, 6))]
        faces = _kernel_py.faces_from_nonfaces(gens, full)
        listed = set(faces)
        for p in (2, 3, 0):
            whole = _trimmed(_kernel_py.cohomology_dims(faces, p))
            for k in range(nverts):
                v = 1 << k
                if v not in listed:
                    continue
                pair = [f for f in faces if not f & v and f | v not in listed]
                assert _trimmed(_kernel_py.cohomology_dims(pair, p)) \
                    == whole, (gens, k, p)
                pairs += 1
    assert pairs > 500


def test_twins_agree_on_random_ranks(_kernel_c):
    rng = random.Random(42)
    for _ in range(200):
        n = rng.randrange(0, 12)
        m = rng.randrange(1, 90)
        rows = [rng.getrandbits(m) for _ in range(n)]
        assert _kernel_c.rank_gf2(rows, m) == _kernel_py.rank_gf2(rows, m)
    for p in (3, 5, 32003):
        for _ in range(60):
            n = rng.randrange(0, 9)
            m = rng.randrange(1, 9)
            rows = [[rng.randrange(-6, 7) for _ in range(m)]
                    for _ in range(n)]
            assert _kernel_c.rank_mod_p(rows, p) \
                == _kernel_py.rank_mod_p(rows, p)


def test_twins_agree_on_random_complexes(_kernel_c):
    rng = random.Random(7)
    for _ in range(120):
        nverts = rng.randrange(1, 9)
        full = (1 << nverts) - 1
        gens = [rng.getrandbits(nverts) & full or 1
                for _ in range(rng.randrange(0, 5))]
        sub = rng.getrandbits(nverts) & full
        fc = _kernel_c.faces_from_nonfaces(gens, sub)
        fpu = _kernel_py.faces_from_nonfaces(gens, sub)
        assert fc == fpu
        for p in (2, 32003):
            assert _kernel_c.cohomology_dims(fc, p) \
                == _kernel_py.cohomology_dims(fpu, p)
        facets = [rng.getrandbits(nverts) & full
                  for _ in range(rng.randrange(1, 5))]
        assert _kernel_c.faces_from_facets(facets) \
            == _kernel_py.faces_from_facets(facets)


def test_dispatcher_exposes_choice():
    assert kernel.IMPLEMENTATION in ("pure", "compiled")
    assert kernel.rank_gf2([0b1], 1) == 1


class _RecordingTwin:
    """Stands in for the compiled twin and records what it is handed."""

    def __init__(self):
        self.calls = []

    def cohomology_dims(self, face_masks, p):
        self.calls.append(p)
        return _kernel_py.cohomology_dims(face_masks, p)


def test_dispatcher_keeps_qq_on_the_pure_twin(monkeypatch):
    twin = _RecordingTwin()
    monkeypatch.setattr(kernel, "_compiled", twin)
    hollow = [0, 1, 2, 4, 0b011, 0b101, 0b110]
    for p in (0, 2, 32003, 2**31 + 11):
        assert kernel.cohomology_dims(hollow, p) == [0, 0, 1]
    assert twin.calls == [2, 32003]


def test_dispatcher_keeps_relative_pairs_on_the_pure_twin(monkeypatch):
    twin = _RecordingTwin()
    monkeypatch.setattr(kernel, "_compiled", twin)
    hollow = [0, 1, 2, 4, 0b011, 0b101, 0b110]
    # (del 1, lk 1) of the hollow triangle: only the edge 2-4 is left,
    # and its boundary points lie in the link
    assert kernel.cohomology_dims([0b110], 2) == [0, 0, 1]
    assert kernel.cohomology_dims([0b110], 32003) == [0, 0, 1]
    assert kernel.cohomology_dims([], 2) == []
    assert twin.calls == []
    assert kernel.cohomology_dims(hollow, 2) == [0, 0, 1]
    assert twin.calls == [2]


def test_dispatcher_drops_wide_nonfaces_for_compiled_twin(_kernel_c,
                                                          monkeypatch):
    monkeypatch.setattr(kernel, "_compiled", _kernel_c)
    wide = [1 << 70 | 1, 1 << 65 | 1 << 64, 0b101]
    assert kernel.faces_from_nonfaces(wide, 0b111) \
        == _kernel_py.faces_from_nonfaces(wide, 0b111)
