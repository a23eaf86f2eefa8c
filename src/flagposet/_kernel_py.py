"""Pure-Python compute kernels, re-exported by ``flagposet.kernel``.

Faces and hyperedges are encoded as integer bitmasks of any width over
a vertex numbering chosen by the caller.  ``cohomology_dims`` with p = 0
computes over QQ through the fraction-free rank ``rank_qq``.  A face
list without the empty face is read as a relative pair: the faces of X
outside a subcomplex L.  ``morse_cohomology_dims`` has the same
contract; it first matches F with F + w for each vertex w in ascending
index order and eliminates only when the unmatched faces span several
cardinalities.  ``tests/test_kernel.py`` checks every function against
hand-checked values and independent brute-force references.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def rank_gf2(rows: Sequence[int], ncols: int | None = None) -> int:
    """Rank over GF(2) of a matrix whose rows are bitmasks."""
    basis: dict[int, int] = {}
    rank = 0
    for row in rows:
        r = row
        while r:
            low = r & -r
            b = basis.get(low)
            if b is None:
                basis[low] = r
                rank += 1
                break
            r ^= b
    return rank


def rank_mod_p(rows: Sequence[Sequence[int]], p: int) -> int:
    """Rank over GF(p) of a dense integer matrix (p an odd prime here,
    but any prime works)."""
    mat = [[x % p for x in row] for row in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        pivot = -1
        for i in range(rank, len(mat)):
            if mat[i][col]:
                pivot = i
                break
        if pivot < 0:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], -1, p)
        prow = mat[rank]
        if inv != 1:
            for j in range(col, ncols):
                prow[j] = prow[j] * inv % p
        for i in range(rank + 1, len(mat)):
            f = mat[i][col]
            if f:
                row = mat[i]
                for j in range(col, ncols):
                    row[j] = (row[j] - f * prow[j]) % p
        rank += 1
        if rank == len(mat):
            break
    return rank


def rank_qq(rows: Sequence[Sequence[int]]) -> int:
    """Rank over QQ of a dense integer matrix, by fraction-free (Bareiss)
    elimination: every entry stays an integer minor of the input, so each
    division by the previous pivot is exact."""
    mat = [list(row) for row in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        prow = mat[rank]
        pv = prow[col]
        for i in range(rank + 1, len(mat)):
            row = mat[i]
            f = row[col]
            if f:
                mat[i] = [(pv * x - f * y) // prev for x, y in zip(row, prow)]
            elif pv != prev:
                mat[i] = [pv * x // prev for x in row]
        prev = pv
        rank += 1
        if rank == len(mat):
            break
    return rank


def size_lex_sorted(masks: Iterable[int]) -> list[int]:
    """The masks ordered by bit count, then by their ascending lists of
    bit indices compared lexicographically.

    Among masks of one bit count that list order is the descending order
    of the masks with their bits reversed, i.e. the ascending order of
    the reversed complements, so each mask gets one integer key: its bit
    count above its reversed complement.
    """
    masks = list(masks)
    width = 0
    for m in masks:
        width |= m
    width = width.bit_length()
    full = (1 << width) - 1
    spec = f"0{width}b"
    return sorted(masks, key=lambda m: m.bit_count() << width
                  | int(format(full ^ m, spec)[::-1], 2))


def faces_from_nonfaces(nonface_masks: Sequence[int], sub_mask: int) -> list[int]:
    """All subsets of ``sub_mask`` containing no nonface, sorted ascending.

    Nonfaces not contained in ``sub_mask`` are irrelevant and skipped.
    A zero nonface makes every subset a nonface (void result).

    The faces are built vertex by vertex in ascending order: each face
    F found so far lies below the next vertex v, and F | v is a face
    exactly when no nonface whose top vertex is v lies inside it.  Edge
    nonfaces are one bitmask of forbidden lower vertices per v, larger
    ones a short list.  Every new face exceeds every old one, so the
    list stays sorted.
    """
    verts = sub_mask
    forbidden: dict[int, int] = {}
    larger: dict[int, list[int]] = {}
    for g in nonface_masks:
        if g & ~sub_mask:
            continue
        if not g:
            return []
        top = 1 << (g.bit_length() - 1)
        rest = g ^ top
        if not rest:
            verts &= ~top
        elif rest & (rest - 1):
            larger.setdefault(top, []).append(rest)
        else:
            forbidden[top] = forbidden.get(top, 0) | rest
    faces = [0]
    while verts:
        v = verts & -verts
        verts ^= v
        forbid = forbidden.get(v, 0)
        kept = [f for f in faces if not f & forbid]
        for r in larger.get(v, ()):
            kept = [f for f in kept if f & r != r]
        faces += [f | v for f in kept]
    return faces


def cohomology_dims(face_masks: Sequence[int], p: int) -> list[int]:
    """Reduced cohomology dimensions over GF(p), or over QQ when p = 0,
    of the complex whose full face list (including the empty face) is
    ``face_masks``.

    Returns ``[dim H^-1, dim H^0, ..., dim H^(d)]`` where d+1 is the
    largest face cardinality; empty list for the void complex.

    A list without the empty face is read as a relative pair (X, L):
    the faces of X not in the nonempty subcomplex L.  A boundary face
    missing from the list lies in L and its cochain is zero, so the
    result is ``[dim H^-1(X, L), dim H^0(X, L), ...]``, indexed by face
    cardinality exactly as for a complex.
    """
    if not face_masks:
        return []
    levels: dict[int, list[int]] = {}
    for f in face_masks:
        levels.setdefault(f.bit_count(), []).append(f)
    maxc = max(levels)
    ordered = [sorted(levels.get(c, [])) for c in range(maxc + 1)]
    index = [{f: i for i, f in enumerate(lv)} for lv in ordered]

    dims = []
    prev_rank = 0
    for c in range(maxc + 1):
        cur = ordered[c]
        nxt = ordered[c + 1] if c + 1 <= maxc else []
        if not nxt:
            r = 0
        elif p == 2:
            rows = [0] * len(cur)
            get = index[c].get
            for j, g in enumerate(nxt):
                m = g
                while m:
                    b = m & -m
                    m ^= b
                    i = get(g ^ b)
                    if i is not None:
                        rows[i] |= 1 << j
            r = rank_gf2(rows, len(nxt))
        else:
            rows = [[0] * len(nxt) for _ in cur]
            get = index[c].get
            for j, g in enumerate(nxt):
                m = g
                while m:
                    b = m & -m
                    m ^= b
                    f = g ^ b
                    i = get(f)
                    if i is not None:
                        rows[i][j] = -1 if (f & (b - 1)).bit_count() & 1 else 1
            r = rank_mod_p(rows, p) if p else rank_qq(rows)
        dims.append(len(cur) - r - prev_rank)
        prev_rank = r
    return dims


def morse_cohomology_dims(face_masks: Sequence[int], p: int) -> list[int]:
    """``cohomology_dims(face_masks, p)``, read off an element matching
    when it settles the answer.

    For each vertex w in ascending index order, every listed face F
    without w is matched with F | w when both are still unmatched.  The
    matching is acyclic, so the unmatched (critical) faces carry a
    Morse complex with the listed faces' cohomology over every field.
    No critical face means zero cohomology; critical faces of a single
    cardinality c have no differential between them, so H^(c-1) has
    their count as its dimension.  Only critical faces of several
    cardinalities fall back to the elimination on the original list.
    """
    if not face_masks:
        return []
    unmatched = set(face_masks)
    verts = 0
    for f in face_masks:
        verts |= f
    while verts and unmatched:
        w = verts & -verts
        verts ^= w
        lower = [f for f in unmatched if not f & w and f | w in unmatched]
        unmatched.difference_update(lower)
        unmatched.difference_update([f | w for f in lower])
    sizes = set(map(int.bit_count, unmatched))
    if len(sizes) > 1:
        return cohomology_dims(face_masks, p)
    dims = [0] * (max(map(int.bit_count, face_masks)) + 1)
    if sizes:
        dims[sizes.pop()] = len(unmatched)
    return dims
