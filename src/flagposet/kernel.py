"""Kernel selection.

Exposes the five kernel functions, backed by the compiled Cython module
when it is importable and the input fits its 63-bit mask limit, and by
the pure-Python twin otherwise.  ``cohomology_dims`` with p = 0 (over QQ)
always runs on the pure twin, the only one with a characteristic-0
rank.  So does ``cohomology_dims`` on a face list without the empty
face: such a list is a relative pair (X, L), the faces of X outside a
subcomplex L, and boundary faces missing from it count as zero.  The
compiled twin assumes every boundary face is listed and writes out of
bounds when one is not.  Set ``FLAGPOSET_PURE=1`` to force the pure twin
(used by the benchmark and for debugging).
"""

from __future__ import annotations

import os

from flagposet import _kernel_py

_MASK_LIMIT = 1 << 63

if os.environ.get("FLAGPOSET_PURE"):
    _compiled = None
else:
    try:
        from flagposet import _kernel_c as _compiled  # type: ignore[attr-defined]
    except ImportError:
        _compiled = None

IMPLEMENTATION = "compiled" if _compiled is not None else "pure"


def rank_gf2(rows, ncols=None):
    if _compiled is not None:
        return _compiled.rank_gf2(rows, ncols)
    return _kernel_py.rank_gf2(rows, ncols)


def rank_mod_p(rows, p):
    if _compiled is not None and p < 2**31:
        return _compiled.rank_mod_p(rows, p)
    return _kernel_py.rank_mod_p(rows, p)


def faces_from_nonfaces(nonface_masks, sub_mask):
    if _compiled is not None and sub_mask < _MASK_LIMIT:
        # wider nonfaces lie outside sub_mask but overflow the compiled twin
        return _compiled.faces_from_nonfaces(
            [g for g in nonface_masks if g < _MASK_LIMIT], sub_mask)
    return _kernel_py.faces_from_nonfaces(nonface_masks, sub_mask)


def faces_from_facets(facet_masks):
    if _compiled is not None and all(f < _MASK_LIMIT for f in facet_masks):
        return _compiled.faces_from_facets(facet_masks)
    return _kernel_py.faces_from_facets(facet_masks)


def cohomology_dims(face_masks, p):
    if (
        _compiled is not None
        and 0 < p < 2**31
        and 0 in face_masks
        and max(face_masks) < _MASK_LIMIT
    ):
        return _compiled.cohomology_dims(face_masks, p)
    return _kernel_py.cohomology_dims(face_masks, p)
