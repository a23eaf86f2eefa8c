"""The compute kernels.

The five functions every homology computation runs on
(``faces_from_nonfaces``, ``cohomology_dims``, ``morse_cohomology_dims``,
``rank_gf2`` and ``rank_mod_p``) and ``size_lex_sorted``, the subset
order the tables and transversal lists are sorted in, implemented in
pure Python in ``flagposet._kernel_py`` and re-exported here; callers
use ``kernel.*``.  ``morse_cohomology_dims`` is ``cohomology_dims``
behind an element matching over the vertices in ascending index order;
it eliminates only when the unmatched faces span several cardinalities.
``IMPLEMENTATION`` names the implementation for run provenance.
"""

from flagposet._kernel_py import (
    cohomology_dims,
    faces_from_nonfaces,
    morse_cohomology_dims,
    rank_gf2,
    rank_mod_p,
    size_lex_sorted,
)

IMPLEMENTATION = "pure"
