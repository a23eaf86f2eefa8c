"""The compute kernels.

The six functions every homology computation runs on, and the subset
order the tables and transversal lists are sorted in, implemented in
pure Python in ``flagposet._kernel_py`` and re-exported here; callers
use ``kernel.*``.  ``morse_cohomology_dims`` is ``cohomology_dims``
behind an element matching over the vertices in ascending index order;
it eliminates only when the unmatched faces span several cardinalities.
``IMPLEMENTATION`` names the implementation for run provenance.
"""

from flagposet._kernel_py import (
    cohomology_dims,
    faces_from_facets,
    faces_from_nonfaces,
    morse_cohomology_dims,
    rank_gf2,
    rank_mod_p,
    size_lex_sorted,
)

IMPLEMENTATION = "pure"
