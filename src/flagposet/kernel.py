"""The compute kernels.

The five functions every homology computation runs on, implemented in
pure Python in ``flagposet._kernel_py`` and re-exported here; callers
use ``kernel.*``.  ``IMPLEMENTATION`` names the implementation for run
provenance.
"""

from flagposet._kernel_py import (
    cohomology_dims,
    faces_from_facets,
    faces_from_nonfaces,
    rank_gf2,
    rank_mod_p,
)

IMPLEMENTATION = "pure"
