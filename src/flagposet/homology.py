"""Exact reduced cohomology, multigraded Betti numbers, and the
homological oracles.

Conventions, pinned once and validated by the test suite:

* H(void) = 0 and H({empty face}) = t^-1; both are required for the
  join/product identities to hold verbatim.
* Hochster indexing: beta_{j,A}(I) = dim H^(|A|-j-2) of the restriction
  of the Stanley-Reisner complex of I to A, for j >= 0.
* The Betti polynomial of a multidegree is t^2 * H(restriction, t),
  which equals sum_j t^(|A|-j) beta_{j,A} for nonempty A and extends it
  to A = {} (value t, the rank-one free module of the quotient's
  resolution).

Betti numbers come three ways, all from nonface bitmasks inside a
vertex mask: ``SquarefreeIdeal.masks`` or the poset's cover edges.
Wherever faces are listed and eliminated, every field goes through one
elimination, ``kernel.cohomology_dims``: Gaussian elimination over
GF(p), fraction-free elimination over QQ.

* Tables and oracles (``betti_multidegree``, ``full_betti_table``,
  ``oracle_verdicts``, ``is_cm_oracle`` and
  ``has_linear_resolution_oracle``) use star excision, Jonsson's
  element matching.  For a vertex v of the restriction D_A its star
  is a cone, so H~*(D_A) = H*(del v, lk v).  The cochains of that
  pair are the faces F of D_A
  inside A - v with F + v not a face, i.e. F contains t_k = g_k - v for
  a nonface g_k with v in g_k; the coboundary is the usual one with the
  faces of lk v counting as zero.  When v lies in a single nonface g,
  the pair is, up to signs and with every cardinality raised by |t|,
  the complex on A - g whose nonfaces are n - t for the other nonfaces
  n.  One pass over the nonfaces builds ``once``, their union, and
  ``many``, the vertices in two or more of them; a vertex outside
  ``once`` is a cone (zero), and every nonface with a vertex in
  ``once`` but not ``many`` is peeled off in the same round, the
  cardinalities raised by the size of the union T of the peeled t's.
  A peel leaves every other vertex in as many nonfaces as before, so
  one round leaves no single vertex.  It stops at zero on a void
  complex (an empty nonface) and at one class on {empty face} (no
  vertex left).  Otherwise every vertex lies in two or more nonfaces,
  and the complex left after the round is keyed by its
  order-preserving relabelling; a memo owned by one walk of the lcm
  lattice (``_lcm_walk``) holds the dims of every key it has met, so
  each residual shape is computed once per walk: example 4.9's table
  meets 119 shapes in its 1,407 multidegrees.  A new shape is first
  collapsed (``_collapsed_dims``) by moves that keep its cohomology up
  to a shift: repeated and non-minimal nonfaces are dropped, the
  peeling round runs again (a one-vertex nonface, a vertex that is not
  there, is peeled with no shift), and a dominated vertex, one whose
  link is a cone (Barmak-Minian, *Strong homotopy types, nerves and
  collapses*, 2012), is deleted, until none applies.  Only what is
  left is matched: v is the vertex in the fewest nonfaces, and
  ``kernel.morse_cohomology_dims`` matches the pair's faces over every
  other vertex in turn, eliminating only when the unmatched faces span
  several degrees.  All 119 shapes of example 4.9 collapse, so its table
  lists no face and matches nothing.  The walk visits the lcm masks
  largest first.  ``full_betti_table`` takes every mask: it writes the
  dims vector straight into table entries and builds A's variable set
  only when it has a nonzero entry.  The oracles build no table and stop
  once their verdicts are settled: ``has_linear_resolution_oracle`` at
  the first entry off the linear strand, and ``oracle_verdicts`` once
  the ideal's walk has seen an entry off the strand and either one with
  j >= height (then R/I is neither Cohen-Macaulay nor linear) or only
  masks with fewer than height elements remain; the Eagon-Reiner walk of
  the dual stops at its own first witness.
* ``restriction_cohomology_poly`` and ``betti_polynomial_bruteforce``
  stay the literal Hochster computation on the whole restriction, with
  plain ``kernel.cohomology_dims``.  They are the reference the excised
  tables and the layer product are checked against, so a fault in
  either cannot hide behind a shared shortcut.
* ``betti_polynomial_fast`` and ``graded_betti_table`` are the layer
  product over cover edges, on masks over element positions that
  ``complexes.layer_sides`` splits into (B_i, A_{i+1}).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from . import kernel
from .complexes import layer_sides
from .errors import (BudgetExceeded, InvalidParameter, UnknownVariable,
                     VariableClash)
from .fields import GF2, FieldSpec, LaurentPoly, poly_from_dims
from .ideals import SquarefreeIdeal, alexander_dual, flag_ideal
from .posets import GradedPoset

DEFAULT_BETTI_VARS = 18


# ---------------------------------------------------------------------------
# Reduced cohomology
# ---------------------------------------------------------------------------

def _poly_from_nonfaces(nonface_masks: Sequence[int], sub_mask: int,
                        f: FieldSpec) -> LaurentPoly:
    faces = kernel.faces_from_nonfaces(nonface_masks, sub_mask)
    return poly_from_dims(kernel.cohomology_dims(faces, f.p or 0))


# ---------------------------------------------------------------------------
# Hochster formula and Betti polynomials
# ---------------------------------------------------------------------------

def _multidegree_mask(ideal: SquarefreeIdeal,
                      multidegree: Iterable[str]) -> int:
    index = {v: i for i, v in enumerate(ideal.variables)}
    mask = 0
    for v in multidegree:
        if v not in index:
            raise UnknownVariable(f"unknown variable: {v}")
        mask |= 1 << index[v]
    return mask


def restriction_cohomology_poly(ideal: SquarefreeIdeal,
                                multidegree: Iterable[str],
                                f: FieldSpec = GF2) -> LaurentPoly:
    """H(restriction of the Stanley-Reisner complex to A, t).

    When no generator support lies inside A the restriction is the full
    simplex on A (contractible for nonempty A, the irrelevant complex
    for A = {}).
    """
    mask = _multidegree_mask(ideal, multidegree)
    gens = [g for g in ideal.masks if g & ~mask == 0]
    if not gens:
        return LaurentPoly.t_power(-1) if mask == 0 else LaurentPoly.zero()
    return _poly_from_nonfaces(gens, mask, f)


def _compressed(n: int, mask: int) -> int:
    """``n`` relabelled onto the positions of ``mask`` in order: bit b
    of n (within mask) goes to bit |mask below b|."""
    x = 0
    while n:
        b = n & -n
        n ^= b
        x |= 1 << (mask & (b - 1)).bit_count()
    return x


def _peeled(inside: Sequence[int], mask: int
            ) -> tuple[list[int], int, int] | None:
    """One peeling round of the complex on ``mask`` whose nonfaces are
    ``inside``: ``(nonfaces, mask, shift)`` of the complex left, whose
    cohomology raised by ``shift`` is the input's, or None when the
    input is a cone or the round leaves a void complex (zero).

    One pass over the nonfaces gives ``once``, their union, and
    ``many``, the vertices in two or more of them (a repeated nonface
    counts twice).  A vertex of ``mask`` outside ``once`` is a cone
    (with no nonface at all, a simplex): zero.

    A vertex v in a single nonface g peels g off: the pair (del v,
    lk v) has the cochains t | G with t = g - v and G a face of the
    complex on mask - g whose nonfaces are n - t for the other n; the
    coboundaries agree up to the sign of each cochain, so the pair is
    that complex with every cardinality raised by |t|, over every
    field.  One round peels every nonface g that holds a vertex of
    ``once & ~many``, with v_g its lowest such vertex and T the union
    of the g - v_g: the result is the complex on mask minus every
    peeled g whose nonfaces are n - T for the others, raised by |T|.
    That is the peels made one after another.  A single vertex v2 of
    g2 lies in no other nonface, so it is not in t1 = g1 - v1 and is
    still single in g2 - t1 after g1 is peeled; peeling it removes the
    vertices g1 | g2, takes t1 | t2 out of the other nonfaces and
    raises by |t1| + |t2 - t1| = |t1 | t2|.  Induction gives the round.
    The round is the only one: a vertex w that survives it lies in no
    peeled nonface and not in T, so it is in exactly as many nonfaces
    as before, two or more.  An empty nonface after the round (void,
    and peeling keeps it empty) gives zero; an empty mask left is
    {empty face}.
    """
    once = many = 0
    for g in inside:
        many |= once & g
        once |= g
    if mask & ~once:
        return None
    single = once & ~many
    gone = peeled = 0
    kept = []
    for g in inside:
        s = g & single
        if s:
            gone |= g
            peeled |= g ^ (s & -s)
        else:
            kept.append(g)
    inside = [n & ~peeled for n in kept]
    if 0 in inside:
        return None
    return inside, mask & ~gone, peeled.bit_count()


def _excised_dims(inside: Sequence[int], mask: int, p: int,
                  memo: dict[tuple[int, frozenset[int]], list[int]]
                  ) -> list[int]:
    """``[dim H^-1, dim H^0, ...]`` of the complex on ``mask`` whose
    nonfaces are ``inside`` (every one within ``mask``; they need not
    be minimal, and one may be empty), by star excision.

    One peeling round (``_peeled``) either settles the complex (zero on
    a cone or a void complex, one class at cardinality |T| on an empty
    mask) or leaves every vertex in two or more nonfaces.  The residual
    complex is then looked up in ``memo`` under its order-preserving
    relabelling: the number of vertices left and the set of nonfaces
    compressed onto the positions of ``mask`` (``_compressed``).
    Relabelling is a simplicial isomorphism, and a repeated nonface
    does not change the complex, so every complex under one key has the
    same cohomology.  On a miss ``_collapsed_dims`` computes the dims,
    which are stored under the key before the shift by |T|.  The memo
    holds dims over the field of ``p`` only: each walk of the lcm
    lattice (``_lcm_walk``'s callers) owns one for its length and
    ``betti_multidegree`` passes a fresh one, so no entry crosses
    fields or ideals.
    """
    peeled = _peeled(inside, mask)
    if peeled is None:
        return []
    inside, mask, shift = peeled
    if not mask:
        return [0] * shift + [1]
    key = (mask.bit_count(), frozenset(_compressed(n, mask) for n in inside))
    dims = memo.get(key)
    if dims is None:
        dims = memo[key] = _collapsed_dims(inside, mask, p)
    return [0] * shift + dims if dims else []


def _collapsed_dims(inside: list[int], mask: int, p: int) -> list[int]:
    """``[dim H^-1, dim H^0, ...]`` of the complex on ``mask`` whose
    nonfaces are ``inside``, as for ``_excised_dims`` (which passes a
    residual shape, with no vertex single): the complex is first
    reduced by moves that keep its cohomology up to a shift, and only
    what is left is matched.

    The moves, repeated until none applies:

    * Repeated and non-minimal nonfaces are dropped; the complex is the
      same.
    * A peeling round (``_peeled``), with its exits: zero on a cone or
      a void complex, one class at the accumulated shift on an empty
      mask.  After the drop a vertex may be single, and a one-vertex
      nonface {u} (u is not a vertex of the complex) is peeled with
      t = {} and no shift: u leaves the mask with its nonface.
    * A dominated vertex is deleted (Barmak-Minian: its link is a cone,
      so the complex has the homotopy type of its deletion, over every
      field).  With minimal nonfaces, w is dominated by u != w when
      every nonface n with u in n has a nonface m with w in m and
      m - w inside n - u; then for a face F of lk w, a minimal nonface
      inside F + u + w would contain u, and its m would lie inside
      F + w.  The deletion's minimal nonfaces are those avoiding w.
      The test is bit-parallel: for a = n - u, the nonfaces m with one
      vertex outside a name that vertex as witnessed, their OR is taken
      and the ORs are ANDed over every n through u; any bit left other
      than u is dominated.  The vertices u are tried in ascending order
      and the lowest dominated bit is deleted.  For independence
      complexes this is Engstrom's fold: N(u) inside N(w).

    The peeling round runs again after each drop or deletion, so a
    deletion is only tried once no vertex is single.  Whatever is left
    is matched: v is the vertex in the fewest nonfaces (ties to the
    lowest index), and the pair's faces, the disjoint union over k of
    t_k | G with G avoiding every other nonface and every earlier t_j,
    all relative to t_k, go to ``kernel.morse_cohomology_dims``.
    """
    shift = 0
    while True:
        minimal: list[int] = []
        for n in sorted(set(inside), key=lambda n: (n.bit_count(), n)):
            if all(m & ~n for m in minimal):
                minimal.append(n)
        peeled = _peeled(minimal, mask)
        if peeled is None:
            return []
        inside, rest, s = peeled
        shift += s
        if not rest:
            return [0] * shift + [1]
        if rest != mask:
            mask = rest
            continue
        w = 0
        u_bits = mask
        while u_bits and not w:
            u = u_bits & -u_bits
            u_bits ^= u
            dominated = mask ^ u
            for n in inside:
                if n & u:
                    a = n ^ u
                    witnessed = 0
                    for m in inside:
                        b = m & ~a
                        if not b & (b - 1):
                            witnessed |= b
                    dominated &= witnessed
                    if not dominated:
                        break
            w = dominated & -dominated
        if not w:
            break
        mask ^= w
        inside = [n for n in inside if not n & w]
    vertices = [1 << x for x in range(mask.bit_length()) if mask >> x & 1]
    v = min(vertices, key=lambda b: sum(1 for g in inside if g & b))
    links = [g ^ v for g in inside if g & v]
    others = [g for g in inside if not g & v]
    rest = mask ^ v
    faces: list[int] = []
    for k, t in enumerate(links):
        nonfaces = [n & ~t for n in others] + [s & ~t for s in links[:k]]
        faces += [t | x for x in
                  kernel.faces_from_nonfaces(nonfaces, rest & ~t)]
    dims = kernel.morse_cohomology_dims(faces, p)
    return [0] * shift + dims if dims else []


def _betti_vector(dims: list[int], n: int) -> list[int]:
    """(beta_0, ..., beta_{n-1}) of an n-element multidegree from its
    restriction's dims: beta_j = dim H^(n-j-2), i.e. ``dims[n-j-1]``."""
    return [dims[k] if k < len(dims) else 0 for k in range(n - 1, -1, -1)]


def betti_multidegree(ideal: SquarefreeIdeal, multidegree: Iterable[str],
                      f: FieldSpec = GF2,
                      budget: int = DEFAULT_BETTI_VARS) -> list[int]:
    """The vector (beta_{0,A}, ..., beta_{|A|-1,A}) via Hochster's
    formula: beta_{j,A} = dim H^(|A|-j-2) of the restriction, computed
    by star excision (see the module docstring)."""
    a = frozenset(multidegree)
    if len(a) > budget:
        raise BudgetExceeded(f"multidegree larger than budget {budget}")
    mask = _multidegree_mask(ideal, a)
    inside = [g for g in ideal.masks if not g & ~mask]
    dims = _excised_dims(inside, mask, f.p or 0, {})
    return _betti_vector(dims, len(a))


def betti_polynomial_bruteforce(ideal: SquarefreeIdeal,
                                multidegree: Iterable[str],
                                f: FieldSpec = GF2) -> LaurentPoly:
    """t^2 * H(restriction, t) = sum_j t^(|A|-j) beta_{j,A}."""
    return restriction_cohomology_poly(ideal, multidegree, f).shift(2)


def _layer_product(g: GradedPoset, f: FieldSpec
                   ) -> Callable[[int], LaurentPoly]:
    """The layer product of ``betti_polynomial_fast`` on a multidegree
    given as a mask over element positions, with the cover edges (in
    ``g.covers`` order) encoded once."""
    covers = [1 << x | 1 << y
              for x, ys in enumerate(g.poset.child_indices) for y in ys]

    def product(a: int) -> LaurentPoly:
        out = LaurentPoly.t_power(g.rbar())
        for bottom, top in layer_sides(g, a):
            out = out * _poly_from_nonfaces(covers, bottom | top, f)
            if out.is_zero():
                break
        return out

    return product


def betti_polynomial_fast(g: GradedPoset, multidegree: Iterable[str],
                          f: FieldSpec = GF2) -> LaurentPoly:
    """Join-decomposition product: t^rbar times the product of the
    cohomology polynomials of the layer complexes of the multidegree.

    X_i(A), the independence complex of the cover edges on B_i union
    A_{i+1}, is the restriction to those vertices of the complex whose
    nonfaces are the cover edges of the poset.

    The empty poset (rank 0, zero ideal) is the one case outside the
    product formula; its only multidegree is empty and its polynomial
    is t, the rank-one free module of the quotient's resolution.
    """
    if g.rbar() == 0:
        return LaurentPoly.t_power(1)
    index = g.poset.index
    return _layer_product(g, f)(sum({1 << index(e) for e in multidegree}))


@dataclass
class BettiTable:
    """Nonzero multigraded Betti numbers beta_{j,A} of an ideal."""

    variables: tuple[str, ...]
    entries: dict[tuple[int, frozenset[str]], int]
    field: FieldSpec = field(default=GF2)

    def total(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for (j, _), b in self.entries.items():
            out[j] = out.get(j, 0) + b
        return out

    def projective_dimension_of_quotient(self) -> int:
        """projdim(R/I) = 1 + max homological index of the ideal."""
        if not self.entries:
            return 0
        return 1 + max(j for j, _ in self.entries)

    def is_linear(self, degree: int) -> bool:
        return all(len(a) == j + degree for j, a in self.entries)

    def to_csv(self) -> str:
        index = {v: i for i, v in enumerate(self.variables)}
        lines = ["j,|A|,A,beta"]
        keys = sorted(self.entries,
                      key=lambda k: (k[0], len(k[1]),
                                     sorted(index[v] for v in k[1])))
        for j, a in keys:
            lines.append(f"{j},{len(a)},{';'.join(sorted(a))},"
                         f"{self.entries[(j, a)]}")
        return "\n".join(lines) + "\n"


def _lcm_unions(gen_masks: Sequence[int]) -> set[int]:
    """All unions of the generator masks."""
    unions: set[int] = set()
    for g in gen_masks:
        unions |= {a | g for a in unions}
        unions.add(g)
    return unions


def _variable_set(names: Sequence[str], mask: int) -> frozenset[str]:
    out = []
    while mask:
        b = mask & -mask
        mask ^= b
        out.append(names[b.bit_length() - 1])
    return frozenset(out)


def lcm_lattice(ideal: SquarefreeIdeal) -> list[frozenset[str]]:
    """All unions of generator supports (multidegrees that can carry a
    nonzero Betti number; anything else restricts to a cone), ordered by
    size and then by their sorted variable indices."""
    return [_variable_set(ideal.variables, m)
            for m in kernel.size_lex_sorted(_lcm_unions(ideal.masks))]


def _check_betti_budget(ideal: SquarefreeIdeal, budget: int) -> None:
    if len(ideal.variables) > budget:
        raise BudgetExceeded(f"Betti table limited to {budget} variables")


def _lcm_walk(ideal: SquarefreeIdeal) -> Iterator[tuple[int, list[int]]]:
    """Each lcm mask of the ideal, largest first (by size, then by
    value), with the generator masks inside it.

    Candidate multidegrees are the unions of generator supports: if some
    vertex of A lies in no generator inside A, the restriction is a cone
    over it and contributes nothing.  Each caller passes the generators
    inside a mask to ``_excised_dims`` with one memo of residual shapes
    for the whole walk; for an n-element mask a nonzero ``dims[k]`` with
    k < n is beta_{n-1-k,A}.
    """
    # by value, then stably by size: two sorts with no Python key call
    masks = sorted(_lcm_unions(ideal.masks), reverse=True)
    masks.sort(key=int.bit_count, reverse=True)
    for mask in masks:
        outside = ~mask
        yield mask, [g for g in ideal.masks if not g & outside]


def full_betti_table(ideal: SquarefreeIdeal, f: FieldSpec = GF2,
                     budget: int = DEFAULT_BETTI_VARS) -> BettiTable:
    """All nonzero beta_{j,A}, each by ``betti_multidegree``'s star
    excision, read off one walk of the lcm lattice (``_lcm_walk``):
    beta_{j,A} = dim H^(|A|-j-2) straight from the excised dims."""
    _check_betti_budget(ideal, budget)
    names = ideal.variables
    entries: dict[tuple[int, frozenset[str]], int] = {}
    memo: dict[tuple[int, frozenset[int]], list[int]] = {}
    for mask, inside in _lcm_walk(ideal):
        dims = _excised_dims(inside, mask, f.p or 0, memo)
        n = mask.bit_count()
        a = None
        for k in range(min(len(dims), n) - 1, -1, -1):
            if dims[k]:
                if a is None:
                    a = _variable_set(names, mask)
                entries[(n - 1 - k, a)] = dims[k]
    return BettiTable(ideal.variables, entries, f)


def graded_betti_table(g: GradedPoset, f: FieldSpec = GF2) -> BettiTable:
    """All nonzero beta_{j,A} of the flag ideal of g, from the layer
    product on every lcm-lattice multidegree, in ``lcm_lattice`` order;
    A's variable set is built only when it has a nonzero entry."""
    ideal = flag_ideal(g)
    # flag_ideal takes g.elements as its variables, so bit x of an lcm
    # mask is element position x, the bits layer_sides reads
    product = _layer_product(g, f)
    entries: dict[tuple[int, frozenset[str]], int] = {}
    for mask in kernel.size_lex_sorted(_lcm_unions(ideal.masks)):
        n = mask.bit_count()
        a = None
        for e, c in product(mask).coeffs.items():
            if e <= n:
                if a is None:
                    a = _variable_set(ideal.variables, mask)
                entries[(n - e, a)] = c
    return BettiTable(ideal.variables, entries, f)


def component_betti_assembly(tables: Sequence[BettiTable]) -> BettiTable:
    """Combine tables of ideals in pairwise disjoint variables.

    Convolution in quotient-ring indexing: beta_{i,A|B}(R/(I+J)) =
    sum over j+k=i of beta_{j,A}(R/I) * beta_{k,B}(R/J); the tables
    store ideal indices, hence the +-1 shifts.  Every table must be over
    the same field; tables over different fields raise
    ``InvalidParameter``.
    """
    if not tables:
        raise VariableClash("need at least one table")
    fields = sorted({str(t.field) for t in tables})
    if len(fields) > 1:
        raise InvalidParameter(
            f"tables over different fields: {', '.join(fields)}")
    seen_vars: set[str] = set()
    for t in tables:
        overlap = seen_vars & set(t.variables)
        if overlap:
            raise VariableClash(f"shared variables: {sorted(overlap)}")
        seen_vars |= set(t.variables)

    def quotient_form(t: BettiTable) -> dict[tuple[int, frozenset[str]], int]:
        out = {(0, frozenset()): 1}
        for (j, a), b in t.entries.items():
            out[(j + 1, a)] = b
        return out

    acc = quotient_form(tables[0])
    variables: tuple[str, ...] = tables[0].variables
    for t in tables[1:]:
        nxt: dict[tuple[int, frozenset[str]], int] = {}
        for (j, a), b in acc.items():
            for (k, c), d in quotient_form(t).items():
                key = (j + k, a | c)
                nxt[key] = nxt.get(key, 0) + b * d
        acc = nxt
        variables = variables + t.variables
    entries = {(j - 1, a): b for (j, a), b in acc.items() if j >= 1 and b}
    return BettiTable(variables, entries, tables[0].field)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def has_linear_resolution_oracle(ideal: SquarefreeIdeal, f: FieldSpec = GF2,
                                 budget: int = DEFAULT_BETTI_VARS) -> bool:
    """Every nonzero beta_{j,A} has |A| = j + d, where d is the common
    generator degree; the zero ideal passes vacuously and an ideal not
    generated in a single degree fails.

    The lcm lattice is walked largest first (``_lcm_walk``) and the
    walk stops at the first entry off that strand; no table is built.
    """
    if not ideal.generators:
        return True
    if not ideal.is_equigenerated():
        return False
    _check_betti_budget(ideal, budget)
    strand = ideal.generator_degree() - 1
    memo: dict[tuple[int, frozenset[int]], list[int]] = {}
    for mask, inside in _lcm_walk(ideal):
        dims = _excised_dims(inside, mask, f.p or 0, memo)
        for k in range(min(len(dims), mask.bit_count())):
            if dims[k] and k != strand:
                return False
    return True


def is_cm_oracle(ideal: SquarefreeIdeal, f: FieldSpec = GF2,
                 budget: int = DEFAULT_BETTI_VARS) -> bool:
    """Cohen-Macaulayness of R/I.

    Primary route: the Alexander dual has a linear resolution
    (Eagon-Reiner), decided by ``has_linear_resolution_oracle``'s walk.
    Cross-checked against projdim(R/I) = height(I), read off a walk of
    the ideal's own lcm lattice (see ``oracle_verdicts``); a
    disagreement would be an internal error, not a value.
    """
    return oracle_verdicts(ideal, f, budget)[0]


def oracle_verdicts(ideal: SquarefreeIdeal, f: FieldSpec = GF2,
                    budget: int = DEFAULT_BETTI_VARS) -> tuple[bool, bool]:
    """``(is_cm_oracle(...), has_linear_resolution_oracle(...))`` from one
    walk of the ideal's lcm lattice, largest first, and Eagon-Reiner's
    walk of its dual's; neither builds a table.

    With h the height (the smallest generator of the Alexander dual) and
    d the generator degree, each nonzero beta_{j,A} sets three flags:
    ``reach`` when j >= h - 1, ``deep`` when j >= h, and ``off`` when
    |A| != j + d (``off`` starts set when the ideal is not generated in
    one degree).  Once ``off`` is set the walk stops before the next
    mask when ``deep`` is set too or that mask has fewer than h elements:
    an n-element mask has j <= n - 1, so no smaller mask can set
    ``reach`` or ``deep``, and the walk is largest first.
    Then projdim(R/I) = 1 + max j equals h exactly when ``reach`` and
    not ``deep``, and the resolution is linear exactly when not
    ``off``.  ``reach`` is tracked rather than assumed from projdim >=
    height so that the cross-check with Eagon-Reiner stays independent.

    The variable budget is checked before the dual's transversals are
    enumerated.
    """
    if not ideal.generators:
        return True, True
    _check_betti_budget(ideal, budget)
    dual = alexander_dual(ideal, budget=budget)
    height = min(len(g) for g in dual.generators)
    off = not ideal.is_equigenerated()
    strand = -1 if off else ideal.generator_degree() - 1
    reach = deep = False
    memo: dict[tuple[int, frozenset[int]], list[int]] = {}
    for mask, inside in _lcm_walk(ideal):
        n = mask.bit_count()
        if off and (deep or n < height):
            break
        dims = _excised_dims(inside, mask, f.p or 0, memo)
        for k in range(min(len(dims), n)):
            if dims[k]:
                j = n - 1 - k
                reach = reach or j >= height - 1
                deep = deep or j >= height
                off = off or k != strand
    auslander_buchsbaum = reach and not deep
    eagon_reiner = has_linear_resolution_oracle(dual, f, budget)
    if eagon_reiner != auslander_buchsbaum:
        raise RuntimeError(
            "internal oracle disagreement: Eagon-Reiner "
            f"{eagon_reiner} vs projdim=height {auslander_buchsbaum}")
    return eagon_reiner, not off


def first_strand_multidegrees(g: GradedPoset) -> Callable[[Iterable[str]], bool]:
    """Predicate for multidegrees on the first linear strand.

    With s the smallest rank of a maximal element: A lies within ranks
    1..s with its rank-s part maximal, meets every rank 1..s, and each
    consecutive pair of its layers induces a complete bipartite graph.
    No element below rank s is maximal, so unlike in
    ``complexes.layer_sides`` no bottom side loses one; A is tested as a
    mask against ``rank_masks`` and ``child_masks``.
    """
    index = g.poset.index
    kids = g.poset.child_masks
    ranks = g.rank_masks[1:g.runder() + 1]
    within = sum(ranks)
    maxes = sum(1 << x for x, k in enumerate(kids) if not k)

    def predicate(multidegree: Iterable[str]) -> bool:
        a = sum({1 << index(e) for e in multidegree})
        layers = [a & r for r in ranks]
        if (not layers or a & ~within or not all(layers)
                or layers[-1] & ~maxes):
            return False
        return all(not top & ~kids[x]
                   for bottom, top in zip(layers, layers[1:])
                   for x in range(bottom.bit_length()) if bottom >> x & 1)

    return predicate
