"""Squarefree monomial ideals.

Monomials are variable subsets (every ideal in scope is squarefree), and
an ideal is its minimal generating antichain over an ordered variable
list.  Includes flag ideals of graded posets, Alexander duality, the
weakly-polymatroidal exchange check and the linear-quotients check in a
given variable order, and letterplace and co-letterplace generators.
The filtrations of a chain-decomposition certificate live with the
certificate, in ``characterize``.
"""

from __future__ import annotations

import json
from typing import Iterable, Sequence

from . import kernel
from .covers import DEFAULT_COVER_BUDGET, minimal_transversals
from .errors import (InvalidParameter, NotAVPoset, NotEquigenerated,
                     UnknownVariable)
from .posets import GradedPoset, Poset, maximal_chains


def minimalize(generators: Iterable[frozenset]) -> list[frozenset]:
    """Drop generators that contain another generator."""
    gens = sorted(set(frozenset(g) for g in generators), key=len)
    out: list[frozenset] = []
    for g in gens:
        if not any(m <= g for m in out):
            out.append(g)
    return out


class SquarefreeIdeal:
    """Minimal generating set of a squarefree monomial ideal; ``masks``
    has one bitmask per generator, in generator order, with bit i
    standing for ``variables[i]``."""

    __slots__ = ("variables", "generators", "masks")

    def __init__(self, variables: Sequence[str], generators: Iterable):
        variables = tuple(variables)
        vset = set(variables)
        if len(vset) != len(variables):
            raise InvalidParameter("duplicate variable")
        gens = [frozenset(g) for g in generators]
        index = {v: i for i, v in enumerate(variables)}
        for g in gens:
            if not g:
                raise InvalidParameter("empty generator")
            if not g <= vset:
                raise UnknownVariable(
                    f"generator {sorted(g)} uses unknown variables")
        by_mask = {sum(1 << index[v] for v in g): g for g in gens}
        masks = kernel.size_lex_sorted(by_mask)
        # only a strictly smaller generator can lie inside another
        smaller: list[int] = []
        size_start = 0
        for i, m in enumerate(masks):
            if m.bit_count() > masks[size_start].bit_count():
                smaller += masks[size_start:i]
                size_start = i
            outside = ~m
            if any(not h & outside for h in smaller):
                raise InvalidParameter(
                    "generators must be inclusion-incomparable")
        self.variables = variables
        self.generators = tuple(by_mask[m] for m in masks)
        self.masks = tuple(masks)

    @classmethod
    def from_generators(cls, variables: Sequence[str],
                        generators: Iterable) -> "SquarefreeIdeal":
        """Build after minimalizing the generating set."""
        return cls(variables, minimalize(frozenset(g) for g in generators))

    def degrees(self) -> set[int]:
        return {len(g) for g in self.generators}

    def is_equigenerated(self) -> bool:
        return len(self.degrees()) <= 1

    def generator_degree(self) -> int:
        degs = self.degrees()
        if len(degs) != 1:
            raise NotEquigenerated(f"generator degrees {sorted(degs)}")
        return degs.pop()

    def __eq__(self, other) -> bool:
        return (isinstance(other, SquarefreeIdeal)
                and set(self.variables) == set(other.variables)
                and set(self.generators) == set(other.generators))

    def __hash__(self) -> int:
        return hash((frozenset(self.variables), frozenset(self.generators)))

    def __repr__(self) -> str:
        return (f"SquarefreeIdeal({len(self.variables)} variables, "
                f"{len(self.generators)} generators)")

    def to_json(self) -> str:
        return json.dumps({
            "variables": list(self.variables),
            "generators": [sorted(g) for g in self.generators],
        })

    @classmethod
    def from_json(cls, text: str) -> "SquarefreeIdeal":
        data = json.loads(text)
        return cls(data["variables"], [frozenset(g) for g in data["generators"]])


def flag_ideal(g: GradedPoset) -> SquarefreeIdeal:
    """Generators are the supports of the maximal chains; distinct
    maximal chains are automatically inclusion-incomparable."""
    return SquarefreeIdeal(g.elements,
                           [frozenset(c) for c in maximal_chains(g)])


def alexander_dual(ideal: SquarefreeIdeal,
                   budget: int = DEFAULT_COVER_BUDGET) -> SquarefreeIdeal:
    """Generators are the minimal transversals of the generator supports;
    an involution on minimally generated squarefree ideals."""
    if not ideal.generators:
        raise InvalidParameter("Alexander dual of the zero ideal")
    duals = minimal_transversals(ideal.generators, ideal.variables, budget)
    return SquarefreeIdeal(ideal.variables, duals)


def is_weakly_polymatroidal(ideal: SquarefreeIdeal,
                            variable_order: Sequence[str]) -> bool:
    """Exchange check for an equigenerated squarefree ideal.

    ``variable_order`` lists the variables from first to last.  For any
    two generators whose first differing variable t lies in m1 only,
    some later variable s of m2 must satisfy m2 - s + t in G(I).
    """
    ideal.generator_degree()
    order = list(variable_order)
    if sorted(order) != sorted(ideal.variables):
        raise InvalidParameter("variable_order must list every variable once")
    gens = set(ideal.generators)
    for m1 in ideal.generators:
        for m2 in ideal.generators:
            if m1 == m2:
                continue
            t_pos = None
            for pos, v in enumerate(order):
                in1, in2 = v in m1, v in m2
                if in1 != in2:
                    if in1:
                        t_pos = pos
                    break
            if t_pos is None:
                continue
            t = order[t_pos]
            if not any(s in m2 and (m2 - {s}) | {t} in gens
                       for s in order[t_pos + 1:]):
                return False
    return True


def has_linear_quotients(ideal: SquarefreeIdeal,
                         variable_order: Sequence[str]) -> bool:
    """Linear quotients in the lex order of ``variable_order`` (first
    variable first), for an equigenerated squarefree ideal.

    With the generators in decreasing lex order u_1 > u_2 > ..., the
    colon (u_1, ..., u_{k-1}) : u_k is generated by the u_j - u_k, and is
    linear exactly when each of them contains a one-variable one.  A
    weakly polymatroidal ideal passes in the order of its exchange check
    (M. Kokubo and T. Hibi, *Weakly polymatroidal ideals*, Algebra
    Colloq. 13 (2006)).
    """
    ideal.generator_degree()
    order = list(variable_order)
    if sorted(order) != sorted(ideal.variables):
        raise InvalidParameter("variable_order must list every variable once")
    # the first variable is the highest bit, so descending masks are lex
    bit = {v: 1 << i for i, v in enumerate(reversed(order))}
    masks = sorted((sum(bit[v] for v in g) for g in ideal.generators),
                   reverse=True)
    for k, u in enumerate(masks):
        diffs = [m & ~u for m in masks[:k]]
        linear = 0
        for d in diffs:
            if d.bit_count() == 1:
                linear |= d
        if not all(d & linear for d in diffs):
            return False
    return True


def letterplace_generators(n: int, q: Poset | GradedPoset) -> SquarefreeIdeal:
    """Length-n multichains of Q, one generator x{i}_{q_i} per multichain,
    enumerated directly."""
    if n < 1:
        raise InvalidParameter("letterplace needs n >= 1")
    qp = q.poset if isinstance(q, GradedPoset) else q
    variables = tuple(f"x{i}_{a}" for i in range(1, n + 1) for a in qp.elements)
    gens: list[frozenset] = []
    stack: list[str] = []

    def extend(i: int, last: str | None) -> None:
        if i > n:
            gens.append(frozenset(f"x{k}_{a}"
                                  for k, a in enumerate(stack, start=1)))
            return
        for a in qp.elements:
            if last is None or qp.leq(last, a):
                stack.append(a)
                extend(i + 1, a)
                stack.pop()

    extend(1, None)
    return SquarefreeIdeal(variables, gens)


def _v_poset_chains(q: Poset) -> tuple[str, list[str], list[str]]:
    """Split a V poset into (root, first leg, second leg)."""
    minimals = q.minimal_elements()
    if len(minimals) != 1:
        raise NotAVPoset("need a unique minimal element")
    chains = maximal_chains(q)
    if len(chains) != 2:
        raise NotAVPoset("need exactly two maximal chains")
    c1, c2 = chains
    root = minimals[0]
    if c1[0] != root or c2[0] != root:
        raise NotAVPoset("both maximal chains must start at the root")
    legs = (list(c1[1:]), list(c2[1:]))
    if set(legs[0]) & set(legs[1]) or len(q) != 1 + len(legs[0]) + len(legs[1]):
        raise NotAVPoset("legs must be disjoint and cover the poset")
    return root, legs[0], legs[1]


def v_coletterplace_generators(q: Poset | GradedPoset, n: int) -> SquarefreeIdeal:
    """Graphs of isotone maps from a V poset to [n], one generator
    x{q}_{phi(q)} per map."""
    if n < 1:
        raise InvalidParameter("co-letterplace needs n >= 1")
    qp = q.poset if isinstance(q, GradedPoset) else q
    root, leg_b, leg_c = _v_poset_chains(qp)
    variables = tuple(f"x{e}_{i}" for e in qp.elements for i in range(1, n + 1))
    gens = []
    for r0 in range(1, n + 1):
        for bvals in _monotone_tuples(r0, n, len(leg_b)):
            for cvals in _monotone_tuples(r0, n, len(leg_c)):
                phi = {root: r0}
                phi.update(zip(leg_b, bvals))
                phi.update(zip(leg_c, cvals))
                gens.append(frozenset(f"x{e}_{phi[e]}" for e in qp.elements))
    return SquarefreeIdeal(variables, gens)


def _monotone_tuples(lo: int, hi: int, length: int):
    """Nondecreasing tuples of the given length with entries in lo..hi."""
    if length == 0:
        yield ()
        return
    for v in range(lo, hi + 1):
        for rest in _monotone_tuples(v, hi, length - 1):
            yield (v,) + rest
