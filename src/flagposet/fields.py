"""Coefficient fields and Laurent polynomials in one variable t.

Cohomology polynomials allow the exponent -1 (the irrelevant complex
contributes t^-1); all coefficients appearing in this package are
nonnegative integers since they are dimensions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import InvalidParameter


# Miller-Rabin with the primes up to 41 as bases is exact below this
# bound (Sorenson and Webster, 2015); moduli of at least it are refused.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    if n >= _MR_LIMIT:
        raise InvalidParameter(
            f"modulus {n} too large to certify prime (limit {_MR_LIMIT})")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Either GF(p) for a prime p, or the exact rationals."""

    kind: str  # "gf" | "rational"
    p: int | None = None

    def __post_init__(self):
        if self.kind == "gf":
            if self.p is None or not _is_prime(self.p):
                raise InvalidParameter(f"not a prime: {self.p}")
        elif self.kind == "rational":
            if self.p is not None:
                raise InvalidParameter("rational field takes no modulus")
        else:
            raise InvalidParameter(f"unknown field kind: {self.kind}")

    def __str__(self) -> str:
        return "QQ" if self.kind == "rational" else f"GF({self.p})"


GF2 = FieldSpec("gf", 2)
QQ = FieldSpec("rational")


def GF(p: int) -> FieldSpec:
    return FieldSpec("gf", p)


def parse_field(token: str) -> FieldSpec:
    """Parse a CLI field token: gf2 | gfp:<p> | q."""
    token = token.strip().lower()
    if token == "gf2":
        return GF2
    if token == "q":
        return QQ
    if token.startswith("gfp:"):
        try:
            return GF(int(token[4:]))
        except ValueError as exc:
            raise InvalidParameter(f"bad field token: {token}") from exc
    raise InvalidParameter(f"bad field token: {token}")


class LaurentPoly:
    """Integer-coefficient polynomial in t, exponents may be negative.

    Immutable; the zero polynomial has an empty coefficient map.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        clean = {}
        if coeffs:
            for e, c in coeffs.items():
                if c:
                    clean[int(e)] = int(c)
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls({})

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def t_power(cls, e: int, c: int = 1) -> "LaurentPoly":
        return cls({e: c})

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, e: int) -> int:
        return self.coeffs.get(e, 0)

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by t^k."""
        return LaurentPoly({e + k: c for e, c in self.coeffs.items()})

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.coeffs.items())))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else f"{c}*"
                parts.append(f"{head}t^{e}" if e != 1 else f"{head}t")
        return " + ".join(parts)

    def to_json(self) -> str:
        return json.dumps({str(e): c for e, c in sorted(self.coeffs.items())})

    @classmethod
    def from_json(cls, text: str) -> "LaurentPoly":
        data = json.loads(text)
        return cls({int(e): int(c) for e, c in data.items()})


def poly_from_dims(dims: list[int]) -> LaurentPoly:
    """Cohomology polynomial from [dim H^-1, dim H^0, ...]."""
    return LaurentPoly({k - 1: d for k, d in enumerate(dims)})
