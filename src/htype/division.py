"""Real division algebras R, C, H, O with exact rational arithmetic.

Elements are coefficient tuples over the standard basis (1, e1, ..., e_{d-1}).
Multiplication is the Cayley-Dickson doubling
    (a, b)(c, d) = (a c - conj(d) b, d a + b conj(c))
applied recursively, so C = R^2, H = C^2, O = H^2.  With this convention
e1*e2 = e3 in H and the octonion basis satisfies the usual Fano relations.

All coefficients are Fractions: products, conjugates and norms are exact,
which the structure tensors and derivation solvers downstream rely on.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import AlgebraMismatch, StructureError

if TYPE_CHECKING:  # annotations only
    import random

__all__ = [
    "DivisionAlgebra",
    "Element",
    "zero",
    "one",
    "basis_element",
    "from_coefficients",
    "add",
    "sub",
    "scale",
    "mul",
    "unit_product",
    "conj",
    "re",
    "im",
    "norm_sq",
    "inner",
    "multiplication_table",
    "random_element",
]


class DivisionAlgebra(enum.Enum):
    R = "R"
    C = "C"
    H = "H"
    O = "O"

    @property
    def dimension(self) -> int:
        return {"R": 1, "C": 2, "H": 4, "O": 8}[self.value]

    @property
    def im_dimension(self) -> int:
        return self.dimension - 1

    @property
    def associative(self) -> bool:
        return self is not DivisionAlgebra.O

    @property
    def commutative(self) -> bool:
        return self in (DivisionAlgebra.R, DivisionAlgebra.C)

    @classmethod
    def from_tag(cls, tag: str) -> "DivisionAlgebra":
        try:
            return cls(tag.upper())
        except ValueError:
            raise AlgebraMismatch(f"unknown division algebra tag {tag!r}") from None


@dataclass(frozen=True)
class Element:
    """An element of R, C, H or O as an exact coefficient vector."""

    algebra: DivisionAlgebra
    coefficients: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coefficients) != self.algebra.dimension:
            raise AlgebraMismatch(
                f"{self.algebra.value} needs {self.algebra.dimension} coefficients, "
                f"got {len(self.coefficients)}"
            )

    def __add__(self, other: "Element") -> "Element":
        return add(self, other)

    def __sub__(self, other: "Element") -> "Element":
        return sub(self, other)

    def __mul__(self, other: "Element") -> "Element":
        return mul(self, other)

    def __neg__(self) -> "Element":
        return Element(self.algebra, tuple(-c for c in self.coefficients))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coefficients)


def _check_same(a: Element, b: Element) -> None:
    if a.algebra is not b.algebra:
        raise AlgebraMismatch(f"cannot combine {a.algebra.value} with {b.algebra.value}")


def zero(algebra: DivisionAlgebra) -> Element:
    return Element(algebra, (Fraction(0),) * algebra.dimension)


def one(algebra: DivisionAlgebra) -> Element:
    return basis_element(algebra, 0)


def basis_element(algebra: DivisionAlgebra, index: int) -> Element:
    if not 0 <= index < algebra.dimension:
        raise IndexError(f"basis index {index} out of range for {algebra.value}")
    coeffs = [Fraction(0)] * algebra.dimension
    coeffs[index] = Fraction(1)
    return Element(algebra, tuple(coeffs))


def from_coefficients(algebra: DivisionAlgebra, coeffs: Iterable) -> Element:
    return Element(algebra, tuple(Fraction(c) for c in coeffs))


def add(a: Element, b: Element) -> Element:
    _check_same(a, b)
    return Element(a.algebra, tuple(x + y for x, y in zip(a.coefficients, b.coefficients)))


def sub(a: Element, b: Element) -> Element:
    _check_same(a, b)
    return Element(a.algebra, tuple(x - y for x, y in zip(a.coefficients, b.coefficients)))


def scale(s, a: Element) -> Element:
    s = Fraction(s)
    return Element(a.algebra, tuple(s * c for c in a.coefficients))


def _mul_rec(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[Fraction, ...]:
    n = len(a)
    if n == 1:
        return (a[0] * b[0],)
    if not any(a) or not any(b):  # a unit's zero halves: no recursion below
        return (0,) * n
    h = n // 2
    p, q = a[:h], a[h:]
    r, s = b[:h], b[h:]
    # (p, q)(r, s) = (p r - conj(s) q, s p + q conj(r))
    first = _sub_t(_mul_rec(p, r), _mul_rec(_conj_rec(s), q))
    second = _add_t(_mul_rec(s, p), _mul_rec(q, _conj_rec(r)))
    return first + second


def _conj_rec(a: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return (a[0],) + tuple(-c for c in a[1:])


def _add_t(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _sub_t(a, b):
    return tuple(x - y for x, y in zip(a, b))


@cache
def _signed_table(algebra: DivisionAlgebra) -> tuple[tuple[tuple[int, int], ...], ...]:
    """table[i][j] = (k, sign) with e_i e_j = sign * e_k, made once per
    process: e_i e_j is a signed basis vector in all four algebras, so
    tabulating the doubling recursion once turns a product into d^2 scalar
    multiplies. StructureError unless each product is one signed unit, a
    check that holds under `python -O`."""
    d = algebra.dimension
    # int units keep the doubling recursion off Fraction arithmetic
    units = [tuple(int(a == i) for a in range(d)) for i in range(d)]
    rows = []
    for i in range(d):
        row = []
        for j in range(d):
            prod = _mul_rec(units[i], units[j])
            terms = [(k, c) for k, c in enumerate(prod) if c]
            if len(terms) != 1 or abs(terms[0][1]) != 1:
                raise StructureError(f"e_{i} e_{j} has terms {terms}, not one signed unit")
            row.append(terms[0])
        rows.append(tuple(row))
    return tuple(rows)


def unit_product(algebra: DivisionAlgebra, a: int, b: int) -> tuple[int, int]:
    """(k, sign) with e_a e_b = sign * e_k, sign = +1 or -1: the product of
    two basis units read off the signed table, with no Element built."""
    return _signed_table(algebra)[a][b]


def mul(a: Element, b: Element) -> Element:
    _check_same(a, b)
    tab = _signed_table(a.algebra)
    # integer accumulation over a common denominator beats Fraction
    # arithmetic in the inner loop by an order of magnitude
    da = math.lcm(*(c.denominator for c in a.coefficients))
    db = math.lcm(*(c.denominator for c in b.coefficients))
    na = [c.numerator * (da // c.denominator) for c in a.coefficients]
    nb = [c.numerator * (db // c.denominator) for c in b.coefficients]
    acc = [0] * a.algebra.dimension
    for i, ai in enumerate(na):
        if not ai:
            continue
        row = tab[i]
        for j, bj in enumerate(nb):
            if not bj:
                continue
            k, sign = row[j]
            acc[k] += ai * bj if sign > 0 else -ai * bj
    den = da * db
    return Element(a.algebra, tuple(Fraction(s, den) for s in acc))


def conj(a: Element) -> Element:
    return Element(a.algebra, _conj_rec(a.coefficients))


def re(a: Element) -> Fraction:
    return a.coefficients[0]


def im(a: Element) -> Element:
    """Imaginary part: a - re(a)."""
    return Element(a.algebra, (Fraction(0),) + a.coefficients[1:])


def norm_sq(a: Element) -> Fraction:
    return sum(c * c for c in a.coefficients)


def inner(a: Element, b: Element) -> Fraction:
    """Euclidean inner product of coefficient vectors, <a,b> = re(a conj(b))."""
    _check_same(a, b)
    return sum(x * y for x, y in zip(a.coefficients, b.coefficients))


def multiplication_table(algebra: DivisionAlgebra) -> list[list[Element]]:
    """table[i][j] = e_i * e_j."""
    d = algebra.dimension
    es = [basis_element(algebra, i) for i in range(d)]
    return [[mul(es[i], es[j]) for j in range(d)] for i in range(d)]


def random_element(algebra: DivisionAlgebra, rng: random.Random, denom: int = 8) -> Element:
    """Small random element with coefficients k/denom, |k| <= denom."""
    coeffs = tuple(
        Fraction(rng.randint(-denom, denom), denom) for _ in range(algebra.dimension)
    )
    return Element(algebra, coeffs)
