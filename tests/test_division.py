"""Exact Cayley-Dickson arithmetic in R, C, H and O."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from htype import division
from htype.division import (
    DivisionAlgebra as DA,
    Element,
    _mul_rec,
    _signed_table,
    add,
    basis_element,
    conj,
    from_coefficients,
    im,
    inner,
    mul,
    multiplication_table,
    norm_sq,
    one,
    random_element,
    re,
    scale,
    sub,
    unit_product,
    zero,
)
from htype.errors import AlgebraMismatch

ALGEBRAS = (DA.R, DA.C, DA.H, DA.O)


def test_enum_dimensions_and_flags():
    assert [a.dimension for a in ALGEBRAS] == [1, 2, 4, 8]
    assert [a.im_dimension for a in ALGEBRAS] == [0, 1, 3, 7]
    assert [a.associative for a in ALGEBRAS] == [True, True, True, False]
    assert [a.commutative for a in ALGEBRAS] == [True, True, False, False]


def test_from_tag():
    assert DA.from_tag("h") is DA.H
    assert DA.from_tag("O") is DA.O
    with pytest.raises(AlgebraMismatch):
        DA.from_tag("S")


def test_element_length_checked():
    with pytest.raises(AlgebraMismatch):
        Element(DA.H, (Fraction(1), Fraction(0)))


def test_basis_index_bounds():
    with pytest.raises(IndexError):
        basis_element(DA.C, 2)
    with pytest.raises(IndexError):
        basis_element(DA.R, -1)


def test_one_is_identity():
    rng = random.Random(1)
    for algebra in ALGEBRAS:
        e = one(algebra)
        for _ in range(20):
            x = random_element(algebra, rng)
            assert mul(e, x) == x
            assert mul(x, e) == x


def test_conj_and_norm_identities():
    rng = random.Random(2)
    for algebra in ALGEBRAS:
        for _ in range(30):
            x = random_element(algebra, rng)
            y = random_element(algebra, rng)
            assert conj(conj(x)) == x
            assert mul(x, conj(x)) == scale(norm_sq(x), one(algebra))
            assert re(mul(x, conj(y))) == inner(x, y)
            assert add(im(x), scale(re(x), one(algebra))) == x


def test_quaternion_oracle():
    e = [basis_element(DA.H, i) for i in range(4)]
    assert mul(e[1], e[2]) == e[3]
    assert mul(e[2], e[1]) == -e[3]
    for i in (1, 2, 3):
        assert mul(e[i], e[i]) == -e[0]
    # e1 e3 = e1 (e1 e2) = -e2
    assert mul(e[1], e[3]) == -e[2]


def test_octonion_oracle_and_nonassociativity():
    e = [basis_element(DA.O, i) for i in range(8)]
    # doubling places the quaternions in the first half: e_i e_4 = e_{4+i}
    assert mul(e[1], e[2]) == e[3]
    assert mul(e[1], e[4]) == e[5]
    assert mul(e[2], e[4]) == e[6]
    assert mul(e[3], e[4]) == e[7]
    left = mul(mul(e[1], e[2]), e[4])
    right = mul(e[1], mul(e[2], e[4]))
    assert left == e[7] and right == -e[7]


def test_imaginary_units_square_to_minus_one():
    for algebra in ALGEBRAS:
        e = [basis_element(algebra, i) for i in range(algebra.dimension)]
        for i in range(1, algebra.dimension):
            assert mul(e[i], e[i]) == -e[0]
            for j in range(i + 1, algebra.dimension):
                assert mul(e[i], e[j]) == -mul(e[j], e[i])


def test_multiplication_table_is_signed_units():
    for algebra in ALGEBRAS:
        table = multiplication_table(algebra)
        for row in table:
            for entry in row:
                nonzero = [c for c in entry.coefficients if c]
                assert len(nonzero) == 1 and abs(nonzero[0]) == 1


def test_composition_law():
    rng = random.Random(3)
    for algebra in ALGEBRAS:
        for _ in range(100):
            x = random_element(algebra, rng)
            y = random_element(algebra, rng)
            assert norm_sq(mul(x, y)) == norm_sq(x) * norm_sq(y)


def test_associativity_up_to_quaternions():
    rng = random.Random(4)
    for algebra in (DA.R, DA.C, DA.H):
        for _ in range(100):
            x, y, z = (random_element(algebra, rng) for _ in range(3))
            assert mul(mul(x, y), z) == mul(x, mul(y, z))


def test_alternativity_octonions():
    rng = random.Random(5)
    for _ in range(100):
        x = random_element(DA.O, rng)
        y = random_element(DA.O, rng)
        assert mul(x, mul(x, y)) == mul(mul(x, x), y)
        assert mul(mul(y, x), x) == mul(y, mul(x, x))


def test_commutativity_boundary():
    rng = random.Random(6)
    for algebra in (DA.R, DA.C):
        for _ in range(50):
            x = random_element(algebra, rng)
            y = random_element(algebra, rng)
            assert mul(x, y) == mul(y, x)
    i, j = basis_element(DA.H, 1), basis_element(DA.H, 2)
    assert mul(i, j) != mul(j, i)


def test_table_mul_matches_doubling_recursion():
    # mul runs off a cached signed basis table; the recursion defines it
    rng = random.Random(7)
    for algebra in ALGEBRAS:
        for _ in range(50):
            x = random_element(algebra, rng)
            y = random_element(algebra, rng)
            assert mul(x, y).coefficients == _mul_rec(x.coefficients, y.coefficients)


@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_signed_table_matches_fraction_units(algebra):
    # the table is built from int units; the doubling recursion on Fraction
    # units gives the same signed basis products
    d = algebra.dimension
    units = [tuple(Fraction(int(a == i)) for a in range(d)) for i in range(d)]
    want = []
    for i in range(d):
        row = []
        for j in range(d):
            [(k, c)] = [(k, c) for k, c in enumerate(_mul_rec(units[i], units[j])) if c]
            row.append((k, c))
        want.append(tuple(row))
    table = _signed_table(algebra)
    assert table == tuple(want)
    assert all(type(c) is int and c in (1, -1) for row in table for _, c in row)


def _doubling(a, b):
    """The Cayley-Dickson recursion with no shortcut, as the reference."""
    if len(a) == 1:
        return (a[0] * b[0],)
    h = len(a) // 2
    p, q, r, s = a[:h], a[h:], b[:h], b[h:]
    cj = lambda x: (x[0],) + tuple(-c for c in x[1:])
    return (tuple(x - y for x, y in zip(_doubling(p, r), _doubling(cj(s), q)))
            + tuple(x + y for x, y in zip(_doubling(s, p), _doubling(q, cj(r)))))


def test_signed_table_recursion_skips_zero_halves(monkeypatch):
    # a unit has zero halves, and a product with an all-zero factor returns
    # at once; the call count repeats exactly, so a lost shortcut shows
    # without timing, and every table equals the full recursion's
    calls = 0

    def counted(a, b):
        nonlocal calls
        calls += 1
        return real(a, b)

    real = division._mul_rec
    monkeypatch.setattr(division, "_mul_rec", counted)
    _signed_table.cache_clear()
    table = _signed_table(DA.O)
    assert calls == 832  # 5,440 without the shortcut
    for algebra in ALGEBRAS:
        d = algebra.dimension
        units = [tuple(int(a == i) for a in range(d)) for i in range(d)]
        assert _signed_table(algebra) == tuple(
            tuple(next((k, c) for k, c in enumerate(_doubling(units[i], units[j])) if c)
                  for j in range(d)) for i in range(d))
    assert _signed_table(DA.O) is table


def test_signed_table_refuses_a_product_that_is_not_a_unit_under_O():
    # the table's check must survive `python -O`, which strips asserts
    src = str(Path(division.__file__).resolve().parent.parent)
    code = ("from htype import division\n"
            "from htype.errors import StructureError\n"
            "division._mul_rec = lambda a, b: (1, 1)\n"
            "try:\n"
            "    division._signed_table(division.DivisionAlgebra.C)\n"
            "except StructureError as exc:\n"
            "    print('refused:', exc)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, check=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout == "refused: e_0 e_0 has terms [(0, 1), (1, 1)], not one signed unit\n"


def test_element_sum_is_add():
    x = from_coefficients(DA.H, [1, Fraction(1, 2), 0, -3])
    y = from_coefficients(DA.H, [Fraction(1, 3), 2, 5, 3])
    assert x + y == add(x, y) == from_coefficients(DA.H, [Fraction(4, 3), Fraction(5, 2), 5, 0])
    with pytest.raises(AlgebraMismatch):
        x + one(DA.C)


@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_unit_product_is_the_element_product(algebra):
    d = algebra.dimension
    e = [basis_element(algebra, i) for i in range(d)]
    for a in range(d):
        for b in range(d):
            k, sign = unit_product(algebra, a, b)
            assert sign in (1, -1)
            assert mul(e[a], e[b]) == scale(sign, e[k])


def test_mixed_algebras_rejected():
    with pytest.raises(AlgebraMismatch):
        add(one(DA.C), one(DA.H))
    with pytest.raises(AlgebraMismatch):
        mul(one(DA.R), one(DA.O))


def test_vector_space_operations():
    x = from_coefficients(DA.C, [1, Fraction(1, 2)])
    assert scale(2, x).coefficients == (Fraction(2), Fraction(1))
    assert sub(x, x) == zero(DA.C)
    assert x - x == zero(DA.C)
    assert (-x).coefficients == (Fraction(-1), Fraction(-1, 2))
    assert zero(DA.C).is_zero() and not x.is_zero()


def test_random_element_is_small():
    rng = random.Random(8)
    for _ in range(20):
        x = random_element(DA.O, rng, denom=5)
        for c in x.coefficients:
            assert abs(c) <= 1 and 5 % c.denominator == 0


@given(st.lists(st.integers(-4, 4), min_size=16, max_size=16))
def test_composition_law_property(coeffs):
    x = from_coefficients(DA.O, coeffs[:8])
    y = from_coefficients(DA.O, coeffs[8:])
    assert norm_sq(mul(x, y)) == norm_sq(x) * norm_sq(y)
