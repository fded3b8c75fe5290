"""Certified rational nullspaces: the prime ladder must agree with a textbook
Fraction reference."""

import hashlib
import inspect
import itertools
import logging
import math
import os
import random
import subprocess
import sys
from collections.abc import Mapping
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from htype import clifford, linalg, nilpotent, symmetry
from htype.division import DivisionAlgebra
from htype.errors import BudgetExceeded
from htype.linalg import (
    _primes,
    _rat_reconstruct,
    check_budget,
    det_exact,
    integerize_row,
    nullspace,
)
from htype.nilpotent import build_hn

# the first primes of the ladder, largest first
_LADDER = list(itertools.islice(_primes(), 4))


def _sparse(rows):
    """Dense rows as the {column: value} mappings nullspace takes."""
    return [{c: v for c, v in enumerate(row) if v} for row in rows]


def _residual(rows, vec):
    return [sum(Fraction(a) * vec[c] for c, a in row.items()) for row in rows]


def test_known_plane():
    rows = [{0: Fraction(1), 1: Fraction(1), 2: Fraction(1)}]
    res = nullspace(rows, 3)
    assert res.dimension == 2 and res.method == "modp"
    for v in res.basis:
        assert all(r == 0 for r in _residual(rows, v))


def test_full_rank_system():
    rows = [{0: Fraction(2)}, {0: Fraction(1), 1: Fraction(3)}]
    res = nullspace(rows, 2)
    assert res.dimension == 0 and res.basis == ()


def test_no_rows_gives_identity_basis():
    res = nullspace([], 4)
    assert res.dimension == 4
    assert res.basis[2][2] == 1 and res.basis[2][0] == 0


def test_zero_rows_dropped():
    rows = [{}, {0: Fraction(0), 2: Fraction(0)}, {0: Fraction(1), 1: Fraction(-1)}]
    assert nullspace(rows, 3).dimension == 2


def test_zero_columns():
    assert nullspace([], 0).dimension == 0


def test_rational_entries_handled_exactly():
    rows = [{0: Fraction(1, 2), 1: Fraction(1, 3), 2: Fraction(-1, 6)}]
    res = nullspace(rows, 3)
    assert res.dimension == 2
    for v in res.basis:
        assert all(r == 0 for r in _residual(rows, v))


def _rank3_system(seed=11, ncols=150):
    """150 sparse rows spanning 3 generators: nullity ncols - 3."""
    rng = random.Random(seed)
    gens = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(ncols)]
            for _ in range(3)]
    rows = []
    for _ in range(ncols):
        c = [rng.randint(-3, 3) for _ in range(3)]
        rows.append([c[0] * a + c[1] * b + c[2] * d for a, b, d in zip(*gens)])
    return _sparse(rows), ncols


def _reference_basis(rows, ncols):
    """Canonical nullspace basis by textbook Fraction Gauss-Jordan on the
    rows as given: no scaling, no deduplication, nothing from linalg."""
    mat = [[Fraction(row.get(c, 0)) for c in range(ncols)] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i, row in enumerate(mat):
            if i != r and row[c] != 0:
                mat[i] = [a - row[c] * b for a, b in zip(row, mat[r])]
        pivots.append(c)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -mat[r][f]
        basis.append(tuple(v))
    return tuple(basis)


def test_modp_path_agrees_with_fraction_path():
    # 150 x 150, built from 3 independent rows so the nullity is known in
    # advance
    rng = random.Random(11)
    ncols = 150
    gens = [[Fraction(rng.randint(-5, 5)) for _ in range(ncols)] for _ in range(3)]
    rows = []
    for _ in range(ncols):
        c = [rng.randint(-3, 3) for _ in range(3)]
        rows.append([c[0] * a + c[1] * b + c[2] * d
                     for a, b, d in zip(*gens)])
    res = nullspace(_sparse(rows), ncols)
    assert res.method.startswith("modp")
    assert res.dimension == ncols - 3
    for v in res.basis[:5]:
        assert all(r == 0 for r in _residual(_sparse(gens), v))


def test_budget_refusal_happens_first(monkeypatch):
    with pytest.raises(BudgetExceeded) as exc:
        check_budget(10, 10, 50, context="unit test")
    assert exc.value.requested == 100 and exc.value.budget == 50
    assert "unit test" in str(exc.value)
    # a prolongation is refused before its first system is assembled
    def never(*args):
        raise AssertionError("system assembled despite the refusal")

    monkeypatch.setattr(symmetry, "_prolong_rows", never)
    with pytest.raises(BudgetExceeded) as exc:
        symmetry.tanaka_prolong(build_hn(DivisionAlgebra.H, 1), budget=50)
    assert exc.value.budget == 50 and "degree-0 derivation system" in str(exc.value)


def test_check_budget_passes_under_limit():
    check_budget(5, 10, 50)
    check_budget(5, 10, None)
    with pytest.raises(BudgetExceeded):
        check_budget(6, 10, 50)


def test_budget_refusal_is_logged(caplog):
    caplog.set_level(logging.INFO, logger="htype.linalg")
    check_budget(5, 10, 50, "fits")
    with pytest.raises(BudgetExceeded):
        check_budget(6, 10, 50, "degree-2 prolongation system")
    assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
        (logging.INFO, "refused degree-2 prolongation system: 60 entries requested, budget 50")]


_LAZY_LOGGING = """
import sys
import htype.linalg
assert "logging" not in sys.modules
import logging
logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s %(funcName)s: %(message)s")
try:
    htype.linalg.check_budget(6, 10, 50, "probe system")
except htype.errors.BudgetExceeded:
    pass
"""


def test_logging_is_loaded_only_to_write_a_record():
    src = str(Path(linalg.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _LAZY_LOGGING], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stderr == ("INFO htype.linalg check_budget: "
                           "refused probe system: 60 entries requested, budget 50\n")


def test_integerize_row():
    row = [Fraction(1, 2), Fraction(1, 3), Fraction(0)]
    assert integerize_row(row) == [3, 2, 0]
    # primitive: common factors removed
    assert integerize_row([Fraction(4), Fraction(6)]) == [2, 3]
    assert integerize_row([Fraction(0)] * 3) == [0, 0, 0]


def test_integerize_row_refuses_a_float():
    with pytest.raises(TypeError, match="row values must be ints or Fractions, not float"):
        integerize_row([Fraction(1, 2), 0.5])


def test_nullity_float_cross_check():
    rng = random.Random(12)
    for _ in range(5):
        nrows, ncols = 12, 9
        gens = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(4)]
        rows = []
        for _ in range(nrows):
            c = [rng.randint(-2, 2) for _ in range(4)]
            rows.append([sum(ci * gi for ci, gi in zip(c, col))
                         for col in zip(*gens)])
        exact = nullspace(_sparse([[Fraction(x) for x in r] for r in rows]), ncols)
        approx = ncols - np.linalg.matrix_rank(np.array(rows, dtype=float))
        assert exact.dimension == approx


def test_rational_reconstruction_round_trip():
    # the lift is the pair (numerator, denominator) in lowest terms, d > 0
    p = _LADDER[0]
    for num in (-7, -1, 0, 3, 11):
        for den in (1, 2, 9, 40):
            residue = num * pow(den, -2 + p, p) % p
            want = Fraction(num, den)
            assert _rat_reconstruct(residue, p) == (want.numerator, want.denominator)


def test_row_key_order_and_explicit_zeros_agree():
    rows, ncols = _rank3_system()
    ref = nullspace(rows, ncols)
    reordered = [dict(sorted(row.items(), reverse=True)) for row in rows]
    padded = [{**{c: Fraction(0) for c in range(ncols)}, **row} for row in rows]
    assert nullspace(reordered, ncols) == ref
    assert nullspace(padded, ncols) == ref


# ---------------------------------------------------------------------------
# the prime ladder, by fault injection


def _failing_reconstruct(fails, seen=None):
    real = linalg._rat_reconstruct

    def fake(a, modulus):
        if seen is not None:
            seen.add(modulus)
        return None if fails(modulus) else real(a, modulus)
    return fake


@pytest.mark.parametrize("fails, method, logged", [
    (lambda m: False, "modp", []),
    (lambda m: m < math.prod(_LADDER[:2]), "modp-crt", _LADDER[:1]),
    (lambda m: m < math.prod(_LADDER[:4]), "modp-crt", _LADDER[:3]),
])
def test_reconstruction_failures_escalate(monkeypatch, caplog, fails, method, logged):
    # a fault below a k-prime modulus: k - 1 primes are rejected and logged,
    # and the CRT image of the first k primes gives the reference basis
    rows, ncols = _rank3_system()
    ref = _reference_basis(rows, ncols)
    monkeypatch.setattr(linalg, "_rat_reconstruct", _failing_reconstruct(fails))
    caplog.set_level(logging.INFO, logger="htype.linalg")
    res = nullspace(rows, ncols, context="ladder")
    assert res.method == method
    assert res.basis == ref and res.dimension == ncols - 3
    assert [r.getMessage() for r in caplog.records] == [
        f"nullspace ladder: rational reconstruction failed at prime {p}" for p in logged]
    assert all(r.levelno == logging.INFO for r in caplog.records)


@pytest.mark.parametrize("value", [int, Fraction])
def test_repeated_and_zero_rows_reach_the_later_primes(monkeypatch, value):
    # duplicate, negated, scaled, explicit-zero and all-zero rows go to the
    # kernel as given; past the first prime the ladder takes the Hadamard
    # norms of every row, and a zero row has none
    rows, ncols = _rank3_system(seed=7, ncols=40)
    rows = [{c: math.lcm(*(x.denominator for x in row.values())) * v for c, v in row.items()}
            for row in rows]
    extra = [dict(rows[0]), {c: -v for c, v in rows[1].items()},
             {c: 6 * v for c, v in rows[2].items()}, {c: rows[3].get(c, 0) for c in range(ncols)},
             {0: 0, 9: 0}, {}]
    system = [{c: value(v) for c, v in row.items()} for row in rows[:4] + extra + rows[4:]]
    assert {type(v) for row in system for v in row.values()} == {value}
    monkeypatch.setattr(linalg, "_rat_reconstruct",
                        _failing_reconstruct(lambda m: m < math.prod(_LADDER[:2])))
    res = nullspace(system, ncols)
    assert res.method == "modp-crt" and res.dimension == ncols - 3
    assert res.basis == _reference_basis(system, ncols)


def test_derived_stop_raises_when_reconstruction_always_fails(monkeypatch, caplog):
    # each integer row has norm sqrt(2^32 + 1), rounded up to 2^16 + 1, so
    # H = (2^16 + 1)^2 has 33 bits and the ladder stops after
    # ceil(67 / 30) + floor(33 / 30) = 4 primes
    rows = [{0: 2**16, 2: 1}, {1: 2**16, 2: 1}]
    monkeypatch.setattr(linalg, "_rat_reconstruct", lambda a, modulus: None)
    caplog.set_level(logging.INFO, logger="htype.linalg")
    with pytest.raises(RuntimeError, match="^nullspace stop: no certified basis after 4 primes$"):
        nullspace(rows, 3, context="stop")
    assert [r.getMessage() for r in caplog.records] == [
        f"nullspace stop: rational reconstruction failed at prime {p}" for p in _LADDER]


def test_corrupt_reduction_is_rejected_by_verification(monkeypatch, caplog):
    # a wrong residue under the right pivots is not an unlucky prime: it
    # stays in every CRT image, so no lift verifies and nullspace raises
    # at the derived stop rather than return an uncertified basis
    rows, ncols = _rank3_system()
    real = linalg._rref_modp

    def corrupt_first_prime(mat, p, width):
        rref, pivots = real(mat, p, width)
        if p == _LADDER[0]:
            free = next(c for c in range(ncols) if c not in pivots)
            rref = [dict(row) for row in rref]
            rref[0][free] = (rref[0].get(free, 0) + 1) % p
        return rref, pivots

    monkeypatch.setattr(linalg, "_rref_modp", corrupt_first_prime)
    caplog.set_level(logging.INFO, logger="htype.linalg")
    with pytest.raises(RuntimeError, match="no certified basis"):
        nullspace(rows, ncols)
    messages = [r.getMessage() for r in caplog.records]
    assert messages[0] == (
        f"nullspace : lift at prime {_LADDER[0]} fails exact verification")
    assert len(messages) > 2 and all(
        "fails exact verification" in m or "reconstruction failed" in m for m in messages)


def _skip_second_prime(monkeypatch, caplog, worsen):
    """Give the second prime worse pivots: it must be skipped, and the image
    of the first and third primes must give the reference basis."""
    rows, ncols = _rank3_system()
    ref = _reference_basis(rows, ncols)
    real = linalg._rref_modp

    def worse_second_prime(mat, p, width):
        rref, pivots = real(mat, p, width)
        return worsen(rref, pivots) if p == _LADDER[1] else (rref, pivots)

    monkeypatch.setattr(linalg, "_rref_modp", worse_second_prime)
    monkeypatch.setattr(linalg, "_rat_reconstruct",
                        _failing_reconstruct(lambda m: m < _LADDER[0] * _LADDER[2]))
    caplog.set_level(logging.INFO, logger="htype.linalg")
    res = nullspace(rows, ncols)
    assert res.method == "modp-crt" and res.basis == ref
    assert [r.getMessage() for r in caplog.records] == [
        f"nullspace : rational reconstruction failed at prime {_LADDER[0]}",
        f"nullspace : prime {_LADDER[1]} has worse pivots; skipped"]


def test_disagreeing_primes_are_skipped(monkeypatch, caplog):
    # the second prime loses a pivot
    _skip_second_prime(monkeypatch, caplog, lambda rref, pivots: (rref[:-1], pivots[:-1]))


def test_later_pivots_at_equal_rank_are_skipped(monkeypatch, caplog):
    # the second prime keeps the rank, but its last pivot row is re-keyed
    # to the next column, so its pivots come later
    def move_last_pivot(rref, pivots):
        c = pivots[-1]
        last = {(c + 1 if j == c else c if j == c + 1 else j): x for j, x in rref[-1].items()}
        return rref[:-1] + [last], pivots[:-1] + [c + 1]

    _skip_second_prime(monkeypatch, caplog, move_last_pivot)


def test_worse_first_prime_is_replaced(monkeypatch, caplog):
    # the first prime loses a pivot; the second has more pivots, so the image
    # restarts from the second prime alone instead of folding the two
    rows, ncols = _rank3_system()
    ref = _reference_basis(rows, ncols)
    real = linalg._rref_modp

    def drop_pivot_first_prime(mat, p, width):
        rref, pivots = real(mat, p, width)
        return (rref[:-1], pivots[:-1]) if p == _LADDER[0] else (rref, pivots)

    moduli = set()
    monkeypatch.setattr(linalg, "_rref_modp", drop_pivot_first_prime)
    monkeypatch.setattr(linalg, "_rat_reconstruct",
                        _failing_reconstruct(lambda m: False, moduli))
    caplog.set_level(logging.INFO, logger="htype.linalg")
    res = nullspace(rows, ncols)
    assert res.method == "modp-crt" and res.basis == ref
    assert moduli == {_LADDER[0], _LADDER[1]}
    assert [r.getMessage() for r in caplog.records] == [
        f"nullspace : lift at prime {_LADDER[0]} fails exact verification"]


def test_primes_start_with_the_three_largest_31_bit_primes():
    assert _LADDER[:3] == [2147483647, 2147483629, 2147483587]
    assert all(2**30 < p < q for p, q in zip(_LADDER[1:], _LADDER))


def test_primes_are_searched_once(monkeypatch):
    monkeypatch.setattr(linalg, "_PRIMES", [2**31 - 1])
    calls = []
    is_prime = linalg._is_prime
    monkeypatch.setattr(linalg, "_is_prime", lambda n: calls.append(n) or is_prime(n))
    assert list(itertools.islice(_primes(), 3)) == _LADDER[:3]
    assert calls
    calls.clear()
    assert list(itertools.islice(_primes(), 3)) == _LADDER[:3]
    assert calls == []
    # walks that interleave share the kept primes and repeat none
    monkeypatch.setattr(linalg, "_PRIMES", [2**31 - 1])
    a, b = _primes(), _primes()
    assert [next(a), next(b), next(b), next(a), next(a), next(b), next(b)] == [
        _LADDER[0], _LADDER[0], _LADDER[1], _LADDER[1], _LADDER[2], _LADDER[2], _LADDER[3]]
    kept = linalg._PRIMES
    assert kept[:len(_LADDER)] == _LADDER and kept == sorted(set(kept), reverse=True)


def test_is_prime_matches_trial_division():
    small = [q for q in range(2, 46341) if all(q % d for d in range(2, math.isqrt(q) + 1))]

    def trial(n):
        return n >= 2 and all(n % q for q in small if q * q <= n)

    for n in itertools.chain(range(200), range(2**31 - 3000, 2**31)):
        assert linalg._is_prime(n) == trial(n), n
    # a strong pseudoprime to the bases 2, 3 and 5: base 7 rejects it
    assert not linalg._is_prime(25326001) and not trial(25326001)


def test_malformed_rows_are_refused():
    # refused, not solved: column -1 would alias the last column, column 5
    # would drop out of a 3-column system, and a float has no exact value
    with pytest.raises(ValueError, match=r"columns -1\.\.0 outside \[0, 2\)"):
        nullspace([{-1: 1, 0: 1}], 2)
    with pytest.raises(ValueError, match=r"columns 5\.\.5 outside \[0, 3\)"):
        nullspace([{5: 1}], 3)
    with pytest.raises(TypeError, match="ints or Fractions, not float"):
        nullspace([{0: 0.5}], 2)
    with pytest.raises(TypeError, match="ints or Fractions, not str"):
        nullspace([{0: Fraction(1, 2), 1: "1"}], 2)
    # a float is refused when it is zero too
    with pytest.raises(TypeError, match="ints or Fractions, not float"):
        nullspace([{0: 0.0, 1: 1}], 2)
    with pytest.raises(TypeError, match="ints or Fractions, not float"):
        nullspace([{0: 0.0}], 2)
    # a column is an index: a float one is refused, neither taken for a
    # free column nor sent on to the elimination
    with pytest.raises(TypeError, match="columns must be ints, not float"):
        nullspace([{0.5: 1}], 2)
    with pytest.raises(TypeError, match="columns must be ints, not float"):
        nullspace([{0.5: 1, 1: 1}], 2)


def test_rows_that_are_not_mappings_are_refused():
    # a (column, value) pair list would reach the verifier, whose column
    # test compares ints with tuples and passes every row: refused at intake
    with pytest.raises(TypeError, match="rows must be mappings .* not list"):
        nullspace([[(0, 1), (1, -1)]], 2)
    with pytest.raises(TypeError, match="rows must be mappings .* not list"):
        nullspace([{0: 1}, [1, -1]], 2)  # a dense list
    with pytest.raises(TypeError, match="rows must be mappings .* not tuple"):
        nullspace([((0, 1), (1, -1))], 2)
    with pytest.raises(TypeError, match="rows must be mappings .* not tuple"):
        nullspace([(1, -1)], 2)
    # an empty row is no equation, whatever its type
    assert nullspace([[], (), {0: 1}], 2).vectors == ((1, ((1, 1),)),)


class _PlainMapping(Mapping):
    """A read-only mapping that is not a dict."""

    def __init__(self, data):
        self._data = dict(data)

    def __getitem__(self, key):
        return self._data[key]

    def __iter__(self):
        return iter(self._data)

    def __len__(self):
        return len(self._data)


def test_rows_of_any_mapping_type_are_read_alike():
    # the intake, the kernel and the verifier read a row only through the
    # Mapping interface, so a row need not be a dict, nor all rows one type
    from types import MappingProxyType

    rows, ncols = _rank3_system()
    ref = nullspace(rows, ncols)
    for wrap in (MappingProxyType, _PlainMapping, dict):
        assert nullspace([wrap(row) for row in rows], ncols) == ref
    mixed = [(MappingProxyType, _PlainMapping, dict)[k % 3](row) for k, row in enumerate(rows)]
    assert nullspace(mixed, ncols) == ref
    for bad in ([MappingProxyType({0: 1.0})], [{0: 1}, _PlainMapping({1: "1"})]):
        with pytest.raises(TypeError, match="^row values must be ints or Fractions, not "):
            nullspace(bad, 2)


def test_python_int_verifier_rejects_what_int64_would_accept():
    # row . v = 2**64 exactly: int64 arithmetic wraps it to 0
    big = 2**32
    rows = [{0: big, 1: 1}, {0: 1, 1: -1, 2: 1}]
    wrong = [(0, big - 1), (1, big), (2, 1)]
    dense = np.array([[big, 1, 0], [1, -1, 1]], dtype=np.int64)
    assert not np.any(dense @ np.array([big - 1, big, 1], dtype=np.int64))
    assert not linalg._annihilates(rows, [wrong])
    right = [(0, 1), (1, -big), (2, -big - 1)]
    assert linalg._annihilates(rows, [right])
    assert not linalg._annihilates(rows, [right, wrong])


def test_verifier_checks_every_row():
    # rows x_i - x_4 = 0; the vector with 2 at i and 1 elsewhere breaks row i only
    rows = [{i: 1, 4: -1} for i in range(4)]
    ones = [(c, 1) for c in range(5)]
    assert linalg._annihilates(rows, [ones])
    for i in range(4):
        broken = [(c, 2 if c == i else 1) for c in range(5)]
        assert not linalg._annihilates(rows, [broken]), i
        assert not linalg._annihilates(rows, [ones, broken]), i


def test_entries_beyond_the_primes_take_the_exact_reduction():
    rows, ncols = _rank3_system(seed=5)
    rows = [{c: v * 2**40 if c % 7 == 0 else v for c, v in row.items()} for row in rows]
    ref = _reference_basis(rows, ncols)
    assert max(map(abs, linalg._integerize(sorted(rows[0].items())).values())) > _LADDER[0]
    res = nullspace(rows, ncols)
    assert res.basis == ref and res.dimension == ncols - 3


def _dense_rref_modp(rows, ncols, p):
    """Textbook Gauss-Jordan mod p on the dense matrix: pivot search down each
    column, swap, scale the pivot to 1, clear the column in every other row."""
    mat = [[row.get(c, 0) % p for c in range(ncols)] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = pow(mat[r][c], p - 2, p)
        mat[r] = [x * inv % p for x in mat[r]]
        for i, row in enumerate(mat):
            if i != r and row[c]:
                mat[i] = [(a - row[c] * b) % p for a, b in zip(row, mat[r])]
        pivots.append(c)
    return mat[:len(pivots)], pivots


@st.composite
def _modp_systems(draw):
    p = draw(st.sampled_from([5, 7, _LADDER[0]]))
    ncols = draw(st.integers(2, 8))
    dead = draw(st.integers(0, ncols - 1))  # a column no row touches: never a pivot
    entry = st.one_of(st.integers(-3, 3),
                      st.sampled_from([p - 1, p + 2, 3 * p - 1, -p - 1, -2 * p + 3]))
    base = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=7))
    for row in base:
        row[dead] = 0
    i, j = draw(st.integers(0, len(base) - 1)), draw(st.integers(0, len(base) - 1))
    k = draw(st.integers(1, p - 1))
    rows = base + [
        list(base[i]),                                          # duplicate
        [a + k * b + p * a for a, b in zip(base[i], base[j])],  # reduces to nothing
        [p * draw(st.integers(-2, 2)) for _ in range(ncols)],   # vanishes mod p
    ]
    order = draw(st.permutations(range(len(rows))))
    return [{c: v for c, v in enumerate(rows[r]) if v} for r in order], ncols, p


@settings(max_examples=200, deadline=None)
@given(_modp_systems())
def test_sparse_rref_modp_matches_dense_gauss_jordan(system):
    rows, ncols, p = system
    ref, ref_pivots = _dense_rref_modp(rows, ncols, p)
    rref, pivots = linalg._rref_modp(rows, p, ncols)
    assert pivots == ref_pivots
    assert [[row.get(c, 0) for c in range(ncols)] for row in rref] == ref
    assert all(0 < x < p for row in rref for x in row.values())


@st.composite
def _sparse_modp_systems(draw):
    """Sparse rows of 2-5 entries in 10-30 columns, enough rows that later
    pivots land on columns where back-reduction already filled in or
    cancelled entries of earlier pivot rows."""
    p = draw(st.sampled_from([5, 7, _LADDER[0]]))
    ncols = draw(st.integers(10, 30))
    entry = st.one_of(st.integers(1, 3), st.integers(-3, -1),
                      st.sampled_from([p, -2 * p, p - 1, p + 2, 3 * p - 1, -p - 1]))
    rows = []
    for _ in range(draw(st.integers(10, 40))):
        cols = draw(st.sets(st.integers(0, ncols - 1), min_size=2, max_size=5))
        rows.append({c: draw(entry) for c in sorted(cols)})
    return rows, ncols, p, draw(st.permutations(range(len(rows))))


@settings(max_examples=150, deadline=None)
@given(_sparse_modp_systems())
def test_sparse_rref_modp_matches_dense_gauss_jordan_at_scale(system):
    rows, ncols, p, order = system
    ref, ref_pivots = _dense_rref_modp(rows, ncols, p)
    rref, pivots = linalg._rref_modp(rows, p, ncols)
    assert pivots == ref_pivots
    assert [[row.get(c, 0) for c in range(ncols)] for row in rref] == ref
    assert linalg._rref_modp([rows[k] for k in order], p, ncols) == (rref, pivots)


@pytest.mark.parametrize("rows", [
    # row 1's pivot cancels row 0's entry in column 2, then row 2's pivot
    # lands on column 2: row 0 must no longer be listed as holding it
    [{0: 1, 1: 1, 2: 1}, {1: 1, 2: 1}, {2: 1, 3: 1}],
    # row 1's pivot fills in column 2 of row 0, then row 2's pivot lands
    # on column 2: row 0 must now be listed as holding it
    [{0: 1, 1: 1}, {1: 1, 2: 1}, {2: 1, 3: 1}],
    # pivots 1, 2 and 3 fill in, cancel and fill in again column 5 of row 0
    # before the last pivot lands on it; that row holds multiples of p at
    # pivot columns and an entry >= p
    [{0: 1, 1: 1, 2: 1, 3: 1}, {1: 1, 5: 1}, {2: 1, 5: -1},
     {3: 1, 5: 2}, {1: 14, 2: 7, 5: 15}],
    # one pivot row that is updated by every later pivot
    [dict.fromkeys(range(6), 1), *({c: 2, c + 1: 5} for c in range(1, 5))],
])
def test_rref_modp_column_index_follows_fill_in_and_cancellation(rows):
    p = 7
    ref, ref_pivots = _dense_rref_modp(rows, 6, p)
    rref, pivots = linalg._rref_modp(rows, p, 6)
    assert pivots == ref_pivots
    assert [[row.get(c, 0) for c in range(6)] for row in rref] == ref


def _streamed_leads(rows, ncols, p):
    """Dense reference of `leads`: each row reduced against the dense RREF
    of the rows before it; a nonzero remainder gives (its first column,
    its entry there)."""
    leads = []
    for t, row in enumerate(rows):
        rest = [row.get(c, 0) % p for c in range(ncols)]
        for prow, c in zip(*_dense_rref_modp(rows[:t], ncols, p)):
            f = rest[c]
            rest = [(a - f * b) % p for a, b in zip(rest, prow)]
        if any(rest):
            c = next(c for c, x in enumerate(rest) if x)
            leads.append((c, rest[c]))
    return leads


@st.composite
def _unit_systems(draw):
    """Unit rows, rows in their span (which clear to zero once the units are
    pivots), and pairs {a, b}, {b} whose second row cancels the first's only
    other entry, so that pivot a becomes a unit; shuffled or fed shortest
    first, as `nullspace` feeds them."""
    p = draw(st.sampled_from([5, 7, _LADDER[0]]))
    ncols = draw(st.integers(2, 12))
    cols = st.integers(0, ncols - 1)
    value = st.one_of(st.integers(1, 4), st.integers(-4, -1), st.sampled_from([p + 1, -p - 2]))
    units = draw(st.sets(cols, min_size=1))
    rows = [{c: draw(value)} for c in units]
    for _ in range(draw(st.integers(0, 4))):
        a, b = draw(cols), draw(cols)
        if a != b:
            rows += [{a: draw(value), b: draw(value)}, {b: draw(value)}]
            units.add(b)
    span = sorted(units)
    for _ in range(draw(st.integers(1, 6))):
        picked = draw(st.lists(st.sampled_from(span), min_size=1, unique=True))
        rows.append({c: draw(st.one_of(value, st.just(p))) for c in picked})
    for _ in range(draw(st.integers(0, 4))):  # rows with other columns
        picked = draw(st.lists(cols, min_size=1, max_size=4, unique=True))
        rows.append({c: draw(value) for c in picked})
    rows = [rows[k] for k in draw(st.permutations(range(len(rows))))]
    if draw(st.booleans()):
        rows.sort(key=len)
    return rows, ncols, p


def _check_unit_system(system):
    rows, ncols, p = system
    ref, ref_pivots = _dense_rref_modp(rows, ncols, p)
    leads = []
    rref, pivots = linalg._rref_modp(rows, p, ncols, leads)
    assert pivots == ref_pivots
    assert [[row.get(c, 0) for c in range(ncols)] for row in rref] == ref
    assert leads == _streamed_leads(rows, ncols, p)


@settings(max_examples=150, deadline=None)
@given(_unit_systems())
def test_skipped_unit_rows_change_no_pivot_and_no_lead(system):
    _check_unit_system(system)


class _Unreadable(dict):
    """A row whose entries raise if they are read: the kernel and the
    verifier may test its columns, never iterate its items."""

    def items(self):
        raise AssertionError(f"row {dict(self)} was read")


def test_rows_that_clear_to_zero_are_never_read():
    p = _LADDER[0]
    # {0: 1, 1: 1} becomes a unit pivot once {1: 1} cancels its entry at 1
    rows = [{0: 1, 1: 1}, {1: 1}, _Unreadable({0: 3, 1: -5}), {2: 1, 3: 2},
            _Unreadable({1: 7}), _Unreadable({})]
    assert linalg._rref_modp(rows, p, 4) == ([{0: 1}, {1: 1}, {2: 1, 3: 2}], [0, 1, 2])
    with pytest.raises(AssertionError, match="was read"):
        linalg._rref_modp([_Unreadable({0: 1})], p, 4)
    # the null vector (0, 0, -2, 1) has support {2, 3}: the unreadable rows miss it
    assert linalg._annihilates(rows[2:], [((2, -2), (3, 1))])
    with pytest.raises(AssertionError, match="was read"):
        linalg._annihilates([_Unreadable({3: 1})], [((2, -2), (3, 1))])
    res = nullspace(rows, 4)
    assert res.vectors == ((1, ((2, -2), (3, 1))),) and res.method == "modp"


def test_a_unit_pivot_that_holds_entries_is_caught(monkeypatch):
    # mutation check: a kernel that marks every new pivot a unit, entries or
    # not, skips rows that do not clear to zero; the unit-row systems above
    # must tell it from the real kernel
    source = inspect.getsource(linalg._rref_modp)
    marked = "        if not vec:\n            units.add(pc)\n"
    assert source.count(marked) == 1
    namespace = dict(vars(linalg))
    exec(source.replace(marked, "        units.add(pc)\n"), namespace)
    mutant = namespace["_rref_modp"]
    rows, p = [{0: 1, 1: 1}, {0: 2}], 7
    assert linalg._rref_modp(rows, p, 2) == ([{0: 1}, {1: 1}], [0, 1])
    assert mutant(rows, p, 2) == ([{0: 1, 1: 1}], [0])
    monkeypatch.setattr(linalg, "_rref_modp", mutant)
    hunt = settings(max_examples=150, deadline=None, database=None, phases=[Phase.generate])(
        given(_unit_systems())(_check_unit_system))
    with pytest.raises(AssertionError):
        hunt()


# sha256 of repr((rows, pivots)) for the RREF modulo the largest 31-bit prime
# of the h1(O) degree-1 prolongation system (rows as sorted items), computed
# before the back-reduction kept a column index
H1O_DEGREE1_RREF = "dd11bb5c7c5e11d2052f95a9ac4e54c38be5a97b5aa9733a5adc51d68b713b17"


def test_rref_modp_pinned_on_h1o_degree_1_system():
    with mock.patch.object(linalg, "_rref_modp", wraps=linalg._rref_modp) as spy:
        symmetry.tanaka_prolong(build_hn(DivisionAlgebra.O, 1), max_degree=1, budget=10**8)
    rows, p, ncols = spy.call_args.args
    assert (len(rows), ncols, p) == (2496, 608, _LADDER[0])
    rref, pivots = linalg._rref_modp(rows, p, ncols)
    assert len(pivots) == 592 and sum(map(len, rref)) == 1184
    canonical = repr(([sorted(row.items()) for row in rref], pivots))
    assert hashlib.sha256(canonical.encode()).hexdigest() == H1O_DEGREE1_RREF


class _CountedRow(dict):
    """A row that counts how often its entries are read."""

    reads = 0

    def items(self):
        _CountedRow.reads += 1
        return super().items()


def test_rows_read_on_h1o_prolongation_are_pinned():
    # the rows the kernel and the verifier read on h1(O), as fed to the
    # kernel; the counts repeat exactly, so a lost skip shows without timing
    with mock.patch.object(linalg, "_rref_modp", wraps=linalg._rref_modp) as spy:
        symmetry.tanaka_prolong(build_hn(DivisionAlgebra.O, 1), max_degree=3, budget=10**8)
    counts = []
    for call in spy.call_args_list:
        rows, p, ncols = call.args
        res = nullspace(rows, ncols)
        rows = [_CountedRow(row) for row in rows]
        _CountedRow.reads = 0
        rank = len(linalg._rref_modp(rows, p, ncols)[1])
        kernel, _CountedRow.reads = _CountedRow.reads, 0
        assert linalg._annihilates(rows, [vec for _, vec in res.vectors])
        counts.append((len(rows), rank, kernel, _CountedRow.reads))
    # (rows, pivots, rows the kernel reads, rows the verifier reads) per degree
    assert counts == [(960, 290, 640, 512), (2496, 592, 2496, 2496), (5872, 488, 3296, 3000),
                      (5760, 256, 256, 0)]


def test_rref_modp_stops_at_full_column_rank():
    # rows 0 and 2 already have rank 2 in 2 columns (row 1 is a multiple of
    # row 0); the iterator raises if a row after that one is read
    rows = [{0: 1, 1: 2}, {0: 2, 1: 4}, {0: 3, 1: 1}, {0: 5}, {1: 7}]

    def stream():
        yield from rows[:3]
        raise AssertionError("read past the row that completes the rank")

    p = _LADDER[0]
    rref, pivots = linalg._rref_modp(stream(), p, 2)
    assert pivots == [0, 1] and rref == [{0: 1}, {1: 1}]
    assert linalg._rref_modp(rows, p, 2) == (rref, pivots)
    assert linalg._rref_modp(rows[:2], p, 2) == ([{0: 1, 1: 2}], [0])
    res = nullspace(rows, 2)
    assert res.dimension == 0 and res.basis == () and res.method == "modp"


_entries = st.sampled_from([Fraction(0)] * 4 + [Fraction(n, d) for n in range(-3, 4)
                                                for d in (1, 2, 3) if n])


@st.composite
def _systems(draw):
    ncols = draw(st.integers(1, 8))
    base = draw(st.lists(st.lists(_entries, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=8))
    # duplicates, equal up to a nonzero scalar, interleaved with the originals
    copies = draw(st.lists(st.tuples(st.integers(0, len(base) - 1),
                                     st.sampled_from([1, -1, 2, Fraction(-1, 3)])),
                           max_size=6))
    rows = base + [[x * k for x in base[i]] for i, k in copies]
    # near duplicates: one entry's sign flipped, so only the zero pattern and
    # the absolute values match an original row
    for i, col in draw(st.lists(st.tuples(st.integers(0, len(base) - 1),
                                          st.integers(0, ncols - 1)), max_size=3)):
        rows.append([-x if c == col else x for c, x in enumerate(base[i])])
    order = draw(st.permutations(range(len(rows))))
    return _sparse([rows[i] for i in order]), ncols


@settings(max_examples=150, deadline=None)
@given(_systems())
def test_modp_path_matches_fraction_path(system):
    rows, ncols = system
    ref = _reference_basis(rows, ncols)
    res = nullspace(rows, ncols)
    assert res.basis == ref and res.dimension == len(ref)
    assert res.method.startswith("modp")


@settings(max_examples=150, deadline=None)
@given(_systems(), st.data())
def test_repeated_and_empty_rows_change_no_output(system, data):
    # the kernel clears what the intake no longer drops: duplicates,
    # negated and integer-scaled copies and empty rows; both the Fraction
    # intake and the int one (each row times the lcm of its denominators)
    rows, ncols = system
    if data.draw(st.booleans()):
        rows = [{c: int(v * math.lcm(*(x.denominator for x in row.values())))
                 for c, v in row.items()} for row in rows]
    copies = data.draw(st.lists(st.tuples(st.integers(0, len(rows) - 1),
                                          st.sampled_from([1, -1, 2, -3])), max_size=8))
    padded = rows + [{c: k * v for c, v in rows[i].items()} for i, k in copies]
    padded += [{}] * data.draw(st.integers(0, 3))
    padded = [padded[i] for i in data.draw(st.permutations(range(len(padded))))]
    plain, res = nullspace(rows, ncols), nullspace(padded, ncols)
    assert res.vectors == plain.vectors and res.method == plain.method


def test_det_exact_runs_on_the_one_kernel():
    def no_kernel(*args):
        raise AssertionError("eliminated outside _rref_modp")

    with mock.patch.object(linalg, "_rref_modp", no_kernel):
        with pytest.raises(AssertionError, match="outside _rref_modp"):
            det_exact([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]])


@settings(max_examples=150, deadline=None)
@given(_systems())
def test_integer_vectors_are_the_basis(system):
    # each vector is (D, D v) for the canonical v: D the lcm of v's
    # denominators, held at v's free column, and basis is its Fraction form
    rows, ncols = system
    res = nullspace(rows, ncols)
    basis = res.basis
    assert basis == _reference_basis(rows, ncols)
    assert res.dimension == len(res.vectors) and res.ncols == ncols
    dense = []
    for k, ((d, vec), v) in enumerate(zip(res.vectors, basis)):
        assert [c for c, _ in vec] == sorted(c for c, x in enumerate(v) if x)
        assert all(type(x) is int for _, x in vec)
        assert d == math.lcm(*(x.denominator for x in v))
        # the free column: 1 here, 0 in every other canonical vector
        free = next(c for c, x in enumerate(v) if x == 1 and all(
            b[c] == 0 for i, b in enumerate(basis) if i != k))
        assert dict(vec)[free] == d
        row = [Fraction(0)] * ncols
        for c, x in vec:
            row[c] = Fraction(x, d)
        dense.append(tuple(row))
    assert tuple(dense) == basis


def test_mixed_rows_give_the_reference_basis():
    # int and Fraction values in one system, explicit zeros as the Clifford
    # commutant emits them, negative leading entries, duplicates up to sign
    # and up to content: one intake, the reference basis
    rows = [
        {0: 2, 1: -4, 3: 6},
        {3: 3, 0: 1, 1: -2},
        {0: -1, 1: 2, 3: -3},
        {0: Fraction(-1, 2), 1: 1, 3: Fraction(-3, 2)},
        {1: -3, 2: 0, 4: 5},
        {1: 0, 2: 1, 4: Fraction(2, 3)},
        {4: 0, 1: 0},
        {2: -7, 4: 7, 0: 0},
    ]
    ref = _reference_basis(rows, 6)
    res = nullspace(rows, 6)
    assert res.basis == ref and res.dimension == 2
    # the same system with every row negated or reordered
    assert nullspace([{c: -v for c, v in row.items()} for row in rows], 6) == res
    assert nullspace([dict(reversed(row.items())) for row in reversed(rows)], 6) == res


def test_callers_bind_the_one_solver():
    # the benchmark tracer replaces `nullspace` in the modules that call it,
    # by name: a second solver bound there would escape the trace, and
    # `nilpotent` binds no elimination routine (its determinants go through
    # `linalg.det_integer` by attribute); `clifford` solves no system (its
    # commutant is a character sum)
    assert symmetry.nullspace is linalg.nullspace
    public = {linalg.nullspace, linalg.check_budget, linalg.default_budget}
    allowed = {symmetry: public, clifford: set(), nilpotent: {linalg.integerize_row}}
    for mod, names in allowed.items():
        bound = {v for v in vars(mod).values()
                 if callable(v) and getattr(v, "__module__", None) == linalg.__name__}
        assert bound <= names, mod.__name__


def _leibniz(mat):
    n = len(mat)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(mat[i][perm[i]] for i in range(n))
    return total


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: st.lists(
    st.lists(st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)),
             min_size=n, max_size=n), min_size=n, max_size=n)))
def test_det_exact(mat):
    assert det_exact(mat) == _leibniz(mat)


def _recorded_leads(monkeypatch):
    """Wrap `_rref_modp` to record, per prime, the (pivot, lead) pairs."""
    seen = []
    kernel = linalg._rref_modp

    def recording(rows, p, ncols, leads=None):
        out = kernel(rows, p, ncols, leads)
        seen.append((p, list(leads)))
        return out

    monkeypatch.setattr(linalg, "_rref_modp", recording)
    return seen


def test_det_exact_carries_a_zero_residue_at_the_first_prime(monkeypatch):
    # 2^31 - 1 is the first prime, so the row clears to 0 there and the
    # second prime alone fixes the determinant
    seen = _recorded_leads(monkeypatch)
    assert det_exact([[2**31 - 1]]) == 2**31 - 1
    assert [p for p, _ in seen] == _LADDER[:2]
    assert seen[0][1] == [] and seen[1][1] == [(0, 2**31 - 1 - _LADDER[1])]
    assert det_exact([[Fraction(-(2**31 - 1), 7)]]) == Fraction(-(2**31 - 1), 7)


def test_det_exact_reads_past_half_the_first_prime():
    # |det| < 2^31 - 1, but one prime cannot tell -(2^30 + 5) from 2^30 - 6:
    # the modulus must pass twice the Hadamard bound, not the bound
    assert det_exact([[-(2**30 + 5)]]) == -(2**30 + 5)
    assert det_exact([[0, 2**30 + 5], [1, 0]]) == -(2**30 + 5)


def test_det_exact_folds_several_primes(monkeypatch):
    # entries near 10^12: the Hadamard bound needs more than three primes
    rng = random.Random(5)
    mat = [[Fraction(rng.randint(-10**12, 10**12), rng.choice((1, 3, 7)))
            for _ in range(4)] for _ in range(4)]
    seen = _recorded_leads(monkeypatch)
    assert det_exact(mat) == _leibniz(mat) != 0
    assert len(seen) >= 3 and all(len(leads) == 4 for _, leads in seen)


def test_det_exact_singular_at_every_prime(monkeypatch):
    big = 10**15 + 37
    mat = [[big, 2 * big, 3], [1, 2, 5], [big + 1, 2 * big + 2, 8]]
    seen = _recorded_leads(monkeypatch)
    assert det_exact(mat) == _leibniz(mat) == 0
    assert len(seen) >= 3 and all(len(leads) < 3 for _, leads in seen)
