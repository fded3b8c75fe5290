"""Derivation spaces and prolongations against independently derived dimensions."""

import dataclasses
import gc
import hashlib
import itertools
import logging
import os
import random
import subprocess
import sys
import tracemalloc
import types
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy

import htype
from htype import linalg, symmetry
from htype.clifford import build_htype_from_clifford, clifford_generators
from htype.division import DivisionAlgebra as DA
from htype.errors import BudgetExceeded, StructureError
from htype.nilpotent import build_hn, build_hprime, make_custom, random_two_step
from htype.symmetry import (
    DEFAULT_BUDGET,
    default_budget,
    full_derivations,
    graded_derivations,
    symmetry_excess,
    tanaka_prolong,
    verify_graded_derivation,
)

BIG = 10**8

# dim Der_gr frozen after cross-checking the solver against closed forms:
# h_n(R) -> n(2n+1)+1, h_n(C) -> 2n(2n+1)+2, and the so(m)-lift picture
# so(m) + R + commutant for the Clifford-generated algebras.
GRADED_DIMS = {
    ("hn", "R", 1): 4,
    ("hn", "R", 2): 11,
    ("hn", "R", 3): 22,
    ("hn", "R", 4): 37,
    ("hn", "C", 1): 8,
    ("hn", "C", 2): 22,
    ("hn", "C", 3): 44,
    ("hn", "H", 1): 11,
    ("hn", "H", 2): 23,
    ("hn", "O", 1): 30,
    ("hp", "H", 1, 0): 7,
    ("hp", "H", 0, 1): 7,
    ("hp", "H", 1, 1): 14,
    ("hp", "H", 2, 0): 14,
    ("hp", "H", 2, 1): 25,
    ("hp", "O", 1, 0): 22,
}

CLIFFORD_GRADED_DIMS = {1: 4, 2: 8, 3: 7, 4: 11, 5: 12, 6: 16}


def _build(key):
    if key[0] == "hn":
        return build_hn(DA.from_tag(key[1]), key[2])
    return build_hprime(DA.from_tag(key[1]), key[2], key[3])


@pytest.mark.parametrize("key", sorted(GRADED_DIMS))
def test_graded_derivation_dimensions(key):
    alg = _build(key)
    der = graded_derivations(alg)
    assert der.dimension == GRADED_DIMS[key]
    # every returned basis element really is a derivation
    for a, b, _ in der.basis:
        assert verify_graded_derivation(alg, a, b)


@pytest.mark.parametrize("m", sorted(CLIFFORD_GRADED_DIMS))
def test_clifford_graded_dimensions(m):
    alg = build_htype_from_clifford(m, 1)
    assert graded_derivations(alg).dimension == CLIFFORD_GRADED_DIMS[m]


def test_h1r_matches_independent_solver():
    # same linear system assembled and solved by sympy, nothing shared
    alg = build_hn(DA.R, 1)
    c = alg.structure
    n, m = 2, 1
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(m):
                row = [0] * (n * n + m * m)
                for l in range(m):
                    row[n * n + k * m + l] += c[i][j][l]
                for t in range(n):
                    row[t * n + i] -= c[t][j][k]
                    row[t * n + j] -= c[i][t][k]
                rows.append([sympy.Rational(x) for x in row])
    dim = len(sympy.Matrix(rows).nullspace())
    assert dim == 4
    assert graded_derivations(alg).dimension == 4


def _reference_full_derivations(alg):
    """(basis, dimension, offgrade_dimension, method) of Der(n) from one
    solve of the whole (A, B, C, E) system: the graded rows, no C rows, the
    E rows [x, Ez] = 0 and E[x, y] = 0. A basis vector is off-grade when
    it holds a column of the E block, the last block."""
    n, m = alg.dim_v, alg.dim_z
    ncols = n * n + m * m + m * n + n * m
    e_off = n * n + m * m + m * n
    levels = symmetry._negative_levels(alg)
    rows = list(symmetry._prolong_rows(0, levels))
    brackets = symmetry._brackets(levels[-1][0], n)  # [s][t]: (k, D c(x_s, x_t)_k)
    for cs in brackets:
        by_k = [[] for _ in range(m)]
        for t, cst in enumerate(cs):
            for kp, x in cst:
                by_k[kp].append((t, x))
        for k in range(m):
            for kp in range(m):
                row = {e_off + t * m + k: x for t, x in by_k[kp]}
                if row:
                    rows.append(row)
    for i in range(n):  # E[x_i, x_j] = 0, one row per v-coordinate t
        for j in range(i + 1, n):
            if cij := brackets[i][j]:
                rows.extend({e_off + t * m + k: x for k, x in cij} for t in range(n))
    res = linalg.nullspace(rows, ncols)
    basis = []
    for (_, entries), vec in zip(res.vectors, res.basis):
        if entries[-1][0] < e_off:  # A, B and C as row-major row tuples
            blocks, pos = [], 0
            for n_rows, n_cols in ((n, n), (m, m), (m, n)):
                blocks.append(tuple(vec[pos + r * n_cols:pos + (r + 1) * n_cols]
                                    for r in range(n_rows)))
                pos += n_rows * n_cols
            basis.append(tuple(blocks))
    return tuple(basis), res.dimension, res.dimension - len(basis), res.method


def _sparse_degenerate_algebras(seed, count):
    """Algebras with few random brackets, so rad v != 0 and [v, v] != z
    are both common."""
    rng = random.Random(seed)
    algs = []
    for _ in range(count):
        n, m = rng.randint(2, 4), rng.randint(1, 3)
        pairs = list(itertools.combinations(range(n), 2))
        entries = [(i, j, rng.randrange(m), Fraction(rng.choice([-2, -1, 1, 3]), 2))
                   for i, j in rng.sample(pairs, rng.randint(1, min(3, len(pairs))))]
        algs.append(make_custom("sparse", n, m, entries))
    return algs


def _full_fields(full):
    return full.basis, full.dimension, full.offgrade_dimension, full.method


def test_full_equals_graded_plus_hom():
    for alg in [build_hn(DA.R, 1), build_hn(DA.R, 2), build_hn(DA.C, 1),
                build_hprime(DA.H, 1, 0), build_hprime(DA.H, 1, 1),
                build_htype_from_clifford(3, 1)]:
        g = graded_derivations(alg)
        f = full_derivations(alg)
        assert f.dimension == g.dimension + alg.dim_v * alg.dim_z
        assert f.offgrade_dimension == 0
        assert _full_fields(f) == _reference_full_derivations(alg)
    assert full_derivations(build_hn(DA.R, 1)).dimension == 6


def test_abelian_derivations_are_gl():
    alg = build_hprime(DA.R, 2, 3)  # dim_z = 0
    assert graded_derivations(alg).dimension == 25
    assert full_derivations(alg).dimension == 25


def test_generic_dimension_is_usually_one():
    # needs pairs*dim_z >= dim_v^2 + dim_z^2 - 1, else nullity is forced
    # higher by counting; (5,4) is the smallest balanced shape that works
    rng = random.Random(20260825)
    dims = []
    for _ in range(20):
        alg = random_two_step(5, 4, rng)
        dims.append(graded_derivations(alg).dimension)
    assert min(dims) >= 1  # the grading derivation always survives
    assert sum(1 for d in dims if d == 1) > 10


# prolongation component dims frozen from the exact solver after checking
# h1(R) against the weighted-monomial count for contact vector fields
# (6, 9, 12 at degrees 1..3) and the completing cases against the mirror
# shape dim g1 = dim v, dim g2 = dim z.
PROLONG = {
    ("hn", "R", 1): (4, (6, 9, 12), False),
    ("hn", "R", 2): (11, (24,), False),
    ("hn", "C", 1): (8, (12, 18, 24), False),
    ("hn", "H", 1): (11, (8, 4), True),
    ("hp", "H", 1, 0): (7, (4, 3), True),
    ("hp", "H", 1, 1): (14, (8, 3), True),
    ("hp", "O", 1, 0): (22, (8, 7), True),
}


@pytest.mark.parametrize("key", sorted(PROLONG))
def test_prolongation_components(key):
    alg = _build(key)
    g0, comps, completes = PROLONG[key]
    depth = len(comps) if completes else len(comps)
    res = tanaka_prolong(alg, max_degree=depth + (1 if completes else 0),
                         budget=BIG)
    assert res.g0_dim == g0
    assert res.component_dims == comps
    assert res.completed is completes
    assert not res.trivial
    assert res.total_dim == alg.dim_total + g0 + sum(comps)
    if completes:
        assert res.component_dims == (alg.dim_v, alg.dim_z)


@pytest.mark.parametrize("m", [5, 6])
def test_trivial_prolongations(m):
    alg = build_htype_from_clifford(m, 1)
    res = tanaka_prolong(alg, max_degree=2, budget=BIG)
    assert res.trivial
    assert res.completed
    assert res.component_dims == ()
    assert res.total_dim == alg.dim_total + res.g0_dim


def _flat(mat):
    return [x for row in mat for x in row]


def test_float_backend_agrees():
    # A float oracle independent of the package's solver: each degree's
    # system, assembled here in floats from the structure tensor, g0 and
    # the float64 bases, has numpy rank ncols - (reported dimension),
    # and every float vector solves it.
    for alg in [build_hn(DA.R, 1), build_hn(DA.H, 1), build_hprime(DA.H, 1, 1),
                build_hprime(DA.O, 1, 0)]:
        res = tanaka_prolong(alg, max_degree=3, budget=BIG, arithmetic="float64")
        assert res.arithmetic == "float64"
        n, m = alg.dim_v, alg.dim_z
        c = [[[float(x) for x in cij] for cij in ci] for ci in alg.structure]
        g0 = [([[float(x) for x in row] for row in a], [[float(x) for x in row] for row in b])
              for a, b, _ in graded_derivations(alg).basis]
        levels = {-1: ([[[c[a][t][s] for t in range(n)] for s in range(m)]
                        for a in range(n)], []),
                  0: tuple(zip(*g0))}
        vectors = {0: [_flat(a) + _flat(b) for a, b in g0]}
        for K, (ps, qs) in enumerate(res.bases, start=1):
            assert all(type(x) is float for p in ps + qs for x in _flat(p))
            levels[K] = (ps, qs)
            vectors[K] = [_flat(p) + _flat(q) for p, q in zip(ps, qs)]
        assert res.completed or len(res.component_dims) == 3
        dims = [res.g0_dim, *res.component_dims] + [0] * res.completed
        for K, dim in enumerate(dims):
            rows = np.array(_reference_rows(K, c, levels, 0.0))
            assert rows.shape[1] - np.linalg.matrix_rank(rows) == dim, (alg.name, K)
            if dim:
                assert np.abs(rows @ np.array(vectors[K]).T).max() < 1e-9, (alg.name, K)


def test_supplied_g0_scaling_only():
    alg = build_hn(DA.R, 1)
    a = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    b = ((Fraction(2),),)
    res = tanaka_prolong(alg, supplied_g0=[(a, b)], max_degree=2)
    assert res.g0_dim == 1
    assert res.trivial


def test_empty_supplied_g0_is_refused():
    with pytest.raises(ValueError, match="non-empty"):
        tanaka_prolong(build_hn(DA.R, 1), supplied_g0=[])


@pytest.mark.parametrize("kwargs, message", [
    ({"max_degree": 0}, "max_degree must be >= 1"),
    ({"arithmetic": "float32"}, "unknown arithmetic 'float32'"),
])
def test_prolongation_refuses_bad_arguments(kwargs, message):
    with pytest.raises(ValueError, match=message):
        tanaka_prolong(build_hn(DA.C, 1), **kwargs)


def test_supplied_g0_rejects_non_derivation():
    alg = build_hn(DA.R, 1)
    a = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    b = ((Fraction(1),),)  # identity on v must double the center action
    with pytest.raises(StructureError):
        tanaka_prolong(alg, supplied_g0=[(a, b)])


@pytest.mark.parametrize("key", [("hn", "H", 1), ("hp", "H", 1, 0), ("hp", "H", 1, 1),
                                 ("hn", "C", 1)])
def test_supplied_der_gr_matches_full_mode(key):
    # Der_gr(n) supplied as level 0 and Der_gr(n) solved as degree 0 give
    # the same prolongation and the same canonical bases, in either arithmetic.
    alg = _build(key)
    g0 = [(a, b) for a, b, _ in graded_derivations(alg).basis]
    for arithmetic in ("exact", "float64"):
        full = tanaka_prolong(alg, max_degree=3, arithmetic=arithmetic, budget=BIG)
        supplied = tanaka_prolong(alg, supplied_g0=g0, max_degree=3, arithmetic=arithmetic,
                                  budget=BIG)
        assert supplied.g0_dim == full.g0_dim == GRADED_DIMS[key]
        assert supplied.component_dims == full.component_dims
        assert repr(supplied.bases) == repr(full.bases)


def test_supplied_g0_takes_the_derivation_basis_as_it_is():
    # DerivationSpace.basis holds (A, B, None) triples; they go in unchanged
    alg = build_hn(DA.H, 1)
    basis = graded_derivations(alg).basis
    kwargs = dict(max_degree=3, budget=BIG)
    triples = tanaka_prolong(alg, supplied_g0=basis, **kwargs)
    pairs = tanaka_prolong(alg, supplied_g0=[(a, b) for a, b, _ in basis], **kwargs)
    assert triples.g0_dim == len(basis) == GRADED_DIMS[("hn", "H", 1)]
    assert triples.component_dims == pairs.component_dims
    assert repr(triples.bases) == repr(pairs.bases)


def test_supplied_g0_rejects_malformed_elements():
    alg = build_hn(DA.R, 1)
    a = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    b = ((Fraction(2),),)
    for element in [(a,), (a, b, b), (a, b, None, None), a[0], "ab", (b, a),
                    (a[:1], b), (a, ((Fraction(2), Fraction(0)),))]:
        with pytest.raises(StructureError, match="supplied g0 element must be"):
            tanaka_prolong(alg, supplied_g0=[(a, b), element])
    # entries that are neither ints nor Fractions are refused before any work
    # (a float once reached `_level`, a str or None `verify_graded_derivation`)
    h1h = build_hn(DA.H, 1)
    a, b, _ = graded_derivations(h1h).basis[0]
    for bad in (0.5, "1", None):
        for element in [(((bad,) + a[0][1:],) + a[1:], b), (a, ((bad,) + b[0][1:],) + b[1:])]:
            with pytest.raises(StructureError, match="of ints or Fractions"):
                tanaka_prolong(h1h, supplied_g0=[element])


def test_supplied_g0_rejects_dependent_elements(monkeypatch):
    # a repeated element once turned h1(H)'s components (8, 4) into (16, 44);
    # linear relations are refused before any degree is assembled
    alg = build_hn(DA.H, 1)
    basis = [(a, b) for a, b, _ in graded_derivations(alg).basis]
    (a0, b0), (a1, b1) = basis[:2]
    total = tuple(tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(m0, m1))
                  for m0, m1 in ((a0, a1), (b0, b1)))
    zero = tuple(tuple(tuple(0 * x for x in row) for row in mat) for mat in (a0, b0))
    monkeypatch.setattr(symmetry, "_prolong_rows", lambda *args: pytest.fail("solved"))
    for g0 in (basis + basis[:1], basis[:2] + [total], [zero], basis[:1] + [zero]):
        with pytest.raises(StructureError, match="linearly dependent"):
            tanaka_prolong(alg, supplied_g0=g0, max_degree=2, budget=BIG)
    monkeypatch.undo()
    res = tanaka_prolong(alg, supplied_g0=basis[1:] + [total], max_degree=2, budget=BIG)
    assert (res.g0_dim, res.component_dims) == (len(basis), (8, 4))


@pytest.mark.parametrize("make, kwargs, components, completed", [
    (lambda: build_htype_from_clifford(5, 1), {"max_degree": 1}, (), True),
    (lambda: build_hn(DA.H, 1), {}, (8, 4), True),
    (lambda: build_hn(DA.R, 1), {"max_degree": 2}, (6, 9), False),
    (lambda: build_hn(DA.H, 1), {"max_degree": 1, "supplied_g0": "own"}, (8,), False),
], ids=["trivial-at-1", "completed", "max-degree", "supplied-g0"])
def test_reported_fields_match_the_levels(make, kwargs, components, completed):
    # every way the degree loop can end: the reported dimensions and bases
    # are read off the same levels
    alg = make()
    if "supplied_g0" in kwargs:
        kwargs = dict(kwargs, supplied_g0=graded_derivations(alg).basis)
    res = tanaka_prolong(alg, budget=BIG, **kwargs)
    assert (res.component_dims, res.completed) == (components, completed)
    assert res.trivial == (completed and not components)
    assert res.g0_dim == graded_derivations(alg).dimension
    assert res.total_dim == alg.dim_v + alg.dim_z + res.g0_dim + sum(components)
    assert len(res.bases) == len(res.component_dims)
    for (v_mats, z_mats), dim in zip(res.bases, res.component_dims):
        assert len(v_mats) == len(z_mats) == dim


def test_degree0_budget_boundary():
    # h1(C): the degree-0 system has 6 pairs x 2 center rows and
    # 4^2 + 2^2 columns, 240 entries; degree 1 is the next to refuse.
    alg = build_hn(DA.C, 1)
    with pytest.raises(BudgetExceeded) as exc:
        tanaka_prolong(alg, budget=239)
    assert (exc.value.requested, exc.value.context) == (240, "degree-0 derivation system")
    with pytest.raises(BudgetExceeded) as exc:
        tanaka_prolong(alg, budget=240)
    assert exc.value.context == "degree-1 prolongation system"



def test_supplied_g0_is_charged_before_it_is_checked(monkeypatch):
    # h1(O): degree 0 is 960 rows x 320 columns with or without a supplied
    # g0, and is refused before its rank or derivation check assembles or
    # solves anything; an empty or malformed g0 is refused before the budget
    alg = build_hn(DA.O, 1)
    g0 = graded_derivations(alg).basis
    for name in ("_prolong_rows", "nullspace"):
        monkeypatch.setattr(symmetry, name, lambda *args, **kwargs: pytest.fail("assembled"))
    for supplied in (None, g0):
        with pytest.raises(BudgetExceeded) as exc:
            tanaka_prolong(alg, supplied_g0=supplied, budget=300_000)
        assert (exc.value.requested, exc.value.context) == (307_200, "degree-0 derivation system")
    with pytest.raises(ValueError, match="non-empty"):
        tanaka_prolong(alg, supplied_g0=[], budget=1)
    with pytest.raises(StructureError, match="supplied g0 element must be"):
        tanaka_prolong(alg, supplied_g0=list(g0[:1]) + [g0[0][:1]], budget=1)

def test_budget_refusal_is_fast():
    import time
    alg = build_hn(DA.R, 28)
    t0 = time.time()
    with pytest.raises(BudgetExceeded) as exc:
        tanaka_prolong(alg)
    assert time.time() - t0 < 1.0
    assert exc.value.budget == DEFAULT_BUDGET
    assert "exceeds budget" in str(exc.value)


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("DIVH_BUDGET", "12345")
    assert default_budget() == 12345
    monkeypatch.setenv("DIVH_BUDGET", "not-a-number")
    with pytest.raises(ValueError):
        default_budget()
    for raw in ("0", "-1"):
        monkeypatch.setenv("DIVH_BUDGET", raw)
        with pytest.raises(ValueError, match="positive"):
            default_budget()


@pytest.mark.parametrize("budget", [0, -5])
def test_non_positive_budget_is_refused_as_input(budget):
    with pytest.raises(ValueError, match=f"budget must be a positive entry count, got {budget}"):
        tanaka_prolong(build_hn(DA.R, 1), budget=budget)


def _fail_below_two_primes(monkeypatch, caplog):
    """Make rational reconstruction fail below the modulus of the first two
    primes, so that each exact system rejects the first prime, logs it and
    is certified by the CRT image of the first two."""
    first, second = itertools.islice(linalg._primes(), 2)
    real = linalg._rat_reconstruct
    monkeypatch.setattr(linalg, "_rat_reconstruct",
                        lambda a, modulus: None if modulus < first * second else real(a, modulus))
    caplog.set_level(logging.INFO, logger="htype.linalg")
    return f"rational reconstruction failed at prime {first}"


def test_prolongation_escalations_name_their_system(monkeypatch, caplog):
    alg = build_hn(DA.H, 1)
    want = tanaka_prolong(alg, max_degree=2, budget=BIG)
    failure = _fail_below_two_primes(monkeypatch, caplog)
    # a fresh algebra: Der_gr of alg is solved once, and read from then on
    res = tanaka_prolong(build_hn(DA.H, 1), max_degree=2, budget=BIG)
    assert res.bases == want.bases and res.component_dims == (8, 4)
    assert [r.getMessage() for r in caplog.records] == [
        f"nullspace {label}: {failure}"
        for label in ("degree-0 derivation system", "degree-1 prolongation system",
                      "degree-2 prolongation system")]


# full: the rad v and z / [v, v] systems of h1(H) have full rank, so their
# RREF has no entry to reconstruct and nothing escalates; clifford: the
# commutant is a character sum, and no nullspace runs
@pytest.mark.parametrize("solve, labels", [
    (lambda: graded_derivations(build_hn(DA.H, 1)).basis, ["graded derivation system of h1(H)"]),
    (lambda: full_derivations(build_hn(DA.H, 1)).basis, ["full derivation system of h1(H)"]),
    (lambda: clifford_generators(3), []),
], ids=["graded", "full", "clifford"])
def test_derivation_escalations_name_their_system(monkeypatch, caplog, solve, labels):
    want = solve()
    failure = _fail_below_two_primes(monkeypatch, caplog)
    assert solve() == want
    assert [r.getMessage() for r in caplog.records] == [
        f"nullspace {label}: {failure}" for label in labels]


def test_excess_bookkeeping():
    alg = build_hn(DA.H, 1)
    res = tanaka_prolong(alg, max_degree=3, budget=BIG)
    ex = symmetry_excess(alg, res)
    assert ex.infinitesimal_excess == res.total_dim - res.g0_dim
    assert ex.meets_divh_bound  # 24 >= 2*12, boundary case
    assert not ex.is_rigid

    cl = build_htype_from_clifford(5, 1)
    res2 = tanaka_prolong(cl, max_degree=2, budget=BIG)
    ex2 = symmetry_excess(cl, res2)
    assert ex2.is_rigid
    assert ex2.infinitesimal_excess == ex2.dim_n


def test_result_serializes():
    res = tanaka_prolong(build_hn(DA.R, 1), max_degree=2)
    d = res.to_json_dict()
    assert d["algebra_name"] == "h1(R)"
    assert d["component_dims"] == [6, 9]
    assert d["total_dim"] == 3 + 4 + 6 + 9
    assert d["trivial"] is False
    assert isinstance(d["elapsed_ms"], int)


# sha256 of repr(tanaka_prolong(...).bases) on h'1,0(A).
# The exact digests were computed before the small exact systems moved to
# integer elimination: every system of h'1,0(H) took the "fraction" path,
# those of h'1,0(O) the mod-p path. The float64 digest is that of the exact
# bases as floats. Each case runs in a fresh interpreter, once with one
# BLAS thread and once with two; neither arithmetic loads numpy.
PINNED_BASES = {
    ("H", "exact"): "653b07019b2d0867052a74727ff92759ce899f38cf1d6ae03f2f6b3a159cbeb4",
    ("O", "exact"): "68241ada2fdad6fa84f7a8e93289cee38803e6bc04f6aacfe96c729f9ba9e12b",
    ("O", "float64"): "fa3420f3f9d94bb912b9b1ed2066ddc96347a2333944d498303b36f9a01b9ab8",
}

_BASES_HASH = (
    "import hashlib, sys\n"
    "from htype.division import DivisionAlgebra as DA\n"
    "from htype.nilpotent import build_hprime\n"
    "from htype.symmetry import tanaka_prolong\n"
    "alg = build_hprime(DA.from_tag(sys.argv[1]), 1, 0)\n"
    f"res = tanaka_prolong(alg, arithmetic=sys.argv[2], budget={BIG})\n"
    "assert 'numpy' not in sys.modules\n"
    "print(hashlib.sha256(repr(res.bases).encode()).hexdigest())\n"
)


@pytest.mark.parametrize("tag, arithmetic", sorted(PINNED_BASES))
def test_prolongation_bases_pinned(tag, arithmetic):
    src = str(Path(htype.__file__).resolve().parent.parent)
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", _BASES_HASH, tag, arithmetic],
                              env=env, capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == PINNED_BASES[(tag, arithmetic)], threads


def _third(alg):
    """alg with every structure constant divided by 3: level -1 has scale 3."""
    entries = tuple((i, j, k, x / 3) for i, j, k, x in alg.nonzeros)
    return dataclasses.replace(alg, nonzeros=entries, name=f"{alg.name}/3")


def _h1h_third_g0():
    alg = build_hn(DA.H, 1)
    return [tuple(tuple(tuple(x / 3 for x in row) for row in mat) for mat in (a, b))
            for a, b, _ in graded_derivations(alg).basis]


# sha256 of repr(tanaka_prolong(...).bases), exact, computed
# before the assembler read integer level tensors. Each case has a level whose
# common denominator is not 1 (level -1 for the scaled and random algebras,
# level 0 for the scaled g0), so a dropped per-level scale changes the bases.
PINNED_SCALED_BASES = {
    "h1(H)/3": (lambda: dict(alg=_third(build_hn(DA.H, 1))),
                "8367266ac89e03a87508af82c69aaf324e29aea3f24dce4bbc70839bd8c29d84"),
    "random(5,2)": (lambda: dict(alg=random_two_step(5, 2, random.Random(0))),
                    "b8813d2f164d7435d296e0e3e105ef317b43a7ede4bb78bc5c292309eb8c5e19"),
    "h1(H) g0/3": (lambda: dict(alg=build_hn(DA.H, 1), supplied_g0=_h1h_third_g0()),
                   "cf7d4cbae00384936768e53c2be029cc74cdb90c04aaffc6378f52b1f75117b6"),
}


@pytest.mark.parametrize("case", sorted(PINNED_SCALED_BASES))
def test_scaled_level_bases_pinned(case):
    kwargs, digest = PINNED_SCALED_BASES[case]
    res = tanaka_prolong(budget=BIG, **kwargs())
    assert (res.g0_dim, res.component_dims) in ((11, (8, 4)), (9, (14, 20, 30)))
    assert hashlib.sha256(repr(res.bases).encode()).hexdigest() == digest


def test_large_entry_bases_pinned():
    # The canonical bases of this algebra have entries beyond 46 bits, so no
    # three-prime image reconstructs them; the digests were computed when
    # integer Gauss-Jordan solved these systems. Both are certified now by
    # a longer CRT image.
    alg = random_two_step(8, 2, random.Random(3))
    g0 = graded_derivations(alg)
    assert g0.method == "modp-crt"
    assert hashlib.sha256(repr(g0.basis).encode()).hexdigest() == (
        "dbff1216a561c3fd060ef025c89eea88f878a2d8296ee56a64126e2ad6b2bf49")
    res = tanaka_prolong(alg, max_degree=1, budget=BIG)
    assert hashlib.sha256(repr(res.bases).encode()).hexdigest() == (
        "59c6ebe7946a6f4c959502141eb702bf5331978c5f506d974df95f238d5becda")


# sha256 of repr() of the largest outputs that the prolongation levels and the
# derivation spaces are rebuilt from, computed before the levels were read off
# the solver's integer vectors.
PINNED_LARGE_OUTPUTS = {
    "prolong h1(O)": (
        lambda: tanaka_prolong(build_hn(DA.O, 1), max_degree=3, budget=BIG).bases,
        "44251def2fa5052689be78e66fd9e431ecc61e3836122683a785948f828976fd"),
    "graded h1(O)": (
        lambda: graded_derivations(build_hn(DA.O, 1)).basis,
        "ef725cfa39ea0e11295c868e8ba7736e31be19735b750a8d61443ac09aeed9d9"),
    "full h'1,0(O)": (
        lambda: full_derivations(build_hprime(DA.O, 1, 0)).basis,
        "93c6a5f0d06cb6b83cc92bcf8d7aefe7fa5eeb761e6f6510955eacb360c63f11"),
    "graded h2(H)": (
        lambda: graded_derivations(build_hn(DA.H, 2)).basis,
        "178e97f521a02c904e4cfa42845a60f9bbd50edb638bfaf26f3ce5ab16d52c6e"),
}


@pytest.mark.parametrize("case", sorted(PINNED_LARGE_OUTPUTS))
def test_large_outputs_pinned(case):
    compute, digest = PINNED_LARGE_OUTPUTS[case]
    assert hashlib.sha256(repr(compute()).encode()).hexdigest() == digest


# sha256 of repr([(ncols, rows), ...]) for the systems that tanaka_prolong
# feeds to nullspace on h1(O), degrees 0-3, each row as its sorted items in
# emission order; re-pinned when the layer pairs were reordered to (z, z),
# (v, z), (v, v), after the multiset digest below passed unchanged
H1O_SYSTEMS_SHA256 = "66026bf36b1f7a1ebb25fa0cc781554dd5a7d878b5ca7f07ca18a20bb22ed955"


def test_h1o_prolongation_systems_pinned(monkeypatch):
    systems = []
    real = symmetry.nullspace

    def recorded(rows, ncols, context=""):
        rows = list(rows)
        systems.append((ncols, [sorted(row.items()) for row in rows]))
        return real(rows, ncols, context)

    monkeypatch.setattr(symmetry, "nullspace", recorded)
    res = tanaka_prolong(build_hn(DA.O, 1), max_degree=3, budget=BIG)
    assert res.component_dims == (16, 8) and res.completed
    assert [(ncols, len(rows)) for ncols, rows in systems] == [
        (320, 960), (608, 2496), (496, 5872), (256, 5760)]
    assert hashlib.sha256(repr(systems).encode()).hexdigest() == H1O_SYSTEMS_SHA256


# the same systems with the rows of each as a multiset: sha256 of
# repr([(ncols, sorted(sorted(row.items()) for row in rows)), ...]),
# computed while the rows were assembled into a list and sorted by length
H1O_SYSTEM_MULTISETS_SHA256 = "1af3f882bfa919a6bb37a476248a805f17092c88f6a87f64161847bd895d00ab"


def test_h1o_prolongation_system_multisets_pinned(monkeypatch):
    systems = []
    real = symmetry.nullspace

    def recorded(rows, ncols, context=""):
        rows = list(rows)
        systems.append((ncols, sorted(sorted(row.items()) for row in rows)))
        return real(rows, ncols, context)

    monkeypatch.setattr(symmetry, "nullspace", recorded)
    tanaka_prolong(build_hn(DA.O, 1), max_degree=3, budget=BIG)
    assert [(ncols, len(rows)) for ncols, rows in systems] == [
        (320, 960), (608, 2496), (496, 5872), (256, 5760)]
    assert hashlib.sha256(repr(systems).encode()).hexdigest() == H1O_SYSTEM_MULTISETS_SHA256


def test_each_degree_is_streamed_and_a_full_rank_degree_stops_assembling(monkeypatch):
    # tanaka_prolong hands nullspace a system whose every pass assembles the
    # degree afresh, and whose len counts the rows one pass yields; a pass
    # builds rows only as the kernel reads them (a chunk ahead), so h1(O)'s
    # full-rank degree 3 stops at 4,096 of its 5,760 rows
    assemble, solve = symmetry._prolong_rows, symmetry.nullspace
    yielded, systems = [], []

    def counting(K, levels):
        yielded.append([K, 0])
        for row in assemble(K, levels):
            yielded[-1][1] += 1
            yield row

    def recorded(rows, ncols, context=""):
        systems.append(rows)
        return solve(rows, ncols, context)

    monkeypatch.setattr(symmetry, "_prolong_rows", counting)
    monkeypatch.setattr(symmetry, "nullspace", recorded)
    res = tanaka_prolong(build_hn(DA.O, 1), max_degree=3, budget=BIG)
    assert res.component_dims == (16, 8) and res.completed
    assert yielded == [[0, 960], [1, 2496], [2, 5872], [3, 4096]]
    assert all(isinstance(rows, linalg.Rows) for rows in systems)
    yielded.clear()
    assert [len(rows) for rows in systems] == [960, 2496, 5872, 5760]
    assert yielded == [[0, 960], [1, 2496], [2, 5872], [3, 5760]]
    assert [sum(1 for _ in rows) for rows in systems] == [960, 2496, 5872, 5760]


@pytest.mark.parametrize("make,limit", [(lambda: build_hn(DA.O, 1), 1.6e6),
                                        (lambda: build_htype_from_clifford(8, 3), 4.0e6)],
                         ids=["h1(O)", "cl(8,3)"])
def test_prolongation_holds_only_the_rows_the_kernel_keeps(make, limit):
    # traced peak of a whole prolongation: about 1.5 MB on h1(O) and 2.8 MB
    # on cl(8,3), where a degree's rows held as one list took 2.1 and 11.4
    alg = make()
    gc.collect()
    tracemalloc.start()
    try:
        tanaka_prolong(alg, max_degree=3, budget=10**9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit


def test_prolongation_reads_no_fraction_basis(monkeypatch):
    # every level is read off NullspaceResult.vectors, and the bases
    # off those levels, as Fractions over the level's scale
    def refuse(self):
        raise AssertionError("NullspaceResult.basis read")

    monkeypatch.setattr(linalg.NullspaceResult, "basis", property(refuse))
    res = tanaka_prolong(build_hprime(DA.O, 1, 0), max_degree=3, budget=BIG)
    assert (res.g0_dim, res.component_dims, res.total_dim) == (22, (8, 7), 52)
    res = tanaka_prolong(build_hprime(DA.O, 1, 0), max_degree=1, budget=BIG)
    assert len(res.bases) == 1 and type(res.bases[0][0][0][0][0]) is Fraction


def test_derivation_spaces_read_no_fraction_basis(monkeypatch):
    # Der_gr is densified from its cached level record, and the C maps and
    # the off-grade count need no Fraction vector either
    def refuse(self):
        raise AssertionError("NullspaceResult.basis read")

    monkeypatch.setattr(linalg.NullspaceResult, "basis", property(refuse))
    for alg, graded, offgrade in [(build_hprime(DA.O, 1, 0), 22, 0),
                                  (make_custom("deg3", 3, 2, [(0, 1, 0, 1)]), 9, 1)]:
        space = graded_derivations(alg)
        full = full_derivations(alg)
        assert (space.dimension, full.offgrade_dimension) == (graded, offgrade)
        assert full.dimension == graded + alg.dim_v * alg.dim_z + offgrade
        assert type(space.basis[0][0][0][0]) is Fraction
        assert type(full.basis[-1][2][-1][-1]) is Fraction


def _scalars(x):
    """Every non-container value reachable from x through tuples, lists and
    dicts (keys and values)."""
    if isinstance(x, dict):
        return _scalars(list(x.items()))
    if isinstance(x, (tuple, list)):
        return [y for item in x for y in _scalars(item)]
    return [x]


def test_exact_results_hold_no_dense_matrix():
    # a DerivationSpace holds no matrix at all, and a ProlongationResult
    # holds its level records: nonzeros (slot, x) and scales, ints only
    assert [f.name for f in dataclasses.fields(symmetry.DerivationSpace)] == [
        "algebra", "graded_only", "dimension", "method", "offgrade_dimension"]
    alg = build_hn(DA.H, 1)
    for space in (graded_derivations(alg), full_derivations(alg)):
        values = [getattr(space, f.name) for f in dataclasses.fields(space)][1:]
        assert all(type(x) in (bool, int, str) for x in values)
    res = tanaka_prolong(alg, max_degree=3, budget=BIG)
    assert res.component_dims == (8, 4)
    values = _scalars([getattr(res, f.name) for f in dataclasses.fields(res)])
    assert {type(x) for x in values} == {bool, int, str}
    assert sorted(res.levels) == [-2, -1, 0, 1, 2]


def test_exact_results_keep_only_their_records():
    # once Der_gr is kept on the algebra, building both spaces and the
    # prolongation keeps about a kilobyte; one dense read of the graded
    # basis alone holds some 40 kB
    alg = build_htype_from_clifford(6, 1)
    graded_derivations(alg)
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        results = (graded_derivations(alg), full_derivations(alg),
                   tanaka_prolong(alg, max_degree=2, budget=BIG))
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - start
        dense = results[0].basis
        read = tracemalloc.get_traced_memory()[0] - start - kept
    finally:
        tracemalloc.stop()
    assert (len(dense), results[1].dimension, results[2].trivial) == (16, 64, True)
    assert kept * 8 < read, (kept, read)


def test_each_read_builds_the_bases_afresh_and_solves_nothing(monkeypatch):
    alg = make_custom("deg3", 3, 2, [(0, 1, 0, 1)])
    results = (graded_derivations(alg), full_derivations(alg),
               tanaka_prolong(build_hn(DA.H, 1), max_degree=2, budget=BIG),
               tanaka_prolong(build_hn(DA.H, 1), max_degree=2, arithmetic="float64",
                              budget=BIG))

    def refuse(*args, **kwargs):
        raise AssertionError("nullspace called by a read")

    monkeypatch.setattr(linalg, "nullspace", refuse)
    monkeypatch.setattr(symmetry, "nullspace", refuse)
    for space in results[:2]:
        first, second = space.basis, space.basis
        assert first == second and first is not second
        assert all(a is not b for a, b in zip(first[0], second[0]) if a is not None)
    for res in results[2:]:
        first, second = res.bases, res.bases
        assert first == second and first is not second
        assert first[0][0][0] is not second[0][0][0]
    exact = results[2].bases
    assert type(exact[0][0][0][0][0]) is Fraction
    _same_floats(exact, results[3].bases)


def _same_floats(exact, floats):
    if isinstance(exact, (tuple, list)):
        assert type(floats) is type(exact) and len(floats) == len(exact)
        for e, f in zip(exact, floats):
            _same_floats(e, f)
    else:
        assert type(floats) is float and floats == float(exact)


@pytest.mark.parametrize("alg", [build_hprime(DA.O, 1, 0), _third(build_hn(DA.H, 1)),
                                 random_two_step(5, 2, random.Random(0))],
                         ids=["h'1,0(O)", "h1(H)/3", "random(5,2)"])
def test_float64_bases_are_the_exact_bases_in_float(alg):
    exact = tanaka_prolong(alg, budget=BIG).bases
    floats = tanaka_prolong(alg, arithmetic="float64", budget=BIG).bases
    # entries with denominators 2 (all three) and 3, 37, ... (not h'1,0(O)),
    # which float() has to round
    dens = {x.denominator for ps, qs in exact for p in ps + qs for x in _flat(p)}
    assert 2 in dens and any(d & (d - 1) for d in dens) == (alg.name != "h'1,0(O)")
    _same_floats(exact, floats)


def _reference_rows(K, c, levels, zero):
    """Dense rows of the degree-K system, straight from
    f([u, w]) = [f(u), w] + [u, f(w)] on the basis of n, layer pair by layer
    pair: (v, v), (v, z), (z, z), each in the order the assembler emits its
    rows (the assembler takes the pairs the other way round). levels[j] = (v-matrices, z-matrices) of the basis
    of g_j: matrix [r][i] is the g_{j-1} (resp. g_{j-2}) coordinate r of the
    element applied to x_i (resp. z_i)."""
    n, m = len(c), len(c[0][0]) if c else 0

    def dim(j):
        return {-2: m, -1: n}.get(j, len(levels[j][0]) if j in levels else 0)

    d1, d2, d3, d4 = dim(K - 1), dim(K - 2), dim(K - 3), dim(K - 4)
    p_cols = d1 * n
    ncols = p_cols + d2 * m
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            for r in range(d2):
                row = [zero] * ncols
                for k in range(m):
                    row[p_cols + r * m + k] = c[i][j][k]
                for a, t in enumerate(levels[K - 1][0]):
                    row[a * n + i] -= t[r][j]
                    row[a * n + j] += t[r][i]
                rows.append(row)
    for i in range(n):
        for l in range(m):
            for s in range(d3):
                row = [zero] * ncols
                for a, t in enumerate(levels[K - 1][1]):
                    row[a * n + i] += t[s][l]
                for b, t in enumerate(levels[K - 2][0]):
                    row[p_cols + b * m + l] -= t[s][i]
                rows.append(row)
    for l in range(m):
        for lp in range(l + 1, m):
            for u in range(d4):
                row = [zero] * ncols
                for b, t in enumerate(levels[K - 2][1]):
                    row[p_cols + b * m + l] += t[u][lp]
                    row[p_cols + b * m + lp] -= t[u][l]
                rows.append(row)
    return rows


def _record_assembly(monkeypatch):
    """Wrap symmetry._prolong_rows; each system's K, level data and rows are
    kept, read as a list. `nullspace` reads a system once per pass (once
    per prime, and more on a CRT image); a later pass of the same degree
    must build the same rows, and is not kept again."""
    calls = []
    assemble = symmetry._prolong_rows

    def recording(K, levels):
        rows = list(assemble(K, levels))
        if calls and calls[-1][0] == K:
            assert rows == calls[-1][-1]
        else:
            calls.append((K, {j: v for j, (v, _, _) in levels.items()},
                          {j: z for j, (_, z, _) in levels.items()},
                          {j: d for j, (_, _, d) in levels.items()}, rows))
        return rows

    monkeypatch.setattr(symmetry, "_prolong_rows", recording)
    return calls


ROW_ALGEBRAS = {
    "h1(H)": lambda: build_hn(DA.H, 1),
    "h'1,0(O)": lambda: build_hprime(DA.O, 1, 0),
    "random(5,2)": lambda: random_two_step(5, 2, random.Random(1)),
}


@pytest.mark.parametrize("name", sorted(ROW_ALGEBRAS))
def test_exact_rows_are_positive_integer_multiples(monkeypatch, name):
    # The rational levels come from outside the assembler: the structure
    # tensor, the canonical Der_gr basis (= level 0) and the read bases.
    alg = ROW_ALGEBRAS[name]()
    n, m, c = alg.dim_v, alg.dim_z, alg.structure
    levels = {-1: ([[[c[a][t][s] for t in range(n)] for s in range(m)] for a in range(n)], []),
              0: tuple(zip(*[(a, b) for a, b, _ in graded_derivations(alg).basis]))}
    calls = _record_assembly(monkeypatch)
    # a fresh algebra, whose degree-0 system is assembled, not read from alg's solve
    res = tanaka_prolong(ROW_ALGEBRAS[name](), max_degree=2, budget=BIG)
    levels[1] = res.bases[0]
    assert [call[0] for call in calls] == [0, 1, 2]
    # h'1,0(O) has D_0 = 2 and the random algebra D_-1 = 4; h1(H) is integral
    assert any(d != 1 for call in calls for d in call[3].values()) == (name != "h1(H)")
    for K, v_levels, _, _, rows in calls:
        # each layer pair's rows against the reference's block of that pair:
        # (v, v) and (v, z) come first in the reference, last in the
        # assembler, which leaves out the rows that are zero
        dim = {j: len(v) for j, v in v_levels.items()}.get
        vv, vz = n * (n - 1) // 2 * dim(K - 2, 0), n * m * dim(K - 3, 0)
        ref = _reference_rows(K, c, levels, Fraction(0))
        assert len(ref) == vv + vz + m * (m - 1) // 2 * dim(K - 4, 0)
        blocks = ref[vv + vz:], ref[vv:vv + vz], ref[:vv]  # (z, z), (v, z), (v, v)
        ref = [want for block in blocks for want in block if any(want)]
        assert rows and len(rows) == len(ref)
        for row, want in zip(rows, ref):
            assert all(type(x) is int for x in row.values())
            assert set(row) == {col for col, x in enumerate(want) if x}
            ratios = {Fraction(x) / want[col] for col, x in row.items()}
            assert len(ratios) <= 1 and all(q > 0 for q in ratios)


@pytest.mark.parametrize("alg", [build_hn(DA.O, 1), build_hprime(DA.O, 1, 0),
                                 make_custom("deg3", 4, 2, [(0, 1, 0, 1)])],
                         ids=["h1(O)", "h'1,0(O)", "degenerate"])
def test_assembled_rows_are_never_empty(monkeypatch, alg):
    # h1(O) has c(x_i, x_j) = 0 with no level entry 448 times each at degrees
    # 1 and 3, and the degenerate algebra (z_1 not in [v, v]) has empty v-z
    # rows at degrees 1 and 3 as well; no such row reaches nullspace
    calls = _record_assembly(monkeypatch)
    tanaka_prolong(alg, max_degree=3, budget=BIG)
    assert [call[0] for call in calls] == [0, 1, 2, 3]
    assert all(row for *_, rows in calls for row in rows)



# sha256 of repr([[list(row.items()) for row in rows], ...]) over every
# _prolong_rows call of tanaka_prolong(max_degree=3): the values, the order
# of the rows and the order of each row's entries; re-pinned when the layer
# pairs were reordered to (z, z), (v, z), (v, v), after the multiset digests
# below passed unchanged
PINNED_ROWS = {
    "h1(H)": (ROW_ALGEBRAS["h1(H)"],
              "7167ea3208c3375f52174c552ec1559618818bfc686344a2858b9cf30913f6ec"),
    "h'1,0(O)": (ROW_ALGEBRAS["h'1,0(O)"],
                 "67346a329ddc4e13dd77c13ffd8b1bc332404c946f937b611fd7359b29930be3"),
    "random(5,2)": (ROW_ALGEBRAS["random(5,2)"],
                    "4f9335bf7a65260bba4fce2e1ea00f0a2be2fd8bf7251db8ae4947e2f4ae4dd6"),
    "deg3": (lambda: make_custom("deg3", 4, 2, [(0, 1, 0, 1)]),
             "537df23a253343b369f8d86fac32c996ceb801127e8680d5bda94eeca597a08a"),
}


@pytest.mark.parametrize("name", sorted(PINNED_ROWS))
def test_assembled_rows_pinned(monkeypatch, name):
    make, digest = PINNED_ROWS[name]
    calls = _record_assembly(monkeypatch)
    tanaka_prolong(make(), max_degree=3, budget=BIG)
    assert [call[0] for call in calls] == [0, 1, 2, 3]
    rows = [[list(row.items()) for row in call[-1]] for call in calls]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest


# sha256 of repr([sorted(list(row.items()) for row in rows), ...]) over the
# same calls: each system's rows as a multiset, whatever their order, with
# each row's entries in the order written; computed while the rows were
# assembled into a list, before they were streamed
PINNED_ROW_MULTISETS = {
    "h1(H)": "455943852c19648323e4533e36a1ec775119c8f1cde9f4cbd7c46c4bb87cdbaf",
    "h'1,0(O)": "c5de03c2b39b9a22bdbcd42e9b8b3ee2ca6374eedf25f4c1b96ad39becb7674d",
    "random(5,2)": "9db7f280ab0664444ca085605c9e400a528361203d0c6606077a2f97fc76b55b",
    "deg3": "8d19ce90d78e94250a9aa8070e07dbfbb5b11f28245570702ef68577e9b6808e",
}


@pytest.mark.parametrize("name", sorted(PINNED_ROWS))
def test_assembled_row_multisets_pinned(monkeypatch, name):
    calls = _record_assembly(monkeypatch)
    tanaka_prolong(PINNED_ROWS[name][0](), max_degree=3, budget=BIG)
    assert [call[0] for call in calls] == [0, 1, 2, 3]
    rows = [sorted(list(row.items()) for row in call[-1]) for call in calls]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == PINNED_ROW_MULTISETS[name]


@pytest.mark.parametrize("name", sorted(ROW_ALGEBRAS))
def test_budget_counts_every_row_the_assembler_writes(monkeypatch, name):
    # the budget charges each degree its rows before the empty ones are left
    # out: one per layer pair (a, b) and basis element of g_{K-p-q}
    alg = ROW_ALGEBRAS[name]()
    n, m, c = alg.dim_v, alg.dim_z, alg.structure
    charged = []
    check = symmetry.check_budget

    def recording(nrows, ncols, budget, context=""):
        charged.append((nrows, ncols))
        check(nrows, ncols, budget, context)

    monkeypatch.setattr(symmetry, "check_budget", recording)
    res = tanaka_prolong(alg, max_degree=3, budget=BIG)
    levels = {-1: ([[[c[a][t][s] for t in range(n)] for s in range(m)] for a in range(n)], []),
              0: tuple(zip(*[(a, b) for a, b, _ in graded_derivations(alg).basis])),
              **dict(enumerate(res.bases, 1))}
    assert len(charged) == 4
    for K, (nrows, ncols) in enumerate(charged):
        ref = _reference_rows(K, c, levels, 0)
        assert (nrows, ncols) == (len(ref), len(ref[0]))

def test_full_derivation_rows_are_integral(monkeypatch):
    seen = []
    solve = symmetry.nullspace

    def recording(rows, ncols, context=""):
        seen.append(list(rows))
        return solve(seen[-1], ncols, context=context)

    monkeypatch.setattr(symmetry, "nullspace", recording)
    res = full_derivations(_third(build_hn(DA.C, 1)))
    assert res.dimension == GRADED_DIMS[("hn", "C", 1)] + 4 * 2
    assert all(type(x) is int for row in seen[0] for x in row.values())


def test_offgrade_dimension_on_degenerate_algebras():
    # E: z -> v maps into rad v and vanishes on [v, v], so offgrade is
    # dim(z / [v, v]) * dim rad v. x_2 (and x_4 below) span rad v, but the
    # brackets of deg and deg2 span z, so E = 0; deg3 leaves z_1 unspanned.
    deg = make_custom("deg", 3, 1, [(0, 1, 0, 1)])
    deg2 = make_custom("deg2", 5, 2, [(0, 1, 0, 1), (2, 3, 1, Fraction(1, 2)), (0, 2, 1, 3)])
    deg3 = make_custom("deg3", 3, 2, [(0, 1, 0, 1)])
    for alg, graded, offgrade in [(deg, 7, 0), (deg2, 13, 0), (deg3, 9, 1)]:
        full = full_derivations(alg)
        assert graded_derivations(alg).dimension == graded
        assert full.offgrade_dimension == offgrade
        assert full.dimension == graded + alg.dim_v * alg.dim_z + offgrade


def _pinned_derivation_algebras():
    algs = [build_hn(DA.R, n) for n in (1, 2, 3)] + [build_hn(DA.C, n) for n in (1, 2)]
    algs += [build_hn(DA.H, 1), build_hn(DA.O, 1), build_hprime(DA.O, 1, 0)]
    algs += [build_hprime(DA.H, p, q) for p, q in ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))]
    algs += [build_htype_from_clifford(m, 1) for m in range(1, 7)]
    return algs + [
        make_custom("deg", 3, 1, [(0, 1, 0, 1)]),
        make_custom("deg2", 5, 2, [(0, 1, 0, 1), (2, 3, 1, Fraction(1, 2)), (0, 2, 1, 3)]),
        # offgrade_dimension 1 each; deg4's E-solution is E[0][0], the first
        # column of the E block
        make_custom("deg3", 3, 2, [(0, 1, 0, 1)]),
        make_custom("deg4", 3, 2, [(1, 2, 1, 1)]),
    ]


# sha256 of repr() of (name, graded basis, graded dimension, full basis, full
# dimension, offgrade_dimension) over `_pinned_derivation_algebras`, computed
# when the bases were cut from flat Fraction vectors one entry at a time and
# off-grade vectors were found by comparing their dense E block with 0
DERIVATIONS_SHA256 = "12a91822e29ee42f404932eb3153187fa42f588091b2b132e54495af4b3e9330"


def test_derivation_bases_pinned():
    out = []
    for alg in _pinned_derivation_algebras():
        full, graded = full_derivations(alg), graded_derivations(alg)
        out.append((alg.name, graded.basis, graded.dimension, full.basis, full.dimension,
                    full.offgrade_dimension))
    assert [o[-1] for o in out][-4:] == [0, 0, 1, 1] and not any(o[-1] for o in out[:-2])
    assert hashlib.sha256(repr(out).encode()).hexdigest() == DERIVATIONS_SHA256


def _sympy_derivation_dimension(alg) -> int:
    """dim Der(n) by brute force over all (n+m)^2 entries of D: the rows of
    D[e_a, e_b] = [D e_a, e_b] + [e_a, D e_b] on the basis of n = v + z."""
    n, N = alg.dim_v, alg.dim_v + alg.dim_z

    def br(a, b):
        vec = [0] * N
        if a < n and b < n:
            vec[n:] = alg.structure[a][b]
        return vec

    rows = []
    for a, b in itertools.combinations(range(N), 2):
        for r in range(N):
            row = [0] * (N * N)  # D[r][s] at r * N + s
            for s in range(N):
                row[r * N + s] += br(a, b)[s]
                row[s * N + a] -= br(s, b)[r]
                row[s * N + b] -= br(a, s)[r]
            rows.append([sympy.Rational(x) for x in row])
    return N * N - sympy.Matrix(rows).rank()


def test_full_derivations_match_sympy_on_degenerate_algebras():
    # few random brackets, so rad v != 0 and [v, v] != z are both common
    rng = random.Random(20261019)
    degenerate = 0
    for _ in range(12):
        n, m = rng.randint(2, 4), rng.randint(1, 3)
        pairs = list(itertools.combinations(range(n), 2))
        entries = [(i, j, rng.randrange(m), Fraction(rng.choice([-2, -1, 1, 3]), 2))
                   for i, j in rng.sample(pairs, rng.randint(1, min(3, len(pairs))))]
        alg = make_custom("sparse", n, m, entries)
        full = full_derivations(alg)
        degenerate += full.offgrade_dimension > 0
        assert full.dimension == _sympy_derivation_dimension(alg), entries
        assert full.dimension == (graded_derivations(alg).dimension + n * m
                                  + full.offgrade_dimension)
    assert degenerate >= 3


def test_full_derivations_match_the_one_system_reference():
    # the split (Der_gr, the n*m unit maps of C, and the E count as the
    # product of two nullities) against one solve of the whole system
    algs = _pinned_derivation_algebras() + _sparse_degenerate_algebras(20261020, 12)
    offgrade = 0
    for alg in algs:
        full = full_derivations(alg)
        assert _full_fields(full) == _reference_full_derivations(alg), alg.name
        offgrade += full.offgrade_dimension > 0
    assert offgrade >= 5


def _record_solves(monkeypatch):
    """Wrap symmetry.nullspace; the context of every call is kept."""
    contexts = []
    solve = symmetry.nullspace

    def recording(rows, ncols, context=""):
        contexts.append(context)
        return solve(rows, ncols, context=context)

    monkeypatch.setattr(symmetry, "nullspace", recording)
    return contexts


def test_der_gr_is_solved_once_per_algebra(monkeypatch):
    contexts = _record_solves(monkeypatch)
    alg = build_hn(DA.H, 1)
    full = full_derivations(alg)
    graded = graded_derivations(alg)
    res = tanaka_prolong(alg, max_degree=2, budget=BIG)
    assert contexts == ["full derivation system of h1(H)", "z / [v, v] system of h1(H)",
                        "degree-1 prolongation system", "degree-2 prolongation system"]
    assert (full.dimension, graded.dimension, res.g0_dim) == (11 + 32, 11, 11)
    # a fresh build and a dataclasses.replace copy are other objects: each solves
    contexts.clear()
    for other in (build_hn(DA.H, 1), dataclasses.replace(alg)):
        assert graded_derivations(other) == dataclasses.replace(graded, algebra=other)
        assert tanaka_prolong(other, max_degree=1, budget=BIG).g0_dim == 11
    assert contexts == ["graded derivation system of h1(H)", "degree-1 prolongation system"] * 2


def test_rad_v_is_solved_only_when_z_mod_brackets_is_nonzero(monkeypatch):
    # E: z -> v vanishes on [v, v], so where the brackets span z the rad v
    # system is not solved; deg and deg2 have rad v != 0 but offgrade 0
    contexts = _record_solves(monkeypatch)
    assert full_derivations(build_hn(DA.H, 1)).offgrade_dimension == 0
    assert contexts == ["full derivation system of h1(H)", "z / [v, v] system of h1(H)"]
    for name, dim_v, dim_z, entries, offgrade in [
            ("deg", 3, 1, [(0, 1, 0, 1)], 0),
            ("deg2", 5, 2, [(0, 1, 0, 1), (2, 3, 1, Fraction(1, 2)), (0, 2, 1, 3)], 0),
            ("deg3", 3, 2, [(0, 1, 0, 1)], 1)]:
        contexts.clear()
        full = full_derivations(make_custom(name, dim_v, dim_z, entries))
        assert full.offgrade_dimension == offgrade
        solved = [f"full derivation system of {name}", f"z / [v, v] system of {name}"]
        assert contexts == solved + [f"rad v system of {name}"] * offgrade


def test_der_gr_cache_entry_goes_with_its_algebra():
    # the record is kept on its algebra, held by nothing else, and
    # collected with it
    alg = build_hn(DA.C, 1)
    graded_derivations(alg)
    holders = [r for r in gc.get_referrers(vars(alg)["_der_gr"])
               if not isinstance(r, types.FrameType)]
    assert len(holders) == 1 and holders[0] is vars(alg)
    ref = weakref.ref(alg)
    del alg, holders
    gc.collect()
    assert ref() is None


def test_degree0_budget_is_checked_before_the_cache_is_read():
    alg = build_hn(DA.C, 1)
    graded_derivations(alg)
    with pytest.raises(BudgetExceeded) as exc:
        tanaka_prolong(alg, budget=239)
    assert (exc.value.requested, exc.value.context) == (240, "degree-0 derivation system")


def test_supplied_g0_bypasses_the_cache(monkeypatch):
    alg = build_hn(DA.R, 1)
    a = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    b = ((Fraction(2),),)
    res = tanaka_prolong(alg, supplied_g0=[(a, b)], max_degree=2)
    assert res.g0_dim == 1 and "_der_gr" not in vars(alg)
    assert graded_derivations(alg).dimension == 4  # now cached; still not read
    contexts = _record_solves(monkeypatch)
    res = tanaka_prolong(alg, supplied_g0=[(a, b)], max_degree=2)
    assert res.g0_dim == 1 and res.trivial
    assert contexts == ["supplied g0", "degree-1 prolongation system"]


def _raises_not_a_derivation(alg, pair) -> bool:
    try:
        tanaka_prolong(alg, supplied_g0=[pair], max_degree=1, budget=BIG)
    except StructureError as exc:
        assert str(exc) == "supplied g0 element is not a graded derivation"
        return True
    return False


@pytest.mark.parametrize("make", [lambda: build_hn(DA.H, 1), lambda: build_hprime(DA.H, 1, 1),
                                  lambda: make_custom("deg3", 3, 2, [(0, 1, 0, 1)])],
                         ids=["h1(H)", "h'1,1(H)", "degenerate"])
def test_supplied_g0_check_agrees_with_substitution(make):
    # every Der_gr element, and each with one entry of A or B moved by 1 or
    # by -1/2: the sparse check refuses exactly what direct substitution does
    alg = make()
    n, m = alg.dim_v, alg.dim_z
    refused = 0
    for a, b, _ in graded_derivations(alg).basis:
        assert not _raises_not_a_derivation(alg, (a, b))
        for which, size in ((0, n), (1, m)):
            for r, c in itertools.product(range(size), repeat=2):
                for step in (1, Fraction(-1, 2)):
                    pair = [[list(row) for row in a], [list(row) for row in b]]
                    pair[which][r][c] += step
                    if not any(x for mat in pair for row in mat for x in row):
                        continue
                    raised = _raises_not_a_derivation(alg, pair)
                    assert raised == (not verify_graded_derivation(alg, *pair)), (which, r, c)
                    refused += raised
    assert refused


@pytest.mark.parametrize("escalated", ["full derivation system", "rad v system",
                                       "z / [v, v] system"])
def test_full_method_is_modp_only_when_every_solve_is(monkeypatch, escalated):
    # one of the three solves reported as certified by CRT makes the space's too
    solve = symmetry.nullspace

    def relabelled(rows, ncols, context=""):
        res = solve(rows, ncols, context=context)
        if context.startswith(escalated):
            return dataclasses.replace(res, method="modp-crt")
        return res

    assert full_derivations(make_custom("deg3", 3, 2, [(0, 1, 0, 1)])).method == "modp"
    monkeypatch.setattr(symmetry, "nullspace", relabelled)
    full = full_derivations(make_custom("deg3", 3, 2, [(0, 1, 0, 1)]))
    assert (full.method, full.offgrade_dimension) == ("modp-crt", 1)
