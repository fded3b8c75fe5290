"""Clifford generator families and the H-type algebras they induce."""

import re
from fractions import Fraction

import pytest

from htype import clifford, division
from htype.clifford import REP_DIMS, build_htype_from_clifford, clifford_generators
from htype.division import DivisionAlgebra as DA
from htype.errors import StructureError
from htype.linalg import nullspace
from htype.nilpotent import (_algebra, _clifford_failures, build_hn,
                             check_symplectic_isomorphic, dims, is_type_h)

# commutant of the minimal module follows the R/C/H periodicity
COMMUTANT_DIMS = {1: 2, 2: 4, 3: 4, 4: 4, 5: 2, 6: 1, 7: 1, 8: 1}


@pytest.mark.parametrize("m", sorted(REP_DIMS))
def test_rep_and_commutant_dimensions(m):
    gens = clifford_generators(m)
    assert gens.rep_dim == REP_DIMS[m]
    assert len(gens.generators) == m
    assert gens.commutant_dim == COMMUTANT_DIMS[m]


def test_generator_relations_rechecked():
    # independent of the constructor's own verification loop
    gens = clifford_generators(3)
    d = gens.rep_dim
    js = gens.generators
    for a in range(3):
        for b in range(3):
            for i in range(d):
                for j in range(d):
                    s = sum(js[a][i][t] * js[b][t][j]
                            + js[b][i][t] * js[a][t][j] for t in range(d))
                    assert s == (Fraction(-2) if (a == b and i == j) else 0)


@pytest.mark.parametrize("both, message", [
    (False, "not skew"),  # one entry flipped: J_1 is no longer skew
    (True, "anticommutation fails for (0,1)"),  # a skew pair flipped: first failing pair
])
def test_corrupted_generator_is_refused(monkeypatch, both, message):
    real = clifford._generator_rows

    def corrupted(m):
        rows = real(m)
        j = rows[1]
        r, c = next((r, c) for r in range(len(j)) for c in sorted(j[r]) if j[r][c])
        j[r][c] = -j[r][c]
        if both:
            j[c][r] = -j[c][r]
        return rows

    monkeypatch.setattr(clifford, "_generator_rows", corrupted)
    with pytest.raises(StructureError, match=re.escape(message)):
        clifford_generators(3)


def test_invalid_generator_count():
    for m in (0, 9, -3):
        with pytest.raises(ValueError):
            clifford_generators(m)


def test_a_module_that_is_not_minimal_is_refused(monkeypatch):
    # two copies of the m = 3 module pass the Clifford checks, but their
    # commutant is M_2(H), of dimension 16
    doubled = _direct_sum(clifford._generator_rows(3), (1, 1))
    monkeypatch.setattr(clifford, "_generator_rows", lambda m: doubled)
    with pytest.raises(StructureError, match=re.escape(
            "commutant dimension 16 > 4: representation not minimal")):
        clifford_generators(3)


@pytest.mark.parametrize("m,k", [(1, 1), (2, 1), (3, 2), (5, 1), (7, 1)])
def test_htype_construction(m, k):
    alg = build_htype_from_clifford(m, k)
    assert dims(alg) == (k * REP_DIMS[m], m, k * REP_DIMS[m] + m)
    assert alg.name == f"clifford({m},{k})"
    assert alg.family == "clifford" and alg.params == {"m": m, "k": k}
    assert is_type_h(alg).holds


def test_copies_must_be_positive():
    with pytest.raises(ValueError):
        build_htype_from_clifford(3, 0)


def test_one_generator_gives_heisenberg():
    alg = build_htype_from_clifford(1, 1)
    ok, witness = check_symplectic_isomorphic(alg, build_hn(DA.R, 1))
    assert ok and witness is not None


def test_copies_share_the_block_structure():
    single = build_htype_from_clifford(2, 1)
    double = build_htype_from_clifford(2, 2)
    d = single.dim_v
    for i in range(d):
        for j in range(d):
            assert double.structure[d + i][d + j] == single.structure[i][j]
            # no brackets across distinct copies
            assert all(c == 0 for c in double.structure[i][d + j])


def test_builds_certify_the_generators_once_per_m(monkeypatch):
    # clifford(m, 1) and clifford(m, 2) share one certified record per m
    calls = []
    real = clifford._commutant_dimension
    monkeypatch.setattr(clifford, "_commutant_dimension",
                        lambda K: calls.append(len(K)) or real(K))
    clifford._shared_generators.cache_clear()
    for m in sorted(REP_DIMS):
        for k in (1, 2):
            assert is_type_h(build_htype_from_clifford(m, k)).holds
    assert calls == sorted(REP_DIMS)
    assert clifford_generators(3) == clifford._shared_generators(3)
    assert calls == sorted(REP_DIMS) + [3]  # a direct call still certifies


def _reference_commutant_dimension(K):
    """dim {A : A J = J A for every J in K} as the nullspace of the d^2
    conditions (A J - J A)[r][c] = 0 per generator: the linear system that
    certified minimality before the character sum."""
    d = len(K[0])
    rows = []
    for J in K:
        cols = [{} for _ in range(d)]
        for t, row in enumerate(J):
            for c, x in row.items():
                cols[c][t] = x
        for r in range(d):
            for c in range(d):
                # (A J - J A)[r][c] = sum_t A[r][t] J[t][c] - J[r][t] A[t][c]
                row = {r * d + t: x for t, x in cols[c].items()}
                for t, x in J[r].items():
                    row[t * d + c] = row.get(t * d + c, 0) - x
                rows.append(row)
    return nullspace(rows, d * d).dimension


def _int_stack(m):
    return clifford._generator_rows(m)


def _direct_sum(K, signs):
    """The block-diagonal stack s_1 J (+) s_2 J (+) ... for each J of K."""
    d = len(K[0])
    return [[{b * d + c: s * x for c, x in row.items()} for b, s in enumerate(signs)
             for row in J] for J in K]


@pytest.mark.parametrize("m", sorted(REP_DIMS))
def test_commutant_matches_the_nullspace_reference(m):
    K = _int_stack(m)
    assert clifford._commutant_dimension(K) == _reference_commutant_dimension(K) \
        == COMMUTANT_DIMS[m]


@pytest.mark.parametrize("m, signs, want", [
    (3, (1, 1), 16), (3, (1, -1), 8), (7, (1, 1), 4), (7, (1, -1), 2)])
def test_commutant_of_non_minimal_stacks(m, signs, want):
    # J (+) J is twice one irreducible module: the commutant is M_2(D),
    # D = H (m = 3) or R (m = 7); J (+) -J is the sum of the two inequivalent
    # irreducible modules of Cl_3 and Cl_7, so the commutant is D + D
    K = _direct_sum(_int_stack(m), signs)
    assert not _clifford_failures(K, 1)
    assert clifford._commutant_dimension(K) == _reference_commutant_dimension(K) == want


def test_commutant_refuses_what_is_not_a_clifford_group():
    J = _int_stack(2)
    for bad in ([{1: -1, 2: 1}] + J[0][1:],  # a row with two entries
                [{1: -2}] + J[0][1:],  # an entry that is not a sign
                [{1: -1}, {1: 1}] + J[0][2:]):  # a column used twice
        with pytest.raises(StructureError, match="not a signed permutation"):
            clifford._commutant_dimension([bad, J[1]])
    # a 3-cycle satisfies no Clifford relation: (9 + 0) / 2 is no dimension
    with pytest.raises(StructureError, match="character sum 9 is not a multiple of 2"):
        clifford._commutant_dimension([[{1: 1}, {2: 1}, {0: 1}]])


def _reference_generator_matrices(m):
    """The generators as dense Fraction matrices, built as before the
    signed-unit rows: one matrix per left multiplication, negated entry by
    entry for the doubled algebras."""
    def left(algebra, index):
        d = algebra.dimension
        mat = [[Fraction(0)] * d for _ in range(d)]
        for j in range(d):
            k, sign = division.unit_product(algebra, index, j)
            mat[k][j] = Fraction(sign)
        return mat

    def doubled(algebra):
        d = algebra.dimension
        out = []
        for idx in range(d):
            lu = left(algebra, idx)
            lconj = lu if idx == 0 else [[-x for x in row] for row in lu]
            mat = [[Fraction(0)] * (2 * d) for _ in range(2 * d)]
            for i in range(d):
                for j in range(d):
                    mat[i][d + j] = -lu[i][j]
                    mat[d + i][j] = lconj[i][j]
            out.append(mat)
        return out

    if m == 1:
        return [[[Fraction(0), Fraction(-1)], [Fraction(1), Fraction(0)]]]
    if m in (2, 3):
        return [left(DA.H, i + 1) for i in range(m)]
    if m == 4:
        return doubled(DA.H)
    if m in (5, 6, 7):
        return [left(DA.O, i + 1) for i in range(m)]
    return doubled(DA.O)


@pytest.mark.parametrize("m", sorted(REP_DIMS))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_builds_match_the_dense_fraction_construction(m, k):
    mats = _reference_generator_matrices(m)
    d = len(mats[0])
    entries = ((off + a, off + b, l, j[b][a])
               for l, j in enumerate(mats) for off in range(0, k * d, d)
               for a in range(d) for b in range(a + 1, d) if j[b][a])
    want = _algebra(f"clifford({m},{k})", "clifford", None, {"m": m, "k": k}, k * d, m,
                    entries, "reference")
    got = build_htype_from_clifford(m, k)
    assert (got.name, got.structure, got.nonzeros) == (want.name, want.structure, want.nonzeros)
    assert clifford_generators(m).generators == tuple(tuple(map(tuple, j)) for j in mats)
