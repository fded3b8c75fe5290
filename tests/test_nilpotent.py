"""Constructors, brackets, J-maps and structure predicates."""

import dataclasses
import functools
import gc
import hashlib
import itertools
import random
import tracemalloc
import types
import weakref
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from htype import clifford, division, nilpotent, serialization, symmetry
from htype.clifford import build_htype_from_clifford, clifford_generators
from htype.division import DivisionAlgebra as DA
from htype.errors import BudgetExceeded, CenterDimensionError, StructureError
from htype import linalg
from htype.linalg import DEFAULT_BUDGET, det_exact
from htype.nilpotent import (
    GradedNilpotent,
    bracket,
    build_hn,
    build_hprime,
    check_symplectic_isomorphic,
    dims,
    element,
    is_nonsingular,
    is_type_h,
    jmap,
    make_custom,
    random_two_step,
)


def _rand_v(alg, rng):
    return element(alg, v=[Fraction(rng.randint(-6, 6), 3)
                           for _ in range(alg.dim_v)])


# --- constructors -----------------------------------------------------------


@pytest.mark.parametrize("tag,n", [("R", 1), ("R", 3), ("C", 2), ("H", 1), ("O", 1)])
def test_hn_dimensions(tag, n):
    alg = build_hn(DA.from_tag(tag), n)
    d = DA.from_tag(tag).dimension
    assert dims(alg) == (2 * n * d, d, 2 * n * d + d)
    assert alg.name == f"h{n}({tag})"
    assert alg.family == "hn" and alg.params == {"n": n}


@pytest.mark.parametrize("tag,p,q", [("C", 1, 0), ("C", 2, 1), ("H", 1, 1), ("O", 1, 0)])
def test_hprime_dimensions(tag, p, q):
    alg = build_hprime(DA.from_tag(tag), p, q)
    d = DA.from_tag(tag).dimension
    assert dims(alg) == ((p + q) * d, d - 1, (p + q) * d + d - 1)
    assert alg.family == "hprime" and alg.params == {"p": p, "q": q}


def test_h1r_structure_oracle():
    # h1(R) is the 3-dimensional Heisenberg algebra: [x, y] = Z
    alg = build_hn(DA.R, 1)
    assert alg.structure[0][1][0] == 1
    assert alg.structure[1][0][0] == -1


def test_hprime_real_case_is_abelian():
    alg = build_hprime(DA.R, 2, 1)
    assert alg.dim_z == 0 and alg.abelian
    assert all(not any(cij) for ci in alg.structure for cij in ci)
    res = is_type_h(alg)
    assert res.holds and res.degenerate


def test_h0_is_just_the_center():
    alg = build_hn(DA.C, 0)
    assert dims(alg) == (0, 2, 2)


def test_h0_is_vacuously_type_h_and_degenerate():
    # With dim v = 0 the J-maps act on nothing; once it was certified
    # non-degenerate type H, and the boundary models accepted it.
    res = is_type_h(build_hn(DA.C, 0))
    assert res.holds and res.degenerate and not res.failing_pairs
    assert res.certificate.startswith("vacuous: dim v = 0")


def test_constructor_errors():
    with pytest.raises(ValueError):
        build_hn(DA.R, -1)
    with pytest.raises(ValueError):
        build_hprime(DA.H, 0, 0)
    with pytest.raises(ValueError):
        build_hprime(DA.H, -1, 2)


def test_post_init_rejects_bad_tensors():
    f1 = Fraction(1)

    def alg(dim_v, dim_z, *entries):
        return GradedNilpotent("bad", "custom", None, {}, dim_v, dim_z, entries, "test")

    with pytest.raises(StructureError, match="antisymmetry"):
        alg(2, 1, (0, 1, 0, f1), (1, 0, 0, f1))
    # a pair with one zero entry still compares: a one-sided entry, and a
    # nonzero diagonal entry
    with pytest.raises(StructureError, match=r"antisymmetry violated at \(1,0,0\)"):
        alg(2, 1, (0, 1, 0, f1))
    with pytest.raises(StructureError, match=r"antisymmetry violated at \(0,0,0\)"):
        alg(2, 1, (0, 0, 0, f1))
    # bad pairs at (2,1,0), both entries 1, and at (3,0,0), only c[0][3][0]
    # set: the first nonzero is (0,3,0), but the least pair with i >= j is named
    with pytest.raises(StructureError, match=r"^antisymmetry violated at \(2,1,0\)$"):
        alg(4, 1, (0, 3, 0, f1), (1, 2, 0, f1), (2, 1, 0, f1))
    # partners compare by value
    alg(2, 1, (0, 1, 0, Fraction(2, 3)), (1, 0, 0, Fraction(-2, 3)))
    for y in (Fraction(-1, 3), Fraction(-2, 5), Fraction(2, 3)):
        with pytest.raises(StructureError, match=r"antisymmetry violated at \(1,0,0\)"):
            alg(2, 1, (0, 1, 0, Fraction(2, 3)), (1, 0, 0, y))
    # an index past dim z or dim v, or negative
    for entries in [((0, 0, 2, f1),), ((0, 2, 0, f1),), ((0, 2, 0, f1), (2, 0, 0, -f1)),
                    ((-1, 0, 0, f1), (0, -1, 0, -f1))]:
        with pytest.raises(StructureError, match="nonzero, in range and sorted"):
            alg(2, 2, *entries)
    # entries out of order, repeated, or zero
    for entries in [((1, 0, 0, -f1), (0, 1, 0, f1)),
                    ((0, 1, 0, f1), (0, 1, 0, f1), (1, 0, 0, -f1)),
                    ((0, 1, 0, Fraction(0)), (1, 0, 0, Fraction(0)))]:
        with pytest.raises(StructureError,
                           match="^structure entries must be nonzero, in range and sorted$"):
            alg(2, 1, *entries)


def test_make_custom_antisymmetrizes():
    alg = make_custom("pair", 3, 1, [(0, 1, 0, Fraction(2))])
    assert alg.structure[0][1][0] == 2 and alg.structure[1][0][0] == -2
    with pytest.raises(StructureError, match="diagonal"):
        make_custom("bad", 2, 1, [(1, 1, 0, 1)])


@pytest.mark.parametrize("entry, match", [
    ((-1, 0, 0, 1), "out of range"),  # would write [x_2, x_0]
    ((0, 1, -1, 1), "out of range"),  # would write z_0
    ((0, 5, 0, 1), "out of range"),
    ((0, 1, 1, 1), "out of range"),
    ((True, 0, 0, 1), "must be integers"),  # would be index 1
    ((0, 1.0, 0, 1), "must be integers"),
    ((0, 1), "bad structure entry"),
    ((0, 1, 0), "bad structure entry"),  # no value
    ((0, 1, 0, 1, 1), "bad structure entry"),
])
def test_make_custom_refuses_bad_indices(entry, match):
    # the same rule as serialization.from_json_dict
    with pytest.raises(StructureError, match=match):
        make_custom("t", 3, 1, [entry])


def test_random_two_step_deterministic():
    a = random_two_step(4, 2, random.Random(9))
    b = random_two_step(4, 2, random.Random(9))
    assert a.structure == b.structure
    assert dims(a) == (4, 2, 6)


BUILDERS = {
    "hn": lambda: build_hn(DA.C, 1),
    "hprime": lambda: build_hprime(DA.H, 1, 1),
    "custom": lambda: make_custom("pair", 3, 1, [(0, 1, 0, 1)]),
    "clifford": lambda: build_htype_from_clifford(3, 1),
    "random": lambda: random_two_step(3, 2, random.Random(0)),
}


@pytest.mark.parametrize("builder", BUILDERS.values(), ids=BUILDERS)
def test_structure_tensor_follows_the_budget(builder, monkeypatch):
    alg = builder()
    entries = alg.dim_v * alg.dim_v * alg.dim_z
    monkeypatch.setenv("DIVH_BUDGET", str(entries - 1))
    with pytest.raises(BudgetExceeded, match="structure tensor"):
        builder()
    monkeypatch.setenv("DIVH_BUDGET", str(entries))
    assert builder() == alg


def test_oversized_tensor_is_refused_before_allocation():
    rng = random.Random(0)
    state = rng.getstate()
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded) as exc:
            build_hn(DA.R, 250)  # 500 * 500 * 1 entries
        with pytest.raises(BudgetExceeded):
            random_two_step(500, 1, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (exc.value.requested, exc.value.budget) == (250_000, DEFAULT_BUDGET)
    assert peak < 1 << 20
    assert rng.getstate() == state  # refused before any entry was drawn


def _all_builds():
    """Every h_n(A) with n = 0..3, every h'_{p,q}(A) with p + q = 1..3, and
    clifford(m, 1) for m = 1..8: 60 structure tensors."""
    out = []
    for algebra in DA:
        out += [build_hn(algebra, n) for n in range(4)]
        out += [build_hprime(algebra, p, t - p) for t in range(1, 4) for p in range(t + 1)]
    return out + [build_htype_from_clifford(m, 1) for m in range(1, 9)]


# sha256 of repr() of the names and structure tensors of `_all_builds`, and
# of the Clifford generators, computed when every builder multiplied basis
# Elements in Fractions and added all d coordinates of each product
BUILDS_SHA256 = "2d0ee853338a3d8db1c77b68874fc2e8f9e41ef4620ba84ab4ca23428dd7608f"
CLIFFORD_GENERATORS_SHA256 = "162caeab7e92e09fe31f0f21dc0f1e20b32f785dc92048bcc2280200d06367dc"


def test_built_tensors_pinned():
    builds = _all_builds()
    assert len(builds) == 60
    digest = hashlib.sha256(repr([(a.name, a.structure) for a in builds]).encode())
    assert digest.hexdigest() == BUILDS_SHA256
    gens = [clifford_generators(m).generators for m in range(1, 9)]
    assert hashlib.sha256(repr(gens).encode()).hexdigest() == CLIFFORD_GENERATORS_SHA256


def _dense_nonzeros(alg):
    """The nonzero entries of alg.structure by a full scan, (i, j, k) order."""
    c = alg.structure
    return tuple((i, j, k, c[i][j][k]) for i in range(alg.dim_v)
                 for j in range(alg.dim_v) for k in range(alg.dim_z) if c[i][j][k] != 0)


def test_nonzeros_is_the_dense_scan():
    # a loaded tensor keeps its entries as given, here out of order
    loaded = serialization.from_json_dict({"dim_v": 3, "dim_z": 2, "structure": [
        [2, 0, 1, "1/2"], [0, 1, 0, "-3"], [0, 2, 1, "-1/2"], [1, 0, 0, "3"]]})
    for alg in _all_builds() + [random_two_step(5, 3, random.Random(4)), loaded]:
        assert alg.nonzeros == _dense_nonzeros(alg), alg.name
    assert loaded.nonzeros == ((0, 1, 0, -3), (0, 2, 1, Fraction(-1, 2)),
                               (1, 0, 0, 3), (2, 0, 1, Fraction(1, 2)))


def test_structure_is_built_once_and_stays_out_of_the_fields():
    alg = build_hn(DA.C, 1)
    assert alg.structure is alg.structure
    assert "structure" not in repr(alg)
    assert alg == dataclasses.replace(alg)  # eq reads the fields alone
    doubled = tuple((i, j, k, 2 * x) for i, j, k, x in alg.nonzeros)
    other = dataclasses.replace(alg, nonzeros=doubled)
    assert other.structure == tuple(tuple(tuple(2 * x for x in cij) for cij in ci)
                                    for ci in alg.structure)
    assert other.nonzeros == _dense_nonzeros(other)


def test_derived_objects_are_made_once_and_die_with_their_algebra(monkeypatch, tmp_path):
    # Each algebra builds its J-maps, runs the Clifford check and reduces its
    # skew form once, whichever certificate, model or CLI check asks; what it
    # keeps stays out of its fields, is held by nothing else, and is
    # collected with it.
    from htype import boundary, cli

    builds, runs, reductions, loaded = [], [], [], []
    jmaps, failures, darboux = (nilpotent._integer_jmaps, nilpotent._clifford_failures,
                                nilpotent._darboux)
    load = cli.load_algebra
    monkeypatch.setattr(nilpotent, "_integer_jmaps", lambda a: builds.append(1) or jmaps(a))
    monkeypatch.setattr(nilpotent, "_clifford_failures",
                        lambda K, D: runs.append(1) or failures(K, D))
    monkeypatch.setattr(nilpotent, "_darboux", lambda S: reductions.append(1) or darboux(S))
    monkeypatch.setattr(cli, "load_algebra", lambda path: loaded.append(load(path)) or loaded[-1])

    h1h = build_hn(DA.H, 1)
    pencil = make_custom("pencil", 4, 2, [(0, 1, 0, 1), (2, 3, 0, 1), (0, 2, 1, 2),
                                          (3, 1, 1, 2)])
    target, sources = build_hn(DA.R, 2), [build_hprime(DA.C, 1, 1), build_hn(DA.R, 2)]
    algs = [h1h, pencil, target, *sources]
    before = [(repr(a), serialization.to_json_dict(a)) for a in algs]
    for alg in (h1h, pencil):
        assert is_type_h(alg) is is_type_h(alg)
        is_nonsingular(alg)
        is_nonsingular(alg)
    boundary._model(h1h)
    symmetry.graded_derivations(h1h)
    serialization.save_algebra(h1h, tmp_path / "h1h.json")
    assert cli.main(["check", "--in", str(tmp_path / "h1h.json"),
                     "--tests", "typeh,nonsingular", "--out", str(tmp_path / "r.json")]) == 0
    assert len(builds) == len(runs) == 3  # h1(H), the pencil and the loaded h1(H)
    for _ in range(2):
        for source in sources:
            assert check_symplectic_isomorphic(source, target)[0]
    assert len(reductions) == 3

    assert [(repr(a), serialization.to_json_dict(a)) for a in algs] == before
    fields = {f.name for f in dataclasses.fields(GradedNilpotent)}
    certified = {"_integer_jmaps", "is_type_h"}
    expected = [(h1h, certified | {"_model", "_der_gr", "_negative_levels"}),
                (pencil, certified), (loaded[0], certified),
                *((alg, {"_darboux"}) for alg in (target, *sources))]
    refs = [weakref.ref(vars(h1h)[key]) for key in ("is_type_h", "_model")]
    for alg, keys in expected:
        assert alg == dataclasses.replace(alg) and vars(dataclasses.replace(alg)).keys() == fields
        assert vars(alg).keys() - fields == keys, alg.name
        for key in keys:
            holders = [r for r in gc.get_referrers(vars(alg)[key])
                       if not isinstance(r, types.FrameType)]
            assert len(holders) == 1 and holders[0] is vars(alg), (alg.name, key)
        refs.append(weakref.ref(alg))
    del alg, algs, expected, h1h, pencil, target, sources, source, holders
    loaded.clear()
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_builders_write_one_fraction_per_nonzero():
    # entries are summed per pair before anything is written: (0, 1) and
    # (1, 0) cancel, and (0, 2) + (2, 0) + (0, 2) sum to 1/2 - 1 + 1/2 = 0;
    # a cancelled or a zero entry leaves both cells the shared zero
    alg = make_custom("cancel", 4, 2, [(0, 1, 0, 1), (1, 0, 0, 1), (0, 2, 1, Fraction(1, 2)),
                                       (2, 0, 1, 1), (0, 2, 1, Fraction(1, 2)), (1, 3, 0, 0),
                                       (3, 2, 1, 2), (2, 3, 1, Fraction(1, 3))])
    assert alg.nonzeros == ((2, 3, 1, Fraction(-5, 3)), (3, 2, 1, Fraction(5, 3)))
    assert alg.nonzeros == _dense_nonzeros(alg)
    for built in _all_builds() + [alg]:
        cells = [x for ci in built.structure for cij in ci for x in cij]
        assert all(type(x) is Fraction for x in cells), built.name
        zeros = [x for x in cells if not x]
        assert all(x is nilpotent._ZERO for x in zeros), built.name
        assert len(cells) - len(zeros) == len(built.nonzeros), built.name


def test_hand_built_zeros_are_read_by_value():
    # entries written by hand, and a dataclasses.replace copy of a built
    # algebra: the dense view holds the shared zero in every other cell, and
    # a zero written by hand is read by value and refused
    entries = ((0, 1, 0, Fraction(2)), (1, 0, 0, Fraction(-2)),
               (1, 2, 1, Fraction(-1, 3)), (2, 1, 1, Fraction(1, 3)))
    hand = GradedNilpotent("hand", "custom", None, {}, 3, 2, entries, "custom")
    assert hand.nonzeros == _dense_nonzeros(hand) == entries
    cells = [x for ci in hand.structure for cij in ci for x in cij]
    assert sum(x is nilpotent._ZERO for x in cells) == len(cells) - len(entries)
    with pytest.raises(StructureError, match="nonzero"):
        GradedNilpotent("hand", "custom", None, {}, 3, 2,
                        ((0, 2, 0, Fraction(0)),) + entries[1:], "custom")
    alg = build_hprime(DA.H, 1, 1)
    copy = dataclasses.replace(alg, nonzeros=tuple(alg.nonzeros))
    assert copy.nonzeros == _dense_nonzeros(copy) == alg.nonzeros
    assert copy.structure == alg.structure and copy.structure is not alg.structure


def test_builds_loads_and_certificates_allocate_no_dense_tensor(monkeypatch):
    def refused(*args):
        raise AssertionError("dense structure tensor allocated")

    charged = []
    check_budget = linalg.check_budget

    def recorded(nrows, ncols, budget, context=""):
        if context == "structure tensor":
            charged.append((nrows, ncols))
        return check_budget(nrows, ncols, budget, context)

    monkeypatch.setattr(nilpotent, "_zeros", refused)
    monkeypatch.setattr(linalg, "check_budget", recorded)
    builds = [build_hn(DA.H, 1), build_hprime(DA.O, 1, 0), build_hprime(DA.R, 2, 1),
              make_custom("pair", 4, 1, [(0, 1, 0, 1), (2, 3, 0, Fraction(1, 2))]),
              random_two_step(4, 2, random.Random(3)), build_htype_from_clifford(3, 1)]
    loads = [serialization.from_json_dict(serialization.to_json_dict(a)) for a in builds]
    assert loads == builds
    assert charged == 2 * [(a.dim_v ** 2, max(a.dim_z, 1)) for a in builds]
    for alg in builds:
        is_type_h(alg)
        is_nonsingular(alg)
        symmetry.graded_derivations(alg)
        symmetry.tanaka_prolong(alg, max_degree=2, budget=10**8)
    assert check_symplectic_isomorphic(builds[3], builds[3])[0]

    monkeypatch.undo()
    allocated = []
    zeros = nilpotent._zeros

    def counted(dim_v, dim_z):
        allocated.append((dim_v, dim_z))
        return zeros(dim_v, dim_z)

    monkeypatch.setattr(nilpotent, "_zeros", counted)
    alg = builds[0]
    first = alg.structure
    assert alg.structure is first and allocated == [(8, 4)]
    assert first[0][4] == (1, 0, 0, 0)


def _element_tensor(algebra, series, params):
    """The structure tensor by Element products, each of the d coordinates
    of e_a e_b (or e_a conj(e_b), conj(e_b) e_a) added: the reference that
    the signed-unit builders must match entry by entry, types included."""
    e = [division.basis_element(algebra, a) for a in range(algebra.dimension)]
    d = len(e)
    if series == "hn":
        (n,) = params
        c = [[[Fraction(0)] * d for _ in range(2 * n * d)] for _ in range(2 * n * d)]
        for slot, a, b in itertools.product(range(n), range(d), range(d)):
            prod = division.mul(e[a], e[b]).coefficients
            i, j = slot * d + a, n * d + slot * d + b
            for k in range(d):
                c[i][j][k] += prod[k]
                c[j][i][k] -= prod[k]
        return c
    p, q = params
    c = [[[Fraction(0)] * (d - 1) for _ in range((p + q) * d)] for _ in range((p + q) * d)]
    for slot, a, b in itertools.product(range(p + q), range(d), range(d)):
        if slot < p:
            prod = division.mul(e[a], division.conj(e[b])).coefficients
        else:
            prod = division.mul(division.conj(e[b]), e[a]).coefficients
        for k in range(d - 1):
            c[slot * d + a][slot * d + b][k] -= prod[k + 1]
    return c


@pytest.mark.parametrize("algebra", list(DA), ids=lambda a: a.value)
def test_signed_unit_builders_match_element_products(algebra):
    for alg in [build_hn(algebra, n) for n in range(3)] + [
            build_hprime(algebra, p, q) for p, q in [(1, 0), (0, 1), (1, 1), (2, 1)]]:
        want = _element_tensor(algebra, alg.family, tuple(alg.params.values()))
        assert repr(alg.structure) == repr(nilpotent._freeze(want)), alg.name


@pytest.mark.parametrize("builder", BUILDERS.values(), ids=BUILDERS)
def test_every_builder_writes_through_one_builder(builder, monkeypatch):
    calls = []
    real = nilpotent._algebra

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(nilpotent, "_algebra", counted)
    monkeypatch.setattr(clifford, "_algebra", counted)
    alg = builder()
    assert calls == [alg.name]
    assert not {"_zeros", "_freeze"} & set(vars(clifford))


def test_builders_multiply_no_elements(monkeypatch):
    # counts repeat exactly, so a builder that goes back to Element products
    # shows here without a timer
    calls = []
    real = division.mul
    monkeypatch.setattr(division, "mul", lambda a, b: calls.append(1) or real(a, b))
    e1, e2 = division.basis_element(DA.H, 1), division.basis_element(DA.H, 2)
    assert e1 * e2 == division.basis_element(DA.H, 3) and len(calls) == 1  # counted
    calls.clear()
    for algebra in DA:
        build_hn(algebra, 2)
        build_hprime(algebra, 1, 1)
    for m in range(1, 9):
        clifford_generators(m)
    assert calls == []


# --- elements and brackets --------------------------------------------------


def test_bracket_antisymmetric_and_bilinear():
    alg = build_hn(DA.C, 2)
    rng = random.Random(10)
    for _ in range(20):
        x, y, w = (_rand_v(alg, rng) for _ in range(3))
        xy = bracket(alg, x, y)
        assert bracket(alg, y, x).z_part == tuple(-c for c in xy.z_part)
        s = Fraction(3, 2)
        xs = element(alg, v=[s * c for c in x.v_part])
        lhs = bracket(alg, xs, y).z_part
        assert lhs == tuple(s * c for c in xy.z_part)
        both = element(alg, v=[a + b for a, b in zip(x.v_part, w.v_part)])
        sums = tuple(a + b for a, b in zip(xy.z_part, bracket(alg, w, y).z_part))
        assert bracket(alg, both, y).z_part == sums


def _dense_bracket(alg, u, w):
    """[u, w] by the loop over the dense tensor: the reference for `bracket`."""
    z, c = [Fraction(0)] * alg.dim_z, alg.structure
    for i, ui in enumerate(u.v_part):
        for j, wj in enumerate(w.v_part):
            for k in range(alg.dim_z):
                if ui and wj and c[i][j][k]:
                    z[k] += ui * wj * c[i][j][k]
    return tuple(z)


def test_bracket_matches_the_dense_loop():
    # sparse elements (zero entries, the first and last basis vectors) and
    # dense ones, on tensors with rows of every length, an empty first row
    # and a full random one
    rng = random.Random(13)
    algs = [build_hn(DA.O, 1), build_hprime(DA.H, 2, 1), build_htype_from_clifford(5, 2),
            random_two_step(5, 3, rng), build_hprime(DA.R, 2, 1),
            make_custom("tail", 5, 2, [(4, 1, 0, Fraction(1, 2)), (3, 4, 1, 3)])]
    for alg in algs:
        n = alg.dim_v
        samples = [element(alg, v=[int(a == i) for a in range(n)]) for i in (0, n - 1)]
        samples += [element(alg, v=[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                    * (rng.random() < p) for _ in range(n)])
                    for p in (0.3, 1.0) for _ in range(4)]
        for u, w in itertools.product(samples, repeat=2):
            assert bracket(alg, u, w).z_part == _dense_bracket(alg, u, w), alg.name


def test_bracket_lands_in_center():
    alg = build_hprime(DA.H, 1, 1)
    rng = random.Random(11)
    x, y = _rand_v(alg, rng), _rand_v(alg, rng)
    b = bracket(alg, x, y)
    assert all(c == 0 for c in b.v_part)
    assert bracket(alg, b, x).is_zero()


def test_element_validation():
    alg = build_hn(DA.R, 1)
    with pytest.raises(StructureError):
        element(alg, v=[1, 2, 3])
    with pytest.raises(StructureError):
        bracket(alg, element(alg), element(build_hn(DA.R, 2)))


# --- J-maps -----------------------------------------------------------------


@pytest.mark.parametrize("make", [
    lambda: build_hn(DA.C, 1),
    lambda: build_hprime(DA.H, 1, 1),
    lambda: build_hn(DA.O, 1),
])
def test_jmap_defining_identity(make):
    # <J_Z X, Y> = <Z, [X, Y]> over random exact samples
    alg = make()
    rng = random.Random(12)
    for _ in range(10):
        Z = [Fraction(rng.randint(-4, 4)) for _ in range(alg.dim_z)]
        J = jmap(alg, Z).matrix
        x, y = _rand_v(alg, rng), _rand_v(alg, rng)
        jx = [sum(J[a][b] * x.v_part[b] for b in range(alg.dim_v))
              for a in range(alg.dim_v)]
        lhs = sum(a * b for a, b in zip(jx, y.v_part))
        rhs = sum(z * c for z, c in zip(Z, bracket(alg, x, y).z_part))
        assert lhs == rhs


def test_jmap_is_skew():
    alg = build_hn(DA.H, 1)
    J = jmap(alg, [1, 2, 0, -1]).matrix
    n = alg.dim_v
    assert all(J[a][b] == -J[b][a] for a in range(n) for b in range(n))


def test_jmap_dimension_check():
    with pytest.raises(StructureError):
        jmap(build_hn(DA.R, 1), [1, 2])


def test_jmap_squares_to_minus_norm():
    alg = build_hprime(DA.O, 1, 0)
    Z = [Fraction(k - 3) for k in range(alg.dim_z)]
    J = jmap(alg, Z).matrix
    n = alg.dim_v
    nsq = sum(z * z for z in Z)
    for a in range(n):
        for b in range(n):
            val = sum(J[a][t] * J[t][b] for t in range(n))
            assert val == (-nsq if a == b else 0)


# --- predicates -------------------------------------------------------------


def test_type_h_families():
    for alg in (build_hn(DA.R, 2), build_hn(DA.C, 1), build_hn(DA.H, 1),
                build_hprime(DA.H, 2, 0), build_hprime(DA.O, 1, 0)):
        res = is_type_h(alg)
        assert res.holds and not res.degenerate and not res.failing_pairs
        assert bool(res)


def test_type_h_detects_violation():
    # [e1, e2] = z1 and [e1, e3] = z1 makes J_1 singular
    alg = make_custom("junk", 3, 1, [(0, 1, 0, 1), (0, 2, 0, 1)])
    res = is_type_h(alg)
    assert not res.holds and res.failing_pairs == ((0, 0),)


def test_nonsingular_type_h_shortcut():
    res = is_nonsingular(build_hn(DA.H, 1))
    assert res.verdict is True and "type H" in res.certificate


def test_nonsingular_reads_vacuity_off_the_type_h_certificate():
    # h0(C) has dim v = 0: vacuous and degenerate, as is_type_h certifies it;
    # it was once certified non-degenerate through the type-H shortcut
    for alg in (build_hn(DA.C, 0), build_hprime(DA.R, 2, 1)):
        cert, res = is_type_h(alg), is_nonsingular(alg)
        assert cert.holds and cert.degenerate
        assert (res.verdict, res.degenerate, res.certificate) == (True, True, cert.certificate)
    assert is_nonsingular(build_hprime(DA.R, 2, 1)).certificate == (
        "vacuous: dim z = 0, no J-maps exist")


def test_nonsingular_center_dim_one():
    skew = make_custom("scaled", 4, 1, [(0, 1, 0, 1), (2, 3, 0, 2)])
    res = is_nonsingular(skew)
    assert res.verdict is True and "det" in res.certificate
    dead = make_custom("dead", 3, 1, [(0, 1, 0, 1)])
    assert is_nonsingular(dead).verdict is False


def test_nonsingular_det_past_the_first_prime():
    # det J = (2^31 - 1)^2 is 0 modulo the first prime of the ladder
    res = is_nonsingular(make_custom("m31", 2, 1, [(0, 1, 0, 2**31 - 1)]))
    assert (res.verdict, res.certificate) == (True, "det J = 4611686014132420609 != 0")


def test_nonsingular_pencil_branch():
    # quaternionic pair with J_2 rescaled: not type H, still nonsingular
    entries_1 = [(0, 1, 0, 1), (2, 3, 0, 1)]
    entries_2 = [(0, 2, 1, 2), (3, 1, 1, 2)]
    alg = make_custom("pencil", 4, 2, entries_1 + entries_2)
    assert not is_type_h(alg).holds
    res = is_nonsingular(alg)
    assert res.verdict is True and "no real roots" in res.certificate

    flat = make_custom("flat", 4, 2, entries_1)
    assert is_nonsingular(flat).verdict is False


def test_nonsingular_builds_the_integer_jmaps_once(monkeypatch):
    # the type-H check and the pencil determinants read the same J-maps,
    # built once for the algebra however often either is asked
    alg = make_custom("pencil", 4, 2, [(0, 1, 0, 1), (2, 3, 0, 1), (0, 2, 1, 2), (3, 1, 1, 2)])
    builds = []
    build = nilpotent._integer_jmaps

    def counted(a):
        builds.append(a)
        return build(a)

    monkeypatch.setattr(nilpotent, "_integer_jmaps", counted)
    res = is_nonsingular(alg)
    assert is_nonsingular(alg) == res and not is_type_h(alg)
    assert len(builds) == 1
    assert (res.verdict, res.certificate, res.degenerate) == (
        True, "pencil det(J_1 + t J_2) has no real roots and det J_2 != 0", False)


def test_nonsingular_undetermined():
    alg = make_custom("wide", 4, 3,
                      [(0, 1, 0, 1), (0, 2, 1, 1), (0, 3, 2, 1)])
    res = is_nonsingular(alg)
    assert res.verdict is None and "undetermined" in res.certificate


def test_real_root_count_is_distinct_roots():
    # (t - 1)^2 (t + 2) = t^3 - 3t + 2: two distinct real roots
    assert nilpotent._count_real_roots([2, -3, 0, 1]) == 2
    assert nilpotent._count_real_roots([1, 0, 1]) == 0          # t^2 + 1
    assert nilpotent._count_real_roots([0, 0, 0, 0, 1]) == 1    # t^4
    assert nilpotent._count_real_roots([-5]) == 0
    t = sympy.Symbol("t")
    p = sympy.Poly((t**2 - 2) ** 2 * (t**2 + 1) * (t - 3), t)
    assert nilpotent._count_real_roots([int(c) for c in reversed(p.all_coeffs())]) == 3


def test_interpolation_recovers_coefficients():
    coeffs = [Fraction(3, 4), Fraction(-2), Fraction(0), Fraction(5, 3)]
    values = [sum(c * t**i for i, c in enumerate(coeffs)) for t in range(4)]
    assert nilpotent._interpolate(values) == coeffs


def _sympy_nonsingular(alg):
    """(verdict, certificate) of is_nonsingular for dim z = 1 or 2, computed
    with sympy: the pencil polynomial comes from a characteristic polynomial,
    not from interpolation."""
    th = is_type_h(alg)
    if th.holds and not th.degenerate:
        return True, "type H implies non-singular: J_Z X != 0 for Z, X != 0"
    n = alg.dim_v
    J = [sympy.Matrix(n, n, lambda a, b: sympy.Rational(
            alg.structure[b][a][k].numerator, alg.structure[b][a][k].denominator))
         for k in range(alg.dim_z)]
    if alg.dim_z == 1:
        det = sympy.Rational(J[0].det())
        if det != 0:
            return True, f"det J = {Fraction(int(det.p), int(det.q))} != 0"
        return False, "det J = 0: singular direction exists"
    det2 = J[1].det()
    if det2 == 0:
        return False, "det J_2 = 0"
    t = sympy.Symbol("t")
    # det(J_1 + t J_2) = det J_2 * det(t I + J_2^{-1} J_1)
    poly = (-J[1].inv() * J[0]).charpoly(t) * det2
    n_real = sympy.polys.polytools.count_roots(poly, -sympy.oo, sympy.oo)
    if n_real == 0:
        return True, "pencil det(J_1 + t J_2) has no real roots and det J_2 != 0"
    return False, f"pencil determinant has {n_real} real root(s)"


_SMALL = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3, 5]))


@st.composite
def _pencils(draw):
    """Algebras with dim z in (1, 2). Dense random tensors; sums of 2x2
    blocks, whose pencil determinants are products of squared linear
    factors with shared roots; and rescaled, tilted quaternionic 4x4
    blocks, whose pencils often have no real root. Zero entries make
    det J_2 = 0 common."""
    kind = draw(st.sampled_from(["dense", "blocks", "quaternionic"]))
    dim_v = draw(st.integers(1, 6))
    dim_z = draw(st.integers(1, 2))
    entries = []
    if kind == "dense":
        for i in range(dim_v):
            for j in range(i + 1, dim_v):
                for k in range(dim_z):
                    entries.append((i, j, k, draw(_SMALL)))
    elif kind == "blocks":
        ratios = draw(st.lists(st.tuples(_SMALL, _SMALL), min_size=1, max_size=2))
        for b in range(0, dim_v - 1, 2):
            for k, val in enumerate(draw(st.sampled_from(ratios))[:dim_z]):
                entries.append((b, b + 1, k, val))
    else:
        dim_v, dim_z = 4 * draw(st.integers(1, 2)), 2
        for b in range(0, dim_v, 4):
            a1, a2, b1, b2, tilt = (draw(_SMALL) for _ in range(5))
            entries += [(b, b + 1, 0, a1), (b + 2, b + 3, 0, a2),
                        (b, b + 2, 1, b1), (b + 3, b + 1, 1, b2),
                        (b, b + 3, 1, tilt), (b + 1, b + 2, 0, tilt)]
    return make_custom("pencil", dim_v, dim_z, entries)


@settings(max_examples=100, deadline=None)
@given(_pencils())
@example(make_custom("tilted", 4, 2, [(0, 1, 0, 1), (2, 3, 0, 2), (0, 2, 1, 1),
                                      (3, 1, 1, 3), (0, 3, 1, 1), (1, 2, 0, 1)]))
@example(make_custom("double", 6, 2, [(0, 1, 0, 1), (0, 1, 1, 1), (2, 3, 0, 1),
                                      (2, 3, 1, 1), (4, 5, 0, 2), (4, 5, 1, -1)]))
@example(make_custom("odd", 3, 2, [(0, 1, 0, 1), (1, 2, 1, 1)]))
@example(make_custom("line", 4, 1, [(0, 1, 0, Fraction(7, 3)), (2, 3, 0, -2)]))
def test_nonsingular_matches_sympy(alg):
    res = is_nonsingular(alg)
    assert (res.verdict, res.certificate) == _sympy_nonsingular(alg)
    assert res.degenerate is False


def test_nonsingular_counts_repeated_roots_once():
    # det(J_1 + t J_2) = (1 + t)^4 (2 - t)^2: roots -1 and 2
    alg = make_custom("double", 6, 2, [(0, 1, 0, 1), (0, 1, 1, 1), (2, 3, 0, 1),
                                       (2, 3, 1, 1), (4, 5, 0, 2), (4, 5, 1, -1)])
    res = is_nonsingular(alg)
    assert res.verdict is False
    assert res.certificate == "pencil determinant has 2 real root(s)"


def _rotation(n, i, j, u):
    """Rational rotation in the (i, j) plane: cos = (1-u^2)/(1+u^2)."""
    q = [[Fraction(int(a == b)) for b in range(n)] for a in range(n)]
    c, s = (1 - u * u) / (1 + u * u), 2 * u / (1 + u * u)
    q[i][i], q[i][j], q[j][i], q[j][j] = c, -s, s, c
    return q


def _mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _dense_jmat(alg, k):
    """J_k read straight off the dense tensor: (J_k)_{ab} = c[b][a][k]."""
    n = alg.dim_v
    return [[alg.structure[b][a][k] for b in range(n)] for a in range(n)]


def _rotate_v(alg, q):
    """The same algebra in the orthonormal v-basis given by the columns of q:
    J'_k = q^T J_k q, and <J_Z X, Y> = <Z, [X, Y]> fixes the new tensor."""
    n = alg.dim_v
    qt = [list(col) for col in zip(*q)]
    entries = []
    for k in range(alg.dim_z):
        j = _mul(qt, _mul(_dense_jmat(alg, k), q))
        entries += [(a, b, k, j[b][a]) for a in range(n) for b in range(a + 1, n)
                    if j[b][a]]
    return make_custom(alg.name + "'", n, alg.dim_z, entries)


def _dense_failing_pairs(mats, scale=1):
    """M_a M_b + M_b M_a = -2 delta_ab scale^2 I checked pair by pair on
    dense matrices, by full products."""
    n = len(mats[0])
    failing = []
    for a in range(len(mats)):
        for b in range(a, len(mats)):
            ab, ba = _mul(mats[a], mats[b]), _mul(mats[b], mats[a])
            want = -2 * scale * scale if a == b else 0
            if any(ab[i][j] + ba[i][j] != (want if i == j else 0)
                   for i in range(n) for j in range(n)):
                failing.append((a, b))
    return failing


def _fraction_failing_pairs(alg):
    """The J-identity checked pair by pair on Fraction matrices."""
    return tuple(_dense_failing_pairs([_dense_jmat(alg, k) for k in range(alg.dim_z)]))


@pytest.mark.parametrize("perturb", [False, True])
def test_type_h_matches_fraction_reference(perturb):
    alg = build_hn(DA.H, 1)
    if perturb:  # J_1 gains an entry: it no longer squares to -I or anticommutes
        entries = [(i, j, k, alg.structure[i][j][k]) for i in range(8)
                   for j in range(i + 1, 8) for k in range(4) if alg.structure[i][j][k]]
        alg = make_custom("bent", 8, 4, entries + [(0, 5, 1, Fraction(1, 3))])
    q = _mul(_rotation(8, 0, 1, Fraction(1000003, 1000033)),
             _rotation(8, 1, 5, Fraction(-999979, 1000037)))
    rotated = _rotate_v(alg, q)  # common denominator near 10^24, far past int64
    small, large = is_type_h(alg), is_type_h(rotated)
    assert (small.holds, small.failing_pairs, small.certificate) == \
        (large.holds, large.failing_pairs, large.certificate)
    assert small.failing_pairs == _fraction_failing_pairs(alg)
    assert large.failing_pairs == _fraction_failing_pairs(rotated)
    assert small.holds is not perturb


_clifford_stack = functools.cache(lambda m: clifford_generators(m).generators)


@st.composite
def _integer_stacks(draw):
    """(K, D): a random integer stack, or a Clifford stack scaled by D, and
    in either case perhaps one entry moved by 1."""
    D = draw(st.integers(1, 3))
    if draw(st.booleans()):
        gens = _clifford_stack(draw(st.integers(1, 8)))
        K = [[[D * int(x) for x in row] for row in g] for g in gens]
    else:
        m, n = draw(st.integers(1, 4)), draw(st.integers(1, 6))
        row = st.lists(st.integers(-D, D), min_size=n, max_size=n)
        K = draw(st.lists(st.lists(row, min_size=n, max_size=n), min_size=m, max_size=m))
    if draw(st.booleans()):
        k = draw(st.integers(0, len(K) - 1))
        i = draw(st.integers(0, len(K[0]) - 1))
        j = draw(st.integers(0, len(K[0]) - 1))
        K[k][i][j] += draw(st.sampled_from((-1, 1)))
    return K, D


@settings(max_examples=200, deadline=None)
@given(_integer_stacks())
def test_sparse_clifford_check_matches_dense(stack):
    K, D = stack
    sparse = [[{c: x for c, x in enumerate(row) if x} for row in M] for M in K]
    assert nilpotent._clifford_failures(sparse, D) == _dense_failing_pairs(K, D)


# --- graded isomorphism witness ---------------------------------------------


def test_symplectic_witness_to_heisenberg():
    a = build_hprime(DA.C, 1, 1)
    b = build_hn(DA.R, 2)
    ok, M = check_symplectic_isomorphic(a, b)
    assert ok
    # transport: [Mu, Mw]_b = [u, w]_a
    rng = random.Random(13)
    n = a.dim_v
    for _ in range(10):
        u = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
        w = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
        Mu = [sum(M[i][j] * u[j] for j in range(n)) for i in range(n)]
        Mw = [sum(M[i][j] * w[j] for j in range(n)) for i in range(n)]
        assert (bracket(b, element(b, v=Mu), element(b, v=Mw)).z_part
                == bracket(a, element(a, v=u), element(a, v=w)).z_part)


def test_symplectic_witness_negative_cases():
    assert check_symplectic_isomorphic(
        build_hn(DA.R, 1), build_hn(DA.R, 2)) == (False, None)
    degenerate = make_custom("dead", 4, 1, [(0, 1, 0, 1)])
    assert check_symplectic_isomorphic(
        degenerate, build_hn(DA.R, 2)) == (False, None)
    odd = make_custom("odd", 3, 1, [(0, 1, 0, 1)])
    assert check_symplectic_isomorphic(odd, odd) == (False, None)


# sha256 of repr(M) for h'_{p,q}(C) ~ h_{p+q}(R), keyed by p + q, computed
# when the Darboux basis and the witness product were dense
WITNESS_DIGESTS = {
    1: "958fb63abad88a8ffe95bff85e619938d1fed0aa792dd7e9e2e1bd93c2f4aad1",
    2: "a3ee7bf6e21f8e08c25283f22b4d7e6477de42d6b5c5c36b75b88bcacff4945f",
    3: "d0ba2f9f5bd2d29bd99fff2e7439b37f93319448e8688c69b7e46b010d33818e",
    4: "91a3ba490e481e156b1316bd70e90c1677800d44e8d2cdf257d8583b3650ef82",
}


@pytest.mark.parametrize("p,q", [(p, t - p) for t in range(1, 5) for p in range(t + 1)])
def test_complex_rows_collapse_to_heisenberg_pinned(p, q):
    ok, M = check_symplectic_isomorphic(build_hprime(DA.C, p, q), build_hn(DA.R, p + q))
    assert ok
    assert hashlib.sha256(repr(M).encode()).hexdigest() == WITNESS_DIGESTS[p + q]


def _textbook_witness(a, b):
    """Dense Darboux reduction and transport, on lists of Fractions: the
    pool starts as the standard basis, its first vector u pairs with the
    first later w having form(u, w) != 0, and w' = w + form(v,w) u -
    form(u,w) v strips the pair from the rest."""
    def skew(alg):
        return [[alg.structure[i][j][0] for j in range(alg.dim_v)] for i in range(alg.dim_v)]

    def darboux(S):
        n = len(S)
        if n % 2:
            return None

        def form(u, w):
            return sum(u[i] * S[i][j] * w[j] for i in range(n) for j in range(n))

        pool = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        us, vs = [], []
        while pool:
            u = pool.pop(0)
            k = next((k for k, w in enumerate(pool) if form(u, w) != 0), None)
            if k is None:
                return None
            w = pool.pop(k)
            s = form(u, w)
            v = [x / s for x in w]
            rest = []
            for w in pool:
                a, b = form(u, w), form(v, w)
                w2 = [wi + b * ui - a * vi for wi, ui, vi in zip(w, u, v)]
                if any(w2):
                    rest.append(w2)
            pool = rest
            us.append(u)
            vs.append(v)
        return [list(col) for col in zip(*(us + vs))]

    def inverse(P):  # Gauss-Jordan on [P | I]
        n = len(P)
        aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(P)]
        for c in range(n):
            r = next(r for r in range(c, n) if aug[r][c] != 0)
            aug[c], aug[r] = aug[r], aug[c]
            aug[c] = [x / aug[c][c] for x in aug[c]]
            for r in range(n):
                if r != c and aug[r][c] != 0:
                    aug[r] = [x - aug[r][c] * y for x, y in zip(aug[r], aug[c])]
        return [row[n:] for row in aug]

    Sa, Sb = skew(a), skew(b)
    if a.dim_v != b.dim_v:
        return False, None
    Pa, Pb = darboux(Sa), darboux(Sb)
    if Pa is None or Pb is None:
        return False, None
    M = _mul(Pb, inverse(Pa))
    assert _mul([list(col) for col in zip(*M)], _mul(Sb, M)) == Sa
    return True, tuple(tuple(row) for row in M)


@st.composite
def _skew_line_algebra(draw, n):
    """dim z = 1 with rational entries, some zero; in about one draw of
    four one v-vector pairs with nothing, so the form is degenerate."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    values = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 5)),
                           min_size=len(pairs), max_size=len(pairs)))
    entries = [(i, j, 0, Fraction(*v)) for (i, j), v in zip(pairs, values)]
    if n and draw(st.integers(0, 3)) == 0:
        dead = draw(st.integers(0, n - 1))
        entries = [e for e in entries if dead not in e[:2]]
    return make_custom("skew", n, 1, entries)


@st.composite
def _witness_pairs(draw):
    n = draw(st.sampled_from((0, 2, 2, 4, 4, 6, 6, 8, 1, 3, 5, 7)))
    a = draw(_skew_line_algebra(n))
    kind = draw(st.sampled_from(("random", "random", "heisenberg", "heisenberg",
                                 "other dim")))
    if kind == "heisenberg" and n % 2 == 0:
        return a, build_hn(DA.R, n // 2)
    if kind == "other dim":
        n = draw(st.integers(0, 7).filter(lambda m: m != n))
    return a, draw(_skew_line_algebra(n))


@settings(max_examples=100, deadline=None)
@given(_witness_pairs())
@example((build_hprime(DA.C, 2, 1), build_hn(DA.R, 3)))
@example((make_custom("dead", 4, 1, [(0, 1, 0, 1)]), build_hn(DA.R, 2)))
@example((make_custom("odd", 3, 1, [(0, 1, 0, 1)]),) * 2)
def test_witness_matches_textbook_reference(pair):
    a, b = pair
    got = check_symplectic_isomorphic(a, b)
    assert repr(got) == repr(_textbook_witness(a, b))


def test_witness_transport_check_fires(monkeypatch):
    # one dual row with its minus sign dropped: M is no longer Pb Pa^{-1}
    darboux = nilpotent._darboux

    def wrong_dual(S):
        P, dual = darboux(S)
        return P, [{j: -x for j, x in dual[0].items()}] + dual[1:]

    monkeypatch.setattr(nilpotent, "_darboux", wrong_dual)
    with pytest.raises(StructureError, match="witness transport failed"):
        check_symplectic_isomorphic(build_hprime(DA.C, 1, 1), build_hn(DA.R, 2))


def test_symplectic_witness_needs_line_center():
    with pytest.raises(CenterDimensionError):
        check_symplectic_isomorphic(build_hn(DA.C, 1), build_hn(DA.C, 1))


# rational J-maps: the integer pencil is scaled by D^dim v, D > 1 here
_F = Fraction
RATIONAL_PENCILS = [
    # a tilted quaternionic pair: no real root
    (make_custom("q", 4, 2, [(0, 1, 0, _F(1, 2)), (2, 3, 0, _F(1, 2)), (0, 2, 1, _F(2, 3)),
                             (3, 1, 1, _F(2, 3)), (0, 3, 1, _F(1, 5)), (1, 2, 0, _F(1, 5))]),
     True, "pencil det(J_1 + t J_2) has no real roots and det J_2 != 0"),
    # (1/2 + t)^2 (1 + 2t)^2: one root, repeated; D = 2 on J_1 alone
    # would give two
    (make_custom("one", 4, 2, [(0, 1, 0, _F(1, 2)), (0, 1, 1, 1), (2, 3, 0, 1), (2, 3, 1, 2)]),
     False, "pencil determinant has 1 real root(s)"),
    # (1/2 + t/3)^2 (1 - 3t/5)^2: roots -3/2 and 5/3
    (make_custom("two", 4, 2, [(0, 1, 0, _F(1, 2)), (0, 1, 1, _F(1, 3)), (2, 3, 0, 1),
                               (2, 3, 1, _F(-3, 5))]),
     False, "pencil determinant has 2 real root(s)"),
    # J_2 has rank 2
    (make_custom("flat", 4, 2, [(0, 1, 0, _F(1, 3)), (2, 3, 0, _F(1, 2)), (0, 2, 1, _F(5, 7))]),
     False, "det J_2 = 0"),
    # dim z = 1: the determinant is printed as the Fraction it is
    (make_custom("line", 4, 1, [(0, 1, 0, _F(7, 3)), (2, 3, 0, -2)]),
     True, "det J = 196/9 != 0"),
    # Pfaffian (1/2)(-5/3) + (1/4) 0 = -5/6, with D = 12
    (make_custom("mixed", 4, 1, [(0, 1, 0, _F(1, 2)), (2, 3, 0, _F(-5, 3)), (0, 3, 0, _F(1, 4))]),
     True, "det J = 25/36 != 0"),
    # a skew form of rank 2 on dim v = 4
    (make_custom("rank2", 4, 1, [(0, 1, 0, _F(7, 3)), (1, 2, 0, _F(1, 2))]),
     False, "det J = 0: singular direction exists"),
]


@pytest.mark.parametrize("alg, verdict, certificate", RATIONAL_PENCILS,
                         ids=[a.name for a, *_ in RATIONAL_PENCILS])
def test_rational_pencils(alg, verdict, certificate):
    assert not is_type_h(alg).holds
    res = is_nonsingular(alg)
    assert (res.verdict, res.certificate, res.degenerate) == (verdict, certificate, False)
    assert (res.verdict, res.certificate) == _sympy_nonsingular(alg)
    if alg.dim_z == 1:
        det = det_exact(jmap(alg, [1]).matrix)
        assert certificate.startswith(f"det J = {det}")
