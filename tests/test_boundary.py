"""Cayley transform, sphere distributions, and J^2 experiments."""

import gc
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import htype
from htype import boundary as B
from htype.division import DivisionAlgebra as DA
from htype.errors import (
    ConvergenceError,
    CrossValidationError,
    DomainError,
    StructureError,
)
from htype.nilpotent import (
    NilpotentElement,
    bracket,
    build_hn,
    build_hprime,
    is_type_h,
    make_custom,
)


def h1r():
    return build_hn(DA.R, 1)


def h1c():
    return build_hn(DA.C, 1)


# ---------------------------------------------------------------------------
# Cayley transform


def test_model_cache_does_not_pin_the_algebra():
    # the model is kept on its algebra and collected with it
    alg = build_hn(DA.C, 1)
    B.siegel_point(alg, [0, 0, 0, 0], [0, 0])
    model = weakref.ref(vars(alg)["_model"])
    assert B._model(alg) is model()
    ref = weakref.ref(alg)
    del alg
    gc.collect()
    assert ref() is None
    assert model() is None


def test_cayley_special_values():
    alg = h1r()
    center = B.cayley(alg, B.siegel_point(alg, [0, 0], [0], 1.0))
    assert np.allclose(center.vector, 0.0, atol=1e-15)
    origin = B.cayley(alg, B.siegel_point(alg, [0, 0], [0], 0.0))
    south = np.zeros(4)
    south[-1] = -1.0
    assert np.allclose(origin.vector, south, atol=1e-15)


def test_cayley_rejects_points_outside_closure():
    alg = h1r()
    with pytest.raises(DomainError):
        B.cayley(alg, B.siegel_point(alg, [2, 0], [0], 0.5))  # needs t >= 1


def test_cayley_requires_type_h():
    alg = make_custom("junk", 3, 1, [(0, 1, 0, 1), (0, 2, 0, 1)])
    with pytest.raises(StructureError):
        B.siegel_point(alg, [0, 0, 0], [0])


def test_interior_maps_inside_sphere():
    alg = h1c()
    rng = np.random.default_rng(0)
    for _ in range(200):
        X = rng.standard_normal(4)
        Z = rng.standard_normal(2)
        t = 0.25 * X @ X + rng.uniform(0.01, 3.0)
        assert B.cayley(alg, B.siegel_point(alg, X, Z, t)).norm < 1.0


@pytest.mark.parametrize("alg", [h1r(), h1c(), build_hprime(DA.H, 1, 0)],
                         ids=["h1R", "h1C", "hp10H"])
def test_boundary_identity_ten_thousand_samples(alg):
    assert B.boundary_identity_error(alg, samples=10_000, seed=5) <= 1e-12


@pytest.mark.parametrize("alg", [h1r(), h1c(), build_hprime(DA.H, 1, 0)],
                         ids=["h1R", "h1C", "hp10H"])
def test_round_trip_thousand_samples(alg):
    assert B.round_trip_error(alg, samples=1000, seed=7) <= 1e-8


def test_cayley_inverse_rejects_near_sphere_points():
    alg = h1c()
    vec = np.zeros(7)
    vec[-1] = 1.0 - 1e-10
    with pytest.raises(DomainError):
        B.cayley_inverse(alg, vec)


def test_cayley_inverse_refuses_a_mis_shaped_ball_point():
    with pytest.raises(StructureError, match=re.escape("ball point has shape (3,), expected (7,)")):
        B.cayley_inverse(h1c(), [0.0] * 3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_cayley_inverse_rejects_non_finite_points(bad):
    alg = h1c()
    for vec in (np.full(7, bad), np.array([0.1, 0.0, bad, 0.0, 0.0, 0.0, 0.2])):
        with pytest.raises(DomainError):
            B.cayley_inverse(alg, vec)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_cayley_rejects_non_finite_points(bad):
    alg = h1c()
    points = [([bad, 0.0, 0.0, 0.0], [0.0, 0.0], 1.0),
              ([0.0, 0.0, 0.0, 0.0], [bad, 0.0], 1.0),
              ([0.0, 0.0, 0.0, 0.0], [0.0, 0.0], bad)]
    for X, Z, t in points:
        with pytest.raises(DomainError):
            B.siegel_point(alg, X, Z, t)
        # a point built directly bypasses siegel_point's check
        with pytest.raises(DomainError):
            B.cayley(alg, B.SiegelPoint(np.array(X), np.array(Z), t))
    with pytest.raises(DomainError):
        B.siegel_point(alg, [bad, 0.0, 0.0, 0.0], [0.0, 0.0])


def test_cayley_inverse_nan_residual_is_not_convergence(monkeypatch):
    alg = h1c()
    vec = np.zeros(7)
    vec[0] = 0.5
    monkeypatch.setattr(B, "_cayley_arrays", lambda mod, X, Z, t: np.full(7, np.nan))
    with pytest.raises(ConvergenceError) as exc:
        B.cayley_inverse(alg, vec)
    assert math.isnan(exc.value.residual) and exc.value.iterations == 0


def test_cayley_inverse_reports_convergence_failure():
    alg = h1c()
    rng = np.random.default_rng(8)
    vec = rng.standard_normal(7)
    vec *= 0.5 / np.linalg.norm(vec)
    # an unreachable residual target turns the usual rounding floor
    # (~1e-16) into a reportable failure
    with pytest.raises(ConvergenceError) as exc:
        B.cayley_inverse(alg, vec, tol=0.0)
    assert exc.value.iterations == 0


def test_convergence_error_names_a_closed_form():
    # the closed-form inverse runs no iteration, and its message says so
    vec = np.random.default_rng(8).standard_normal(7)
    vec *= 0.5 / np.linalg.norm(vec)
    with pytest.raises(ConvergenceError, match="^closed form missed its target: "
                                               "residual .* > target 0.000e[+]00$"):
        B.cayley_inverse(h1c(), vec, tol=0.0)
    assert str(ConvergenceError(2.0, 1.0, 5)) == (
        "no convergence after 5 iterations: residual 2.000e+00 > target 1.000e+00")


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_round_trip_property(seed):
    alg = build_hn(DA.C, 1)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal(4)
    Z = rng.standard_normal(2)
    p = B.siegel_point(alg, X, Z, 0.25 * float(X @ X) + rng.uniform(0.05, 2.0))
    q = B.cayley_inverse(alg, B.cayley(alg, p))
    assert np.linalg.norm(p.ambient() - q.ambient()) <= 1e-8


# ---------------------------------------------------------------------------
# The direction-stacked Cayley derivative against a per-direction reference

DERIVATIVE_ALGEBRAS = [
    ("h1R", lambda: build_hn(DA.R, 1)),
    ("h1C", lambda: build_hn(DA.C, 1)),
    ("hp10H", lambda: build_hprime(DA.H, 1, 0)),
    ("hp11H", lambda: build_hprime(DA.H, 1, 1)),
    ("h1O", lambda: build_hn(DA.O, 1)),
    ("hp10O", lambda: build_hprime(DA.O, 1, 0)),
]


def _reference_dcayley(mod, X, Z, t, Y, W, s):
    """Directional derivative of the Cayley map at (X, Z, t) along one
    direction (Y, W, s): the quotient rule on C = N / D."""
    zz = float(Z @ Z)
    zw = float(Z @ W)
    D = (1.0 + t) ** 2 + zz
    N = np.concatenate([(1.0 + t) * X - mod.jz(Z) @ X, 2.0 * Z, [t * t + zz - 1.0]])
    dD = 2.0 * (1.0 + t) * s + 2.0 * zw
    dN = np.concatenate(
        [s * X + (1.0 + t) * Y - mod.jz(W) @ X - mod.jz(Z) @ Y,
         2.0 * W,
         [2.0 * t * s + 2.0 * zw]]
    )
    return (dN - (dD / D) * N) / D


def _per_direction(mod, X, Z, t, dirs):
    n, m = mod.n, mod.m
    return np.stack([_reference_dcayley(mod, X, Z, t, d[:n], d[n:n + m], d[-1])
                     for d in dirs])


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("make", [m for _, m in DERIVATIVE_ALGEBRAS],
                         ids=[n for n, _ in DERIVATIVE_ALGEBRAS])
def test_stacked_dcayley_matches_per_direction_reference(make, seed):
    alg = make()
    mod = B._model(alg)
    n, m = mod.n, mod.m
    rng = np.random.default_rng(seed)
    for _ in range(25):
        X, Z = rng.standard_normal(n), rng.standard_normal(m)
        t = 0.25 * float(X @ X) + float(rng.uniform(0.0, 2.0))
        dirs = rng.standard_normal((int(rng.integers(1, n + m + 3)), n + m + 1))
        assert _bits(B._dcayley(mod, X, Z, t, dirs)) == _bits(
            _per_direction(mod, X, Z, t, dirs))
        # The full Jacobian, column by column.
        cols = [_reference_dcayley(mod, X, Z, t, e[:n], e[n:n + m], e[-1])
                for e in np.eye(n + m + 1)]
        assert _bits(B._dcayley(mod, X, Z, t, np.eye(n + m + 1)).T) == _bits(
            np.column_stack(cols))
        # Contact rows (Y, [X,Y]/2, <X,Y>/2), one Y at a time.
        Ys = dirs[:, :n].copy()
        assert _bits(B._contact_rows(mod, X, Ys)) == _bits(np.stack(
            [np.concatenate([y, 0.5 * mod.bracket(X, y), [0.5 * float(X @ y)]])
             for y in Ys]))


def _rotated_h1h():
    """h1(H) with its center turned by the rational rotation (3/5, 4/5) in
    the (z0, z1) plane: type H, with J_Z no longer a signed permutation."""
    alg = build_hn(DA.H, 1)
    n, m = alg.dim_v, alg.dim_z
    rot = {(0, 0): Fraction(3, 5), (0, 1): Fraction(-4, 5),
           (1, 0): Fraction(4, 5), (1, 1): Fraction(3, 5)}
    entries = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(m):
                c = sum(rot.get((k, l), Fraction(k == l)) * alg.structure[i][j][l]
                        for l in range(m))
                if c:
                    entries.append((i, j, k, c))
    return make_custom("h1(H) rotated", n, m, entries)


@pytest.mark.parametrize("make", [m for _, m in DERIVATIVE_ALGEBRAS] + [_rotated_h1h],
                         ids=[n for n, _ in DERIVATIVE_ALGEBRAS] + ["h1H-rotated"])
def test_closed_form_inverse_is_exact_to_the_ball_margin(make):
    # No Newton polish follows the closed form: every interior point up to
    # the margin, the puncture side (s -> 1) included, meets INVERSE_TOL.
    alg = make()
    dim = alg.dim_v + alg.dim_z + 1
    rng = np.random.default_rng(11)
    for radius in (0.5, 0.9, 0.999, 1 - 1e-6, 1 - 1e-8, 1 - 2e-9):
        for k in range(30):
            vec = rng.standard_normal(dim)
            if k % 3 == 0:  # near the puncture (0, 0, 1)
                vec[:-1] *= 10.0 ** -int(rng.integers(1, 8))
                vec[-1] = abs(vec[-1]) + 1.0
            vec *= radius / np.linalg.norm(vec)
            q = B.cayley_inverse(alg, vec)  # raises ConvergenceError on a miss
            back = B._cayley_arrays(B._model(alg), q.X, q.Z, q.t)
            assert np.linalg.norm(back - vec) <= B.INVERSE_TOL


# ---------------------------------------------------------------------------
# The stacked Cayley probes against a per-point reference

CAYLEY_PROBE_ALGEBRAS = [
    ("h1R", lambda: build_hn(DA.R, 1)),
    ("h1C", lambda: build_hn(DA.C, 1)),
    ("hp10H", lambda: build_hprime(DA.H, 1, 0)),
    ("h1O", lambda: build_hn(DA.O, 1)),
]


def _reference_round_trip(alg, samples, seed):
    """round_trip_error one point at a time, through the public maps, on the
    points drawn per block: its X, then its Z, then its heights."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for start in range(0, samples, B._PROBE_BLOCK):
        b = min(B._PROBE_BLOCK, samples - start)
        Xs = rng.standard_normal((b, alg.dim_v))
        Zs = rng.standard_normal((b, alg.dim_z))
        for X, Z, u in zip(Xs, Zs, rng.uniform(0.05, 2.0, b)):
            p = B.SiegelPoint(X, Z, 0.25 * float(X @ X) + float(u))
            q = B.cayley_inverse(alg, B.cayley(alg, p))
            worst = max(worst, float(np.linalg.norm(p.ambient() - q.ambient())))
    return worst


@pytest.mark.parametrize("make", [m for _, m in CAYLEY_PROBE_ALGEBRAS],
                         ids=[n for n, _ in CAYLEY_PROBE_ALGEBRAS])
def test_stacked_maps_match_per_point_reference(make):
    # Thousands of points, so that powers the C pow and an array square round
    # differently (about one in a thousand) would show.
    alg = make()
    mod = B._model(alg)
    n, m = mod.n, mod.m
    rng = np.random.default_rng(2)
    X, Z = rng.standard_normal((2000, n)), rng.standard_normal((2000, m))
    t = 0.25 * np.einsum("ij,ij->i", X, X) + rng.uniform(0.05, 2.0, 2000)
    ball = B._cayley_arrays(mod, X, Z, t)
    assert _bits(ball) == _bits(np.stack(
        [B.cayley(alg, B.SiegelPoint(x, z, float(s))).vector for x, z, s in zip(X, Z, t)]))
    assert _bits(B._inverse(mod, ball, B.INVERSE_TOL)) == _bits(np.stack(
        [B.cayley_inverse(alg, b).ambient() for b in ball]))


@pytest.mark.parametrize("make", [m for _, m in CAYLEY_PROBE_ALGEBRAS],
                         ids=[n for n, _ in CAYLEY_PROBE_ALGEBRAS])
def test_round_trip_matches_per_point_reference(make):
    alg = make()
    for seed in range(10):
        # Random points fill three blocks and end inside the third.
        got = B.round_trip_error(alg, samples=2 * B._PROBE_BLOCK + 45, seed=seed)
        want = _reference_round_trip(alg, 2 * B._PROBE_BLOCK + 45, seed)
        assert abs(got - want) <= 1e-14
        assert got == want  # each stacked row is bit-identical to its point


def test_boundary_identity_refuses_draws_over_the_cap():
    alg = h1r()  # dim v + dim z = 3
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="over the cap"):
            B.boundary_identity_error(alg, samples=B.MAX_PROBE_DRAWS // 3 + 1, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("probe", [B.boundary_identity_error, B.round_trip_error],
                         ids=["identity", "round_trip"])
@pytest.mark.parametrize("samples", [0, -4])
def test_cayley_probes_refuse_fewer_than_one_sample(monkeypatch, probe, samples):
    # Once, no sample checked no point and returned 0.0, a pass.
    alg = h1c()
    B._model(alg)

    class NoDraws:
        def __getattr__(self, name):
            raise AssertionError(f"drew with {name}")

    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: NoDraws())
    with pytest.raises(ValueError, match=f"samples must be at least 1, got {samples}"):
        probe(alg, samples=samples, seed=0)


@pytest.mark.parametrize("probe", [B.boundary_identity_error, B.round_trip_error],
                         ids=["identity", "round_trip"])
def test_cayley_probes_refuse_draws_over_the_cap_before_any_draw(monkeypatch, probe):
    # round_trip_error once drew any number of normals: 2.7 s and a result
    # on h1(R) one sample over the cap.
    alg = h1r()  # dim v + dim z = 3
    B._model(alg)

    class NoDraws:
        def __getattr__(self, name):
            raise AssertionError(f"drew with {name}")

    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: NoDraws())
    samples = B.MAX_PROBE_DRAWS // 3 + 1
    with pytest.raises(ValueError, match=re.escape(
            f"{samples} samples draw over the cap of {B.MAX_PROBE_DRAWS} normals")):
        probe(alg, samples=samples, seed=0)


def test_cayley_probes_map_whole_blocks(monkeypatch):
    alg = build_hn(DA.O, 1)
    B.boundary_identity_error(alg, samples=1, seed=0)  # build the model first
    calls = {"forward": [], "inverse": [], "domain": []}

    def counted(name, fn):
        def wrapper(mod, *args):
            calls[name].append(args[0].shape[:-1])
            return fn(mod, *args)
        return wrapper

    def no_derivative(*args):
        raise AssertionError("_dcayley called")

    monkeypatch.setattr(B, "_cayley_arrays", counted("forward", B._cayley_arrays))
    monkeypatch.setattr(B, "_inverse", counted("inverse", B._inverse))
    monkeypatch.setattr(B, "_check_siegel",
                        lambda X, *args: calls["domain"].append(X.shape[:-1]))
    monkeypatch.setattr(B, "_dcayley", no_derivative)
    blocks = -(-1000 // B._PROBE_BLOCK)
    B.round_trip_error(alg, samples=1000, seed=0)
    # one domain check and one map out per block, and the way back certified
    # by one forward map per block
    assert len(calls["domain"]) == len(calls["inverse"]) == blocks
    assert len(calls["forward"]) == 2 * blocks
    assert all(len(shape) == 1 and shape[0] <= B._PROBE_BLOCK
               for shape in calls["forward"] + calls["inverse"] + calls["domain"])
    calls["forward"].clear()
    B.boundary_identity_error(alg, samples=1000, seed=0)
    assert len(calls["forward"]) == blocks


def test_round_trip_raises_what_the_scalar_path_raises(monkeypatch):
    alg = h1c()
    monkeypatch.setattr(B, "_cayley_arrays",
                        lambda mod, X, Z, t: np.full(X.shape[:-1] + (7,), np.nan))
    p = B.siegel_point(alg, np.ones(4), np.zeros(2), 2.0)
    with pytest.raises(DomainError) as scalar:
        B.cayley_inverse(alg, B.cayley(alg, p))
    with pytest.raises(DomainError) as stacked:
        B.round_trip_error(alg, samples=5, seed=0)
    assert str(stacked.value) == str(scalar.value)


# ---------------------------------------------------------------------------
# Distributions


def test_boundary_distribution_membership():
    alg = build_hprime(DA.H, 1, 1)
    rng = np.random.default_rng(3)
    for _ in range(50):
        X = rng.standard_normal(alg.dim_v)
        Z = rng.standard_normal(alg.dim_z)
        plane = B.boundary_distribution(alg, X, Z)
        assert plane.dimension == alg.dim_v
        # membership in T(boundary): last component = <X, head>/2
        for u in plane.basis:
            assert abs(u[-1] - 0.5 * X @ u[:alg.dim_v]) <= 1e-12 * max(1.0, X @ X)


def test_sphere_distribution_is_tangent_to_sphere():
    alg = h1c()
    rng = np.random.default_rng(4)
    for _ in range(20):
        X = rng.standard_normal(4)
        Z = rng.standard_normal(2)
        plane = B.sphere_distribution(alg, X, Z)
        assert abs(np.linalg.norm(plane.base) - 1.0) <= 1e-12
        for u in plane.basis:
            assert abs(u @ plane.base) <= 1e-8


def test_sphere_distribution_matches_closed_form():
    alg = build_hprime(DA.H, 1, 0)
    rng = np.random.default_rng(5)
    X = rng.standard_normal(4)
    Z = rng.standard_normal(3)
    plane = B.sphere_distribution(alg, X, Z)
    assert plane.dimension == 4


def test_sphere_distribution_checks_every_direction(monkeypatch):
    # Doubling one pushed row leaves the plane, and so its tangency, as it
    # is: only the per-direction finite-difference check can see it.
    alg = build_hprime(DA.H, 1, 1)
    rng = np.random.default_rng(12)
    X, Z = rng.standard_normal(8), rng.standard_normal(3)
    B.sphere_distribution(alg, X, Z)
    exact = B._dcayley
    for i in range(alg.dim_v):
        def corrupt(mod, X, Z, t, dirs, i=i):
            out = exact(mod, X, Z, t, dirs)
            out[i] *= 2.0
            return out

        monkeypatch.setattr(B, "_dcayley", corrupt)
        with pytest.raises(CrossValidationError) as exc:
            B.sphere_distribution(alg, X, Z)
        assert exc.value.label == "sphere push against finite differences"


def test_translation_invariance_of_sphere_planes():
    alg = h1c()
    rng = np.random.default_rng(6)
    for _ in range(5):
        X = rng.standard_normal(4)
        Z = rng.standard_normal(2)
        assert B.translation_invariance_check(alg, X, Z) <= 1e-6


def test_cross_checks_at_zero_tolerance_are_refused():
    # the float rounding left in each check is above 0
    with pytest.raises(CrossValidationError, match="puncture limit spread"):
        B.puncture_point(h1c(), tol=0.0)
    with pytest.raises(CrossValidationError, match="translation invariance"):
        B.translation_invariance_check(h1c(), np.ones(4), np.ones(2), tol=0.0)


def test_translation_check_runs_one_finite_difference(monkeypatch):
    alg = build_hn(DA.O, 1)
    rng = np.random.default_rng(9)
    X, Z = rng.standard_normal(16), rng.standard_normal(8)
    calls = []
    fd_push = B._fd_push

    def counted(*args):
        calls.append(1)
        return fd_push(*args)

    monkeypatch.setattr(B, "_fd_push", counted)
    assert B.translation_invariance_check(alg, X, Z) <= 1e-6
    assert len(calls) == 1


def test_distribution_and_cayley_probe_reports(monkeypatch):
    alg = h1c()
    calls = []
    fd_push = B._fd_push

    def counted(*args):
        calls.append(1)
        return fd_push(*args)

    monkeypatch.setattr(B, "_fd_push", counted)
    dist = B.distribution_experiment(alg, sample_count=3, seed=1)
    assert len(calls) == 3  # one sphere plane, so one finite difference, per sample
    probe = B.cayley_probe(alg, sample_count=20, seed=1)
    common = {"algebra", "operation", "samples", "tolerances", "verdict", "witnesses",
              "convergence_table", "seed"}
    assert set(dist) == common | {"max_tangency_residual", "max_invariance_distance"}
    assert set(probe) == common | {"max_boundary_residual", "max_round_trip_error"}
    assert (dist["samples"], probe["samples"]) == (3, 20)
    assert dist["verdict"] == probe["verdict"] == "pass"
    assert dist["max_invariance_distance"] <= B.PLANE_TOL
    for experiment in (B.cayley_probe, B.distribution_experiment):
        with pytest.raises(ValueError, match="at least 1"):
            experiment(alg, sample_count=0)


@settings(max_examples=200, deadline=None)
@given(dim=st.integers(2, 9), ka=st.integers(1, 9), kb=st.integers(1, 9),
       near=st.sampled_from([0.0, 1e-13, 1e-10, 1e-6, 1e-2]),
       seed=st.integers(0, 2**32 - 1))
def test_grassmann_distance_matches_subspace_angles(dim, ka, kb, near, seed):
    linalg = pytest.importorskip("scipy.linalg")  # oracle only
    ka, kb = min(ka, dim), min(kb, dim)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((ka, dim))
    if near:
        # a span inside a, or containing it, moved by about `near`
        b = rng.standard_normal((kb, ka)) @ a if kb <= ka else np.vstack(
            [a, rng.standard_normal((kb - ka, dim))])
        b = b + near * rng.standard_normal(b.shape)
    else:
        b = rng.standard_normal((kb, dim))
    want = float(np.linalg.norm(np.sin(linalg.subspace_angles(a.T, b.T))))
    assert abs(B.grassmann_distance(a, b) - want) <= 1e-12
    assert abs(B.grassmann_distance(b, a) - want) <= 1e-12


def test_grassmann_distance_names_an_empty_span():
    # rows of norm <= 1e-10 fall under the absolute cut and span nothing
    tiny, unit = 1e-11 * np.eye(3)[:2], np.eye(3)[:2]
    for a, b in ((tiny, unit), (unit, tiny)):
        with pytest.raises(ValueError, match="span nothing"):
            B.grassmann_distance(a, b)


def test_group_product_is_a_two_step_group_law():
    alg = h1c()
    rng = np.random.default_rng(7)
    g = [(rng.standard_normal(4), rng.standard_normal(2)) for _ in range(3)]
    lhs = B.group_product(alg, B.group_product(alg, g[0], g[1]), g[2])
    rhs = B.group_product(alg, g[0], B.group_product(alg, g[1], g[2]))
    for a, b in zip(lhs, rhs):
        assert np.max(np.abs(a - b)) <= 1e-12
    ident = B.group_product(alg, g[0], (np.zeros(4), np.zeros(2)))
    assert np.allclose(ident[0], g[0][0]) and np.allclose(ident[1], g[0][1])


POINT_ENTRIES = {
    "siegel_point": B.siegel_point,
    "boundary_distribution": B.boundary_distribution,
    "sphere_distribution": B.sphere_distribution,
    "translation_invariance_check": B.translation_invariance_check,
    "group_product": lambda alg, X, Z: B.group_product(alg, (X, Z), (np.ones(4), np.ones(2))),
    "group_product_second":
        lambda alg, X, Z: B.group_product(alg, (np.ones(4), np.ones(2)), (X, Z)),
}


@pytest.mark.parametrize("X, Z", [(np.ones(3), np.ones(2)), (np.ones((1, 4)), np.ones(2)),
                                  (np.ones(4), [0.5]), (np.ones(4), np.ones(3))],
                         ids=["X3", "X1x4", "Z1", "Z3"])
@pytest.mark.parametrize("entry", list(POINT_ENTRIES))
def test_point_entries_refuse_mis_shaped_points(entry, X, Z):
    # Unchecked, group_product broadcast a 1-entry Z to a 2-entry z-part and
    # boundary_distribution built an 8-entry base in a 7-dimensional space.
    alg = h1c()
    with pytest.raises(StructureError) as want:
        B.siegel_point(alg, X, Z)
    with pytest.raises(StructureError) as got:
        POINT_ENTRIES[entry](alg, X, Z)
    assert str(got.value) == str(want.value)
    assert str(want.value).endswith("do not match (4,)/(2,)")
    assert isinstance(got.value, ValueError)


@pytest.mark.parametrize("make", [h1c, lambda: build_hprime(DA.H, 1, 1),
                                  lambda: build_hn(DA.O, 1)],
                         ids=["h1C", "hp11H", "h1O"])
def test_group_product_carries_half_the_exact_bracket(make):
    # Pins the sign and scale of the float model's tensor: building it from
    # -c leaves the identities and planes alone, but not this.
    alg = make()
    n, m = alg.dim_v, alg.dim_z
    basis = [tuple(Fraction(int(a == i)) for a in range(n)) for i in range(n)]
    zero_z = (Fraction(0),) * m
    for i in range(n):
        for j in range(n):
            _, z = B.group_product(alg, (np.eye(n)[i], np.zeros(m)), (np.eye(n)[j], np.zeros(m)))
            exact = bracket(alg, NilpotentElement(basis[i], zero_z),
                            NilpotentElement(basis[j], zero_z)).z_part
            assert z.tolist() == [0.5 * float(x) for x in exact]


def test_puncture_point_is_direction_independent():
    for alg in (h1r(), h1c(), build_hprime(DA.H, 1, 0)):
        p = B.puncture_point(alg, seed=1)
        north = np.zeros(alg.dim_v + alg.dim_z + 1)
        north[-1] = 1.0
        assert np.linalg.norm(p - north) <= 1e-8


def test_puncture_point_checks_exactly_its_directions(monkeypatch):
    # e_1 and directions - 1 random X, each at two Z; one direction checks
    # no direction-independence, so fewer than two are refused
    cayley, calls = B._cayley_arrays, []
    monkeypatch.setattr(B, "_cayley_arrays",
                        lambda *a: calls.append(1) or cayley(*a))
    for directions in (2, 3, 6):
        calls.clear()
        B.puncture_point(h1c(), directions=directions)
        assert len(calls) == 2 * directions
    for directions in (1, 0, -3):
        with pytest.raises(ValueError, match="at least 2"):
            B.puncture_point(h1c(), directions=directions)


def test_puncture_point_refuses_bad_radii():
    # (1 + r^2/4)^2 overflows above r of about 7.3e77, and from about 1.3e154
    # every mapped coordinate is NaN; a bad radius is refused up front,
    # before any float work that could warn
    with np.errstate(all="raise"):
        for radius in (0.0, -1.0, math.inf, math.nan, 1e78, 1e160):
            with pytest.raises(ValueError, match="finite and positive"):
                B.puncture_point(h1c(), radius=radius)


# ---------------------------------------------------------------------------
# J^2 condition

J2_HOLDS = [
    ("h1R", lambda: build_hn(DA.R, 1)),
    ("h2R", lambda: build_hn(DA.R, 2)),
    ("h3R", lambda: build_hn(DA.R, 3)),
    ("hp20H", lambda: build_hprime(DA.H, 2, 0)),
    ("hp02H", lambda: build_hprime(DA.H, 0, 2)),
    ("hp10O", lambda: build_hprime(DA.O, 1, 0)),
]

J2_FAILS = [
    ("h1C", lambda: build_hn(DA.C, 1)),
    ("h2C", lambda: build_hn(DA.C, 2)),
    ("h1H", lambda: build_hn(DA.H, 1)),
    ("hp11H", lambda: build_hprime(DA.H, 1, 1)),
    ("h1O", lambda: build_hn(DA.O, 1)),
]


@pytest.mark.parametrize("make", [m for _, m in J2_HOLDS],
                         ids=[n for n, _ in J2_HOLDS])
def test_j2_holds(make):
    alg = make()
    res = B.j2_test(alg, sample_count=200, tol=1e-8, seed=11)
    assert res.holds
    assert res.vacuous == (alg.dim_z <= 1)
    assert res.witness is None


@pytest.mark.parametrize("make", [m for _, m in J2_FAILS],
                         ids=[n for n, _ in J2_FAILS])
def test_j2_fails_with_witness(make):
    alg = make()
    res = B.j2_test(alg, sample_count=200, tol=1e-8, seed=11)
    assert not res.holds and not res.vacuous
    w = res.witness
    assert w is not None and w.residual > 1e-8
    # the excess direction commutes with X: this is the certificate
    assert w.bracket_norm <= 1e-10


def test_j2_requires_seed_for_random_samples():
    with pytest.raises(ValueError):
        B.j2_test(h1c(), sample_count=10)


def test_j2_report_schema():
    rep = B.j2_test(h1c(), sample_count=50, tol=1e-8, seed=2).to_report()
    assert set(rep) == {"algebra", "operation", "samples", "tolerances",
                       "verdict", "witnesses", "convergence_table", "seed"}
    assert rep["verdict"] == "fails" and rep["seed"] == 2
    json.dumps(rep)


@pytest.mark.parametrize("make", [m for _, m in J2_FAILS],
                         ids=[n for n, _ in J2_FAILS])
def test_violation_search_finds_clean_witness(make):
    alg = make()
    search = B.find_j2_violation(alg, seed=3)
    w = search.witness
    assert w is not None
    assert search.best_score <= 1e-8
    assert abs(np.linalg.norm(w.X) - 1.0) <= 1e-12
    assert abs(np.linalg.norm(w.Z) - 1.0) <= 1e-12
    assert abs(w.Z @ w.W) <= 1e-12
    assert w.bracket_norm <= 1e-10


def test_violation_search_reports_failure_on_holding_algebra():
    search = B.find_j2_violation(build_hprime(DA.H, 2, 0), seed=3, restarts=2)
    assert search.witness is None
    assert search.best_score > 0.1  # projection keeps essentially all of u


def test_violation_search_with_one_central_direction_evaluates_nothing():
    search = B.find_j2_violation(h1r(), seed=0)
    assert (search.witness, search.best_score, search.evaluations,
            search.restarts_used) == (None, math.inf, 0, 0)


@pytest.mark.parametrize("alg", [h1r(), build_hn(DA.H, 1), build_hprime(DA.O, 1, 0)],
                         ids=["h1R", "h1H", "hprime10O"])
def test_violation_search_refuses_a_negative_seed_before_any_work(alg, monkeypatch):
    # h1(H)'s sweep finds the witness and h1(R) evaluates nothing, so neither
    # draws; the seed is refused all the same, with numpy's message
    monkeypatch.setattr(B, "_model", lambda alg: pytest.fail("model built"))
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        B.find_j2_violation(alg, seed=-1)


def test_violation_search_optimizer_path():
    search = B.find_j2_violation(build_hn(DA.H, 1), seed=9, sweep=False)
    assert search.witness is not None
    assert search.restarts_used >= 1


@pytest.mark.parametrize("make,seed", [(lambda: build_hn(DA.H, 1), 2),
                                       (lambda: build_hn(DA.O, 1), 0),
                                       (lambda: build_hn(DA.O, 1), 2)],
                         ids=["h1H-seed2", "h1O-seed0", "h1O-seed2"])
def test_violation_search_optimizer_reaches_tol(make, seed):
    # inputs on which a quasi-Newton search of the squared score stalled
    # just above tol (best scores 1.3e-8 to 3.5e-8)
    alg = make()
    search = B.find_j2_violation(alg, seed=seed, tol=1e-8, sweep=False)
    assert search.witness is not None
    assert search.best_score <= 1e-8
    assert search.witness.bracket_norm <= 1e-10


# ---------------------------------------------------------------------------
# The stacked J^2 kernels against textbook per-vector loops


def _rational_orthogonal(n):
    """The Cayley transform (I + S)^-1 (I - S) of a rational skew S, dense
    but for its first row and column, by Fraction Gauss-Jordan on
    [I + S | I - S]: an orthogonal Q that fixes e_0 and mixes the rest."""
    S = [[Fraction(i - j, 1 + i + j) if i and j else Fraction(0) for j in range(n)]
         for i in range(n)]
    aug = [[(i == j) + S[i][j] for j in range(n)] + [(i == j) - S[i][j] for j in range(n)]
           for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if aug[r][c])
        aug[c], aug[p] = aug[p], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def h1h_dense():
    """h1(H) in the basis Q^T v of a rational orthogonal Q: type H, with
    dense J-maps Q^T J_k Q, so the kernels' products round.  As Q fixes
    e_0, the candidate X = e_0 is still a clean witness, so round-off
    decides its scores' bits."""
    base = build_hn(DA.H, 1)
    n, Q = base.dim_v, _rational_orthogonal(base.dim_v)
    c = {}
    for a, b, k, x in base.nonzeros:
        for i in range(n):
            for j in range(i + 1, n):
                c[i, j, k] = c.get((i, j, k), 0) + Q[a][i] * Q[b][j] * x
    return make_custom("h1(H) rotated", n, base.dim_z,
                       [(i, j, k, x) for (i, j, k), x in c.items() if x])


REFERENCE_ALGEBRAS = [
    ("h1C", lambda: build_hn(DA.C, 1)),
    ("h2C", lambda: build_hn(DA.C, 2)),
    ("h1H", lambda: build_hn(DA.H, 1)),
    ("hp11H", lambda: build_hprime(DA.H, 1, 1)),
    ("h1O", lambda: build_hn(DA.O, 1)),
    ("hp10O", lambda: build_hprime(DA.O, 1, 0)),
    ("hp20H", lambda: build_hprime(DA.H, 2, 0)),
    ("h1Hdense", h1h_dense),
]
# Random X fill three blocks and end inside the third.
REFERENCE_SAMPLES = 2 * B._BLOCK + 45


def test_rotated_algebra_is_type_h_with_dense_j_maps():
    alg = h1h_dense()
    assert is_type_h(alg).holds
    assert len(alg.nonzeros) == alg.dim_v * (alg.dim_v - 1) * alg.dim_z


def _bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def _reference_span(mod, X, include_x):
    """The projection onto span{J_z X} (+ R X) of one X, by its frame:
    on type-H data F = [J_k X] is orthogonal, each row of norm |X|, and
    orthogonal to X."""
    F = np.array([mod.jmats[k] @ X for k in range(mod.m)])

    def project(u):
        proj = F.T @ ((F @ u) / (X @ X))
        return proj + (X @ u) / (X @ X) * X if include_x else proj
    return project


def _reference_j2(alg, sample_count, seed):
    """(max residual, its first (X, k, l, perp), number of X), one X and
    one central basis pair k < l at a time."""
    mod = B._model(alg)
    xs = list(B._candidate_vectors(mod.n))
    rng = np.random.default_rng(seed)
    for _ in range(sample_count):
        v = rng.standard_normal(mod.n)
        xs.append(v / np.linalg.norm(v))
    worst, at = 0.0, None
    for X in xs:
        project = _reference_span(mod, X, include_x=False)
        for k in range(mod.m):
            for l in range(k + 1, mod.m):
                u = mod.jmats[k] @ (mod.jmats[l] @ X)
                perp = u - project(u)
                res = float(np.linalg.norm(perp)) / float(np.linalg.norm(X))
                if res > worst:
                    worst, at = res, (X, k, l, perp)
    return worst, at, len(xs)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("make", [m for _, m in REFERENCE_ALGEBRAS],
                         ids=[n for n, _ in REFERENCE_ALGEBRAS])
def test_j2_test_matches_per_vector_reference(make, seed):
    alg = make()
    mod = B._model(alg)
    res = B.j2_test(alg, sample_count=REFERENCE_SAMPLES, tol=1e-8, seed=seed)
    worst, at, count = _reference_j2(alg, REFERENCE_SAMPLES, seed)
    assert (res.max_residual, res.samples, res.holds) == (worst, count, worst <= 1e-8)
    if worst <= 1e-8:
        assert res.witness is None
        return
    X, k, l, perp = at
    w = res.witness
    assert [_bits(a) for a in (w.X, w.Z, w.W, w.perp)] == [
        _bits(a) for a in (X, np.eye(mod.m)[k], np.eye(mod.m)[l], perp)]
    assert (w.residual, w.bracket_norm) == (
        worst, float(np.linalg.norm(mod.bracket(X, perp))))


def _reference_score(mod, x, Z, W):
    u = np.tensordot(Z, mod.jmats, axes=(0, 0)) @ (np.tensordot(W, mod.jmats, axes=(0, 0)) @ x)
    proj = _reference_span(mod, x, include_x=True)(u)
    return float(np.linalg.norm(proj)) / float(np.linalg.norm(x)), proj, u - proj


def _assert_witness(mod, w, best):
    x, z, v, perp = best[1]
    assert [_bits(a) for a in (w.X, w.Z, w.W, w.perp)] == [
        _bits(a) for a in (x, z, v, perp)]
    assert (w.residual, w.bracket_norm) == (
        best[0], float(np.linalg.norm(mod.bracket(x, perp))))


@pytest.mark.parametrize("make", [m for _, m in REFERENCE_ALGEBRAS],
                         ids=[n for n, _ in REFERENCE_ALGEBRAS])
def test_violation_sweep_matches_per_vector_reference(make):
    alg = make()
    mod = B._model(alg)
    eye = np.eye(mod.m)
    best, evals = (math.inf, None), 0
    for X in B._candidate_vectors(mod.n):
        for k in range(mod.m):
            for l in range(k + 1, mod.m):
                score, _, perp = _reference_score(mod, X, eye[k], eye[l])
                evals += 1
                if score < best[0]:
                    best = (score, (X, eye[k], eye[l], perp))
    search = B.find_j2_violation(alg, seed=0, restarts=0)  # the sweep alone
    assert (search.best_score, search.evaluations) == (best[0], evals)
    assert (search.witness is None) == (best[0] > 1e-8)
    if search.witness is not None:
        _assert_witness(mod, search.witness, best)


@pytest.mark.parametrize("key,seed", [("h1C", 1), ("h1H", 2), ("h1O", 0), ("hp10O", 0)])
def test_gauss_newton_matches_per_probe_reference(key, seed):
    alg = dict(REFERENCE_ALGEBRAS)[key]()
    mod = B._model(alg)
    n, m, tol = mod.n, mod.m, 1e-8
    evals = 0

    def evaluate(theta):
        nonlocal evals
        evals += 1
        x, z, w = theta[:n], theta[n:n + m], theta[n + m:]
        nx, nz = np.linalg.norm(x), np.linalg.norm(z)
        if nx < 1e-8 or nz < 1e-8:
            return None
        x, z = x / nx, z / nz
        w = w - (w @ z) * z
        nw = np.linalg.norm(w)
        if nw < 1e-8:
            return None
        score, proj, perp = _reference_score(mod, x, z, w / nw)
        return score, proj, (x, z, w / nw, perp)

    best, used = (math.inf, None), 0
    rng = np.random.default_rng(seed)
    for _ in range(2):
        used += 1
        theta = rng.standard_normal(n + 2 * m)
        point = evaluate(theta)
        steps = 0
        while point is not None:
            if point[0] < best[0]:
                best = (point[0], point[2])
            if point[0] <= tol or steps == B.GN_ITERATIONS:
                break
            probes = [evaluate(theta + d) for d in B.GN_STEP * np.eye(theta.size)]
            if any(p is None for p in probes):
                break
            jac = np.column_stack([(p[1] - point[1]) / B.GN_STEP for p in probes])
            theta = theta + np.linalg.lstsq(jac, -point[1], rcond=None)[0]
            point = evaluate(theta)
            steps += 1
        if best[0] <= tol:
            break
    search = B.find_j2_violation(alg, seed=seed, tol=tol, restarts=2, sweep=False)
    assert (search.best_score, search.evaluations, search.restarts_used) == (
        best[0], evals, used)
    assert (search.witness is None) == (best[0] > tol)
    if search.witness is not None:
        _assert_witness(mod, search.witness, best)


def _lstsq_projection(jm, X, u, include_x):
    """u's projection onto span{J_z X} (+ R X) by least squares, as the
    benchmark's checks take it: an oracle that assumes no orthogonality."""
    span = np.column_stack([j @ X for j in jm] + ([X] if include_x else []))
    return span @ np.linalg.lstsq(span, u, rcond=None)[0]


@pytest.mark.parametrize("make", [m for _, m in REFERENCE_ALGEBRAS],
                         ids=[n for n, _ in REFERENCE_ALGEBRAS])
def test_j2_kernels_match_least_squares(make):
    alg = make()
    m = alg.dim_z
    jm = np.transpose(np.array([[[float(x) for x in cij] for cij in ci]
                                for ci in alg.structure]), (2, 1, 0))
    xs = list(B._candidate_vectors(alg.dim_v))
    rng = np.random.default_rng(0)
    for _ in range(40):
        v = rng.standard_normal(alg.dim_v)
        xs.append(v / np.linalg.norm(v))
    pairs = [(k, l) for k in range(m) for l in range(m) if k != l]
    worst = max((np.linalg.norm(u - _lstsq_projection(jm, X, u, False))
                 for X in xs for u in (jm[k] @ (jm[l] @ X) for k, l in pairs)), default=0.0)
    assert abs(B.j2_test(alg, sample_count=40, seed=0).max_residual - worst) <= 1e-12
    if m <= 1:
        return
    best = min(np.linalg.norm(_lstsq_projection(jm, X, jm[k] @ (jm[l] @ X), True))
               for X in B._candidate_vectors(alg.dim_v) for k, l in pairs if k < l)
    assert abs(B.find_j2_violation(alg, seed=0, restarts=0).best_score - best) <= 1e-12
    search = B.find_j2_violation(alg, seed=1, sweep=False)
    if search.witness is not None:
        w = search.witness
        u = np.tensordot(w.Z, jm, axes=(0, 0)) @ (np.tensordot(w.W, jm, axes=(0, 0)) @ w.X)
        assert abs(np.linalg.norm(_lstsq_projection(jm, w.X, u, True))
                   - search.best_score) <= 1e-12
    # The kernel itself on X of norm 3 and pairs not orthogonal, so the
    # X term and the |X|^2 scaling both count.
    mod = B._model(alg)
    X = 3 * np.array(xs[-8:])
    Z, W = rng.standard_normal((2, 8, m))
    for include_x in (False, True):
        u, proj = B._j2_stack(mod, X, mod.jz(Z)[:, None], include_x, JW=mod.jz(W)[:, None])
        for b in range(8):
            want = _lstsq_projection(jm, X[b], u[b, 0], include_x)
            assert np.linalg.norm(proj[b, 0] - want) <= 1e-12 * max(1.0, np.linalg.norm(want))


def test_j2_paths_run_no_qr(monkeypatch):
    # The frame J_k X is orthogonal on type-H data: nothing is orthonormalized.
    alg = build_hn(DA.O, 1)
    witness = B.find_j2_violation(h1c(), seed=3).witness
    qr, calls = np.linalg.qr, []
    monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: calls.append(1) or qr(*a, **k))
    B.j2_test(alg, sample_count=20, seed=0)
    B.find_j2_violation(alg, seed=0)
    B.find_j2_violation(alg, seed=0, sweep=False)
    B.limiting_plane_experiment(h1c(), witness, seed=3)
    assert calls == []


def _two_call_search(alg, seed, tol=1e-8, restarts=8):
    """The Gauss-Newton restarts of find_j2_violation(sweep=False), each step
    evaluating its point by one stacked call and then its probes by another:
    (best, evaluations, restarts used)."""
    mod = B._model(alg)
    n, m = mod.n, mod.m
    evals = 0

    def evaluate(theta):
        nonlocal evals
        evals += len(theta)
        x, z, w = theta[:, :n], theta[:, n:n + m], theta[:, n + m:]
        nx, nz = B._norms(x), B._norms(z)
        if np.any(nx < 1e-8) or np.any(nz < 1e-8):
            return None
        x, z = x / nx[:, None], z / nz[:, None]
        w = w - np.matmul(w[:, None, :], z[:, :, None])[:, 0] * z
        nw = B._norms(w)
        if np.any(nw < 1e-8):
            return None
        w = w / nw[:, None]
        u, proj = B._j2_stack(mod, x, mod.jz(z)[:, None], include_x=True,
                              JW=mod.jz(w)[:, None])
        u, proj = u[:, 0], proj[:, 0]
        return B._norms(proj) / B._norms(x), proj, (x, z, w, u - proj)

    best, used = (math.inf, None), 0
    rng = np.random.default_rng(seed)
    for _ in range(restarts):
        used += 1
        theta = rng.standard_normal(n + 2 * m)
        point = evaluate(theta[None])
        steps = 0
        while point is not None:
            score, proj = point[0][0], point[1][0]
            if score < best[0]:
                best = (float(score), tuple(a[0] for a in point[2]))
            if score <= tol or steps == B.GN_ITERATIONS:
                break
            probes = evaluate(theta + B.GN_STEP * np.eye(theta.size))
            if probes is None:
                break
            jac = ((probes[1] - proj) / B.GN_STEP).T
            theta = theta + np.linalg.lstsq(jac, -proj, rcond=None)[0]
            point = evaluate(theta[None])
            steps += 1
        if best[0] <= tol:
            break
    return best, evals, used


def _assert_search_is(mod, search, best, evals, used, tol=1e-8):
    assert (search.best_score, search.evaluations, search.restarts_used) == (
        best[0], evals, used)
    assert (search.witness is None) == (best[0] > tol)
    if search.witness is not None:
        _assert_witness(mod, search.witness, best)


GAUSS_NEWTON_ALGEBRAS = [
    ("hp10O", lambda: build_hprime(DA.O, 1, 0)),  # J^2 holds: 8 restarts x 50 steps
    ("hp20H", lambda: build_hprime(DA.H, 2, 0)),
    ("h1C", lambda: build_hn(DA.C, 1)),
    ("hp11H", lambda: build_hprime(DA.H, 1, 1)),
    ("h1O", lambda: build_hn(DA.O, 1)),
]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("make", [m for _, m in GAUSS_NEWTON_ALGEBRAS],
                         ids=[n for n, _ in GAUSS_NEWTON_ALGEBRAS])
def test_gauss_newton_joint_stack_matches_two_calls(make, seed):
    alg = make()
    search = B.find_j2_violation(alg, seed=seed, sweep=False)
    _assert_search_is(B._model(alg), search, *_two_call_search(alg, seed))


def _off_in_stacks(monkeypatch, rows):
    """Patch _norms to read the given rows of every multi-row stack as zero,
    so they are off the domain; returns the list of stack sizes it saw."""
    norms, seen = B._norms, []

    def off(v):
        out = norms(v)
        if v.ndim == 2 and len(v) > 1:
            seen.append(len(v))
            out[rows] = 0.0
        return out

    monkeypatch.setattr(B, "_norms", off)
    return seen


def test_gauss_newton_ends_a_restart_when_a_probe_is_off_the_domain(monkeypatch):
    # Every row but the first of a stack reads as off the domain: a step's
    # point is on it and its probes are not. The probes are counted, never
    # evaluated apart, and the restart ends where evaluating them apart ends it.
    alg = build_hprime(DA.H, 1, 1)
    mod = B._model(alg)
    joint = mod.n + 2 * mod.m + 1
    seen = _off_in_stacks(monkeypatch, slice(1, None))
    want = _two_call_search(alg, 0)
    assert set(seen) == {joint - 1}
    seen.clear()
    search = B.find_j2_violation(alg, seed=0, sweep=False)
    assert set(seen) == {joint}
    assert search.evaluations == 8 * joint
    _assert_search_is(mod, search, *want)


def test_gauss_newton_ends_a_restart_when_its_point_is_off_the_domain(monkeypatch):
    # The point of every stack reads as off the domain and its probes as on
    # it: each restart counts the point alone and records nothing.
    alg = build_hprime(DA.H, 1, 1)
    mod = B._model(alg)
    seen = _off_in_stacks(monkeypatch, 0)
    search = B.find_j2_violation(alg, seed=0, sweep=False)
    assert set(seen) == {mod.n + 2 * mod.m + 1}
    assert (search.evaluations, search.restarts_used) == (8, 8)
    assert search.best_score == math.inf and search.witness is None


def test_cayley_probe_memory_is_bounded_by_blocks():
    # Unblocked, the h1(O) stack of J_Z for 10**4 points takes 20 MB. Blocks
    # of _PROBE_BLOCK points, each drawing its own, keep it at 512 KB; the
    # 4.8 M normals of 2 * 10**5 points would take 37 MB if drawn up front.
    alg = build_hn(DA.O, 1)
    B.boundary_identity_error(alg, samples=1, seed=0)  # build the model outside the trace
    for probe, samples, megabytes in ((B.boundary_identity_error, 10**4, 6),
                                      (B.boundary_identity_error, 2 * 10**5, 2),
                                      (B.round_trip_error, 10**3, 2)):
        tracemalloc.start()
        try:
            probe(alg, samples=samples, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < megabytes * 2**20, probe.__name__


def test_j2_test_memory_is_bounded_by_blocks():
    # Unblocked, the h1(O) stack of 10**4 X x 56 pairs x 16 floats takes
    # about 82 MB per array. Blocks of _BLOCK X keep the peak near 3 MB;
    # 8 MB leaves room for allocator noise and stays a tenth of that.
    alg = build_hn(DA.O, 1)
    B.j2_test(alg, sample_count=1, seed=0)  # build the model outside the trace
    tracemalloc.start()
    try:
        B.j2_test(alg, sample_count=10_000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


# ---------------------------------------------------------------------------
# Limiting planes and the extension verdict


def test_limiting_planes_converge_and_are_orthogonal():
    alg = h1c()
    witness = B.find_j2_violation(alg, seed=3).witness
    rep = B.limiting_plane_experiment(alg, witness, seed=3)
    assert rep.orthogonality <= 1e-6
    assert rep.verdict == "planes_collapse_to_orthogonal_limits"
    dists_i = [row.part_i for row in rep.rows]
    assert dists_i == sorted(dists_i, reverse=True)  # monotone approach
    final = rep.rows[-1]
    assert final.radius == 10000.0
    assert final.part_i <= 1e-3 and final.part_ii <= 1e-3
    assert final.part_iii <= 1e-6  # exact degeneration on the curve
    out = rep.to_report()
    assert [row["radius"] for row in out["convergence_table"]] == [
        10.0, 100.0, 1000.0, 10000.0]
    json.dumps(out)


@pytest.mark.parametrize("make", [m for _, m in J2_FAILS],
                         ids=[n for n, _ in J2_FAILS])
def test_limiting_planes_all_failing_algebras(make):
    alg = make()
    witness = B.find_j2_violation(alg, seed=3).witness
    rep = B.limiting_plane_experiment(alg, witness, seed=3)
    assert rep.rows[-1].grassmann_distance <= 1e-3
    assert rep.orthogonality <= 1e-6


def test_limiting_planes_reject_non_violating_witness():
    alg = build_hprime(DA.H, 2, 0)
    fake = B.J2Witness(np.eye(8)[0], np.eye(3)[0], np.eye(3)[1],
                       0.0, np.zeros(8), 0.0)
    with pytest.raises(StructureError):
        B.limiting_plane_experiment(alg, fake)
    # A zero or non-finite X, Z or W once ended in an SVD that did not converge.
    alg = h1c()
    good = B.find_j2_violation(alg, seed=3).witness
    for field, value in (("X", np.zeros(4)), ("Z", np.zeros(2)), ("X", np.full(4, np.nan)),
                         ("Z", np.array([np.inf, 0.0])), ("W", np.array([0.0, np.nan]))):
        bad = B.J2Witness(**{"X": good.X, "Z": good.Z, "W": good.W, field: value},
                          residual=0.0, perp=np.zeros(4), bracket_norm=0.0)
        with pytest.raises(StructureError, match="must be finite, and X and Z nonzero"):
            B.limiting_plane_experiment(alg, bad)
    # A vector whose norm overflows would normalize to zero: an X to a NaN
    # score, a Z to a witness that passed the violation check (verdict
    # inconclusive), a W to limit rows that span nothing (ValueError).
    for field in ("X", "Z", "W"):
        huge = B.J2Witness(**{"X": good.X, "Z": good.Z, "W": good.W,
                              field: 1e300 * getattr(good, field)},
                           residual=0.0, perp=np.zeros(4), bracket_norm=0.0)
        with np.errstate(over="ignore"), \
                pytest.raises(StructureError, match="must be finite, and X and Z nonzero"):
            B.limiting_plane_experiment(alg, huge)


def test_limiting_planes_refuse_an_overflowing_witness_without_a_warning():
    # The overflowed norm is inf, which is refused; the overflow once warned
    # first, and under warnings as errors the RuntimeWarning replaced the
    # refusal. No errstate here.
    alg = h1c()
    good = B.find_j2_violation(alg, seed=3).witness
    for field in ("X", "Z", "W"):
        huge = B.J2Witness(**{"X": good.X, "Z": good.Z, "W": good.W,
                              field: 1e300 * getattr(good, field)},
                           residual=0.0, perp=np.zeros(4), bracket_norm=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StructureError, match="must be finite, and X and Z nonzero"):
                B.limiting_plane_experiment(alg, huge)


def test_limiting_planes_refuse_w_parallel_to_z():
    alg = h1c()
    good = B.find_j2_violation(alg, seed=3).witness
    bad = B.J2Witness(good.X, good.Z, 2 * good.Z, residual=0.0, perp=np.zeros(4),
                      bracket_norm=0.0)
    with pytest.raises(StructureError, match="witness W is parallel to Z"):
        B.limiting_plane_experiment(alg, bad)


def test_each_plane_is_orthonormalized_once(monkeypatch):
    # Three limit planes and two pushed planes per radius; the sphere plane
    # and its finite-difference push for the translation check.
    alg = h1c()
    witness = B.find_j2_violation(alg, seed=3).witness
    svd, calls = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    B.limiting_plane_experiment(alg, witness, seed=3)
    assert len(calls) == 3 + 2 * 4
    calls.clear()
    B.translation_invariance_check(alg, np.ones(4), np.ones(2))
    assert len(calls) == 2


def test_limiting_planes_reject_tiny_radii():
    alg = h1c()
    witness = B.find_j2_violation(alg, seed=3).witness
    # a witness that fails its own check shows the radii are refused first
    fake = B.J2Witness(np.eye(4)[0], np.eye(2)[0], np.eye(2)[0], 0.0, np.zeros(4), 0.0)
    for radii in [(1.5,), (), (math.nan,), (10.0, 1.5), (10.0, math.inf), (2.0,),
                  (2e5,), (10.0, 1e10), (1e78,)]:
        for w in (witness, fake):
            with pytest.raises(ValueError, match="radii must be"):
                B.limiting_plane_experiment(alg, w, radii=radii)
        with pytest.raises(ValueError, match="radii must be"):  # J^2 holds: no planes would run
            B.extension_verdict(h1r(), seed=0, radii=radii)


def test_limiting_planes_resolve_the_largest_radius():
    # The pushed planes have singular values 2 sqrt(2) / r^2, above the
    # 1e-10 orthonormalization cut up to about 1.7e5; past MAX_RADIUS the
    # radii are refused (test_limiting_planes_reject_tiny_radii).
    alg = h1c()
    witness = B.find_j2_violation(alg, seed=3).witness
    rep = B.limiting_plane_experiment(alg, witness, radii=(B.MAX_RADIUS,), seed=3)
    assert rep.rows[-1].grassmann_distance <= 1e-4


def test_extension_verdict_partition():
    for _, make in J2_HOLDS:
        v = B.extension_verdict(make(), seed=4)
        assert v.verdict == "extends"
        assert v.experiment is None
    for _, make in J2_FAILS:
        v = B.extension_verdict(make(), seed=4)
        assert v.verdict == "does_not_extend"
        assert v.search is not None and v.search.witness is not None
        assert v.experiment is not None
        assert v.experiment.rows[-1].grassmann_distance <= 1e-3
        json.dumps(v.to_report())


def test_boundary_experiments_run_on_numpy_alone():
    src = str(Path(htype.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from htype import boundary as B\n"
        "from htype.division import DivisionAlgebra as DA\n"
        "from htype.nilpotent import build_hn\n"
        "alg = build_hn(DA.C, 1)\n"
        "assert B.extension_verdict(alg, seed=0).experiment is not None\n"
        "w = B.find_j2_violation(alg, seed=0, sweep=False).witness\n"
        "B.limiting_plane_experiment(alg, w, seed=0)\n"
        "B.translation_invariance_check(alg, np.ones(4), np.ones(2))\n"
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy'}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
