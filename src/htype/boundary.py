"""Cayley transform, sphere distributions, and the J^2 extension experiments.

Float-valued companion to the exact constructors.  Maps the Siegel-domain
model U = {t > |X|^2/4} onto the unit ball, pushes the contact planes of
the boundary forward to the sphere, and decides whether those sphere
planes extend across the puncture left by the point at infinity.

One formula maps forward and one, closed-form on type-H data, inverts, each
on one point or a stack.  One closed-form derivative of the map, along a
stack of directions, serves the sphere planes and the limiting planes.  The
only finite difference, along the translation curves, checks their pushes.

Every entry that takes a point (X, Z) reads it through one shape check,
`_point`.  Points and candidates are evaluated in stacks, each row
bit-identical to evaluating it alone: stacked matmul makes one BLAS call per
vector or matrix.  The J^2 kernels project onto span{J_z X} with the frame
J_k X itself and orthonormalize nothing: on type-H data, the only data the
model accepts, J_a J_b + J_b J_a = -2 delta_ab I makes the J_k X orthogonal,
each of norm |X|, and orthogonal to X.  The Cayley probes draw and map
_PROBE_BLOCK points per stack, the J^2 kernels take _BLOCK vectors X, and
each Gauss-Newton step makes one evaluation: its point with its n + 2m
forward-difference probes as one stack (the last step, the point alone),
each row marked on or off the domain.  One evaluator, `_violation_rows`,
normalizes and scores every witness: the search's stacks, and the witness
the limiting-plane experiment checks as a one-row stack.  Stack sizes bound
memory; only the Cayley probes' points depend on theirs, as each block of
`_probe_blocks` draws its X, then its Z, then its heights.  Every plane
basis is orthonormalized once.

Every experiment reports in one shape, built by `_report` with the
tolerance constants below.

Witness convention: a J^2 violation is recorded as a triple (X, Z, W)
with X a unit horizontal vector and Z, W orthonormal central vectors,
such that J_Z J_W X is (numerically) orthogonal to J_z X + R X.  The
achieved norm of [X, J_Z J_W X - proj] is stored on the witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    CrossValidationError,
    DomainError,
    StructureError,
)
from .nilpotent import GradedNilpotent, _kept, is_type_h

__all__ = [
    "SiegelPoint",
    "BallPoint",
    "TangentPlane",
    "J2Witness",
    "J2Result",
    "ViolationSearch",
    "PlaneConvergenceRow",
    "LimitingPlaneReport",
    "ExtensionVerdict",
    "MAX_PROBE_DRAWS",
    "siegel_point",
    "cayley",
    "cayley_inverse",
    "boundary_distribution",
    "sphere_distribution",
    "j2_test",
    "find_j2_violation",
    "limiting_plane_experiment",
    "extension_verdict",
    "puncture_point",
    "group_product",
    "translation_invariance_check",
    "cayley_probe",
    "distribution_experiment",
    "grassmann_distance",
    "boundary_identity_error",
    "round_trip_error",
]

# Tolerance ladder: exact identities / round trips / plane comparisons.
IDENTITY_TOL = 1e-12
ROUND_TRIP_TOL = 1e-8
PLANE_TOL = 1e-6
FINAL_DISTANCE_TOL = 1e-3  # limiting-plane distance at the largest radius
MAX_RADIUS = 1e5  # limiting planes: see _check_radii
INVERSE_TOL = 1e-10  # residual certificate of the closed-form inverse
ORTHONORMAL_TOL = 1e-10  # singular-value cut and Gram check of _orthonormal_rows
BALL_MARGIN = 1e-9
SIEGEL_TOL = 1e-9  # height excess tolerated below the boundary, relative to |X|^2
FD_STEP = 1e-4  # Richardson pair uses FD_STEP and FD_STEP / 2
GN_STEP = 1e-7  # forward-difference step of the Gauss-Newton Jacobian
GN_ITERATIONS = 50  # Gauss-Newton steps per restart of the witness search
_BLOCK = 64  # X vectors per stacked J^2 evaluation: bounds memory, not results
_PROBE_BLOCK = 256  # points per stacked Cayley probe: a 512 KB J_Z stack on h1(O)
# The most normals a Cayley probe draws, samples * (dim v + dim z), refused
# before the first by _probe_blocks: it bounds work, not memory (each block
# draws its own), at over 40x its largest caller, 10**4 samples on h1(O)
# (dim v + dim z = 24) in the benchmark.
MAX_PROBE_DRAWS = 10**7


class _FloatModel:
    """Float structure constants and J-matrices for one type-H algebra."""

    def __init__(self, alg: GradedNilpotent):
        cert = is_type_h(alg)
        if not cert.holds or cert.degenerate:
            raise StructureError(
                f"{alg.name}: boundary maps are defined for type-H algebras only"
            )
        self.n = alg.dim_v
        self.m = alg.dim_z
        self.c = np.zeros((self.n, self.n, self.m))
        for i, j, k, x in alg.nonzeros:
            self.c[i, j, k] = x
        # (J_Z)_{ab} = sum_k Z_k c[b][a][k]
        self.jmats = np.ascontiguousarray(np.transpose(self.c, (2, 1, 0)))
        # The central basis pairs k < l of j2_test and the violation sweep:
        # J_l J_k X = -J_k J_l X, so the pairs k > l add nothing.
        self.pairs = np.triu_indices(self.m, 1)

    def jz(self, Z: np.ndarray) -> np.ndarray:
        """J_Z for one Z or a stack of them, one BLAS product per Z."""
        flat = np.matmul(Z[..., None, :], self.jmats.reshape(self.m, self.n * self.n))
        return flat.reshape(Z.shape[:-1] + (self.n, self.n))

    def bracket(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.einsum("ijk,i,j->k", self.c, x, y)


def _model(alg: GradedNilpotent) -> _FloatModel:
    """The float model of alg, made once and kept on it (`nilpotent._kept`)."""
    return _kept(alg, "_model", _FloatModel)


@dataclass(frozen=True, eq=False)
class SiegelPoint:
    """Point (X, Z, t) of the closed domain t >= |X|^2 / 4."""

    X: np.ndarray
    Z: np.ndarray
    t: float

    def ambient(self) -> np.ndarray:
        return np.concatenate([self.X, self.Z, [self.t]])


@dataclass(frozen=True, eq=False)
class BallPoint:
    vector: np.ndarray

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.vector))


@dataclass(frozen=True, eq=False)
class TangentPlane:
    """Orthonormal basis (rows) of a plane at a base point."""

    base: np.ndarray
    basis: np.ndarray

    @property
    def dimension(self) -> int:
        return self.basis.shape[0]


def _point(mod: _FloatModel, X, Z) -> tuple[np.ndarray, np.ndarray]:
    """X and Z as float arrays, StructureError unless their shapes are (n,) and (m,)."""
    Xa, Za = np.asarray(X, dtype=float), np.asarray(Z, dtype=float)
    if Xa.shape != (mod.n,) or Za.shape != (mod.m,):
        raise StructureError(f"point dimensions {Xa.shape}/{Za.shape} do not match "
                             f"({mod.n},)/({mod.m},)")
    return Xa, Za


def siegel_point(alg: GradedNilpotent, X, Z, t: float | None = None) -> SiegelPoint:
    """Validated point; t = |X|^2 / 4 (boundary) when omitted."""
    Xa, Za = _point(_model(alg), X, Z)
    if t is None:
        t = 0.25 * float(Xa @ Xa)
    p = SiegelPoint(Xa, Za, float(t))
    if not np.isfinite(p.ambient()).all():
        raise DomainError("Siegel point is not finite")
    return p


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis, each bitwise the a @ b of one pair."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis, each bitwise np.linalg.norm of one."""
    return np.sqrt(_dots(v, v))


def _matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x over stacks of A or x, each bitwise the A @ x of one pair."""
    return np.matmul(A, x[..., None])[..., 0]


def _cayley_parts(mod: _FloatModel, X, Z, t) -> tuple[np.ndarray, np.ndarray]:
    """N and D of the Cayley map C = N / D at one point or a stack; np.float_power
    is the C pow of a float's ** (an array's ** squares), so rows match points bitwise."""
    t = np.asarray(t)
    zz = _dots(Z, Z)
    with np.errstate(over="raise"):  # an overflow raises, as a float's ** does
        D = np.float_power(1.0 + t, 2) + zz
    N = np.concatenate([(1.0 + t)[..., None] * X - _matvec(mod.jz(Z), X), 2.0 * Z,
                        (t * t + zz - 1.0)[..., None]], axis=-1)
    return N, D


def _cayley_arrays(mod: _FloatModel, X, Z, t) -> np.ndarray:
    N, D = _cayley_parts(mod, X, Z, t)
    return N / D[..., None]


def _check_siegel(X, Z, t, tol: float) -> None:
    """DomainError unless each point (X, Z, t) is finite and in the closed domain."""
    if not (np.isfinite(X).all() and np.isfinite(Z).all() and np.isfinite(t).all()):
        raise DomainError("Siegel point is not finite")
    xx = _dots(X, X)
    excess = t - 0.25 * xx
    if (outside := excess < -tol * np.maximum(1.0, xx)).any():
        raise DomainError(f"point with height excess {np.extract(outside, excess)[0]:.3e} "
                          "lies outside the closed Siegel domain")


def cayley(alg: GradedNilpotent, p: SiegelPoint, tol: float = SIEGEL_TOL) -> BallPoint:
    """Ball model of p; requires p in the closure of the domain."""
    _check_siegel(p.X, p.Z, p.t, tol)
    return BallPoint(_cayley_arrays(_model(alg), p.X, p.Z, p.t))


def _dcayley(mod: _FloatModel, X, Z, t, dirs: np.ndarray) -> np.ndarray:
    """Derivatives of the Cayley map at (X, Z, t) along each row (Y, W, s) of
    dirs.  Every product is the one a single direction would take (Z . W as
    the dot product Z @ W, J_W X and J_Z Y as matrix-vector products), so
    each row is bit-identical to differentiating along it alone."""
    Y, W, s = dirs[:, :mod.n], dirs[:, mod.n:-1], dirs[:, -1]
    N, D = _cayley_parts(mod, X, Z, t)
    zw = _dots(W, Z)
    dD = 2.0 * (1.0 + t) * s + 2.0 * zw
    head = s[:, None] * X + (1.0 + t) * Y - _matvec(mod.jz(W), X) - _matvec(mod.jz(Z), Y)
    dN = np.concatenate([head, 2.0 * W, (2.0 * t * s + 2.0 * zw)[:, None]], axis=1)
    return (dN - (dD / D)[:, None] * N) / D


def _contact_rows(mod: _FloatModel, X, Ys: np.ndarray) -> np.ndarray:
    """Rows (Y, [X,Y]/2, <X,Y>/2): each horizontal Y of the stack Ys carried
    to the boundary point over X by the group translation, t = |X|^2/4."""
    brackets = np.einsum("ijk,i,bj->bk", mod.c, X, Ys)
    return np.concatenate([Ys, 0.5 * brackets, 0.5 * _dots(Ys, X)[:, None]], axis=1)


def _fd_push(mod: _FloatModel, X, Z, rows: np.ndarray) -> np.ndarray:
    """Boundary Cayley map differentiated along the curves h -> (X + hY, Z + hW,
    |X + hY|^2/4) of the rows (Y, W, .), all at once, by central differences
    at FD_STEP and FD_STEP / 2 with Richardson extrapolation."""
    Y, W = rows[:, :mod.n], rows[:, mod.n:-1]

    def curve(h):
        Xh = X + h * Y
        return _cayley_arrays(mod, Xh, Z + h * W, 0.25 * _dots(Xh, Xh))

    h = FD_STEP
    a1 = (curve(h) - curve(-h)) / (2.0 * h)
    a2 = (curve(h / 2) - curve(-h / 2)) / h
    return (4.0 * a2 - a1) / 3.0


def _orthonormal_rows(rows: np.ndarray) -> np.ndarray:
    u, s, vh = np.linalg.svd(np.atleast_2d(rows), full_matrices=False)
    cut = ORTHONORMAL_TOL * max(1.0, s[0] if s.size else 0.0)
    keep = s > cut
    if not keep.any():
        raise ValueError(f"the rows span nothing: no singular value exceeds {cut:g}")
    basis = vh[keep]
    err = float(np.max(np.abs(basis @ basis.T - np.eye(basis.shape[0]))))
    if err > ORTHONORMAL_TOL:
        raise CrossValidationError("orthonormalization", err, ORTHONORMAL_TOL)
    return basis


def grassmann_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Chordal distance between the row spans of a and b.

    The residual of the smaller span projected onto the larger one has the
    sines of the principal angles as its singular values (Bjorck and Golub
    1973), so its Frobenius norm is the distance, accurate at small angles.
    """
    return _distance(_orthonormal_rows(a), _orthonormal_rows(b))


def _distance(qa: np.ndarray, qb: np.ndarray) -> float:
    """grassmann_distance of two orthonormal bases, as they come out of
    `_orthonormal_rows`."""
    if qa.shape[0] < qb.shape[0]:
        qa, qb = qb, qa
    return float(np.linalg.norm(qb - (qb @ qa.T) @ qa))


def _inverse(mod: _FloatModel, vec, tol: float):
    """Points (X, Z, t) that the map takes to vec, one or a stack, in closed
    form as J_Z^2 = -|Z|^2 I inverts (1 + t) - J_Z on v (Cowling, Dooley,
    Koranyi and Ricci 1991); DomainError unless each vec is finite and strictly
    inside, ConvergenceError(residual, tol, 0) unless each maps back within tol."""
    # Written so that a NaN or infinite coordinate fails the test too.
    if not (_norms(vec) < 1.0 - BALL_MARGIN).all():
        raise DomainError("ball point is not finite and strictly inside the unit sphere")
    V, W, s = vec[..., :mod.n], vec[..., mod.n:-1], vec[..., -1]
    D = (4.0 / (np.float_power(1.0 - s, 2) + _dots(W, W)))[..., None]
    t = D[..., 0] * (1.0 - s) / 2.0 - 1.0
    Z = D * W / 2.0
    denom = np.float_power(1.0 + t, 2) + _dots(Z, Z)
    X = ((1.0 + t)[..., None] * (D * V) + _matvec(mod.jz(Z), D * V)) / denom[..., None]
    rnorm = _norms(_cayley_arrays(mod, X, Z, t) - vec)
    if (miss := ~(rnorm <= tol)).any():  # a NaN residual is a miss too
        raise ConvergenceError(float(np.extract(miss, rnorm)[0]), tol, 0)
    return np.concatenate([X, Z, t[..., None]], axis=-1)


def cayley_inverse(alg: GradedNilpotent, b, tol: float = INVERSE_TOL) -> SiegelPoint:
    """Inverse Cayley map for interior ball points (norm < 1 - 1e-9), in
    closed form; raises DomainError for a point that is not finite or not
    inside, and ConvergenceError if it maps back further than tol from b."""
    mod = _model(alg)
    vec = b.vector if isinstance(b, BallPoint) else np.asarray(b, dtype=float)
    if vec.shape != (dim := mod.n + mod.m + 1,):
        raise StructureError(f"ball point has shape {vec.shape}, expected ({dim},)")
    p = _inverse(mod, vec, tol)
    return SiegelPoint(p[:mod.n], p[mod.n:-1], float(p[-1]))


def boundary_distribution(alg: GradedNilpotent, X, Z) -> TangentPlane:
    """Contact plane {(Y, [X,Y]/2, <X,Y>/2)} at a boundary point, orthonormal."""
    mod = _model(alg)
    Xa, Za = _point(mod, X, Z)
    basis = _orthonormal_rows(_contact_rows(mod, Xa, np.eye(mod.n)))
    # Membership in T(boundary) = {(2Y, W, <X,Y>)}: last = <X, head>/2.
    scale = max(1.0, float(Xa @ Xa))
    for u in basis:
        err = abs(u[-1] - 0.5 * float(Xa @ u[:mod.n]))
        if err > IDENTITY_TOL * scale:
            raise CrossValidationError("boundary tangency", err, IDENTITY_TOL * scale)
    base = np.concatenate([Xa, Za, [0.25 * float(Xa @ Xa)]])
    return TangentPlane(base, basis)


def _sphere_plane(mod: _FloatModel, X, Z) -> tuple[TangentPlane, np.ndarray]:
    """Sphere plane at the boundary point over (X, Z), with the
    finite-difference push of its contact rows that checked it."""
    t = 0.25 * float(X @ X)
    rows = _contact_rows(mod, X, np.eye(mod.n))
    pushed = _dcayley(mod, X, Z, t, rows)
    fd = _fd_push(mod, X, Z, rows)
    rel = _norms(pushed - fd) / np.maximum(1.0, _norms(pushed))
    worst = float(np.max(rel))
    if not worst <= PLANE_TOL:
        raise CrossValidationError("sphere push against finite differences",
                                   worst, PLANE_TOL)

    basis = _orthonormal_rows(pushed)
    base = _cayley_arrays(mod, X, Z, t)
    for u in basis:
        tangency = abs(float(u @ base))
        if tangency > ROUND_TRIP_TOL:
            raise CrossValidationError("sphere tangency", tangency, ROUND_TRIP_TOL)
    return TangentPlane(base, basis), fd


def sphere_distribution(alg: GradedNilpotent, X, Z) -> TangentPlane:
    """Contact plane pushed to the sphere by the closed-form derivative of
    the Cayley map; every pushed direction is checked against a finite
    difference along its translation curve."""
    mod = _model(alg)
    return _sphere_plane(mod, *_point(mod, X, Z))[0]


# ---------------------------------------------------------------------------
# J^2 condition


@dataclass(frozen=True, eq=False)
class J2Witness:
    X: np.ndarray
    Z: np.ndarray
    W: np.ndarray
    residual: float
    perp: np.ndarray
    bracket_norm: float

    def to_dict(self) -> dict:
        return {
            "X": self.X.tolist(),
            "Z": self.Z.tolist(),
            "W": self.W.tolist(),
            "residual": self.residual,
            "bracket_norm": self.bracket_norm,
        }


def _report(algebra: str, operation: str, samples: int, tolerances: dict, verdict: str,
            seed: int | None, witness: J2Witness | None = None, rows=(), **extra) -> dict:
    """The report of every boundary experiment: eight common keys, then its own."""
    return {
        "algebra": algebra,
        "operation": operation,
        "samples": samples,
        "tolerances": tolerances,
        "verdict": verdict,
        "witnesses": [witness.to_dict()] if witness else [],
        "convergence_table": [r.to_dict() for r in rows],
        "seed": seed,
        **extra,
    }


@dataclass(frozen=True, eq=False)
class J2Result:
    algebra: str
    holds: bool
    vacuous: bool
    max_residual: float
    samples: int
    tol: float
    seed: int | None
    witness: J2Witness | None

    def to_report(self) -> dict:
        return _report(self.algebra, "j2_test", self.samples, {"residual": self.tol},
                       "holds" if self.holds else "fails", self.seed, self.witness)


def _candidate_vectors(n: int) -> np.ndarray:
    """e_i, then (e_i + e_j)/sqrt 2 and (e_i - e_j)/sqrt 2 for each i < j."""
    eye = np.eye(n)
    i, j = np.triu_indices(n, 1)
    r = 1.0 / math.sqrt(2.0)
    pairs = np.stack([r * (eye[i] + eye[j]), r * (eye[i] - eye[j])], axis=1)
    return np.concatenate([eye, pairs.reshape(-1, n)])


def _x_blocks(n: int, sample_count: int, rng):
    """The n^2 structured candidates, then sample_count random unit vectors
    (one draw per block, the same stream as one per vector), _BLOCK rows at most."""
    cand = _candidate_vectors(n)
    for start in range(0, len(cand), _BLOCK):
        yield cand[start:start + _BLOCK]
    for start in range(0, sample_count, _BLOCK):
        v = rng.standard_normal((min(_BLOCK, sample_count - start), n))
        yield v / _norms(v)[:, None]


def _j2_stack(mod: _FloatModel, X: np.ndarray, JZ: np.ndarray, include_x: bool,
              JW: np.ndarray | None = None,
              ls: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """u = J_Z J_W X and its projection onto span{J_z X} (+ R X), each (b, p, n),
    for X (b, n) and pairs JZ, JW (p, n, n) applied to every X, or (b, 1, n, n).
    For central basis pairs, pass the indices ls of W instead of JW: each J_W X
    is then read off the frame's rows J_k X, which are the same products.
    On type-H data the frame F = [J_k X] is orthogonal, each row of norm |X|
    and orthogonal to X, so the projection is F^T ((F u) / |X|^2), plus
    (X . u) / |X|^2 X for R X.  Stacked matmul makes one BLAS call per vector,
    so every entry is bit-identical to evaluating its X and pair alone."""
    col = X[:, None, :, None]
    frame = np.matmul(mod.jmats, col)[..., 0]  # J_k X, (b, m, n)
    u = np.matmul(JZ, frame[:, ls, :, None] if JW is None else np.matmul(JW, col))
    xx = _dots(X, X)[:, None, None, None]
    proj = np.matmul(frame.swapaxes(1, 2)[:, None], np.matmul(frame[:, None], u) / xx)
    if include_x:
        proj = proj + np.matmul(X[:, None, None, :], u) / xx * col
    return u[..., 0], proj[..., 0]


def j2_test(alg: GradedNilpotent, sample_count: int = 200, tol: float = 1e-8,
            seed: int | None = None) -> J2Result:
    """Does J_Z J_W X stay inside span{J_Z' X} for all orthonormal Z ⊥ W?

    Vacuous (holds) when dim z <= 1.  Checks the central basis pairs k < l
    (J_l J_k X = -J_k J_l X) on a structured sweep of X plus sample_count
    random draws; by bilinearity in (Z, W) the basis pairs decide each X
    exactly.  The X are evaluated as stacks, in blocks of fixed size,
    bit-identical to one at a time.
    """
    mod = _model(alg)
    if mod.m <= 1:
        return J2Result(alg.name, True, True, 0.0, 0, tol, seed, None)
    if sample_count > 0 and seed is None:
        raise ValueError("seed is required when sample_count > 0")

    ks, ls = mod.pairs
    JZ = mod.jmats[ks]
    eye_m = np.eye(mod.m)
    worst = 0.0
    witness = None
    for X in _x_blocks(mod.n, sample_count, np.random.default_rng(seed)):
        u, proj = _j2_stack(mod, X, JZ, include_x=False, ls=ls)
        perp = u - proj
        res = _norms(perp) / _norms(X)[:, None]
        # First maximum in (X, k < l) order, as a strict running maximum keeps.
        i, p = np.unravel_index(np.argmax(res), res.shape)
        if res[i, p] > worst:
            worst = float(res[i, p])
            if worst > tol:
                x, v = X[i].copy(), perp[i, p].copy()
                witness = J2Witness(x, eye_m[ks[p]].copy(), eye_m[ls[p]].copy(), worst,
                                    v, float(np.linalg.norm(mod.bracket(x, v))))
    return J2Result(alg.name, worst <= tol, False, worst,
                    mod.n ** 2 + max(sample_count, 0), tol, seed, witness)


@dataclass(frozen=True, eq=False)
class ViolationSearch:
    algebra: str
    witness: J2Witness | None
    best_score: float
    evaluations: int
    restarts_used: int
    seed: int
    tol: float

    def to_report(self) -> dict:
        return _report(self.algebra, "find_j2_violation", self.evaluations,
                       {"projection": self.tol},
                       "witness_found" if self.witness else "no_witness_found",
                       self.seed, self.witness)


def _violation_rows(mod: _FloatModel, x: np.ndarray, z: np.ndarray, w: np.ndarray):
    """The one normalization and score of witnesses: for stacks of raw x, z and
    w, the norms (|x|, |z|, |w - (w.z) z|) as a (3, b) array, then the scores,
    projection vectors and witness data (x, z, w, perp), unit x, z and w with w
    orthogonalized against z.  Each row is bitwise its own.  A row with a zero,
    overflowing or non-finite norm computes NaN, inf or zero values without a
    warning, and its caller judges it by the norms: the search puts it off the
    domain where a norm is below 1e-8, and the limiting-plane experiment
    refuses it."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        nx, nz = _norms(x), _norms(z)
        x, z = x / nx[:, None], z / nz[:, None]
        w = w - _dots(w, z)[:, None] * z
        nw = _norms(w)
        w = w / nw[:, None]
        u, proj = _j2_stack(mod, x, mod.jz(z)[:, None], include_x=True,
                            JW=mod.jz(w)[:, None])
        u, proj = u[:, 0], proj[:, 0]
        return np.stack([nx, nz, nw]), _norms(proj) / _norms(x), proj, (x, z, w, u - proj)


def find_j2_violation(alg: GradedNilpotent, seed: int, tol: float = 1e-8,
                      restarts: int = 8, sweep: bool = True) -> ViolationSearch:
    """Search for a unitary triple (X, Z, W) with J_Z J_W X orthogonal to
    span{J_z X} + R X: structured sweep first, then seeded Gauss-Newton
    restarts that drive the projection vector to zero.  The sweep (in blocks
    of fixed size) and each step's point with its probes are evaluated as
    stacks, with results bit-identical to evaluating each triple alone.  A
    negative seed is refused first, whether or not a restart would draw."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    mod = _model(alg)
    if mod.m <= 1:
        return ViolationSearch(alg.name, None, math.inf, 0, 0, seed, tol)

    evals = used = 0
    best = (math.inf, None)
    eye_m = np.eye(mod.m)
    if sweep:
        ks, ls = mod.pairs
        JZ = mod.jmats[ks]
        for X in _x_blocks(mod.n, 0, None):
            u, proj = _j2_stack(mod, X, JZ, include_x=True, ls=ls)
            score = _norms(proj) / _norms(X)[:, None]
            evals += score.size
            # First minimum in (X, k < l) order, as a strict running minimum keeps.
            i, p = np.unravel_index(np.argmin(score), score.shape)
            if score[i, p] < best[0]:
                best = (float(score[i, p]),
                        (X[i], eye_m[ks[p]], eye_m[ls[p]], u[i, p] - proj[i, p]))

    # Gauss-Newton on the projection vector, a zero-residual problem, over the
    # raw theta = (x, z, w), restarted until a score reaches tol.  Each step
    # evaluates its point with the point's n + 2m forward-difference probes as
    # one stack (the last step, the point alone) and counts the probes only
    # once it uses them.  A restart ends at its first point with score <= tol,
    # at its last step, or at a point or a probe off the domain.  The generator
    # is made at the first restart: numpy imports numpy.random on first use,
    # which a search the sweep ends need not pay.
    offsets = GN_STEP * np.eye(mod.n + 2 * mod.m)
    rng = None
    while not best[0] <= tol and used < restarts:
        used += 1
        if rng is None:
            rng = np.random.default_rng(seed)
        theta = rng.standard_normal(len(offsets))
        for steps in range(GN_ITERATIONS + 1):
            last = steps == GN_ITERATIONS
            stack = theta[None] if last else np.concatenate([theta[None], theta + offsets])
            norms, score, proj, data = _violation_rows(
                mod, *np.split(stack, [mod.n, mod.n + mod.m], axis=1))
            off = (norms < 1e-8).any(axis=0)  # a NaN norm is on the domain
            evals += 1
            if off[0]:
                break
            if score[0] < best[0]:
                best = (float(score[0]), tuple(a[0] for a in data))
            if score[0] <= tol or last:
                break
            evals += len(offsets)
            if off[1:].any():
                break
            jac = ((proj[1:] - proj[0]) / GN_STEP).T
            theta = theta + np.linalg.lstsq(jac, -proj[0], rcond=None)[0]
    witness = None
    if best[0] <= tol and best[1] is not None:
        X, Z, W, perp = best[1]  # unit, from the sweep or `_violation_rows`
        witness = J2Witness(X, Z, W, best[0], perp,
                            float(np.linalg.norm(mod.bracket(X, perp))))
    return ViolationSearch(alg.name, witness, best[0], evals, used, seed, tol)


# ---------------------------------------------------------------------------
# Limiting planes at the puncture


@dataclass(frozen=True, eq=False)
class PlaneConvergenceRow:
    radius: float
    part_i: float
    part_ii: float
    part_iii: float

    @property
    def grassmann_distance(self) -> float:
        return max(self.part_i, self.part_ii, self.part_iii)

    def to_dict(self) -> dict:
        return {
            "radius": self.radius,
            "grassmann_distance": self.grassmann_distance,
            "part_i": self.part_i,
            "part_ii": self.part_ii,
            "part_iii": self.part_iii,
        }


@dataclass(frozen=True, eq=False)
class LimitingPlaneReport:
    algebra: str
    witness: J2Witness
    rows: tuple[PlaneConvergenceRow, ...]
    limit_v_plane: np.ndarray
    limit_v_plane_2: np.ndarray
    limit_z_line: np.ndarray
    orthogonality: float
    verdict: str
    seed: int | None

    def to_report(self) -> dict:
        return _report(self.algebra, "limiting_plane_experiment", len(self.rows),
                       {"plane": PLANE_TOL, "final_distance": FINAL_DISTANCE_TOL},
                       self.verdict, self.seed, self.witness, self.rows)


def _check_radii(radii) -> tuple:
    """The radii as a tuple, refused unless non-empty and each in (2, MAX_RADIUS].
    The curve 1 + |Z|^2 = r^4 / 16 is real only for r >= 2; the pushed
    planes along it have singular values down to 2 sqrt(2) / r^2, which
    fall under the ORTHONORMAL_TOL cut of `_orthonormal_rows` beyond about
    1.7e5."""
    radii = tuple(radii)
    if not radii or not all(2.0 < r <= MAX_RADIUS for r in radii):
        raise ValueError(f"radii must be a non-empty sequence of numbers above 2 "
                         f"(so each curve is real) and at most {MAX_RADIUS:g}, "
                         f"got {radii!r}")
    return radii


def limiting_plane_experiment(alg: GradedNilpotent, witness: J2Witness,
                              radii=(10.0, 100.0, 1000.0, 10000.0),
                              seed: int | None = None) -> LimitingPlaneReport:
    """Track three families of pushed contact planes near the puncture.

    The witness spans two copies of the 3-dimensional Heisenberg algebra
    through the same center direction: span{X, J_Z X, Z} and
    span{J_W X, J_Z J_W X, Z}.  Each copy traces a curve with
    1 + |Z|^2 = |X|^4 / 16 into the puncture; the contact planes pushed
    along them converge to two orthogonal v-direction planes, while the
    horizontal field of part (iii) degenerates to the central line
    (0, RW, 0).  Distinct limits along distinct approaches are the
    obstruction to extending the sphere distribution.
    """
    radii = _check_radii(radii)
    mod = _model(alg)
    (nx, nz, nw), score, _, (x, z, w, _) = _violation_rows(
        mod, *(np.asarray(a, dtype=float)[None] for a in (witness.X, witness.Z, witness.W)))
    # A norm is refused when it is not finite, as a NaN entry's is, or when it
    # overflows: its vector would normalize to zero.  A non-finite entry of W
    # leaves no finite norm of the orthogonalized W.
    if not (0 < nx[0] < math.inf and 0 < nz[0] < math.inf and nw[0] < math.inf):
        raise StructureError("witness X, Z and W must be finite, and X and Z nonzero")
    if nw[0] < 1e-8:
        raise StructureError("witness W is parallel to Z")
    if not score[0] <= PLANE_TOL:  # a NaN score is refused too
        raise StructureError(f"witness does not violate the J^2 condition: projection "
                             f"residual {score[0]:.3e} > {PLANE_TOL:.1e}")
    x, z, w = x[0], z[0], w[0]

    jz_hat, jw_hat = mod.jz(z), mod.jz(w)
    a1, a2 = x, jz_hat @ x
    b1 = jw_hat @ x
    b2 = jz_hat @ b1
    pad = np.zeros((2, mod.m + 1))  # the z and t coordinates of two v-directions
    limit1 = _orthonormal_rows(np.hstack([np.vstack([a1, a2]), pad]))
    limit2 = _orthonormal_rows(np.hstack([np.vstack([b1, b2]), pad]))
    limit3 = _orthonormal_rows(np.concatenate([np.zeros(mod.n), w, [0.0]])[None, :])
    orth = max(float(np.max(np.abs(pa @ pb.T)))
               for pa, pb in ((limit1, limit2), (limit1, limit3), (limit2, limit3)))

    rows = []
    for r in radii:
        zr = math.sqrt(r ** 4 / 16.0 - 1.0)
        Zp = zr * z
        t = r * r / 4.0

        # First copy.  The third row is the horizontal field whose
        # v-component cancels on this curve (needs [X, J_Z J_W X] = 0, i.e.
        # the witness): its pushforward points along (0, RW, 0) exactly.
        Xp1 = r * x
        yw = (1.0 + t) * (jw_hat @ Xp1) + mod.jz(Zp) @ (jw_hat @ Xp1)
        pushed = _dcayley(mod, Xp1, Zp, t, _contact_rows(mod, Xp1, np.vstack([a1, a2, yw])))
        d1 = _distance(_orthonormal_rows(pushed[:2]), limit1)
        v3 = pushed[2] / np.linalg.norm(pushed[2])

        # Second copy: the same curve construction along J_W X.
        Xp2 = r * b1
        pushed = _dcayley(mod, Xp2, Zp, t, _contact_rows(mod, Xp2, np.vstack([b1, b2])))
        d2 = _distance(_orthonormal_rows(pushed), limit2)

        d3 = float(np.linalg.norm(v3 - limit3.T @ (limit3 @ v3)))
        rows.append(PlaneConvergenceRow(float(r), d1, d2, d3))

    final = rows[-1]
    ok = final.grassmann_distance <= FINAL_DISTANCE_TOL and orth <= PLANE_TOL
    verdict = "planes_collapse_to_orthogonal_limits" if ok else "inconclusive"
    return LimitingPlaneReport(alg.name, witness, tuple(rows),
                               limit1, limit2, limit3, orth, verdict, seed)


@dataclass(frozen=True, eq=False)
class ExtensionVerdict:
    algebra: str
    verdict: str  # "extends" | "does_not_extend"
    j2: J2Result
    search: ViolationSearch | None
    experiment: LimitingPlaneReport | None

    def to_report(self) -> dict:
        return _report(self.algebra, "extension_verdict", self.j2.samples,
                       {"residual": self.j2.tol}, self.verdict, self.j2.seed,
                       self.j2.witness, self.experiment.rows if self.experiment else ())


def extension_verdict(alg: GradedNilpotent, sample_count: int = 200,
                      tol: float = 1e-8, seed: int = 0,
                      radii=(10.0, 100.0, 1000.0, 10000.0)) -> ExtensionVerdict:
    """Sphere planes extend across the puncture iff the J^2 condition
    holds; the negative verdict ships a violation witness plus the
    limiting-plane experiment as evidence."""
    radii = _check_radii(radii)
    j2 = j2_test(alg, sample_count=sample_count, tol=tol, seed=seed)
    if j2.holds:
        return ExtensionVerdict(alg.name, "extends", j2, None, None)
    search = find_j2_violation(alg, seed=seed, tol=tol)
    experiment = None
    if search.witness is not None:
        experiment = limiting_plane_experiment(alg, search.witness, radii, seed=seed)
    return ExtensionVerdict(alg.name, "does_not_extend", j2, search, experiment)


def puncture_point(alg: GradedNilpotent, seed: int = 0, directions: int = 6,
                   radius: float = 1e9, tol: float = 1e-8) -> np.ndarray:
    """Common limit of the boundary Cayley map as |X| grows, checked to be
    direction-independent; this is the puncture of the sphere model.  It
    takes e_1 and directions - 1 random unit X, so directions must be at
    least 2.  The radius must be finite and positive, and at most 1e77: above
    about 7.3e77 the denominator (1 + r^2/4)^2 of the map overflows float64."""
    if directions < 2:
        raise ValueError(f"directions must be at least 2, got {directions!r}")
    if not 0 < radius <= 1e77:  # NaN fails too
        raise ValueError(f"radius must be finite and positive, at most 1e77, got {radius!r}")
    mod = _model(alg)
    rng = np.random.default_rng(seed)
    xs = [np.eye(mod.n)[0]]
    for _ in range(directions - 1):
        v = rng.standard_normal(mod.n)
        xs.append(v / np.linalg.norm(v))
    zs = (np.zeros(mod.m), 0.5 * np.eye(mod.m)[0])
    pts = [_cayley_arrays(mod, X, z, 0.25 * float(X @ X))
           for X in (radius * x for x in xs) for z in zs]
    spread = max(
        float(np.linalg.norm(p - q)) for i, p in enumerate(pts) for q in pts[i + 1:]
    )
    if not spread <= tol:  # a NaN spread fails too
        raise CrossValidationError("puncture limit spread", spread, tol)
    return np.mean(pts, axis=0)


def group_product(alg: GradedNilpotent, g1, g2):
    """Group law on the boundary (2-step BCH, exact): (X, Z) pairs."""
    mod = _model(alg)
    (X1, Z1), (X2, Z2) = _point(mod, *g1), _point(mod, *g2)
    return X1 + X2, Z1 + Z2 + 0.5 * mod.bracket(X1, X2)


def _invariance_distance(in_place: TangentPlane, fd: np.ndarray, tol: float) -> float:
    dist = _distance(in_place.basis, _orthonormal_rows(fd))
    if dist > tol:
        raise CrossValidationError("translation invariance", dist, tol)
    return dist


def translation_invariance_check(alg: GradedNilpotent, X, Z,
                                 tol: float = PLANE_TOL) -> float:
    """Sphere plane computed in place vs the base-point plane transported
    by the group translation (X, Z) = g . (0, 0); returns the Grassmann
    distance and raises if it exceeds tol."""
    # d(C o L_g) at the identity applied to the flat base plane (Y, 0):
    # the translated curve is s -> (X + sY, Z + s[X,Y]/2) by the group law,
    # which is the curve the in-place plane's finite difference follows.
    mod = _model(alg)
    return _invariance_distance(*_sphere_plane(mod, *_point(mod, X, Z)), tol)


def distribution_experiment(alg: GradedNilpotent, sample_count: int = 25,
                            seed: int = 0) -> dict:
    """Contact planes at sample_count random boundary points, as a boundary
    report: each lies in the tangent space of the boundary, its push to the
    sphere is tangent there, and that push matches the transport along the
    translation curves.  Each check raises on failure, so the verdict is pass."""
    if sample_count < 1:
        raise ValueError(f"sample_count must be at least 1, got {sample_count}")
    mod = _model(alg)
    rng = np.random.default_rng(seed)
    tangency = invariance = 0.0
    for _ in range(sample_count):
        X = rng.standard_normal(mod.n)
        Z = rng.standard_normal(mod.m)
        boundary_distribution(alg, X, Z)  # raises on membership failure
        plane, fd = _sphere_plane(mod, X, Z)
        tangency = max(tangency, float(np.max(np.abs(_dots(plane.basis, plane.base)))))
        invariance = max(invariance, _invariance_distance(plane, fd, PLANE_TOL))
    return _report(alg.name, "distribution", sample_count,
                   {"membership": IDENTITY_TOL, "tangency": ROUND_TRIP_TOL,
                    "invariance": PLANE_TOL}, "pass", seed,
                   max_tangency_residual=tangency, max_invariance_distance=invariance)


# ---------------------------------------------------------------------------
# Sampled invariants


def _probe_blocks(mod: _FloatModel, samples: int, rng):
    """The random points (X, Z) of a Cayley probe, _PROBE_BLOCK at most per
    block, each block drawing its X, then its Z, as the caller draws the rest of
    the block before the next.  Two refusals, both ValueError before anything is
    drawn: fewer than one sample, and more than MAX_PROBE_DRAWS normals in all."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if samples * (mod.n + mod.m) > MAX_PROBE_DRAWS:
        raise ValueError(f"{samples} samples draw over the cap of {MAX_PROBE_DRAWS} normals")
    for start in range(0, samples, _PROBE_BLOCK):
        b = min(_PROBE_BLOCK, samples - start)
        yield rng.standard_normal((b, mod.n)), rng.standard_normal((b, mod.m))


def boundary_identity_error(alg: GradedNilpotent, samples: int = 10_000,
                            seed: int = 0) -> float:
    """max | |C(p)|^2 - 1 | over random boundary points, drawn and mapped in
    stacks of _PROBE_BLOCK.  More than MAX_PROBE_DRAWS normals, or fewer than
    one sample, raise ValueError before anything is drawn (`_probe_blocks`)."""
    mod = _model(alg)
    worst = 0.0
    for X, Z in _probe_blocks(mod, samples, np.random.default_rng(seed)):
        C = _cayley_arrays(mod, X, Z, 0.25 * _dots(X, X))
        worst = max(worst, float(np.max(np.abs(_dots(C, C) - 1.0))))
    return worst


def round_trip_error(alg: GradedNilpotent, samples: int = 1000,
                     seed: int = 0) -> float:
    """max |p - cayley_inverse(cayley(p))| over random interior points, drawn
    and mapped out and back in stacks of _PROBE_BLOCK, through the checks of
    `cayley` and `cayley_inverse`, bit-identical to one point at a time.
    More than MAX_PROBE_DRAWS normals, or fewer than one sample, raise
    ValueError before anything is drawn (`_probe_blocks`)."""
    mod = _model(alg)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for X, Z in _probe_blocks(mod, samples, rng):
        t = 0.25 * _dots(X, X) + rng.uniform(0.05, 2.0, len(X))
        _check_siegel(X, Z, t, SIEGEL_TOL)
        back = _inverse(mod, _cayley_arrays(mod, X, Z, t), INVERSE_TOL)
        worst = max(worst, float(np.max(_norms(np.column_stack([X, Z, t]) - back))))
    return worst


def cayley_probe(alg: GradedNilpotent, sample_count: int = 10_000, seed: int = 0) -> dict:
    """`boundary_identity_error` on sample_count points and `round_trip_error`
    on a tenth as many (at least one), as a boundary report."""
    if sample_count < 1:
        raise ValueError(f"sample_count must be at least 1, got {sample_count}")
    ident = boundary_identity_error(alg, samples=sample_count, seed=seed)
    rt = round_trip_error(alg, samples=max(1, sample_count // 10), seed=seed)
    return _report(alg.name, "cayley-probe", sample_count,
                   {"boundary_identity": IDENTITY_TOL, "round_trip": ROUND_TRIP_TOL},
                   "pass" if ident <= IDENTITY_TOL and rt <= ROUND_TRIP_TOL else "fail",
                   seed, max_boundary_residual=ident, max_round_trip_error=rt)
