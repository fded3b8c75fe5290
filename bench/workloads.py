"""The four workloads, each a round of timed operations plus its checks.

A workload function builds one round: it constructs every input algebra
afresh (so no cache of an earlier round is reused), lists the operations in
the order they run, and returns a check over their results.  The seed picks
the random inputs, the sample seeds and the random vectors of the checks;
the inputs of the known faults do not depend on it.  The order of the
operations is fixed, so the seed cannot change what runs before what.

An operation fails when it raises, or when its ``expect`` hook raises
``Fault`` because the documented outcome did not happen.  The check only
looks at operations that did not fail; any problem it finds makes the run
incorrect.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import htype.cli
from htype import boundary as bnd
from htype import catalog, clifford, nilpotent as nil, symmetry as sym
from htype.division import DivisionAlgebra as DA
from htype.serialization import save_algebra

import checks

BENCH = Path(__file__).resolve().parent
BUDGET = 10**8  # the acceptance suite's budget; the default refuses h1(O)
J2_TOL = 1e-8
SEARCH_SEEDS = (0, 1, 2)


class Fault(Exception):
    """An operation missed its documented outcome (a known fault)."""


@dataclass
class Op:
    name: str
    stage: str  # construct | derivations | prolong | certify | boundary
    run: Callable[[], object]
    expect: Callable[[object], None] | None = None


@dataclass
class Round:
    ops: list[Op]
    check: Callable[[dict], list[str]]


def _builds(algs: dict, makers: dict[str, Callable]) -> list[Op]:
    def build(key, make):
        def run():
            algs[key] = make()
            return algs[key]
        return Op(f"build {key}", "construct", run)
    return [build(k, m) for k, m in makers.items()]


def _expect(cond: bool, problems: list[str], message: str) -> None:
    if not cond:
        problems.append(message)


def _derivation_problems(name, alg, full, graded) -> list[str]:
    problems = []
    n, m = alg.dim_v, alg.dim_z
    if full is not None and graded is not None:
        _expect(full.dimension == graded.dimension + n * m, problems,
                f"{name}: dim Der {full.dimension} != dim Der_gr {graded.dimension} + {n * m}")
    for label, space in (("Der", full), ("Der_gr", graded)):
        if space is None:
            continue
        bad = checks.non_derivations(alg, [(a, b) for a, b, _ in space.basis])
        _expect(bad == 0, problems, f"{name}: {bad} {label} basis elements are not derivations")
    return problems


def _prolong_problems(name, res, g0=None, comps=None, total=None, trivial=None,
                      completed=None) -> list[str]:
    problems = []
    for label, want, got in (("g0", g0, res.g0_dim), ("components", comps, res.component_dims),
                             ("total", total, res.total_dim), ("trivial", trivial, res.trivial),
                             ("completed", completed, res.completed)):
        if want is not None:
            _expect(got == want, problems, f"{name}: {label} {got} != {want}")
    return problems


def _catalog_row(name: str, params=()):
    return catalog.verify_row(catalog.row_by_name(name), params)


# ---------------------------------------------------------------------------
# exact-large


def exact_large(seed: int, tracer=None, tmp=None) -> Round:
    algs: dict = {}
    ops = _builds(algs, {
        "h1(O)": lambda: nil.build_hn(DA.O, 1),
        "h'1,0(O)": lambda: nil.build_hprime(DA.O, 1, 0),
        "h2(H)": lambda: nil.build_hn(DA.H, 2),
    })
    ops += [
        Op("prolong h'1,0(O)", "prolong",
           lambda: sym.tanaka_prolong(algs["h'1,0(O)"], max_degree=3, budget=BUDGET)),
        Op("prolong h1(O)", "prolong",
           lambda: sym.tanaka_prolong(algs["h1(O)"], max_degree=3, budget=BUDGET)),
        Op("graded h1(O)", "derivations", lambda: sym.graded_derivations(algs["h1(O)"])),
        Op("full h'1,0(O)", "derivations", lambda: sym.full_derivations(algs["h'1,0(O)"])),
        Op("graded h'1,0(O)", "derivations", lambda: sym.graded_derivations(algs["h'1,0(O)"])),
        Op("graded h2(H)", "derivations", lambda: sym.graded_derivations(algs["h2(H)"])),
    ]

    def check(res: dict) -> list[str]:
        problems = []
        eiv, fii = _catalog_row("EIV"), _catalog_row("FII")
        su8 = catalog.instantiate(catalog.row_by_name("su*(2n)"), (4,))
        if "prolong h1(O)" in res:
            problems += _prolong_problems("h1(O)", res["prolong h1(O)"], g0=checks.DIM_SO8 + 2,
                                          comps=(16, 8), total=checks.DIM_E6, completed=True)
            _expect(res["prolong h1(O)"].total_dim == eiv.dim_g, problems,
                    "h1(O): total differs from catalog row EIV")
        if "prolong h'1,0(O)" in res:
            problems += _prolong_problems("h'1,0(O)", res["prolong h'1,0(O)"],
                                          g0=checks.DIM_SPIN7 + 1, comps=(8, 7),
                                          total=checks.DIM_F4, completed=True)
            _expect(res["prolong h'1,0(O)"].total_dim == fii.dim_g, problems,
                    "h'1,0(O): total differs from catalog row FII")
        if "graded h1(O)" in res:
            problems += _derivation_problems("h1(O)", algs["h1(O)"], None, res["graded h1(O)"])
            _expect(res["graded h1(O)"].dimension == checks.DIM_SO8 + 2, problems,
                    "h1(O): dim Der_gr != dim so(8) + 2")
        problems += _derivation_problems("h'1,0(O)", algs.get("h'1,0(O)"),
                                         res.get("full h'1,0(O)"), res.get("graded h'1,0(O)"))
        if "graded h2(H)" in res:
            problems += _derivation_problems("h2(H)", algs["h2(H)"], None, res["graded h2(H)"])
            _expect(res["graded h2(H)"].dimension == su8.dim_m + su8.dim_a == 23, problems,
                    "h2(H): dim Der_gr != dim m + dim a of su*(8)")
        return problems

    return Round(ops, check)


# ---------------------------------------------------------------------------
# exact-small

_SMALL_PROLONG = (  # name, max_degree, expected component dims, total, trivial
    ("h1(R)", 3, tuple(checks.weighted_monomials(2, 1, k + 2) for k in (1, 2, 3)), None, False),
    ("h2(R)", 1, (checks.weighted_monomials(4, 1, 3),), None, False),
    ("h1(C)", 1, (2 * checks.weighted_monomials(2, 1, 3),), None, False),
    ("h1(H)", 3, (8, 4), checks.dim_su_star(3), False),
    ("h'1,0(H)", 3, (4, 3), checks.dim_sp(2, 1), False),
    ("h'1,1(H)", 3, (8, 3), checks.dim_sp(2, 2), False),
    ("clifford(5,1)", 1, (), None, True),
    ("clifford(6,1)", 1, (), None, True),
)


def exact_small(seed: int, tracer=None, tmp=None) -> Round:
    rng = random.Random(seed)
    algs: dict = {}
    makers: dict[str, Callable] = {}
    for n in range(1, 5):
        makers[f"h{n}(R)"] = lambda n=n: nil.build_hn(DA.R, n)
    for n in range(1, 4):
        makers[f"h{n}(C)"] = lambda n=n: nil.build_hn(DA.C, n)
    makers["h1(H)"] = lambda: nil.build_hn(DA.H, 1)
    hprime_h = [(p, t - p) for t in range(1, 4) for p in range(t + 1)]
    for p, q in hprime_h:
        makers[f"h'{p},{q}(H)"] = lambda p=p, q=q: nil.build_hprime(DA.H, p, q)
    for m in range(1, 9):
        makers[f"clifford({m},1)"] = lambda m=m: clifford.build_htype_from_clifford(m, 1)
    iso_pairs = [(p, t - p) for t in range(1, 5) for p in range(t + 1)]
    for p, q in iso_pairs:
        makers[f"h'{p},{q}(C)"] = lambda p=p, q=q: nil.build_hprime(DA.C, p, q)
    # dim v = 8: the sympy pencil takes 2-3 s here; at dim v = 10 it takes
    # 6-10 s, and its spread over seeds would swamp the round
    makers["random"] = lambda r=random.Random(rng.getrandbits(32)): nil.random_two_step(8, 2, r)
    ops = _builds(algs, makers)
    typeh_keys = [k for k in makers if k != "random"]
    der_keys = ([f"h{n}(R)" for n in range(1, 4)] + [f"h{n}(C)" for n in range(1, 3)]
                + ["h1(H)"] + [f"h'{p},{q}(H)" for p, q in hprime_h if p + q <= 2]
                + [f"clifford({m},1)" for m in range(1, 7)])

    for key in der_keys:
        ops.append(Op(f"full {key}", "derivations", lambda key=key: sym.full_derivations(algs[key])))
        ops.append(Op(f"graded {key}", "derivations",
                      lambda key=key: sym.graded_derivations(algs[key])))
    for key, deg, *_ in _SMALL_PROLONG:
        ops.append(Op(f"prolong {key}", "prolong",
                      lambda key=key, deg=deg: sym.tanaka_prolong(algs[key], max_degree=deg,
                                                                  budget=BUDGET)))
    for key in typeh_keys:
        ops.append(Op(f"typeh {key}", "certify", lambda key=key: nil.is_type_h(algs[key])))
    for p, q in iso_pairs:
        ops.append(Op(f"iso h'{p},{q}(C)", "certify",
                      lambda p=p, q=q: nil.check_symplectic_isomorphic(
                          algs[f"h'{p},{q}(C)"], algs[f"h{p + q}(R)"])))
    ops.append(Op("verify_all", "certify", lambda: catalog.verify_all()))
    ops.append(Op("nonsingular random", "certify", lambda: nil.is_nonsingular(algs["random"])))
    check_rng = random.Random(rng.getrandbits(32))

    def check(res: dict) -> list[str]:
        problems = []
        for key in der_keys:
            problems += _derivation_problems(key, algs.get(key), res.get(f"full {key}"),
                                             res.get(f"graded {key}"))
        for n in range(1, 4):
            graded = res.get(f"graded h{n}(R)")
            if graded is not None:
                _expect(graded.dimension == checks.dim_csp(n), problems,
                        f"h{n}(R): dim Der_gr {graded.dimension} != dim csp({2 * n})")
        for key, _deg, comps, total, trivial in _SMALL_PROLONG:
            if f"prolong {key}" in res:
                problems += _prolong_problems(key, res[f"prolong {key}"], comps=comps,
                                              total=total, trivial=trivial)
        for m in range(1, 9):
            alg = algs.get(f"clifford({m},1)")
            if alg is not None:
                _expect(alg.dim_v == checks.CLIFFORD_MODULE_DIMS[m - 1], problems,
                        f"clifford({m},1): dim v {alg.dim_v}")
        for key in typeh_keys:
            if f"typeh {key}" in res:
                _expect(res[f"typeh {key}"].holds, problems, f"{key}: not type H")
        for p, q in iso_pairs:
            got = res.get(f"iso h'{p},{q}(C)")
            if got is not None:
                problems += _iso_problems(algs[f"h'{p},{q}(C)"], algs[f"h{p + q}(R)"],
                                          got, check_rng)
        if "verify_all" in res:
            summary = res["verify_all"]
            _expect(summary.all_pass, problems, "verify_all: not all rows pass")
            for r in summary.reports:
                _expect(r.dim_g == r.dim_m + r.dim_a + 2 * r.dim_n, problems,
                        f"catalog {r.name}{r.params}: dimension identity fails")
            _expect({r.name for r in summary.reports}
                    == {r.name for r in catalog.table_rows()}, problems,
                    "verify_all: some catalog rows never instantiated")
        got = res.get("nonsingular random")
        if got is not None:
            want = not checks.pencil_has_real_root(algs["random"])
            _expect(got.verdict == want, problems,
                    f"random: is_nonsingular {got.verdict}, float pencil says {want}")
        return problems

    return Round(ops, check)


def _iso_problems(a, b, got, rng) -> list[str]:
    ok, M = got
    if not ok or M is None:
        return [f"no isomorphism witness for {a.name} ~ {b.name}"]
    n = a.dim_v
    for _ in range(3):
        u = [Fraction(rng.randint(-9, 9)) for _ in range(n)]
        w = [Fraction(rng.randint(-9, 9)) for _ in range(n)]
        mu = [sum(M[i][j] * u[j] for j in range(n)) for i in range(n)]
        mw = [sum(M[i][j] * w[j] for j in range(n)) for i in range(n)]
        if checks.bracket_z(b, mu, mw) != checks.bracket_z(a, u, w):
            return [f"witness for {a.name} ~ {b.name} does not carry the bracket"]
    return []


# ---------------------------------------------------------------------------
# float-geometry

J2_HOLDS = ("h1(R)", "h2(R)", "h3(R)", "h'2,0(H)", "h'0,2(H)", "h'1,0(O)")
J2_FAILS = ("h1(C)", "h2(C)", "h1(H)", "h'1,1(H)", "h1(O)")
_FLOAT_PROLONG = (("h1(H)", 11, (8, 4)), ("h'1,0(O)", 22, (8, 7)), ("h1(O)", 30, (16, 8)))
_CAYLEY = ("h1(R)", "h1(C)", "h'1,0(H)", "h1(O)")
_DISTRIBUTION = ("h'1,1(H)", "h1(O)")
DISTRIBUTION_POINTS = 4


def float_geometry(seed: int, tracer=None, tmp=None) -> Round:
    rng = np.random.default_rng(seed)
    algs: dict = {}
    ops = _builds(algs, {
        "h1(R)": lambda: nil.build_hn(DA.R, 1),
        "h2(R)": lambda: nil.build_hn(DA.R, 2),
        "h3(R)": lambda: nil.build_hn(DA.R, 3),
        "h'2,0(H)": lambda: nil.build_hprime(DA.H, 2, 0),
        "h'0,2(H)": lambda: nil.build_hprime(DA.H, 0, 2),
        "h'1,0(O)": lambda: nil.build_hprime(DA.O, 1, 0),
        "h1(C)": lambda: nil.build_hn(DA.C, 1),
        "h2(C)": lambda: nil.build_hn(DA.C, 2),
        "h1(H)": lambda: nil.build_hn(DA.H, 1),
        "h'1,1(H)": lambda: nil.build_hprime(DA.H, 1, 1),
        "h1(O)": lambda: nil.build_hn(DA.O, 1),
        "h'1,0(H)": lambda: nil.build_hprime(DA.H, 1, 0),
    })
    sample_seed = int(rng.integers(2**31))
    for key, *_ in _FLOAT_PROLONG:
        ops.append(Op(f"float prolong {key}", "prolong",
                      lambda key=key: sym.tanaka_prolong(algs[key], max_degree=3,
                                                         arithmetic="float64", budget=BUDGET)))
    # extension_verdict runs j2_test (200 seeded samples) first; its J^2
    # result is checked below, so j2_test is not run a second time
    for key in J2_HOLDS + J2_FAILS:
        ops.append(Op(f"verdict {key}", "boundary",
                      lambda key=key: bnd.extension_verdict(algs[key], seed=sample_seed)))

    def search_op(key, s):
        def run():
            found = bnd.find_j2_violation(algs[key], seed=s, tol=J2_TOL, sweep=False)
            if found.witness is not None:
                ops.append(Op(f"limiting plane {key} seed {s}", "boundary",
                              lambda: bnd.limiting_plane_experiment(algs[key], found.witness,
                                                                    seed=s)))
            return found

        def expect(found):
            if found.witness is None:
                raise Fault(f"BFGS stopped at best score {found.best_score:.3g} > {J2_TOL:g}")
        return Op(f"search {key} seed {s}", "boundary", run, expect)

    ops += [search_op(key, s) for key in J2_FAILS for s in SEARCH_SEEDS]
    for key in _CAYLEY:
        ops.append(Op(f"identity {key}", "boundary",
                      lambda key=key: bnd.boundary_identity_error(algs[key], samples=10**4,
                                                                  seed=sample_seed)))
        ops.append(Op(f"round trip {key}", "boundary",
                      lambda key=key: bnd.round_trip_error(algs[key], samples=10**3,
                                                           seed=sample_seed)))
    points = {}
    for key in _DISTRIBUTION:
        n, m = {"h'1,1(H)": (8, 3), "h1(O)": (16, 8)}[key]
        for i in range(DISTRIBUTION_POINTS):
            X, Z = rng.standard_normal(n), rng.standard_normal(m)
            points[(key, i)] = X
            for label, fn in (("boundary plane", bnd.boundary_distribution),
                              ("sphere plane", bnd.sphere_distribution),
                              ("translation", bnd.translation_invariance_check)):
                ops.append(Op(f"{label} {key} point {i}", "boundary",
                              lambda key=key, X=X, Z=Z, fn=fn: fn(algs[key], X, Z)))

    def check(res: dict) -> list[str]:
        problems = []
        for key, g0, comps in _FLOAT_PROLONG:
            if f"float prolong {key}" in res:
                problems += _prolong_problems(f"float {key}", res[f"float prolong {key}"],
                                              g0=g0, comps=comps, completed=True)
        for key in J2_HOLDS + J2_FAILS:
            holds = key in J2_HOLDS
            verdict = res.get(f"verdict {key}")
            if verdict is not None:
                j2 = verdict.j2
                _expect(j2.holds == holds, problems,
                        f"{key}: J^2 verdict {j2.holds}")
                if not holds and j2.witness is not None:
                    k, l = int(np.argmax(j2.witness.Z)), int(np.argmax(j2.witness.W))
                    got = checks.j2_residual(algs[key], j2.witness.X, k, l)
                    _expect(got > J2_TOL and abs(got - j2.witness.residual) <= 1e-9, problems,
                            f"{key}: J^2 witness residual {got:.3e}")
                _expect(holds or j2.witness is not None, problems, f"{key}: no J^2 witness")
                want = "extends" if holds else "does_not_extend"
                _expect(verdict.verdict == want, problems, f"{key}: verdict {verdict.verdict}")
                if not holds:
                    problems += _witness_problems(key, algs[key], verdict.search,
                                                  verdict.experiment)
        for key in J2_FAILS:
            for s in SEARCH_SEEDS:
                found = res.get(f"search {key} seed {s}")
                if found is not None:
                    problems += _witness_problems(f"{key} seed {s}", algs[key], found,
                                                  res.get(f"limiting plane {key} seed {s}"))
        for key in _CAYLEY:
            ident, rt = res.get(f"identity {key}"), res.get(f"round trip {key}")
            _expect(ident is None or ident <= 1e-12, problems, f"{key}: identity error {ident}")
            _expect(rt is None or rt <= 1e-8, problems, f"{key}: round trip error {rt}")
        for (key, i), X in points.items():
            plane = res.get(f"boundary plane {key} point {i}")
            if plane is not None:
                problems += [f"{key} point {i}: {p}"
                             for p in checks.contact_plane_problems(algs[key], X, plane)]
            sphere = res.get(f"sphere plane {key} point {i}")
            if sphere is not None:
                _expect(abs(float(sphere.base @ sphere.base) - 1.0) <= 1e-12
                        and float(np.max(np.abs(sphere.basis @ sphere.base))) <= 1e-8,
                        problems, f"{key} point {i}: sphere plane not tangent to the sphere")
            dist = res.get(f"translation {key} point {i}")
            _expect(dist is None or dist <= 1e-6, problems,
                    f"{key} point {i}: translation distance {dist}")
        return problems

    return Round(ops, check)


def _witness_problems(label, alg, search, experiment) -> list[str]:
    if search is None or search.witness is None:
        return [f"{label}: no violation witness"]
    w = search.witness
    problems = [f"{label}: {p}"
                for p in checks.violation_witness_problems(alg, w.X, w.Z, w.W, J2_TOL)]
    if experiment is None:
        problems.append(f"{label}: no limiting-plane experiment")
    else:
        final = experiment.rows[-1].grassmann_distance
        _expect(final < 1e-3, problems, f"{label}: final Grassmann distance {final:.3e}")
    return problems


# ---------------------------------------------------------------------------
# cli-cold

MALFORMED = '{"dim_v":2,"dim_z":1,"structure":[["a",1,0,"1"]]}'
PROLONG_H1H = ("prolong", "--in", "h1H.json", "--expect", "nontrivial")


def _without_elapsed(text: str) -> list[str]:
    return [line for line in text.splitlines() if '"elapsed_ms":' not in line]


def cli_cold(seed: int, tracer=None, tmp: Path | None = None) -> Round:
    """Thirteen fresh `python -m htype.cli` processes, run in `tmp`.

    Traced, each invocation runs through clichild.py instead, which wraps
    the same entry points inside the child and hands its spans back.
    """
    rng = random.Random(seed)
    inputs = {
        "h1H.json": nil.build_hn(DA.H, 1),
        "c51.json": clifford.build_htype_from_clifford(5, 1),
        "h1C.json": nil.build_hn(DA.C, 1),
        "r62.json": nil.random_two_step(6, 2, random.Random(rng.getrandbits(32))),
        "r63.json": nil.random_two_step(6, 3, random.Random(0)),
    }
    for name, alg in inputs.items():
        save_algebra(alg, tmp / name)
    (tmp / "malformed.json").write_text(MALFORMED + "\n")
    nonsingular_want = not checks.pencil_has_real_root(inputs["r62.json"])
    bseed = str(rng.randrange(1000))

    def invoke(*argv):
        if tracer is None:
            cmd = [sys.executable, "-m", "htype.cli", *argv]
            return subprocess.run(cmd, cwd=tmp, capture_output=True, text=True, timeout=120)
        spans_file = tmp / "spans.json"
        spans_file.unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH / "clichild.py"), str(spans_file), *argv]
        proc = subprocess.run(cmd, cwd=tmp, capture_output=True, text=True, timeout=120)
        tracer.adopt(json.loads(spans_file.read_text()))
        return proc

    def op(name, stage, *argv, expect=None):
        return Op(name, stage, lambda: invoke(*argv), expect)

    def expect_usage_error(proc):
        if proc.returncode != 2 or "Traceback" in proc.stderr:
            last = proc.stderr.strip().splitlines()[-1:] or [""]
            raise Fault(f"exit {proc.returncode} ({last[0]}) instead of exit 2")

    def expect_quoted_csv(proc):
        table = list(csv.reader(io.StringIO(proc.stdout)))
        split = [row[0] for row in table[1:] if len(row) != len(table[0])]
        if proc.returncode == 0 and split:
            raise Fault(f"{len(split)} rows have unquoted commas, such as {split[0]!r}")

    def expect_undetermined(proc):
        verdict = json.loads(proc.stdout)["tests"]["nonsingular"]["verdict"]
        if verdict != "undetermined":
            raise Fault(f"verdict {verdict!r} where is_nonsingular returns None")

    ops = [
        op("construct hn", "construct", "construct", "--family", "hn", "--algebra", "O",
           "--n", "1", "--out", "h1O.json"),
        op("construct hprime", "construct", "construct", "--family", "hprime", "--algebra",
           "H", "--p", "1", "--q", "1", "--out", "hp11H.json"),
        op("check h1(O)", "certify", "check", "--in", "h1O.json", "--tests",
           "jacobi,typeh,nonsingular"),
        op("check nonsingular random", "certify", "check", "--in", "r62.json", "--tests",
           "nonsingular", "--expect", "pass" if nonsingular_want else "fail"),
        op("prolong h1(H)", "prolong", *PROLONG_H1H),
        op("prolong h'1,1(H)", "prolong", "prolong", "--in", "hp11H.json", "--expect",
           "nontrivial"),
        op("prolong clifford(5,1)", "prolong", "prolong", "--in", "c51.json", "--max-degree",
           "1", "--expect", "trivial"),
        op("table verify", "certify", "table", "--verify"),
        op("table dump", "certify", "table", "--dump", "--format", "csv",
           expect=expect_quoted_csv),
        op("boundary cayley-probe", "boundary", "boundary", "--in", "h1C.json", "--experiment",
           "cayley-probe", "--seed", bseed),
        op("boundary limiting-plane", "boundary", "boundary", "--in", "h1C.json",
           "--experiment", "limiting-plane", "--seed", bseed),
        op("malformed input", "certify", "check", "--in", "malformed.json", "--tests", "typeh",
           expect=expect_usage_error),
        op("undetermined nonsingular", "certify", "check", "--in", "r63.json", "--tests",
           "nonsingular", expect=expect_undetermined),
    ]
    faults = {"malformed input", "undetermined nonsingular"}

    def check(res: dict) -> list[str]:
        problems = []
        reports = {}
        for name, proc in res.items():
            if name in faults:
                continue
            if proc.returncode != 0:
                problems.append(f"{name}: exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
            elif not name.startswith(("construct", "table dump")):
                try:
                    reports[name] = json.loads(proc.stdout)
                except json.JSONDecodeError:
                    problems.append(f"{name}: report is not JSON")
        for fname, dims in (("h1O.json", (16, 8)), ("hp11H.json", (8, 3))):
            path = tmp / fname
            if path.exists():
                data = json.loads(path.read_text())
                _expect((data["dim_v"], data["dim_z"]) == dims, problems, f"{fname}: dims")
        for name in ("check h1(O)",):
            if name in reports:
                _expect(reports[name]["all_pass"], problems, f"{name}: not all tests pass")
        if "check nonsingular random" in reports:
            got = reports["check nonsingular random"]["tests"]["nonsingular"]["verdict"]
            _expect(got == ("pass" if nonsingular_want else "fail"), problems,
                    f"check nonsingular random: {got}, float pencil says {nonsingular_want}")
        for name, comps, total in (("prolong h1(H)", [8, 4], checks.dim_su_star(3)),
                                   ("prolong h'1,1(H)", [8, 3], checks.dim_sp(2, 2)),
                                   ("prolong clifford(5,1)", [], None)):
            rep = reports.get(name)
            if rep is not None:
                _expect(rep["component_dims"] == comps and rep["trivial"] == (not comps)
                        and total in (None, rep["total_dim"]), problems, f"{name}: {rep}")
        if "prolong h1(H)" in res:
            again = io.StringIO()
            with contextlib.redirect_stdout(again), contextlib.chdir(tmp):
                htype.cli.main(list(PROLONG_H1H))
            _expect(_without_elapsed(res["prolong h1(H)"].stdout)
                    == _without_elapsed(again.getvalue()), problems,
                    "prolong h1(H): a second run gives a different report")
        rep = reports.get("table verify")
        if rep is not None:
            _expect(rep["all_pass"], problems, "table verify: not all_pass")
            for row in rep["rows"]:
                _expect(row["dim_g"] == row["dim_m"] + row["dim_a"] + 2 * row["dim_n"],
                        problems, f"table verify {row['name']}: identity fails")
        if "table dump" in res and res["table dump"].returncode == 0:
            names = [row[0] for row in csv.reader(io.StringIO(res["table dump"].stdout))]
            _expect(names[1:] == [r.name for r in catalog.table_rows()], problems,
                    "table dump: rows differ from the catalog")
        rep = reports.get("boundary cayley-probe")
        if rep is not None:
            _expect(rep["verdict"] == "pass" and rep["max_boundary_residual"] <= 1e-12
                    and rep["max_round_trip_error"] <= 1e-8, problems, "cayley-probe fails")
        rep = reports.get("boundary limiting-plane")
        if rep is not None:
            _expect(rep["verdict"] == "planes_collapse_to_orthogonal_limits"
                    and rep["convergence_table"][-1]["grassmann_distance"] < 1e-3, problems,
                    f"limiting-plane: {rep['verdict']}")
            w = rep["witnesses"][0]
            problems += [f"limiting-plane witness: {p}" for p in checks.violation_witness_problems(
                inputs["h1C.json"], w["X"], w["Z"], w["W"], J2_TOL)]
        return problems

    return Round(ops, check)


WORKLOADS = {
    "exact-large": exact_large,
    "exact-small": exact_small,
    "float-geometry": float_geometry,
    "cli-cold": cli_cold,
}
