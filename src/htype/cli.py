"""Command-line surface: construct, check, prolong, table, boundary.

Every run emits a JSON report carrying a manifest (command, inputs, seed,
tolerances, version) so that re-running the same invocation reproduces
the report byte for byte, elapsed-time fields aside.

Exit codes: 0 success, 1 verdict mismatch under --expect, 2 usage or
input error, 3 entry budget exceeded (by a prolongation or by an
algebra file's structure tensor).
"""

from __future__ import annotations

import argparse
import json
import sys

# Each command imports what else it runs: only table loads the catalog,
# only boundary and check --tests j2 load numpy.
from . import __version__
from .errors import BudgetExceeded, HTypeError
from .serialization import load_algebra, save_algebra

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

CHECK_TESTS = ("jacobi", "typeh", "nonsingular", "j2")
# each boundary experiment and the verdicts it can report
EXPERIMENTS = {
    "cayley-probe": ("pass", "fail"),
    "distribution": ("pass",),
    "j2": ("holds", "fails"),
    "limiting-plane": ("planes_collapse_to_orthogonal_limits", "inconclusive",
                       "no_witness_found"),
}


def _manifest(command: str, args, inputs: dict, tolerances: dict) -> dict:
    out = getattr(args, "out", None)
    return {
        "command": command,
        "inputs": {k: v for k, v in sorted(inputs.items()) if v is not None},
        "seed": getattr(args, "seed", None),
        "tolerances": tolerances,
        "artifact_version": __version__,
        "outputs": [out] if out else [],
    }


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(report: dict, out: str | None) -> None:
    _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", out)


def _verdict_exit(verdict: str, expect: str | None) -> int:
    if expect is None:
        return EXIT_OK
    return EXIT_OK if verdict == expect else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# construct


def cmd_construct(args) -> int:
    from .division import DivisionAlgebra
    from .nilpotent import build_hn, build_hprime

    if args.family in ("hn", "hprime") and args.algebra is None:
        raise ValueError("--algebra is required for hn/hprime")
    if args.family == "hn":
        if args.n is None:
            raise ValueError("--n is required for hn")
        alg = build_hn(DivisionAlgebra[args.algebra], args.n)
    elif args.family == "hprime":
        if args.p is None or args.q is None:
            raise ValueError("--p and --q are required for hprime")
        alg = build_hprime(DivisionAlgebra[args.algebra], args.p, args.q)
    else:
        if args.m is None:
            raise ValueError("--m is required for clifford")
        from .clifford import build_htype_from_clifford

        alg = build_htype_from_clifford(args.m, args.k)
    save_algebra(alg, args.out)
    print(f"wrote {args.out}: {alg.name} dim_v={alg.dim_v} dim_z={alg.dim_z}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# check


def cmd_check(args) -> int:
    tests = [t for t in args.tests.split(",") if t]
    if not tests:
        raise ValueError("empty test set")
    for t in tests:
        if t not in CHECK_TESTS:
            raise ValueError(f"unknown test {t!r}; choose from {CHECK_TESTS}")
    if "j2" in tests and args.seed is None:
        raise ValueError("--seed is required for the j2 test")
    from .nilpotent import is_nonsingular, is_type_h

    alg = load_algebra(getattr(args, "in"))

    results: dict[str, dict] = {}
    for t in tests:
        if t == "jacobi":
            # Structural certificate, constant time: a GradedNilpotent is
            # 2-step with central z (its one bracket is the antisymmetric
            # v x v -> z tensor, validated when the algebra is built), so
            # every double bracket [[x, y], w] lies in [z, n] = 0.
            results[t] = {"verdict": "pass"}
        elif t == "typeh":
            cert = is_type_h(alg)
            results[t] = {"verdict": "pass" if cert.holds else "fail",
                          "certificate": cert.certificate}
        elif t == "nonsingular":
            res = is_nonsingular(alg)
            verdict = {True: "pass", False: "fail", None: "undetermined"}[res.verdict]
            results[t] = {"verdict": verdict, "certificate": res.certificate}
        else:
            from . import boundary as bnd

            res = bnd.j2_test(alg, sample_count=args.samples, tol=1e-8,
                              seed=args.seed)
            results[t] = {"verdict": "pass" if res.holds else "fail",
                          "vacuous": res.vacuous,
                          "max_residual": res.max_residual}
    all_pass = all(r["verdict"] == "pass" for r in results.values())
    report = {
        "algebra": alg.name,
        "operation": "check",
        "tests": results,
        "all_pass": all_pass,
        "seed": args.seed,
        "manifest": _manifest("check", args,
                              {"in": getattr(args, "in"), "tests": args.tests,
                               "samples": args.samples},
                              {"j2_residual": 1e-8}),
    }
    _emit_json(report, args.out)
    expect = args.expect or "pass"
    return EXIT_OK if (all_pass == (expect == "pass")) else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# prolong


def cmd_prolong(args) -> int:
    from .symmetry import tanaka_prolong

    alg = load_algebra(getattr(args, "in"), args.budget)
    result = tanaka_prolong(alg, max_degree=args.max_degree,
                            arithmetic=args.arithmetic, budget=args.budget)
    verdict = "trivial" if result.trivial else "nontrivial"
    report = result.to_json_dict()
    report["verdict"] = verdict
    report["manifest"] = _manifest(
        "prolong", args,
        {"in": getattr(args, "in"), "max_degree": args.max_degree,
         "arithmetic": args.arithmetic, "budget": result.budget}, {})
    _emit_json(report, args.out)
    return _verdict_exit(verdict, args.expect)


# ---------------------------------------------------------------------------
# table


def cmd_table(args) -> int:
    from . import catalog

    # checksum-verified; DatasetError on corruption. The parse is cached, so
    # the rows that verify_all reads through table_rows() are the same read.
    version, raw_rows = catalog.load_table()
    if args.dump:
        if args.format == "csv":
            _emit(catalog.dump_csv(raw_rows), args.out)
        else:
            _emit_json({"version": version, "rows": raw_rows,
                        "manifest": _manifest("table", args, {"mode": "dump"}, {})},
                       args.out)
        return EXIT_OK

    summary = catalog.verify_all(max_dim=args.max_dim)
    if args.format == "csv":
        _emit(summary.to_csv(), args.out)
    else:
        report = summary.to_report()
        report["manifest"] = _manifest("table", args,
                                       {"mode": "verify", "max_dim": args.max_dim}, {})
        _emit_json(report, args.out)
    return EXIT_OK if summary.all_pass else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# boundary


def cmd_boundary(args) -> int:
    experiment = args.experiment
    if args.samples == 0 and experiment in ("cayley-probe", "distribution"):
        raise ValueError(f"--samples must be at least 1 for {experiment}")
    if args.samples is not None and experiment == "limiting-plane":
        raise ValueError("--samples does not apply to limiting-plane")
    if args.expect is not None and args.expect not in EXPERIMENTS[experiment]:
        raise ValueError(f"--expect for {experiment} must be one of "
                         f"{', '.join(EXPERIMENTS[experiment])}, got {args.expect!r}")
    from . import boundary as bnd

    alg = load_algebra(getattr(args, "in"))
    # each experiment's default sample count is its library default
    sized = {} if args.samples is None else {"sample_count": args.samples}
    if experiment == "cayley-probe":
        report = bnd.cayley_probe(alg, seed=args.seed, **sized)
    elif experiment == "distribution":
        report = bnd.distribution_experiment(alg, seed=args.seed, **sized)
    elif experiment == "j2":
        report = bnd.j2_test(alg, seed=args.seed, **sized).to_report()
    else:  # limiting-plane
        search = bnd.find_j2_violation(alg, seed=args.seed)
        if search.witness is None:
            report = search.to_report()
        else:
            report = bnd.limiting_plane_experiment(
                alg, search.witness, seed=args.seed).to_report()

    report["manifest"] = _manifest(
        "boundary", args,
        {"in": getattr(args, "in"), "experiment": experiment,
         "samples": args.samples}, report["tolerances"])
    _emit_json(report, args.out)
    return _verdict_exit(report["verdict"], args.expect)


# ---------------------------------------------------------------------------
# parser


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="htype",
        description="Construct and analyze H-type algebras of division-algebra type.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build an algebra and write its JSON")
    p.add_argument("--family", required=True, choices=["hn", "hprime", "clifford"])
    p.add_argument("--algebra", choices=["R", "C", "H", "O"])
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("check", help="run structural checks on an algebra file")
    p.add_argument("--in", required=True)
    p.add_argument("--tests", required=True,
                   help="comma-separated subset of " + ",".join(CHECK_TESTS))
    p.add_argument("--samples", type=nonnegative_int, default=200)
    p.add_argument("--seed", type=nonnegative_int)
    p.add_argument("--expect", choices=["pass", "fail"])
    p.add_argument("--out")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("prolong", help="compute the Tanaka prolongation")
    p.add_argument("--in", required=True)
    p.add_argument("--max-degree", type=int, default=3)
    p.add_argument("--arithmetic", choices=["exact", "float64"], default="exact")
    p.add_argument("--budget", type=int)
    p.add_argument("--expect", choices=["trivial", "nontrivial"])
    p.add_argument("--out")
    p.set_defaults(func=cmd_prolong)

    p = sub.add_parser("table", help="verify or dump the parabolic catalog")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--verify", action="store_true")
    mode.add_argument("--dump", action="store_true")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--max-dim", type=nonnegative_int, default=500)
    p.add_argument("--out")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("boundary", help="run a boundary-geometry experiment")
    p.add_argument("--in", required=True)
    p.add_argument("--experiment", required=True, choices=list(EXPERIMENTS))
    p.add_argument("--seed", type=nonnegative_int, required=True)
    p.add_argument("--samples", type=nonnegative_int)
    p.add_argument("--expect")
    p.add_argument("--out")
    p.set_defaults(func=cmd_boundary)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the usage message
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (HTypeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
