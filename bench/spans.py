"""Span recorder and per-layer metrics, installed from outside the package.

Tracing wraps each module's public entry points as they are bound in the
modules that call them (for example ``htype.symmetry.nullspace`` as well as
``htype.clifford.nullspace``), so no file under ``src/`` changes.  A span
holds a name, start, end, parent index and a few attributes; spans stay in
memory until the run ends.

``layer_metrics`` turns one round's spans into the per-layer metrics named
in BENCHMARK.json.  A ``.s`` metric sums the outermost spans of its name
(a span nested in one of the same name is not counted twice); a ``.self_s``
metric subtracts the direct children.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

# Solver spans whose order inside a prolongation span labels the degree.
SOLVERS = ("linalg.nullspace", "numpy.svd")
DEGREES = 4


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"name": name, "start": 0.0, "end": 0.0,
               "parent": self._stack[-1] if self._stack else None,
               "attrs": attrs}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        rec["start"] = time.perf_counter()
        try:
            yield rec["attrs"]
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def adopt(self, child_spans: list[dict]) -> None:
        """Attach spans recorded in a child process under the open span.

        perf_counter is CLOCK_MONOTONIC on Linux, shared by all processes,
        so the child's start and end times need no offset.
        """
        base = len(self.spans)
        top = self._stack[-1] if self._stack else None
        for rec in child_spans:
            parent = rec["parent"]
            self.spans.append(dict(rec, parent=top if parent is None else base + parent))


def _nnz(rows) -> int:
    return sum(1 for row in rows for x in row if x)


def _after_nullspace(attrs, args, result):
    rows, ncols = args[0], args[1]
    attrs.update(rows=len(rows), cols=ncols, nnz=_nnz(rows),
                 rank=ncols - result.dimension, method=result.method)


def _after_svd(attrs, args, result):
    arrays = result if isinstance(result, tuple) else (result,)
    attrs.update(rows=int(args[0].shape[0]),
                 out_bytes=sum(int(a.nbytes) for a in arrays))


def _after_search(attrs, args, result):
    attrs.update(evals=result.evaluations, restarts=result.restarts_used)


def _after_verify_all(attrs, args, result):
    attrs.update(instances=len(result.reports))


def _wrap(tracer: Tracer, fn, name: str, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as attrs:
            result = fn(*args, **kwargs)
        if after is not None:
            # a span of its own, so that no enclosing self_s counts the hook
            with tracer.span("trace.hook"):
                after(attrs, args, result)
        return result
    return wrapper


def install(tracer: Tracer) -> None:
    """Replace each traced entry point in every module that binds it."""
    import numpy
    import htype
    from htype import boundary, catalog, cli, clifford, linalg, nilpotent
    from htype import serialization, symmetry

    # (span name, function, modules whose binding is replaced, post-call hook)
    table = [
        ("linalg.nullspace", linalg.nullspace, (symmetry, clifford), _after_nullspace),
        ("numpy.svd", numpy.linalg.svd, (numpy.linalg,), _after_svd),
        ("symmetry.prolong", symmetry.tanaka_prolong, (htype, symmetry, cli), None),
        ("symmetry.derivations", symmetry.graded_derivations, (htype, symmetry), None),
        ("symmetry.derivations", symmetry.full_derivations, (htype, symmetry), None),
        ("nilpotent.build", nilpotent.build_hn, (htype, nilpotent, cli), None),
        ("nilpotent.build", nilpotent.build_hprime, (htype, nilpotent, cli), None),
        ("nilpotent.build", nilpotent.random_two_step, (nilpotent,), None),
        ("nilpotent.is_type_h", nilpotent.is_type_h, (htype, nilpotent, cli), None),
        ("boundary.is_type_h", nilpotent.is_type_h, (boundary,), None),
        ("nilpotent.is_nonsingular", nilpotent.is_nonsingular, (htype, nilpotent, cli), None),
        ("nilpotent.iso", nilpotent.check_symplectic_isomorphic, (htype, nilpotent), None),
        ("clifford.build", clifford.build_htype_from_clifford, (htype, clifford, cli), None),
        ("catalog.verify_all", catalog.verify_all, (htype, catalog, cli), _after_verify_all),
        ("boundary.j2_test", boundary.j2_test, (htype, boundary), None),
        ("boundary.search", boundary.find_j2_violation, (htype, boundary), _after_search),
        ("boundary.limiting_plane", boundary.limiting_plane_experiment, (htype, boundary), None),
        ("boundary.cayley_probe", boundary.boundary_identity_error, (htype, boundary), None),
        ("boundary.cayley_probe", boundary.round_trip_error, (htype, boundary), None),
        ("boundary.distribution", boundary.boundary_distribution, (htype, boundary), None),
        ("boundary.distribution", boundary.sphere_distribution, (htype, boundary), None),
        ("boundary.distribution", boundary.translation_invariance_check, (boundary,), None),
        ("serialization.load", serialization.load_algebra, (cli,), None),
    ]
    for name, fn, modules, after in table:
        wrapped = _wrap(tracer, fn, name, after)
        for mod in modules:
            for attr in [a for a, value in vars(mod).items() if value is fn]:
                setattr(mod, attr, wrapped)


# ---------------------------------------------------------------------------
# aggregation

LAYER_METRICS = {
    "linalg.nullspace.calls": "count",
    "linalg.nullspace.s": "s",
    "linalg.nullspace.rows": "count",
    "linalg.nullspace.entries": "count",
    "linalg.nullspace.nnz": "count",
    "linalg.nullspace.rank": "count",
    "linalg.row_yield": "ratio",
    "linalg.method.fraction": "count",
    "linalg.method.modp": "count",
    "linalg.method.modp-crt": "count",
    "linalg.fraction.s": "s",
    "linalg.modp.s": "s",
    "symmetry.prolong.calls": "count",
    "symmetry.prolong.s": "s",
    "symmetry.prolong.self_s": "s",
    **{f"symmetry.prolong.deg{k}.s": "s" for k in range(DEGREES)},
    **{f"symmetry.prolong.deg{k}.rows": "count" for k in range(DEGREES)},
    "symmetry.derivations.calls": "count",
    "symmetry.derivations.s": "s",
    "symmetry.derivations.self_s": "s",
    "numpy.svd.calls": "count",
    "numpy.svd.s": "s",
    "numpy.svd.out_bytes": "bytes",
    "nilpotent.build.s": "s",
    "nilpotent.is_type_h.calls": "count",
    "nilpotent.is_type_h.s": "s",
    "nilpotent.is_nonsingular.s": "s",
    "nilpotent.is_nonsingular.self_s": "s",
    "nilpotent.iso.s": "s",
    "clifford.build.calls": "count",
    "clifford.build.s": "s",
    "boundary.j2_test.s": "s",
    "boundary.search.s": "s",
    "boundary.search.evals": "count",
    "boundary.search.restarts": "count",
    "boundary.limiting_plane.s": "s",
    "boundary.cayley_probe.s": "s",
    "boundary.distribution.s": "s",
    "boundary.is_type_h.s": "s",
    "catalog.verify_all.s": "s",
    "catalog.instances": "count",
    "serialization.load.s": "s",
    **{f"cli.{cmd}.s": "s" for cmd in ("construct", "check", "prolong", "table", "boundary")},
}


def _dur(rec) -> float:
    return rec["end"] - rec["start"]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one round; a layer the round never enters reads 0."""
    children: dict[int, list[int]] = {}
    for i, rec in enumerate(spans):
        if rec["parent"] is not None:
            children.setdefault(rec["parent"], []).append(i)

    def ancestors(i):
        p = spans[i]["parent"]
        while p is not None:
            yield spans[p]
            p = spans[p]["parent"]

    def self_time(i):
        return _dur(spans[i]) - sum(_dur(spans[c]) for c in children.get(i, ()))

    def descendants(i):
        for c in children.get(i, ()):
            yield c
            yield from descendants(c)

    out = {name: 0.0 for name in LAYER_METRICS}
    for i, rec in enumerate(spans):
        name, attrs = rec["name"], rec["attrs"]
        outer = all(a["name"] != name for a in ancestors(i))
        if name == "symmetry.derivations":
            # g0 of an exact prolongation is counted under the prolongation
            outer = outer and all(a["name"] != "symmetry.prolong" for a in ancestors(i))
        if outer and f"{name}.s" in out:
            out[f"{name}.s"] += _dur(rec)
        if name == "linalg.nullspace":
            out["linalg.nullspace.calls"] += 1
            out["linalg.nullspace.rows"] += attrs["rows"]
            out["linalg.nullspace.entries"] += attrs["rows"] * attrs["cols"]
            out["linalg.nullspace.nnz"] += attrs["nnz"]
            out["linalg.nullspace.rank"] += attrs["rank"]
            out[f"linalg.method.{attrs['method']}"] += 1
            kind = "fraction" if attrs["method"] == "fraction" else "modp"
            out[f"linalg.{kind}.s"] += _dur(rec)
        elif name == "numpy.svd":
            out["numpy.svd.calls"] += 1
            out["numpy.svd.out_bytes"] += attrs["out_bytes"]
        elif name == "symmetry.prolong" and outer:
            out["symmetry.prolong.calls"] += 1
            out["symmetry.prolong.self_s"] += self_time(i)
            solvers = [d for d in descendants(i) if spans[d]["name"] in SOLVERS]
            for k, d in enumerate(sorted(solvers, key=lambda d: spans[d]["start"])[:DEGREES]):
                out[f"symmetry.prolong.deg{k}.s"] += _dur(spans[d])
                out[f"symmetry.prolong.deg{k}.rows"] += spans[d]["attrs"]["rows"]
        elif name == "symmetry.derivations" and outer:
            out["symmetry.derivations.calls"] += 1
            out["symmetry.derivations.self_s"] += self_time(i)
        elif name == "nilpotent.is_type_h":
            out["nilpotent.is_type_h.calls"] += 1
        elif name == "nilpotent.is_nonsingular":
            out["nilpotent.is_nonsingular.self_s"] += self_time(i)
        elif name == "clifford.build":
            out["clifford.build.calls"] += 1
        elif name == "boundary.search":
            out["boundary.search.evals"] += attrs["evals"]
            out["boundary.search.restarts"] += attrs["restarts"]
        elif name == "catalog.verify_all":
            out["catalog.instances"] += attrs["instances"]
    rows = out["linalg.nullspace.rows"]
    out["linalg.row_yield"] = out["linalg.nullspace.rank"] / rows if rows else 0.0
    return out


def import_metrics(importtime_stderr: str) -> dict[str, float]:
    """Self import time per top-level package, from ``python -X importtime``."""
    by_pkg: dict[str, float] = {}
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _cumulative, module = line[len("import time:"):].split("|")
        top = module.strip().split(".")[0]
        by_pkg[top] = by_pkg.get(top, 0.0) + int(self_us) / 1e6
    return {
        "import.total_s": sum(by_pkg.values()),
        "import.numpy_s": by_pkg.get("numpy", 0.0),
        "import.scipy_s": by_pkg.get("scipy", 0.0),
        "import.sympy_s": by_pkg.get("sympy", 0.0),
        "import.htype_self_s": by_pkg.get("htype", 0.0),
    }
