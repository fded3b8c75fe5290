"""H-type nilpotent Lie algebras over the real division algebras.

Exact constructors for the two divH families and their Clifford-module
cousins, Tanaka prolongation with a refusal budget, the parabolic
nilradical catalog, and the Cayley/sphere boundary experiments.

The exports are lazy (PEP 562): `import htype` loads no submodule, and
the first use of a name imports the one submodule that defines it, so
building the division-algebra families and certifying them (`is_type_h`,
`is_nonsingular`) never loads numpy. `htype.boundary` and the other
submodules resolve the same way.
"""

import importlib

__version__ = "0.1.0"  # pyproject.toml's version; every CLI report carries it

# submodule -> the public names it exports through the package
_EXPORTS = {
    "boundary": """BallPoint ExtensionVerdict J2Result J2Witness LimitingPlaneReport
        SiegelPoint TangentPlane ViolationSearch boundary_distribution
        boundary_identity_error cayley cayley_inverse cayley_probe
        distribution_experiment extension_verdict find_j2_violation j2_test
        limiting_plane_experiment puncture_point round_trip_error siegel_point
        sphere_distribution""",
    "catalog": """InstantiatedRow RowReport SimpleAlgebraDescriptor TableRow TowerReport
        VerificationSummary default_grid instantiate langlands_annotations
        row_by_name table_rows tower verify_all verify_row""",
    "clifford": "build_htype_from_clifford clifford_generators",
    "division": "DivisionAlgebra Element basis_element conj mul norm_sq random_element",
    "errors": """AlgebraMismatch BudgetExceeded CenterDimensionError ConvergenceError
        CrossValidationError DatasetError DomainError HTypeError StructureError""",
    "nilpotent": """GradedNilpotent bracket build_hn build_hprime
        check_symplectic_isomorphic dims element is_nonsingular is_type_h jmap
        make_custom""",
    "serialization": "load_algebra save_algebra",
    "symmetry": """DerivationSpace ProlongationResult SymmetryExcess full_derivations
        graded_derivations symmetry_excess tanaka_prolong""",
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    if name in _SOURCE:
        value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
        globals()[name] = value  # later lookups skip this hook
        return value
    try:  # a submodule, such as htype.boundary
        return importlib.import_module(f".{name}", __name__)
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{name}":
            raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
