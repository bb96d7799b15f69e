"""skewbrace: finite skew braces, their biquandles, and link coloring invariants.

Validate structure tables, derive biquandle operations, parse signed Gauss
codes, enumerate colorings, and compute the counting invariant together
with its two polynomial enhancements.

The public names are exported lazily (PEP 562): `import skewbrace` loads
no submodule and not numpy, and the first access to a name, by
`skewbrace.X`, `from skewbrace import X` or `import *`, imports the one
submodule `_EXPORTS` maps it to and keeps the value here.
"""

from __future__ import annotations

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "OperationTable": "tables",
    "FiniteGroup": "tables",
    "SkewBrace": "tables",
    "ValidationError": "tables",
    "NotAssociative": "tables",
    "NoIdentity": "tables",
    "NoInverse": "tables",
    "DistributiveLawFails": "tables",
    "IdentityMismatch": "tables",
    "validate_group": "tables",
    "validate_skew_brace": "tables",
    "is_star_commutative": "tables",
    "parse_brace_file": "tables",
    "format_brace_file": "tables",
    "load_brace_file": "tables",
    "Biquandle": "biquandle",
    "AxiomReport": "biquandle",
    "AxiomViolation": "biquandle",
    "derive_biquandle": "biquandle",
    "derived_biquandle": "coloring",
    "verify_biquandle_axioms": "biquandle",
    "yb_map": "biquandle",
    "yb_map_inverse": "biquandle",
    "r_map": "biquandle",
    "is_involutive": "tables",
    "EmptyGenerators": "closures",
    "group_closure": "closures",
    "biquandle_closure": "closures",
    "ideal_closure": "closures",
    "is_ideal": "closures",
    "enumerate_ideals": "closures",
    "LinkDiagram": "gauss",
    "SemiarcSystem": "gauss",
    "GaussCodeError": "gauss",
    "GaussSyntaxError": "gauss",
    "CrossingUsedWrong": "gauss",
    "SignMismatch": "gauss",
    "parse_gauss_code": "gauss",
    "format_gauss_code": "gauss",
    "build_constraints": "gauss",
    "parse_link_file": "gauss",
    "InvalidLocation": "moves",
    "apply_r1": "moves",
    "apply_r2": "moves",
    "gap_locations": "moves",
    "random_move": "moves",
    "random_diagram_walk": "moves",
    "enumerate_colorings": "coloring",
    "counting_invariant": "coloring",
    "brute_force_colorings": "coloring",
    "SearchTooLarge": "coloring",
    "Polynomial2": "invariants",
    "Polynomial1": "invariants",
    "ExponentProfile": "invariants",
    "sb_polynomial": "invariants",
    "ideal_polynomial": "invariants",
    "both_polynomials": "invariants",
    "specialize": "invariants",
    "exponent_profile": "invariants",
    "move_invariance_trials": "invariants",
    "bundled_brace_names": "bundled",
    "load_bundled_brace": "bundled",
    "bundled_links": "bundled",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
