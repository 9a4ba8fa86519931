"""Exact-arithmetic toolkit for lattice-simplex volume bounds.

Importing the package loads none of its modules: each exported name is
imported from its module on first access (PEP 562), so a CLI command pays
only for the modules it runs.
"""

from importlib import import_module

_EXPORTS = {
    "bounds": (
        "ApplicabilityError", "EqualityCertificate", "FacetBoundResult",
        "Lattice", "PikhurkoResult", "ProofTrace", "VdcResult",
        "best_facet_bound", "equality_certificate", "facet_bound",
        "general_pk_bound", "pikhurko", "proof_trace", "tau", "vdc_check",
    ),
    "constructions": (
        "exceptional_p31", "inscribed_cube_scale", "lift", "sylvester",
        "t_simplex", "zpw_simplex",
    ),
    "exact": ("LinAlgError", "det", "hnf", "primitive_direction", "solve"),
    "geometry": (
        "DegeneracyError", "EnumerationError", "Face", "HalfspaceSystem",
        "HullMembershipError", "LatticePolygon", "LatticeSimplex",
        "VerificationError", "barycentric", "collinear", "facets", "hrep",
        "interior_points", "polygon_counts", "qualifying_facets",
        "relint_points", "volume",
    ),
    "io": ("DataIntegrityError", "ingest_census", "outlook_report"),
    "survey": (
        "TriangleCensus", "enumerate_triangles", "filter_one_relint_facet",
        "verify_theorem_main_2d",
    ),
    "text": (
        "ParseError", "SimplexRecord", "format_simplex", "parse_simplices",
    ),
    "unimodular": (
        "AffineUnimodular", "CanonicalForm", "apply", "canonical_form",
        "equivalent", "random_unimodular",
    ),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"
SCHEMA_VERSION = 2  # of the JSON payloads, as their "schemaVersion"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
