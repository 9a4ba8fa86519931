"""Exact-arithmetic toolkit for lattice-simplex volume bounds."""

from .bounds import (
    ApplicabilityError,
    EqualityCertificate,
    FacetBoundResult,
    Lattice,
    PikhurkoResult,
    ProofTrace,
    VdcResult,
    best_facet_bound,
    equality_certificate,
    facet_bound,
    general_pk_bound,
    pikhurko,
    proof_trace,
    qualifying_facets,
    tau,
    vdc_check,
)
from .constructions import (
    exceptional_p31,
    inscribed_cube_scale,
    lift,
    sylvester,
    t_simplex,
    zpw_simplex,
)
from .exact import LinAlgError, det, hnf, primitive_direction, solve
from .geometry import (
    DegeneracyError,
    EnumerationError,
    Face,
    HalfspaceSystem,
    HullMembershipError,
    LatticePolygon,
    LatticeSimplex,
    VerificationError,
    barycentric,
    collinear,
    facets,
    hrep,
    interior_points,
    polygon_counts,
    relint_points,
    volume,
)
from .io import (
    DataIntegrityError,
    ParseError,
    SimplexRecord,
    format_simplex,
    ingest_census,
    outlook_report,
    parse_simplices,
)
from .survey import (
    TriangleCensus,
    enumerate_triangles,
    filter_one_relint_facet,
    verify_theorem_main_2d,
)
from .unimodular import (
    AffineUnimodular,
    CanonicalForm,
    apply,
    canonical_form,
    equivalent,
    random_unimodular,
)

__version__ = "0.1.0"
