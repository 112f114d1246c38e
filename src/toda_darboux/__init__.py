"""Darboux factorizations and Backlund transformations of banded
Hessenberg matrices, and the lattice flows they intertwine."""

from .banded import (
    Banded,
    BandedHessenberg,
    ShapeError,
    graded_scale,
    multiply,
    multiply_chain,
    random_hessenberg,
    residual,
)
from .lu import SingularLeadingMinor, lu_factorize
from .darboux import (
    DarbouxFactors,
    GammaTable,
    ParameterSet,
    PeelBreakdown,
    SamplingFailed,
    TableBreakdown,
    assemble_transform,
    backlund_entry,
    darboux_factorization,
    darboux_factorize,
    enumerate_indices,
    enumerate_indices_tilde,
    factors_to_table,
    hyperplane_determinant,
    peel,
    sample_parameters,
    table_fill,
)
from .lattice import (
    BlowUp,
    InsufficientSamples,
    ResidualReport,
    Trajectory,
    evolve_kdv,
    evolve_toda,
    kdv_rhs,
    reconstruct_transform,
    theorem1_diagram,
    toda_rhs,
    verify_kdv,
    verify_toda,
)

__version__ = "0.1.0"
