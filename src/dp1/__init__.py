"""Exact Picard-lattice arithmetic and signed-count verification for real
degree-1 del Pezzo surfaces."""

from .counting import (
    BClass,
    CountReport,
    b_classes,
    c0_total,
    c2_total,
    c4_total,
    classify_levels,
    classify_roots,
    count_report,
    line_count_identities,
    pair_signed_total,
    signed_sum,
    signed_total,
)
from .lattice import (
    H,
    K,
    L,
    MINUS_2K,
    MINUS_K,
    EnumerationDepthError,
    LatticeError,
    PicClass,
    Sublattice,
    degree,
    enumerate_vectors,
    intersect,
    pic,
    reflect,
)
from .pin import (
    Code,
    cremona_code,
    cremona_imaginary,
    normalize_code,
    qhat_code,
    qhat_vanishing_basis,
)
from .real_forms import (
    DeformationClass,
    LambdaEmbedding,
    bertini_dual,
    bertini_pairs,
    deformation_classes,
    get_class,
    kperp,
    lambda_basis,
    orthogonal_complement,
    saturate,
)
from .report import VerificationRecord, build_records, summarize
from .roots import root_system_type
from .wallcross import (
    DeltaTable,
    SplittingCase,
    VanishingRoot,
    delta_table,
    splittings,
    vanishing_roots,
)

__version__ = "0.1.0"
