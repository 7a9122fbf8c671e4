"""Exact Picard-lattice arithmetic and signed-count verification for real
degree-1 del Pezzo surfaces."""

from .counting import (
    BClass,
    b_classes,
    c0_total,
    c2_total,
    c4_total,
    classify_levels,
    classify_roots,
    count_report,
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
    enumerate_vectors,
    pic,
    reflect,
)
from .pin import (
    Code,
    apply_move,
    qhat_code,
    reachable_codes,
)
from .real_forms import (
    DeformationClass,
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
    delta_table,
    splittings,
    vanishing_roots,
)

__version__ = "0.1.0"
