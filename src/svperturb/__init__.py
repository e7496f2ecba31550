"""Tools for checking singular value and singular subspace perturbation
bounds against sampled low-rank plus noise matrices.

Submodules: matcore (SVD, unitarily invariant norms), subspace (principal
angles, alignment), models (instance generators), bounds (bound evaluators
and reports), resolvent (linearization probes), clustering (spectral
k-means recovery), harness (Monte Carlo driver and CLI).
"""

__version__ = "0.1.0"

from .errors import (
    EvaluationDomainError,
    InvalidInputError,
    InvalidParameterError,
    NumericalFailureError,
)
from .matcore import (
    FROBENIUS,
    NUCLEAR,
    OPERATOR,
    GramTop,
    NormSpec,
    SvdFactors,
    apply_norm,
    gauge,
    gram_spectrum,
    gram_top,
    kyfan,
    leading_svd,
    norm_spec_from_token,
    schatten,
    singular_values,
    svd,
    wedin_certificate,
)
from .subspace import (
    aligned_distance,
    principal_angles,
    procrustes_align,
    residual,
    row_mass,
    sin_theta_norm,
)
from .models import (
    GmmSpec,
    LowRankSpec,
    PerturbationInstance,
    SubmatrixSpec,
    haar_basis,
    low_rank_from_rng,
    perturb,
    plant_submatrices,
    sample_gmm,
)
from .bounds import (
    BoundReport,
    GaussianBoundParams,
    GeneralNoiseParams,
    PreconditionFlags,
    aligned_2inf_bound,
    cross_term_norm,
    gauss_subspace_bound,
    gauss_subspace_simplified,
    gauss_sv_location_check,
    general_subspace_bound,
    general_sv_bounds,
    linear_bilinear_bound,
    matrix_2inf_bound,
    mirsky_check,
    spectral_norm_report,
    two_inf_bound,
    vector_inf_bound,
    wedin_check,
    weighted_corollary_bound,
    weighted_window_bound,
    window_2inf_residual,
    window_sin_theta,
    window_weighted_residual,
)
from .resolvent import (
    ResolventProbe,
    far_field_phi,
    local_law_bound,
    local_law_gap,
    min_abs_z,
    phi_values,
    resolvent_bilinear,
    solve_zj,
)
from .clustering import (
    KMeansConfig,
    Labeling,
    RecoveryResult,
    embedding_gap,
    kmeans,
    match_labels,
    misclassification,
    spectral_embedding,
    spectral_submatrix,
)
from .harness import (
    ExperimentConfig,
    SummaryReport,
    emit_report,
    main,
    run_monte_carlo,
)
from .seeding import derive_seed
