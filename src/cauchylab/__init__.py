"""Desk-scale numerical laboratory for the Cauchy integral on Lipschitz
curves, its commutator with a multiplication symbol, and the oscillation
and compactness diagnostics that quantify when that commutator is
bounded or compact."""

from .curve import LipschitzCurve, ProfileKind, eval_A, verify_lipschitz
from .errors import GridAlignmentError, InputError, SingularityError
from .kernel import (
    CauchyKernel,
    check_size,
    check_smoothness,
    eval_kernel,
    kernel_modulus,
    random_size_sweep,
    random_smoothness_sweep,
)
from .operator import apply_on_window, pv_values, truncated_values
from .bmo import (
    IntervalSweep,
    MedianResult,
    OscillationTable,
    VmoProfile,
    average,
    bmo_norm,
    dyadic_sweep,
    mean_deviation,
    mean_oscillation,
    median,
    oscillation_table,
    vmo_profile,
)
from .commutator import (
    HomogeneityCase,
    HomogeneityConfig,
    apply_commutator,
    commutator_norm_lower,
    commutator_values,
    homogeneity_check,
    make_homogeneity_case,
)
from .compactness import (
    FkReport,
    WitnessCase,
    WitnessConfig,
    WitnessEngineConfig,
    WitnessReport,
    choose_a2,
    equicontinuity_terms,
    far_away_sequence,
    fk_diagnose,
    large_scale_sequence,
    small_scale_sequence,
    tail_decay_check,
    witness_separation,
)
from .reports import BoundReport, write_report
from .sampling import (
    Annulus,
    Interval,
    SampledFunction,
    function_from_csv,
    function_to_csv,
    lp_norm,
    sample,
    sample_on,
    shift,
)
from .testfn import (
    AnnulusBoundReport,
    AnnulusConfig,
    Side,
    TestFunction,
    annulus_ladder_reports,
    build_test_function,
    check_invariants,
    verify_annulus_lower,
    verify_annulus_upper,
    verify_intermediate_bounds,
)

__version__ = "0.1.0"
