"""Desk-scale numerical laboratory for the Cauchy integral on Lipschitz
curves, its commutator with a multiplication symbol, and the oscillation
and compactness diagnostics that quantify when that commutator is
bounded or compact."""

from .curve import LipschitzCurve, ProfileKind, eval_A
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
    OscillationTable,
    VmoProfile,
    bmo_norm,
    dyadic_sweep,
    length_suprema,
    mean_deviation,
    mean_oscillation,
    median,
    oscillation_table,
    vmo_profile,
)
from .commutator import (
    apply_commutator,
    commutator_norm_lower,
    commutator_values,
    homogeneity_check,
    unit_images,
)
from .compactness import (
    WitnessCase,
    choose_a2,
    far_away_sequence,
    fk_diagnose,
    large_scale_sequence,
    small_scale_sequence,
    tail_decay_check,
    witness_separation,
)
from .reports import BoundReport, write_report
from .sampling import (
    Interval,
    SampledFunction,
    lp_norm,
    sample,
    sample_on,
    shift,
    stack,
)
from .testfn import (
    TestFunction,
    annulus_ladder_reports,
    build_test_function,
    check_invariants,
    verify_intermediate_bounds,
)

__version__ = "0.1.0"
