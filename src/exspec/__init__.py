"""Exchangeable random matrices at desk scale: corner de-symmetrization,
second singular values of doubly regular matrices, degree-profile tests,
diagonal-scaling reductions, and exact subset-sum moment oracles."""

from .core import (
    CornerMatrix,
    Permutation,
    SquareMatrix,
    apply_permutation,
    block_decompose,
    column_sums,
    row_sums,
    top_right_corner,
)
from .degrees import DegreeProfile, RegularityParams, corner_degree_event, deg_membership
from .ensembles import EnsembleSpec, sample
from .scaling import ScalingReport, scaling_reduction, unit_margin_svd_facts
from .spectra import (
    SingularSpectrum,
    centered_offdiag,
    perron_check,
    s2_via_centering,
    second_singular,
    singular_values,
    spectral_norm,
)
from .subset import SubsetSumProblem, enumerate_exact, fourth_moment_bound, second_moment_exact
from .tails import (
    TailCurve,
    block_bound_curve,
    corner_capture_fraction,
    corner_degree_event_frequency,
    norm_tail_curve,
    s2_tail_curve,
)

__version__ = "0.1.0"
