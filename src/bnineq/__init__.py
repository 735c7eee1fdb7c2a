"""Numerical study of the Benatti-Narnhofer entanglement entropy
inequality on four-factor pure states.

The library builds the family of states for which the inequality fails,
evaluates both sides for any Schmidt decomposition across the
{1,2} | {3,4} split, and searches the decomposition freedom of degenerate
Schmidt spectra for the largest right-hand side.
"""

from .inequality import (
    ADDITIVITY_SPLIT,
    FourFactorState,
    GapReport,
    bell_basis,
    bn_gap,
    bn_lhs,
    bn_rhs,
    canonical_counterexample,
    deformed_counterexample,
    entangled_decomposition,
    maximize_rhs,
    product_decomposition,
)
from .sampling import (
    SampleRecord,
    ScanReport,
    derive_seed,
    haar_state,
    haar_unitary,
    scan,
)
from .schmidt import (
    BipartiteSplit,
    SchmidtDecomposition,
    degenerate_blocks,
    schmidt_decompose,
    verify_decomposition,
)
from .spectra import (
    Spectrum,
    hermitian_eigen,
    von_neumann_entropy,
)
from .tensor import (
    DensityMatrix,
    FactorShape,
    InputError,
    NumericalError,
    PureState,
    load_state,
    partial_trace,
    partial_trace_naive,
    save_state,
    state_to_document,
)

__all__ = [
    "ADDITIVITY_SPLIT",
    "BipartiteSplit",
    "DensityMatrix",
    "FactorShape",
    "FourFactorState",
    "GapReport",
    "InputError",
    "NumericalError",
    "PureState",
    "SampleRecord",
    "ScanReport",
    "SchmidtDecomposition",
    "Spectrum",
    "bell_basis",
    "bn_gap",
    "bn_lhs",
    "bn_rhs",
    "canonical_counterexample",
    "deformed_counterexample",
    "degenerate_blocks",
    "derive_seed",
    "entangled_decomposition",
    "haar_state",
    "haar_unitary",
    "hermitian_eigen",
    "load_state",
    "maximize_rhs",
    "partial_trace",
    "partial_trace_naive",
    "product_decomposition",
    "save_state",
    "scan",
    "schmidt_decompose",
    "state_to_document",
    "verify_decomposition",
    "von_neumann_entropy",
]

__version__ = "0.1.0"
