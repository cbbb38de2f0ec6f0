"""Validation algorithms for exact and approximate dependencies.

The centre of the paper is Algorithm 2
(:func:`validate_aoc_optimal`): validating an approximate order
compatibility by computing, per equivalence class of the context, a longest
non-decreasing subsequence (LNDS) of the ``B`` projection after sorting by
``[A ASC, B ASC]``.  The complement of the LNDS is a *minimal* removal set
(Theorem 3.3) and the runtime ``O(n log n)`` is optimal (Theorem 3.4).

Algorithm 1 (:func:`validate_aoc_iterative`) is the greedy baseline the
paper improves on: repeatedly remove the tuple with the most swaps.  It is
quadratic in the class size and may overestimate the removal set.

The remaining validators cover the other candidate types handled by the
discovery framework: exact OCs, exact OFDs, approximate OFDs (the TANE
``g3`` measure) and the list-based / canonical OD extensions of Section 3.3.
"""

from repro.validation.result import ValidationResult
from repro.validation.lnds import (
    lis_indices,
    lis_length,
    lnds_indices,
    lnds_length,
)
from repro.validation.inversions import (
    FenwickTree,
    count_inversions,
    per_position_swap_counts,
)
from repro.validation.exact_oc import validate_exact_oc
from repro.validation.exact_ofd import validate_exact_ofd
from repro.validation.approx_ofd import validate_aofd
from repro.validation.approx_oc_optimal import (
    optimal_removal_rows,
    validate_aoc_optimal,
)
from repro.validation.approx_oc_iterative import (
    iterative_removal_rows,
    validate_aoc_iterative,
)
from repro.validation.approx_od import (
    validate_aod_optimal,
    validate_list_aod,
)
from repro.validation.bidirectional import best_polarity, validate_aboc_optimal

__all__ = [
    "FenwickTree",
    "ValidationResult",
    "best_polarity",
    "count_inversions",
    "validate_aboc_optimal",
    "iterative_removal_rows",
    "lis_indices",
    "lis_length",
    "lnds_indices",
    "lnds_length",
    "optimal_removal_rows",
    "per_position_swap_counts",
    "validate_aoc_iterative",
    "validate_aoc_optimal",
    "validate_aod_optimal",
    "validate_aofd",
    "validate_exact_oc",
    "validate_exact_ofd",
    "validate_list_aod",
]
