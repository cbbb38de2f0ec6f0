"""repro — reference reproduction of *Efficient Discovery of Approximate
Order Dependencies* (Karegar et al., EDBT 2021).

The package is organised as follows:

``repro.dataset``
    Columnar relations, schemas, order-preserving dictionary encoding,
    equivalence-class partitions, synthetic workload generators and the
    paper's running-example table.

``repro.dependencies``
    The dependency model: nested orders, list-based order dependencies
    (ODs), canonical order compatibilities (OCs), order functional
    dependencies (OFDs), classic functional dependencies (FDs), the
    canonical mapping between the list-based and set-based representations,
    and swap / split violation semantics.

``repro.validation``
    Validation algorithms.  The paper's contribution is the optimal,
    longest-non-decreasing-subsequence based validator for approximate OCs
    (Algorithm 2, :func:`repro.validation.validate_aoc_optimal`); the
    quadratic iterative validator it replaces (Algorithm 1,
    :func:`repro.validation.validate_aoc_iterative`) is implemented as the
    baseline.  Exact validators and the linear approximate-OFD validator
    are included as well.

``repro.discovery``
    The set-based, level-wise lattice discovery framework (Figure 1 of the
    paper) with axiom pruning, pluggable AOC validators, and
    interestingness ranking.  Exact OD discovery is the special case of an
    approximation threshold of zero.

``repro.applications``
    Downstream uses of discovered dependencies: outlier detection, error
    repair and dataset profiling.

``repro.backend``
    The columnar compute backend for the hot paths (encoding, partitions,
    LNDS validation kernels) in two configurations with identical
    semantics: ``numpy`` (vectorised encoding, native kernels) and the
    reference ``python`` (every fast path off), selected via
    ``--backend`` / ``REPRO_BACKEND`` / :func:`repro.backend.resolve_backend`.

``repro.incremental``
    Incremental maintenance of discovered dependency sets under row
    appends: delta encoding, class patches found from the appended rows
    and per-class repair of memoised validation outcomes (no partition
    is rebuilt until a kernel reads it), after which a warm run
    recounts only what a delta can have changed and diffs the result
    against the request's previous one — byte-identical to cold
    rediscovery (``Profiler.extend`` / ``discover_incremental``,
    ``repro extend``, ``POST /datasets/<name>/append``).
"""

from repro.backend import get_backend, resolve_backend
from repro.dataset import Relation, Schema, Attribute, AttributeType
from repro.dataset.examples import employee_salary_table
from repro.dependencies import (
    FD,
    OFD,
    CanonicalOC,
    CanonicalOD,
    ListOD,
    canonicalize_list_od,
)
from repro.validation import (
    ValidationResult,
    validate_aoc_iterative,
    validate_aoc_optimal,
    validate_aod_optimal,
    validate_aofd,
    validate_exact_oc,
    validate_exact_ofd,
)
from repro.discovery import (
    CancellationToken,
    DiscoveryConfig,
    DiscoveryRequest,
    DiscoveryResult,
    Profiler,
    discover_aods,
    discover_ods,
)

__all__ = [
    "Attribute",
    "AttributeType",
    "get_backend",
    "resolve_backend",
    "CancellationToken",
    "CanonicalOC",
    "CanonicalOD",
    "DiscoveryConfig",
    "DiscoveryRequest",
    "DiscoveryResult",
    "FD",
    "ListOD",
    "OFD",
    "Profiler",
    "Relation",
    "Schema",
    "ValidationResult",
    "canonicalize_list_od",
    "discover_aods",
    "discover_ods",
    "employee_salary_table",
    "validate_aoc_iterative",
    "validate_aoc_optimal",
    "validate_aod_optimal",
    "validate_aofd",
    "validate_exact_oc",
    "validate_exact_ofd",
]

__version__ = "1.1.0"
