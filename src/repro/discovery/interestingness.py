"""Interestingness scoring of discovered dependencies (Figure 1, box 4).

The paper ranks discovered AODs with the interestingness measure introduced
in the FASTOD line of work and reports (Exp-6) that its qualitative example
AOCs rank at the top.  The precise formula is not restated in this paper, so
we implement a documented surrogate with the same monotonicity properties
the paper relies on:

* dependencies with *smaller contexts* (lower lattice levels) score higher —
  Exp-5's "dependencies found in lower levels of the lattice are likely to
  be more interesting";
* dependencies whose context groups cover more tuples (larger, fewer
  equivalence classes) score higher — a dependency that only constrains a
  scattering of two-tuple groups says little about the data;
* among equals, a smaller approximation factor scores higher.

The score is in ``(0, 1]``.
"""

from __future__ import annotations


def context_coverage(grouped_rows: int, num_rows: int) -> float:
    """Fraction of tuples that live in non-singleton context classes, from
    the context's grouped-row count
    (:meth:`~repro.dataset.partition.PartitionCache.grouped_rows`).

    An empty context has a single class covering every tuple (coverage 1).
    """
    if num_rows == 0:
        return 0.0
    return min(1.0, grouped_rows / num_rows)


def interestingness_score(
    context_size: int,
    coverage: float,
    approximation_factor: float = 0.0,
) -> float:
    """Combine context size, coverage and approximation factor into a score.

    ``score = coverage / (1 + context_size) * (1 - approximation_factor/2)``

    The factor-of-two damping on the approximation term keeps an AOC with a
    10% approximation factor within 5% of the score of the corresponding
    exact OC, matching the paper's stance that mild approximation does not
    make a dependency less interesting (it often makes it more general).
    """
    if coverage < 0 or coverage > 1:
        raise ValueError(f"coverage must be in [0, 1], got {coverage}")
    if approximation_factor < 0 or approximation_factor > 1:
        raise ValueError(
            f"approximation factor must be in [0, 1], got {approximation_factor}"
        )
    base = coverage / (1.0 + context_size)
    return base * (1.0 - approximation_factor / 2.0)
