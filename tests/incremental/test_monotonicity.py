"""The append monotonicity argument, pinned at the kernel level.

Candidate-set repair rests on one claim (see ``repro.incremental.engine``):
appending rows to a relation never *decreases* a candidate's minimal
removal count, and never turns a failing exact check back into a passing
one — classes only ever gain rows, and every kernel's per-class
contribution is non-decreasing in the class.  These tests exercise the
claim directly on randomly grown classes for every kernel the engine
dispatches.
"""

import random

import pytest

from repro.backend import get_backend

BACKENDS = ["python", "numpy"]


def _random_classes(rng, num_rows):
    rows = list(range(num_rows))
    rng.shuffle(rows)
    classes = []
    while rows:
        size = min(len(rows), rng.randint(2, 6))
        classes.append(sorted(rows[:size]))
        rows = rows[size:]
    return [c for c in classes if len(c) >= 2]


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_removal_counts_never_decrease_under_append(backend_name):
    backend = get_backend(backend_name)
    rng = random.Random(42)
    for _ in range(30):
        old_rows = rng.randint(4, 16)
        grown_rows = old_rows + rng.randint(1, 6)
        a = [rng.randint(0, 5) for _ in range(grown_rows)]
        b = [rng.randint(0, 5) for _ in range(grown_rows)]
        old_classes = _random_classes(rng, old_rows)
        # Grow: each appended row joins an existing class or starts pairing
        # with another appended row; restricted to old rows, every grown
        # class equals an old class (appends never split classes).
        grown_classes = [list(c) for c in old_classes]
        fresh = []
        for row in range(old_rows, grown_rows):
            if grown_classes and rng.random() < 0.7:
                grown_classes[rng.randrange(len(grown_classes))].append(row)
            else:
                fresh.append(row)
        if len(fresh) >= 2:
            grown_classes.append(fresh)
        grown_classes = [sorted(c) for c in grown_classes]

        a_native = backend.to_native(a)
        b_native = backend.to_native(b)
        [(old_count, _)] = backend.oc_optimal_removal_count_batch(
            old_classes, [(a_native, b_native)], None
        )
        [(new_count, _)] = backend.oc_optimal_removal_count_batch(
            grown_classes, [(a_native, b_native)], None
        )
        assert new_count >= old_count

        [(old_ofd, _)] = backend.ofd_removal_batch(old_classes, [a_native], None)
        [(new_ofd, _)] = backend.ofd_removal_batch(
            grown_classes, [a_native], None
        )
        assert new_ofd >= old_ofd

        # Exact checks (counts at limit 0) are monotone too: once broken,
        # never repaired.
        [(_, old_broken)] = backend.oc_optimal_removal_count_batch(
            old_classes, [(a_native, b_native)], 0
        )
        [(_, new_broken)] = backend.oc_optimal_removal_count_batch(
            grown_classes, [(a_native, b_native)], 0
        )
        assert new_broken or not old_broken
        [(_, old_broken)] = backend.ofd_removal_batch(old_classes, [a_native], 0)
        [(_, new_broken)] = backend.ofd_removal_batch(
            grown_classes, [a_native], 0
        )
        assert new_broken or not old_broken
