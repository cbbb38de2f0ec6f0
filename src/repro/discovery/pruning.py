"""Axiom-based pruning rules (Figure 1, box 2).

The set-based framework avoids validating candidates that are either
*implied* by dependencies already found at lower lattice levels or that can
never be minimal.  The rules implemented here follow the FASTOD axioms as
used by the paper's framework:

1. **OFD minimality** — once ``X \\ {A}: [] ↦→ A`` is found valid, ``A`` is
   removed from the node's OFD candidate set, so no superset context is ever
   reported for the same right-hand side (it would not be minimal).
2. **OFD right-hand-side pruning** (exact only) — TANE's rule: when
   ``X \\ {A} -> A`` holds exactly, every attribute outside ``X`` is removed
   from the candidate set as well, because any FD it would yield at a
   superset is implied.
3. **OC minimality** — once ``X \\ {A, B}: A ~ B`` is found valid, the pair
   is removed from the node's OC candidate set, so supersets (weaker
   statements with larger contexts) are never reported.
4. **Constant-side pruning** — if ``A`` (or ``B``) is known to be constant
   in the context ``X \\ {A, B}`` (an OFD found one level below), then the
   OC ``X \\ {A, B}: A ~ B`` holds trivially and is not reported; the pair
   is pruned so that supersets skip it too.
5. **Node deletion** — a node with no remaining candidates of either kind is
   dropped, which stops the prefix join from ever generating its supersets.

Rules 1-4 are local predicates used by the engine; rule 5 lives in the
engine's level loop.  Contexts are attribute-set bitmasks and attributes
are bit positions (see :class:`repro.discovery.lattice.AttributeBits`), so
every rule is a handful of integer set probes.
"""

from __future__ import annotations

from typing import Collection, Dict, Set


class KnowledgeBase:
    """Dependencies discovered so far, indexed for pruning lookups: per
    right-hand-side bit, the context masks of its valid OFDs."""

    def __init__(self) -> None:
        self._valid_ofds: Dict[int, Set[int]] = {}
        self._num_valid_ofds = 0

    # -- recording -------------------------------------------------------------

    def record_ofd(self, context: int, attribute: int) -> None:
        """Register the valid (A)OFD ``context: [] ↦→ attribute``."""
        contexts = self._valid_ofds.setdefault(attribute, set())
        if context not in contexts:
            contexts.add(context)
            self._num_valid_ofds += 1

    # -- queries used by the pruning rules --------------------------------------

    def valid_contexts(self, attribute: int) -> Collection[int]:
        """The contexts in which ``attribute`` is known to be determined."""
        return self._valid_ofds.get(attribute, ())

    def ofd_known_valid(self, context: int, attribute: int) -> bool:
        """Is ``context: [] ↦→ attribute`` already known to hold (approximately)?"""
        return context in self._valid_ofds.get(attribute, ())

    @property
    def num_valid_ofds(self) -> int:
        return self._num_valid_ofds


def oc_pruned_by_constancy(
    context: int, a: int, b: int, knowledge: KnowledgeBase
) -> bool:
    """Rule 4: the OC is implied when either side is constant in its context.

    If ``context: [] ↦→ A`` holds then within every equivalence class of the
    context all ``A`` values are equal, so any ordering of the class is
    trivially sorted by ``A`` — ``A ~ B`` cannot be violated.  The same holds
    symmetrically for ``B``.  (For approximately-held OFDs the implication
    is approximate as well: the same removal set works, so the OC's
    approximation factor is no larger than the OFD's and the candidate is
    still redundant at the configured threshold.)
    """
    return knowledge.ofd_known_valid(context, a) or knowledge.ofd_known_valid(
        context, b
    )


def ofd_pruned_by_subcontext(
    context: int, attribute: int, knowledge: KnowledgeBase
) -> bool:
    """Rule 1 restated as a predicate: a strictly smaller context already
    determines the attribute, so this candidate cannot be minimal.

    The candidate-set intersection normally takes care of this; the explicit
    check guards the first level at which a context appears and keeps the
    engine robust if candidate bookkeeping is relaxed (e.g. in tests).
    """
    contexts = knowledge.valid_contexts(attribute)
    if not contexts:
        return False
    if context in contexts:
        return True
    rest = context
    while rest:
        low = rest & -rest
        if context ^ low in contexts:
            return True
        rest ^= low
    return False
