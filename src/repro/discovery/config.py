"""The description of a discovery run: :class:`DiscoveryRequest`.

The engine, the session, the CLI and ``repro serve`` all run this one type,
and results carry it back.  The backend and the thread cap are not part of
it: they are :class:`~repro.discovery.engine.DiscoveryEngine` arguments.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields as _dataclass_fields
from typing import Dict, List, Optional


#: The validator names accepted by :attr:`DiscoveryRequest.validator`.
VALIDATOR_KINDS = ("exact", "optimal", "iterative")


@dataclass(frozen=True)
class DiscoveryRequest:
    """A JSON-serialisable description of one discovery run.

    Requests carry only plain values — no backend instances — so they can
    cross a service boundary unchanged: the CLI, the
    :class:`~repro.discovery.session.Profiler` session API and the
    ``repro serve`` HTTP mode all speak this type.  A request that names
    ``num_workers`` or ``backend`` is refused like any other unknown
    field: the session, and ``repro serve --workers`` for a server, is
    their one owner.

    Attributes
    ----------
    threshold:
        Approximation threshold ``ε`` in ``[0, 1]``.  ``0`` means exact OD
        discovery; the paper's default for AOD experiments is ``0.1`` (10%).
    validator:
        Which AOC validation algorithm to use: ``"optimal"`` (Algorithm 2),
        ``"iterative"`` (Algorithm 1) or ``"exact"`` (linear check, only
        meaningful with ``threshold == 0``).
    attributes:
        Optional subset of attributes to restrict the search to (the paper
        uses the first 10 attributes of each dataset unless stated
        otherwise); no name may repeat.
    max_level:
        Optional cap on the lattice level (attribute-set size) explored.
    time_limit_seconds:
        Optional wall-clock budget in seconds (finite and positive); when
        exceeded the run stops early and the result is marked
        ``timed_out`` (this models the paper's 24-hour cut-off for the
        iterative algorithm).
    find_ofds:
        Whether OFD candidates are validated and reported.  The paper's
        experiments focus on OCs; OFD validation is cheap and enabled by
        default because its results drive OC pruning.
    aggressive_ofd_pruning:
        Apply TANE's right-hand-side pruning rule (remove ``R \\ X`` from the
        candidate set) when an OFD holds *exactly*.  Always sound; disabled
        automatically for approximately-held OFDs.
    prune_exhausted_nodes:
        FASTOD/TANE-style node deletion: a lattice node whose candidate sets
        are both empty is dropped, which stops any of its supersets from
        being generated.  This is what keeps the search tractable on wider
        schemas and what lets AOD discovery overtake exact OD discovery
        (Exp-5).  Setting it to ``False`` keeps every node alive and makes
        the search exhaustively complete at exponential cost — used by the
        test-suite's brute-force comparisons and useful on narrow schemas.
    """

    threshold: float = 0.0
    validator: str = "optimal"
    attributes: Optional[List[str]] = None
    max_level: Optional[int] = None
    time_limit_seconds: Optional[float] = None
    find_ofds: bool = True
    aggressive_ofd_pruning: bool = True
    prune_exhausted_nodes: bool = True

    def __post_init__(self) -> None:
        if self.attributes is not None:
            # A bare string would be silently split into characters by
            # list(); it is always a client mistake.
            if isinstance(self.attributes, (str, bytes)):
                raise ValueError(
                    "attributes must be a list of attribute names, got "
                    f"the single string {self.attributes!r}"
                )
            object.__setattr__(self, "attributes", list(self.attributes))
        # Malformed requests fail at the boundary, not inside the engine.
        self._check_types()
        self._check_ranges()

    def _check_types(self) -> None:
        """Reject wrongly-typed values at the boundary.

        JSON clients send strings like ``"false"`` that are truthy in
        Python; silently honoring them would flip run semantics, which is
        exactly the class of mistake the strict unknown-key check exists
        to prevent.
        """
        def expect(name: str, value: object, ok: bool, wanted: str) -> None:
            if not ok:
                raise ValueError(f"{name} must be {wanted}, got {value!r}")

        def is_number(value: object) -> bool:
            return isinstance(value, (int, float)) and not isinstance(value, bool)

        expect("threshold", self.threshold, is_number(self.threshold),
               "a number")
        expect("validator", self.validator, isinstance(self.validator, str),
               "a string")
        if self.attributes is not None:
            expect("attributes", self.attributes,
                   all(isinstance(a, str) for a in self.attributes),
                   "a list of attribute names")
        max_level = self.max_level
        expect("max_level", max_level,
               max_level is None or (isinstance(max_level, int)
                                     and not isinstance(max_level, bool)),
               "an integer or null")
        expect("time_limit_seconds", self.time_limit_seconds,
               self.time_limit_seconds is None or is_number(
                   self.time_limit_seconds),
               "a number or null")
        for name in ("find_ofds", "aggressive_ofd_pruning",
                     "prune_exhausted_nodes"):
            expect(name, getattr(self, name),
                   isinstance(getattr(self, name), bool), "a boolean")

    def _check_ranges(self) -> None:
        """Reject well-typed values outside what a run accepts."""
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(
                f"threshold must be in [0, 1], got {self.threshold}"
            )
        if self.validator not in VALIDATOR_KINDS:
            raise ValueError(
                f"validator must be one of {VALIDATOR_KINDS}, got {self.validator!r}"
            )
        if self.validator == "exact" and self.threshold > 0:
            raise ValueError(
                "the exact validator cannot be used with a non-zero threshold"
            )
        repeated = sorted({a for a in self.attributes or ()
                           if self.attributes.count(a) > 1})
        if repeated:
            raise ValueError(f"attributes must not repeat a name, got "
                             f"{repeated} more than once")
        if self.max_level is not None and self.max_level < 1:
            raise ValueError("max_level must be at least 1")
        # NaN compares False with everything, so test the accepted range.
        value = self.time_limit_seconds
        if value is not None and not (math.isfinite(value) and value > 0):
            raise ValueError(
                "time_limit_seconds must be a finite number > 0 or None, "
                f"got {value}"
            )

    @property
    def is_exact(self) -> bool:
        """``True`` when the run performs exact OD discovery (``ε = 0``)."""
        return self.threshold == 0.0

    # -- factories ---------------------------------------------------------------

    @classmethod
    def exact(cls, **kwargs) -> "DiscoveryRequest":
        """Request for exact OD discovery (``ε = 0``, linear exact check)."""
        kwargs.setdefault("validator", "exact")
        return cls(threshold=0.0, **kwargs)

    @classmethod
    def approximate(cls, threshold: float = 0.1, validator: str = "optimal",
                    **kwargs) -> "DiscoveryRequest":
        """Request for AOD discovery (default ``ε = 10%``)."""
        return cls(threshold=threshold, validator=validator, **kwargs)

    # -- JSON boundary -----------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form (JSON-compatible values only)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "DiscoveryRequest":
        """Rebuild a request from :meth:`to_dict` output.

        Unknown keys raise ``ValueError`` — the request is a typed boundary,
        so misspelled parameters must not be silently dropped.
        """
        known = {f.name for f in _dataclass_fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown DiscoveryRequest fields: {unknown} "
                f"(known: {sorted(known)})"
            )
        return cls(**data)

    def to_json(self) -> str:
        """Serialise to a JSON string."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "DiscoveryRequest":
        """Parse a request from a JSON string."""
        data = json.loads(payload)
        if not isinstance(data, dict):
            raise ValueError(
                f"DiscoveryRequest JSON must be an object, got {type(data).__name__}"
            )
        return cls.from_dict(data)
