"""Configuration of a discovery run.

Two related types live here:

* :class:`DiscoveryConfig` — the engine-facing configuration.  It may hold
  a live :class:`~repro.backend.numpy_backend.NumpyBackend` instance and is
  what :class:`repro.discovery.engine.DiscoveryEngine` consumes.
* :class:`DiscoveryRequest` — the *serialisable* subset of a configuration:
  plain JSON-compatible values only, convertible to and from a
  :class:`DiscoveryConfig`.  This is the request half of the service
  boundary used by :class:`repro.discovery.session.Profiler` and
  ``repro serve``.  It has no ``backend`` and no ``num_workers``: those
  belong to whoever runs the request (the session, or the one-shot
  caller), and :meth:`DiscoveryRequest.to_config` takes them as
  arguments.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields as _dataclass_fields
from typing import Dict, List, Optional, Sequence

from repro.backend import BACKEND_CHOICES


#: The validator names accepted by :class:`DiscoveryConfig.validator`.
VALIDATOR_KINDS = ("exact", "optimal", "iterative")


@dataclass
class DiscoveryConfig:
    """Parameters controlling a lattice discovery run.

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
        otherwise).
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
    backend:
        Compute backend for the hot paths (encoding, partitions, validation
        kernels): a :class:`~repro.backend.numpy_backend.NumpyBackend`
        instance, a name (``"python"`` / ``"numpy"`` / ``"auto"``), or
        ``None`` to defer to the ``REPRO_BACKEND`` environment variable.
        Every backend produces identical discovery results.
    num_workers:
        Caps the threads that count a run's OC context groups.  Each run
        counts them on one thread per usable core; a value above 1 caps
        that at ``num_workers``, and fewer than two threads means the
        groups are counted inline.  ``1`` (the default) leaves one thread
        per core.  Warm session runs, the iterative validator and the
        non-native kernels (which hold the GIL) always count inline.
        Every value produces identical discovery results; only the
        LNDS-based ``optimal`` validator on approximate runs reports it
        in ``stats.num_workers`` (others report 1).
    """

    threshold: float = 0.0
    validator: str = "optimal"
    attributes: Optional[Sequence[str]] = None
    max_level: Optional[int] = None
    time_limit_seconds: Optional[float] = None
    find_ofds: bool = True
    aggressive_ofd_pruning: bool = True
    prune_exhausted_nodes: bool = True
    backend: Optional[object] = None
    num_workers: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(
                f"threshold must be in [0, 1], got {self.threshold}"
            )
        if self.validator not in VALIDATOR_KINDS:
            raise ValueError(
                f"validator must be one of {VALIDATOR_KINDS}, got {self.validator!r}"
            )
        if isinstance(self.backend, str):
            valid_backend = self.backend in BACKEND_CHOICES
        elif self.backend is not None:
            # Only a non-string value needs the class, and so NumPy.
            from repro.backend.numpy_backend import NumpyBackend

            valid_backend = isinstance(self.backend, NumpyBackend)
        else:
            valid_backend = True
        if not valid_backend:
            raise ValueError(
                f"backend must be one of {BACKEND_CHOICES} or a "
                f"NumpyBackend instance, got {self.backend!r}"
            )
        if self.validator == "exact" and self.threshold > 0:
            raise ValueError(
                "the exact validator cannot be used with a non-zero threshold"
            )
        if self.max_level is not None and self.max_level < 1:
            raise ValueError("max_level must be at least 1")
        if self.num_workers < 1:
            raise ValueError("num_workers must be at least 1")
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

    @classmethod
    def exact(cls, **kwargs) -> "DiscoveryConfig":
        """Configuration for exact OD discovery (the paper's "OD" series)."""
        kwargs.setdefault("validator", "exact")
        return cls(threshold=0.0, **kwargs)

    @classmethod
    def approximate(cls, threshold: float = 0.1, validator: str = "optimal",
                    **kwargs) -> "DiscoveryConfig":
        """Configuration for AOD discovery (default ``ε = 10%`` as in the paper)."""
        return cls(threshold=threshold, validator=validator, **kwargs)


@dataclass(frozen=True)
class DiscoveryRequest:
    """A JSON-serialisable description of one discovery run.

    Requests carry only plain values — no backend instances — so they can
    cross a service boundary unchanged: the CLI, the
    :class:`~repro.discovery.session.Profiler` session API and the
    ``repro serve`` HTTP mode all speak this type.  Session-owned concerns
    (which compute backend, the plane's thread cap) are supplied when the
    request is resolved against a session via :meth:`to_config`.

    Fields mirror :class:`DiscoveryConfig` minus those two, so a request
    that names ``num_workers`` or ``backend`` is refused like any other
    unknown field: the session, and ``repro serve --workers`` for a
    server, is their one owner.
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
        self._check_types()
        # Validate eagerly with the config's own rules so malformed requests
        # fail at the boundary, not deep inside the engine.
        self.to_config()

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

    # -- conversion to/from the engine configuration -----------------------------

    def to_config(
        self,
        backend: Optional[object] = None,
        num_workers: int = 1,
    ) -> DiscoveryConfig:
        """Resolve this request into an engine :class:`DiscoveryConfig`.

        ``backend`` / ``num_workers`` are the session-owned parameters.
        """
        return DiscoveryConfig(
            threshold=self.threshold,
            validator=self.validator,
            attributes=None if self.attributes is None else list(self.attributes),
            max_level=self.max_level,
            time_limit_seconds=self.time_limit_seconds,
            find_ofds=self.find_ofds,
            aggressive_ofd_pruning=self.aggressive_ofd_pruning,
            prune_exhausted_nodes=self.prune_exhausted_nodes,
            num_workers=num_workers,
            backend=backend,
        )

    @classmethod
    def from_config(cls, config: DiscoveryConfig) -> "DiscoveryRequest":
        """Project an engine configuration onto its serialisable subset."""
        return cls(
            threshold=config.threshold,
            validator=config.validator,
            attributes=None if config.attributes is None
            else list(config.attributes),
            max_level=config.max_level,
            time_limit_seconds=config.time_limit_seconds,
            find_ofds=config.find_ofds,
            aggressive_ofd_pruning=config.aggressive_ofd_pruning,
            prune_exhausted_nodes=config.prune_exhausted_nodes,
        )

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
