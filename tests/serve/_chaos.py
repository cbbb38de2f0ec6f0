"""HTTP fault injection for the serve chaos suite.

The HTTP handler of :mod:`repro.serve.http` calls ``take`` on its
``fault_injector`` (``None`` unless :func:`repro.serve.make_server` was
given one) at well-known hook points; when a registered fault matches, the
returned action tells the handler to misbehave in a controlled way:

- ``"stall"`` — sleep ``delay_seconds`` before continuing (slow server).
- ``"drop"``  — close the connection without writing anything further
  (half-finished response / mid-stream kill).
- ``"reset"`` — close with ``SO_LINGER(1, 0)`` so the client sees a TCP
  RST instead of a clean FIN.

Hook points currently emitted by the handler:

- ``"pre_response"`` — after the request was parsed and admitted, before
  any response bytes are written.
- ``"stream_event"`` — before each NDJSON event of a streamed discovery
  response; the event index is passed as ``event_index``.

The server never installs an injector itself: this one lets the chaos
suite exercise client retries, disconnect-cancellation, and graceful
degradation against a real server without monkeypatching internals.
All methods are thread-safe (the server is threading).
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional

_VALID_KINDS = ("stall", "drop", "reset")


@dataclass(frozen=True)
class FaultAction:
    """What the handler should do at a hook point."""

    kind: str
    delay_seconds: float = 0.0


@dataclass
class FaultRule:
    """A single registered fault.

    Parameters
    ----------
    point:
        Hook point the rule arms (``"pre_response"`` or ``"stream_event"``).
    kind:
        One of ``"stall"``, ``"drop"``, ``"reset"``.
    path_prefix:
        Only requests whose path starts with this prefix trigger the rule
        (``""`` matches everything).
    after_events:
        For ``"stream_event"``: fire only once ``event_index`` reaches this
        value, so a stream can be killed mid-way rather than at the start.
    times:
        Budget of firings; once exhausted the rule is inert.  ``None`` means
        unlimited.
    delay_seconds:
        Stall duration for ``"stall"`` actions.
    """

    point: str
    kind: str
    path_prefix: str = ""
    after_events: int = 0
    times: Optional[int] = 1
    delay_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _VALID_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {_VALID_KINDS}"
            )

    def matches(self, point: str, path: str, event_index: Optional[int]) -> bool:
        if point != self.point:
            return False
        if self.path_prefix and not path.startswith(self.path_prefix):
            return False
        if self.point == "stream_event":
            if event_index is None or event_index < self.after_events:
                return False
        return True


class HttpFaultInjector:
    """Registry of :class:`FaultRule` objects consulted by the handler."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._rules: List[FaultRule] = []
        self._fired: Counter = Counter()

    def add_fault(
        self,
        point: str,
        kind: str,
        *,
        path_prefix: str = "",
        after_events: int = 0,
        times: Optional[int] = 1,
        delay_seconds: float = 0.0,
    ) -> FaultRule:
        """Build and register a :class:`FaultRule`."""
        rule = FaultRule(
            point=point,
            kind=kind,
            path_prefix=path_prefix,
            after_events=after_events,
            times=times,
            delay_seconds=delay_seconds,
        )
        with self._lock:
            self._rules.append(rule)
        return rule

    def take(
        self, point: str, path: str, *, event_index: Optional[int] = None
    ) -> Optional[FaultAction]:
        """Return the action for the first matching armed rule, consuming
        one unit of its ``times`` budget; ``None`` when nothing matches."""
        with self._lock:
            for rule in self._rules:
                if rule.times is not None and rule.times <= 0:
                    continue
                if not rule.matches(point, path, event_index):
                    continue
                if rule.times is not None:
                    rule.times -= 1
                self._fired[rule.kind] += 1
                return FaultAction(kind=rule.kind, delay_seconds=rule.delay_seconds)
        return None

    def fired_counts(self) -> Dict[str, int]:
        """``{kind: count}`` summary of the faults that fired."""
        with self._lock:
            return dict(self._fired)
