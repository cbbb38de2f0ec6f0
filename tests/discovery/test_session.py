"""Tests for the session-oriented API: Profiler, sweeps, streaming events,
cancellation and time limits, plane-thread lifecycle.

The acceptance bar of the session API is *byte-identity*: per-threshold
``DiscoveryResult``s must be identical between the one-shot API, the
session API and the streaming consumer, on every backend; interrupted runs
must return a partial result whose completed-level prefix is byte-identical
to an uninterrupted run.
"""

import multiprocessing
import threading

import pytest

from repro.dataset.examples import employee_salary_table
from repro.dataset.generators import generate_flight_like
from repro.discovery.api import discover_aods, discover_ods
from repro.discovery.config import DiscoveryRequest
from repro.discovery.engine import DiscoveryEngine
from repro.discovery.events import (
    DependencyFound,
    LevelCompleted,
    LevelStarted,
    RunCompleted,
)
from repro.discovery.session import CancellationToken, Profiler

BACKENDS = ["python", "numpy"]

WORKLOADS = {
    "table1": employee_salary_table(),
    "flight": generate_flight_like(
        250, num_attributes=6, error_rate=0.1, seed=3
    ).relation,
}


def _assert_identical(result, reference):
    assert result.ocs == reference.ocs
    assert result.ofds == reference.ofds
    assert result.ocs_per_level() == reference.ocs_per_level()
    assert result.ofds_per_level() == reference.ofds_per_level()


class TestProfilerEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_session_equals_one_shot(self, workload, backend):
        relation = WORKLOADS[workload]
        reference = discover_aods(relation, threshold=0.1, backend=backend)
        with Profiler(relation, backend=backend) as session:
            result = session.discover(DiscoveryRequest(threshold=0.1))
        _assert_identical(result, reference)
        # A cold session behaves exactly like the one-shot API: no memo hits.
        assert result.stats.validation_memo_hits == 0
        assert (result.stats.oc_candidates_validated
                == reference.stats.oc_candidates_validated)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_exact_session_equals_one_shot(self, backend):
        relation = WORKLOADS["table1"]
        reference = discover_ods(relation, backend=backend)
        with Profiler(relation, backend=backend) as session:
            result = session.discover(DiscoveryRequest.exact())
        _assert_identical(result, reference)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_repeated_discovers_stay_identical(self, backend):
        """Warm state (partitions + validation memo) must not change
        results, only skip work."""
        relation = WORKLOADS["flight"]
        with Profiler(relation, backend=backend) as session:
            first = session.discover(DiscoveryRequest(threshold=0.1))
            second = session.discover(DiscoveryRequest(threshold=0.1))
        _assert_identical(second, first)
        assert first.stats.validation_memo_hits == 0
        assert second.stats.validation_memo_hits > 0
        # Every counter except the memo hits (and the timers) matches.
        for counter in ("oc_candidates_validated", "ofd_candidates_validated",
                        "oc_candidates_pruned", "ofd_candidates_pruned",
                        "nodes_processed", "levels_processed"):
            assert getattr(second.stats, counter) == getattr(
                first.stats, counter
            )

    def test_kwarg_shorthand_and_overrides(self):
        relation = WORKLOADS["table1"]
        with Profiler(relation) as session:
            via_request = session.discover(DiscoveryRequest(threshold=0.15))
            via_kwargs = session.discover(threshold=0.15)
            overridden = session.discover(
                DiscoveryRequest(threshold=0.05), threshold=0.15
            )
        _assert_identical(via_kwargs, via_request)
        _assert_identical(overridden, via_request)

    def test_poolless_request_runs_on_multi_worker_session(self):
        """A session default of num_workers>1 must not break runs that
        never use plane threads (the iterative validator counts inline)."""
        relation = WORKLOADS["table1"]
        reference = discover_aods(relation, threshold=0.15,
                                  validator="iterative")
        with Profiler(relation, num_workers=4) as session:
            result = session.discover(DiscoveryRequest(
                threshold=0.15, validator="iterative"
            ))
        _assert_identical(result, reference)
        assert result.stats.num_workers == 1

    def test_closed_session_rejects_runs(self):
        session = Profiler(WORKLOADS["table1"])
        session.close()
        assert session.closed
        with pytest.raises(RuntimeError, match="closed"):
            session.discover(DiscoveryRequest(threshold=0.1))
        session.close()  # idempotent

    def test_cache_info_reports_reuse(self):
        with Profiler(WORKLOADS["flight"]) as session:
            session.discover(DiscoveryRequest(threshold=0.1))
            info = session.cache_info()
        assert info["entries"] > 0
        assert info["validation_memo_entries"] > 0
        assert info["backend"] == session.backend.name


class TestSweep:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_sweep_matches_one_shot_per_threshold(self, backend):
        relation = WORKLOADS["flight"]
        thresholds = [0.05, 0.10, 0.15]
        with Profiler(relation, backend=backend) as session:
            swept = session.sweep(thresholds)
        assert [r.config.threshold for r in swept] == thresholds
        for threshold, result in zip(thresholds, swept):
            reference = discover_aods(
                relation, threshold=threshold, backend=backend
            )
            _assert_identical(result, reference)

    def test_sweep_reuses_validations(self):
        relation = WORKLOADS["flight"]
        with Profiler(relation) as session:
            swept = session.sweep([0.05, 0.10, 0.15])
        # Thresholds execute largest-first, so the largest-ε run is cold and
        # the others reuse its outcomes.
        assert swept[2].stats.validation_memo_hits == 0
        assert swept[0].stats.validation_memo_hits > 0
        assert swept[1].stats.validation_memo_hits > 0

    def test_cancelled_sweep_stops_early(self):
        relation = WORKLOADS["flight"]
        token = _CountdownToken(25)
        thresholds = [0.05, 0.10, 0.15]
        with Profiler(relation) as session:
            results = session.sweep(thresholds, cancellation=token)
        # Positions stay aligned with the input thresholds; runs the sweep
        # never reached (it executes largest-first) are None, and exactly
        # one produced result is the interrupted one.
        assert len(results) == len(thresholds)
        produced = [r for r in results if r is not None]
        assert 0 < len(produced) < 3
        assert sum(r.cancelled for r in produced) == 1
        for threshold, result in zip(thresholds, results):
            if result is not None:
                assert result.config.threshold == threshold

    def test_sweep_respects_request_parameters(self):
        relation = WORKLOADS["table1"]
        with Profiler(relation) as session:
            swept = session.sweep(
                [0.1, 0.2], request=DiscoveryRequest(max_level=2)
            )
        assert all(r.config.max_level == 2 for r in swept)
        assert all(f.level <= 2 for r in swept for f in r.ocs)


class TestEventStream:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_stream_structure_and_result_identity(self, backend):
        relation = WORKLOADS["flight"]
        reference = discover_aods(relation, threshold=0.1, backend=backend)
        with Profiler(relation, backend=backend) as session:
            events = list(session.iter_events(DiscoveryRequest(threshold=0.1)))

        assert isinstance(events[-1], RunCompleted)
        streamed = events[-1].result
        _assert_identical(streamed, reference)

        started = [e for e in events if isinstance(e, LevelStarted)]
        completed = [e for e in events if isinstance(e, LevelCompleted)]
        found = [e for e in events if isinstance(e, DependencyFound)]
        assert [e.level for e in started] == list(
            range(1, len(started) + 1)
        )
        assert [e.level for e in completed] == [e.level for e in started]
        assert len(found) == reference.num_ocs + reference.num_ofds
        assert sum(e.num_ocs for e in completed) == reference.num_ocs
        assert sum(e.num_ofds for e in completed) == reference.num_ofds
        # Found events arrive inside their level's started/completed window.
        for event in found:
            assert event.dependency.level == event.level

    def test_engine_run_is_thin_stream_consumer(self):
        relation = WORKLOADS["table1"]
        engine = DiscoveryEngine(
            relation, DiscoveryRequest(threshold=0.15).to_config()
        )
        result = engine.run()
        reference = discover_aods(relation, threshold=0.15)
        _assert_identical(result, reference)

    def test_events_serialise(self):
        relation = WORKLOADS["table1"]
        with Profiler(relation) as session:
            events = list(session.iter_events(DiscoveryRequest(threshold=0.15)))
        for event in events:
            payload = event.to_dict()
            assert isinstance(payload["event"], str)
        kinds = {e.to_dict()["event"] for e in events}
        assert kinds == {"level_started", "dependency_found",
                         "level_completed", "run_completed"}

    def test_abandoned_stream_is_safe(self):
        relation = WORKLOADS["table1"]
        with Profiler(relation) as session:
            stream = session.iter_events(DiscoveryRequest(threshold=0.15))
            next(stream)
            stream.close()
            # The session stays usable after an abandoned stream.
            result = session.discover(DiscoveryRequest(threshold=0.15))
        assert result.num_ocs > 0


class _CountdownToken(CancellationToken):
    """Cancels itself after being polled ``n`` times — a deterministic way
    to interrupt validation in the middle of a level."""

    def __init__(self, n: int) -> None:
        super().__init__()
        self._remaining = n

    def cancelled(self) -> bool:
        if super().cancelled():
            return True
        self._remaining -= 1
        if self._remaining <= 0:
            self.cancel()
            return True
        return False


class TestInterrupts:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("polls", [3, 7, 15])
    def test_cancellation_mid_level_preserves_prefix(self, backend, polls):
        relation = WORKLOADS["flight"]
        full = discover_aods(relation, threshold=0.1, backend=backend)
        with Profiler(relation, backend=backend) as session:
            partial = session.discover(
                DiscoveryRequest(threshold=0.1),
                cancellation=_CountdownToken(polls),
            )
        assert partial.cancelled and not partial.timed_out
        assert partial.stats.total_seconds > 0
        completed = partial.completed_levels
        assert completed < full.stats.levels_processed
        # Completed-level prefix is byte-identical to the uncancelled run.
        assert [f for f in partial.ocs if f.level <= completed] == [
            f for f in full.ocs if f.level <= completed
        ]
        assert [f for f in partial.ofds if f.level <= completed] == [
            f for f in full.ofds if f.level <= completed
        ]
        # Whatever was recorded of the aborted level is a subsequence of the
        # full run's discoveries (nothing invented, nothing reordered).
        partial_keys = [(f.oc, f.removal_size) for f in partial.ocs]
        full_keys = [(f.oc, f.removal_size) for f in full.ocs]
        iterator = iter(full_keys)
        assert all(key in iterator for key in partial_keys)

    def test_cancelled_stream_still_closes_with_run_completed(self):
        relation = WORKLOADS["flight"]
        with Profiler(relation) as session:
            events = list(session.iter_events(
                DiscoveryRequest(threshold=0.1),
                cancellation=_CountdownToken(5),
            ))
        assert isinstance(events[-1], RunCompleted)
        assert events[-1].result.cancelled
        # No LevelCompleted is emitted for the aborted level.
        started = [e.level for e in events if isinstance(e, LevelStarted)]
        completed = [e.level for e in events if isinstance(e, LevelCompleted)]
        assert completed == started[:len(completed)]
        assert len(completed) < len(started)

    def test_pre_cancelled_token_yields_empty_result(self):
        token = CancellationToken()
        token.cancel()
        result = discover_aods(WORKLOADS["table1"], threshold=0.1)
        with Profiler(WORKLOADS["table1"]) as session:
            partial = session.discover(
                DiscoveryRequest(threshold=0.1), cancellation=token
            )
        assert partial.cancelled
        assert partial.num_ocs == 0 and partial.num_ofds == 0
        assert result.num_ocs > 0  # sanity: the uncancelled run finds things

    @pytest.mark.parametrize("time_limit", [1e-9, 0.02])
    def test_time_limit_mid_level_preserves_prefix(self, time_limit):
        relation = WORKLOADS["flight"]
        full = discover_aods(relation, threshold=0.1)
        with Profiler(relation) as session:
            partial = session.discover(DiscoveryRequest(
                threshold=0.1, time_limit_seconds=time_limit
            ))
        if not partial.timed_out:  # a fast machine may finish within 0.02s
            _assert_identical(partial, full)
            return
        assert not partial.cancelled
        completed = partial.completed_levels
        assert [f for f in partial.ocs if f.level <= completed] == [
            f for f in full.ocs if f.level <= completed
        ]
        assert [f for f in partial.ofds if f.level <= completed] == [
            f for f in full.ofds if f.level <= completed
        ]


def _plane_threads():
    return [t for t in threading.enumerate() if t.name.startswith("repro-oc")]


class TestPoolLifecycle:
    def test_one_shot_api_leaves_no_worker_processes(self):
        relation = WORKLOADS["flight"]
        before = len(multiprocessing.active_children())
        result = discover_aods(
            relation, threshold=0.1, num_workers=2,
            time_limit_seconds=0.001,
        )
        assert result.timed_out or result.num_ocs >= 0
        assert len(multiprocessing.active_children()) <= before
        assert not _plane_threads()

    def test_engine_owned_pool_closed_when_stream_abandoned(self):
        relation = WORKLOADS["flight"]
        config = DiscoveryRequest(threshold=0.1).to_config(num_workers=2)
        engine = DiscoveryEngine(relation, config)
        before = len(multiprocessing.active_children())
        stream = engine.iter_events()
        next(stream)  # the plane's threads open at stream start
        stream.close()
        assert len(multiprocessing.active_children()) <= before
        assert not _plane_threads()
