"""Concurrent discovery: same dataset, and different datasets on one pool.

The invariant under test is the project's north star: results must be
byte-identical (modulo wall-clock statistics) no matter how requests are
interleaved, queued, or which shared resources they contend on.
"""

import threading

from repro.discovery.config import DiscoveryRequest
from repro.discovery.session import Profiler
from repro.serve import ProfilerService

from _serve_helpers import canonical_result


def _serial_reference(relation, request):
    profiler = Profiler(relation)
    try:
        return canonical_result(profiler.discover(request).to_dict())
    finally:
        profiler.close()


def _run_concurrently(workers):
    """Run thunks on threads; returns (results, errors) keyed by index."""
    results, errors = {}, {}
    barrier = threading.Barrier(len(workers))

    def runner(index, thunk):
        barrier.wait(timeout=10)
        try:
            results[index] = thunk()
        except Exception as error:  # noqa: BLE001 - recorded for assertion
            errors[index] = error

    threads = [
        threading.Thread(target=runner, args=(index, thunk), daemon=True)
        for index, thunk in enumerate(workers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    return results, errors


class TestSameDataset:
    def test_concurrent_distinct_requests_serialise_correctly(
        self, quick_relation
    ):
        thresholds = [0.05, 0.1, 0.15]
        references = {
            t: _serial_reference(quick_relation, DiscoveryRequest(threshold=t))
            for t in thresholds
        }
        service = ProfilerService(queue_depth=16, max_inflight=32)
        try:
            service.add_dataset("data", quick_relation)
            workers = [
                (lambda t=t: canonical_result(
                    service.discover(
                        "data", DiscoveryRequest(threshold=t)
                    ).to_dict()
                ))
                for t in thresholds for _ in range(2)
            ]
            results, errors = _run_concurrently(workers)
            assert not errors
            assert len(results) == 6
            for index, result in results.items():
                threshold = thresholds[index // 2]
                assert result == references[threshold], threshold
            snapshot = service.admission.snapshot()
            assert snapshot["admitted"] == 6
            assert snapshot["inflight"] == 0
            # One executing run at a time => the per-dataset serialisation
            # held; every run either executed or hit the result cache.
            stats = service.result_cache_stats()
            assert stats["hits"] + stats["misses"] == 6
        finally:
            service.close()

    def test_identical_concurrent_requests_are_cache_coherent(
        self, quick_relation
    ):
        request = DiscoveryRequest(threshold=0.1)
        reference = _serial_reference(quick_relation, request)
        service = ProfilerService(queue_depth=16)
        try:
            service.add_dataset("data", quick_relation)
            workers = [
                (lambda: canonical_result(
                    service.discover("data", request).to_dict()
                ))
            ] * 5
            results, errors = _run_concurrently(workers)
            assert not errors
            assert all(result == reference for result in results.values())
            stats = service.result_cache_stats()
            assert stats["misses"] == 1  # one engine run...
            assert stats["hits"] == 4    # ...four replays
        finally:
            service.close()


class TestDifferentDatasetsSharedPool:
    def test_concurrent_datasets_share_one_worker_pool(self, quick_relation):
        """Two datasets of a two-worker server, discovered concurrently:
        each cold run opens its own plane threads, and every result equals
        the serial single-thread reference."""
        import threading

        from repro.dataset.generators import generate_random_table

        other_relation = generate_random_table(300, 5, cardinality=6, seed=7)
        request = DiscoveryRequest(threshold=0.1)
        service = ProfilerService(num_workers=2, queue_depth=16)
        try:
            service.add_dataset("alpha", quick_relation)
            service.add_dataset("beta", other_relation)
            workers = [
                (lambda name=name: canonical_result(
                    service.discover(name, request).to_dict()
                ))
                for name in ("alpha", "beta") for _ in range(2)
            ]
            results, errors = _run_concurrently(workers)
            assert not errors
            assert len(results) == 4
            # Identical to serial, single-process references: worker count
            # and request interleaving must never change a result.
            assert results[0] == results[1] == _serial_reference(
                quick_relation, request
            )
            assert results[2] == results[3] == _serial_reference(
                other_relation, request
            )
            assert not [t for t in threading.enumerate()
                        if t.name.startswith("repro-oc")]
            snapshot = service.admission.snapshot()
            assert set(snapshot["datasets"]) == {"alpha", "beta"}
            assert snapshot["inflight"] == 0
        finally:
            service.close()
