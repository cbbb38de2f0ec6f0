"""The level-synchronous batched scheduler must be invisible in results.

Acceptance bar for the batched validation path: byte-identical
``DiscoveryResult``s — the same OCs/OFDs with the same removal sizes,
approximation factors, levels and interestingness scores, in the same order
— against a per-candidate reference schedule (the ``per_candidate``
fixture), against a python-backend run for both backends and worker counts
1/2/4 (which cap the OC plane at 8, 2 and 4 threads on a pinned 8-core
view), and against the exhaustive brute-force oracle.
"""

import pytest

from repro.backend import available_backends
from repro.dataset.examples import employee_salary_table
from repro.dataset.generators import (
    generate_flight_like,
    generate_ncvoter_like,
    generate_random_table,
)
from repro.discovery.api import discover, discover_aods
from repro.discovery.config import DiscoveryConfig, DiscoveryRequest
from repro.discovery.engine import DiscoveryEngine
from test_engine import _oracle_ocs, _oracle_ofds, _reported_ocs, _reported_ofds

BACKENDS = available_backends()


def _workloads():
    return {
        "table1": employee_salary_table(),
        "flight": generate_flight_like(
            250, num_attributes=6, error_rate=0.1, seed=3
        ).relation,
        "ncvoter": generate_ncvoter_like(
            250, num_attributes=6, error_rate=0.1, seed=3
        ).relation,
    }


WORKLOADS = _workloads()

CONFIGS = {
    "exact": dict(threshold=0.0, validator="exact"),
    "optimal-10": dict(threshold=0.1, validator="optimal"),
    "optimal-30": dict(threshold=0.3, validator="optimal"),
    "iterative-10": dict(threshold=0.1, validator="iterative", max_level=3),
    # Exact OFD checks beside a non-exact OC tag (greedy at limit 0).
    "iterative-0": dict(threshold=0.0, validator="iterative"),
}


def _assert_identical(result, reference):
    assert result.ocs == reference.ocs
    assert result.ofds == reference.ofds
    assert result.ocs_per_level() == reference.ocs_per_level()
    assert result.ofds_per_level() == reference.ofds_per_level()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_batched_equals_per_candidate(workload, config_name, backend,
                                      per_candidate):
    relation = WORKLOADS[workload]
    config = dict(backend=backend, **CONFIGS[config_name])
    reference = per_candidate(relation, DiscoveryConfig(**config))
    batched = discover(relation, DiscoveryConfig(**config))
    _assert_identical(batched, reference)
    if CONFIGS[config_name].get("validator") != "exact":
        assert batched.stats.oc_batches > 0
        assert batched.stats.ofd_batches > 0
    # both schedules validate and prune the same candidate populations
    assert (
        batched.stats.oc_candidates_validated
        == reference.stats.oc_candidates_validated
    )
    assert (
        batched.stats.ofd_candidates_validated
        == reference.stats.ofd_candidates_validated
    )
    assert batched.stats.oc_candidates_pruned == reference.stats.oc_candidates_pruned
    assert (
        batched.stats.ofd_candidates_pruned
        == reference.stats.ofd_candidates_pruned
    )
    assert batched.stats.nodes_processed == reference.stats.nodes_processed


_PYTHON_REFERENCE = {}


def _python_in_process(config_name):
    """The in-process python-backend run over the flight workload (cached)."""
    if config_name not in _PYTHON_REFERENCE:
        _PYTHON_REFERENCE[config_name] = discover(
            WORKLOADS["flight"],
            DiscoveryConfig(backend="python", **CONFIGS[config_name]),
        )
    return _PYTHON_REFERENCE[config_name]


@pytest.mark.parametrize("config_name", ["exact", "optimal-10", "iterative-10"])
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("num_workers", [1, 2, 4])
def test_matches_python_in_process(num_workers, backend, config_name,
                                  plane_threads):
    reference = _python_in_process(config_name)
    config = DiscoveryConfig(backend=backend, num_workers=num_workers,
                             **CONFIGS[config_name])
    result = discover(WORKLOADS["flight"], config)
    assert plane_threads.seen[-1] == plane_threads.expected(backend, config)
    _assert_identical(result, reference)
    for name in ("oc_candidates_validated", "ofd_candidates_validated",
                 "oc_candidates_pruned", "ofd_candidates_pruned",
                 "nodes_processed", "oc_batches", "ofd_batches"):
        assert getattr(result.stats, name) == getattr(reference.stats, name)
    # Only the LNDS-based optimal validator reports its worker count.
    reported = num_workers > 1 and config_name == "optimal-10"
    assert result.stats.num_workers == (num_workers if reported else 1)


@pytest.mark.parametrize("seed", [0, 1])
def test_pooled_run_matches_oracle(seed, plane_threads):
    """A two-worker run (two plane threads with the native kernel) on the
    full lattice reports exactly the minimal dependencies the brute-force
    oracle derives."""
    relation = generate_random_table(60, 4, cardinality=3, seed=seed)
    attributes = relation.attribute_names
    engine = DiscoveryEngine(
        relation,
        DiscoveryConfig(threshold=0.1, num_workers=2,
                        prune_exhausted_nodes=False),
    )
    result = engine.run()
    assert plane_threads.seen == [
        plane_threads.expected(engine.backend, engine.config)
    ]
    assert result.stats.num_workers == 2
    assert _reported_ocs(result) == _oracle_ocs(relation, attributes, 0.1)
    assert _reported_ofds(result) == _oracle_ofds(relation, attributes, 0.1)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("num_workers", [2, 4])
def test_sharded_workers_equal_sequential(backend, num_workers, per_candidate,
                                         plane_threads):
    relation = WORKLOADS["flight"]
    reference = per_candidate(
        relation, DiscoveryConfig(threshold=0.1, backend=backend)
    )
    config = DiscoveryConfig(threshold=0.1, backend=backend,
                             num_workers=num_workers)
    sharded = discover(relation, config)
    assert plane_threads.seen[-1] == plane_threads.expected(backend, config)
    _assert_identical(sharded, reference)
    assert sharded.stats.num_workers == num_workers


def test_api_exposes_workers_and_batching(per_candidate):
    """The one-shot API runs the batched schedule for any worker count."""
    relation = WORKLOADS["table1"]
    reference = per_candidate(relation, DiscoveryConfig(threshold=0.15))
    default = discover_aods(relation, threshold=0.15)
    sharded = discover_aods(relation, threshold=0.15, num_workers=2)
    _assert_identical(default, reference)
    _assert_identical(sharded, reference)
    assert sharded.stats.num_workers == 2


def test_num_workers_must_be_positive():
    with pytest.raises(ValueError, match="num_workers"):
        DiscoveryConfig(num_workers=0)
    with pytest.raises(ValueError, match="num_workers"):
        DiscoveryRequest(num_workers=-1)


def test_find_ofds_disabled_still_identical(per_candidate):
    relation = WORKLOADS["flight"]
    reference = per_candidate(
        relation, DiscoveryConfig(threshold=0.1, find_ofds=False)
    )
    batched = discover(
        relation, DiscoveryConfig(threshold=0.1, find_ofds=False)
    )
    _assert_identical(batched, reference)
    assert batched.num_ofds == 0
