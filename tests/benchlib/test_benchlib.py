"""Tests for the benchmark harness (workloads, measurements, reporting)."""

import pytest

from benchlib.harness import (
    compare_validators_on_candidates,
    measure_discovery,
    run_sweep,
)
from benchlib.reporting import (
    format_series_table,
    format_table,
    projected_quadratic_runtime,
    render_figure,
    speedup_series,
)
from benchlib.workloads import (
    WorkloadSpec,
    clear_workload_cache,
    make_workload,
)
from repro.dataset.examples import employee_salary_table
from repro.dependencies.oc import CanonicalOC


class TestWorkloadSpecs:
    def test_label_formatting(self):
        assert WorkloadSpec("flight", 10_000).label == "flight-10K-10"
        assert WorkloadSpec("ncvoter", 2_000_000, 30).label == "ncvoter-2M-30"
        assert WorkloadSpec("flight", 123).label == "flight-123-10"

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec("imaginary", 100)

    def test_make_workload_is_cached(self):
        clear_workload_cache()
        spec = WorkloadSpec("flight", 100, 6)
        first = make_workload(spec)
        second = make_workload(spec)
        assert first is second
        clear_workload_cache()
        third = make_workload(spec)
        assert third is not first
        assert third.relation == first.relation

    def test_make_workload_respects_spec(self):
        workload = make_workload(WorkloadSpec("ncvoter", 150, 8), use_cache=False)
        assert workload.relation.num_rows == 150
        assert workload.relation.num_attributes == 8


class TestMeasureDiscovery:
    def test_all_three_modes(self):
        relation = employee_salary_table()
        for mode in ("od", "aod-optimal", "aod-iterative"):
            measurement = measure_discovery(relation, mode, threshold=0.1)
            assert measurement.seconds > 0
            assert measurement.num_ocs >= 0
            assert not measurement.timed_out
            row = measurement.as_row()
            assert row["label"] == mode

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            measure_discovery(employee_salary_table(), "warp-speed")

    def test_run_sweep_shapes(self):
        relation = employee_salary_table()
        series = run_sweep(
            relation_factory=lambda n: relation.head(n),
            sweep_values=[5, 9],
            modes=("od", "aod-optimal"),
            threshold=0.1,
        )
        assert set(series) == {"od", "aod-optimal"}
        assert len(series["od"]) == 2
        assert series["od"][0].label == "od@5"


class TestValidatorComparison:
    def test_exp4_style_comparison(self):
        relation = employee_salary_table()
        candidates = [
            CanonicalOC([], "sal", "tax"),       # optimal 4, greedy 5
            CanonicalOC([], "sal", "taxGrp"),    # exact
            CanonicalOC({"pos"}, "exp", "sal"),  # optimal 1
        ]
        summary = compare_validators_on_candidates(relation, candidates, threshold=0.5)
        assert summary.num_candidates == 3
        sal_tax = summary.comparisons[0]
        assert sal_tax.optimal_removal == 4
        assert sal_tax.iterative_removal == 5
        assert sal_tax.overestimate == 1
        assert summary.mean_relative_overestimate > 0
        missed = summary.missed_by_iterative()
        assert [c.oc for c in missed] == [CanonicalOC([], "sal", "tax")]

    def test_no_threshold_means_no_missed_list(self):
        summary = compare_validators_on_candidates(
            employee_salary_table(), [CanonicalOC([], "sal", "tax")]
        )
        assert summary.missed_by_iterative() == []


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1], ["bbbb", 22]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")

    def test_format_series_table(self):
        text = format_series_table(
            "tuples",
            [100, 200],
            {"OD": [0.5, 1.0], "AOD": [0.6, 1.2]},
            annotations={"#OCs": [3, 4]},
        )
        assert "tuples" in text
        assert "#OCs" in text
        assert "0.500" in text

    def test_render_figure_has_title_and_notes(self):
        text = render_figure(
            "Exp-1", "tuples", [1], {"OD": [0.1]}, notes=["shape matches paper"]
        )
        assert text.startswith("=== Exp-1 ===")
        assert "note: shape matches paper" in text

    def test_speedup_series(self):
        assert speedup_series([10.0, 4.0], [2.0, 2.0]) == [5.0, 2.0]
        assert speedup_series([1.0], [0.0]) == [float("inf")]

    def test_projected_quadratic_runtime(self):
        assert projected_quadratic_runtime(1.0, 100, 200) == 4.0
        with pytest.raises(ValueError):
            projected_quadratic_runtime(1.0, 0, 10)


class TestBenchSummary:
    PAYLOAD = {
        "workload": "flight-like, 2000 rows, threshold 0.1",
        "runs": [
            {"label": "python-w1", "seconds": 0.35,
             "validation_share": 0.84},
            {"label": "numpy-w1", "seconds": 0.21,
             "validation_share": 0.85},
        ],
        "sweep": {"thresholds": [0.06, 0.09], "backend": "numpy",
                  "cold_seconds": 1.0, "warm_seconds": 0.5, "speedup": 2.0,
                  "memo_hits": [0, 9]},
        "observability": {
            "touchpoints": 120, "noop_span_cost_us": 0.4,
            "off_seconds": 0.2, "on_seconds": 0.21, "spans": 73,
            "tracing_off_overhead_pct": 0.02, "overhead_budget_pct": 2.0,
            "byte_identical": True,
        },
    }

    def test_render_is_a_wholesale_view_of_the_json(self):
        from benchlib.reporting import render_bench_summary

        text = render_bench_summary(self.PAYLOAD)
        assert "do not edit" in text
        assert "numpy-w1" in text
        assert "Session sweep" in text
        assert "Observability overhead" in text
        assert "0.02" in text
        # Records the payload does not carry are skipped, not rendered
        # empty (a partial run still produces a clean summary).
        assert "Partition micro-benchmarks" not in text

    def test_write_regenerates_instead_of_appending(self, tmp_path):
        import json

        from benchlib.reporting import write_bench_summary

        json_path = tmp_path / "BENCH_discovery.json"
        summary_path = tmp_path / "summary.txt"
        json_path.write_text(json.dumps(self.PAYLOAD), encoding="utf-8")
        first = write_bench_summary(json_path, summary_path)
        second = write_bench_summary(json_path, summary_path)
        # Idempotent: repeated runs must not grow the file (the drift the
        # old append-per-report flow caused).
        assert first == second
        assert summary_path.read_text(encoding="utf-8") == second
        assert second.count("End-to-end discovery") == 1
