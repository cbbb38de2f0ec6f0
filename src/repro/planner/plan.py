"""Per-level execution plans and the planner that emits them.

:class:`ExecutionPlanner` is the session-lived brain: it holds one
calibrated :class:`~repro.planner.model.CostModel`, answers
``plan_level`` at each level boundary of a discovery run, and folds the
level's actual wall-clock back into the model via ``observe_level``.

Plans change *how* results are computed, never *what* is computed: every
strategy the planner can choose (in-process vs pooled, any shard
composition) is already proven byte-identical by
the differential suites, so the planner needs no correctness reasoning —
only cost ranking.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.obs import get_logger, get_metrics

from .calibrate import calibrate, preferred_backend
from .model import CostModel

#: Decisions kept in the planner's rolling log (snapshot / ``/healthz``).
MAX_DECISION_LOG = 64

_log = get_logger("planner")


@dataclass(frozen=True)
class ExecutionPlan:
    """One level's execution strategy.

    ``use_workers`` is the headline decision; ``num_workers`` is the
    count the model recommended (1 when in-process).  ``min_shard_cost``
    and ``inline_group_cost`` override the pool's static floors for this
    level's submissions.  ``predicted_seconds`` is the model's forecast
    for the chosen strategy — recorded so predicted-vs-actual lands in
    :class:`~repro.discovery.stats.DiscoveryStatistics` per level.
    """

    level: int
    use_workers: bool
    num_workers: int
    min_shard_cost: int
    inline_group_cost: int
    cost_units: float
    predicted_seconds: float
    reason: str

    def as_dict(self) -> Dict[str, object]:
        return {
            "level": self.level,
            "use_workers": self.use_workers,
            "num_workers": self.num_workers,
            "min_shard_cost": self.min_shard_cost,
            "inline_group_cost": self.inline_group_cost,
            "cost_units": round(self.cost_units, 1),
            "predicted_seconds": round(self.predicted_seconds, 6),
            "reason": self.reason,
        }


class ExecutionPlanner:
    """Session-lived strategy chooser backed by a calibrated cost model."""

    def __init__(
        self,
        model: CostModel,
        max_workers: int = 1,
    ) -> None:
        self.model = model
        self.max_workers = max(1, int(max_workers))
        self.created_at = time.time()
        self.decisions: List[Dict[str, object]] = []
        self.levels_planned = 0
        self.runs_observed = 0

    # -- planning ----------------------------------------------------------------

    def use_pool(self, num_workers: int) -> bool:
        """Whether a worker pool is worth *spawning* for a run at all.

        Run-scope degradation: on a host whose core count caps effective
        parallelism at 1, no level can ever profit from workers, so the
        engine should not pay the process spawns (let alone the per-shard
        round-trips).  With more cores the pool is spawned and the
        per-level :meth:`plan_level` decides whether each level uses it.
        """
        return self.model.effective_workers(num_workers) > 1

    def record_pool_veto(self, num_workers: int) -> Dict[str, object]:
        """Log the run-scope decision not to spawn a pool at all, so the
        degradation is visible in ``/healthz`` and the run's statistics
        (per-level plans afterwards just say "no pool")."""
        record: Dict[str, object] = {
            "level": None,
            "scope": "run",
            "use_workers": False,
            "num_workers": 1,
            "reason": (
                f"pool not spawned: {self.model.cpu_count} core(s) for "
                f"{num_workers} requested worker(s), parallelism cannot pay"
            ),
        }
        self.decisions.append(record)
        del self.decisions[:-MAX_DECISION_LOG]
        _log.info(
            "pool spawn vetoed: %s core(s) for %s requested worker(s)",
            self.model.cpu_count, num_workers,
        )
        get_metrics().counter("repro_planner_pool_vetoes_total").inc()
        return record

    def plan_level(
        self,
        level: int,
        cost_units: float,
        workers_available: bool = True,
    ) -> ExecutionPlan:
        """Choose the strategy for one level of ``cost_units`` work.

        ``workers_available`` is False when the run has no pool at all
        (``num_workers == 1`` configurations): the plan then only carries
        the floors and the in-process decision.
        """
        self.levels_planned += 1
        model = self.model
        ceiling = self.max_workers if workers_available else 1
        workers = model.recommend_workers(cost_units, ceiling)
        use_workers = workers > 1
        predicted = model.predict_seconds(cost_units, workers)
        if not workers_available:
            reason = "no pool in this configuration"
        elif not use_workers:
            serial = model.predict_serial_seconds(cost_units)
            parallel = model.predict_parallel_seconds(cost_units, ceiling)
            if model.effective_workers(ceiling) == 1:
                reason = (
                    f"degraded to in-process: {model.cpu_count} core(s), "
                    "parallelism cannot pay"
                )
            else:
                reason = (
                    f"in-process: serial {serial:.4f}s beats "
                    f"{ceiling}-worker {parallel:.4f}s at this level size"
                )
        else:
            reason = (
                f"{workers} worker(s): predicted {predicted:.4f}s vs "
                f"serial {model.predict_serial_seconds(cost_units):.4f}s"
            )
        return ExecutionPlan(
            level=level,
            use_workers=use_workers,
            num_workers=workers,
            min_shard_cost=model.min_shard_cost(),
            inline_group_cost=model.inline_group_cost(),
            cost_units=float(cost_units),
            predicted_seconds=predicted,
            reason=reason,
        )

    # -- feedback ----------------------------------------------------------------

    def observe_level(
        self, plan: ExecutionPlan, actual_seconds: float
    ) -> Dict[str, object]:
        """Fold a completed level back into the model; returns the
        decision record (plan + predicted-vs-actual) for the run's
        statistics."""
        if plan.use_workers:
            self.model.observe_parallel(
                plan.cost_units, actual_seconds, plan.num_workers
            )
        else:
            self.model.observe_serial(plan.cost_units, actual_seconds)
        record = plan.as_dict()
        record["actual_seconds"] = round(actual_seconds, 6)
        self.decisions.append(record)
        del self.decisions[:-MAX_DECISION_LOG]
        registry = get_metrics()
        if registry.enabled:
            registry.counter("repro_planner_levels_total").inc()
            registry.histogram("repro_planner_abs_error_seconds").observe(
                abs(actual_seconds - plan.predicted_seconds)
            )
        return record

    def observe_run(self, stats) -> None:
        """Fold a finished run's :class:`DiscoveryStatistics` into the
        model (currently the derived ``validation_share``)."""
        self.runs_observed += 1
        self.model.observe_validation_share(
            getattr(stats, "validation_share", None)
        )

    # -- reporting ---------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """The ``/healthz`` planner block for one session."""
        return {
            "model": self.model.as_dict(),
            "preferred_backend": preferred_backend(self.model),
            "max_workers": self.max_workers,
            "calibration_age_seconds": round(
                max(0.0, time.time() - self.created_at), 3
            ),
            "levels_planned": self.levels_planned,
            "runs_observed": self.runs_observed,
            "decisions": list(self.decisions[-8:]),
        }


def build_planner(
    backend=None,
    max_workers: int = 1,
    pool=None,
    model: Optional[CostModel] = None,
) -> ExecutionPlanner:
    """Calibrate (or accept) a cost model and wrap it in a planner."""
    if model is None:
        model = calibrate(backend=backend, pool=pool)
    return ExecutionPlanner(model, max_workers=max_workers)
