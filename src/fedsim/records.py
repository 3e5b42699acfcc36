"""Per-round metric records shared by the algorithms and the harness."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .availability import realized_staleness


@dataclass(frozen=True)
class RoundMetrics:
    """One wall-round of a run.

    ``f_gap`` is the suboptimality of the current model for strongly convex
    instances and the squared global gradient norm otherwise. ``avg_gap`` is
    the suboptimality of the weighted averaged iterate when the schedule
    defines one. Counters (global updates, oracle calls) are end-of-round
    values; gap values describe the model broadcast at the start of the round.
    """

    t: int
    t_prime: int
    f_gap: float | None
    avg_gap: float | None
    grad_norm_sq: float
    min_grad_norm_sq: float
    tau_bar: float
    tau_max: int
    oracle_calls: int


@dataclass
class RunResult:
    """A run's rows, as of its last advance, and its end state. Its staleness is a
    function of (participation model, seed, rounds observed), so it keeps those
    three and derives ``staleness``, a ``StalenessStats``, on first read: None before two rounds."""

    rounds: list
    diverged: bool
    final_avg_gap: float | None
    final_w: object
    model: object = None  # ParticipationModel
    seed: int = 0
    rounds_observed: int = 0

    @cached_property
    def staleness(self):
        return realized_staleness(self.model, self.seed, self.rounds_observed) if self.rounds_observed >= 2 else None
