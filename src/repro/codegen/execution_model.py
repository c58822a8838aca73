"""Execution-time model for CODE(M) and the interfacing code.

The paper measures Transition-Delays of 11 ms and 20 ms on its ARM7 target —
executing one generated transition is far from free.  The integration schemes
need a way to charge realistic CPU time when they run the generated code on
the simulated RTOS; this model provides it.

Costs are expressed as :class:`JitterModel` durations so every scheme can be
run deterministically (tests) or with bounded jitter (benchmarks).  Per-
transition overrides let the case-study hardware profile give individual model
transitions their own cost (matching the asymmetric Trans1 / Trans2 delays the
paper reports).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..platform.kernel.random import JitterModel, constant
from ..platform.kernel.time import ms, us
from .ir import TransitionIR


@dataclass
class ExecutionTimeModel:
    """CPU-time costs of the generated code and its interfacing code."""

    #: Reading / latching all input devices at the start of a cycle.
    input_scan: JitterModel = field(default_factory=lambda: constant(ms(1)))
    #: Base cost of evaluating the transition table once (no transition taken).
    idle_scan: JitterModel = field(default_factory=lambda: constant(us(300)))
    #: Cost of executing one transition (guard + actions + state switch).
    transition_base: JitterModel = field(default_factory=lambda: constant(ms(8)))
    #: Additional cost per action of the transition.
    per_action: JitterModel = field(default_factory=lambda: constant(ms(2)))
    #: Writing one output value to its device / queue.
    output_write: JitterModel = field(default_factory=lambda: constant(ms(1)))
    #: Per-model-transition overrides of the *total* transition cost.
    transition_overrides: Dict[str, JitterModel] = field(default_factory=dict)

    def input_scan_cost(self, rng: Optional[random.Random] = None) -> int:
        return self.input_scan.sample(rng)

    def idle_scan_cost(self, rng: Optional[random.Random] = None) -> int:
        return self.idle_scan.sample(rng)

    def output_write_cost(self, rng: Optional[random.Random] = None) -> int:
        return self.output_write.sample(rng)

    def transition_cost(self, row: TransitionIR, rng: Optional[random.Random] = None) -> int:
        """CPU time for executing ``row`` once."""
        override = self.transition_overrides.get(row.name)
        if override is not None:
            return override.sample(rng)
        base = self.transition_base.sample(rng)
        actions = sum(self.per_action.sample(rng) for _ in row.actions)
        return base + actions

    def scaled(self, factor: float) -> "ExecutionTimeModel":
        """A copy with every cost scaled by ``factor`` (used by ablation benches)."""
        return ExecutionTimeModel(
            input_scan=self.input_scan.scaled(factor),
            idle_scan=self.idle_scan.scaled(factor),
            transition_base=self.transition_base.scaled(factor),
            per_action=self.per_action.scaled(factor),
            output_write=self.output_write.scaled(factor),
            transition_overrides={
                name: model.scaled(factor) for name, model in self.transition_overrides.items()
            },
        )
