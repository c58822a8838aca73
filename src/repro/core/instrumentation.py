"""Layered measurement probes.

The testing framework is layered and so is the instrumentation:

* **R-level** probes observe only the physical boundary (m- and c-events) —
  this is all R-testing is allowed to see;
* **M-level** probes additionally observe the CODE(M) boundary (i- and
  o-events) and the execution span of each generated transition.

The integration schemes take a :class:`ProbeConfiguration` so the same
implemented system can be exercised first with R-level probes (cheap,
non-intrusive) and, if a violation is found, re-run with full M-level probes —
mirroring the R-then-M workflow of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ProbeConfiguration:
    """Which boundaries the integration layer instruments."""

    record_io_events: bool = True
    record_transitions: bool = True

    @classmethod
    def r_level(cls) -> "ProbeConfiguration":
        """Only m/c events (what R-testing needs)."""
        return cls(record_io_events=False, record_transitions=False)

    @classmethod
    def m_level(cls) -> "ProbeConfiguration":
        """Full instrumentation (what M-testing needs)."""
        return cls(record_io_events=True, record_transitions=True)
