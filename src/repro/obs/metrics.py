"""Process-local metrics: counters and fixed-bucket histograms.

The registry is the aggregation point of the observability layer
(:mod:`repro.obs`): every subsystem that wants to be scraped — the campaign
worker, the run store, the serving layer — increments named instruments here,
and ``repro serve`` renders the whole registry on ``/metrics`` in both JSON
and the Prometheus text exposition format.

Design rules, matching the repo's determinism discipline:

* **Fixed deterministic bucket edges.**  A histogram's buckets are declared at
  creation and never adapt to the data, so two runs that observe the same
  values render byte-identical bucket rows regardless of observation order.
* **No wall-clock inside.**  Instruments store only what callers hand them;
  anything time-derived is the caller's responsibility (and the callers use
  the simulated clock or an injected monotonic source — see
  :mod:`repro.obs.spans` and :mod:`repro.obs.progress`).
* **Cheap enough to leave on.**  Instrument updates are a lock plus integer
  arithmetic.  Hot loops never call them per event — they keep their own slot
  counters and the campaign worker *pulls* those once per run (see
  ``docs/architecture.md``).

Everything is stdlib-only and thread-safe: one re-entrant lock per registry
serialises updates, which the threaded serving layer relies on.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_EDGES_S",
    "DEFAULT_PHASE_EDGES_S",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
]

#: Default bucket edges (seconds) for request-latency histograms.  Fixed and
#: deterministic: the same observations always land in the same buckets.
DEFAULT_LATENCY_EDGES_S: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

#: Default bucket edges (seconds) for per-run phase timings — runs are slower
#: than HTTP requests, so the ladder shifts up an order of magnitude.
DEFAULT_PHASE_EDGES_S: Tuple[float, ...] = (
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: Labels are stored canonically as a sorted tuple of (name, value) pairs so
#: ``{"a": 1, "b": 2}`` and ``{"b": 2, "a": 1}`` address the same instrument.
LabelItems = Tuple[Tuple[str, str], ...]


def _canonical_labels(labels: Optional[Dict[str, Any]]) -> LabelItems:
    if not labels:
        return ()
    return tuple(sorted((str(name), str(value)) for name, value in labels.items()))


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition rules."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(labels: LabelItems, extra: Sequence[Tuple[str, str]] = ()) -> str:
    items = [*labels, *extra]
    if not items:
        return ""
    inner = ",".join(f'{name}="{_escape_label_value(value)}"' for name, value in items)
    return "{" + inner + "}"


def _format_number(value: float) -> str:
    """Render ints without a trailing ``.0`` (Prometheus accepts both; the
    integer form keeps the exposition stable and readable)."""
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.RLock) -> None:
        self._lock = lock
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Histogram:
    """A fixed-bucket cumulative histogram (Prometheus semantics).

    ``edges`` are the *upper bounds* of the finite buckets, strictly
    increasing; an implicit ``+Inf`` bucket always exists.  Bucket counts are
    rendered cumulatively, exactly as the Prometheus text format requires.
    """

    __slots__ = ("_lock", "edges", "_bucket_counts", "_sum", "_count")

    def __init__(self, lock: threading.RLock, edges: Sequence[float]) -> None:
        if not edges:
            raise ValueError("histogram needs at least one finite bucket edge")
        ordered = tuple(float(edge) for edge in edges)
        if any(b <= a for a, b in zip(ordered, ordered[1:])):
            raise ValueError("histogram bucket edges must be strictly increasing")
        self._lock = lock
        self.edges = ordered
        self._bucket_counts = [0] * (len(ordered) + 1)  # final slot: +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        edges = self.edges
        # Linear probe: edge ladders are short (~12) and observations are not
        # hot-loop events, so simplicity beats bisect here.
        index = len(edges)
        for position, edge in enumerate(edges):
            if value <= edge:
                index = position
                break
        with self._lock:
            self._bucket_counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def cumulative_buckets(self) -> List[Tuple[str, int]]:
        """``(upper-bound label, cumulative count)`` rows, ``+Inf`` last."""
        rows: List[Tuple[str, int]] = []
        running = 0
        with self._lock:
            counts = list(self._bucket_counts)
        for edge, bucket in zip(self.edges, counts):
            running += bucket
            rows.append((_format_number(edge), running))
        rows.append(("+Inf", running + counts[-1]))
        return rows


class MetricsRegistry:
    """A named collection of instruments, renderable as JSON or Prometheus text.

    Instruments are created on first use and addressed by ``(name, labels)``;
    repeated calls with the same address return the same instrument.  A name
    may not be reused across instrument types.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        #: name -> (kind, help text)
        self._families: Dict[str, Tuple[str, str]] = {}
        self._instruments: Dict[Tuple[str, LabelItems], Any] = {}

    # ------------------------------------------------------------------
    # Instrument creation / lookup
    # ------------------------------------------------------------------
    def _instrument(
        self,
        kind: str,
        name: str,
        labels: Optional[Dict[str, Any]],
        help: str,
        factory,
    ) -> Any:
        items = _canonical_labels(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                self._families[name] = (kind, help)
            elif family[0] != kind:
                raise ValueError(
                    f"metric {name!r} is already registered as a {family[0]}, "
                    f"not a {kind}"
                )
            instrument = self._instruments.get((name, items))
            if instrument is None:
                instrument = factory()
                self._instruments[(name, items)] = instrument
        return instrument

    def counter(
        self, name: str, *, labels: Optional[Dict[str, Any]] = None, help: str = ""
    ) -> Counter:
        return self._instrument(
            "counter", name, labels, help, lambda: Counter(self._lock)
        )

    def histogram(
        self,
        name: str,
        *,
        edges: Sequence[float] = DEFAULT_LATENCY_EDGES_S,
        labels: Optional[Dict[str, Any]] = None,
        help: str = "",
    ) -> Histogram:
        return self._instrument(
            "histogram", name, labels, help, lambda: Histogram(self._lock, edges)
        )

    # ------------------------------------------------------------------
    # Introspection / rendering
    # ------------------------------------------------------------------
    def _sorted_items(self) -> List[Tuple[str, LabelItems, Any]]:
        with self._lock:
            items = [
                (name, labels, instrument)
                for (name, labels), instrument in self._instruments.items()
            ]
        return sorted(items, key=lambda item: (item[0], item[1]))

    def to_dict(self) -> Dict[str, Any]:
        """The whole registry as a JSON-shaped dict (the ``/metrics`` JSON view)."""
        families: Dict[str, Dict[str, Any]] = {}
        for name, labels, instrument in self._sorted_items():
            kind, help_text = self._families[name]
            family = families.setdefault(
                name, {"type": kind, "help": help_text, "series": []}
            )
            series: Dict[str, Any] = {"labels": dict(labels)}
            if kind == "histogram":
                series["count"] = instrument.count
                series["sum"] = instrument.sum
                series["buckets"] = [
                    {"le": le, "count": count}
                    for le, count in instrument.cumulative_buckets()
                ]
            else:
                series["value"] = instrument.value
            family["series"].append(series)
        return {"metrics": families}

    def render_prometheus(self) -> str:
        """The registry in the Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        seen_header = set()
        for name, labels, instrument in self._sorted_items():
            kind, help_text = self._families[name]
            if name not in seen_header:
                seen_header.add(name)
                if help_text:
                    lines.append(f"# HELP {name} {help_text}")
                lines.append(f"# TYPE {name} {kind}")
            if kind == "histogram":
                for le, count in instrument.cumulative_buckets():
                    lines.append(
                        f"{name}_bucket{_render_labels(labels, (('le', le),))} {count}"
                    )
                lines.append(f"{name}_sum{_render_labels(labels)} {_format_number(instrument.sum)}")
                lines.append(f"{name}_count{_render_labels(labels)} {instrument.count}")
            else:
                lines.append(
                    f"{name}{_render_labels(labels)} {_format_number(instrument.value)}"
                )
        return "\n".join(lines) + "\n"

    def counter_value(self, name: str, labels: Optional[Dict[str, Any]] = None) -> int:
        """The current value of a counter series (0 when it does not exist)."""
        instrument = self._instruments.get((name, _canonical_labels(labels)))
        return 0 if instrument is None else int(instrument.value)


#: The process-local registry: one per worker process, one per serve process.
REGISTRY = MetricsRegistry()
