"""Parnas' four-variables model: variables, events, traces and recorders.

The paper uses the four-variables model to define *where* the implemented
system is observed:

* **monitored** (``m``) variables — physical quantities observed by the
  hardware platform (e.g. the electrical state of the bolus-request button);
* **input** (``i``) variables — values read by the auto-generated code
  CODE(M) (e.g. the boolean ``i-BolusReq`` the code generator emitted);
* **output** (``o``) variables — values written by CODE(M)
  (e.g. ``o-MotorState``);
* **controlled** (``c``) variables — physical quantities enforced by the
  hardware platform (e.g. the pump-motor speed).

Every observation of a value change at one of these boundaries is an
:class:`Event` with an exact timestamp; a test run produces a :class:`Trace`.
R-testing consumes only M and C events; M-testing additionally consumes I, O
and transition start/end events.

Trace storage and index design
------------------------------

A trace is append-only and time-ordered.  Recording happens inside the
simulation hot loop (thousands of events per run), while analysis asks the
same three question shapes many times per sample:

* "all events of kind K / variable V (in a time window)" — :meth:`Trace.select`;
* "the first such event at or after t" — :meth:`Trace.first`;
* "all events of any of these kinds, in trace order" — :meth:`Trace.select_kinds`.

Storage is **columnar**: parallel lists of kinds, variables, values,
timestamps and metadata, plus a parallel cache of materialised
:class:`Event` objects.  The recording fast path
(:meth:`Trace._append_raw`, used by :class:`TraceRecorder`) appends one
element to each column and *never constructs an Event object*; events are
materialised lazily — and cached positionally, so repeated queries return
the identical object — only when a query or iteration actually touches
them.  :meth:`Trace.append` / :meth:`Trace.extend` still accept ready-made
events (their objects are stored directly in the cache), so both entry
points yield byte-identical query results.

Query answering keeps the secondary indexes introduced earlier: by ``(kind,
variable)``, by ``kind`` and by ``variable`` — each a :class:`_IndexBucket`
holding the trace *positions* of its events plus a parallel, non-decreasing
timestamp list.  A query picks the most specific bucket for its filters,
bisects the timestamp list to the ``[after_us, before_us]`` window, and
materialises only the matching events, so queries cost O(log n + matches)
instead of O(n).  Positions within a bucket are ascending, which preserves
exact trace order (including ties), so indexed queries return byte-identical
results to a linear scan.  Multi-kind queries merge the per-kind buckets by
position.

The indexes are built *lazily* from the columns directly (no event
materialisation): appending only checks time order and extends the columns,
and the first query indexes the unindexed tail in one pass.  Batch
construction paths — :meth:`Trace.extend` for validated batches and the
trusted :meth:`Trace.from_sorted` used by :meth:`Trace.restricted_to` —
therefore never re-validate or re-index event-by-event.

``docs/architecture.md`` ("The trace index" and "The runtime engine") places
this design in the context of the whole stack and records the measured
speedups.  The pre-columnar implementation is preserved verbatim in
``repro._reference.seed_engine`` as the byte-identity oracle.
"""

from __future__ import annotations

import enum
import heapq
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union


class VariableKind(enum.Enum):
    """The four variable kinds of Parnas' model."""

    MONITORED = "m"
    INPUT = "i"
    OUTPUT = "o"
    CONTROLLED = "c"


class EventKind(enum.Enum):
    """Kinds of timestamped observations appearing in a trace."""

    M = "m"
    I = "i"  # noqa: E741 - single-letter name mirrors the paper's notation
    O = "o"  # noqa: E741
    C = "c"
    TRANSITION_START = "trans_start"
    TRANSITION_END = "trans_end"


@dataclass(frozen=True)
class VariableSpec:
    """Declaration of one variable of the four-variable interface."""

    name: str
    kind: VariableKind
    var_type: str = "bool"
    initial: Any = False
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("variable name must be non-empty")
        if self.var_type not in ("bool", "int", "float", "str"):
            raise ValueError(f"unsupported variable type {self.var_type!r}")


@dataclass(frozen=True)
class InputMapping:
    """Pairing of an m-variable with the i-variable the Input-Device produces."""

    monitored: str
    input: str


@dataclass(frozen=True)
class OutputMapping:
    """Pairing of an o-variable with the c-variable the Output-Device produces."""

    output: str
    controlled: str


class FourVariableInterface:
    """The complete four-variable interface of an implemented system.

    Besides declaring the variables, the interface records the Input-Device
    and Output-Device pairings (which m-variable feeds which i-variable and
    which o-variable drives which c-variable).  M-testing uses the pairings to
    attribute Input-Delay and Output-Delay to the right event pairs.
    """

    def __init__(self) -> None:
        self._variables: Dict[str, VariableSpec] = {}
        self._input_mappings: List[InputMapping] = []
        self._output_mappings: List[OutputMapping] = []

    # ------------------------------------------------------------------
    # Declaration
    # ------------------------------------------------------------------
    def add(self, spec: VariableSpec) -> VariableSpec:
        if spec.name in self._variables:
            raise ValueError(f"variable {spec.name!r} already declared")
        self._variables[spec.name] = spec
        return spec

    def declare(
        self,
        name: str,
        kind: VariableKind,
        var_type: str = "bool",
        initial: Any = False,
        description: str = "",
    ) -> VariableSpec:
        return self.add(VariableSpec(name, kind, var_type, initial, description))

    def monitored(self, name: str, **kwargs: Any) -> VariableSpec:
        return self.declare(name, VariableKind.MONITORED, **kwargs)

    def input(self, name: str, **kwargs: Any) -> VariableSpec:
        return self.declare(name, VariableKind.INPUT, **kwargs)

    def output(self, name: str, **kwargs: Any) -> VariableSpec:
        return self.declare(name, VariableKind.OUTPUT, **kwargs)

    def controlled(self, name: str, **kwargs: Any) -> VariableSpec:
        return self.declare(name, VariableKind.CONTROLLED, **kwargs)

    def link_input(self, monitored: str, input_name: str) -> InputMapping:
        """Declare that the Input-Device converts ``monitored`` into ``input_name``."""
        self._require(monitored, VariableKind.MONITORED)
        self._require(input_name, VariableKind.INPUT)
        mapping = InputMapping(monitored, input_name)
        self._input_mappings.append(mapping)
        return mapping

    def link_output(self, output_name: str, controlled: str) -> OutputMapping:
        """Declare that the Output-Device converts ``output_name`` into ``controlled``."""
        self._require(output_name, VariableKind.OUTPUT)
        self._require(controlled, VariableKind.CONTROLLED)
        mapping = OutputMapping(output_name, controlled)
        self._output_mappings.append(mapping)
        return mapping

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def _require(self, name: str, kind: VariableKind) -> VariableSpec:
        spec = self.get(name)
        if spec.kind is not kind:
            raise ValueError(f"variable {name!r} is {spec.kind.value!r}, expected {kind.value!r}")
        return spec

    def get(self, name: str) -> VariableSpec:
        try:
            return self._variables[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._variables

    def variables(self, kind: Optional[VariableKind] = None) -> List[VariableSpec]:
        specs = list(self._variables.values())
        if kind is None:
            return specs
        return [spec for spec in specs if spec.kind is kind]

    def names(self, kind: Optional[VariableKind] = None) -> List[str]:
        return [spec.name for spec in self.variables(kind)]

    def input_for_monitored(self, monitored: str) -> Optional[str]:
        for mapping in self._input_mappings:
            if mapping.monitored == monitored:
                return mapping.input
        return None

    def output_for_controlled(self, controlled: str) -> Optional[str]:
        for mapping in self._output_mappings:
            if mapping.controlled == controlled:
                return mapping.output
        return None

    def validate(self) -> None:
        """Check structural consistency; raises :class:`ValueError` on problems."""
        for mapping in self._input_mappings:
            self._require(mapping.monitored, VariableKind.MONITORED)
            self._require(mapping.input, VariableKind.INPUT)
        for mapping in self._output_mappings:
            self._require(mapping.output, VariableKind.OUTPUT)
            self._require(mapping.controlled, VariableKind.CONTROLLED)


@dataclass(frozen=True)
class Event:
    """One timestamped observation at a four-variable boundary."""

    kind: EventKind
    variable: str
    value: Any
    timestamp_us: int
    meta: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.timestamp_us < 0:
            raise ValueError("event timestamp must be non-negative")

    def matches(self, kind: Optional[EventKind] = None, variable: Optional[str] = None) -> bool:
        if kind is not None and self.kind is not kind:
            return False
        if variable is not None and self.variable != variable:
            return False
        return True


class _IndexBucket:
    """Trace positions of one index slice plus their (sorted) timestamps.

    Positions are appended in trace order, so both lists are ascending; time
    windows therefore map to contiguous slices found by bisection.
    """

    __slots__ = ("positions", "times")

    def __init__(self) -> None:
        self.positions: List[int] = []
        self.times: List[int] = []

    def add(self, position: int, time_us: int) -> None:
        self.positions.append(position)
        self.times.append(time_us)

    def window(self, after_us: Optional[int], before_us: Optional[int]) -> Tuple[int, int]:
        """Slice bounds of the ``[after_us, before_us]`` window (both inclusive)."""
        lo = 0 if after_us is None else bisect_left(self.times, after_us)
        hi = len(self.times) if before_us is None else bisect_right(self.times, before_us)
        return lo, hi


_EMPTY_BUCKET = _IndexBucket()

#: Shared metadata for raw-path events recorded without any meta kwargs.
#: Events never mutate their meta mapping, so one empty dict can back all of
#: them (materialised events compare equal to seed-path events, whose
#: ``dict(meta)`` of no kwargs is also ``{}``).
_EMPTY_META: Dict[str, Any] = {}


class Trace:
    """An append-only, time-ordered, columnar sequence of :class:`Event` objects.

    Events are stored as parallel columns and materialised lazily (see the
    module docstring); they are indexed on first query by ``(kind, variable)``,
    by ``kind`` and by ``variable``, so :meth:`select`, :meth:`first` and
    :meth:`select_kinds` run in O(log n + matches) rather than scanning the
    whole trace.
    """

    __slots__ = (
        "_kinds",
        "_variables",
        "_values",
        "_timestamps",
        "_metas",
        "_cache",
        "_by_kind",
        "_by_variable",
        "_by_kind_variable",
        "_indexed_upto",
        "_events_view",
    )

    def __init__(self, events: Optional[Iterable[Event]] = None) -> None:
        self._kinds: List[EventKind] = []
        self._variables: List[str] = []
        self._values: List[Any] = []
        self._timestamps: List[int] = []
        self._metas: List[Mapping[str, Any]] = []
        #: Materialised events, parallel to the columns (None = not yet built).
        self._cache: List[Optional[Event]] = []
        self._by_kind: Dict[EventKind, _IndexBucket] = {}
        self._by_variable: Dict[str, _IndexBucket] = {}
        self._by_kind_variable: Dict[Tuple[EventKind, str], _IndexBucket] = {}
        self._indexed_upto = 0
        self._events_view: Optional[Tuple[Event, ...]] = None
        if events is not None:
            self.extend(events)

    @classmethod
    def from_sorted(cls, events: Iterable[Event]) -> "Trace":
        """Build a trace from events already known to be in timestamp order.

        This is the cheap builder path for trusted sources (another trace, a
        recorder draining in clock order): the columns are bulk-built without
        re-validating order event-by-event, and the indexes are left for the
        first query to build lazily.  The given event objects are kept in the
        materialisation cache, so queries return them identically.
        """
        trace = cls()
        cache = list(events)
        trace._cache = cache
        trace._kinds = [event.kind for event in cache]
        trace._variables = [event.variable for event in cache]
        trace._values = [event.value for event in cache]
        trace._timestamps = [event.timestamp_us for event in cache]
        trace._metas = [event.meta for event in cache]
        return trace

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _append_raw(
        self,
        kind: EventKind,
        variable: str,
        value: Any,
        timestamp_us: int,
        meta: Optional[Dict[str, Any]],
    ) -> None:
        """Record one observation without materialising an :class:`Event`.

        This is the recording fast path (used by :class:`TraceRecorder`): it
        performs exactly the validation the object path performs — monotone
        timestamps, non-negative first timestamp — and appends one element per
        column.  ``meta`` is stored as given (callers pass a fresh dict or
        ``None`` for no metadata).
        """
        timestamps = self._timestamps
        if timestamps:
            if timestamp_us < timestamps[-1]:
                raise ValueError(
                    "events must be appended in non-decreasing timestamp order: "
                    f"{timestamp_us} < {timestamps[-1]}"
                )
        elif timestamp_us < 0:
            raise ValueError("event timestamp must be non-negative")
        self._kinds.append(kind)
        self._variables.append(variable)
        self._values.append(value)
        timestamps.append(timestamp_us)
        self._metas.append(_EMPTY_META if meta is None else meta)
        self._cache.append(None)
        self._events_view = None

    def append(self, event: Event) -> None:
        timestamps = self._timestamps
        if timestamps and event.timestamp_us < timestamps[-1]:
            raise ValueError(
                "events must be appended in non-decreasing timestamp order: "
                f"{event.timestamp_us} < {timestamps[-1]}"
            )
        self._kinds.append(event.kind)
        self._variables.append(event.variable)
        self._values.append(event.value)
        timestamps.append(event.timestamp_us)
        self._metas.append(event.meta)
        self._cache.append(event)
        self._events_view = None

    def extend(self, events: Iterable[Event]) -> None:
        """Append a batch of events, validating order in one cheap pass."""
        timestamps = self._timestamps
        last = timestamps[-1] if timestamps else None
        kinds = self._kinds
        variables = self._variables
        values = self._values
        metas = self._metas
        cache = self._cache
        for event in events:
            if last is not None and event.timestamp_us < last:
                raise ValueError(
                    "events must be appended in non-decreasing timestamp order: "
                    f"{event.timestamp_us} < {last}"
                )
            last = event.timestamp_us
            kinds.append(event.kind)
            variables.append(event.variable)
            values.append(event.value)
            timestamps.append(last)
            metas.append(event.meta)
            cache.append(event)
        self._events_view = None

    def _event_at(self, position: int) -> Event:
        """Materialise (and cache) the event at ``position``.

        Works for negative positions too: Python's negative list indexing
        resolves reads and the cache write-back to the same slot.
        """
        cache = self._cache
        event = cache[position]
        if event is None:
            event = Event(
                self._kinds[position],
                self._variables[position],
                self._values[position],
                self._timestamps[position],
                self._metas[position],
            )
            cache[position] = event
        return event

    def _ensure_index(self) -> None:
        """Index the not-yet-indexed tail of the trace (amortised O(1) per event).

        Operates on the columns directly, so building the index never
        materialises events.
        """
        upto = self._indexed_upto
        count = len(self._timestamps)
        if upto == count:
            return
        kinds = self._kinds
        variables = self._variables
        timestamps = self._timestamps
        by_kind = self._by_kind
        by_variable = self._by_variable
        by_kind_variable = self._by_kind_variable
        for position in range(upto, count):
            time_us = timestamps[position]
            kind = kinds[position]
            variable = variables[position]
            bucket = by_kind.get(kind)
            if bucket is None:
                bucket = by_kind[kind] = _IndexBucket()
            bucket.add(position, time_us)
            bucket = by_variable.get(variable)
            if bucket is None:
                bucket = by_variable[variable] = _IndexBucket()
            bucket.add(position, time_us)
            key = (kind, variable)
            bucket = by_kind_variable.get(key)
            if bucket is None:
                bucket = by_kind_variable[key] = _IndexBucket()
            bucket.add(position, time_us)
        self._indexed_upto = count

    def __len__(self) -> int:
        return len(self._timestamps)

    def __iter__(self) -> Iterator[Event]:
        for position in range(len(self._timestamps)):
            yield self._event_at(position)

    def __getitem__(self, index: Union[int, slice]) -> Any:
        if isinstance(index, slice):
            return [self._event_at(position) for position in range(*index.indices(len(self._timestamps)))]
        # Range-check through the timestamp column (raises IndexError like a
        # list would), then materialise.
        self._timestamps[index]
        return self._event_at(index)

    @property
    def events(self) -> Sequence[Event]:
        """A stable immutable view of the events (cached until the next append)."""
        if self._events_view is None:
            self._events_view = tuple(
                self._event_at(position) for position in range(len(self._timestamps))
            )
        return self._events_view

    @property
    def duration_us(self) -> int:
        if not self._timestamps:
            return 0
        return self._timestamps[-1] - self._timestamps[0]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _bucket_for(self, kind: Optional[EventKind], variable: Optional[str]) -> Optional[_IndexBucket]:
        """Most specific index bucket for the filters; ``None`` means whole trace.

        Pure time-window queries (no kind/variable filter) bisect the
        timestamp array directly and must not trigger the index build.
        """
        if kind is None and variable is None:
            return None
        self._ensure_index()
        if kind is not None:
            if variable is not None:
                return self._by_kind_variable.get((kind, variable), _EMPTY_BUCKET)
            return self._by_kind.get(kind, _EMPTY_BUCKET)
        return self._by_variable.get(variable, _EMPTY_BUCKET)

    def select(
        self,
        kind: Optional[EventKind] = None,
        variable: Optional[str] = None,
        predicate: Optional[Callable[[Event], bool]] = None,
        after_us: Optional[int] = None,
        before_us: Optional[int] = None,
    ) -> List[Event]:
        """Return events matching all provided filters, in time order."""
        bucket = self._bucket_for(kind, variable)
        event_at = self._event_at
        if bucket is None:
            lo = 0 if after_us is None else bisect_left(self._timestamps, after_us)
            hi = len(self._timestamps) if before_us is None else bisect_right(self._timestamps, before_us)
            selected = [event_at(position) for position in range(lo, hi)]
        else:
            lo, hi = bucket.window(after_us, before_us)
            selected = [event_at(position) for position in bucket.positions[lo:hi]]
        if predicate is not None:
            return [event for event in selected if predicate(event)]
        return selected

    def first(
        self,
        kind: Optional[EventKind] = None,
        variable: Optional[str] = None,
        predicate: Optional[Callable[[Event], bool]] = None,
        after_us: Optional[int] = None,
        before_us: Optional[int] = None,
    ) -> Optional[Event]:
        """First event matching the filters at or after ``after_us``.

        ``before_us`` bounds the search window (inclusive), so callers probing
        a window get the early-exit path instead of materialising every match.
        """
        bucket = self._bucket_for(kind, variable)
        event_at = self._event_at
        # Iterate by index (no window slice copy) so the early exit really is
        # O(log n + 1) when the first candidate matches.
        if bucket is None:
            lo = 0 if after_us is None else bisect_left(self._timestamps, after_us)
            hi = len(self._timestamps) if before_us is None else bisect_right(self._timestamps, before_us)
            for position in range(lo, hi):
                event = event_at(position)
                if predicate is None or predicate(event):
                    return event
            return None
        lo, hi = bucket.window(after_us, before_us)
        positions = bucket.positions
        for index in range(lo, hi):
            event = event_at(positions[index])
            if predicate is None or predicate(event):
                return event
        return None

    def select_kinds(
        self,
        kinds: Iterable[EventKind],
        after_us: Optional[int] = None,
        before_us: Optional[int] = None,
    ) -> List[Event]:
        """Events of any of ``kinds`` in a time window, in trace order.

        Merges the per-kind index buckets by trace position, so the cost is
        O(log n + matches) regardless of how many other kinds the trace holds.
        """
        self._ensure_index()
        slices: List[List[int]] = []
        for kind in dict.fromkeys(kinds):
            bucket = self._by_kind.get(kind)
            if bucket is None:
                continue
            lo, hi = bucket.window(after_us, before_us)
            if lo < hi:
                slices.append(bucket.positions[lo:hi])
        if not slices:
            return []
        event_at = self._event_at
        if len(slices) == 1:
            return [event_at(position) for position in slices[0]]
        return [event_at(position) for position in heapq.merge(*slices)]

    def restricted_to(self, kinds: Iterable[EventKind]) -> "Trace":
        """A copy containing only the given event kinds (e.g. M and C for R-testing)."""
        return Trace.from_sorted(self.select_kinds(kinds))

    def value_changes(self, kind: EventKind, variable: str) -> List[Tuple[int, Any]]:
        """``(timestamp, value)`` pairs where ``variable`` changed value.

        Reads the value/timestamp columns directly — change detection needs no
        event materialisation.
        """
        self._ensure_index()
        bucket = self._by_kind_variable.get((kind, variable))
        if bucket is None:
            return []
        values = self._values
        timestamps = self._timestamps
        changes: List[Tuple[int, Any]] = []
        previous: Any = object()
        for position in bucket.positions:
            value = values[position]
            if value != previous:
                changes.append((timestamps[position], value))
                previous = value
        return changes


class TraceRecorder:
    """Collects events from the platform and integration layers into a trace.

    ``clock`` is a zero-argument callable returning the current simulated time
    in microseconds (usually ``simulator.now`` via a lambda), so the recorder
    does not depend on the platform package.

    All ``record_*`` methods use the trace's columnar fast path: no
    :class:`Event` object is constructed at record time (they return ``None``;
    read ``recorder.trace[-1]`` when a test needs the materialised event).
    """

    __slots__ = ("_clock", "trace")

    def __init__(self, clock: Callable[[], int]) -> None:
        self._clock = clock
        self.trace = Trace()

    @property
    def now(self) -> int:
        return self._clock()

    def record_m(self, variable: str, value: Any, **meta: Any) -> None:
        """Record a monitored-variable change (physical input boundary)."""
        self.trace._append_raw(EventKind.M, variable, value, self._clock(), meta or None)

    def record_i(self, variable: str, value: Any, **meta: Any) -> None:
        """Record an input-variable read by CODE(M)."""
        self.trace._append_raw(EventKind.I, variable, value, self._clock(), meta or None)

    def record_o(self, variable: str, value: Any, **meta: Any) -> None:
        """Record an output-variable write by CODE(M)."""
        self.trace._append_raw(EventKind.O, variable, value, self._clock(), meta or None)

    def record_c(self, variable: str, value: Any, **meta: Any) -> None:
        """Record a controlled-variable change (physical output boundary)."""
        self.trace._append_raw(EventKind.C, variable, value, self._clock(), meta or None)

    def record_transition_start(self, transition_id: str, **meta: Any) -> None:
        """Record that CODE(M) started executing a model transition."""
        self.trace._append_raw(EventKind.TRANSITION_START, transition_id, None, self._clock(), meta or None)

    def record_transition_end(self, transition_id: str, **meta: Any) -> None:
        """Record that CODE(M) finished executing a model transition."""
        self.trace._append_raw(EventKind.TRANSITION_END, transition_id, None, self._clock(), meta or None)
