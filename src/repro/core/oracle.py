"""Stimulus/response matching over four-variable traces.

R-testing needs to pair every injected m-event with the c-event it caused (or
establish that none arrived before the time-out); M-testing needs the same
pairing plus the intermediate i- and o-events.  The matcher implements FIFO
pairing: responses are assigned to stimuli in arrival order, and a response is
never assigned to a stimulus that occurred after it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .four_variables import Event, EventKind, Trace
from .requirements import EventSpec


@dataclass(frozen=True)
class MatchedPair:
    """One stimulus event and the response event attributed to it (if any)."""

    index: int
    stimulus: Event
    response: Optional[Event]

    @property
    def latency_us(self) -> Optional[int]:
        if self.response is None:
            return None
        return self.response.timestamp_us - self.stimulus.timestamp_us


class ResponseMatcher:
    """Pairs stimulus m-events with response c-events in a trace."""

    def __init__(self, stimulus: EventSpec, response: EventSpec) -> None:
        self.stimulus = stimulus
        self.response = response

    def match(self, trace: Trace, timeout_us: Optional[int] = None) -> List[MatchedPair]:
        """Pair every stimulus in ``trace`` with its response.

        A response is attributed to the earliest still-unmatched stimulus that
        precedes it.  With ``timeout_us`` given, a response arriving more than
        the timeout after its candidate stimulus is not attributed to it: the
        pair is reported unanswered (which R-testing renders as MAX), and —
        unlike the pre-index implementation, which silently discarded it — the
        late response is **not consumed**.  It remains available as a
        candidate for the *next* stimulus, so one slow sample can never
        cascade into artificial MAX verdicts for every sample after it
        (pinned by ``tests/core/test_oracle.py``).
        """
        stimuli = [
            event
            for event in trace.select(kind=EventKind.M, variable=self.stimulus.variable)
            if self.stimulus.matches(event)
        ]
        responses = [
            event
            for event in trace.select(kind=EventKind.C, variable=self.response.variable)
            if self.response.matches(event)
        ]
        pairs: List[MatchedPair] = []
        response_cursor = 0
        for index, stimulus_event in enumerate(stimuli):
            chosen: Optional[Event] = None
            cursor = response_cursor
            while cursor < len(responses):
                candidate = responses[cursor]
                if candidate.timestamp_us < stimulus_event.timestamp_us:
                    # A response from before this stimulus can only belong to an
                    # earlier stimulus; skip past it permanently.
                    cursor += 1
                    response_cursor = cursor
                    continue
                if timeout_us is not None and candidate.timestamp_us - stimulus_event.timestamp_us > timeout_us:
                    chosen = None
                    break
                chosen = candidate
                response_cursor = cursor + 1
                break
            pairs.append(MatchedPair(index=index, stimulus=stimulus_event, response=chosen))
        return pairs

    # ------------------------------------------------------------------
    # Helpers used by M-testing
    # ------------------------------------------------------------------
    @staticmethod
    def first_event_after(
        trace: Trace,
        kind: EventKind,
        variable: str,
        after_us: int,
        *,
        before_us: Optional[int] = None,
        spec: Optional[EventSpec] = None,
    ) -> Optional[Event]:
        """First event of ``kind``/``variable`` at or after ``after_us``.

        ``before_us`` bounds the search window; ``spec`` optionally filters by
        value (e.g. only ``o-MotorState`` writes of value 1).  Uses the
        trace's indexed early-exit path rather than materialising every
        matching event in the window.
        """
        return trace.first(
            kind=kind,
            variable=variable,
            predicate=spec.matches if spec is not None else None,
            after_us=after_us,
            before_us=before_us,
        )
