"""Content-keyed caching of generated CODE(M) artifacts.

A campaign executes many runs that share the same model.  Building the
statechart and generating code for every configuration is pure waste — the
artifacts are immutable and every system instantiates its own runtime via
``GeneratedArtifacts.new_instance()`` — so the cache builds them once per
*distinct model content* and hands the same artifacts to every run.

Keying is two-level:

* model **name** ("fig2", "extended") → memoised (fingerprint, artifacts), so
  repeat lookups skip even the chart construction;
* chart **fingerprint** (a stable hash of the chart's structure) → artifacts,
  so two names — or a caller-supplied chart — that denote structurally
  identical models share one generation run.

Each worker process owns one process-global cache (:func:`process_cache`);
nothing is shared across processes, so no locking is needed and cache state
can never influence results — only how often ``generate_code`` runs.
"""

from __future__ import annotations

import functools
import hashlib
from typing import TYPE_CHECKING, Dict, Optional

# Model names are globally unique across packs, so plain model names remain
# sufficient cache keys; ``model_builder`` imports only the owning pack.
from ..systems.base import model_builder

if TYPE_CHECKING:
    from ..codegen.generator import GeneratedArtifacts
    from ..model.statechart import Statechart

__all__ = [
    "ArtifactCache",
    "chart_fingerprint",
    "model_fingerprint",
    "process_cache",
]


def _const_key(const) -> str:
    """A stable key for one code-object constant (primitive, container, code)."""
    if isinstance(const, (int, float, str, bytes, bool, type(None))):
        return repr(const)
    if hasattr(const, "co_code"):  # nested lambda / comprehension
        return _code_key(const)
    if isinstance(const, (tuple, frozenset)):
        items = [_const_key(item) for item in const]
        if isinstance(const, frozenset):
            items = sorted(items)
        return f"{type(const).__name__}({','.join(items)})"
    return f"<{type(const).__name__}>"


def _code_key(code) -> str:
    """A stable key for one code object, covering every kind of constant."""
    const_keys = [_const_key(const) for const in code.co_consts]
    payload = code.co_code + repr((code.co_names, code.co_varnames, const_keys)).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def _stable_value_key(value) -> str:
    """A process-stable rendering of a transition ingredient.

    Plain values render via ``repr``; callables (guards, computed assignment
    values) render as their qualified name plus a hash of their bytecode,
    captured closure values and keyword defaults — stable across processes
    for the same source, unlike their default ``repr``, which embeds a memory
    address.  Residual limitation: a callable that *references* a global
    helper is keyed by the helper's name, not its definition, so swapping in
    a different same-named global between two charts in one process would
    not change the key.
    """
    if isinstance(value, functools.partial):
        inner = _stable_value_key(value.func)
        args = [_stable_value_key(argument) for argument in value.args]
        kwargs = {name: _stable_value_key(kw) for name, kw in sorted(value.keywords.items())}
        return f"partial:({inner},{args!r},{kwargs!r})"
    if callable(value):
        code = getattr(value, "__code__", None)
        qualname = f"{getattr(value, '__module__', '?')}.{getattr(value, '__qualname__', type(value).__name__)}"
        if code is None:
            # Callable object without bytecode: key by type plus instance
            # state so two differently-configured instances don't collide.
            state = {
                name: _stable_value_key(attr)
                for name, attr in sorted(getattr(value, "__dict__", {}).items())
            }
            return f"callable:{qualname}:{state!r}"
        # Captured state changes behaviour without changing bytecode: two
        # lambdas differing only in a closed-over constant or a keyword
        # default must not collide.
        closure_keys = []
        for cell in getattr(value, "__closure__", None) or ():
            try:
                closure_keys.append(_stable_value_key(cell.cell_contents))
            except ValueError:  # empty cell
                closure_keys.append("<empty-cell>")
        default_keys = [
            _stable_value_key(default) for default in getattr(value, "__defaults__", None) or ()
        ]
        payload = repr((qualname, _code_key(code), closure_keys, default_keys)).encode()
        return "callable:" + hashlib.sha256(payload).hexdigest()[:16]
    return repr(value)


def chart_fingerprint(chart: Statechart) -> str:
    """A stable content hash of a statechart's structure and behaviour.

    Covers every state, the full definition of every transition (trigger
    event, temporal trigger, guard, actions, priority — everything the code
    generator lowers into CODE(M)), and every event/variable declaration.
    Uses SHA-256 over a canonical rendering (never ``hash()``, which is
    process-salted), so the fingerprint is identical across worker processes
    and interpreter runs.
    """
    transition_keys = []
    for transition in chart.transitions:
        actions = ",".join(
            f"{assign.variable}<-{_stable_value_key(assign.value)}"
            for assign in transition.actions
        )
        transition_keys.append(
            f"{transition.name}:{transition.source}->{transition.target}"
            f"@{transition.priority}"
            f"|ev={transition.event}"
            f"|tmp={transition.temporal!r}"
            f"|guard={_stable_value_key(transition.guard) if transition.guard else '-'}"
            f"|act=[{actions}]"
        )
    parts = [
        f"name={chart.name}",
        f"initial={chart.initial_state}",
        "states=" + ",".join(sorted(chart.state_names)),
        "transitions=" + ";".join(transition_keys),
        "inputs=" + ",".join(sorted(event.name for event in chart.input_events)),
        "outputs="
        + ",".join(
            f"{variable.name}={variable.initial!r}" for variable in chart.output_variables
        ),
        "locals="
        + ",".join(
            f"{variable.name}={variable.initial!r}" for variable in chart.local_variables
        ),
    ]
    return hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()


#: Model name -> memoised structural fingerprint (building the chart just to
#: fingerprint it costs far more than the hash itself; store keys ask often).
_MODEL_FINGERPRINTS: Dict[str, str] = {}


def model_fingerprint(model: str) -> str:
    """The structural fingerprint of a named model's statechart (memoised).

    This is what makes persistent run-store keys *content*-addressed: a store
    coordinate embeds the fingerprint of the model the run executed, so
    editing a model silently invalidates every stored result computed from
    its previous structure.  Stable across processes and interpreter
    invocations (pinned by ``tests/campaign/test_fingerprint_stability.py``).
    """
    cached = _MODEL_FINGERPRINTS.get(model)
    if cached is None:
        cached = chart_fingerprint(model_builder(model)())
        _MODEL_FINGERPRINTS[model] = cached
    return cached


class ArtifactCache:
    """Builds statecharts and generates CODE(M) at most once per content key."""

    def __init__(self) -> None:
        self._by_fingerprint: Dict[str, GeneratedArtifacts] = {}
        self._by_model: Dict[str, GeneratedArtifacts] = {}
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def artifacts_for_model(self, model: str) -> GeneratedArtifacts:
        """Artifacts for a named model of any registered pack ("fig2", ...)."""
        cached = self._by_model.get(model)
        if cached is not None:
            self.hits += 1
            return cached
        artifacts = self.artifacts_for_chart(model_builder(model)())
        self._by_model[model] = artifacts
        return artifacts

    def artifacts_for_mutant(self, model: str, mutant) -> GeneratedArtifacts:
        """Artifacts for a named model with one mutation applied.

        ``mutant`` is a :class:`repro.faults.mutants.MutantSpec` (duck-typed —
        anything with ``mutant_id`` and ``apply(chart)``).  Memoised per
        ``(model, mutant_id)`` so a kill-matrix campaign rebuilds and
        regenerates each mutant at most once per worker process; structurally
        identical mutants additionally share artifacts via the fingerprint
        level, like any other chart.
        """
        key = f"{model}::{mutant.mutant_id}"
        cached = self._by_model.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        artifacts = self.artifacts_for_chart(mutant.apply(model_builder(model)()))
        self._by_model[key] = artifacts
        return artifacts

    def artifacts_for_chart(self, chart: Statechart) -> GeneratedArtifacts:
        """Artifacts for an explicit chart, shared by structural fingerprint."""
        fingerprint = chart_fingerprint(chart)
        cached = self._by_fingerprint.get(fingerprint)
        if cached is not None:
            self.hits += 1
            return cached
        from ..codegen.generator import generate_code

        self.misses += 1
        artifacts = generate_code(chart)
        self._by_fingerprint[fingerprint] = artifacts
        return artifacts

    # ------------------------------------------------------------------
    @property
    def generation_count(self) -> int:
        """How many times ``generate_code`` actually ran."""
        return self.misses

    def clear(self) -> None:
        self._by_fingerprint.clear()
        self._by_model.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "entries": len(self._by_fingerprint)}


#: The per-process cache used by campaign workers.
_PROCESS_CACHE: Optional[ArtifactCache] = None


def process_cache() -> ArtifactCache:
    """The calling process's artifact cache (created on first use)."""
    global _PROCESS_CACHE
    if _PROCESS_CACHE is None:
        _PROCESS_CACHE = ArtifactCache()
    return _PROCESS_CACHE
