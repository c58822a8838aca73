"""Compiled-C CODE(M) executor: execute the emitted C chart through ctypes.

The emitter (:mod:`repro.codegen.c_emitter`) produces the C translation unit
the paper's toolchain would deploy on the MCU.  This module actually compiles
that C (plus a thin harness) into a shared library with the host C compiler
and executes it through :mod:`ctypes`, so the tests can check that the C
``repro codegen`` emits behaves exactly like the Python CODE(M): step by step
in lockstep, and across whole scheme runs
(``system.code = CompiledGeneratedCode(model)`` on a built system).

Only the tests use it (``tests/test_runtime_engine.py`` imports it; pytest
does not collect this module).  Campaigns always run the generated Python
CODE(M): the compiled chart yields byte-identical verdicts and is no faster,
because the SUT runtime is about 1.4 % of a run.

Design constraints, in order:

* **Byte-identical behaviour.**  The integration schemes drive CODE(M) at
  transition granularity — ``enabled_transition()`` asks which row would fire
  (so its CPU cost can be charged first) and ``fire(row)`` commits it.  The
  emitted ``*_step`` function conflates both, so the harness emits an
  ``enabled``/``fire`` pair built from the *same* condition and action
  generators the emitter uses for ``*_step``.  The C side is authoritative
  for control flow (current state, input flags, state clock); the Python
  wrapper mirrors inputs/outputs/locals from the rows' literal actions so the
  objects flowing into traces keep their exact Python types (``True`` stays
  ``bool``, not ``1``).
* **A named reason when it cannot run.**  No C compiler on PATH, a chart
  using features the emitter cannot express (guards, computed action
  values) or a compile failure raises :class:`BackendUnavailable` with a
  human-readable reason.
* **No new dependencies.**  Compilation is a ``subprocess`` call to the host
  ``cc``/``gcc``/``clang``; loading and calling is plain :mod:`ctypes`.

Compiled libraries are cached per source hash, so a process compiles each
distinct chart once.
"""

from __future__ import annotations

import ctypes
import hashlib
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.codegen.c_emitter import (
    _emit_actions,
    _emit_transition_condition,
    _identifier,
    emit_c_source,
)
from repro.codegen.generated import Firing, GeneratedCodeError
from repro.codegen.ir import CodeModel
from repro.model.declarations import OutputWrite

#: Compiler executables probed on PATH, in preference order.
_COMPILER_CANDIDATES = ("cc", "gcc", "clang")

#: source-hash -> loaded shared library (one compile per chart per process).
_COMPILED_CACHE: Dict[str, ctypes.CDLL] = {}
#: Keep the temporary build directories alive for the process lifetime (the
#: loaded .so must stay on disk on some platforms).
_WORKDIRS: List[tempfile.TemporaryDirectory] = []


class BackendUnavailable(RuntimeError):
    """The compiled-C executor cannot run in this environment or for this chart."""


def find_c_compiler() -> Optional[str]:
    """Absolute path of the first available host C compiler, or ``None``."""
    for name in _COMPILER_CANDIDATES:
        path = shutil.which(name)
        if path:
            return path
    return None


def check_compilable(model: CodeModel) -> Optional[str]:
    """Why ``model`` cannot be executed as compiled C, or ``None`` if it can.

    The emitter renders guards as calls to undefined ``guard_N`` functions and
    computed action values as ``/* computed */ 0`` placeholders; charts using
    either feature have no faithful C form.
    """
    for row in model.transitions:
        if row.guard is not None:
            return f"transition {row.name!r} has a guard (not expressible in emitted C)"
        for action in row.actions:
            if callable(action.value):
                return (
                    f"transition {row.name!r} assigns a computed value to "
                    f"{action.variable!r} (not expressible in emitted C)"
                )
            if not isinstance(action.value, (bool, int)):
                return (
                    f"transition {row.name!r} assigns non-integer value "
                    f"{action.value!r} to {action.variable!r}"
                )
    for name, value in list(model.output_initials.items()) + list(model.local_initials.items()):
        if not isinstance(value, (bool, int)):
            return f"variable {name!r} has non-integer initial value {value!r}"
    return None


# ----------------------------------------------------------------------
# Harness emission
# ----------------------------------------------------------------------
def emit_harness_source(model: CodeModel) -> str:
    """The emitted chart C plus the transition-granular test harness.

    The harness owns a heap-allocated instance struct (so one process can run
    many instances — a scheme run builds a fresh SUT per sample) and
    exposes:

    * ``harness_new`` / ``harness_free`` / ``harness_reset`` — lifecycle;
    * ``harness_set_input`` / ``harness_clear_inputs`` /
      ``harness_advance_clock`` — the interfacing-code API, by variable index;
    * ``harness_enabled`` — index of the highest-priority enabled transition
      row out of the current state (or -1), evaluating exactly the conditions
      ``*_step`` evaluates, without committing;
    * ``harness_fire`` — commit one row by index (event consumption, actions,
      state switch, clock reset), rejecting rows whose source state does not
      match;
    * ``harness_state`` / ``harness_state_clock`` / ``harness_output`` /
      ``harness_local`` — state inspection for the Python mirror cross-checks.
    """
    chart_id = _identifier(model.name)
    lines: List[str] = [emit_c_source(model)]
    lines.append("#include <stdlib.h>")
    lines.append("")
    lines.append("typedef struct {")
    lines.append(f"    {chart_id}_dwork_t dw;")
    lines.append(f"    {chart_id}_io_t io;")
    lines.append("} harness_t;")
    lines.append("")
    lines.append("harness_t *harness_new(void)")
    lines.append("{")
    lines.append("    harness_t *h = (harness_t *)malloc(sizeof(harness_t));")
    lines.append(f"    if (h) {{ {chart_id}_init(&h->dw, &h->io); }}")
    lines.append("    return h;")
    lines.append("}")
    lines.append("")
    lines.append("void harness_free(harness_t *h)")
    lines.append("{")
    lines.append("    free(h);")
    lines.append("}")
    lines.append("")
    lines.append("void harness_reset(harness_t *h)")
    lines.append("{")
    lines.append(f"    {chart_id}_init(&h->dw, &h->io);")
    lines.append("}")
    lines.append("")
    lines.append("void harness_set_input(harness_t *h, int32_t input, int32_t value)")
    lines.append("{")
    lines.append("    switch (input) {")
    for index, name in enumerate(model.input_names):
        lines.append(f"    case {index}: h->io.{_identifier(name)} = (uint8_t)(value ? 1u : 0u); break;")
    lines.append("    default: break;")
    lines.append("    }")
    lines.append("}")
    lines.append("")
    lines.append("void harness_clear_inputs(harness_t *h)")
    lines.append("{")
    for name in model.input_names:
        lines.append(f"    h->io.{_identifier(name)} = 0u;")
    if not model.input_names:
        lines.append("    (void)h;")
    lines.append("}")
    lines.append("")
    lines.append("void harness_advance_clock(harness_t *h, uint32_t ticks)")
    lines.append("{")
    lines.append("    h->dw.state_clock_ms += ticks;")
    lines.append("}")
    lines.append("")
    lines.append("int32_t harness_state(harness_t *h)")
    lines.append("{")
    lines.append("    return (int32_t)h->dw.current_state;")
    lines.append("}")
    lines.append("")
    lines.append("uint32_t harness_state_clock(harness_t *h)")
    lines.append("{")
    lines.append("    return h->dw.state_clock_ms;")
    lines.append("}")
    lines.append("")
    lines.append("int32_t harness_output(harness_t *h, int32_t output)")
    lines.append("{")
    lines.append("    switch (output) {")
    for index, name in enumerate(model.output_initials):
        lines.append(f"    case {index}: return h->io.{_identifier(name)};")
    lines.append("    default: return 0;")
    lines.append("    }")
    lines.append("}")
    lines.append("")
    lines.append("int32_t harness_local(harness_t *h, int32_t index)")
    lines.append("{")
    lines.append("    switch (index) {")
    for index, name in enumerate(model.local_initials):
        lines.append(f"    case {index}: return h->dw.{_identifier(name)};")
    lines.append("    default: return 0;")
    lines.append("    }")
    lines.append("}")
    lines.append("")
    lines.append("int32_t harness_enabled(harness_t *h)")
    lines.append("{")
    lines.append(f"    {chart_id}_dwork_t *dw = &h->dw;")
    lines.append(f"    {chart_id}_io_t *io = &h->io;")
    lines.append("    (void)io;")
    lines.append("    switch (dw->current_state) {")
    for state_index, state_name in enumerate(model.state_names):
        lines.append(f"    case {chart_id}_STATE_{_identifier(state_name).upper()}: {{")
        for row in model.transitions_from(state_index):
            condition = _emit_transition_condition(row, chart_id)
            lines.append(f"        if ({condition}) {{ return {row.index}; }}  /* {row.name} */")
        lines.append("        return -1;")
        lines.append("    }")
    lines.append("    default:")
    lines.append("        return -1;")
    lines.append("    }")
    lines.append("}")
    lines.append("")
    lines.append("int32_t harness_fire(harness_t *h, int32_t row)")
    lines.append("{")
    lines.append(f"    {chart_id}_dwork_t *dw = &h->dw;")
    lines.append(f"    {chart_id}_io_t *io = &h->io;")
    lines.append("    (void)io;")
    lines.append("    switch (row) {")
    for row in model.transitions:
        source_state = model.state_names[row.source_index]
        lines.append(f"    case {row.index}: {{  /* {row.name} */")
        lines.append(
            f"        if (dw->current_state != {chart_id}_STATE_{_identifier(source_state).upper()})"
            " { return -1; }"
        )
        # _emit_actions renders at the *_step indentation depth; the extra
        # indentation is harmless inside this switch case.
        lines.extend(_emit_actions(row, chart_id, model))
        lines.append("        return 0;")
        lines.append("    }")
    lines.append("    default:")
    lines.append("        return -1;")
    lines.append("    }")
    lines.append("}")
    lines.append("")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------
def compile_harness(model: CodeModel, compiler: Optional[str] = None) -> ctypes.CDLL:
    """Compile the harness for ``model`` into a loaded shared library.

    Raises :class:`BackendUnavailable` with a usable reason when no compiler
    exists or compilation fails.  Results are cached per source hash.
    """
    reason = check_compilable(model)
    if reason is not None:
        raise BackendUnavailable(reason)
    source = emit_harness_source(model)
    key = hashlib.sha256(source.encode("utf-8")).hexdigest()
    cached = _COMPILED_CACHE.get(key)
    if cached is not None:
        return cached
    compiler = compiler or find_c_compiler()
    if compiler is None:
        raise BackendUnavailable(
            "no C compiler found on PATH (tried " + ", ".join(_COMPILER_CANDIDATES) + ")"
        )
    workdir = tempfile.TemporaryDirectory(prefix="repro-c-backend-")
    directory = Path(workdir.name)
    source_path = directory / "harness.c"
    library_path = directory / "harness.so"
    source_path.write_text(source, encoding="utf-8")
    command = [
        compiler,
        "-shared",
        "-fPIC",
        "-O2",
        "-o",
        str(library_path),
        str(source_path),
    ]
    result = subprocess.run(command, capture_output=True, text=True)
    if result.returncode != 0:
        detail = (result.stderr or result.stdout).strip().splitlines()
        summary = detail[0] if detail else f"exit status {result.returncode}"
        raise BackendUnavailable(f"harness compilation failed: {summary}")
    try:
        library = ctypes.CDLL(str(library_path))
    except OSError as exc:
        raise BackendUnavailable(f"compiled harness failed to load: {exc}") from exc
    _configure_prototypes(library)
    _COMPILED_CACHE[key] = library
    _WORKDIRS.append(workdir)
    return library


def _configure_prototypes(library: ctypes.CDLL) -> None:
    handle = ctypes.c_void_p
    library.harness_new.restype = handle
    library.harness_new.argtypes = []
    library.harness_free.restype = None
    library.harness_free.argtypes = [handle]
    library.harness_reset.restype = None
    library.harness_reset.argtypes = [handle]
    library.harness_set_input.restype = None
    library.harness_set_input.argtypes = [handle, ctypes.c_int32, ctypes.c_int32]
    library.harness_clear_inputs.restype = None
    library.harness_clear_inputs.argtypes = [handle]
    library.harness_advance_clock.restype = None
    library.harness_advance_clock.argtypes = [handle, ctypes.c_uint32]
    library.harness_state.restype = ctypes.c_int32
    library.harness_state.argtypes = [handle]
    library.harness_state_clock.restype = ctypes.c_uint32
    library.harness_state_clock.argtypes = [handle]
    library.harness_output.restype = ctypes.c_int32
    library.harness_output.argtypes = [handle, ctypes.c_int32]
    library.harness_local.restype = ctypes.c_int32
    library.harness_local.argtypes = [handle, ctypes.c_int32]
    library.harness_enabled.restype = ctypes.c_int32
    library.harness_enabled.argtypes = [handle]
    library.harness_fire.restype = ctypes.c_int32
    library.harness_fire.argtypes = [handle, ctypes.c_int32]


# ----------------------------------------------------------------------
# The compiled executor
# ----------------------------------------------------------------------
class CompiledGeneratedCode:
    """CODE(M) executor backed by the compiled emitted C.

    Exposes the exact :class:`repro.codegen.generated.GeneratedCode` surface
    the integration schemes use.  The compiled chart is authoritative for
    control flow — which transition is enabled, state switching, event
    consumption, the state clock — while ``inputs``/``outputs``/``locals``
    are Python mirrors maintained from the rows' literal actions so values
    keep their Python types.  :meth:`crosscheck` verifies the two sides agree.
    """

    def __init__(self, model: CodeModel, library: Optional[ctypes.CDLL] = None) -> None:
        self.model = model
        self._library = library if library is not None else compile_harness(model)
        self._handle = self._library.harness_new()
        if not self._handle:
            raise BackendUnavailable("harness instance allocation failed")
        self._input_index = {name: index for index, name in enumerate(model.input_names)}
        self._output_index = {name: index for index, name in enumerate(model.output_initials)}
        self._local_index = {name: index for index, name in enumerate(model.local_initials)}
        self._rows_by_index = {row.index: row for row in model.transitions}
        self.inputs: Dict[str, bool] = {name: False for name in model.input_names}
        self.outputs: Dict[str, Any] = dict(model.output_initials)
        self.locals: Dict[str, Any] = dict(model.local_initials)
        self.firing_history: List[Firing] = []

    def __del__(self) -> None:  # pragma: no cover - interpreter-shutdown timing
        handle = getattr(self, "_handle", None)
        if handle:
            try:
                self._library.harness_free(handle)
            except Exception:
                pass
            self._handle = None

    # Introspection ------------------------------------------------------
    @property
    def state_index(self) -> int:
        return self._library.harness_state(self._handle)

    @property
    def state_clock_ticks(self) -> int:
        return self._library.harness_state_clock(self._handle)

    @property
    def state_name(self) -> str:
        return self.model.state_names[self.state_index]

    def output(self, name: str) -> Any:
        try:
            return self.outputs[name]
        except KeyError:
            raise GeneratedCodeError(f"unknown output variable {name!r}") from None

    # Interfacing-code API -----------------------------------------------
    def set_input(self, name: str, value: bool = True) -> None:
        index = self._input_index.get(name)
        if index is None:
            raise GeneratedCodeError(f"unknown input variable {name!r}")
        self._library.harness_set_input(self._handle, index, 1 if value else 0)
        self.inputs[name] = bool(value)

    def advance_clock(self, ticks: int) -> None:
        if ticks < 0:
            raise GeneratedCodeError("cannot advance the clock by a negative amount")
        self._library.harness_advance_clock(self._handle, ticks)

    def clear_inputs(self) -> None:
        self._library.harness_clear_inputs(self._handle)
        for name in self.inputs:
            self.inputs[name] = False

    def reset(self) -> None:
        self._library.harness_reset(self._handle)
        self.inputs = {name: False for name in self.model.input_names}
        self.outputs = dict(self.model.output_initials)
        self.locals = dict(self.model.local_initials)
        self.firing_history = []

    # Transition-table execution -----------------------------------------
    def enabled_transition(self):
        row_index = self._library.harness_enabled(self._handle)
        if row_index < 0:
            return None
        return self._rows_by_index[row_index]

    def fire(self, row) -> List[OutputWrite]:
        if row.source_index != self.state_index:
            raise GeneratedCodeError(
                f"cannot fire {row.name!r} from state {self.state_name!r}"
            )
        status = self._library.harness_fire(self._handle, row.index)
        if status != 0:
            raise GeneratedCodeError(
                f"compiled harness rejected transition {row.name!r} (status {status})"
            )
        if row.trigger_kind == "event":
            self.inputs[row.trigger_param] = False
        writes: List[OutputWrite] = []
        for action in row.actions:
            value = action.value
            if action.is_output:
                self.outputs[action.variable] = value
                writes.append(OutputWrite(action.variable, value))
            else:
                self.locals[action.variable] = value
        firing = Firing(row, tuple(writes))
        self.firing_history.append(firing)
        return writes

    def scan(self, max_transitions: Optional[int] = None) -> List[Firing]:
        limit = max_transitions if max_transitions is not None else 64
        firings: List[Firing] = []
        for _ in range(limit):
            row = self.enabled_transition()
            if row is None:
                break
            writes = self.fire(row)
            firings.append(Firing(row, tuple(writes)))
        self.clear_inputs()
        return firings

    # Verification --------------------------------------------------------
    def crosscheck(self) -> None:
        """Assert the compiled state agrees with the Python mirrors.

        Used by the lockstep equivalence tests: any divergence between the C
        control flow and the mirror bookkeeping raises immediately.
        """
        for name, index in self._output_index.items():
            c_value = self._library.harness_output(self._handle, index)
            if int(self.outputs[name]) != c_value:
                raise AssertionError(
                    f"output {name!r} diverged: python={self.outputs[name]!r} c={c_value!r}"
                )
        for name, index in self._local_index.items():
            c_value = self._library.harness_local(self._handle, index)
            if int(self.locals[name]) != c_value:
                raise AssertionError(
                    f"local {name!r} diverged: python={self.locals[name]!r} c={c_value!r}"
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledGeneratedCode({self.model.name!r}, state={self.state_name!r}, "
            f"clock={self.state_clock_ticks})"
        )
