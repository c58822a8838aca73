"""Declarative platform assembly for system packs.

Every case study describes its simulated platform as data: one
:class:`PackPlatform` value listing device specs (edge-triggered buttons,
sampled level sensors, actuators), a map of stimulus actions, the
four-variable interface, the execution-time model and optional closed-loop
dynamics.  :func:`build_pack_bundle` assembles that value into the
:class:`repro.integration.base.PlatformBundle` every integration scheme
consumes — devices, environment, four-variable interfacing code and stimulus
routing — and :func:`build_pack_system` wires a bundle and a model's
generated CODE(M) into any of the paper's three implementation schemes.

A pack's ``build_system`` is :func:`build_pack_system` with the pack's id,
platform value and model builders bound, so every pack builds through the
same function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..codegen.execution_model import ExecutionTimeModel
from ..codegen.generator import GeneratedArtifacts, generate_code
from ..core.instrumentation import ProbeConfiguration
from ..core.four_variables import TraceRecorder
from ..integration.base import DEFAULT_ENGINE, EngineProfile, PlatformBundle, SchemeConfig
from ..integration.interference import InterferedConfig, InterferedSystem
from ..integration.interfacing import (
    EventInputBinding,
    InputInterfacing,
    LevelInputBinding,
    OutputBinding,
    OutputInterfacing,
)
from ..integration.multi_threaded import MultiThreadedSystem
from ..integration.single_threaded import SingleThreadedConfig, SingleThreadedSystem
from ..platform.devices.device import EventInputDevice, OutputDevice, StateInputDevice
from ..platform.kernel.random import JitterModel, RandomSource, uniform
from ..platform.kernel.simulator import Simulator
from ..platform.kernel.time import ms, us


@dataclass(frozen=True)
class ButtonSpec:
    """An edge-triggered input device (button, electrode, pedal)."""

    attribute: str
    monitored_variable: str
    input_variable: str
    sampling_period_us: int = ms(2)
    conversion_latency: Optional[JitterModel] = None


@dataclass(frozen=True)
class LevelSpec:
    """A sampled level sensor; optional falling edge feeds a second i-variable."""

    attribute: str
    monitored_variable: str
    rising_input: str
    falling_input: Optional[str] = None
    sampling_period_us: int = ms(10)
    conversion_latency: Optional[JitterModel] = None
    initial_value: bool = False
    #: Name the device records in its trace events' ``device`` meta, when it
    #: differs from ``attribute`` (the hardware attribute, fault target and
    #: random stream, which keep the attribute).
    device_name: Optional[str] = None


@dataclass(frozen=True)
class ActuatorSpec:
    """An output device realising one o-variable as a c-variable."""

    attribute: str
    output_variable: str
    controlled_variable: str
    actuation_latency: Optional[JitterModel] = None
    initial_value: int = 0


@dataclass(frozen=True)
class PressAction:
    """Stimulus action: trigger an edge device, releasing 50 ms later."""

    attribute: str


@dataclass(frozen=True)
class LevelAction:
    """Stimulus action: set a level sensor's physical value."""

    attribute: str
    value: bool = True


@dataclass(frozen=True)
class PackPlatform:
    """One case study's simulated platform, stated as data."""

    buttons: Tuple[ButtonSpec, ...]
    levels: Tuple[LevelSpec, ...]
    actuators: Tuple[ActuatorSpec, ...]
    #: Monitored variable -> :class:`PressAction` / :class:`LevelAction`.
    stimuli: Mapping[str, Any]
    #: Builds the four-variable interface declaration.
    interface: Callable[[], Any]
    execution_model: Callable[[], ExecutionTimeModel] = ExecutionTimeModel
    #: Closed-loop dynamics, ``dynamics(bundle)``, run once per bundle after
    #: assembly: it may observe devices, attach state to the environment and
    #: add stimulus actions, but must not schedule events or draw randomness.
    dynamics: Optional[Callable[[PlatformBundle], None]] = None


class PackHardware:
    """Device collection built from declarative specs.

    Devices are exposed as attributes named by their spec (``attribute`` is
    also the named random stream and, unless a level spec names another, the
    device name), which is the contract the sensor fault models rely on
    (``getattr(system.bundle.hardware, fault.device)``).  Devices are created
    buttons first, then levels, then actuators; input devices start in that
    order, which fixes the kernel's sequence numbers for their samples.
    """

    def __init__(
        self,
        simulator: Simulator,
        recorder: TraceRecorder,
        buttons: Sequence[ButtonSpec],
        levels: Sequence[LevelSpec],
        actuators: Sequence[ActuatorSpec],
        *,
        randomness: Optional[RandomSource] = None,
        device_wrapper: Optional[Callable[[type], type]] = None,
    ) -> None:
        self.simulator = simulator
        self.recorder = recorder
        randomness = randomness or RandomSource(0)
        wrap = device_wrapper if device_wrapper is not None else (lambda cls: cls)
        self._input_devices: List[object] = []
        self._output_devices: List[object] = []
        for spec in buttons:
            device = wrap(EventInputDevice)(
                spec.attribute,
                spec.monitored_variable,
                simulator,
                recorder,
                sampling_period_us=spec.sampling_period_us,
                conversion_latency=spec.conversion_latency or uniform(us(300), us(100)),
                rng=randomness.stream(spec.attribute),
            )
            setattr(self, spec.attribute, device)
            self._input_devices.append(device)
        for spec in levels:
            device = wrap(StateInputDevice)(
                spec.device_name or spec.attribute,
                spec.monitored_variable,
                simulator,
                recorder,
                sampling_period_us=spec.sampling_period_us,
                conversion_latency=spec.conversion_latency or uniform(us(500), us(200)),
                initial_value=spec.initial_value,
                rng=randomness.stream(spec.attribute),
            )
            setattr(self, spec.attribute, device)
            self._input_devices.append(device)
        for spec in actuators:
            device = wrap(OutputDevice)(
                spec.attribute,
                spec.controlled_variable,
                simulator,
                recorder,
                actuation_latency=spec.actuation_latency or uniform(ms(1), us(300)),
                initial_value=spec.initial_value,
                rng=randomness.stream(spec.attribute),
            )
            setattr(self, spec.attribute, device)
            self._output_devices.append(device)

    @property
    def input_devices(self) -> List[object]:
        return list(self._input_devices)

    @property
    def output_devices(self) -> List[object]:
        return list(self._output_devices)

    def start(self) -> None:
        """Start every device driver's sampling process."""
        for device in self._input_devices:
            device.start()


class PackEnvironment:
    """Stimulus-injection environment for declaratively built platforms."""

    def __init__(self, simulator: Simulator, hardware: PackHardware) -> None:
        self.simulator = simulator
        self.hardware = hardware

    def schedule_press(self, device: EventInputDevice, at_us: int, kind: str) -> None:
        """Press an edge device at ``at_us``; released 50 ms later."""
        self.simulator.schedule_at(at_us, lambda: device.trigger(True), label=f"env:{kind}")
        self.simulator.schedule_at(at_us + ms(50), device.release, label=f"env:{kind}:release")

    def schedule_level(
        self, device: StateInputDevice, at_us: int, value: bool, kind: str
    ) -> None:
        """Drive a level sensor's physical value at ``at_us``."""
        self.simulator.schedule_at(
            at_us, lambda: device.set_physical(value), label=f"env:{kind}"
        )


def build_pack_bundle(
    platform: PackPlatform,
    *,
    seed: int = 0,
    input_variables: Optional[Iterable[str]] = None,
    engine: EngineProfile = DEFAULT_ENGINE,
) -> PlatformBundle:
    """Assemble one fresh simulated platform from ``platform``.

    ``input_variables`` restricts the interfacing code to the i-variables the
    generated chart declares (with ``None`` every binding is created);
    ``engine`` selects the runtime engine (tests and benchmarks pass
    ``repro._reference.SEED_ENGINE`` to run the same platform on the frozen
    seed implementations).
    """
    simulator = engine.simulator_factory()
    recorder = engine.recorder_factory(lambda: simulator.now)
    hardware = PackHardware(
        simulator,
        recorder,
        platform.buttons,
        platform.levels,
        platform.actuators,
        randomness=RandomSource(seed),
        device_wrapper=engine.device_wrapper,
    )
    environment = PackEnvironment(simulator, hardware)

    wanted = set(input_variables) if input_variables is not None else None

    def include(variable: str) -> bool:
        return wanted is None or variable in wanted

    input_interfacing = InputInterfacing()
    for spec in platform.buttons:
        if include(spec.input_variable):
            input_interfacing.add(
                EventInputBinding(getattr(hardware, spec.attribute), spec.input_variable)
            )
    for spec in platform.levels:
        device = getattr(hardware, spec.attribute)
        if include(spec.rising_input):
            input_interfacing.add(LevelInputBinding(device, spec.rising_input))
        if spec.falling_input and include(spec.falling_input):
            input_interfacing.add(
                LevelInputBinding(device, spec.falling_input, trigger_value=False)
            )

    output_interfacing = OutputInterfacing(
        [
            OutputBinding(spec.output_variable, getattr(hardware, spec.attribute))
            for spec in platform.actuators
        ]
    )

    stimulus_actions: Dict[str, Callable[[int], None]] = {}
    for variable, action in platform.stimuli.items():
        device = getattr(hardware, action.attribute)
        if isinstance(action, PressAction):

            def press(at_us: int, device=device, kind=action.attribute) -> None:
                environment.schedule_press(device, at_us, kind)

            stimulus_actions[variable] = press
        else:

            def level(
                at_us: int, device=device, value=action.value, kind=action.attribute
            ) -> None:
                environment.schedule_level(device, at_us, value, kind)

            stimulus_actions[variable] = level

    bundle = PlatformBundle(
        simulator=simulator,
        recorder=recorder,
        scheduler_class=engine.scheduler_class,
        hardware=hardware,
        environment=environment,
        interface=platform.interface(),
        input_interfacing=input_interfacing,
        output_interfacing=output_interfacing,
        stimulus_actions=stimulus_actions,
    )
    if platform.dynamics is not None:
        platform.dynamics(bundle)
    return bundle


#: Scheme id -> (configuration class, system class).
_SCHEMES = {
    1: (SingleThreadedConfig, SingleThreadedSystem),
    2: (SchemeConfig, MultiThreadedSystem),
    3: (InterferedConfig, InterferedSystem),
}


def build_pack_system(
    system_id: str,
    platform: PackPlatform,
    model_builders: Mapping[str, Callable[[], Any]],
    scheme: int,
    *,
    model: str,
    seed: int = 0,
    period_us: Optional[int] = None,
    interference_scale: Optional[float] = None,
    artifacts: Optional[GeneratedArtifacts] = None,
    probes: Optional[ProbeConfiguration] = None,
    engine: EngineProfile = DEFAULT_ENGINE,
):
    """Assemble one implemented system of a pack (model -> code -> platform).

    Scheme 1 accepts a polling period, scheme 3 an interference scaling.
    ``artifacts`` shares one generated CODE(M) across many systems (default:
    generate it from ``model``'s chart); ``probes`` overrides the full
    M-level probes and ``engine`` the runtime engine.
    """
    chart_builder = model_builders.get(model)
    if chart_builder is None:
        known = ", ".join(sorted(model_builders))
        raise ValueError(f"unknown {system_id} model {model!r} (known: {known})")
    if scheme not in _SCHEMES:
        raise ValueError(f"unknown implementation scheme {scheme!r} (expected 1, 2 or 3)")
    if period_us is not None and scheme != 1:
        raise ValueError("period_us only applies to scheme 1 (single-threaded)")
    if interference_scale is not None and scheme != 3:
        raise ValueError("interference_scale only applies to scheme 3 (interfered)")
    if artifacts is None:
        artifacts = generate_code(chart_builder())
    bundle = build_pack_bundle(
        platform, seed=seed, input_variables=artifacts.code_model.input_names, engine=engine
    )
    config_class, system_class = _SCHEMES[scheme]
    config = config_class()
    if period_us is not None:
        config.period_us = period_us
    if interference_scale is not None:
        config = config.scaled_interference(interference_scale)
    config.execution_model = platform.execution_model()
    config.probes = probes or ProbeConfiguration.m_level()
    config.seed = seed
    return system_class(bundle, artifacts, config)


__all__: Tuple[str, ...] = (
    "ActuatorSpec",
    "ButtonSpec",
    "LevelAction",
    "LevelSpec",
    "PackEnvironment",
    "PackHardware",
    "PackPlatform",
    "PressAction",
    "build_pack_bundle",
    "build_pack_system",
)
