"""Simulated sensors, actuators and their device drivers."""

from .device import Device, DeviceEvent, EventInputDevice, OutputDevice, StateInputDevice

__all__ = [
    "Device",
    "DeviceEvent",
    "EventInputDevice",
    "OutputDevice",
    "StateInputDevice",
]
