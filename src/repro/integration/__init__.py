"""Platform integration: the three implementation schemes of the case study."""

from .single_threaded import SingleThreadedConfig, SingleThreadedSystem

__all__ = [
    "SingleThreadedConfig",
    "SingleThreadedSystem",
]
