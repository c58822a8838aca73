"""Code generation: lowering statecharts to executable CODE(M) artefacts."""

from .generator import generate_code

__all__ = [
    "generate_code",
]
