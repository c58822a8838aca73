"""Code generation: lowering statecharts to executable CODE(M) artefacts.

:func:`repro.codegen.generator.generate_code` is the entry point.  This
``__init__`` loads no module, so a pack that needs only the execution-time
model (:mod:`repro.codegen.execution_model`) does not load the generator.
"""
