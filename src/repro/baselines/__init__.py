"""Baselines from the paper's related work: black-box online testing
(:mod:`repro.baselines.blackbox_online`) and functional (SIL-style)
conformance checking (:mod:`repro.baselines.functional_conformance`).

Import names from those modules: this ``__init__`` loads neither.
"""
