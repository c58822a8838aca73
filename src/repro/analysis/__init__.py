"""Analysis and reporting: statistics, Table I rendering, figure data series.

* :mod:`repro.analysis.tables` — :class:`~repro.analysis.tables.TableOne`
  and :class:`~repro.analysis.tables.SchemeResult`;
* :mod:`repro.analysis.figures` — figure data series
  (``fig3_views``, ``model_timing_view``, ``render_sweep``);
* :mod:`repro.analysis.statistics` and :mod:`repro.analysis.export`.

Import names from those modules: this ``__init__`` loads none of them, so
importing one module of the layer does not load the rest.
"""
