"""Analysis and reporting: statistics, Table I rendering, figure data series."""

from .figures import (
    fig3_views,
    model_timing_view,
    render_sweep,
)
from .tables import SchemeResult, TableOne

__all__ = [
    "SchemeResult",
    "TableOne",
    "fig3_views",
    "model_timing_view",
    "render_sweep",
]
