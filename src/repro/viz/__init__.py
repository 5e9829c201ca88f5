"""Terminal visualizations of simulation results (Gantt, traffic)."""

from .gantt import GanttRow, bus_gantt, flow_gantt, pipeline_gantt, render_rows
from .traffic import (
    LinkStats,
    device_traffic_matrix,
    format_matrix,
    host_traffic_matrix,
    link_stats,
)

__all__ = [
    "GanttRow",
    "render_rows",
    "pipeline_gantt",
    "flow_gantt",
    "host_traffic_matrix",
    "device_traffic_matrix",
    "link_stats",
    "LinkStats",
    "format_matrix",
    "bus_gantt",
]
