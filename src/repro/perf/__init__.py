"""Performance engineering subsystem: workspaces and the per-op view.

Two halves serve the "as fast as the hardware allows" goal:

- :mod:`repro.perf.workspace` — persistent named buffer pools that make
  the GP hot loop allocation-free (kernels write into pooled buffers
  via ``out=`` arguments and in-place ufuncs),
- :mod:`repro.perf.profiler` — Fig.-9-style per-op breakdown tables,
  computed from the spans :mod:`repro.obs.trace` recorded (exposed on
  the CLI as ``repro place --profile``).  It measures nothing itself.
"""

from repro.perf.profiler import OpStats, op_stats
from repro.perf.workspace import NullWorkspace, Workspace

__all__ = [
    "Workspace",
    "NullWorkspace",
    "OpStats",
    "op_stats",
]
