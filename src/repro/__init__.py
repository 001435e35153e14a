"""repro — a reproduction of DREAMPlace (DAC 2019 / TCAD 2021).

Analytical VLSI global placement cast as neural-network training: cell
coordinates are the trainable weights, wirelength is the loss, and the
ePlace electrostatic density penalty is the regularizer, solved with
gradient-descent engines on a deep-learning-toolkit-style substrate.

Public entry points:

- :class:`repro.core.DreamPlacer` — the full GP -> LG -> DP flow.
- :class:`repro.core.PlacementParams` — flow configuration.
- :mod:`repro.benchgen` — synthetic benchmark suites (scaled ISPD2005 /
  DAC2012 / industrial analogs).
- :mod:`repro.nn` — the autograd + optimizer substrate.
- :mod:`repro.ops` — wirelength/density operators with multiple kernel
  strategies.
"""

__version__ = "1.1.0"

from repro.geometry import BinGrid, PlacementRegion
from repro.netlist import CellKind, Netlist, PlacementDB


def __getattr__(name):
    # lazy top-level conveniences (keep `import repro` light)
    if name in ("DreamPlacer", "PlacementParams", "GlobalPlacer"):
        import repro.core as core

        return getattr(core, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


__all__ = [
    "__version__",
    "PlacementRegion",
    "BinGrid",
    "Netlist",
    "CellKind",
    "PlacementDB",
    "DreamPlacer",
    "PlacementParams",
    "GlobalPlacer",
]
