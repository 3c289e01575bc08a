"""coarselab: expanders, covers, walls, small cancellation labelings,
wreath lamp groups, Poincare inequalities, and coarse embedding
diagnostics for finite graphs.

Importing the package registers each library module without running it:
a module runs on the first read of one of its attributes."""

import importlib.util
import sys

__version__ = "0.1.0"

for _name in ("covers_walls", "errors", "expander_zoo", "graph_core", "jsonio",
              "labelings", "metric_diag", "poincare_lab", "wreath"):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    sys.modules[_spec.name] = globals()[_name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules[_spec.name])
del _name, _spec
