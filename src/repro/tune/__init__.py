"""Runtime autotuning of the paper's section 4.1 cells (list × newton).

Public surface:

* :class:`~repro.tune.autotuner.Autotuner` — the search/lock-in engine.
* :class:`~repro.tune.plan.TunePlanStore` — persisted (workload, arch)
  winners so repeat runs skip the search.
* :mod:`repro.tune.space` — the cell enumeration and the apply/snapshot
  helpers.
"""

from repro.tune.autotuner import Autotuner
from repro.tune.plan import TunePlanStore

__all__ = ["Autotuner", "TunePlanStore"]
