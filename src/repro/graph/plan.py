"""The two names ``bench_e2e/trace.py`` reads here; there is no graph mode.

The trace patches :meth:`GraphPlan.replay`, which nothing calls, and reads
``plan_cache().stats()``, which counts no lookups, so its ``graph.*``
metrics read 0.  Both go once the trace stops naming them.
"""


class GraphPlan:
    def replay(self) -> None:
        """Never called."""


class PlanCache:
    def stats(self) -> dict[str, int]:
        return {"hits": 0, "misses": 0}


_CACHE = PlanCache()


def plan_cache() -> PlanCache:
    return _CACHE
