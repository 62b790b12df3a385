"""KokkosP-style observability subsystem.

``repro.tools.registry`` is the callback surface the runtime emits into
(near-zero cost with nothing attached); this package front door adds the
built-in tool catalogue and a name -> instance factory used by the CLI
(``--tools space-time-stack,chrome-trace --tool-out out/``) and the
``tools`` input-script command.

Built-in tools:

* ``kernel-logger``     — streaming line-per-event log
* ``space-time-stack``  — hierarchical region/kernel time tree
* ``memory-events``     — per-memory-space allocation log + high-water mark
* ``chrome-trace``      — chrome://tracing JSON, one track per rank
* ``roofline``          — %-of-roof per kernel vs the active machine model
* ``metrics``           — Prometheus + JSONL counters/histograms per kernel

Only :mod:`repro.tools.registry` is imported eagerly here; the tool
implementations load on first use so instrumented low-level modules
(``repro.kokkos.*``) can import this package without cycles.
"""

from __future__ import annotations

import os

from repro.tools.registry import (  # noqa: F401  (re-exported surface)
    Tool,
    ToolChain,
    attach,
    attached,
    detach,
    finalize_all,
    profile_event,
    pop_region,
    push_region,
    set_rank,
)

#: name -> (module, class, needs_output_path)
TOOL_CATALOG: dict[str, tuple[str, str, bool]] = {
    "kernel-logger": ("repro.tools.kernel_logger", "KernelLogger", True),
    "space-time-stack": ("repro.tools.space_time_stack", "SpaceTimeStack", False),
    "memory-events": ("repro.tools.memory_events", "MemoryEvents", True),
    "chrome-trace": ("repro.tools.chrome_trace", "ChromeTrace", True),
    "roofline": ("repro.tools.roofline", "Roofline", False),
    "metrics": ("repro.tools.metrics", "MetricsTool", True),
}

#: default output filename per tool (within ``--tool-out``); an empty string
#: means the tool takes the output *directory* itself (it writes several
#: files, e.g. metrics.prom + metrics.jsonl)
_DEFAULT_OUT = {
    "kernel-logger": "kernel_log.txt",
    "memory-events": "memory_events.txt",
    "chrome-trace": "trace.json",
    "metrics": "",
}


def tool_names() -> list[str]:
    return sorted(TOOL_CATALOG)


def _catalog_key(name: str) -> str:
    """``name``'s :data:`TOOL_CATALOG` key; ValueError if there is none."""
    key = name.strip().lower().replace("_", "-")
    if key not in TOOL_CATALOG:
        from repro.core.errors import unknown_choice

        raise ValueError(unknown_choice(
            "tool", name, tool_names(), extra=" — or 'all' for every one"))
    return key


def create_tool(name: str, outdir: str | None = None) -> Tool:
    """Instantiate one built-in tool by its CLI name."""
    key = _catalog_key(name)
    module_name, cls_name, takes_out = TOOL_CATALOG[key]
    import importlib

    cls = getattr(importlib.import_module(module_name), cls_name)
    if not takes_out:
        return cls()
    out = None
    if key in _DEFAULT_OUT:
        base = outdir or "."
        os.makedirs(base, exist_ok=True)
        out = os.path.join(base, _DEFAULT_OUT[key]) if _DEFAULT_OUT[key] else base
    return cls(out) if out is not None else cls()


def create_tools(spec: str, outdir: str | None = None) -> list[Tool]:
    """Parse a comma-separated tool list (the ``--tools`` argument).

    ``all`` (alone or in the list) expands to every registered tool, in
    catalog order — derived from :data:`TOOL_CATALOG`, so new tools are
    covered automatically.  Every name is checked before any tool is
    built or any output directory made, so a rejected list leaves nothing
    behind.
    """
    names = [name for name in spec.split(",") if name.strip()]
    if any(n.strip().lower() == "all" for n in names):
        names = tool_names()
    keys = [_catalog_key(name) for name in names]
    return [create_tool(key, outdir) for key in keys]
