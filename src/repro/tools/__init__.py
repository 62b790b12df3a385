"""KokkosP-style observability subsystem.

``repro.tools.registry`` is the callback surface the runtime emits into
(near-zero cost with nothing attached); this package front door adds the
built-in tool catalogue and a name -> instance factory used by the CLI
(``--tools space-time-stack,chrome-trace --tool-out out/``) and the
``tools`` input-script command.

Built-in tools:

* ``space-time-stack``  — hierarchical region/kernel time tree
* ``chrome-trace``      — chrome://tracing JSON, one track per rank

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

#: name -> (module, class, output): ``output`` is the file the tool writes
#: within ``--tool-out``, None no output at all
TOOL_CATALOG: dict[str, tuple[str, str, str | None]] = {
    "space-time-stack": ("repro.tools.space_time_stack", "SpaceTimeStack", None),
    "chrome-trace": ("repro.tools.chrome_trace", "ChromeTrace", "trace.json"),
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
    module_name, cls_name, out = TOOL_CATALOG[key]
    import importlib

    cls = getattr(importlib.import_module(module_name), cls_name)
    if out is None:
        return cls()
    base = outdir or "."
    os.makedirs(base, exist_ok=True)
    return cls(os.path.join(base, out))


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
