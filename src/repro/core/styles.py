"""Style registries and accelerator-suffix resolution (paper sections 2-3).

LAMMPS maps input-script command names to C++ classes through registries
populated by macros in each style's header.  Accelerator packages register
*replacement* styles under the same name plus a package suffix (``/kk`` for
KOKKOS), and a global ``suffix`` setting makes the parser try the suffixed
name first — so ``pair_style lj/cut`` silently becomes ``lj/cut/kk`` when
the user asked for Kokkos acceleration, without losing access to styles that
have no accelerated variant (section 3.1).

``/kk`` is an alias of ``/kk/device``; ``/kk/host`` requests the host
instantiation of the same Kokkos style (section 3.3's dual-instantiation).
A suffix no catalogued style carries is refused where it is set
(:func:`check_suffix`), never fallen back from in silence.

:data:`STYLE_CATALOG` is LAMMPS's generated ``style_*.h`` table: every
style and its package, which :func:`resolve_style` imports the first time a
script names one of its styles, so a run loads only the packages it uses.
"""

from __future__ import annotations

import importlib
from typing import Callable, TypeVar

from repro.core.errors import StyleError, unknown_choice

T = TypeVar("T", bound=type)

PAIR_STYLES: dict[str, type] = {}
FIX_STYLES: dict[str, type] = {}
COMPUTE_STYLES: dict[str, type] = {}

_REGISTRIES = {
    "pair": PAIR_STYLES,
    "fix": FIX_STYLES,
    "compute": COMPUTE_STYLES,
}

#: category -> style name -> the package whose import registers it
STYLE_CATALOG: dict[str, dict[str, str]] = {
    "pair": {
        "lj/cut": "repro.potentials", "lj/cut/kk": "repro.potentials",
        "lj/cut/gpu": "repro.potentials",
        "eam/fs": "repro.potentials", "eam/fs/kk": "repro.potentials",
        "reaxff": "repro.reaxff", "reaxff/kk": "repro.reaxff",
        "snap": "repro.snap", "snap/kk": "repro.snap",
    },
    "fix": {"nve": "repro.core", "nve/kk": "repro.core"},
    "compute": {"temp": "repro.core", "ke": "repro.core",
                "pe": "repro.core", "pressure": "repro.core"},
}


def _register(category: str, name: str) -> Callable[[T], T]:
    def deco(cls: T) -> T:
        package = STYLE_CATALOG[category].get(name)
        if package is None or not f"{cls.__module__}.".startswith(f"{package}."):
            raise StyleError(f"{category} style {name!r} is not catalogued "
                             f"under {cls.__module__}'s package")
        if name in _REGISTRIES[category]:
            raise StyleError(f"duplicate style registration: {name!r}")
        _REGISTRIES[category][name] = cls
        cls.style_name = name  # type: ignore[attr-defined]
        return cls

    return deco


def register_pair(name: str) -> Callable[[T], T]:
    """Class decorator registering a pair style (the LAMMPS macro analogue)."""
    return _register("pair", name)


def register_fix(name: str) -> Callable[[T], T]:
    return _register("fix", name)


def register_compute(name: str) -> Callable[[T], T]:
    return _register("compute", name)


def known_suffixes() -> list[str]:
    """The accelerator suffixes the catalogued styles carry.

    A suffix is the last component of a style catalogued as
    ``<catalogued style>/<suffix>`` (``lj/cut/gpu``, ``nve/kk``); ``kk``
    brings its two instantiations, ``kk/host`` and ``kk/device``.
    """
    found = {
        name.rpartition("/")[2]
        for styles in STYLE_CATALOG.values()
        for name in styles
        if name.rpartition("/")[0] in styles
    }
    if "kk" in found:
        found |= {"kk/host", "kk/device"}
    return sorted(found)


def check_suffix(suffix: str | None) -> str | None:
    """``suffix`` if a catalogued style carries it (None: no suffix)."""
    if suffix is not None and suffix not in known_suffixes():
        raise StyleError(unknown_choice("suffix", suffix, known_suffixes()))
    return suffix


def resolve_style(
    category: str, name: str, suffix: str | None
) -> tuple[type, dict]:
    """Resolve a style name, honoring the active suffix.

    Returns ``(cls, extra_kwargs)``.  ``/kk/host`` resolves to the ``/kk``
    registration with ``execution_space="host"`` passed through, mirroring
    the dual-instantiation of Kokkos styles.  The first candidate the
    catalogue names has its package imported, which registers it.
    """
    catalog = STYLE_CATALOG.get(category)
    if catalog is None:
        raise StyleError(f"unknown style category {category!r}")

    candidates: list[tuple[str, dict]] = []
    if name.endswith("/kk/host"):
        candidates.append((name[: -len("/host")], {"execution_space": "host"}))
    elif name.endswith("/kk/device"):
        candidates.append((name[: -len("/device")], {}))
    elif suffix:
        if suffix == "kk/host":
            candidates.append((f"{name}/kk", {"execution_space": "host"}))
        else:
            candidates.append((f"{name}/{suffix.removesuffix('/device')}", {}))
    candidates.append((name, {}))

    for candidate, extra in candidates:
        if candidate in catalog:
            importlib.import_module(catalog[candidate])
            return _REGISTRIES[category][candidate], extra
    known = ", ".join(sorted(catalog))
    raise StyleError(f"unknown {category} style {name!r}; known: {known}")
