"""Multi-dimensional Views.

:class:`View` is the Kokkos primary data structure (paper section 3.2): a
labeled multi-dimensional array tagged with a memory space and a layout.
Here it wraps a NumPy array whose ``order`` matches the layout, so layout
decisions made by the portability layer are *real* — transposed traversals
genuinely change stride patterns, which the tests assert.

Views support the interoperability trick LAMMPS uses to alias its classic
raw-pointer fields onto the host side of Kokkos data (figure 1): the
underlying ndarray is exposed as ``.data`` and may be handed to non-Kokkos
code, which then sees every Kokkos-side host update for free.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.kokkos.core import ExecutionSpace, Host
from repro.kokkos.layout import Layout, default_layout


class View:
    """A labeled, space-tagged, layout-tagged ndarray wrapper.

    Supports the subset of the Kokkos View API the MD engine needs: the
    backing array (``data``), ``shape``/``dtype``/``nbytes``, ``label`` and
    layout inspection.
    """

    __slots__ = ("_data", "label", "space", "layout")

    def __init__(
        self,
        shape: int | tuple[int, ...],
        dtype: Any = np.float64,
        *,
        space: ExecutionSpace = Host,
        layout: Layout | None = None,
        label: str = "",
        data: np.ndarray | None = None,
    ) -> None:
        if isinstance(shape, (int, np.integer)):
            shape = (int(shape),)
        self.space = space
        self.layout = layout or default_layout(space)
        self.label = label
        if data is not None:
            if tuple(data.shape) != tuple(shape):
                raise ValueError(
                    f"view {label!r}: data shape {data.shape} != requested {shape}"
                )
            self._data = np.asarray(data, dtype=dtype, order=self.layout.numpy_order)
        else:
            self._data = np.zeros(shape, dtype=dtype, order=self.layout.numpy_order)

    # ------------------------------------------------------------- basics
    @property
    def data(self) -> np.ndarray:
        """The backing ndarray (aliasable by non-Kokkos code)."""
        return self._data

    @property
    def shape(self) -> tuple[int, ...]:
        return self._data.shape

    @property
    def dtype(self) -> np.dtype:
        return self._data.dtype

    @property
    def nbytes(self) -> int:
        return self._data.nbytes
