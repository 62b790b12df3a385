"""Quantum-number index spaces for SNAP (paper section 4.3.1).

The U/Y data structures have four degrees of freedom (atom, j, m, m'); the
(j, m, m') triplets flatten into one "quantum number" index with j slowest
and m' fastest, "so rows and columns of matrices stay together", and the
atom index runs fastest of all: ``U`` is (idxu_max, natoms).  This module
owns that flattening, its half range under the mirror symmetry, the
bispectrum triple list (``0 <= j2 <= j1 <= j <= J`` after the
group-theoretic reductions), the sparse Clebsch-Gordan contraction tensor,
and the folded term plans ComputeYi/ComputeBi execute.

All angular momenta use the doubled (``2j``) integer convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from repro.kokkos.segment import _sorted_segments
from repro.snap.cg import clebsch_gordan

#: bytes of the largest array one chunk of work materialises; every chunk
#: length (terms x atoms in a contraction, pairs in the derivative
#: recursion) derives from it, so peak RSS follows neither natoms nor npairs
CHUNK_BYTES = 1 << 20


def chunk_len(item_bytes: int) -> int:
    """Items per chunk under :data:`CHUNK_BYTES` (at least one)."""
    return max(CHUNK_BYTES // max(item_bytes, 1), 1)


@dataclass
class ContractionTensor:
    """Sparse COO tensor for ``B_b = sum C * U[in1] * U[in2] * conj(U[out])``.

    One row per non-zero Clebsch-Gordan product pair, every symmetry image
    enumerated; the folded :class:`ContractionPlan` s are derived from it.
    """

    ib: np.ndarray  # bispectrum-component index per term
    out: np.ndarray  # flat index into U_j (the conjugated slot)
    in1: np.ndarray  # flat index into U_j1
    in2: np.ndarray  # flat index into U_j2
    coeff: np.ndarray  # real coefficient (product of two CG values)

    @property
    def nterms(self) -> int:
        return len(self.coeff)


class ContractionPlan:
    """Dest-sorted bilinear term list ``out[dest] += w * T[a] * T[b]``.

    Built once per :class:`SnapIndex` from raw ``(dest, a, b, ib, coeff)``
    terms: ``a``/``b`` are ordered (the product commutes), terms sorted by
    ``(dest, a, b)`` and duplicates merged, so only the merged weights
    depend on the coefficients (:meth:`weights`).  ``T`` holds one row per
    quantum number with the atom axis fastest; every chunk is two row
    gathers and one in-place multiply into the chunk's product rows ``K``,
    then one real BLAS dot per ``dest`` row, ``w[seg] @ K[seg]`` over the
    interleaved float view.  Chunks are cut on ``dest`` boundaries, so a sum
    never depends on the chunking.
    """

    def __init__(self, dest, a, b, ib, coeff) -> None:
        a, b = np.minimum(a, b), np.maximum(a, b)
        order = np.lexsort((b, a, dest))
        key = np.stack((dest, a, b))[:, order]
        first = np.r_[True, (key[:, 1:] != key[:, :-1]).any(axis=0)]
        dest, self.a, self.b = key[:, first]
        self.group = np.empty(len(order), dtype=np.int64)
        self.group[order] = np.cumsum(first) - 1
        self.ib, self.coeff = ib, coeff
        #: segment starts / destination row of each run of equal ``dest``
        self.starts, self.rows = _sorted_segments(dest)
        self.nterms = len(self.a)
        #: chunk layouts, keyed by ``(natoms, CHUNK_BYTES)``
        self._chunks: dict[tuple[int, int], list] = {}

    def weights(self, beta: np.ndarray | None = None) -> np.ndarray:
        """Merged per-term weights: ``coeff`` (times ``beta[ib]`` if given)."""
        raw = self.coeff if beta is None else beta[self.ib] * self.coeff
        return np.bincount(self.group, weights=raw, minlength=self.nterms)

    def chunks(self, natoms: int) -> list[tuple[int, int, list]]:
        """``[(lo, hi, [(row, start, end), ...])]``: term ranges of at most
        :data:`CHUNK_BYTES` of complex product rows (a longer ``dest``
        segment goes whole) with the ``dest`` segments inside each."""
        key = (natoms, CHUNK_BYTES)
        layout = self._chunks.get(key)
        if layout is None:
            max_terms = chunk_len(16 * natoms)
            ends = np.r_[self.starts[1:], self.nterms]
            segs = list(zip(self.rows.tolist(), self.starts.tolist(), ends.tolist()))
            layout, s = [], 0
            while s < len(segs):
                lo = segs[s][1]
                e = max(int(np.searchsorted(ends, lo + max_terms, side="right")), s + 1)
                layout.append((lo, segs[e - 1][2], segs[s:e]))
                s = e
            if len(self._chunks) >= 8:  # per-rank atom counts drift
                self._chunks.clear()
            self._chunks[key] = layout
        return layout

    def contract(self, T: np.ndarray, w: np.ndarray, nrows: int) -> np.ndarray:
        """``out (nrows, natoms)`` of the weighted bilinear contraction."""
        out = np.zeros((nrows, T.shape[1]), dtype=np.complex128)
        of = out.view(np.float64)
        for lo, hi, segs in self.chunks(T.shape[1]):
            K = T[self.a[lo:hi]]
            K *= T[self.b[lo:hi]]
            Kf = K.view(np.float64)
            for row, s, e in segs:
                of[row] = w[s:e] @ Kf[s - lo : e - lo]
        return out


def _signed_rows(Xh: np.ndarray, row: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """``sign * [Xh; conj Xh][row]``, one row per entry of ``row``."""
    return sign[:, None] * np.concatenate((Xh, np.conj(Xh)))[row]


def _cg_terms(j1: int, j2: int, j: int, mb: int) -> list[tuple[int, int, float]]:
    """``[(mb1, mb2, C)]``: the non-zero ``<j1 m1 j2 m2 | j m>``, m1 + m2 = m."""
    mx2 = 2 * mb - j
    terms = []
    for mb1 in range(j1 + 1):
        m2x2 = mx2 - (2 * mb1 - j1)
        if abs(m2x2) <= j2:
            c = clebsch_gordan(j1, 2 * mb1 - j1, j2, m2x2, j, mx2)
            if c != 0.0:
                terms.append((mb1, (m2x2 + j2) // 2, c))
    return terms


class SnapIndex:
    """All index machinery for one ``twojmax``."""

    _cache: dict[int, "SnapIndex"] = {}

    def __new__(cls, twojmax: int) -> "SnapIndex":
        if twojmax not in cls._cache:
            inst = super().__new__(cls)
            inst._build(twojmax)
            cls._cache[twojmax] = inst
        return cls._cache[twojmax]

    def _build(self, twojmax: int) -> None:
        if twojmax < 0:
            raise ValueError("twojmax must be >= 0")
        self.twojmax = twojmax
        # idxu_block[j2x] = offset of the (j+1)^2 block for doubled-j j2x
        sizes = (np.arange(twojmax + 1) + 1) ** 2
        self.idxu_block = np.r_[0, np.cumsum(sizes)]
        self.idxu_max = int(self.idxu_block[-1])

        #: bispectrum triples (j1x2, j2x2, jx2) with j2 <= j1 <= j
        self.idxb: list[tuple[int, int, int]] = []
        for j1 in range(twojmax + 1):
            for j2 in range(j1 + 1):
                for j in range(j1 - j2, min(twojmax, j1 + j2) + 1, 2):
                    if j >= j1:
                        self.idxb.append((j1, j2, j))
        self.nbispectrum = len(self.idxb)

        # Half range (section 4.3's symmetry folding).  ``u[J-mb, J-ma] =
        # (-1)^(mb+ma) conj(u[mb, ma])`` makes the rows ``mb < J/2`` plus
        # ``ma <= J/2`` of the self-conjugate middle row sufficient; in flat
        # order that is a prefix of each level block.
        nhalf = (sizes + 1) // 2
        self.half_block = np.r_[0, np.cumsum(nhalf)]
        self.half = np.concatenate(
            [lo + np.arange(k) for lo, k in zip(self.idxu_block, nhalf)]
        )
        #: per flat index: 2 where a kept entry stands for itself and its
        #: mirror image, 1 on the self-conjugate (J/2, J/2), 0 if dropped
        self.fold = np.zeros(self.idxu_max)
        self.fold[self.half] = 2.0
        self.fold[self.half[self.half_block[1::2] - 1]] = 1.0

        # Per flat index (j, mb, ma): its mirror (j, j-mb, j-ma) — the block
        # read backwards — with the sign (-1)^(mb+ma), and its transpose
        # (j, ma, mb), the index map of the conjugate-transpose ``u^dagger``.
        J = np.repeat(np.arange(twojmax + 1), sizes)
        q = np.arange(self.idxu_max) - self.idxu_block[J]
        mb, ma = q // (J + 1), q % (J + 1)
        self.mirror = self.idxu_block[J] + sizes[J] - 1 - q
        self.mirror_sign = 1.0 - 2.0 * ((mb + ma) % 2)
        self.dagger = self.idxu_block[J] + ma * (J + 1) + mb

    # ------------------------------------------------------------- flatten
    def flat(self, j2x: int, mb: int, ma: int) -> int:
        """Flat quantum-number index (j slowest, ma = m' fastest)."""
        return int(self.idxu_block[j2x]) + mb * (j2x + 1) + ma

    def diag_indices(self) -> np.ndarray:
        """Flat indices of all (j, m, m) diagonal entries (wself slots)."""
        return np.asarray(
            [self.flat(j, m, m) for j in range(self.twojmax + 1) for m in range(j + 1)]
        )

    @cached_property
    def canonical_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """``(row, sign)`` per row ``r`` of ``[U; conj U]`` (2 idxu_max rows):
        ``[U; conj U][r] == sign[r] * T[row[r]]`` with ``T = [U[half]; conj
        U[half]]``, since a dropped ``U[m]`` is ``s conj U[mirror m]``."""
        nh = len(self.half)
        pos = np.zeros(self.idxu_max, dtype=np.int64)
        pos[self.half] = np.arange(nh)
        kept = self.fold > 0
        bare = np.where(kept, pos, nh + pos[self.mirror])
        conj = np.where(kept, nh + pos, pos[self.mirror])
        sign = np.where(kept, 1.0, self.mirror_sign)
        return np.r_[bare, conj], np.r_[sign, sign]

    @cached_property
    def dagger_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """``(row, sign)`` for :meth:`dagger_half`: row ``k`` is ``conj X``
        at the flat index ``dagger[half[k]]``, mirrored into the half range."""
        row, sign = self.canonical_rows
        r = self.idxu_max + self.dagger[self.half]
        return row[r], sign[r]

    def dagger_half(self, Xh: np.ndarray) -> np.ndarray:
        """The half rows of ``X^dagger`` from the half rows ``Xh`` of a
        mirror-symmetric ``X`` (the conjugate-transpose of every ``u_j``
        block, per atom column).  ``fold`` weights carry over: the fold of
        an entry equals that of its transpose and of its mirror."""
        return _signed_rows(Xh, *self.dagger_rows)

    def unfold(self, Xh: np.ndarray) -> np.ndarray:
        """All idxu_max rows of a mirror-symmetric ``X`` from its half rows."""
        row, sign = self.canonical_rows
        return _signed_rows(Xh, row[: self.idxu_max], sign[: self.idxu_max])

    # --------------------------------------------------------------- plans
    @cached_property
    def yi_plan(self) -> ContractionPlan:
        """Folded adjoint over ``T = [U[half]; conj U[half]]``: the gradient
        of every term with respect to each of its three slots, half-range
        dests only (row ``k`` of the result is flat index ``half[k]``).  Slot
        rows of ``[U; conj U]`` map onto ``T`` through :attr:`canonical_rows`,
        their signs folded into the weights, so mirror-image products merge."""
        t, n = self.tensor, self.idxu_max
        dest = np.concatenate((t.in1, t.in2, t.out))
        keep = self.fold[dest] > 0
        a = np.concatenate((t.in2, t.in1, n + t.in1))[keep]
        b = np.concatenate((n + t.out, n + t.out, n + t.in2))[keep]
        dest = dest[keep]
        row, sign = self.canonical_rows
        return ContractionPlan(
            np.searchsorted(self.half, dest), row[a], row[b], np.tile(t.ib, 3)[keep],
            np.tile(t.coeff, 3)[keep] * self.fold[dest] * sign[a] * sign[b],
        )

    @cached_property
    def bi_plan(self) -> tuple[ContractionPlan, np.ndarray, np.ndarray]:
        """``(plan, zout, ibstarts)``: ``Z[(ib, out)] = sum C U[in1] U[in2]``
        on half-range ``out``; ``B[ib] = sum_out Re(Z conj U[zout])`` over
        the run of ``Z`` rows starting at ``ibstarts[ib]``."""
        t, n = self.tensor, self.idxu_max
        keep = self.fold[t.out] > 0
        zkey, dest = np.unique(t.ib[keep] * n + t.out[keep], return_inverse=True)
        plan = ContractionPlan(
            dest, t.in1[keep], t.in2[keep], t.ib[keep],
            t.coeff[keep] * self.fold[t.out[keep]],
        )
        return plan, zkey % n, np.searchsorted(zkey // n, np.arange(self.nbispectrum))

    @cached_property
    def tensor(self) -> ContractionTensor:
        """The CG contraction tensor, built lazily (exact, cached)."""
        rows = []
        for ib, (j1, j2, j) in enumerate(self.idxb):
            cg = [_cg_terms(j1, j2, j, m) for m in range(j + 1)]
            for mb, ma in product(range(j + 1), repeat=2):
                for (mb1, mb2, cr), (ma1, ma2, cc) in product(cg[mb], cg[ma]):
                    rows.append((
                        ib, self.flat(j, mb, ma), self.flat(j1, mb1, ma1),
                        self.flat(j2, mb2, ma2), cr * cc,
                    ))
        *index, coeff = zip(*rows)
        return ContractionTensor(
            *(np.asarray(c, dtype=np.int64) for c in index), np.asarray(coeff)
        )
