"""Quantum-number index spaces for SNAP (paper section 4.3.1).

The U/Y data structures have four degrees of freedom (atom, j, m, m'); the
(j, m, m') triplets flatten into one "quantum number" index with j slowest
and m' fastest, "so rows and columns of matrices stay together", and the
atom index runs fastest of all: ``U`` is (idxu_max, natoms).  This module
owns that flattening, its half range under the mirror symmetry, the
bispectrum triple list (``0 <= j2 <= j1 <= j <= J`` after the
group-theoretic reductions), the sparse Clebsch-Gordan contraction tensor,
and the folded class plans ComputeYi/ComputeBi execute.

All angular momenta use the doubled (``2j``) integer convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.graph.pairwise import gather
from repro.snap.cg import clebsch_gordan

#: bytes of the largest array one chunk of work materialises; every chunk
#: length (atom columns of one class's products in a contraction, pairs in
#: the derivative recursion) derives from it, so peak RSS follows neither
#: natoms nor npairs
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
    """``out[dest] += w * T[a] * T[b]`` as one dense GEMM per class.

    Built once per :class:`SnapIndex` from raw ``(dest, a, b, ib, coeff)``
    terms and a class ``key`` per ``dest`` row that its terms' products
    share (the conserved (m, m')).  ``a <= b``; each class keeps its
    distinct products as one contiguous run of ``(a, b)`` rows of ``T``
    (atom axis fastest) and its ``dest`` rows, and each term maps to a
    ``slot`` of the class's dense ``(dests, products)`` weight matrix.
    Per class, two row gathers and an in-place multiply form ``K``, and
    ``out[dests] = W @ K`` over the interleaved float view.  Atom columns
    are independent, so the atom axis is cut to keep ``K`` within
    :data:`CHUNK_BYTES`.
    """

    def __init__(self, dest, a, b, ib, coeff, key) -> None:
        a, b = np.minimum(a, b), np.maximum(a, b)
        _, rcls = np.unique(key, return_inverse=True)
        self.dests = np.argsort(rcls, kind="stable")  # the rows, class-major
        rcls, r = rcls[self.dests], np.argsort(self.dests)[dest]
        cls, n = rcls[r], int(b.max(initial=0)) + 1
        prods, p = np.unique((cls * n + a) * n + b, return_inverse=True)
        self.a, self.b = (prods // n) % n, prods % n
        bounds = np.arange(rcls.max(initial=-1) + 2)
        pstart, dstart = np.searchsorted(prods // n**2, bounds), np.searchsorted(rcls, bounds)
        nprod = np.diff(pstart)
        wstart = np.r_[0, np.cumsum(nprod * np.diff(dstart))]
        self.slot = wstart[cls] + (r - dstart[cls]) * nprod[cls] + p - pstart[cls]
        self.ib, self.coeff, self.nslots = ib, coeff, int(wstart[-1])
        #: per class: the bounds of its products, dest rows and weight slots
        self.classes = list(zip(*(
            v.tolist() for s in (pstart, dstart, wstart) for v in (s[:-1], s[1:])
        )))
        self.widest = int(nprod.max(initial=0))

    def weights(self, beta: np.ndarray | None = None) -> np.ndarray:
        """Dense per-slot weights: ``coeff`` (times ``beta[ib]`` if given)."""
        raw = self.coeff if beta is None else beta[self.ib] * self.coeff
        return np.bincount(self.slot, weights=raw, minlength=self.nslots)

    def contract(self, T: np.ndarray, w: np.ndarray) -> np.ndarray:
        """``out (len(key), natoms)`` of the weighted bilinear contraction."""
        natoms = T.shape[1]
        out = np.zeros((len(self.dests), natoms), dtype=np.complex128)
        cols = min(chunk_len(16 * self.widest), max(natoms, 1))
        # two gather buffers for the call, each one class's widest K
        Ka = np.empty(self.widest * cols, dtype=T.dtype)
        Kb = np.empty_like(Ka)
        for lo in range(0, natoms, cols):
            hi = min(lo + cols, natoms)
            # (a strided source would be copied whole by every gather)
            Tc = T if hi - lo == natoms else np.ascontiguousarray(T[:, lo:hi])
            ocols = out[:, lo:hi].view(np.float64)
            for plo, phi, dlo, dhi, wlo, whi in self.classes:
                k = (phi - plo) * (hi - lo)
                K = gather(Tc, self.a[plo:phi], Ka[:k].reshape(phi - plo, hi - lo), axis=0)
                K *= gather(Tc, self.b[plo:phi], Kb[:k].reshape(phi - plo, hi - lo), axis=0)
                W = w[wlo:whi].reshape(dhi - dlo, phi - plo)
                ocols[self.dests[dlo:dhi]] = W @ K.view(np.float64)
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
        #: per flat index: its doubled ``(m, m')``, ``(2mb - J, 2ma - J)``,
        #: as one key — what the CG coefficients conserve
        self.mkey = (2 * mb - J) * (2 * twojmax + 1) + 2 * ma - J
        #: per half row: ``u = S v`` for the binomial-scaled ``wigner_levels``
        f = np.array([math.factorial(k) for k in range(twojmax + 1)], dtype=float)
        self.half_scale = np.sqrt(f[ma] * f[J - ma] / (f[mb] * f[J - mb]))[self.half, None]

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
            self.mkey[self.half],
        )

    @cached_property
    def bi_plan(self) -> tuple[ContractionPlan, np.ndarray, np.ndarray]:
        """``(plan, zout, ibstarts)``: ``Z[(ib, out)] = sum C U[in1] U[in2]``
        on half-range ``out``, classed by (j1, j2, m, m'); ``B[ib] = sum_out
        Re(Z conj U[zout])`` over the ``Z`` rows from ``ibstarts[ib]``."""
        t, n = self.tensor, self.idxu_max
        keep = self.fold[t.out] > 0
        ib, out = t.ib[keep], t.out[keep]
        zkey, dest = np.unique(ib * n + out, return_inverse=True)
        j12 = np.array([j1 * (self.twojmax + 1) + j2 for j1, j2, _ in self.idxb])
        plan = ContractionPlan(
            dest, t.in1[keep], t.in2[keep], ib, t.coeff[keep] * self.fold[out],
            j12[zkey // n] * (2 * self.twojmax + 1) ** 2 + self.mkey[zkey % n],
        )
        return plan, zkey % n, np.searchsorted(zkey // n, np.arange(self.nbispectrum))

    @cached_property
    def tensor(self) -> ContractionTensor:
        """The CG contraction tensor, built once (exact, cached): per triple,
        every (b, a) pair of its per-``m`` CG terms, rows ordered by ``(mb,
        ma, term b, term a)`` with ``coeff = C_b * C_a``."""
        parts = []
        for ib, (j1, j2, j) in enumerate(self.idxb):
            terms = [(m, *t) for m in range(j + 1) for t in _cg_terms(j1, j2, j, m)]
            m, m1, m2 = np.array([t[:3] for t in terms], dtype=np.int64).T
            c = np.array([t[3] for t in terms])
            b, a = np.indices((len(c), len(c))).reshape(2, -1)
            order = np.lexsort((a, b, m[a], m[b]))
            b, a = b[order], a[order]
            parts.append((
                np.full(len(a), ib),
                *(self.flat(jx, k[b], k[a]) for jx, k in ((j, m), (j1, m1), (j2, m2))),
                c[b] * c[a],
            ))
        return ContractionTensor(*(np.concatenate(col) for col in zip(*parts)))
