"""Ghost-atom communication: borders, forward/reverse comm, migration.

This is LAMMPS's ``CommBrick`` in generator form.  Each communication
routine is a generator that yields exactly where real MPI would block on a
receive; the lockstep driver (:func:`repro.parallel.driver.lockstep`)
advances every rank to the yield, so by the time a rank resumes, its peers'
sends are in the mailbox.

The protocol is the classic 6-swap brick exchange:

* **borders** — for each dimension low/high face in order, send atoms (owned
  *and previously received ghosts*, which is how diagonal ghosts propagate)
  within ``cutghost`` of the face; periodic crossings shift coordinates by
  the box length.  Send lists and ghost segments are recorded for reuse.
* **forward_comm** — re-send positions over the recorded swaps each step.
* **reverse_comm** — send ghost forces back along the reversed swaps and
  accumulate into the owners (``newton on``, section 4.1).
* **exchange** — migrate owned atoms to their new owners after motion
  (owner-directed, one phase).

On a one-rank world every swap is a self-send, so ``borders`` wraps the
swaps it just recorded in a :class:`GhostReplay` and the per-step passes
replay it in place — no message, no yield.  Each swap's ghosts are one
contiguous slice (``firstrecv`` onward, as LAMMPS's ``pack_comm_self``
writes them), so a replayed swap is one gather of its sources into that
slice, and its reverse one gather, one add and one put of whole rows.  A
solo run's ``borders`` and ``exchange`` always use the mailbox, at any rank
count: they run once per rebuild and record what the replay is built from.

A brick may also stand for a *batch* of one-rank boxes (:meth:`CommBrick.stack`,
a replica batch's members with their owned atoms stacked box-major).  Its
``borders`` runs the same six swaps once over every box: each swap's face is
each box's own, broadcast, so each box's send list comes out in its solo
order, and every box sends to itself, so no swap posts a message.  Its
``exchange`` is the one wrap into each box's own bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from repro.core.atom import BORDER_FIELDS, AtomVec
from repro.core.errors import CommError
from repro.parallel.comm import SimComm
from repro.parallel.decomp import BrickDecomposition


@dataclass
class Swap:
    """One recorded border swap, replayed by forward/reverse comm."""

    dim: int
    dirn: int
    #: Peer ranks (may equal self for periodic self-sends).
    send_to: int
    recv_from: int
    #: Indices (into local+ghost arrays) of atoms this rank sends.
    sendlist: np.ndarray
    #: Coordinate shift applied to sent positions (periodic crossing); in a
    #: box batch, one row per sent atom (its own box's).
    shift: np.ndarray
    #: First ghost slot filled by this swap's receive, and the count.
    firstrecv: int
    nrecv: int

    def __post_init__(self) -> None:
        # reverse comm's ``arr[sendlist] += ...`` is exact on unique indices only
        if np.any(np.diff(self.sendlist) <= 0):
            raise CommError(
                f"swap (dim {self.dim}, dirn {self.dirn}, to rank {self.send_to}): "
                "sendlist is not strictly increasing"
            )


def _fold_rows(arr: np.ndarray, src: np.ndarray, dst: slice) -> None:
    """``arr[src] += arr[dst]`` as one gather, one add and one put.

    Each row gets the same ``arr[src] + arr[dst]`` as the fancy-index
    read-modify-write, so the fold is bit for bit that one, and exact
    because ``src`` is unique.  A 2-D array puts whole rows through a
    ``(np.void, row bytes)`` view, one element per row."""
    buf = np.take(arr, src, axis=0)
    buf += arr[dst]
    if arr.ndim == 1:
        np.put(arr, src, buf)
    else:
        row = np.dtype((np.void, arr.itemsize * arr.shape[1]))
        np.put(arr.view(row), src, buf.view(row))


@dataclass(frozen=True)
class Face:
    """One swap's geometry, per box of its brick: a candidate is sent when
    ``x[:, dim] < bound`` (``dirn`` -1) or ``>= bound`` (+1) — within the
    ghost cutoff of the face; a NaN ``bound`` (a closed global boundary)
    sends nothing — with its coordinates shifted by ``shift``."""

    dim: int
    dirn: int
    hop: int
    send_to: int
    recv_from: int
    bound: np.ndarray  #: ``(nbox,)``
    shift: np.ndarray  #: ``(nbox, 3)``


def border_sendlist(
    x: np.ndarray, lo: int, hi: int, face: Face, box: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """One swap's selection over the candidate rows ``lo:hi``: the rows of
    ``x`` within the ghost cutoff of ``face`` in their own box, ascending,
    and the shift each is sent with.  ``box`` is each row's box in a batch
    of boxes (``None``: one box, whose bound and shift are scalars), so
    each box's rows come out in its solo order."""
    if box is None:
        bound, shift = face.bound[0], face.shift[0]
    else:
        bound = face.bound[box[lo:hi]]
    xd = x[lo:hi, face.dim]
    sendlist = lo + np.flatnonzero(xd < bound if face.dirn < 0 else xd >= bound)
    return sendlist, shift if box is None else face.shift[box[sendlist]]


@dataclass
class GhostReplay:
    """Recorded self-send swaps as in-place slice stages.

    The ``k``-th stage is swap ``k`` as ``(src, dst, shift)``: the ghost rows
    ``dst``, one contiguous slice, are copies of the ``src`` atoms (plus the
    periodic ``shift`` for positions).  Replaying the stages forward is the
    forward comm in swap order; replaying them backward is the reverse
    pass, the bucket-brigade order of :class:`CommBrick`.  A box batch's
    swaps are already in its stacked indices, every box's ghosts of one
    swap in one slice.  Valid only for the ``(reorder_generation, nall)``
    the swaps were recorded against; every replay checks both.

    The reverse fold computes ``arr[src] + arr[dst]`` per row, the mailbox
    path's own sum, and puts it back whole; that is exact because every
    send list is strictly increasing (:class:`Swap`).
    """

    swaps: list[Swap]
    reorder_generation: int
    nall: int

    @cached_property
    def stages(self) -> list[tuple[np.ndarray, slice, np.ndarray]]:
        # one shift row per ghost: a broadcast (3,) shift halves the add's speed
        return [
            (sw.sendlist, slice(sw.firstrecv, sw.firstrecv + sw.nrecv),
             np.ascontiguousarray(np.broadcast_to(sw.shift, (sw.nrecv, 3))))
            for sw in self.swaps
            if sw.nrecv
        ]

    @cached_property
    def owners(self) -> np.ndarray:
        """``owners[k]``: the owned atom slot ``k`` is a copy of (``k`` itself
        for an owned atom).  The stages composed in replay order, so a ghost
        of a ghost resolves to the first one's owner.  Each ``borders``
        builds a new replay, so this lives exactly as long as its swaps."""
        owners = np.arange(self.nall)
        for src, dst, _ in self.stages:
            owners[dst] = np.take(owners, src)
        return owners

    def _check(self, atom: AtomVec) -> None:
        if atom.reorder_generation != self.reorder_generation:
            raise CommError(
                "ghost replay is stale: atoms were reordered after borders "
                f"(generation {self.reorder_generation} -> "
                f"{atom.reorder_generation})"
            )
        if atom.nall != self.nall:
            raise CommError(
                f"ghost replay size changed mid-run: recorded for nall "
                f"{self.nall}, atoms now hold {atom.nall}"
            )

    def forward_x(self, atom: AtomVec) -> None:
        """Ghost positions from their sources, shifted."""
        self._check(atom)
        x = atom.x
        for src, dst, shift in self.stages:
            # the add runs even for zero shifts, exactly like the mailbox
            # path's ``x[sendlist] + swap.shift`` (it can normalize -0.0)
            np.add(np.take(x, src, axis=0), shift, out=x[dst])

    def forward_fields(self, atom: AtomVec, names: tuple[str, ...]) -> None:
        """Ghost copies of per-atom fields (no shift)."""
        self._check(atom)
        arrs = [getattr(atom, name) for name in names]
        for src, dst, _ in self.stages:
            for arr in arrs:
                arr[dst] = np.take(arr, src, axis=0)

    def reverse(self, atom: AtomVec, name: str = "f") -> None:
        """Ghost contributions accumulate back to their sources."""
        self._check(atom)
        arr = getattr(atom, name)
        for src, dst, _ in reversed(self.stages):
            _fold_rows(arr, src, dst)


@dataclass
class CommBrick:
    """Per-rank communication engine, or, with no ``comm``, the engine of a
    batch of one-rank boxes (:meth:`stack`)."""

    comm: SimComm | None
    decomp: BrickDecomposition | None
    #: Ghost cutoff: force cutoff + neighbor skin.
    cutghost: float
    swaps: list[Swap] = field(default_factory=list)
    #: ``atom.reorder_generation`` when the swaps were recorded; a spatial
    #: sort after borders would silently invalidate every sendlist index.
    _swap_reorder_gen: int = -1
    #: One-rank worlds and box batches: the last ``borders``' swaps as an
    #: in-place replay.
    replay: GhostReplay | None = None
    #: A box batch: each atom's box (owned atoms, and after ``borders`` every
    #: ghost too), and each dimension's stacked faces.
    box: np.ndarray | None = None
    faces: list[list[Face]] | None = None

    def __post_init__(self) -> None:
        if self.cutghost <= 0.0:
            raise CommError("ghost cutoff must be positive")
        if self.comm is None:
            return
        lo, hi = self.decomp.subdomain(self.comm.rank)
        self.sublo = lo
        self.subhi = hi
        lengths = np.asarray(self.decomp.boxhi) - np.asarray(self.decomp.boxlo)
        # One swap per direction covers ghosts up to one subdomain away.
        if np.any(self.cutghost > lengths):
            raise CommError(
                f"ghost cutoff {self.cutghost} exceeds a box length {lengths}; "
                "images-of-images are not supported"
            )

    @classmethod
    def stack(cls, bricks: Sequence["CommBrick"], periodic, nlocal) -> "CommBrick":
        """One brick over a batch of one-rank boxes, their owned atoms
        stacked box-major (``nlocal[b]`` each): each swap's face is every
        box's own solo face, stacked (``periodic[b]`` is box ``b``'s), and
        each box sends to itself, so no swap posts a message."""
        cutghost = {b.cutghost for b in bricks}
        if len(cutghost) != 1 or any(b.comm.size != 1 for b in bricks):
            raise CommError("a box batch needs one-rank boxes with one ghost cutoff")
        solo = [b._faces(p) for b, p in zip(bricks, periodic)]
        faces = [
            [
                Face(dim, f.dirn, f.hop, 0, 0,
                     np.concatenate([s[dim][k].bound for s in solo]),
                     np.concatenate([s[dim][k].shift for s in solo]))
                for k, f in enumerate(solo[0][dim])
            ]
            for dim in range(3)
        ]
        box = np.repeat(np.arange(len(bricks)), nlocal)
        return cls(None, None, cutghost.pop(), box=box, faces=faces)

    # ------------------------------------------------------------- helpers
    def _faces(self, periodic: tuple[bool, bool, bool]) -> list[list[Face]]:
        """Per dimension, its swaps' faces in order (per hop, low then high):
        one box, this rank's subdomain; a box batch's were stacked once."""
        if self.faces is not None:
            return self.faces
        grid, ix = self.decomp.grid, self.decomp.coords_of(self.comm.rank)
        faces = []
        for dim in range(3):
            length = self.decomp.boxhi[dim] - self.decomp.boxlo[dim]
            row = []
            for hop in range(self._hops(dim)):
                for dirn in (-1, +1):
                    # the periodic shift at the global edge this face sends across
                    shift = np.zeros((1, 3))
                    if ix[dim] == (0 if dirn < 0 else grid[dim] - 1):
                        shift[0, dim] = length if dirn < 0 else -length
                    if periodic[dim] or not shift[0, dim]:
                        bound = (self.sublo[dim] + self.cutghost if dirn < 0
                                 else self.subhi[dim] - self.cutghost)
                    else:
                        bound = np.nan
                    ahead, behind = list(ix), list(ix)
                    ahead[dim] += dirn
                    behind[dim] -= dirn
                    row.append(Face(dim, dirn, hop, self.decomp.rank_of(*ahead),
                                    self.decomp.rank_of(*behind), np.array([bound]), shift))
            faces.append(row)
        return faces

    def _hops(self, dim: int) -> int:
        """Swaps needed per direction in a dimension (LAMMPS's ``maxneed``).

        When the ghost cutoff exceeds the subdomain width, border atoms must
        be relayed from ranks more than one hop away: each extra swap
        forwards the ghosts just received (a bucket brigade, with periodic
        shifts accumulating naturally in the forwarded coordinates).
        """
        sub_len = self.subhi[dim] - self.sublo[dim]
        need = int(np.ceil(self.cutghost / sub_len - 1e-12))
        return max(1, min(need, self.decomp.grid[dim]))

    def _check_sendlists(self, atom: AtomVec) -> None:
        """Refuse to replay swaps recorded against a different atom order.

        Spatial sorting permutes the owned atoms; sendlist indices recorded
        before a sort would ship the wrong atoms.  The rebuild sequence
        sorts *between* exchange and borders precisely so this never fires —
        it is a guard against future reorderings in the wrong place.
        """
        if self.swaps and self._swap_reorder_gen != atom.reorder_generation:
            raise CommError(
                "communication swaps are stale: atoms were reordered after "
                "borders recorded the sendlists (sort must happen before "
                "borders, never between borders and forward/reverse comm)"
            )

    # -------------------------------------------------------------- borders
    def borders(self, atom: AtomVec, periodic: tuple[bool, bool, bool]) -> Iterator[None]:
        """Rebuild the ghost shell (generator; one yield per swap posted)."""
        atom.clear_ghosts()
        self.swaps = []
        self.replay = None
        self._swap_reorder_gen = atom.reorder_generation
        box = None if self.box is None else self.box[: atom.nlocal]
        for faces in self._faces(periodic):
            # Candidates for this dimension's first hop: owned atoms plus
            # ghosts received in *earlier* dimensions only — including this
            # dimension's own receives would bounce them straight back as
            # duplicates.  Later hops relay the previous hop's receive.
            ncand = atom.nall
            prev_range = {-1: (0, 0), +1: (0, 0)}
            for face in faces:
                lo_c, hi_c = (0, ncand) if face.hop == 0 else prev_range[face.dirn]
                sendlist, shift = border_sendlist(atom.x, lo_c, hi_c, face, box)
                payload = {name: getattr(atom, name)[sendlist] for name in BORDER_FIELDS}
                payload["x"] += shift
                if self.comm is None:
                    incoming = payload
                else:
                    tag = ("border", face.dim, face.dirn, face.hop)
                    self.comm.send(face.send_to, payload, tag)
                    yield
                    incoming = self.comm.recv(face.recv_from, tag)
                firstrecv = atom.nall
                n = incoming["x"].shape[0]
                if n:
                    atom.add_ghosts(incoming)
                if box is not None:
                    box = np.concatenate([box, box[sendlist]])
                prev_range[face.dirn] = (firstrecv, firstrecv + n)
                self.swaps.append(
                    Swap(face.dim, face.dirn, face.send_to, face.recv_from,
                         sendlist, shift, firstrecv, n)
                )
        self.box = box
        if self.comm is None or self.comm.size == 1:
            self.replay = GhostReplay(self.swaps, atom.reorder_generation, atom.nall)

    # --------------------------------------------------------- forward comm
    def forward_comm(self, atom: AtomVec) -> Iterator[None]:
        """Refresh ghost positions over the recorded swaps (per-step path)."""
        self._check_sendlists(atom)
        if self.replay is not None:
            self.replay.forward_x(atom)
            return
        for k, swap in enumerate(self.swaps):
            buf = atom.x[swap.sendlist] + swap.shift
            self.comm.send(swap.send_to, buf, ("fwd", k))
            yield
            incoming = self.comm.recv(swap.recv_from, ("fwd", k))
            if incoming.shape[0] != swap.nrecv:
                raise CommError(
                    f"forward comm size changed mid-run: swap {k} expected "
                    f"{swap.nrecv}, got {incoming.shape[0]}"
                )
            atom.x[swap.firstrecv : swap.firstrecv + swap.nrecv] = incoming

    def forward_comm_field(self, atom: AtomVec, name: str) -> Iterator[None]:
        """Forward-communicate an arbitrary per-atom field (no shift).

        EAM forward-communicates derivative terms between the density and
        force loops (figure 1's "additional communication").
        """
        self._check_sendlists(atom)
        if self.replay is not None:
            self.replay.forward_fields(atom, (name,))
            return
        arr = getattr(atom, name)
        for k, swap in enumerate(self.swaps):
            self.comm.send(swap.send_to, arr[swap.sendlist].copy(), ("fwdf", name, k))
            yield
            incoming = self.comm.recv(swap.recv_from, ("fwdf", name, k))
            arr[swap.firstrecv : swap.firstrecv + swap.nrecv] = incoming

    def forward_comm_fields(self, atom: AtomVec, names: tuple[str, ...]) -> Iterator[None]:
        """Forward-communicate several scalar per-atom fields, packed.

        The fields ride one column-stacked buffer per swap — one message
        where :meth:`forward_comm_field` would send ``len(names)``.  QEq
        exchanges both CG direction vectors every iteration; packing them
        halves its comm rounds per iteration, and the ledger accounts the
        single wider message automatically (payload ``nbytes``).
        """
        self._check_sendlists(atom)
        names = tuple(names)
        if self.replay is not None:
            self.replay.forward_fields(atom, names)
            return
        arrs = [getattr(atom, name) for name in names]
        for k, swap in enumerate(self.swaps):
            buf = np.column_stack([arr[swap.sendlist] for arr in arrs])
            self.comm.send(swap.send_to, buf, ("fwdfs", names, k))
            yield
            incoming = self.comm.recv(swap.recv_from, ("fwdfs", names, k))
            for col, arr in enumerate(arrs):
                arr[swap.firstrecv : swap.firstrecv + swap.nrecv] = incoming[:, col]

    # --------------------------------------------------------- reverse comm
    def reverse_comm(self, atom: AtomVec, name: str = "f") -> Iterator[None]:
        """Accumulate ghost contributions back to their owners.

        Runs the swaps in reverse so contributions that landed on a ghost of
        a ghost retrace both hops (exactly LAMMPS's reverse pass).
        """
        self._check_sendlists(atom)
        if self.replay is not None:
            self.replay.reverse(atom, name)
            return
        arr = getattr(atom, name)
        for k, swap in reversed(list(enumerate(self.swaps))):
            buf = arr[swap.firstrecv : swap.firstrecv + swap.nrecv].copy()
            self.comm.send(swap.recv_from, buf, ("rev", name, k))
            yield
            incoming = self.comm.recv(swap.send_to, ("rev", name, k))
            arr[swap.sendlist] += incoming  # unique indices (Swap)

    # ------------------------------------------------------------ migration
    def exchange(self, atom: AtomVec, wrap) -> Iterator[None]:
        """Send owned atoms to their current owners (one phase).

        ``wrap`` maps positions into the primary periodic box first, so
        owners are computed on canonical coordinates (in a box batch, each
        box's own).
        """
        atom.clear_ghosts()
        n = atom.nlocal
        atom.x[:n] = wrap(atom.x[:n])
        if self.comm is None:  # a box batch: each box is one rank, keeping every atom
            return
        owners = self.decomp.owner_of(atom.x[:n])
        fields = {
            "x": atom.x[:n],
            "v": atom.v[:n],
            "type": atom.type[:n],
            "tag": atom.tag[:n],
            "q": atom.q[:n],
        }
        custom = {name: arr[:n] for name, arr in sorted(atom.custom.items())}
        for dest in range(self.comm.size):
            sel = owners == dest
            payload = {k: v[sel].copy() for k, v in fields.items()}
            payload["custom"] = {k: v[sel].copy() for k, v in custom.items()}
            self.comm.send(dest, payload, "exchange")
        yield
        parts = [self.comm.recv(src, "exchange") for src in range(self.comm.size)]
        # every rank registers the same custom fields (a field is added on
        # every rank or on none), so each sender's set must be this rank's
        mine = sorted(parts[self.comm.rank]["custom"])
        for src, p in enumerate(parts):
            if sorted(p["custom"]) != mine:
                raise CommError(
                    f"exchange: rank {src} sends custom fields {sorted(p['custom'])}, "
                    f"rank {self.comm.rank} holds {mine}"
                )
        custom_in = {
            name: np.concatenate([p["custom"][name] for p in parts]) for name in mine
        }
        atom.replace_local(
            x=np.concatenate([p["x"] for p in parts]),
            v=np.concatenate([p["v"] for p in parts]),
            types=np.concatenate([p["type"] for p in parts]),
            tags=np.concatenate([p["tag"] for p in parts]),
            q=np.concatenate([p["q"] for p in parts]),
            custom=custom_in,
        )
