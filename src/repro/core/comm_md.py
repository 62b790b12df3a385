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
replay it in place — no message, no yield.  The replica batch builds the same
replay over its stacked members.  ``borders`` and ``exchange`` always use the
mailbox: they run once per rebuild and record what the replay is built from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, Sequence

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
    #: Coordinate shift applied to sent positions (periodic crossing).
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


@dataclass
class GhostReplay:
    """Recorded self-send swaps as in-place index stages.

    Stage ``k`` holds swap ``k`` of every layout that has one, as
    ``(src, dst, shift)`` rows: ``dst`` ghosts are copies of ``src`` atoms
    (plus the periodic ``shift`` for positions).  Replaying the stages
    forward is each layout's forward comm in its own swap order; replaying
    them backward is the reverse pass, the bucket-brigade order of
    :class:`CommBrick`.  Each layout is ``(swaps, to_index)``; ``to_index``
    maps the layout's local indices into the replayed atoms (``None``: they
    already are).  Valid only for the ``(reorder_generation, nall)`` the
    swaps were recorded against; every replay checks both.
    """

    layouts: Sequence[tuple[list[Swap], Callable[[np.ndarray], np.ndarray] | None]]
    reorder_generation: int
    nall: int

    @cached_property
    def stages(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Built on first replay: a replica member's own replay never is."""
        layouts = self.layouts
        stages = []
        for k in range(max((len(swaps) for swaps, _ in layouts), default=0)):
            src_parts, dst_parts, shift_parts = [], [], []
            for swaps, to_index in layouts:
                if k >= len(swaps):
                    continue
                sw = swaps[k]
                if sw.nrecv == 0:
                    continue
                src = sw.sendlist
                dst = np.arange(sw.firstrecv, sw.firstrecv + sw.nrecv)
                if to_index is not None:
                    src, dst = to_index(src), to_index(dst)
                src_parts.append(src)
                dst_parts.append(dst)
                shift_parts.append(np.repeat(sw.shift[None, :], sw.nrecv, axis=0))
            if not src_parts:
                continue
            src = np.concatenate(src_parts)
            # reverse's ``arr[src] += buf`` is exact on unique indices only:
            # each sendlist is strictly increasing (Swap), so only several
            # layouts sharing a stage can collide (they must map disjointly)
            if len(src_parts) > 1 and np.any(np.diff(np.sort(src)) == 0):
                raise CommError(f"ghost replay stage {k}: repeated source index")
            stages.append(
                (src, np.concatenate(dst_parts), np.concatenate(shift_parts))
            )
        return stages

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
            x[dst] = np.take(x, src, axis=0) + shift

    def forward_fields(self, atom: AtomVec, names: tuple[str, ...]) -> None:
        """Ghost copies of per-atom fields (no shift)."""
        self._check(atom)
        arrs = [getattr(atom, name) for name in names]
        for src, dst, _ in self.stages:
            for arr in arrs:
                arr[dst] = arr[src]

    def reverse(self, atom: AtomVec, name: str = "f") -> None:
        """Ghost contributions accumulate back to their sources."""
        self._check(atom)
        arr = getattr(atom, name)
        for src, dst, _ in reversed(self.stages):
            # gather first: the mailbox path's receive-buffer copy
            buf = np.take(arr, dst, axis=0)
            arr[src] += buf


@dataclass
class CommBrick:
    """Per-rank communication engine."""

    comm: SimComm
    decomp: BrickDecomposition
    #: Ghost cutoff: force cutoff + neighbor skin.
    cutghost: float
    swaps: list[Swap] = field(default_factory=list)
    #: ``atom.reorder_generation`` when the swaps were recorded; a spatial
    #: sort after borders would silently invalidate every sendlist index.
    _swap_reorder_gen: int = -1
    #: One-rank worlds: the last ``borders``' swaps as an in-place replay.
    replay: GhostReplay | None = None

    def __post_init__(self) -> None:
        if self.cutghost <= 0.0:
            raise CommError("ghost cutoff must be positive")
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

    # ------------------------------------------------------------- helpers
    def _face_peer(self, dim: int, dirn: int) -> tuple[int, np.ndarray, bool]:
        """Peer rank for a face send, the shift to apply, and validity.

        Returns ``(peer, shift, active)``; ``active`` is False at a
        non-periodic global boundary.
        """
        px = self.decomp.grid
        ix = list(self.decomp.coords_of(self.comm.rank))
        at_edge = (dirn < 0 and ix[dim] == 0) or (dirn > 0 and ix[dim] == px[dim] - 1)
        shift = np.zeros(3)
        if at_edge:
            length = self.decomp.boxhi[dim] - self.decomp.boxlo[dim]
            shift[dim] = length if dirn < 0 else -length
        ix2 = list(ix)
        ix2[dim] += dirn
        peer = self.decomp.rank_of(*ix2)
        return peer, shift, True

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
        """Rebuild the ghost shell (generator; one yield per swap)."""
        atom.clear_ghosts()
        self.swaps = []
        self.replay = None
        self._swap_reorder_gen = atom.reorder_generation
        for dim in range(3):
            # Candidates for this dimension's first hop: owned atoms plus
            # ghosts received in *earlier* dimensions only — including this
            # dimension's own receives would bounce them straight back as
            # duplicates.
            ncand = atom.nall
            # range of ghost slots received in the previous hop, per dirn
            prev_range = {-1: None, +1: None}
            for hop in range(self._hops(dim)):
                for dirn in (-1, +1):
                    peer, shift, _ = self._face_peer(dim, dirn)
                    at_edge = bool(shift[dim])
                    active = periodic[dim] or not at_edge
                    if hop == 0:
                        lo_c, hi_c = 0, ncand
                    elif prev_range[dirn] is None:
                        lo_c = hi_c = 0
                    else:
                        lo_c, hi_c = prev_range[dirn]
                    x = atom.x[lo_c:hi_c]
                    if active and hi_c > lo_c:
                        if dirn < 0:
                            mask = x[:, dim] < self.sublo[dim] + self.cutghost
                        else:
                            mask = x[:, dim] >= self.subhi[dim] - self.cutghost
                        sendlist = lo_c + np.flatnonzero(mask)
                    else:
                        sendlist = np.zeros(0, dtype=np.int64)
                    payload = {
                        name: getattr(atom, name)[sendlist].copy()
                        for name in BORDER_FIELDS
                    }
                    payload["x"] = payload["x"] + shift
                    tag = ("border", dim, dirn, hop)
                    self.comm.send(peer, payload, tag)
                    yield
                    recv_peer, _, _ = self._face_peer(dim, -dirn)
                    incoming = self.comm.recv(recv_peer, tag)
                    firstrecv = atom.nall
                    n = incoming["x"].shape[0]
                    if n:
                        atom.add_ghosts(incoming)
                    prev_range[dirn] = (firstrecv, firstrecv + n)
                    self.swaps.append(
                        Swap(
                            dim=dim,
                            dirn=dirn,
                            send_to=peer,
                            recv_from=recv_peer,
                            sendlist=sendlist,
                            shift=shift,
                            firstrecv=firstrecv,
                            nrecv=n,
                        )
                    )
        if self.comm.size == 1:
            self.replay = GhostReplay(
                [(self.swaps, None)], atom.reorder_generation, atom.nall
            )

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
        owners are computed on canonical coordinates.
        """
        atom.clear_ghosts()
        n = atom.nlocal
        atom.x[:n] = wrap(atom.x[:n])
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
        # union of custom fields across senders: a peer may have registered a
        # field this rank has not seen yet (and vice versa); missing rows are
        # zero-filled so every field stays aligned with its atoms
        custom_names = sorted({name for p in parts for name in p["custom"]})
        custom_in: dict[str, np.ndarray] | None = None
        if custom_names:
            custom_in = {}
            for name in custom_names:
                proto = next(p["custom"][name] for p in parts if name in p["custom"])
                custom_in[name] = np.concatenate([
                    p["custom"].get(
                        name,
                        np.zeros(
                            (p["x"].shape[0], proto.shape[1]), dtype=proto.dtype
                        ),
                    )
                    for p in parts
                ])
        atom.replace_local(
            x=np.concatenate([p["x"] for p in parts]),
            v=np.concatenate([p["v"] for p in parts]),
            types=np.concatenate([p["type"] for p in parts]),
            tags=np.concatenate([p["tag"] for p in parts]),
            q=np.concatenate([p["q"] for p in parts]),
            custom=custom_in,
        )
