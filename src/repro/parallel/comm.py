"""In-process simulated MPI world.

The world owns a mailbox keyed by ``(src, dest, tag)``.  Per-rank
:class:`SimComm` handles post sends into the mailbox and pop receives out of
it.  Intra-node messages (ranks sharing a node) are charged NVLink/xGMI-class
costs; inter-node messages are charged the fabric's alpha-beta cost; both
land in a :class:`CommLedger` that the scaling benchmarks read.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.hardware.network import NETWORKS, NetworkSpec
from repro.tools import registry as kp

#: Intra-node (NVLink / xGMI / Xe-Link class) message parameters.
INTRANODE_LATENCY_US = 1.0
INTRANODE_BW_GBS = 150.0


class SimDeadlockError(RuntimeError):
    """A receive was attempted with no matching posted send.

    In real MPI this is a hang; sequential rank execution lets us turn it
    into a diagnostic.
    """


@dataclass
class CommLedger:
    """Accumulated modeled communication seconds, by category."""

    entries: dict[str, float] = field(default_factory=dict)
    messages: int = 0
    bytes_moved: int = 0
    #: Running total (O(1) snapshots for the phase timers, like
    #: :class:`~repro.hardware.cost.DeviceTimeline`).
    cum_seconds: float = 0.0

    def record(self, category: str, seconds: float, nbytes: int = 0) -> None:
        self.entries[category] = self.entries.get(category, 0.0) + seconds
        self.messages += 1
        self.bytes_moved += nbytes
        self.cum_seconds += seconds
        if kp.TOOLS:
            # one charged instant per modeled message/collective: the
            # KokkosP analogue of an MPI profiling hook, attributed to the
            # emitting rank's track and simulated clock
            kp.profile_event(f"comm:{category}", sim_seconds=seconds, bytes=nbytes)

    def total(self) -> float:
        return sum(self.entries.values())


class SimWorld:
    """All ranks plus the fabric connecting them."""

    def __init__(
        self,
        size: int,
        *,
        network: NetworkSpec | str = "loopback",
        ranks_per_node: int = 1,
    ) -> None:
        if size < 1:
            raise ValueError("world size must be >= 1")
        if ranks_per_node < 1:
            raise ValueError("ranks_per_node must be >= 1")
        self.size = size
        self.network = NETWORKS[network] if isinstance(network, str) else network
        self.ranks_per_node = ranks_per_node
        self.ledger = CommLedger()
        self._mailbox: dict[tuple[int, int, Any], deque] = {}
        self._reduce_buckets: dict[Any, list] = {}
        self._reduce_results: dict[Any, tuple[Any, int]] = {}

    # ------------------------------------------------------------ topology
    def node_of(self, rank: int) -> int:
        return rank // self.ranks_per_node

    def comm(self, rank: int) -> "SimComm":
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range [0, {self.size})")
        return SimComm(self, rank)

    # ----------------------------------------------------------- messaging
    def _message_time(self, src: int, dest: int, nbytes: int) -> float:
        if src == dest:
            return 0.0
        if self.node_of(src) == self.node_of(dest):
            return INTRANODE_LATENCY_US * 1e-6 + nbytes / (INTRANODE_BW_GBS * 1e9)
        return self.network.ptp_time(nbytes)

    def post(self, src: int, dest: int, tag: Any, payload: Any) -> None:
        key = (src, dest, tag)
        self._mailbox.setdefault(key, deque()).append(payload)
        nbytes = payload.nbytes if isinstance(payload, np.ndarray) else 64
        self.ledger.record(
            "intranode" if self.node_of(src) == self.node_of(dest) else "fabric",
            self._message_time(src, dest, nbytes),
            nbytes,
        )

    def take(self, src: int, dest: int, tag: Any) -> Any:
        key = (src, dest, tag)
        queue = self._mailbox.get(key)
        if not queue:
            raise SimDeadlockError(
                f"rank {dest} receives (src={src}, tag={tag!r}) but nothing "
                "was posted — phase ordering bug (simulated deadlock)"
            )
        payload = queue.popleft()
        if not queue:
            del self._mailbox[key]
        return payload

    @property
    def pending_messages(self) -> int:
        return sum(len(q) for q in self._mailbox.values())

    def assert_drained(self) -> None:
        """Fail if any posted message was never received (lost-message bug)."""
        if self.pending_messages:
            keys = sorted(self._mailbox)[:8]
            raise RuntimeError(
                f"{self.pending_messages} message(s) never received; "
                f"first keys: {keys}"
            )

    # -------------------------------------------- phase-structured reduce
    def reduce_contribute(self, key: Any, value: Any) -> None:
        """Rank-side allreduce, phase 1: deposit a contribution.

        All ranks contribute under the same key before any reads the result
        (the lockstep driver's yield point sits between the two phases).
        """
        bucket = self._reduce_buckets.setdefault(key, [])
        bucket.append(np.asarray(value, dtype=float))
        if len(bucket) > self.size:
            raise RuntimeError(
                f"reduce key {key!r}: more contributions than ranks"
            )

    def reduce_result(self, key: Any) -> Any:
        """Rank-side allreduce, phase 2: read the combined result."""
        if key not in self._reduce_results:
            bucket = self._reduce_buckets.get(key)
            if bucket is None or len(bucket) < self.size:
                have = 0 if bucket is None else len(bucket)
                raise SimDeadlockError(
                    f"reduce key {key!r}: result read with {have}/{self.size} "
                    "contributions (phase ordering bug)"
                )
            total = bucket[0].copy()
            for a in bucket[1:]:
                total = total + a
            nbytes = int(total.nbytes)
            self.ledger.record(
                "allreduce", self.network.allreduce_time(nbytes, self.size), nbytes
            )
            self._reduce_results[key] = (total, 0)
            del self._reduce_buckets[key]
        elif kp.TOOLS:
            # the first reader charged the collective (and its instant) to
            # its own track; later readers mark the same sync point at zero
            # cost so every rank's timeline carries one ``comm:allreduce``
            # per collective
            kp.profile_event("comm:allreduce", sim_seconds=0.0)
        total, reads = self._reduce_results[key]
        reads += 1
        if reads >= self.size:
            del self._reduce_results[key]
        else:
            self._reduce_results[key] = (total, reads)
        return total if total.ndim else float(total)


@dataclass(frozen=True)
class SimComm:
    """One rank's communicator handle (what engine code holds)."""

    world: SimWorld
    rank: int

    @property
    def size(self) -> int:
        return self.world.size

    def send(self, dest: int, payload: Any, tag: Any = 0) -> None:
        """Post a message.  NumPy payloads are copied (MPI buffer semantics:
        the sender may reuse its buffer immediately)."""
        if not 0 <= dest < self.size:
            raise ValueError(f"send to invalid rank {dest}")
        if isinstance(payload, np.ndarray):
            payload = payload.copy()
        self.world.post(self.rank, dest, tag, payload)

    def recv(self, src: int, tag: Any = 0) -> Any:
        if not 0 <= src < self.size:
            raise ValueError(f"recv from invalid rank {src}")
        return self.world.take(src, self.rank, tag)
