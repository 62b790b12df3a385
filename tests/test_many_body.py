"""The many-body executor: SNAP and ReaxFF run one Stage list each.

* The modeled ledger of ``snap/kk`` (ComputeDeidrj fused and unfused) and
  ``reaxff/kk`` at 1 and 2 ranks is pinned bit for bit: every kernel's
  ``timeline.entries`` and ``timeline.counts`` after a short run.
* Each charge sits where its work runs: a kernel's dispatch encloses the
  call that does the work, and ReaxFF's bond-list and matrix kernels end
  before the QEq solve's first message, while the nonbonded kernel begins
  after the forward exchange of ``q``.

To rebless the pinned ledger after an intentional cost-model change:

    PYTHONPATH=src python -m pytest tests/test_many_body.py --update-golden
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro.kokkos as kk
from repro.core import Ensemble, Lammps
from repro.tools import registry as kp
from repro.workloads.hns import setup_hns
from repro.workloads.tantalum import setup_tantalum

LEDGER = Path(__file__).parent / "golden" / "modeled-ledger.json"

#: case -> (pair style, ranks, snap/kk options)
CASES = {
    "snap-kk-np1": ("snap", 1, {}),
    "snap-kk-np2": ("snap", 2, {}),
    "snap-kk-unfused-np1": ("snap", 1, {"fuse_deidrj": False}),
    "snap-kk-unfused-np2": ("snap", 2, {"fuse_deidrj": False}),
    "reaxff-kk-np1": ("reaxff", 1, {}),
    "reaxff-kk-np2": ("reaxff", 2, {}),
}


def make_kk(style: str, nranks: int, options: dict | None = None):
    target = (
        Ensemble(nranks, device="H100", suffix="kk")
        if nranks > 1
        else Lammps(device="H100", suffix="kk")
    )
    if style == "snap":
        setup_tantalum(target, cells=2, twojmax=4)
    else:
        setup_hns(target, 2, 2, 2, pair_style="reaxff cutoff 5.0")
        target.commands_string("neighbor 0.5 bin")
    if options:
        for lmp in target.ranks if nranks > 1 else [target]:
            lmp.pair.set_options(**options)
    return target


@pytest.mark.parametrize("case", sorted(CASES))
def test_modeled_ledger_is_pinned(case, update_golden):
    style, nranks, options = CASES[case]
    target = make_kk(style, nranks, options)
    target.run(3)
    tl = kk.device_context().timeline
    got = {"entries": dict(tl.entries), "counts": dict(tl.counts)}
    pinned = json.loads(LEDGER.read_text()) if LEDGER.exists() else {}
    if update_golden:
        pinned[case] = got
        LEDGER.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
        pytest.skip("golden updated")
    assert got == pinned[case]


class Recorder(kp.Tool):
    """Kernel ends, comm instants and Pair regions, in emission order."""

    name = "recorder"

    def __init__(self, log: list) -> None:
        self.log = log

    def end_parallel_for(self, ev) -> None:
        self.log.append(("end", ev.name, ev.rank))

    def profile_event(self, ev) -> None:
        if ev.name.startswith("comm:"):
            self.log.append(("comm", ev.name, ev.rank))

    def push_region(self, ev) -> None:
        self.log.append(("push", ev.name, ev.rank))

    def pop_region(self, ev) -> None:
        self.log.append(("pop", ev.name, ev.rank))


def record(monkeypatch) -> list:
    """The emission log, with every dispatch's begin in it (a tool sees
    only ends)."""
    log: list = []
    begin_kernel = kp.begin_kernel

    def logged_begin(kind, name, space):
        log.append(("begin", name, kp.CHAIN.rank))
        return begin_kernel(kind, name, space)

    monkeypatch.setattr(kp, "begin_kernel", logged_begin)
    return log


def pair_regions(log: list, rank: int) -> list[list]:
    """``rank``'s events inside each of its Pair phases."""
    regions, events = [], None
    for what, name, ev_rank in log:
        if ev_rank != rank:
            continue
        if (what, name) == ("push", "Pair"):
            events = []
        elif (what, name) == ("pop", "Pair"):
            regions.append(events)
            events = None
        elif events is not None:
            events.append((what, name))
    return regions


def test_snap_kernel_spans_enclose_their_calls(monkeypatch):
    """Each kernel's dispatch runs the call that does its work."""
    import repro.snap.pair_snap as pair_snap

    lmp = make_kk("snap", 1)
    log = record(monkeypatch)
    calls = {"compute_ui": "ComputeUi", "compute_yi": "ComputeYi",
             "compute_fused_deidrj": "ComputeFusedDeidrj"}
    for call in calls:
        def logged(*args, _fn=getattr(pair_snap, call), _call=call, **kwargs):
            log.append(("call", _call, kp.CHAIN.rank))
            return _fn(*args, **kwargs)

        monkeypatch.setattr(pair_snap, call, logged)
    with kp.attached(Recorder(log)):
        lmp.run(2)
    for call, kernel in calls.items():
        seen = [(what, name) for what, name, _ in log if name in (call, kernel)]
        # the setup force call and two steps
        assert seen == [("begin", kernel), ("call", call), ("end", kernel)] * 3


def test_reaxff_charges_sit_where_the_work_runs(monkeypatch):
    """Bond list and matrix are charged before the QEq solve's first
    message; the nonbonded kernel begins after the ``q`` exchange."""
    from repro.core.comm_md import CommBrick

    ens = make_kk("reaxff", 2)
    log = record(monkeypatch)
    forward_comm_field = CommBrick.forward_comm_field

    def logged_forward(self, atom, name):
        yield from forward_comm_field(self, atom, name)
        if name == "q":
            log.append(("q-comm", "done", kp.CHAIN.rank))

    monkeypatch.setattr(CommBrick, "forward_comm_field", logged_forward)
    with kp.attached(Recorder(log)):
        ens.run(1)
    for rank in (0, 1):
        regions = pair_regions(log, rank)
        assert len(regions) == 2  # the setup force call and one step
        for events in regions:
            first_comm = next(k for k, ev in enumerate(events) if ev[0] == "comm")
            for kernel in ("ReaxBondOrderNeighborList", "ReaxQEqMatrixBuild"):
                assert events.index(("end", kernel)) < first_comm
            assert events.index(("begin", "ReaxNonbondedForce")) > events.index(
                ("q-comm", "done")
            )
