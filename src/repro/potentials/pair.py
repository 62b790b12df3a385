"""Pair style base class (paper section 2.2).

A pair style owns per-type-pair coefficients, declares the neighbor list it
wants (half or full, newton on or off — the section 4.1 design space), and
tallies energies and the virial the way LAMMPS's ``ev_tally`` does:

* **half list, newton on** — each pair appears once globally: full energy,
  forces on both atoms (ghost forces reverse-communicated);
* **half list, newton off** — pairs with a ghost appear on both owning
  ranks: each side tallies half the energy and updates only its own atom;
* **full list** — every pair appears twice on this rank: each appearance
  tallies half the energy and updates atom ``i`` only.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import InputError, LammpsError, StyleError
from repro.graph.pairwise import pairwise_stages, run_stages
from repro.kokkos.core import Device, Host


def accumulate_virial(virial: np.ndarray, xs: np.ndarray, fs: np.ndarray) -> None:
    """Add sum over rows of ``x (outer) f`` to the 6-component virial.

    Valid per interaction because each interaction's forces sum to zero,
    making the sum translation invariant.
    """
    virial[0] += float(np.dot(xs[:, 0], fs[:, 0]))
    virial[1] += float(np.dot(xs[:, 1], fs[:, 1]))
    virial[2] += float(np.dot(xs[:, 2], fs[:, 2]))
    virial[3] += float(np.dot(xs[:, 0], fs[:, 1]))
    virial[4] += float(np.dot(xs[:, 0], fs[:, 2]))
    virial[5] += float(np.dot(xs[:, 1], fs[:, 2]))


class Pair:
    """Base pair style."""

    #: True on Kokkos-accelerated styles (drives DualView datamask syncs).
    kokkos_style = False
    #: Where the style's kernels run; Kokkos styles pick per instance.
    execution_space = Host

    def __init__(self, lmp, args: list[str], execution_space: str = "device") -> None:
        if self.kokkos_style:  # ``/kk/host`` resolves with execution_space="host"
            self.execution_space = Device if execution_space == "device" else Host
        self.lmp = lmp
        self.eng_vdwl = 0.0
        self.eng_coul = 0.0
        self.virial = np.zeros(6)
        #: timestep of the last compute that tallied energy/virial
        self.tallied_step = -1
        atom = lmp.require_box()
        n = atom.ntypes + 1
        self.cut = np.zeros((n, n))
        self.setflag = np.zeros((n, n), dtype=bool)
        self.settings(args)

    # -------------------------------------------------------- configuration
    def settings(self, args: list[str]) -> None:
        """Parse ``pair_style`` arguments."""
        raise NotImplementedError

    def coeff(self, args: list[str]) -> None:
        """Parse one ``pair_coeff`` line."""
        raise NotImplementedError

    def init(self) -> None:
        """Finalize coefficients (mixing) before a run."""
        n = self.cut.shape[0] - 1
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                if not self.setflag[i, j]:
                    if self.setflag[i, i] and self.setflag[j, j]:
                        self.init_one(i, j)
                    else:
                        raise InputError(
                            f"pair coefficients for types ({i},{j}) not set"
                        )
                self.cut[j, i] = self.cut[i, j]

    def init_one(self, i: int, j: int) -> None:
        """Mix coefficients for an unset cross pair."""
        raise StyleError(
            f"{type(self).__name__} does not support coefficient mixing; "
            f"set pair_coeff for types ({i},{j}) explicitly"
        )

    def _parse_type(self, token: str) -> list[int]:
        """A type token: a number or ``*`` (all types)."""
        ntypes = self.cut.shape[0] - 1
        if token == "*":
            return list(range(1, ntypes + 1))
        t = int(token)
        if not 1 <= t <= ntypes:
            raise InputError(f"atom type {t} out of range [1, {ntypes}]")
        return [t]

    # ------------------------------------------------------------- queries
    def max_cutoff(self) -> float:
        return float(self.cut.max())

    def neighbor_request(self) -> tuple[str, bool]:
        """``(list_style, newton)`` this style wants."""
        return "half", self.lmp.newton_pair

    @property
    def needs_reverse_comm(self) -> bool:
        style, newton = self.neighbor_request()
        return style == "half" and newton

    def bind_list(self, nlist) -> tuple[bool, bool]:
        """``(full, newton)`` of ``nlist``, refused unless it is the list this
        style requested: a full list run through a half-list scatter would
        count every bond twice, silently.  Kernels call it where they bind to
        a list (once per rebuild, in the list's ``PairCache`` memo)."""
        want, got = self.neighbor_request(), (nlist.style, nlist.newton)
        if got != want:
            name = getattr(self, "style_name", type(self).__name__)
            say = lambda style, newton: (  # noqa: E731
                f"a {style} neighbor list with newton {'on' if newton else 'off'}"
            )
            raise LammpsError(f"pair {name} requested {say(*want)} but is bound to {say(*got)}")
        return nlist.style == "full", nlist.newton

    def require_pairs(self, ok: np.ndarray, i, j, what: str, kind: str = "") -> None:
        """Fail loudly, naming step and the first pair ``(i, j)`` not ``ok``,
        before its NaN reaches ``f``."""
        if not ok.all():
            k, tag = int(np.flatnonzero(~ok)[0]), self.lmp.atom.tag
            raise LammpsError(
                f"pair {self.style_name}: {kind}pair ({int(tag[i[k]])}, {int(tag[j[k]])}) "
                f"{what} on timestep {self.lmp.update.ntimestep}"
            )

    def stage_kernels(self) -> dict:
        """A many-body style's ``/kk`` charge per stage; a host style has none."""
        return {}

    # -------------------------------------------------------------- tallies
    def reset_tallies(self, ev: bool = True) -> None:
        """Zero the accumulators; ``ev`` says this compute will fill them."""
        self.eng_vdwl = 0.0
        self.eng_coul = 0.0
        self.virial[:] = 0.0
        if ev:
            self.tallied_step = self.lmp.update.ntimestep

    def require_tally(self) -> None:
        """Guard for readers of ``eng_*``/``virial``: LAMMPS's own error
        when the current step's compute ran without eflag/vflag."""
        step = self.lmp.update.ntimestep
        if self.tallied_step != step:
            raise LammpsError(f"energy/virial was not tallied on timestep {step}")

    def tally_pairs(
        self,
        evdwl: np.ndarray,
        dx: np.ndarray,
        fvec: np.ndarray,
        jlocal: np.ndarray | None,
        *,
        full_list: bool,
        newton: bool,
    ) -> None:
        """ev_tally for a batch of pairs.

        ``fvec`` holds the per-pair force vectors (``fpair[:, None] * dx``),
        both ``(n, 3)`` of any strides (the pairwise pass hands in ``.T``
        views of its component rows, so each column read is contiguous);
        ``jlocal`` marks pairs whose j atom is owned by this rank and is
        only read on the half-list newton-off path.
        """
        # per-pair weight of the three list styles (module docstring)
        if full_list:
            factor = np.full(len(evdwl), 0.5)
        elif newton:
            factor = np.ones(len(evdwl))
        else:
            factor = np.where(jlocal, 1.0, 0.5)
        self.eng_vdwl += float(np.dot(factor, evdwl))
        # virial components xx, yy, zz, xy, xz, yz
        self.virial[0] += float(np.dot(factor, dx[:, 0] * fvec[:, 0]))
        self.virial[1] += float(np.dot(factor, dx[:, 1] * fvec[:, 1]))
        self.virial[2] += float(np.dot(factor, dx[:, 2] * fvec[:, 2]))
        self.virial[3] += float(np.dot(factor, dx[:, 0] * fvec[:, 1]))
        self.virial[4] += float(np.dot(factor, dx[:, 0] * fvec[:, 2]))
        self.virial[5] += float(np.dot(factor, dx[:, 1] * fvec[:, 2]))

    # ----------------------------------------------------- pair-table cache
    def pair_table(
        self, nlist, atom
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Neighbor-constant per-pair arrays ``(i, j, itype, jtype, cutsq)``.

        All five come from the list's :class:`~repro.core.neighbor.PairCache`
        — computed once per rebuild instead of re-gathered every force call.
        """
        cache = nlist.pair_cache()
        i, j = cache.ij()
        itype, jtype = cache.type_pairs(atom.type)
        return i, j, itype, jtype, cache.cutsq_pairs(self.cut)

    # ------------------------------------------------------ the pairwise pass
    def eval_setup(self, env: dict, itype0: np.ndarray, jtype0: np.ndarray):
        """Bind per-rebuild eval constants into ``env``; return the eval halves.

        ``(force_fn, energy_fn)``: ``force_fn(env)`` runs every force call
        and leaves ``fpair_n``; ``energy_fn(env)`` runs only when a tally is
        due and leaves ``evdwl_n``.  Both read the cut-pair arrays the
        prologue left in ``env`` (``rsq_n``, ``i_n``, ``j_n``, ``idx``).

        A two-body style overrides it with its separable halves over
        pre-gathered coefficient vectors (see ``LJMixin``); the base has no
        two-body form.
        """
        raise StyleError(f"{type(self).__name__} has no two-body pairwise form")

    def pair_kernel(self):
        """This style's bound pairwise pass.

        ``(env, stages, tally_stage)`` memoized on the list's
        :class:`~repro.core.neighbor.PairCache`, so every per-rebuild
        constant in ``env`` dies with the list.
        """
        nlist = self.lmp.neigh_list
        style, newton = self.neighbor_request()
        return nlist.pair_cache().memo(
            ("pairwise", id(self), style == "full", newton), self._bind_kernel
        )

    def _bind_kernel(self):
        atom = self.lmp.atom
        nlist = self.lmp.neigh_list
        full, newton = self.bind_list(nlist)
        i0, j0, itype0, jtype0, cutsq0 = self.pair_table(nlist, atom)
        env: dict = {
            "pair": self,
            "i0": i0,
            "j0": j0,
            "cutsq0": cutsq0,
            # only the half-list newton-off path asks "is j owned"
            "jl0": None if full or newton else j0 < atom.nlocal,
            "full": full,
            "newton": newton,
            "f_view": None,
        }
        force_fn, env["energy_fn"] = self.eval_setup(env, itype0, jtype0)
        # cut-pair indices (< len(i0)) gather every per-pair vector unchecked
        assert all(len(v) == len(i0) for v in env.values() if isinstance(v, np.ndarray))
        stages, tally = pairwise_stages(force_fn)
        return env, stages, tally

    def compute(self, eflag: bool = True, vflag: bool = True) -> None:
        self.reset_tallies(eflag or vflag)
        nlist = self.lmp.neigh_list
        if nlist is None or nlist.total_pairs == 0:
            return
        self._compute_pairs(eflag, vflag)

    def _compute_pairs(self, eflag: bool, vflag: bool) -> None:
        """The host executor: the stages, eagerly in order."""
        env, stages, tally = self.pair_kernel()
        atom = self.lmp.atom
        env["x"] = atom.x[: atom.nall]
        env["f"] = atom.f
        if eflag or vflag:
            stages = stages + [tally]
        run_stages(stages, env)
