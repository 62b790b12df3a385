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
from repro.graph.pairwise import pairwise
from repro.kokkos.core import Device, Host
from repro.kokkos.segment import fixed_dot


def accumulate_virial(
    virial: np.ndarray, xs: np.ndarray, fs: np.ndarray, weight: np.ndarray | None = None
) -> None:
    """Add sum over rows of ``weight x (outer) f`` (``weight`` 1 if None)
    to the 6-component virial, each component one :func:`fixed_dot`.

    Valid per interaction because each interaction's forces sum to zero,
    making the sum translation invariant.
    """
    w = () if weight is None else (weight,)
    # components xx, yy, zz, xy, xz, yz
    for k, (a, b) in enumerate(((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))):
        virial[k] += fixed_dot(*w, xs[:, a], fs[:, b])


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
        self.eng_vdwl += fixed_dot(factor, evdwl)
        accumulate_virial(self.virial, dx, fvec, factor)

    # ------------------------------------------------------ the pairwise pass
    def pair_tables(self) -> dict:
        """The per-type-pair tables the pass binds by name: the squared
        cutoff, and a two-body style's coefficients (``LJMixin``, EAM)."""
        return {"cutsq0": self.cut**2}

    def pair_constants(self, types: np.ndarray, i0: np.ndarray, j0: np.ndarray) -> dict:
        """:meth:`pair_tables` as the pass reads them over pairs ``(i0, j0)``
        of atoms of ``types`` (owned and ghost).

        A table that holds one value over the type pairs present binds that
        0-d value, which the pass multiplies in with no per-pair gather; any
        other binds its value per stored pair (that key built once, and only
        then).  Where LAMMPS-KOKKOS keeps ``params(itype, jtype)`` per type
        pair, so does this: on a one-type run nothing per pair.
        """
        width = self.cut.shape[1]
        t = np.flatnonzero(np.bincount(types, minlength=width))
        used = (t[:, None] * width + t).ravel()
        out, k = {}, None
        for name, table in self.pair_tables().items():
            flat = table.ravel()
            vals = flat.take(used)
            if vals.size and (vals == vals[0]).all():
                out[name] = vals[0]
            else:
                if k is None:
                    k = types.take(i0) * width + types.take(j0)
                out[name] = flat.take(k)
        return out

    def bind_pairs(self, nlist) -> dict:
        """The per-rebuild env of the pairwise pass over ``nlist``: its
        pairs, list style and :meth:`pair_constants`."""
        atom = self.lmp.atom
        full, newton = self.bind_list(nlist)
        i0, j0 = nlist.ij_pairs()
        return {
            "pair": self,
            "i0": i0,
            "j0": j0,
            # only the half-list newton-off path asks "is j owned"
            "jl0": None if full or newton else j0 < atom.nlocal,
            "full": full,
            "newton": newton,
            "f_view": None,
            **self.pair_constants(atom.type[: atom.nall], i0, j0),
        }

    def eval_setup(self):
        """The style's eval halves ``(force_fn, energy_fn)``.

        ``force_fn(env)`` runs every force call and leaves ``fpair_n``;
        ``energy_fn(env)`` runs only when a tally is due and leaves
        ``evdwl_n``.  Both read the cut-pair arrays the prologue left in
        ``env`` (``rsq_n``, ``i_n``, ``j_n``, ``idx``) and the constants
        :meth:`bind_pairs` bound.  A two-body style overrides it (see
        ``LJMixin``); the base has no two-body form.
        """
        raise StyleError(f"{type(self).__name__} has no two-body pairwise form")

    def pair_kernel(self):
        """This style's bound :func:`~repro.graph.pairwise.pairwise` env,
        memoized on the list's :class:`~repro.core.neighbor.PairCache`, so
        every per-rebuild constant in it dies with the list.
        """
        nlist = self.lmp.neigh_list
        style, newton = self.neighbor_request()
        return nlist.pair_cache().memo(
            ("pairwise", id(self), style == "full", newton), self._bind_kernel
        )

    def _bind_kernel(self):
        env = self.bind_pairs(self.lmp.neigh_list)
        env["force_fn"], env["energy_fn"] = self.eval_setup()
        # cut-pair indices (< len(i0)) gather every per-pair vector unchecked
        assert all(len(v) == len(env["i0"]) for v in env.values() if isinstance(v, np.ndarray))
        return env

    def compute(self, eflag: bool = True, vflag: bool = True) -> None:
        self.reset_tallies(eflag or vflag)
        nlist = self.lmp.neigh_list
        if nlist is None or nlist.total_pairs == 0:
            return
        self._compute_pairs(eflag, vflag)

    def _compute_pairs(self, eflag: bool, vflag: bool) -> None:
        """The host executor: the pass, eagerly."""
        env = self.pair_kernel()
        atom = self.lmp.atom
        env["x"] = atom.x[: atom.nall]
        env["f"] = atom.f
        pairwise(env, eflag or vflag)
