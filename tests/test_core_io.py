"""Data files: ``read_data`` and the data-file parser."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import make_melt
from repro.core import Ensemble, Lammps
from repro.core.errors import InputError
from repro.core.io import parse_data


def write_data_file(lmp, path: str) -> None:
    """A LAMMPS data file of one rank's owned atoms (``Atoms # charge``)."""
    atom = lmp.atom
    n = atom.nlocal
    lo, hi = lmp.domain.boxlo.tolist(), lmp.domain.boxhi.tolist()
    tags, types, q = atom.tag[:n].tolist(), atom.type[:n].tolist(), atom.q[:n].tolist()
    lines = ["state", "", f"{n} atoms", f"{atom.ntypes} atom types", ""]
    lines += [f"{lo[d]!r} {hi[d]!r} {a}lo {a}hi" for d, a in enumerate("xyz")]
    lines += ["", "Masses", ""]
    lines += [f"{t} {m!r}" for t, m in enumerate(atom.mass.tolist()) if t]
    lines += ["", "Atoms # charge", ""]
    lines += [f"{t} {ty} {qk!r} {x!r} {y!r} {z!r}"
              for t, ty, qk, (x, y, z) in zip(tags, types, q, atom.x[:n].tolist())]
    lines += ["", "Velocities", ""]
    lines += [f"{t} {x!r} {y!r} {z!r}" for t, (x, y, z) in zip(tags, atom.v[:n].tolist())]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


class TestDataRoundtrip:
    def test_write_then_read_preserves_state(self, tmp_path):
        src = make_melt(cells=2)
        src.command("run 5")
        path = str(tmp_path / "state.data")
        write_data_file(src, path)

        dst = Lammps(device=None)
        dst.commands_string(
            "units lj\n"
            f"read_data {path}\n"
            "pair_style lj/cut 2.5\npair_coeff 1 1 1.0 1.0\nfix 1 all nve\nthermo 10"
        )
        assert dst.natoms_total == src.natoms_total
        np.testing.assert_allclose(dst.atom.mass, src.atom.mass)
        order_s = np.argsort(src.atom.tag[: src.atom.nlocal])
        order_d = np.argsort(dst.atom.tag[: dst.atom.nlocal])
        # read_data wraps into the primary box; compare wrapped coordinates
        np.testing.assert_allclose(
            dst.domain.wrap(dst.atom.x[: dst.atom.nlocal][order_d]),
            src.domain.wrap(src.atom.x[: src.atom.nlocal][order_s]),
            atol=1e-9,
        )
        np.testing.assert_allclose(
            dst.atom.v[: dst.atom.nlocal][order_d],
            src.atom.v[: src.atom.nlocal][order_s],
            atol=1e-9,
        )
        # and the restarted system produces the same forces
        src.command("run 0")
        dst.command("run 0")
        assert dst.pair.eng_vdwl == pytest.approx(src.pair.eng_vdwl, rel=1e-9)

    def test_charge_style_roundtrip(self, tmp_path):
        src = make_melt(cells=2)
        src.atom.q[: src.atom.nlocal] = 0.25
        path = str(tmp_path / "charged.data")
        write_data_file(src, path)
        data = parse_data(path)
        assert np.all(data.q == 0.25)

    def test_multirank_read_partitions_atoms(self, tmp_path):
        src = make_melt(cells=2)
        path = str(tmp_path / "m.data")
        write_data_file(src, path)

        ens = Ensemble(2, device=None)
        ens.commands_string(
            "units lj\n"
            f"read_data {path}\n"
            "pair_style lj/cut 2.5\npair_coeff 1 1 1.0 1.0\nfix 1 all nve"
        )
        assert sum(l.atom.nlocal for l in ens.ranks) == src.natoms_total
        ens.command("run 1")  # integrates cleanly


class TestParseErrors:
    def write(self, tmp_path, text):
        p = tmp_path / "bad.data"
        p.write_text(text)
        return str(p)

    def test_missing_header(self, tmp_path):
        path = self.write(tmp_path, "title\n\nAtoms\n\n1 1 0 0 0\n")
        with pytest.raises(InputError, match="missing"):
            parse_data(path)

    def test_count_mismatch(self, tmp_path):
        path = self.write(
            tmp_path,
            "t\n\n2 atoms\n1 atom types\n\n0 1 xlo xhi\n0 1 ylo yhi\n0 1 zlo zhi\n\n"
            "Atoms\n\n1 1 0.1 0.1 0.1\n",
        )
        with pytest.raises(InputError, match="header says 2"):
            parse_data(path)

    def test_type_out_of_range(self, tmp_path):
        path = self.write(
            tmp_path,
            "t\n\n1 atoms\n1 atom types\n\n0 1 xlo xhi\n0 1 ylo yhi\n0 1 zlo zhi\n\n"
            "Atoms\n\n1 7 0.1 0.1 0.1\n",
        )
        with pytest.raises(InputError, match="type out of range"):
            parse_data(path)

    def test_garbage_header_line(self, tmp_path):
        path = self.write(tmp_path, "t\n\nhello world\n")
        with pytest.raises(InputError, match="unrecognized"):
            parse_data(path)
