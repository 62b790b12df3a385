"""Input-script interpreter (paper section 2.1).

Commands are dispatched through a name -> method map, the Python analogue of
LAMMPS's command -> class-factory registry.  Immediate commands execute on
the spot; persistent commands (``fix``, ``compute``, ``pair_style``) create
style instances stored on the :class:`~repro.core.lammps.Lammps` object and
invoked during subsequent runs — the two command kinds section 2.1
distinguishes.

Supported sugar: ``#`` comments, ``&`` line continuations, ``${name}``
variable substitution, and ``variable <name> equal <expr>`` with arithmetic
expressions.
"""

from __future__ import annotations

import ast
import operator
import re

from repro.core.domain import BlockRegion, Lattice
from repro.core.errors import InputError
from repro.core.styles import check_suffix

_BINOPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
    ast.Mod: operator.mod,
    ast.FloorDiv: operator.floordiv,
}
_UNOPS = {ast.USub: operator.neg, ast.UAdd: operator.pos}


def safe_eval(expr: str) -> float:
    """Arithmetic-only expression evaluation for ``variable equal``."""

    def ev(node: ast.AST) -> float:
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return float(node.value)
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            return _BINOPS[type(node.op)](ev(node.left), ev(node.right))
        if isinstance(node, ast.UnaryOp) and type(node.op) in _UNOPS:
            return _UNOPS[type(node.op)](ev(node.operand))
        raise InputError(f"unsupported expression element: {ast.dump(node)}")

    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise InputError(f"cannot parse expression {expr!r}") from exc
    return ev(tree)


class Input:
    """Tokenizer + dispatcher bound to one Lammps instance."""

    def __init__(self, lmp) -> None:
        self.lmp = lmp

    # ------------------------------------------------------------ plumbing
    def string(self, text: str) -> None:
        pending = ""
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].rstrip()
            if line.endswith("&"):
                pending += line[:-1] + " "
                continue
            line = (pending + line).strip()
            pending = ""
            if line:
                self.one(line)
        if pending.strip():
            self.one(pending.strip())

    def one(self, line: str) -> None:
        line = self._substitute(line.split("#", 1)[0].strip())
        if not line:
            return
        tokens = line.split()
        cmd, args = tokens[0], tokens[1:]
        handler = getattr(self, f"cmd_{cmd}", None)
        if handler is None:
            raise InputError(f"unknown command {cmd!r}")
        handler(args)

    def _substitute(self, line: str) -> str:
        def repl(match: re.Match) -> str:
            name = match.group(1)
            if name not in self.lmp.variables:
                raise InputError(f"undefined variable ${{{name}}}")
            return str(self.lmp.variables[name])

        return re.sub(r"\$\{(\w+)\}", repl, line)

    @staticmethod
    def _need(args: list[str], n: int, usage: str) -> None:
        if len(args) < n:
            raise InputError(f"usage: {usage}")

    # ------------------------------------------------------ global settings
    def cmd_units(self, args: list[str]) -> None:
        self._need(args, 1, "units <lj|metal|real>")
        self.lmp.update.set_units(args[0])
        self.lmp.neighbor.skin = self.lmp.update.units.skin

    def cmd_dimension(self, args: list[str]) -> None:
        self._need(args, 1, "dimension 3")
        if args[0] != "3":
            raise InputError("only 3-D simulations are supported")

    def cmd_boundary(self, args: list[str]) -> None:
        self._need(args, 3, "boundary <p|f> <p|f> <p|f>")
        periodic = tuple(a == "p" for a in args[:3])
        self.lmp.domain.periodic = periodic

    def cmd_atom_style(self, args: list[str]) -> None:
        self._need(args, 1, "atom_style <atomic|charge|full>")
        if args[0] not in ("atomic", "charge", "full"):
            raise InputError(f"unsupported atom_style {args[0]!r}")

    def cmd_newton(self, args: list[str]) -> None:
        self._need(args, 1, "newton <on|off>")
        self.lmp.newton_pair = args[0] == "on"

    def cmd_suffix(self, args: list[str]) -> None:
        self._need(args, 1, "suffix <kk|kk/host|kk/device|gpu|off>")
        self.lmp.suffix = None if args[0] == "off" else check_suffix(args[0])

    def cmd_package(self, args: list[str]) -> None:
        """``package kokkos`` tuning knobs (section 3.3 / appendix C.1).

        Supported: ``neigh <half|full>``, ``newton <on|off>``,
        ``comm <host|device>`` (where communication buffers are packed) and
        ``pair/only <on|off>`` (appendix C's "reverse offload": with
        pair/only, non-pair kernels stay on the host).
        """
        self._need(args, 1, "package <kokkos|autotune> [options]")
        if args[0] == "autotune":
            self._package_autotune(args[1:])
            return
        if args[0] != "kokkos":
            raise InputError("only 'package kokkos' and 'package autotune' "
                             "are supported")
        it = iter(args[1:])
        for key in it:
            val = next(it, None)
            if val is None:
                raise InputError(f"package kokkos: {key} needs a value")
            if key == "neigh":
                if val not in ("half", "full"):
                    raise InputError("package kokkos neigh expects half|full")
                self.lmp.package_kokkos["neigh"] = val
            elif key == "newton":
                self.lmp.package_kokkos["newton"] = val == "on"
            elif key == "comm":
                if val not in ("host", "device"):
                    raise InputError("package kokkos comm expects host|device")
                self.lmp.package_kokkos["comm"] = val
            elif key == "pair/only":
                self.lmp.package_kokkos["pair_only"] = val == "on"
            else:
                raise InputError(f"package kokkos: unknown option {key!r}")

    def _package_autotune(self, args: list[str]) -> None:
        """``package autotune on|off [options]`` (the runtime autotuner).

        Options after ``on``: ``plan <FILE>`` (``none`` disables
        persistence), ``workload <NAME>``.  The search itself runs at the
        next ``run`` command, before any timestep (:mod:`repro.tune`).
        """
        if not args or args[0] not in ("on", "off"):
            raise InputError("usage: package autotune <on|off> [options]")
        if args[0] == "off":
            self.lmp.autotune_request = None
            self.lmp.autotuner = None
            return
        request: dict = {"workload": "run", "quiet": self.lmp.thermo.quiet}
        it = iter(args[1:])
        for key in it:
            val = next(it, None)
            if val is None:
                raise InputError(f"package autotune: {key} needs a value")
            if key == "plan":
                request["plan_path"] = None if val == "none" else val
            elif key == "workload":
                request["workload"] = val
            else:
                raise InputError(f"package autotune: unknown option {key!r}")
        self.lmp.autotune_request = request

    def cmd_timestep(self, args: list[str]) -> None:
        self._need(args, 1, "timestep <dt>")
        dt = float(args[0])
        if dt <= 0:
            raise InputError("timestep must be positive")
        self.lmp.update.dt = dt

    def cmd_reset_timestep(self, args: list[str]) -> None:
        self._need(args, 1, "reset_timestep <n>")
        self.lmp.update.ntimestep = int(args[0])

    def cmd_variable(self, args: list[str]) -> None:
        self._need(args, 3, "variable <name> equal <expr>")
        name, style = args[0], args[1]
        if style != "equal":
            raise InputError("only equal-style variables are supported")
        self.lmp.variables[name] = safe_eval(" ".join(args[2:]))

    def cmd_print(self, args: list[str]) -> None:
        if self.lmp.comm_rank == 0:
            print(" ".join(args).strip('"'))

    def cmd_log(self, args: list[str]) -> None:
        pass  # logging redirection is a no-op here

    def cmd_echo(self, args: list[str]) -> None:
        pass

    def cmd_tools(self, args: list[str]) -> None:
        """``tools <name[,name...]> [out <dir>]`` attaches observability
        tools (:mod:`repro.tools`); ``tools off`` finalizes and detaches,
        printing their reports.  The tool chain is process-global, so in
        multi-rank runs only the root rank acts on the command."""
        self._need(args, 1, "tools <name[,name...]> [out <dir>] | tools off")
        if self.lmp.comm_rank != 0:
            return
        from repro.tools import create_tools
        from repro.tools import registry as kp

        if args[0] == "off":
            for report in kp.finalize_all():
                print(report)
            return
        outdir = "."
        if len(args) >= 3 and args[1] == "out":
            outdir = args[2]
        try:
            tools = create_tools(args[0], outdir)
        except ValueError as err:
            raise InputError(str(err)) from None
        for tool in tools:
            kp.attach(tool)

    # ---------------------------------------------------------- geometry
    def cmd_lattice(self, args: list[str]) -> None:
        self._need(args, 2, "lattice <style> <scale>")
        lj = self.lmp.update.units.name == "lj"
        self.lmp.lattice = Lattice.create(args[0], float(args[1]), lj_units=lj)

    def cmd_region(self, args: list[str]) -> None:
        self._need(args, 8, "region <id> block xlo xhi ylo yhi zlo zhi")
        rid, style = args[0], args[1]
        if style != "block":
            raise InputError("only block regions are supported")
        vals = [float(v) for v in args[2:8]]
        scale = self.lmp.lattice.a if self.lmp.lattice else 1.0
        lo = [vals[0] * scale, vals[2] * scale, vals[4] * scale]
        hi = [vals[1] * scale, vals[3] * scale, vals[5] * scale]
        self.lmp.regions[rid] = BlockRegion.create(lo, hi)

    def cmd_create_box(self, args: list[str]) -> None:
        self._need(args, 2, "create_box <ntypes> <region-id>")
        region = self._region(args[1])
        self.lmp.create_box(int(args[0]), region)

    def cmd_create_atoms(self, args: list[str]) -> None:
        self._need(args, 2, "create_atoms <type> box|region <id>")
        atom_type = int(args[0])
        if args[1] == "box":
            self.lmp.create_atoms(atom_type, None)
        elif args[1] == "region":
            self._need(args, 3, "create_atoms <type> region <id>")
            self.lmp.create_atoms(atom_type, self._region(args[2]))
        else:
            raise InputError("create_atoms expects 'box' or 'region <id>'")

    def _region(self, rid: str) -> BlockRegion:
        if rid not in self.lmp.regions:
            raise InputError(f"unknown region {rid!r}")
        return self.lmp.regions[rid]

    # ------------------------------------------------------------- physics
    def cmd_mass(self, args: list[str]) -> None:
        self._need(args, 2, "mass <type> <mass>")
        if args[0] == "*":
            for t in range(1, self.lmp.require_box().ntypes + 1):
                self.lmp.set_mass(t, float(args[1]))
        else:
            self.lmp.set_mass(int(args[0]), float(args[1]))

    def cmd_velocity(self, args: list[str]) -> None:
        self._need(args, 4, "velocity all create <T> <seed>")
        if args[0] != "all" or args[1] != "create":
            raise InputError("only 'velocity all create T seed' is supported")
        self.lmp.velocity_create(float(args[2]), int(args[3]))

    def cmd_pair_style(self, args: list[str]) -> None:
        self._need(args, 1, "pair_style <style> [args]")
        self.lmp.set_pair_style(args[0], args[1:])

    def cmd_pair_modify(self, args: list[str]) -> None:
        self._need(args, 2, "pair_modify shift <yes|no>")
        if self.lmp.pair is None:
            raise InputError("pair_modify before pair_style")
        if args[0] != "shift":
            raise InputError("only 'pair_modify shift yes|no' is supported")
        self.lmp.pair.shift = args[1] == "yes"

    def cmd_pair_coeff(self, args: list[str]) -> None:
        if self.lmp.pair is None:
            raise InputError("pair_coeff before pair_style")
        self.lmp.pair.coeff(args)

    # ----------------------------------------------------- fixes / computes
    def cmd_fix(self, args: list[str]) -> None:
        self._need(args, 3, "fix <id> <group> <style> [args]")
        self.lmp.add_fix(args[0], args[1], args[2], args[3:])

    def cmd_unfix(self, args: list[str]) -> None:
        self._need(args, 1, "unfix <id>")
        self.lmp.modify.remove_fix(args[0])

    def cmd_compute(self, args: list[str]) -> None:
        self._need(args, 3, "compute <id> <group> <style> [args]")
        self.lmp.add_compute(args[0], args[1], args[2], args[3:])

    def cmd_group(self, args: list[str]) -> None:
        self._need(args, 2, "group <name> type|region <args>")
        name, style = args[0], args[1]
        if style == "type":
            self.lmp.define_group(name, "type", tuple(int(t) for t in args[2:]))
        elif style == "region":
            self._need(args, 3, "group <name> region <region-id>")
            self._region(args[2])
            self.lmp.define_group(name, "region", (args[2],))
        else:
            raise InputError("group styles supported: type, region")

    # ----------------------------------------------------- neighbor control
    def cmd_neighbor(self, args: list[str]) -> None:
        self._need(args, 1, "neighbor <skin> [bin]")
        skin = float(args[0])
        if skin < 0:
            raise InputError("negative neighbor skin")
        self.lmp.neighbor.skin = skin

    def cmd_atom_modify(self, args: list[str]) -> None:
        """``atom_modify sort <every> <binsize>``: spatial sort control.

        ``every`` counts neighbor rebuilds between sorts (0 disables);
        ``binsize 0.0`` uses the ghost cutoff, as in LAMMPS.
        """
        self._need(args, 3, "atom_modify sort <every> <binsize>")
        if args[0] != "sort":
            raise InputError("atom_modify supports only: sort <every> <binsize>")
        every = int(args[1])
        binsize = float(args[2])
        if every < 0 or binsize < 0:
            raise InputError("atom_modify sort: every/binsize must be >= 0")
        self.lmp.sort_every = every
        self.lmp.sort_binsize = binsize

    def cmd_neigh_modify(self, args: list[str]) -> None:
        it = iter(args)
        for key in it:
            if key == "every":
                self.lmp.neighbor.every = int(next(it, "1"))
            elif key == "delay":
                self.lmp.neighbor.delay = int(next(it, "0"))
            elif key == "check":
                self.lmp.neighbor.check = next(it, "yes") == "yes"
            else:
                raise InputError(f"neigh_modify: unknown keyword {key!r}")

    # ------------------------------------------------------------------ I/O
    def cmd_read_data(self, args: list[str]) -> None:
        self._need(args, 1, "read_data <file>")
        from repro.core.io import read_data

        read_data(self.lmp, args[0])

    # --------------------------------------------------------------- output
    def cmd_thermo(self, args: list[str]) -> None:
        self._need(args, 1, "thermo <N>")
        self.lmp.thermo.every = int(args[0])

    def cmd_thermo_style(self, args: list[str]) -> None:
        self._need(args, 1, "thermo_style custom <cols...>")
        if args[0] != "custom":
            raise InputError("only 'thermo_style custom' is supported")
        self.lmp.thermo.columns = tuple(args[1:])

    # ------------------------------------------------------------------ run
    def cmd_run(self, args: list[str]) -> None:
        self._need(args, 1, "run <N>")
        self.lmp.run(int(args[0]))
