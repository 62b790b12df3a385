"""Input-script interpreter (paper section 2.1).

Commands are dispatched through a name -> method map, the Python analogue of
LAMMPS's command -> class-factory registry.  Immediate commands execute on
the spot; persistent commands (``fix``, ``pair_style``) create
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
from repro.core.errors import InputError, unknown_choice

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
            value = self.lmp.variables[name]
            # an integral value splices as an integer (``run ${n}``, seeds)
            if isinstance(value, float) and value.is_integer():
                value = int(value)
            return str(value)

        return re.sub(r"\$\{(\w+)\}", repl, line)

    @staticmethod
    def _need(args: list[str], n: int, usage: str) -> None:
        if len(args) < n:
            raise InputError(f"usage: {usage}")

    @staticmethod
    def _choice(what: str, token: str, allowed: tuple[str, ...]) -> str:
        if token not in allowed:
            raise InputError(unknown_choice(what, token, allowed))
        return token

    @staticmethod
    def _count(what: str, token: str) -> int:
        """A non-negative integer token."""
        try:
            value = int(token)
        except ValueError:
            value = -1
        if value < 0:
            raise InputError(f"{what} expects a non-negative integer, got {token!r}")
        return value

    # ------------------------------------------------------ global settings
    def cmd_units(self, args: list[str]) -> None:
        self._need(args, 1, "units <lj|metal|real>")
        self.lmp.update.set_units(args[0])
        self.lmp.neighbor.skin = self.lmp.update.units.skin

    def cmd_boundary(self, args: list[str]) -> None:
        self._need(args, 3, "boundary <p|f> <p|f> <p|f>")
        for flag in args[:3]:
            self._choice("boundary", flag, ("p", "f"))
        self.lmp.domain.periodic = tuple(a == "p" for a in args[:3])

    def cmd_atom_style(self, args: list[str]) -> None:
        self._need(args, 1, "atom_style <atomic|charge|full>")
        if args[0] not in ("atomic", "charge", "full"):
            raise InputError(f"unsupported atom_style {args[0]!r}")

    def cmd_timestep(self, args: list[str]) -> None:
        self._need(args, 1, "timestep <dt>")
        dt = float(args[0])
        if dt <= 0:
            raise InputError("timestep must be positive")
        self.lmp.update.dt = dt

    def cmd_variable(self, args: list[str]) -> None:
        self._need(args, 3, "variable <name> equal <expr>")
        name, style = args[0], args[1]
        if style != "equal":
            raise InputError("only equal-style variables are supported")
        self.lmp.variables[name] = safe_eval(" ".join(args[2:]))

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

    def cmd_pair_coeff(self, args: list[str]) -> None:
        if self.lmp.pair is None:
            raise InputError("pair_coeff before pair_style")
        self.lmp.pair.coeff(args)

    # ---------------------------------------------------------------- fixes
    def cmd_fix(self, args: list[str]) -> None:
        self._need(args, 3, "fix <id> <group> <style> [args]")
        self.lmp.add_fix(args[0], args[1], args[2], args[3:])

    # ----------------------------------------------------- neighbor control
    def cmd_neighbor(self, args: list[str]) -> None:
        self._need(args, 1, "neighbor <skin> [bin]")
        skin = float(args[0])
        if skin < 0:
            raise InputError("negative neighbor skin")
        if len(args) > 1:
            self._choice("neighbor style", args[1], ("bin",))
        self.lmp.neighbor.skin = skin

    def cmd_neigh_modify(self, args: list[str]) -> None:
        neighbor = self.lmp.neighbor
        it = iter(args)
        for key in it:
            value = next(it, None)
            if value is None:
                raise InputError(f"neigh_modify: {key!r} needs a value")
            if key in ("every", "delay"):
                n = self._count(f"neigh_modify {key}", value)
                if key == "every" and n == 0:
                    # LAMMPS: every <= 0 is an illegal neigh_modify command
                    raise InputError(
                        f"neigh_modify every expects a positive integer, got {value!r}"
                    )
                setattr(neighbor, key, n)
            elif key == "check":
                neighbor.check = self._choice("neigh_modify check", value, ("yes", "no")) == "yes"
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
        self.lmp.thermo.every = self._count("thermo", args[0])

    # ------------------------------------------------------------------ run
    def cmd_run(self, args: list[str]) -> None:
        self.lmp.run(self._steps(args))

    def run_steps(self, line: str) -> int | None:
        """``N`` if ``line`` is ``run N`` (substituted and usage-checked as
        a solo run is), else None: the multi-instance drivers drive runs."""
        tokens = self._substitute(line.split("#", 1)[0]).split()
        if not tokens or tokens[0] != "run":
            return None
        return self._steps(tokens[1:])

    def _steps(self, args: list[str]) -> int:
        self._need(args, 1, "run <N>")
        return self._count("run", args[0])
