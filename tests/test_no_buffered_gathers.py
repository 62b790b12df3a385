"""Source guard: the per-step hot paths keep off NumPy's slow forms.

* ``take(..., out=...)`` under the default ``mode="raise"`` gathers into a
  private copy of ``out`` and copies it back, so a bad index can fail before
  ``out`` is touched — twice the cost of the gather.  The pairwise pass
  proves its indices once per list and gathers through the one helper,
  :func:`repro.graph.pairwise.gather`, whose one call is the bound
  ``a.take(..., mode="clip")`` (``np.take`` adds a Python wrapper that costs
  about as much as a small gather); no other call may pass ``out=`` to
  ``np.take`` or to a bound ``.take``.
* ``np.add.at`` is NumPy's unbuffered, per-element scatter.  Reverse comm
  folds ghosts over sendlists that ``Swap`` proves unique, and the shared
  ``GhostReplay`` over stage sources its ``stages`` build proves unique, so
  ``core/comm_md.py`` and ``replica/batch.py`` need none.
* ``np.cross`` is NumPy's generic cross product: each call normalizes its
  axes through ``moveaxis`` and ``normalize_axis_tuple`` before it
  multiplies.  A 200-step ``hns`` profile made 1 206 such calls (6 per
  force call, over 144 quads).  Rows of 3-vectors take the explicit
  component form instead (same multiply-then-subtract order, so bitwise
  equal); no module under ``src/repro`` calls ``np.cross``.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
HELPER = ("graph/pairwise.py", "gather")


def _is_np_attr(node: ast.AST, *path: str) -> bool:
    """``node`` is ``np.<path>`` / ``numpy.<path>`` (e.g. ``np.add.at``)."""
    for name in reversed(path):
        if not (isinstance(node, ast.Attribute) and node.attr == name):
            return False
        node = node.value
    return isinstance(node, ast.Name) and node.id in ("np", "numpy")


def _calls(path: Path):
    """``(call, enclosing function name)`` for every call in a module."""
    tree = ast.parse(path.read_text(), filename=str(path))

    def walk(node, func):
        for child in ast.iter_child_nodes(node):
            name = child.name if isinstance(child, ast.FunctionDef) else func
            if isinstance(child, ast.Call):
                yield child, name
            yield from walk(child, name)

    yield from walk(tree, None)


def _modules():
    files = sorted(SRC.rglob("*.py"))
    assert files, SRC
    return [(p.relative_to(SRC).as_posix(), p) for p in files]


def _passes_out(call: ast.Call) -> bool:
    # np.take(a, indices, axis, out, mode): out is the 4th positional
    return len(call.args) >= 4 or any(k.arg == "out" for k in call.keywords)


def _is_bound_take(call: ast.Call) -> bool:
    """``<array>.take(...)``: any ``.take`` attribute call not on ``np``."""
    return (
        isinstance(call.func, ast.Attribute)
        and call.func.attr == "take"
        and not _is_np_attr(call.func, "take")
    )


def _takes_into_out(call: ast.Call) -> bool:
    """A gather into ``out=``: ``np.take`` with ``out`` (keyword or 4th
    positional), or a bound ``.take`` with ``out=``.  A bound call's third
    positional is not checked: other ``take`` methods (``Arena.take(name,
    *shape)``, ``SimWorld.take``) share the name and take three."""
    if _is_np_attr(call.func, "take"):
        return _passes_out(call)
    return _is_bound_take(call) and any(k.arg == "out" for k in call.keywords)


def test_no_buffered_take_outside_the_helper():
    bad, helper_calls = [], []
    for rel, path in _modules():
        for call, func in _calls(path):
            if not _takes_into_out(call):
                continue
            if (rel, func) == HELPER:
                helper_calls.append(call)
                continue
            bad.append(
                f"src/repro/{rel}:{call.lineno}: take(..., out=) outside "
                "repro.graph.pairwise.gather: under mode='raise' NumPy buffers "
                "out= through a private copy (2x the gather); prove the "
                "indices in range and call gather()"
            )
    assert not bad, "\n".join(bad)
    # the helper itself is the unbuffered form, bound (no np.take wrapper)
    assert len(helper_calls) == 1
    (call,) = helper_calls
    assert _is_bound_take(call), "gather() must call the bound a.take"
    modes = [k.value for k in call.keywords if k.arg == "mode"]
    assert [getattr(m, "value", None) for m in modes] == ["clip"]


def _assert_no_add_at(rel: str, why: str) -> None:
    bad = [
        f"src/repro/{rel}:{call.lineno}: np.add.at in {func}(): unbuffered "
        f"per-element scatter on the per-step comm path; {why}"
        for call, func in _calls(SRC / rel)
        if _is_np_attr(call.func, "add", "at")
    ]
    assert not bad, "\n".join(bad)


def test_no_add_at_in_comm_md():
    _assert_no_add_at(
        "core/comm_md.py",
        "sendlists are unique (Swap), so fold with arr[sendlist] += incoming",
    )


def test_no_add_at_in_replica_batch():
    _assert_no_add_at(
        "replica/batch.py",
        "replay through GhostReplay, whose stage sources are unique",
    )


def test_no_np_cross():
    bad = [
        f"src/repro/{rel}:{call.lineno}: np.cross in {func}(): generic axis "
        "handling on every call; write the three components out"
        for rel, path in _modules()
        for call, func in _calls(path)
        if _is_np_attr(call.func, "cross")
    ]
    assert not bad, "\n".join(bad)


def test_the_guard_sees_what_it_forbids(tmp_path):
    """The walker flags every forbidden form, a buffered take in the module
    and the bound form alike (a guard that matches nothing would pass
    vacuously)."""
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import numpy as np\n"
        "def f(a, i, o):\n"
        "    np.take(a, i, out=o)\n"
        "    np.take(a, i, 0, o)\n"
        "    np.take(a, i)\n"
        "    np.add.at(a, i, 1.0)\n"
        "    np.cross(a, o)\n"
        "    a.take(i, out=o, mode='clip')\n"
        "    a.take(i, axis=0)\n"
        "    a[0].take(i, 0, out=o)\n"
    )
    found = [
        (call.lineno, func)
        for call, func in _calls(probe)
        if _takes_into_out(call)
        or _is_np_attr(call.func, "add", "at")
        or _is_np_attr(call.func, "cross")
    ]
    assert found == [(3, "f"), (4, "f"), (6, "f"), (7, "f"), (8, "f"), (10, "f")]
