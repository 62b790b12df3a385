"""Source guard: the per-step hot paths keep off NumPy's slow forms.

* ``np.take(..., out=...)`` under the default ``mode="raise"`` gathers into a
  private copy of ``out`` and copies it back, so a bad index can fail before
  ``out`` is touched — twice the cost of the gather.  The pairwise pass
  proves its indices once per list and gathers through the one helper,
  :func:`repro.graph.pairwise.gather` (``mode="clip"``); no other call may
  pass ``out=`` to ``np.take``.
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


def test_no_buffered_take_outside_the_helper():
    bad, helper_calls = [], []
    for rel, path in _modules():
        for call, func in _calls(path):
            if not (_is_np_attr(call.func, "take") and _passes_out(call)):
                continue
            if (rel, func) == HELPER:
                helper_calls.append(call)
                continue
            bad.append(
                f"src/repro/{rel}:{call.lineno}: np.take(..., out=) outside "
                "repro.graph.pairwise.gather: under mode='raise' NumPy buffers "
                "out= through a private copy (2x the gather); prove the "
                "indices in range and call gather()"
            )
    assert not bad, "\n".join(bad)
    # the helper itself is the unbuffered form
    assert len(helper_calls) == 1
    modes = [k.value for k in helper_calls[0].keywords if k.arg == "mode"]
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
    """The walker flags both forbidden forms (a guard that matches nothing
    would pass vacuously)."""
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import numpy as np\n"
        "def f(a, i, o):\n"
        "    np.take(a, i, out=o)\n"
        "    np.take(a, i, 0, o)\n"
        "    np.take(a, i)\n"
        "    np.add.at(a, i, 1.0)\n"
        "    np.cross(a, o)\n"
    )
    found = [
        (call.lineno, func)
        for call, func in _calls(probe)
        if (_is_np_attr(call.func, "take") and _passes_out(call))
        or _is_np_attr(call.func, "add", "at")
        or _is_np_attr(call.func, "cross")
    ]
    assert found == [(3, "f"), (4, "f"), (6, "f"), (7, "f")]
