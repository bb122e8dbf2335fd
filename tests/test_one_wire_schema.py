"""Architecture guard: one wire schema.

What a frame is — type code, trace name, field layout — is declared once,
by the ``@wire(...)`` decorator on its class in ``repro.net.protocol``;
the encoder, the decoder, the ``T_*`` constants and the server's dispatch
all read that table.  The ways the per-frame ladders could grow back are
checked by walking the source with ``ast``:

* an ``isinstance(x, <frame class>)`` test in ``protocol.py`` or
  ``server.py`` (the encode ladder, ``NetServer._apply``), or a
  comparison against a ``T_*`` constant anywhere in ``repro/net/`` (the
  decode ladder);
* a type code written anywhere but a ``@wire`` line: a hand-assigned
  ``T_* = ...``, or two frames sharing a code.

Two completeness checks ride along: every request frame in the table has
a server handler, and every frame in the table is drawn by the Hypothesis
``frames`` strategy of ``tests/test_net_protocol.py`` — so a new frame
cannot skip the round-trip/totality fuzz.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro import TINY_CONFIG, WBox
from repro.net import protocol as proto
from repro.net.server import NetServer
from repro.service import ShardedLabelService

TESTS = Path(__file__).resolve().parent
NET = TESTS.parent / "src" / "repro" / "net"
FRAME_NAMES = {cls.__name__ for cls in proto.SCHEMA}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _names(node: ast.AST) -> set[str]:
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def test_no_per_frame_isinstance_or_type_code_ladder():
    found = []
    for path in sorted(NET.glob("*.py")):
        for node in ast.walk(_parse(path)):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if (
                path.name in ("protocol.py", "server.py")
                and isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and _names(node.args[1]) & FRAME_NAMES
            ):
                found.append(f"{where} dispatches on a frame class with isinstance")
            if isinstance(node, ast.Compare) and any(
                name.startswith("T_") for name in _names(node)
            ):
                found.append(f"{where} compares against a T_* type code")
    assert found == []


def test_each_type_code_is_written_once_on_a_wire_line():
    declared = []
    for path in sorted(NET.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                assert not any(
                    name.startswith("T_") for target in targets for name in _names(target)
                ), f"{path.name}:{node.lineno} assigns a T_* constant by hand"
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "wire"
            ):
                assert path.name == "protocol.py"
                assert isinstance(node.args[0], ast.Constant), "type code must be a literal"
                declared.append(node.args[0].value)
    assert sorted(declared) == sorted(row.code for row in proto.SCHEMA.values())
    assert len(set(declared)) == len(declared) == len(proto.SCHEMA)
    # The derived constants are really there, and really derived.
    for row in proto.SCHEMA.values():
        assert getattr(proto, f"T_{row.name.upper()}") == row.code
    assert proto.T_LOOKUP == 0x04 and proto.T_QUERY_CHUNK == 0x8A


def test_every_request_frame_has_a_server_handler():
    scheme = WBox(TINY_CONFIG)
    scheme.bulk_load(4)
    server = NetServer(ShardedLabelService([scheme]))  # never started: owns no threads
    requests = {row.cls for row in proto.SCHEMA.values() if row.code in proto.REQUEST_NAMES}
    assert set(server._handlers) == requests


def test_every_frame_is_drawn_by_the_fuzz_strategy():
    tree = _parse(TESTS / "test_net_protocol.py")
    (frames,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and _names(node.targets[0]) == {"frames"}
    ]
    drawn = {
        call.args[0].id
        for call in ast.walk(frames)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr == "builds"
        and isinstance(call.args[0], ast.Name)
    }
    assert drawn >= FRAME_NAMES, f"not fuzzed: {sorted(FRAME_NAMES - drawn)}"
