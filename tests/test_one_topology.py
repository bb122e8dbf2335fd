"""Architecture guard: one service topology above ``repro/service/``.

``ShardedLabelService`` (N >= 1) is the only service the rest of ``src/``
may know.  Two ways the single/sharded twin could grow back are checked
by walking the source with ``ast``:

* a module outside ``repro/service/`` constructing the per-shard unit
  (``LabelService(...)`` / ``ReaderSession(...)``) directly;
* a ``getattr`` / ``hasattr`` probe for an attribute that only tells the
  two shapes apart (``n_shards``, ``shards``, ``schemes``, ``vector``,
  ``_router``) — with one topology these are plain attribute reads.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
PER_SHARD_UNITS = {"LabelService", "ReaderSession"}
TOPOLOGY_ATTRS = {"n_shards", "shards", "schemes", "vector", "_router"}


def _called_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _violations() -> list[str]:
    found = []
    for path in sorted(SRC.rglob("*.py")):
        inside_service = "service" in path.relative_to(SRC).parts[:1]
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _called_name(node)
            where = f"{path.relative_to(SRC.parent)}:{node.lineno}"
            if name in PER_SHARD_UNITS and not inside_service:
                found.append(f"{where} constructs {name} outside repro/service/")
            if name in ("getattr", "hasattr") and len(node.args) >= 2:
                probed = node.args[1]
                if isinstance(probed, ast.Constant) and probed.value in TOPOLOGY_ATTRS:
                    found.append(f"{where} probes topology via {name}(..., {probed.value!r})")
    return found


def test_only_the_service_package_knows_the_per_shard_unit():
    assert _violations() == []


def test_top_level_exports_the_sharded_names_only():
    import repro

    assert {"ShardedLabelService", "ShardedReaderSession", "EpochVector"} <= set(repro.__all__)
    assert not PER_SHARD_UNITS & set(repro.__all__)
    assert not any(hasattr(repro, name) for name in PER_SHARD_UNITS)
