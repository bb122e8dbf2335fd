"""Architecture guard: one chaos driver under ``repro/faults/``.

``run_chaos_trial`` is the only crash → recover → compare harness: the
topology a trial needs (shards, follower) is derived from its plan, the
plan comes from the one ``standard_plans()`` table, and the tape is
interpreted by ``workloads.apply_tape_step`` alone.  The ways the old
twins could grow back are checked by walking the source:

* a removed name (``run_shard_chaos_trial``, ``replchaos``, ``--repl``'s
  ``_cmd_chaos_repl``, ``checkpoint_sharded`` ...) reappearing in ``src/``;
* a second function under ``repro/faults/`` building a store or a service
  (``create_store(`` / ``ShardedLabelService(``);
* a module under ``repro/faults/`` branching on a tape step's kind
  itself instead of going through ``apply_tape_step``;
* a plan row the CLI's ``--plans`` does not take;
* a plan row whose hook the protocol no longer reaches (a commit writes
  only the log; pages, directory and truncate belong to the tape's
  checkpoint steps), so that it "passes" by never firing.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.errors import ReproError
from repro.faults import run_chaos_trial, standard_plans

SRC = Path(__file__).resolve().parent.parent / "src"
FAULTS = SRC / "repro" / "faults"
REMOVED_NAMES = (
    "run_shard_chaos_trial",
    "run_repl_chaos",
    "REPL_PLAN_NAMES",
    "_plan_is_sharded",
    "_cmd_chaos_repl",
    "checkpoint_sharded",
    "replchaos",
)
BUILDERS = ("ShardedLabelService", "create_store")
TAPE_KINDS = {"delete", "insert_before", "checkpoint"}


def _functions_calling(name: str) -> list[str]:
    """Outermost functions/methods under ``repro/faults/`` whose body calls
    ``name(...)`` (a nested helper counts towards its enclosing function)."""
    found = []
    for path in sorted(FAULTS.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        scopes = list(tree.body)
        while scopes:
            node = scopes.pop()
            if isinstance(node, ast.ClassDef):
                scopes.extend(node.body)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(call, ast.Call)
                and getattr(call.func, "id", getattr(call.func, "attr", None)) == name
                for call in ast.walk(node)
            ):
                found.append(f"{path.name}:{node.name}")
    return found


def test_removed_names_stay_out_of_src():
    hits = [
        f"{path.relative_to(SRC)}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for name in REMOVED_NAMES
        if name in path.read_text(encoding="utf-8")
    ]
    assert hits == []
    assert not (FAULTS / "replchaos.py").exists()
    with pytest.raises(SystemExit):
        build_parser().parse_args(["chaos", "--repl", "1"])


@pytest.mark.parametrize("builder", BUILDERS)
def test_one_function_builds_the_system_under_test(builder):
    assert len(_functions_calling(builder)) == 1, _functions_calling(builder)


def test_apply_tape_step_is_the_only_tape_interpreter():
    branches = []
    for path in sorted(FAULTS.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare) and any(
                isinstance(operand, ast.Constant) and operand.value in TAPE_KINDS
                for operand in [node.left, *node.comparators]
            ):
                branches.append(f"{path.name}:{node.lineno}")
    assert branches == []
    assert "apply_tape_step(" in (FAULTS / "chaos.py").read_text(encoding="utf-8")


def test_every_standard_plan_row_is_a_plans_value(capsys):
    names = list(standard_plans())
    # --seeds 0 validates the selection and runs no trial.
    assert main(["chaos", "--seeds", "0", "--plans", ",".join(names)]) == 0
    assert f"x {len(names)} plan(s)" in capsys.readouterr().out
    for name in names:
        assert list(standard_plans([name])) == [name]
    with pytest.raises(ReproError, match="unknown plan"):
        standard_plans(["follower-kill", "nope"])


@pytest.mark.parametrize("plan_name", list(standard_plans()))
def test_every_standard_plan_row_fires(tmp_path, plan_name):
    """A plan that silently stops firing is lost coverage, not a pass: at
    the CI smoke's tape length every row must inject its fault — at every
    hook it names — for at least one of a few seeds, and recover clean."""
    plan = standard_plans()[plan_name]
    fired: set[str] = set()
    for seed in range(3):
        trial = run_chaos_trial("wbox", plan_name, plan, seed, str(tmp_path), max_ops=120)
        assert trial.ok, trial
        fired.update(entry.rsplit(":", 1)[0] for entry in trial.faults_fired)
    assert fired == {spec.hook for spec in plan}
