"""A W-BOX server imports what serving runs, and nothing of the paper kit.

``repro serve --listen --scheme wbox`` starts twice per set-up: once to
create a store (bulk load, checkpoint) and once to reopen it.  Each start
compiles every ``repro`` module it imports, so the packages re-export
their names lazily (:mod:`repro._exports`), the scheme registry imports a
scheme's module when its name is first resolved, and the CLI imports each
verb's dependencies inside the verb.  A fresh interpreter runs both starts
of the real verb on a small file store and reports ``sys.modules``: none
of B-BOX, naive-k, ORDPATH, the ancestry schemes, XPath / twig /
containment, the XML parser / writer / generators / XMark, the workload
layer or the network client may be there, and the modules a served
request runs must be (so no import lands inside a request).

The lazy names themselves must all still resolve: every ``__all__`` name
of every lazy package, and every built-in scheme name of the registry.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

PAPER_KIT = (
    "repro.core.bbox.tree",
    "repro.core.bbox.bulk",
    "repro.core.naive",
    "repro.core.ordpath",
    "repro.core.ancestry",
    "repro.query.xpath",
    "repro.query.twig",
    "repro.query.containment",
    "repro.xml.parser",
    "repro.xml.writer",
    "repro.xml.generator",
    "repro.xml.xmark",
    "repro.workloads.sequences",
    "repro.workloads.metrics",
    "repro.net.client",
)

SERVING_PATH = (
    "repro.core.wbox.tree",
    "repro.core.batch",
    "repro.query.streams",
    "repro.net.protocol",
    "repro.storage.codec",
    "repro.service.sharded",
)

LAZY_PACKAGES = (
    "repro",
    "repro.core",
    "repro.core.wbox",
    "repro.core.bbox",
    "repro.query",
    "repro.xml",
    "repro.net",
    "repro.service",
    "repro.workloads",
)

#: Runs ``main(["serve", "--listen", ...])`` on a store root twice (create,
#: then reopen), stopping each start with SIGTERM once its handler is in.
SERVE_TWICE = textwrap.dedent(
    """
    import json, os, signal, sys, threading, time

    from repro.cli import main

    def stop_when_listening():
        while signal.getsignal(signal.SIGTERM) is signal.SIG_DFL:
            time.sleep(0.01)
        os.kill(os.getpid(), signal.SIGTERM)

    root, report = sys.argv[1], sys.argv[2]
    for _start in range(2):
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        threading.Thread(target=stop_when_listening, daemon=True).start()
        code = main(["serve", "--listen", "127.0.0.1:0", "--scheme", "wbox",
                     "--block-bytes", "1024", "--shards", "2", "--base", "3000",
                     "--storage", "file", "--storage-path", root, "--fsync"])
        assert code == 0, code
    with open(report, "w") as handle:
        json.dump(sorted(name for name in sys.modules if name.startswith("repro")), handle)
    """
)


@pytest.fixture(scope="module")
def served_modules(tmp_path_factory) -> set[str]:
    tmp = tmp_path_factory.mktemp("serve-imports")
    report = tmp / "modules.json"
    subprocess.run(
        [sys.executable, "-c", SERVE_TWICE, str(tmp / "root"), str(report)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        check=True,
        timeout=120,
        capture_output=True,
    )
    return set(json.loads(report.read_text()))


def test_server_imports_no_paper_kit_module(served_modules):
    loaded = sorted(
        name
        for name in served_modules
        if any(name == kit or name.startswith(kit + ".") for kit in PAPER_KIT)
    )
    assert loaded == []


def test_server_imports_what_a_request_runs(served_modules):
    assert set(SERVING_PATH) <= served_modules


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_lazy_name_resolves(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert getattr(module, name) is not None, f"{package}.{name}"


def test_lazy_name_is_not_shadowed_by_its_submodule():
    import repro.query
    import repro.query.xpath  # binds the submodule on its package

    assert repro.query.xpath is sys.modules["repro.query.xpath"].evaluate


def test_registry_resolves_every_builtin_name():
    from repro.core.registry import BUILTIN, scheme_class, scheme_factory

    for type_name, (_module, names) in BUILTIN.items():
        cls = scheme_class(type_name)
        assert cls is not None and cls.__name__ == type_name
        for name in names:
            assert type(scheme_factory(name)(None, None)) is cls
    assert scheme_factory("naive-8")(None, None).gap_bits == 8
