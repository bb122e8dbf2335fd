"""CLI: argument parsing and end-to-end subcommand behaviour."""

import os
import shutil
import subprocess
import sys

import pytest

import repro
from repro.cli import build_parser, main
from repro.config import TINY_CONFIG
from repro.errors import ReproError
from repro.persist import create_store
from repro.storage import read_directory
from repro.xml.writer import serialize
from repro.xml.xmark import xmark_document

from . import taped


@pytest.fixture
def xml_file(tmp_path):
    path = tmp_path / "site.xml"
    path.write_text(serialize(xmark_document(4, seed=3)), encoding="utf-8")
    return str(path)


def make_scheme(name, config):
    (scheme,), _ = create_store(None, name, config=config)
    return scheme


class TestSchemeFactory:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("wbox", "W-BOX"),
            ("wboxo", "W-BOX-O"),
            ("bbox", "B-BOX"),
            ("bbox-o", "B-BOX-O"),
            ("naive-8", "naive-8"),
        ],
    )
    def test_names(self, name, expected):
        assert make_scheme(name, TINY_CONFIG).name == expected

    def test_ordinal_wbox(self):
        scheme = make_scheme("wbox-ordinal", TINY_CONFIG)
        assert scheme.supports_ordinal

    def test_unknown_rejected(self):
        with pytest.raises(ReproError):
            make_scheme("btree", TINY_CONFIG)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_label_defaults(self):
        args = build_parser().parse_args(["label", "doc.xml"])
        assert args.scheme == "bbox" and args.block_bytes == 1024


class TestLabelCommand:
    def test_reports_statistics(self, xml_file, capsys):
        assert main(["label", xml_file, "--scheme", "wbox"]) == 0
        output = capsys.readouterr().out
        assert "elements:" in output
        assert "bulk-load IO:" in output
        assert "W-BOX" in output

    def test_save_and_inspect_round_trip(self, xml_file, tmp_path, capsys):
        saved = str(tmp_path / "labels.box")
        assert main(["label", xml_file, "--save", saved]) == 0
        assert main(["inspect", saved]) == 0
        output = capsys.readouterr().out
        assert "invariants: OK" in output

    def test_missing_file_is_an_error(self, capsys):
        assert main(["label", "no-such-file.xml"]) == 1
        assert "error:" in capsys.readouterr().err


class TestFileStore:
    """``--storage-path`` names a store root that only ``serve --listen``
    ever reopens; every other verb creates, and refuses an existing one."""

    def test_a_second_label_run_is_refused_and_changes_nothing(self, xml_file, tmp_path, capsys):
        root = tmp_path / "store"
        command = ["label", xml_file, "--storage", "file", "--storage-path", str(root)]
        # A document that does not parse is refused before any store exists.
        assert main(["label", str(tmp_path / "missing.xml"), *command[2:]]) == 1
        assert not root.exists()
        assert main(command) == 0
        before = {path.name: path.read_bytes() for path in root.iterdir()}
        assert sorted(before) == [
            "SHARDS.json", "shard-000.pages", "shard-000.pages.walseg.json"
        ]
        capsys.readouterr()
        assert main(command + ["--scheme", "wbox"]) == 1
        assert f"error: {root} already holds a store" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in root.iterdir()} == before

    def test_recover_folds_every_shard_of_a_root(self, tmp_path, capsys):
        from repro.service import bulk_load_sharded

        root = str(tmp_path / "shards")
        schemes, glids = create_store(
            root,
            "wbox",
            2,
            config=TINY_CONFIG,
            populate=lambda fresh: bulk_load_sharded(fresh, 40),
        )
        for glid in glids[:4] + glids[-4:]:
            taped.insert_before(schemes[glid % 2], glid // 2)
        for scheme in schemes:
            scheme.store.backend.close()  # a kill: the inserts are only in the logs
        assert main(["info", root]) == 0
        assert capsys.readouterr().out.count("4 transaction(s), 4 to replay") == 2

        assert main(["recover", root]) == 0
        report = capsys.readouterr().out
        assert report.count("replayed tapes:   4 transaction(s)") == 2
        assert report.count("recovered: OK (WAL empty, directory current)") == 2
        assert "shard-000.pages" in report and "shard-001.pages" in report
        assert main(["info", root]) == 0
        info = capsys.readouterr().out
        assert info.count("WAL:          empty (clean shutdown)") == 2
        assert info.count("live labels:  24") == 2


class TestQueryCommand:
    def test_counts_and_io(self, xml_file, capsys):
        assert main(["query", xml_file, "//item"]) == 0
        output = capsys.readouterr().out
        assert "match(es)" in output
        assert "block I/Os" in output

    def test_predicate_query(self, xml_file, capsys):
        assert main(["query", xml_file, "//item[mailbox/mail]/name", "--scheme", "wbox"]) == 0
        assert "match(es)" in capsys.readouterr().out

    def test_bad_expression_is_an_error(self, xml_file, capsys):
        assert main(["query", xml_file, "///"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_limit_zero_prints_all(self, xml_file, capsys):
        assert main(["query", xml_file, "//item", "--limit", "0"]) == 0
        assert "... and" not in capsys.readouterr().out

    def test_reader_closing_stdout_is_not_a_failure(self, tmp_path):
        # ``repro query ... | head -1``: the match lines (~200 KB) overflow
        # the 64 KiB pipe buffer, so writes after the reader leaves fail.
        path = tmp_path / "big.xml"
        path.write_text(serialize(xmark_document(100, seed=3)), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
        command = [sys.executable, "-m", "repro", "query", str(path), "//*", "--limit", "0"]
        process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        )
        assert b"match(es)" in process.stdout.readline()
        process.stdout.close()
        stderr = process.stderr.read().decode()
        assert process.wait(timeout=120) == 0, stderr
        assert stderr == ""

    @pytest.mark.parametrize("scheme", ["wbox", "bbox"])
    def test_saved_box_answers_like_the_xml_file(self, scheme, xml_file, tmp_path, capsys):
        expression = "//item[mailbox/mail]/name"
        saved = str(tmp_path / "saved.box")
        assert main(["label", xml_file, "--scheme", scheme, "--save", saved]) == 0
        capsys.readouterr()

        def match_lines(document):
            assert main(["query", document, expression, "--scheme", scheme, "--limit", "0"]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert lines[0].startswith(f"{expression}: ")
            return lines[0].split(",")[0], lines[1:]

        from_xml = match_lines(xml_file)
        assert from_xml[1] and all(line.startswith("  <name") for line in from_xml[1])
        assert match_lines(saved) == from_xml


class TestWorkloadCommand:
    @pytest.mark.parametrize("sequence", ["concentrated", "scattered", "xmark"])
    def test_sequences_run(self, sequence, capsys):
        code = main(
            ["workload", sequence, "--base", "300", "--inserts", "60", "--scheme", "bbox"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "mean I/O:" in output

    def test_naive_reports_relabels(self, capsys):
        main(["workload", "concentrated", "--base", "200", "--inserts", "40", "--scheme", "naive-2"])
        assert "relabels:" in capsys.readouterr().out

    @pytest.mark.parametrize("sequence", ["concentrated", "scattered", "xmark"])
    def test_batched_sequences_run(self, sequence, capsys):
        code = main(
            ["workload", sequence, "--base", "300", "--inserts", "60",
             "--scheme", "bbox", "--batch", "16"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "(batched)" in output
        assert "amortized I/O:" in output

    def test_batched_beats_per_op_on_concentrated(self, capsys):
        main(["workload", "concentrated", "--base", "300", "--inserts", "60",
              "--scheme", "wbox", "--batch", "64"])
        batched_out = capsys.readouterr().out
        main(["workload", "concentrated", "--base", "300", "--inserts", "60",
              "--scheme", "wbox"])
        per_op_out = capsys.readouterr().out
        batched_total = int(batched_out.split("total I/O:")[1].split()[0])
        per_op_total = int(per_op_out.split("total I/O:")[1].split()[0])
        assert batched_total < per_op_total


class TestServiceVerbs:
    """The verbs that build a ShardedLabelService (N from ``--shards``)."""

    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("op", ["insert", "delete", "lookup"])
    def test_trace_spans_match_io_per_shard(self, op, shards, capsys):
        code = main(["trace", "--op", op, "--items", "10", "--shards", str(shards),
                     "--scheme", "wbox"])
        out = capsys.readouterr().out
        verdicts = [line for line in out.splitlines() if "span I/O:" in line]
        assert code == 0
        assert [line.split()[0] for line in verdicts] == [
            f"shard{shard}" for shard in range(shards)
        ]
        assert all(line.endswith("consistent") for line in verdicts)
        if op != "lookup":
            assert "wal.append" in out  # default storage reaches the WAL

    def test_trace_net_joins_both_shards_into_one_request_tree(self, capsys):
        assert main(["trace", "--net", "--shards", "2", "--items", "10"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-1].startswith("net request span I/O:")
        assert out.splitlines()[-1].endswith("consistent")
        assert "shard0" in out and "shard1" in out

    def test_stress_sharded_write_run(self, capsys):
        assert main(["stress", "--shards", "2", "--seconds", "0.3", "--base", "200"]) == 0
        out = capsys.readouterr().out
        assert "shards=2" in out
        assert int(out.split("write ops:")[1].split()[0]) > 0

    def test_stress_honours_its_flags_at_two_shards(self, capsys):
        """Readers beside writers at N = 2 for the whole ``--seconds``."""
        assert main(["stress", "--shards", "2", "--seconds", "1", "--readers", "2",
                     "--base", "400"]) == 0
        out = capsys.readouterr().out
        assert "shards=2 readers=2" in out
        assert int(out.split("read ops:")[1].split()[0]) > 0
        assert int(out.split("write ops:")[1].split()[0]) > 0
        vector = out.split("epoch vector:")[1].splitlines()[0]
        epochs = [int(number) for number in vector.strip(" ()").split(",")]
        assert len(epochs) == 2 and all(number > 0 for number in epochs)
        assert "write errors:      0" in out
        assert float(out.split("seconds=")[1].split()[0]) >= 1.0

    def test_stress_report_is_one_shape_at_every_n(self, capsys):
        """One report: the same lines, the scheme spelled the same way."""
        shapes = []
        for shards in ("1", "2"):
            assert main(["stress", "--shards", shards, "--seconds", "0.2", "--readers", "1",
                         "--base", "200", "--scheme", "bbox"]) == 0
            out = capsys.readouterr().out
            assert "scheme=B-BOX" in out
            shapes.append([line.split(":")[0] for line in out.splitlines()])
        assert shapes[0] == shapes[1]

    def test_stress_total_ops_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["stress", "--total-ops", "200"])
        assert exit_info.value.code == 2
        assert "--total-ops" in capsys.readouterr().err

    def test_stress_read_run(self, capsys):
        assert main(["stress", "--seconds", "1", "--readers", "2", "--base", "200"]) == 0
        out = capsys.readouterr().out
        assert "readers=2" in out and "write errors:      0" in out
        assert int(out.split("read ops:")[1].split()[0]) > 0

    def test_metrics_prometheus_exposition(self, capsys):
        assert main(["metrics", "--items", "10", "--format", "prom"]) == 0
        out = capsys.readouterr().out
        assert "repro_service_epochs_published_total" in out
        assert "repro_io_reads_total" in out

    def test_serve_stdin_loop(self, xml_file, tmp_path, capsys):
        commands = tmp_path / "commands.txt"
        commands.write_text("lookup 3\ninsert 3\nepoch\nbogus\nquit\nlookup 5\n")
        assert main(["serve", xml_file, "--scheme", "wbox", "--input", str(commands)]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0].startswith(f"serving {xml_file}")
        assert lines[1].isdigit()  # the label behind LID 3
        assert lines[2].startswith("inserted lids (")
        # One shard, one committed insert: the vector has one component at 1.
        assert lines[3].startswith("EpochVector(") and "number=1" in lines[3]
        assert len(lines) == 4  # quit stops the loop before the last lookup
        assert "unknown command: bogus" in captured.err


class TestChaosVerb:
    """``repro chaos``: one sweep, one report, ``--plans`` the one selector."""

    def test_default_sweep_runs_every_standard_plan(self, capsys):
        assert main(["chaos", "--seeds", "1", "--max-ops", "40", "--schemes", "wbox"]) == 0
        out = capsys.readouterr().out
        assert "chaos: 8 trial(s) (1 seed(s) x 8 plan(s) x 1 scheme(s))" in out
        assert "oracle mismatches: 0" in out
        assert "verdict:           OK" in out

    def test_plans_selects_exactly_the_named_rows(self, capsys):
        code = main(["chaos", "--seeds", "1", "--max-ops", "40", "--schemes", "wbox",
                     "--plans", "follower-kill,shard-writer-crash", "--verbose"])
        out = capsys.readouterr().out
        assert code == 0
        trials = [line.split() for line in out.splitlines() if line.startswith("  [")]
        # One line per trial, tagged with the topology its plan derived.
        assert [(line[1], line[2]) for line in trials] == [
            ("wbox+repl", "follower-kill"),
            ("wboxx2", "shard-writer-crash"),
        ]
        assert "chaos: 2 trial(s) (1 seed(s) x 2 plan(s) x 1 scheme(s))" in out

    def test_unknown_plan_names_the_valid_ones(self, capsys):
        assert main(["chaos", "--plans", "nope"]) != 0
        err = capsys.readouterr().err
        assert "unknown plan(s) nope" in err
        assert "follower-kill" in err and "torn-write" in err


#: ``repro info`` on ``tests/data/golden_format/<name>``: the scheme, then
#: (checkpoint LSN, blocks, live labels) of ``pages`` and of ``base.pages``.
GOLDEN_INFO = {
    "ancestry-dyn": ("AncestryDynamic", (22, 4, 28), (2, 2, 16)),
    "bbox-o": ("BBox", (23, 11, 28), (3, 6, 16)),
    "naive-8": ("NaiveScheme", (22, 4, 28), (2, 2, 16)),
    "ordpath": ("OrdPath", (22, 4, 28), (2, 2, 16)),
    "wbox": ("WBox", (23, 11, 28), (3, 6, 16)),
    "wboxo": ("WBoxO", (23, 11, 28), (3, 6, 16)),
}


def _image_bytes_line(path, indent):
    table = read_directory(path)["table"]
    return f"{indent}image bytes:  {sum(table.lengths)} live, {os.path.getsize(path)} in the file"


class TestPageFileDiagnostics:
    """``info`` and ``recover`` on a page file whose writer died: they
    name the checkpoint LSN, how many logged tapes replay over it, and
    why the tail was discarded."""

    @pytest.fixture
    def crashed_store(self, tmp_path):
        from repro import WBox
        from repro.persist import checkpoint_scheme
        from repro.storage import BlockStore, FileBackend

        path = str(tmp_path / "s.pages")
        backend = FileBackend(path)
        scheme = WBox(TINY_CONFIG, store=BlockStore(TINY_CONFIG, backend=backend))
        checkpoint_scheme(scheme)
        lids = scheme.bulk_load(24, [i ^ 1 for i in range(24)])
        for index in range(5):
            taped.insert_before(scheme, lids[index])
        backend.close()
        with open(path + ".wal", "ab") as handle:
            handle.write(b"\x05\x00\x00\x00\x40abc")  # an OPS record cut short
        return path

    def test_info_then_recover_then_info(self, crashed_store, capsys):
        assert main(["info", crashed_store]) == 0
        before = capsys.readouterr().out
        assert "format version 4" in before
        assert "checkpoint:   LSN 3" in before and "live labels:  24" in before
        assert "5 transaction(s), 5 to replay" in before
        assert "torn tail of 8 bytes to discard (torn record body)" in before

        assert main(["recover", crashed_store]) == 0
        report = capsys.readouterr().out
        assert "checkpoint LSN:   3" in report
        assert "replayed tapes:   5 transaction(s), to LSN 8" in report
        assert "discarded tail:   8 bytes (torn record body)" in report
        assert "labels: 29" in report and "WAL empty, directory current" in report

        assert main(["info", crashed_store]) == 0
        after = capsys.readouterr().out
        assert "checkpoint:   LSN 8" in after and "live labels:  29" in after
        assert "WAL:          empty (clean shutdown)" in after

    def test_info_counts_what_recover_folds_under_a_newer_absolute_base(
        self, tmp_path, capsys
    ):
        """Crash after a checkpoint's header slot, before its seal: the
        newer directory is the base and the unsealed log still holds the
        tapes it includes — ``info`` counts through the same replay as
        ``recover`` and says 0, not 5."""
        from repro import WBox
        from repro.errors import CrashError
        from repro.faults import TORN_WRITE, FaultInjector, FaultPlan, FaultSpec
        from repro.persist import checkpoint_scheme
        from repro.storage import BlockStore, FileBackend

        path = str(tmp_path / "c.pages")
        backend = FileBackend(path)
        scheme = WBox(TINY_CONFIG, store=BlockStore(TINY_CONFIG, backend=backend))
        checkpoint_scheme(scheme)
        lids = scheme.bulk_load(24, [i ^ 1 for i in range(24)])
        for index in range(5):
            taped.insert_before(scheme, lids[index])
        backend.install_faults(
            FaultInjector(FaultPlan([FaultSpec(TORN_WRITE, "wal.truncate", at=1)]))
        )
        with pytest.raises(CrashError):
            backend.checkpoint()
        backend.close()

        assert main(["info", path]) == 0
        assert "5 transaction(s), 0 to replay" in capsys.readouterr().out
        assert main(["recover", path]) == 0
        report = capsys.readouterr().out
        assert "checkpoint LSN:   8" in report
        assert "replayed tapes:   0 transaction(s), to LSN 8" in report

    @pytest.mark.parametrize("name", sorted(GOLDEN_INFO))
    def test_info_on_the_committed_page_files(self, name, tmp_path, capsys):
        """``info`` reads scheme and live labels from the owner's section:
        the committed page file alone, and the checkpoint image from
        before the tape with the tape's commits (its segment) as a log to
        replay."""
        golden = os.path.join(os.path.dirname(__file__), "data", "golden_format", name)
        scheme, after, before = GOLDEN_INFO[name]
        pages, base = str(tmp_path / "copy.pages"), str(tmp_path / "base.pages")
        shutil.copyfile(os.path.join(golden, "pages"), pages)
        shutil.copyfile(os.path.join(golden, "base.pages"), base)
        shutil.copyfile(os.path.join(golden, "segment.wal"), base + ".wal")
        for path, (lsn, blocks, live), wal in (
            (pages, after, "empty (clean shutdown)"),
            (base, before, "20 transaction(s), 20 to replay"),
        ):
            assert main(["info", path]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert lines[2:4] == [f"  scheme:       {scheme}", "  block bytes:  1024"]
            assert lines[4:] == [
                f"  checkpoint:   LSN {lsn} (what follows is as of it)",
                f"  blocks:       {blocks}",
                _image_bytes_line(path, "  "),
                f"  live labels:  {live}",
                f"  WAL:          {wal}",
            ]
        assert main(["info", os.path.join(golden, "snapshot")]) == 0
        assert capsys.readouterr().out.splitlines()[2:6] == [
            f"  scheme:       {scheme}",
            "  block bytes:  1024",
            f"  blocks:       {after[1]}",
            f"  live labels:  {after[2]}",
        ]

    def test_info_on_a_two_shard_root(self, tmp_path, capsys):
        from repro.persist import checkpoint_scheme
        from repro.service import bulk_load_sharded

        root = str(tmp_path / "shards")
        schemes, _ = create_store(root, "wbox", 2, config=TINY_CONFIG)
        glids = bulk_load_sharded(schemes, 40)
        checkpoint_scheme(schemes[0])
        for glid in [glid for glid in glids if glid % 2 == 1][:6]:
            taped.insert_before(schemes[1], glid // 2)
        for scheme in schemes:
            scheme.store.backend.close()
        assert main(["info", root]) == 0
        assert capsys.readouterr().out.splitlines()[4:] == [
            "  shard 0:      shard-000.pages",
            "    scheme:       WBox",
            "    block bytes:  1024",
            "    checkpoint:   LSN 3 (what follows is as of it)",
            "    blocks:       7",
            _image_bytes_line(os.path.join(root, "shard-000.pages"), "    "),
            "    live labels:  20",
            "    WAL:          empty (clean shutdown)",
            "  shard 1:      shard-001.pages",
            "    scheme:       WBox",
            "    block bytes:  1024",
            "    checkpoint:   LSN 3 (what follows is as of it)",
            "    blocks:       7",
            _image_bytes_line(os.path.join(root, "shard-001.pages"), "    "),
            "    live labels:  20",
            "    WAL:          6 transaction(s), 6 to replay",
        ]

    def test_version_1_files_are_refused_by_name(self, tmp_path, capsys):
        old = tmp_path / "old.pages"
        old.write_bytes(b"BOXPAGE1" + b"\0" * 8192)
        assert main(["info", str(old)]) == 1
        assert main(["recover", str(old)]) == 1
        errors = capsys.readouterr().err
        assert errors.count("format-version-1 page file") == 2
