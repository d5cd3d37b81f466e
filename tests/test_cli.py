"""The command-line surface: exit codes, output shapes, and the records format."""

import builtins
import errno
import gc
import io
import json
import os
import re
import stat
import subprocess
import sys
import tempfile
import threading
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teijournal import cli
from teijournal.base import BUILTIN_STYLES
from teijournal.cli import ExitStatus, main, read_records, write_records
from teijournal.xmlio import parse_article

from support import MUTANT_BASES, article_bytes, tree_mutants, write_corpus

BROKEN_BODY = (
    '<div type="section"><head>One</head>'
    '<p>See <ref type="bibr" target="#b9">gone</ref>.</p></div>'
)


def clean_file(tmp_path, name="alpha.xml", **kwargs):
    kwargs.setdefault("title", "Alpha Study")
    path = tmp_path / name
    path.write_bytes(article_bytes(**kwargs))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class _HalfWrite:
    """A temporary file whose write stops halfway, as on a full disk."""

    def __init__(self, handle):
        self.handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.handle.close()

    def write(self, data):
        self.handle.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


def fail_temporary_file(monkeypatch, k, stage):
    """Make the k-th temporary file that ``cli._replace_all`` creates fail,
    either at its creation or halfway through its write (``stage``); with
    ``k=None`` none fails.  Returns the list of the temporary paths asked
    for."""
    asked = []

    def fake_open(file, mode="r", *args, **kwargs):
        if mode != "xb":
            return builtins.open(file, mode, *args, **kwargs)
        asked.append(file)
        if len(asked) == k and stage == "create":
            raise OSError(errno.ENOSPC, "No space left on device")
        handle = builtins.open(file, mode, *args, **kwargs)
        return _HalfWrite(handle) if len(asked) == k else handle

    monkeypatch.setattr(cli, "open", fake_open, raising=False)
    return asked


def temporary_files(root):
    return sorted(root.rglob(".teijournal-*"))


class TestRecordsFormat:
    def test_escaping_round_trip_examples(self):
        records = [("a", "b\tc", "d\ne", "f\\g", "h\ri")]
        text = write_records(records)
        assert "\t".join(["a", "b\\tc", "d\\ne", "f\\\\g", "h\\ri"]) + "\n" == text
        assert read_records(text) == records

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(*[st.text(max_size=20)] * 5), max_size=6))
    def test_round_trip_property(self, records):
        assert read_records(write_records(records)) == records

    @settings(max_examples=300, deadline=None)
    @given(st.text(st.sampled_from("\\tnrx\t\n\u00e9\u2028"), max_size=12), st.booleans())
    def test_unescape_matches_the_index_loop(self, text, trailing_backslash):
        text += "\\" if trailing_backslash else ""
        assert cli._unescape_field(text) == unescape_by_index(text)

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError, match="5 fields"):
            write_records([("only", "four", "fields", "here")])
        with pytest.raises(ValueError, match="malformed"):
            read_records("a\tb\n")


def unescape_by_index(value: str) -> str:
    """Oracle: the index loop read_records used before."""
    out = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            out.append({"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}.get(nxt, nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


class TestValidate:
    def test_clean_file(self, tmp_path, capsys):
        path = clean_file(tmp_path)
        code, out, err = run(capsys, ["validate", path])
        assert code == ExitStatus.OK
        assert out == f"{path}: ok\n"
        assert err == ""

    def test_error_findings_as_records(self, tmp_path, capsys):
        path = clean_file(tmp_path, "broken.xml", body=BROKEN_BODY)
        code, out, _ = run(capsys, ["validate", path, "--format", "records"])
        assert code == ExitStatus.FINDINGS
        (record,) = read_records(out)
        assert record == (
            "error",
            path,
            "TEI[1]/text[1]/body[1]/div[1]/p[1]/ref[1]",
            "R9",
            "reference target '#b9' matches no reference-list entry",
        )

    def test_a_quoted_value_holding_a_newline_stays_on_one_line(self, tmp_path, capsys):
        path = clean_file(tmp_path, source_imprint='<biblScope type="a&#10;b">1</biblScope>')
        code, out, _ = run(capsys, ["validate", path])
        assert code == ExitStatus.FINDINGS
        scope = "TEI[1]/teiHeader[1]/fileDesc[1]/sourceDesc[1]/biblStruct[1]/monogr[1]/imprint[1]"
        assert out == (f"{path}: [R5/error] {scope}/biblScope[1]: "
                       "extent kind 'a\\nb' outside {vol, issue, fpage, lpage, pp}\n")

    def test_warning_findings_exit_zero(self, tmp_path, capsys):
        path = clean_file(tmp_path, keywords=())
        code, out, _ = run(capsys, ["validate", path])
        assert code == ExitStatus.OK
        assert "[R11/warning]" in out

    def test_unreadable_file(self, tmp_path, capsys):
        code, _, err = run(capsys, ["validate", str(tmp_path / "missing.xml")])
        assert code == ExitStatus.FAILURE
        assert "cannot read" in err

    def test_unparseable_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.xml"
        bad.write_bytes(b"<TEI unclosed")
        good = clean_file(tmp_path)
        code, out, err = run(capsys, ["validate", str(bad), good])
        assert code == ExitStatus.FAILURE  # parse failure dominates
        assert "cannot parse" in err
        assert f"{good}: ok" in out  # the good file is still checked

    def test_config_override_downgrades(self, tmp_path, capsys):
        path = clean_file(tmp_path, "broken.xml", body=BROKEN_BODY)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"severity_overrides": {"R9": "warning"}}))
        code, out, _ = run(capsys, ["validate", path, "--config", str(cfg)])
        assert code == ExitStatus.OK
        assert "[R9/warning]" in out

    def test_env_config_and_flag_precedence(self, tmp_path, capsys, monkeypatch):
        path = clean_file(tmp_path, "broken.xml", body=BROKEN_BODY)
        env_cfg = tmp_path / "env.json"
        env_cfg.write_text(json.dumps({"severity_overrides": {"R9": "warning"}}))
        flag_cfg = tmp_path / "flag.json"
        flag_cfg.write_text(json.dumps({}))
        monkeypatch.setenv("TJ_CONFIG", str(env_cfg))
        code, _, _ = run(capsys, ["validate", path])
        assert code == ExitStatus.OK  # env config applied
        code, _, _ = run(capsys, ["validate", path, "--config", str(flag_cfg)])
        assert code == ExitStatus.FINDINGS  # flag beats environment

    def test_config_that_is_not_utf8_is_refused(self, tmp_path, capsys, monkeypatch):
        path = clean_file(tmp_path)
        cfg = tmp_path / "bad.json"
        cfg.write_bytes(b"\xff\xfe{}")
        for argv, env in ((["validate", "--config", str(cfg), path], None),
                          (["validate", path], str(cfg))):
            if env:
                monkeypatch.setenv("TJ_CONFIG", env)
            code, out, err = run(capsys, argv)
            assert (code, out) == (ExitStatus.FAILURE, "")
            assert err.startswith(f"teijournal: cannot load config {cfg}: 'utf-8' codec")
            assert err.count("\n") == 1

    def test_bad_config_rejected(self, tmp_path, capsys):
        path = clean_file(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"vocabulary": ["lab"]}))
        code, _, err = run(capsys, ["validate", path, "--config", str(cfg)])
        assert code == ExitStatus.FAILURE
        assert "unknown keys: vocabulary" in err
        cfg.write_text("not json")
        assert run(capsys, ["validate", path, "--config", str(cfg)])[0] == 2
        cfg.write_text(json.dumps(["a", "list"]))
        assert run(capsys, ["validate", path, "--config", str(cfg)])[0] == 2
        cfg.write_text(json.dumps({"doc_type_vocabulary": ["book"]}))
        code, _, err = run(capsys, ["validate", path, "--config", str(cfg)])
        assert code == ExitStatus.FAILURE
        assert "unknown keys: doc_type_vocabulary" in err


@pytest.fixture
def schema_corpus(tmp_path):
    directory = tmp_path / "docs"
    write_corpus(
        directory,
        {
            "one.xml": b'<d><hi rend="italics">a</hi><hi rend="italic">b</hi></d>',
            "two.xml": b'<d><hi rend="italic">c</hi></d>',
        },
    )
    return directory


class TestSchemaLifecycle:
    def test_codify_writes_stable_schema(self, schema_corpus, tmp_path, capsys):
        out = tmp_path / "schema.json"
        code, text, _ = run(
            capsys, ["codify", str(schema_corpus), "--out", str(out)]
        )
        assert code == ExitStatus.OK
        assert text.startswith("codified 2 documents: ")
        assert "root 'd'" in text
        first = out.read_bytes()
        run(capsys, ["codify", str(schema_corpus), "--out", str(out)])
        assert out.read_bytes() == first

    def test_codify_empty_dir(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code, _, err = run(capsys, ["codify", str(empty), "--out", str(tmp_path / "s.json")])
        assert code == ExitStatus.FAILURE
        assert "no parseable documents" in err

    def test_codify_bad_cap(self, schema_corpus, tmp_path, capsys):
        code, _, err = run(
            capsys,
            ["codify", str(schema_corpus), "--out", str(tmp_path / "s.json"), "--cap", "0"],
        )
        assert code == ExitStatus.FAILURE
        assert "enumeration_cap" in err

    def test_schema_validate_closure(self, schema_corpus, tmp_path, capsys):
        out = tmp_path / "schema.json"
        run(capsys, ["codify", str(schema_corpus), "--out", str(out)])
        files = sorted(str(p) for p in schema_corpus.glob("*.xml"))
        code, text, _ = run(
            capsys, ["schema-validate", *files, "--schema", str(out), "--no-base"]
        )
        assert code == ExitStatus.OK
        assert text.count(": ok") == 2

    def test_schema_validate_downgrade_via_base(self, schema_corpus, tmp_path, capsys):
        narrow = tmp_path / "narrow.json"
        run(capsys, ["codify", str(schema_corpus), "--out", str(narrow)])
        wider_dir = tmp_path / "wider"
        write_corpus(
            wider_dir,
            {
                "one.xml": (schema_corpus / "one.xml").read_bytes(),
                "three.xml": b'<d><hi rend="bold">z</hi></d>',
            },
        )
        base = tmp_path / "base.json"
        run(capsys, ["codify", str(wider_dir), "--out", str(base)])
        novel = tmp_path / "novel.xml"
        novel.write_bytes(b'<d><hi rend="bold">n</hi></d>')
        code, _, _ = run(
            capsys,
            ["schema-validate", str(novel), "--schema", str(narrow), "--no-base"],
        )
        assert code == ExitStatus.FINDINGS
        code, out, _ = run(
            capsys,
            [
                "schema-validate",
                str(novel),
                "--schema",
                str(narrow),
                "--base",
                str(base),
            ],
        )
        assert code == ExitStatus.OK
        assert "[S-value/warning]" in out

    def test_schema_validate_unparseable(self, tmp_path, capsys):
        schema = tmp_path / "s.json"
        schema.write_text('{"root": "d", "elements": {"d": {}}}')
        bad = tmp_path / "bad.xml"
        bad.write_bytes(b"<d")
        code, _, err = run(capsys, ["schema-validate", str(bad), "--schema", str(schema)])
        assert code == ExitStatus.FAILURE
        assert "cannot parse" in err

    def test_variants_listing(self, schema_corpus, capsys):
        code, out, _ = run(capsys, ["variants", str(schema_corpus)])
        assert code == ExitStatus.OK
        assert out == "hi @rend ~italic: italic (2), italics (1)\n"

    def test_variants_none(self, tmp_path, capsys):
        directory = tmp_path / "plain"
        write_corpus(directory, {"one.xml": b'<d><hi rend="italic">a</hi></d>'})
        code, out, _ = run(capsys, ["variants", str(directory)])
        assert code == ExitStatus.OK
        assert out == "no variant clusters\n"


class TestArbitrate:
    def rules_file(self, tmp_path, text="hi rend italics -> italic\n"):
        rules = tmp_path / "rules.txt"
        rules.write_text(text)
        return str(rules)

    def test_out_dir_rewrite(self, schema_corpus, tmp_path, capsys):
        out_dir = tmp_path / "fixed"
        code, out, _ = run(
            capsys,
            [
                "arbitrate",
                str(schema_corpus),
                "--rules",
                self.rules_file(tmp_path),
                "--out-dir",
                str(out_dir),
            ],
        )
        assert code == ExitStatus.OK
        assert out == "1 attribute values rewritten across 2 documents\n"
        assert b"italics" not in (out_dir / "one.xml").read_bytes()
        assert (out_dir / "two.xml").read_bytes() == (
            schema_corpus / "two.xml"
        ).read_bytes()
        # inputs untouched
        assert b"italics" in (schema_corpus / "one.xml").read_bytes()

    def test_in_place_rewrite(self, schema_corpus, tmp_path, capsys):
        before_two = (schema_corpus / "two.xml").read_bytes()
        code, _, _ = run(
            capsys,
            [
                "arbitrate",
                str(schema_corpus),
                "--rules",
                self.rules_file(tmp_path),
                "--in-place",
            ],
        )
        assert code == ExitStatus.OK
        assert b"italics" not in (schema_corpus / "one.xml").read_bytes()
        assert (schema_corpus / "two.xml").read_bytes() == before_two

    def test_conflict_aborts_without_writing(self, schema_corpus, tmp_path, capsys):
        before = {p.name: p.read_bytes() for p in schema_corpus.glob("*.xml")}
        rules = self.rules_file(
            tmp_path, "hi rend italics -> italic\nhi rend italics -> i\n"
        )
        code, _, err = run(
            capsys,
            ["arbitrate", str(schema_corpus), "--rules", rules, "--in-place"],
        )
        assert code == ExitStatus.FAILURE
        assert (
            "teijournal: conflicting rules for ('hi', 'rend', 'italics'): "
            "'italic' vs 'i'" in err
        )
        assert {p.name: p.read_bytes() for p in schema_corpus.glob("*.xml")} == before

    def test_bad_rules_file(self, schema_corpus, tmp_path, capsys):
        rules = self.rules_file(tmp_path, "hi rend italics italic\n")
        code, _, err = run(
            capsys,
            ["arbitrate", str(schema_corpus), "--rules", rules, "--in-place"],
        )
        assert code == ExitStatus.FAILURE
        assert "bad rules file" in err

    @pytest.mark.parametrize("mode", ["--in-place", "--out-dir"])
    def test_target_xml_forbids_is_a_bad_rules_file(
        self, schema_corpus, tmp_path, capsys, mode
    ):
        before = {p.name: p.read_bytes() for p in schema_corpus.iterdir()}
        rules = self.rules_file(tmp_path, "hi rend italics -> ital\x01ic\n")
        argv = ["arbitrate", str(schema_corpus), "--rules", rules, mode]
        if mode == "--out-dir":
            argv.append(str(tmp_path / "fixed"))
        code, out, err = run(capsys, argv)
        assert code == ExitStatus.FAILURE
        assert err == (
            "teijournal: bad rules file: rewrite rule for hi @rend: target"
            " contains U+0001, which XML does not allow\n"
        )
        assert out == ""
        assert {p.name: p.read_bytes() for p in schema_corpus.iterdir()} == before
        assert not (tmp_path / "fixed").exists()

    @pytest.mark.parametrize("mode", ["--in-place", "--out-dir"])
    def test_unclosed_namespace_in_a_rule_is_a_bad_rules_file(
        self, schema_corpus, tmp_path, capsys, mode
    ):
        before = {p.name: p.read_bytes() for p in schema_corpus.iterdir()}
        rules = self.rules_file(tmp_path, "* {urn:a b}k italics -> Italic\n")
        argv = ["arbitrate", str(schema_corpus), "--rules", rules, mode]
        if mode == "--out-dir":
            argv.append(str(tmp_path / "fixed"))
        code, out, err = run(capsys, argv)
        assert code == ExitStatus.FAILURE
        assert err == (
            "teijournal: bad rules file: line 1: attribute {urn:a opens '{'"
            " without closing it\n"
        )
        assert out == ""
        assert {p.name: p.read_bytes() for p in schema_corpus.iterdir()} == before
        assert not (tmp_path / "fixed").exists()

    @pytest.mark.parametrize("mode", ["--in-place", "--out-dir"])
    def test_unclosed_namespace_in_a_rule_element_is_a_bad_rules_file(
        self, schema_corpus, tmp_path, capsys, mode
    ):
        before = {p.name: p.read_bytes() for p in schema_corpus.iterdir()}
        rules = self.rules_file(tmp_path, "hi rend italics -> italic\n{urn:a b}x k v -> w\n")
        argv = ["arbitrate", str(schema_corpus), "--rules", rules, mode]
        if mode == "--out-dir":
            argv.append(str(tmp_path / "fixed"))
        code, out, err = run(capsys, argv)
        assert code == ExitStatus.FAILURE
        assert err == (
            "teijournal: bad rules file: line 2: element {urn:a opens '{'"
            " without closing it\n"
        )
        assert out == ""
        assert {p.name: p.read_bytes() for p in schema_corpus.iterdir()} == before
        assert not (tmp_path / "fixed").exists()

    def test_missing_rules_file(self, schema_corpus, tmp_path, capsys):
        code, _, err = run(
            capsys,
            [
                "arbitrate",
                str(schema_corpus),
                "--rules",
                str(tmp_path / "absent.txt"),
                "--in-place",
            ],
        )
        assert code == ExitStatus.FAILURE
        assert "cannot read rules" in err

    def test_in_place_failure_leaves_every_input_untouched(
        self, tmp_path, capsys, monkeypatch
    ):
        directory = tmp_path / "docs"
        write_corpus(
            directory,
            {f"{n}.xml": b'<d><hi rend="italics">x</hi></d>' for n in "abc"},
        )
        before = {p.name: p.read_bytes() for p in directory.iterdir()}
        calls = fail_temporary_file(monkeypatch, 2, "create")
        code, out, err = run(
            capsys,
            ["arbitrate", str(directory), "--rules", self.rules_file(tmp_path),
             "--in-place"],
        )
        assert code == ExitStatus.FAILURE
        assert len(calls) == 2
        assert "cannot write" in err and "No space left on device" in err
        assert out == ""
        # every input byte-identical, and no temporary file left behind
        assert {p.name: p.read_bytes() for p in directory.iterdir()} == before

    def test_in_place_keeps_file_mode(self, schema_corpus, tmp_path, capsys):
        target = schema_corpus / "one.xml"
        target.chmod(0o640)
        code, _, _ = run(
            capsys,
            ["arbitrate", str(schema_corpus), "--rules", self.rules_file(tmp_path),
             "--in-place"],
        )
        assert code == ExitStatus.OK
        assert b"italics" not in target.read_bytes()
        assert target.stat().st_mode & 0o777 == 0o640
        assert sorted(p.name for p in schema_corpus.iterdir()) == ["one.xml", "two.xml"]

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_out_dir_write_failure_is_reported(self, schema_corpus, tmp_path, capsys, below):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        out_dir = blocker / below if below else blocker
        code, out, err = run(
            capsys,
            ["arbitrate", str(schema_corpus), "--rules", self.rules_file(tmp_path),
             "--out-dir", str(out_dir)],
        )
        assert code == ExitStatus.FAILURE
        assert err.startswith(f"teijournal: cannot write {out_dir}: ")
        assert "internal error" not in err
        assert out == ""

    def test_target_flag_required(self, schema_corpus, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "arbitrate",
                    str(schema_corpus),
                    "--rules",
                    self.rules_file(tmp_path),
                ]
            )
        assert exc.value.code == 2


class TestOneWriter:
    """Every file a command writes goes through ``cli._replace_all``: all of
    them are written, or none is."""

    RULES = "hi rend italics -> italic\n"

    def argv(self, tmp_path, mode):
        docs = tmp_path / "docs"
        write_corpus(docs, {f"{n}.xml": b'<d><hi rend="italics">x</hi></d>' for n in "abc"})
        rules = tmp_path / "rules.txt"
        rules.write_text(self.RULES)
        argv = ["arbitrate", str(docs), "--rules", str(rules), mode]
        if mode == "--in-place":
            return argv, docs
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        (out_dir / "b.xml").write_bytes(b"an older copy")
        return argv + [str(out_dir)], out_dir

    @pytest.mark.parametrize("stage", ["create", "write"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("mode", ["--in-place", "--out-dir"])
    def test_kth_temporary_file_failing_leaves_every_target(
        self, tmp_path, capsys, monkeypatch, mode, k, stage
    ):
        argv, targets = self.argv(tmp_path, mode)
        before = {p.name: p.read_bytes() for p in targets.iterdir()}
        asked = fail_temporary_file(monkeypatch, k, stage)
        code, out, err = run(capsys, argv)
        failed = targets / "abc"[k - 1]
        assert (code, out) == (ExitStatus.FAILURE, "")
        assert err == (f"teijournal: cannot write {failed}.xml: [Errno 28]"
                       f" No space left on device: '{failed}.xml'\n")
        assert len(asked) == k
        assert {p.name: p.read_bytes() for p in targets.iterdir()} == before
        assert temporary_files(tmp_path) == []

    def test_a_failed_replace_removes_the_files_not_yet_moved(
        self, tmp_path, capsys, monkeypatch
    ):
        argv, docs = self.argv(tmp_path, "--in-place")
        before = {p.name: p.read_bytes() for p in docs.iterdir()}
        real_replace, moved = os.replace, []

        def replace_failing_second(source, target):
            moved.append(Path(target).name)
            if len(moved) == 2:
                raise OSError(errno.EXDEV, "Invalid cross-device link")
            real_replace(source, target)

        monkeypatch.setattr(os, "replace", replace_failing_second)
        code, out, err = run(capsys, argv)
        assert (code, out) == (ExitStatus.FAILURE, "")
        assert err.startswith(f"teijournal: cannot write {docs / 'b.xml'}: [Errno 18]")
        assert moved == ["a.xml", "b.xml"]
        assert b"italics" not in (docs / "a.xml").read_bytes()
        assert {n: (docs / n).read_bytes() for n in ("b.xml", "c.xml")} == {
            n: before[n] for n in ("b.xml", "c.xml")}
        assert temporary_files(tmp_path) == []

    def test_render_out_keeps_the_old_page_when_the_write_fails(
        self, tmp_path, capsys, monkeypatch
    ):
        page = tmp_path / "page.xhtml"
        page.write_bytes(b"the old page")
        fail_temporary_file(monkeypatch, 1, "write")
        code, out, err = run(capsys, ["render", clean_file(tmp_path), "--out", str(page)])
        assert (code, out) == (ExitStatus.FAILURE, "")
        assert err.startswith(f"teijournal: cannot write {page}: [Errno 28]")
        assert page.read_bytes() == b"the old page"
        assert temporary_files(tmp_path) == []

    def test_a_directory_target_is_refused_before_anything_is_written(
        self, tmp_path, capsys, monkeypatch
    ):
        docs = tmp_path / "docs"
        write_corpus(docs, {f"{n}.xml": b'<d><hi rend="italics">x</hi></d>' for n in "ab"})
        rules = tmp_path / "rules.txt"
        rules.write_text(self.RULES)
        out_dir = tmp_path / "od"
        (out_dir / "b.xml").mkdir(parents=True)
        asked = fail_temporary_file(monkeypatch, None, "create")
        code, out, err = run(capsys, ["arbitrate", str(docs), "--rules", str(rules),
                                      "--out-dir", str(out_dir)])
        blocked = str(out_dir / "b.xml")

        def refusal(target):
            return f"teijournal: cannot write {target}: [Errno 21] Is a directory: '{target}'\n"

        assert (code, out, err) == (ExitStatus.FAILURE, "", refusal(blocked))
        assert [p.name for p in out_dir.iterdir()] == ["b.xml"]
        assert list((out_dir / "b.xml").iterdir()) == []
        article = clean_file(tmp_path)
        slashed = f"{tmp_path / 'new.xhtml'}/"  # names a directory, as for open
        for target in (blocked, slashed):
            code, _, err = run(capsys, ["render", article, "--out", target])
            assert (code, err) == (ExitStatus.FAILURE, refusal(target))
        assert not (tmp_path / "new.xhtml").exists()
        assert asked == []  # not one temporary file was made
        assert temporary_files(tmp_path) == []

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_new_files_get_the_mode_open_gives_them(self, tmp_path, umask):
        docs = tmp_path / "docs"
        write_corpus(docs, {"one.xml": b'<d><hi rend="italics">a</hi></d>'})
        rules = tmp_path / "rules.txt"
        rules.write_text(self.RULES)
        article = clean_file(tmp_path)
        kept = tmp_path / "kept.xhtml"
        kept.write_bytes(b"an older page")
        kept.chmod(0o640)
        made = {"plain": tmp_path / "plain", "render": tmp_path / "page.xhtml",
                "codify": tmp_path / "schema.json", "arbitrate": tmp_path / "o" / "one.xml"}
        commands = [["render", article, "--out", str(made["render"])],
                    ["codify", str(docs), "--out", str(made["codify"])],
                    ["arbitrate", str(docs), "--rules", str(rules), "--out-dir",
                     str(made["arbitrate"].parent)],
                    ["render", article, "--out", str(kept)]]
        # the umask is set in a child process, so this one keeps its own
        script = ("import contextlib, io, json, os, sys\n"
                  "from teijournal.cli import main\n"
                  "os.umask(int(sys.argv[1]))\n"
                  "open(sys.argv[2], 'w').close()\n"
                  "with contextlib.redirect_stdout(io.StringIO()):\n"
                  "    print(json.dumps([main(a) for a in json.loads(sys.argv[3])]),"
                  " file=sys.__stdout__)\n")
        env = {"PYTHONPATH": str(Path(cli.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-c", script, str(umask), str(made["plain"]),
             json.dumps(commands)],
            env=env, capture_output=True, text=True, check=True)
        assert json.loads(done.stdout) == [0, 0, 0, 0], done.stderr
        modes = {name: path.stat().st_mode & 0o777 for name, path in made.items()}
        assert modes == dict.fromkeys(made, 0o666 & ~umask)
        assert kept.stat().st_mode & 0o777 == 0o640
        assert kept.read_bytes().startswith(b"<?xml")

    def test_codify_out_onto_a_fifo_writes_through_it(self, schema_corpus, tmp_path, capsys):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []
        # a daemon: should the pipe be replaced, the reader waits for ever
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        code, out, _ = run(capsys, ["codify", str(schema_corpus), "--out", str(fifo)])
        reader.join(timeout=10)
        assert code == ExitStatus.OK
        regular = tmp_path / "schema.json"
        assert run(capsys, ["codify", str(schema_corpus), "--out", str(regular)])[1] == out
        assert got == [regular.read_bytes()]
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert temporary_files(tmp_path) == []


class TestRender:
    def test_xhtml_to_stdout(self, tmp_path, capsys):
        path = clean_file(tmp_path)
        code, out, _ = run(capsys, ["render", path])
        assert code == ExitStatus.OK
        assert out.startswith('<?xml version="1.0" encoding="UTF-8"?>')
        assert "tj-title" in out and "Alpha Study" in out

    def test_text_output_and_determinism(self, tmp_path, capsys):
        path = clean_file(tmp_path)
        code, first, _ = run(capsys, ["render", path, "--to", "text"])
        assert code == ExitStatus.OK
        assert first.splitlines()[0] == "Alpha Study"
        assert first.splitlines()[1] == "=" * len("Alpha Study")
        _, second, _ = run(capsys, ["render", path, "--to", "text"])
        assert second == first

    def test_out_file(self, tmp_path, capsys):
        path = clean_file(tmp_path)
        target = tmp_path / "page.xhtml"
        code, out, _ = run(capsys, ["render", path, "--out", str(target)])
        assert code == ExitStatus.OK
        assert out == ""
        assert target.read_text(encoding="utf-8").startswith("<?xml")

    def test_bad_style(self, tmp_path, capsys):
        path = clean_file(tmp_path)
        code, _, err = run(capsys, ["render", path, "--style", "nostyle"])
        assert code == ExitStatus.FAILURE
        assert "cannot load style" in err

    def test_unparseable_article(self, tmp_path, capsys):
        bad = tmp_path / "bad.xml"
        bad.write_bytes(b"prose")
        code, _, err = run(capsys, ["render", str(bad)])
        assert code == ExitStatus.FAILURE
        assert "cannot parse" in err

    @pytest.mark.parametrize("to", ["xhtml", "text"])
    def test_entry_without_main_title_falls_back(self, tmp_path, capsys, to):
        """A reference entry whose only title is not a main one is listed by
        its bare text, as on the corpus pages, instead of failing."""
        entry = (
            '<biblStruct xml:id="b1" type="book"><monogr><author><persName>'
            "<surname>Writer</surname></persName></author>"
            '<title level="m" type="primary">Untyped Book</title>'
            '<imprint><date when="2001"/></imprint></monogr></biblStruct>'
        )
        body = '<div type="section"><p>See <ref target="#b1" type="bibr"/>.</p></div>'
        path = tmp_path / "untitled.xml"
        path.write_bytes(article_bytes(title="Untitled Entry", body=body, refs=entry))
        code, out, err = run(capsys, ["render", str(path), "--to", to])
        assert (code, err) == (ExitStatus.OK, "")
        assert "Writer. 2001." in out
        assert "Untyped Book" not in out  # a non-main title is not cited


@pytest.mark.parametrize("flag", ["--config", "--style", "--schema", "--base"])
def test_deeply_nested_json_is_refused(tmp_path, capsys, flag):
    article = clean_file(tmp_path)
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    schema = tmp_path / "schema.json"
    schema.write_text('{"root": "TEI", "elements": {}}')
    argv, message = {
        "--config": (["validate", article], f"cannot load config {deep}"),
        "--style": (["render", article], f"cannot load style {str(deep)!r}"),
        "--schema": (["schema-validate", article], f"cannot load schema {deep}"),
        "--base": (["schema-validate", article, "--schema", str(schema)],
                   f"cannot load schema {deep}"),
    }[flag]
    code, out, err = run(capsys, argv + [flag, str(deep)])
    assert (code, out) == (ExitStatus.FAILURE, "")
    assert err.startswith(f"teijournal: {message}: maximum recursion depth exceeded")
    assert "internal error" not in err and err.count("\n") == 1


STYLE = {"id": "s", "marker_scheme": "numeric-bracket", "list_order": "citation-order",
         "author_name_format": "as-encoded"}


@pytest.mark.parametrize(
    "command, payload, message",
    [
        ("render", [STYLE], "cannot load style"),
        ("render", {**STYLE, "layouts": {"unknown": [5]}}, "cannot load style"),
        ("render", {**STYLE, "layouts": {"unknown": [{"path": "title", "prefix": 5}]}},
         "cannot load style"),
        ("render",
         {**STYLE, "layouts": {"unknown": [{"path": "title", "omit_if_absent": "false"}]}},
         "cannot load style"),
        ("schema-validate", [], "cannot load schema"),
        ("schema-validate", {"elements": {"d": 5}}, "cannot load schema"),
        ("schema-validate", {"elements": {"d": {"attributes": {"k": 5}}}}, "cannot load schema"),
        ("schema-validate", {"elements": {"d": {"children": 5}}}, "cannot load schema"),
        ("schema-validate", {"elements": {"d": {"attributes": {"k": {"values": 7}}}}},
         "cannot load schema"),
        ("schema-validate", {"root": 5}, "cannot load schema"),
        ("schema-validate", {"elements": {"d": {"text": "false"}}}, "cannot load schema"),
        ("schema-validate", {"elements": {"d": {"attributes": {"k": {"required": "no"}}}}},
         "cannot load schema"),
        ("validate", {"org_unit_vocabulary": 5}, "bad config"),
        ("validate", {"org_unit_vocabulary": "department"}, "bad config"),
        ("validate", {"severity_overrides": [1, 2]}, "bad config"),
        ("validate", {"severity_overrides": {"R1": []}}, "bad config"),
        ("validate", {"severity_overrides": {"R1": "fatal"}}, "bad config"),
    ],
    ids=["style-list", "style-segment", "style-prefix", "style-omit-string", "schema-list",
         "schema-element", "schema-attribute", "schema-children", "schema-values",
         "schema-root", "schema-text-string", "schema-required-string",
         "config-vocabulary-number", "config-vocabulary-string", "config-overrides-list",
         "config-severity-list", "config-severity-unknown"],
)
def test_json_input_of_the_wrong_shape_is_refused(tmp_path, capsys, command, payload, message):
    article = clean_file(tmp_path)
    given_file = tmp_path / "given.json"
    given_file.write_text(json.dumps(payload))
    flag = {"render": "--style", "schema-validate": "--schema", "validate": "--config"}[command]
    code, out, err = run(capsys, [command, article, flag, str(given_file)])
    assert code == ExitStatus.FAILURE
    assert err.startswith(f"teijournal: {message}")
    assert "internal error" not in err
    assert out == ""


@pytest.fixture
def product_corpus(tmp_path):
    directory = tmp_path / "corpus"
    ref = (
        '<biblStruct type="book" xml:id="b1"><monogr>'
        "<author><persName><forename>Bertolt</forename><surname>Brecht</surname></persName></author>"
        '<title level="m" type="main">Stories</title>'
        '<imprint><publisher>P</publisher><date when="1981"/></imprint></monogr>'
        '<idno type="DOI">10.1000/stories</idno></biblStruct>'
    )
    write_corpus(
        directory,
        {
            "alpha.xml": article_bytes(
                title="Alpha Study",
                doi="10.1/alpha",
                body='<div type="section"><head>One</head>'
                "<p><persName>Ada Lovelace</persName> in <placeName>London</placeName>.</p></div>",
                refs=ref,
            ),
            "beta.xml": article_bytes(
                title="Beta Study",
                doi="10.1/beta",
                surname="Smith",
                forename="Jane",
                date="2010-06-15",
                changes='<change when="2010-07-01">Correction: fixed legend</change>',
                refs=ref,
            ),
        },
    )
    return directory


class TestCorpusProducts:
    def test_index_records(self, product_corpus, capsys):
        code, out, _ = run(
            capsys,
            ["index", str(product_corpus), "--kinds", "person,place", "--format", "records"],
        )
        assert code == ExitStatus.OK
        records = read_records(out)
        assert ("person", "10.1/alpha") in {(r[0], r[1]) for r in records}
        assert {r[0] for r in records} == {"person", "place"}

    def test_index_xhtml_default(self, product_corpus, capsys):
        code, out, _ = run(capsys, ["index", str(product_corpus)])
        assert code == ExitStatus.OK
        assert "tj-index" in out and "Ada Lovelace" in out

    def test_index_bad_kind(self, product_corpus, capsys):
        code, _, err = run(
            capsys, ["index", str(product_corpus), "--kinds", "colour"]
        )
        assert code == ExitStatus.FAILURE
        assert "unknown index kinds: colour" in err

    def test_biblio_records(self, product_corpus, capsys):
        code, out, _ = run(
            capsys, ["biblio", str(product_corpus), "--format", "records"]
        )
        assert code == ExitStatus.OK
        (record,) = read_records(out)
        assert record[0] == "biblio"
        assert record[1] == "10.1/alpha,10.1/beta"
        assert record[3] == "doi/10.1000/stories"
        assert record[4] == (
            "Brecht, Bertolt. Stories. P, 1981. https://doi.org/10.1000/stories."
        )

    def test_corrigenda_records(self, product_corpus, capsys):
        code, out, _ = run(
            capsys, ["corrigenda", str(product_corpus), "--format", "records"]
        )
        assert code == ExitStatus.OK
        (record,) = read_records(out)
        assert record == (
            "corrigendum",
            "10.1/beta",
            "",
            "2010-07-01",
            "Correction: fixed legend",
        )

    def test_query_records_default_format(self, product_corpus, capsys):
        code, out, _ = run(
            capsys, ["query", str(product_corpus), "--in", "person-mention"]
        )
        assert code == ExitStatus.OK
        (record,) = read_records(out)
        assert record[0] == "hit"
        assert record[1] == "10.1/alpha"
        assert record[3] == ""  # hits carry no code
        assert record[4] == "Ada Lovelace"

    def test_query_date_and_cites(self, product_corpus, capsys):
        code, out, _ = run(
            capsys,
            ["query", str(product_corpus), "--in", "any", "--from", "2010-01-01"],
        )
        assert code == ExitStatus.OK
        assert all(r[1] == "10.1/beta" for r in read_records(out))
        code, out, _ = run(
            capsys,
            ["query", str(product_corpus), "--in", "any", "--cites-surname", "Brecht"],
        )
        assert {r[1] for r in read_records(out)} == {"10.1/alpha", "10.1/beta"}

    def test_query_bad_date(self, product_corpus, capsys):
        code, _, err = run(
            capsys, ["query", str(product_corpus), "--in", "any", "--from", "wrong"]
        )
        assert code == ExitStatus.FAILURE
        assert "bad --from date 'wrong'" in err

    def test_query_refuses_a_date_in_non_ascii_digits(self, product_corpus, capsys):
        arabic_2010 = "\u0662\u0660\u0661\u0660"
        code, out, err = run(
            capsys, ["query", str(product_corpus), "--in", "any", "--from", arabic_2010]
        )
        assert code == ExitStatus.FAILURE
        assert out == ""
        assert f"bad --from date '{arabic_2010}'" in err

    def test_query_needs_a_filter(self, product_corpus, capsys):
        code, _, err = run(capsys, ["query", str(product_corpus)])
        assert code == ExitStatus.FAILURE
        assert "at least one filter" in err

    def test_query_xhtml_format(self, product_corpus, capsys):
        code, out, _ = run(
            capsys,
            ["query", str(product_corpus), "--in", "person-mention", "--format", "xhtml"],
        )
        assert code == ExitStatus.OK
        assert "tj-query" in out and "Ada Lovelace" in out

    def test_malformed_corpus_member_skipped(self, product_corpus, capsys):
        (product_corpus / "junk.xml").write_bytes(b"no xml here")
        code, out, err = run(capsys, ["index", str(product_corpus)])
        assert code == ExitStatus.OK
        assert err.startswith(f"skipping {product_corpus / 'junk.xml'}: ")
        assert "Ada Lovelace" in out

    def test_skipped_file_is_named_when_an_article_id_equals_its_stem(
        self, tmp_path, capsys
    ):
        directory = tmp_path / "c"
        directory.mkdir()
        (directory / "a.xml").write_bytes(b"<TEI><unclosed>")
        (directory / "b.xml").write_bytes(article_bytes(title="Named A", doi="a"))
        code, out, err = run(capsys, ["index", str(directory), "--format", "records"])
        assert code == ExitStatus.OK
        assert err.startswith(f"skipping {directory / 'a.xml'}: not well-formed: ")
        assert err.count("\n") == 1
        assert {record[1] for record in read_records(out)} == {"a"}

    def test_not_a_directory(self, tmp_path, capsys):
        code, _, err = run(capsys, ["index", str(tmp_path / "nope")])
        assert code == ExitStatus.FAILURE
        assert "not a directory" in err


def argv_with_a_bad_member(command: str, directory, scratch) -> list:
    """A run of ``command`` over ``directory``, which holds ``good.xml``
    and a ``bad.xml`` that the command cannot use."""
    good, bad = directory / "good.xml", directory / "bad.xml"
    return {
        "validate": ["validate", bad, good],
        "schema-validate": ["schema-validate", bad, good, "--schema", scratch / "s.json"],
        "codify": ["codify", directory, "--out", scratch / "codified.json"],
        "variants": ["variants", directory],
        "arbitrate": ["arbitrate", directory, "--rules", scratch / "rules.txt",
                      "--out-dir", scratch / "out"],
        "index": ["index", directory, "--format", "records"],
        "biblio": ["biblio", directory],
        "corrigenda": ["corrigenda", directory],
        "query": ["query", directory, "--text", "prose"],
    }[command]


DIRECTORY_COMMANDS = (
    "codify", "variants", "arbitrate", "index", "biblio", "corrigenda", "query",
)


class TestUnreadableFiles:
    """A file that cannot be read (here a directory named like one) is
    noted on stderr and skipped, exactly as one that cannot be parsed."""

    @pytest.mark.parametrize("command", [
        "validate", "schema-validate", "codify", "variants", "arbitrate",
        "index", "biblio", "corrigenda", "query",
    ])
    def test_skipped_like_an_unparseable_file(self, command, tmp_path, capsys):
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        (scratch / "s.json").write_text('{"root": "TEI", "elements": {}}')
        (scratch / "rules.txt").write_text("title type main -> primary\n")
        runs = []
        for kind in ("unparseable", "unreadable"):
            directory = tmp_path / kind
            write_corpus(directory, {"good.xml": article_bytes(title="Good")})
            if kind == "unparseable":
                (directory / "bad.xml").write_bytes(b"<TEI unclosed")
            else:
                (directory / "bad.xml").mkdir()
            argv = argv_with_a_bad_member(command, directory, scratch)
            code, out, err = run(capsys, [str(arg) for arg in argv])
            runs.append((code, out.replace(str(directory), "DIR"), err))
        (parse_code, parse_out, parse_err), (code, out, err) = runs
        assert (code, out) == (parse_code, parse_out)
        assert out  # the good file was used
        assert code == (ExitStatus.FAILURE if "validate" in command else ExitStatus.OK)
        assert parse_err.count("\n") == err.count("\n") == 1
        assert "cannot read" in err and "bad" in err

    def test_every_directory_command_prints_the_same_line(self, tmp_path, capsys):
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        (scratch / "rules.txt").write_text("title type main -> primary\n")
        directory = tmp_path / "c"
        write_corpus(directory, {"good.xml": article_bytes(title="Good")})
        bad = directory / "bad.xml"
        bad.mkdir()
        lines = set()
        for command in DIRECTORY_COMMANDS:
            argv = argv_with_a_bad_member(command, directory, scratch)
            _, _, err = run(capsys, [str(arg) for arg in argv])
            lines.add(err)
        (err,) = lines
        assert err.startswith(f"skipping {bad}: cannot read {bad}: ")
        assert err.count("\n") == 1 and err.endswith("\n")


class TestPaddedEncodingDeclaration:
    """A declaration that names its encoding past the 256th byte is read:
    a Latin-1 file is refused and skipped, not decoded as UTF-8."""

    @pytest.fixture
    def directory(self, tmp_path):
        body = '<div type="s"><p>Prose.</p><x:y xmlns:x="urn:x">@</x:y></div>'
        padded = article_bytes(title="Padded", body=body).replace(
            b'<?xml version="1.0" encoding="UTF-8"?>',
            b'<?xml version="1.0"' + b" " * 300 + b'encoding="ISO-8859-1"?>',
        ).replace(b"@", b"\xe9")
        directory = tmp_path / "c"
        write_corpus(directory, {
            "good.xml": article_bytes(title="Good"), "padded.xml": padded,
        })
        return directory

    def skip_line(self, directory) -> str:
        padded = directory / "padded.xml"
        return f"skipping {padded}: unsupported encoding 'iso-8859-1'; supply UTF-8\n"

    def test_index_skips_it(self, directory, capsys):
        code, out, err = run(capsys, ["index", str(directory), "--format", "records"])
        assert code == ExitStatus.OK
        assert err == self.skip_line(directory)
        assert {record[1] for record in read_records(out)} == {"good"}

    def test_arbitrate_does_not_write_it(self, directory, tmp_path, capsys):
        rules, out_dir = tmp_path / "rules.txt", tmp_path / "out"
        rules.write_text("title type main -> primary\n")
        code, out, err = run(capsys, [
            "arbitrate", str(directory), "--rules", str(rules), "--out-dir", str(out_dir),
        ])
        assert code == ExitStatus.OK
        assert err == self.skip_line(directory)
        assert out == "3 attribute values rewritten across 1 documents\n"
        assert sorted(path.name for path in out_dir.iterdir()) == ["good.xml"]


class TestOneLinePerUnusableFile:
    """A TEI file with two parse errors is named on one stderr line, its
    messages joined with '; ', as ``render`` joins them."""

    @pytest.mark.parametrize("command", ["validate", "index", "biblio", "corrigenda", "query"])
    def test_two_errors_make_one_line(self, command, tmp_path, capsys):
        directory = tmp_path / "c"
        write_corpus(directory, {
            "good.xml": article_bytes(title="Good"),
            "bad.xml": b'<TEI xmlns="http://www.tei-c.org/ns/1.0"/>',
        })
        argv = argv_with_a_bad_member(command, directory, tmp_path)
        code, out, err = run(capsys, [str(arg) for arg in argv])
        assert out  # the good file was used
        bad = directory / "bad.xml"
        named = f"{bad}: cannot parse:" if command == "validate" else f"skipping {bad}:"
        assert err == f"{named} missing teiHeader; missing text\n"


class TestExplain:
    def test_known_rule(self, capsys):
        code, out, _ = run(capsys, ["explain", "R9"])
        assert code == ExitStatus.OK
        assert out.startswith("R9 (error): ")
        assert len(out.rstrip("\n").split("\n")) == 2

    def test_unknown_rule(self, capsys):
        code, _, err = run(capsys, ["explain", "R0"])
        assert code == ExitStatus.FAILURE
        assert "unknown rule" in err


class TestParser:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_bad_query_kind_choice(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["query", str(tmp_path), "--in", "chapter"])
        assert exc.value.code == 2

    def test_console_entry_point_exists(self):
        assert callable(cli.main)
        assert int(ExitStatus.OK) == 0
        assert int(ExitStatus.FINDINGS) == 1
        assert int(ExitStatus.FAILURE) == 2


class TestCollectorSettings:
    def explain_twice(self, capsys, monkeypatch) -> list:
        """Run ``explain`` to exit 0 and to exit 2; whether the collector
        was on inside each command."""
        from teijournal import validator

        seen = []
        real = validator.explain

        def recording(rule_id):
            seen.append(gc.isenabled())
            return real(rule_id)

        monkeypatch.setattr(validator, "explain", recording)
        assert run(capsys, ["explain", "R9"])[0] == ExitStatus.OK
        assert run(capsys, ["explain", "R99"])[0] == ExitStatus.FAILURE
        return seen

    def test_command_runs_with_the_collector_off_and_turns_it_back_on(
        self, capsys, monkeypatch
    ):
        assert gc.isenabled()
        assert self.explain_twice(capsys, monkeypatch) == [False, False]
        assert gc.isenabled()

    def test_collector_stays_off_when_the_caller_turned_it_off(self, capsys, monkeypatch):
        gc.disable()
        try:
            assert self.explain_twice(capsys, monkeypatch) == [False, False]
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_validate_leaves_the_same_garbage_for_one_file_and_five(self, tmp_path, capsys):
        paths = [clean_file(tmp_path, f"a{i}.xml", body=BROKEN_BODY) for i in range(5)]
        run(capsys, ["validate", *paths])  # first use fills module-level caches

        def cyclic_garbage(argv) -> int:
            gc.disable()
            try:
                gc.collect()
                assert run(capsys, argv)[0] == ExitStatus.FINDINGS
                return gc.collect()
            finally:
                gc.enable()

        assert cyclic_garbage(["validate", paths[0]]) == cyclic_garbage(["validate", *paths])


class TestInternalErrors:
    def test_unexpected_exception_exits_2_with_one_line(self, capsys, monkeypatch):
        from teijournal import validator

        def broken(rule_id):
            raise RuntimeError("boom\nsecond line")

        monkeypatch.setattr(validator, "explain", broken)
        code, out, err = run(capsys, ["explain", "R9"])
        assert code == ExitStatus.FAILURE
        assert out == ""
        # one line, naming where the exception was raised
        assert re.fullmatch(
            r"teijournal: internal error: RuntimeError: boom second line"
            r" \(test_cli\.py:\d+\)\n",
            err,
        )


class TestMutantsThroughEveryCommand:
    """Every subcommand, in process, over a directory holding one structural
    mutant beside the two articles it was made from: each exits as README
    says (1 only from ``validate``) and none reports an internal error."""

    @settings(deadline=None)
    @given(tree_mutants())
    def test_exit_codes_as_documented_and_no_internal_error(self, data):
        with tempfile.TemporaryDirectory() as work:
            directory = Path(work) / "c"
            files = write_corpus(directory, {
                "good-0.xml": MUTANT_BASES[0], "good-1.xml": MUTANT_BASES[1], "mutant.xml": data,
            })
            mutant, rules = str(directory / "mutant.xml"), Path(work) / "rules.txt"
            rules.write_text("title level a -> article\n* rend italic -> it\n", encoding="utf-8")
            parsed = parse_article(data, mutant).ok
            c = str(directory)
            runs = [
                *((["validate", *files, "--format", fmt], {0, 1} if parsed else {2})
                  for fmt in ("text", "records")),
                *((["render", mutant, "--style", style], {0} if parsed else {2})
                  for style in BUILTIN_STYLES),
                (["render", mutant, "--to", "text"], {0} if parsed else {2}),
                (["index", c], {0}),
                (["biblio", c], {0}),
                (["corrigenda", c], {0}),
                (["query", c, "--text", "a"], {0}),
                (["codify", c, "--out", str(Path(work) / "schema.json")], {0}),
                (["variants", c], {0}),
                (["arbitrate", c, "--rules", str(rules), "--out-dir", str(Path(work) / "out")], {0}),
            ]
            for argv, codes in runs:
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = main(argv)
                assert code in codes, (argv, code, err.getvalue())
                assert "internal error" not in err.getvalue(), (argv, err.getvalue())
