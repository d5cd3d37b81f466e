"""Byte-identity digests of every teijournal subcommand over generated inputs.

    python tools/digest.py build TREE OUT.json [--size smoke]
    python tools/digest.py --compare A.json B.json

``build`` writes inputs from ``perfbench/gen.py`` into a temporary directory
and runs each subcommand there as a child process with ``PYTHONPATH=TREE/src``,
so that TREE may be any checkout of the project.  For each run it records the
SHA-256 of stdout, of stderr, of the exit code and of every file the run
wrote, and writes the digests to OUT.json.  Every path on a command line is
relative to that directory, so two builds that differ only in TREE print
the same paths, and each path a run writes is named by its input directory
and role (``out/<dir>-codify.json``), so adding or removing a directory
renames no other key.  The hash seed is inherited: build twice under two
values of ``PYTHONHASHSEED`` to check that no output depends on it.

One more child process reads each TEI input through the library and
records five digests per document: ``parse_article``'s issues as
``(severity, location, message)`` triples, ``serialize_article``'s bytes,
the ``validate`` findings, ``model_paths`` as ``(path, repr(node))``
pairs, and ``:pages``, the ``render_xhtml`` pages in apa, chicago and mla
and then the ``render_plaintext`` page, all rendered from one parsed
article in that order, as ``perfbench/worker.py`` renders them.  It reads
each document twice more, once with ``<!DOCTYPE TEI>`` after its XML
declaration and once cut at 90 % of its bytes, and records the issues of
each, and the canonical bytes of each that parses: the first goes through
the parser's DOCTYPE prescan, the second through the scan that locates a
refusal.  Parse issues have had those three fields in every version, so
the manifests of two trees compare.  The same child then reads each raw
directory, schema corpora and TEI directories alike, as ``codify`` and
``variants`` read it: per document that ``parse_raw`` accepts,
``:attributes``, every element's ``TreeDocument.attributes`` in document
order, and per directory the ``repr`` of ``profile_corpus`` as
``:profile``, ``schema_to_json`` of its ``codify`` as ``:codify`` and the
``repr`` of its ``detect_variants`` list as ``:variants``.

``--compare`` prints each key whose digest differs or that one manifest
lacks, and exits 1 when there is any.

The inputs are the seed-3 corpus, the seed-3, 5, 7 and 23 schema corpora,
the deep S and 2S articles, and four small directories.  Three are made
from corpus articles: ``damaged`` holds a truncated file, a duplicate-id
copy and an unreadable file, ``padded`` XML declarations that name their
encoding past the 256th byte, and ``hostile`` titles, a keyword, an extent
kind, a paragraph, a person key and a link target that hold every
character an escaper replaces.  ``repairs`` holds ``REPAIR_BASE`` of
``tests/repairs.py`` as ``base.xml`` and, for each row of its ``REPAIRS``,
the base with that row's replacement made once as ``<row id>.xml``, so a
new row is digested with no edit to this tool.  Standard library only,
apart from ``tests/repairs.py`` and the ``teijournal.model`` it imports,
both read from this tool's checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tests"), str(ROOT / "src")]
sys.dont_write_bytecode = True  # leave no cache beside the generator or the rows

import gen  # noqa: E402  (perfbench/gen.py)
import repairs  # noqa: E402  (tests/repairs.py, which loads teijournal.model)

ENTRY = "import sys; from teijournal.cli import main; sys.exit(main())"
# Reads the files named on its command line, then after "--" the raw
# directories; prints {key: digest} as JSON.
LIBRARY = """
import hashlib, json, sys
from pathlib import Path
from teijournal.rawxml import RawXmlError, parse_raw
from teijournal.render import builtin_style, render_plaintext, render_xhtml
from teijournal.schema import codify, detect_variants, profile_corpus, schema_to_json
from teijournal.validator import validate
from teijournal.xmlio import model_paths, parse_article, serialize_article

def sha256(data):
    return hashlib.sha256(data).hexdigest()

def fields(records, *names):
    return sha256(json.dumps([[getattr(r, n) for n in names] for r in records]).encode())

def with_doctype(data):
    end = data.index(b"?>") + 2 if data.startswith(b"<?xml") else 0
    return data[:end] + b"<!DOCTYPE TEI>" + data[end:]

split = sys.argv.index("--")
digests = {}
for path in sys.argv[1:split]:
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError:
        continue
    report = parse_article(data, path)
    digests[f"library {path} :issues"] = fields(report.issues, "severity", "location", "message")
    if report.ok:
        digests[f"library {path} :canonical"] = sha256(serialize_article(report.outcome))
        digests[f"library {path} :findings"] = fields(
            validate(report.outcome), "rule_id", "severity", "location", "message")
        digests[f"library {path} :paths"] = sha256(json.dumps(
            [[where, repr(node)] for where, node in model_paths(report.outcome)]).encode())
        # the benchmark's order: each page after the first reads what the
        # earlier ones kept in the article
        pages = [render_xhtml(report.outcome, builtin_style(style))
                 for style in ("apa", "chicago", "mla")] + [render_plaintext(report.outcome)]
        digests[f"library {path} :pages"] = sha256(json.dumps(pages).encode())
    for variant, changed in (("doctype", with_doctype(data)), ("cut", data[: len(data) * 9 // 10])):
        report = parse_article(changed, path)
        digests[f"library {path} {variant} :issues"] = fields(
            report.issues, "severity", "location", "message")
        if report.ok:
            digests[f"library {path} {variant} :canonical"] = sha256(
                serialize_article(report.outcome))
for directory in sys.argv[split + 1:]:
    docs = []
    for path in sorted(str(p) for p in Path(directory).glob("*.xml")):
        try:
            doc = parse_raw(Path(path).read_bytes())
        except (OSError, RawXmlError):
            continue
        docs.append(doc)
        digests[f"library {path} :attributes"] = sha256(json.dumps(
            [doc.attributes(element) for element in doc.root.iter()]).encode())
    profile = profile_corpus(docs)
    digests[f"library {directory} :profile"] = sha256(repr(profile).encode())
    digests[f"library {directory} :codify"] = sha256(schema_to_json(codify(profile)).encode())
    digests[f"library {directory} :variants"] = sha256(repr(detect_variants(profile)).encode())
json.dump(digests, sys.stdout)
"""
SCHEMA_SEEDS = (3, 5, 7, 23)
STYLES = ("apa", "chicago", "mla")
TEI_RULES = "title level a -> article\n* rend italic -> it\nbiblScope type vol -> volume\n"
# Every character the escapers replace, as element text and as a
# double-quoted attribute value.
HOSTILE_TEXT = b"&amp; &lt; &gt; \" ' \\ \t&#13;\n"
HOSTILE_VALUE = b"&amp; &lt; &gt; &quot; ' \\ &#9;&#13;&#10;"
HOSTILE_RULES = "title level a -> a&b<c\"d'e\n"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_dir(directory: Path, files: dict) -> list:
    """Write {name: bytes}; returns the relative paths in name order."""
    directory.mkdir(parents=True)
    for name, data in files.items():
        (directory / name).write_bytes(data)
    return [f"{directory.name}/{name}" for name in sorted(files)]


def padded(data: bytes, encoding: str, char: bytes) -> bytes:
    """``data`` with its declaration naming ``encoding`` after 300 spaces,
    and ``char`` inside foreign markup in its first paragraph."""
    declaration = f'<?xml version="1.0"{" " * 300}encoding="{encoding}"?>'.encode()
    data = data.replace(b'<?xml version="1.0" encoding="UTF-8"?>', declaration, 1)
    return data.replace(b"</p>", b'<x:y xmlns:x="urn:x">' + char + b"</x:y></p>", 1)


def hostile(data: bytes) -> bytes:
    """``data`` with the hostile text at the start of each analytic title and
    of its first keyword, the hostile value as its first extent kind (which
    a validate finding quotes), and the text, a person mention keyed by the
    hostile value and a link to it at the end of the first body paragraph."""
    data = data.replace(b'<title level="a" type="main">',
                        b'<title level="a" type="main">' + HOSTILE_TEXT)
    data = data.replace(b"<item><term>", b"<item><term>" + HOSTILE_TEXT, 1)
    data = data.replace(b'<biblScope type="vol">', b'<biblScope type="' + HOSTILE_VALUE + b'">', 1)
    head, body = data.split(b"<body>", 1)
    return head + b"<body>" + body.replace(b"</p>", b" " + HOSTILE_TEXT + (
        b'<persName key="' + HOSTILE_VALUE + b'">Ada ' + HOSTILE_TEXT + b"</persName>"
        b'<ref target="' + HOSTILE_VALUE + b'">link</ref></p>'), 1)


def write_inputs(work: Path, size: str) -> dict:
    """Write every input; returns {directory name: relative file paths}."""
    dirs: dict = {}
    corpus = gen.corpus(3, size)
    dirs["corpus"] = write_dir(work / "corpus", corpus.files)
    first, second, third = (corpus.files[name] for name in sorted(corpus.files)[:3])
    dirs["damaged"] = write_dir(work / "damaged", {
        "art0000.xml": first,
        "broken.xml": second[: len(second) * 9 // 10],
        "copy.xml": first,
        "good.xml": third,
    })
    (work / "damaged" / "unreadable.xml").mkdir()
    dirs["damaged"].append("damaged/unreadable.xml")
    dirs["padded"] = write_dir(work / "padded", {
        "good.xml": second,
        "latin1.xml": padded(first, "ISO-8859-1", b"\xe9"),
        "utf8.xml": padded(third, "UTF-8", "é".encode()),
    })
    dirs["hostile"] = write_dir(work / "hostile", {
        "art0000.xml": hostile(first),
        "art0001.xml": hostile(second),
        "art0002.xml": third,
    })
    dirs["repairs"] = write_dir(work / "repairs", {
        "base.xml": repairs.REPAIR_BASE,
        **{f"{case}.xml": repairs.REPAIR_BASE.replace(old, new, 1)
           for case, ((old, new), *_) in repairs.REPAIRS.items()},
    })
    dirs["deep"] = write_dir(work / "deep", {
        f"deep-{label}.xml": gen.deep_article(3, 0, label, size)[0] for label in ("S", "2S")
    })
    rules = dict.fromkeys(dirs, TEI_RULES)
    rules["hostile"] = HOSTILE_RULES
    for seed in SCHEMA_SEEDS:
        manifest = gen.schema_corpus(seed, size)
        dirs[f"schema-{seed}"] = write_dir(work / f"schema-{seed}", manifest.files)
        rules[f"schema-{seed}"] = manifest.rules
    for name, text in rules.items():  # the arbitrate rules for each directory
        (work / f"rules-{name}.txt").write_text(text, encoding="utf-8")
    (work / "out").mkdir()
    (work / "config.json").write_text(
        json.dumps({"severity_overrides": {"R9": "warning", "R11": "error"}}), encoding="utf-8"
    )
    return dirs


class Runner:
    """Runs subcommands in ``work`` and collects their digests."""

    def __init__(self, tree: Path, work: Path):
        self.work = work
        self.env = {k: v for k, v in os.environ.items() if k != "TJ_CONFIG"}
        self.env.update(
            PYTHONPATH=str(tree.resolve() / "src"),
            PYTHONDONTWRITEBYTECODE="1",
            PYTHONIOENCODING="utf-8",
        )
        self.digests: dict = {}

    def library(self, paths: list, raw_dirs: tuple) -> None:
        """Digest each file's parse issues, canonical bytes, findings, model
        paths and pages, then each raw directory's attribute lists,
        profile, schema and variants."""
        done = subprocess.run(
            [sys.executable, "-c", LIBRARY, *paths, "--", *raw_dirs], cwd=self.work, env=self.env,
            stdin=subprocess.DEVNULL, capture_output=True, timeout=600, check=True,
        )
        self.digests.update(json.loads(done.stdout))

    def __call__(self, *argv: str, writes: str | None = None) -> None:
        """Run one subcommand; ``writes`` names the file or directory it
        writes, whose files are digested after the run."""
        key = " ".join(argv)
        if f"{key} :stdout" in self.digests:
            raise ValueError(f"run listed twice: {key}")
        done = subprocess.run(
            [sys.executable, "-c", ENTRY, *argv], cwd=self.work, env=self.env,
            stdin=subprocess.DEVNULL, capture_output=True, timeout=600,
        )
        self.digests[f"{key} :stdout"] = sha256(done.stdout)
        self.digests[f"{key} :stderr"] = sha256(done.stderr)
        self.digests[f"{key} :exit"] = sha256(str(done.returncode).encode())
        if writes is not None:
            target = self.work / writes
            files = sorted(target.rglob("*")) if target.is_dir() else [target]
            for path in files:
                if path.is_file():
                    name = path.relative_to(self.work).as_posix()
                    self.digests[f"{key} :file {name}"] = sha256(path.read_bytes())


def run_all(run: Runner, dirs: dict) -> None:
    tei_dirs = ("corpus", "damaged", "padded", "hostile", "repairs", "deep")
    raw_dirs = (*(f"schema-{seed}" for seed in SCHEMA_SEEDS), *tei_dirs)
    needle = gen.PERSONS[0].split()[-1]
    run.library([path for name in tei_dirs for path in dirs[name]], raw_dirs)

    for name in tei_dirs:
        files = dirs[name]
        for fmt in ("text", "records"):
            run("validate", *files, "--format", fmt)
        run("validate", *files, "--config", "config.json", "--format", "records")
        for fmt in ("xhtml", "records"):
            run("index", name, "--format", fmt)
            run("corrigenda", name, "--format", fmt)
            run("query", name, "--in", "any", "--from", gen.QUERY_DATE_FROM,
                "--to", gen.QUERY_DATE_TO, "--format", fmt)
        run("index", name, "--kinds", "person,keyword", "--format", "records")
        run("corrigenda", name, "--kind", "revision")
        run("query", name, "--in", "person-mention", "--text", needle)
        run("query", name, "--cites-surname", "Quackenbush")
        for style in STYLES:
            for fmt in ("xhtml", "records"):
                run("biblio", name, "--style", style, "--format", fmt)
    for path in (*dirs["deep"], dirs["corpus"][0], *dirs["damaged"], *dirs["padded"],
                 *dirs["hostile"]):
        for style in STYLES:
            for to in ("xhtml", "text"):
                run("render", path, "--style", style, "--to", to)
    page = "out/deep-render.xhtml"
    run("render", dirs["deep"][0], "--out", page, writes=page)

    for name in raw_dirs:
        schema, capped = f"out/{name}-codify.json", f"out/{name}-codify-capped.json"
        run("codify", name, "--out", schema, writes=schema)
        run("codify", name, "--out", capped, "--enumerable", "type,rend", "--cap", "3",
            writes=capped)
        for fmt in ("text", "records"):
            run("schema-validate", *dirs[name], "--schema", schema, "--format", fmt)
        run("schema-validate", *dirs[name], "--schema", schema, "--no-base")
        run("variants", name)
        arbitrated = f"out/{name}-arbitrate"
        run("arbitrate", name, "--rules", f"rules-{name}.txt", "--out-dir", arbitrated,
            writes=arbitrated)
        run("variants", arbitrated)
    in_place = "out/schema-3-in-place"
    shutil.copytree(run.work / "schema-3", run.work / in_place)
    run("arbitrate", in_place, "--rules", "rules-schema-3.txt", "--in-place", writes=in_place)

    for rule in ("R0", *(f"R{n}" for n in range(1, 13))):
        run("explain", rule)


def build(tree: str, out: str, size: str) -> int:
    if not (Path(tree) / "src" / "teijournal").is_dir():
        print(f"digest: {tree} holds no src/teijournal", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="tj-digest-") as work:
        run = Runner(Path(tree), Path(work))
        run_all(run, write_inputs(Path(work), size))
    Path(out).write_text(json.dumps(run.digests, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")
    print(f"{len(run.digests)} digests written to {out}")
    return 0


def compare(first: str, second: str) -> int:
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in (first, second))
    differ = 0
    for key in sorted(a.keys() | b.keys()):
        if key not in b:
            print(f"only in {first}: {key}")
        elif key not in a:
            print(f"only in {second}: {key}")
        elif a[key] != b[key]:
            print(f"differs: {key}")
        else:
            continue
        differ += 1
    print(f"{len(a.keys() | b.keys())} keys, {differ} differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="list the keys whose digests differ")
    sub = parser.add_subparsers(dest="command")
    p = sub.add_parser("build", help="run every subcommand and write the digests")
    p.add_argument("tree", help="a checkout of the project, holding src/teijournal")
    p.add_argument("out", help="the JSON manifest to write")
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="generator size of every input (default: full)")
    args = parser.parse_args(argv)
    if args.compare and args.command is None:
        return compare(*args.compare)
    if args.command == "build" and not args.compare:
        return build(args.tree, args.out, args.size)
    parser.error("give either build TREE OUT.json or --compare A.json B.json")


if __name__ == "__main__":
    sys.exit(main())
