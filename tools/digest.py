"""Byte-identity digests of every teijournal subcommand over generated inputs.

    python tools/digest.py build TREE OUT.json [--size smoke]
    python tools/digest.py --compare A.json B.json

``build`` writes inputs from ``perfbench/gen.py`` into a temporary directory
and runs each subcommand there as a child process with ``PYTHONPATH=TREE/src``,
so that TREE may be any checkout of the project.  For each run it records the
SHA-256 of stdout, of stderr, of the exit code and of every file the run
wrote, and writes the digests to OUT.json.  Every path on a command line is
relative to that directory, so two builds that differ only in TREE print
the same paths.  The hash seed is inherited: build twice under two values
of ``PYTHONHASHSEED`` to check that no output depends on it.

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
the manifests of two trees compare.

``--compare`` prints each key whose digest differs or that one manifest
lacks, and exits 1 when there is any.

The inputs are the seed-3 corpus, the seed-3, 5, 7 and 23 schema corpora,
the deep S and 2S articles, and seven small directories made from corpus
articles: one with a truncated file, a duplicate-id copy and an unreadable
file, one with XML declarations that name their encoding past the 256th
byte, one whose titles, keyword, extent kind, paragraph, person key and
link target hold every character an escaper replaces, one whose
articles repeat children that the model holds once, one whose back
matter holds an empty div, stray text before a ``listBib`` and an empty div
beside a ``listBibl``, and one with an empty figure, list, analytic and
address in one article and ``when`` dates in Arabic-Indic digits in
another, and one whose running text holds a cit and a figure each with an
empty child before a second of its name, in one article, and in another a
cit with an empty note before a second note and a cit whose record holds
an unknown child with an unknown ``bibl`` after the record.  Standard
library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.dont_write_bytecode = True  # leave no cache beside the generator

import gen  # noqa: E402  (perfbench/gen.py)

ENTRY = "import sys; from teijournal.cli import main; sys.exit(main())"
# Reads the files named on its command line; prints {key: digest} as JSON.
LIBRARY = """
import hashlib, json, sys
from teijournal.render import builtin_style, render_plaintext, render_xhtml
from teijournal.validator import validate
from teijournal.xmlio import model_paths, parse_article, serialize_article

def sha256(data):
    return hashlib.sha256(data).hexdigest()

def fields(records, *names):
    return sha256(json.dumps([[getattr(r, n) for n in names] for r in records]).encode())

def with_doctype(data):
    end = data.index(b"?>") + 2 if data.startswith(b"<?xml") else 0
    return data[:end] + b"<!DOCTYPE TEI>" + data[end:]

digests = {}
for path in sys.argv[1:]:
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
ARABIC_DIGITS = str.maketrans("0123456789", "".join(chr(0x660 + d) for d in range(10)))


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


def repeated(data: bytes) -> bytes:
    """``data`` with a second fileDesc, first persName, first email and
    body; an accessed date before the first imprint date, the source
    record's; a second publisher after each; a second monogr in each
    reference entry that ends with its monogr; and a second abbr in each
    choice."""
    for old, new, count in (
        (b"</fileDesc>", b"</fileDesc><fileDesc><titleStmt><title>Repeat</title></titleStmt>"
         b"</fileDesc>", 1),
        (b"</persName>", b"</persName><persName><surname>Repeat</surname></persName>", 1),
        (b"</email>", b"</email><email>repeat@example.org</email>", 1),
        (b"</body>", b'</body><body><div type="section"><p>Repeated body.</p></div></body>', 1),
        (b"<imprint><date ", b'<imprint><date type="accessed" when="1999-01-01"/><date ', 1),
        (b"</publisher>", b"</publisher><publisher>Repeat</publisher>", -1),
        (b"</monogr></biblStruct>", b'</monogr><monogr><title level="m" type="main">Repeat'
         b"</title></monogr></biblStruct>", -1),
        (b"</abbr>", b"</abbr><abbr>Repeat</abbr>", -1),
    ):
        data = data.replace(old, new, count)
    return data


def back_shapes(data: bytes) -> bytes:
    """``data`` with an empty appendix div, stray text and an empty listBib
    before its bibliography div, and an empty notes div inside that div,
    before its listBibl."""
    return data.replace(b'<back><div type="bibliography">',
                        b'<back><div type="appendix"/>Stray text.<listBib/>'
                        b'<div type="bibliography"><div type="notes"/>', 1)


def empty_shapes(data: bytes) -> bytes:
    """``data`` with an empty figure and list after its first body
    paragraph, an empty analytic in its first reference entry that starts
    with its monogr, and its first address emptied."""
    head, body = data.split(b"<body>", 1)
    body = body.replace(b"</p>", b"</p><figure/><list/>", 1)
    front, back = body.split(b"<back>", 1)
    back = re.sub(rb"(<biblStruct [^>]*>)<monogr>", rb"\1<analytic/><monogr>", back, count=1)
    head = re.sub(rb"<address>.*?</address>", b"<address/>", head, count=1)
    return head + b"<body>" + front + b"<back>" + back


def running_shapes(data: bytes, *shapes: bytes) -> bytes:
    """``data`` with ``shapes`` after its first body paragraph."""
    head, body = data.split(b"<body>", 1)
    return head + b"<body>" + body.replace(b"</p>", b"</p>" + b"".join(shapes), 1)


def arabic_dates(data: bytes) -> bytes:
    """``data`` with the digits of every ``when`` value in Arabic-Indic digits."""
    def arabic(match):
        return match[0].decode().translate(ARABIC_DIGITS).encode()
    return re.sub(rb'when="[^"]*"', arabic, data)


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
    dirs["repeated"] = write_dir(work / "repeated", {
        "art0000.xml": repeated(first),
        "art0001.xml": repeated(second),
        "art0002.xml": third,
    })
    dirs["back"] = write_dir(work / "back", {
        "art0000.xml": back_shapes(first),
        "art0001.xml": back_shapes(second),
        "art0002.xml": third,
    })
    dirs["empty"] = write_dir(work / "empty", {
        "art0000.xml": empty_shapes(first),
        "art0001.xml": arabic_dates(second),
        "art0002.xml": third,
    })
    dirs["running"] = write_dir(work / "running", {
        "art0000.xml": running_shapes(first, b"<cit><quote/><quote>Repeated quote.</quote></cit>",
                                      b"<figure><head/><head>Repeated head.</head></figure>"),
        "art0001.xml": running_shapes(second, b"<cit><quote>Q.</quote><note/><note>N.</note></cit>",
                                      b"<cit><biblStruct><monogr/><mystery/></biblStruct><bibl/>"
                                      b"</cit>"),
        "art0002.xml": third,
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
        self.outs = 0

    def out(self) -> str:
        """A fresh output path for the next run that writes."""
        self.outs += 1
        return f"out/{self.outs:03d}"

    def library(self, paths: list) -> None:
        """Digest each file's parse issues, canonical bytes, findings, model
        paths and pages."""
        done = subprocess.run(
            [sys.executable, "-c", LIBRARY, *paths], cwd=self.work, env=self.env,
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
    tei_dirs = ("corpus", "damaged", "padded", "hostile", "repeated", "back", "empty", "running",
                "deep")
    raw_dirs = (*(f"schema-{seed}" for seed in SCHEMA_SEEDS), *tei_dirs)
    needle = gen.PERSONS[0].split()[-1]
    run.library([path for name in tei_dirs for path in dirs[name]])

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
                 *dirs["hostile"], *dirs["repeated"], *dirs["back"], *dirs["empty"],
                 *dirs["running"]):
        for style in STYLES:
            for to in ("xhtml", "text"):
                run("render", path, "--style", style, "--to", to)
    page = f"{run.out()}.xhtml"
    run("render", dirs["deep"][0], "--out", page, writes=page)

    for name in raw_dirs:
        schema, capped = f"{run.out()}.json", f"{run.out()}.json"
        run("codify", name, "--out", schema, writes=schema)
        run("codify", name, "--out", capped, "--enumerable", "type,rend", "--cap", "3",
            writes=capped)
        for fmt in ("text", "records"):
            run("schema-validate", *dirs[name], "--schema", schema, "--format", fmt)
        run("schema-validate", *dirs[name], "--schema", schema, "--no-base")
        run("variants", name)
        arbitrated = run.out()
        run("arbitrate", name, "--rules", f"rules-{name}.txt", "--out-dir", arbitrated,
            writes=arbitrated)
        run("variants", arbitrated)
    in_place = run.out()
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
