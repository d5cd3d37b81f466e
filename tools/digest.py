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

``--compare`` prints each key whose digest differs or that one manifest
lacks, and exits 1 when there is any.

The inputs are the seed-3 corpus, the seed-3, 5, 7 and 23 schema corpora,
the deep S and 2S articles, and two small directories made from corpus
articles: one with a truncated file, a duplicate-id copy and an unreadable
file, and one with XML declarations that name their encoding past the
256th byte.  Standard library only.
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
sys.path.insert(0, str(ROOT / "perfbench"))
sys.dont_write_bytecode = True  # leave no cache beside the generator

import gen  # noqa: E402  (perfbench/gen.py)

ENTRY = "import sys; from teijournal.cli import main; sys.exit(main())"
SCHEMA_SEEDS = (3, 5, 7, 23)
STYLES = ("apa", "chicago", "mla")
TEI_RULES = "title level a -> article\n* rend italic -> it\nbiblScope type vol -> volume\n"


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
    dirs["deep"] = write_dir(work / "deep", {
        f"deep-{label}.xml": gen.deep_article(3, 0, label, size)[0] for label in ("S", "2S")
    })
    rules = dict.fromkeys(dirs, TEI_RULES)
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
    tei_dirs = ("corpus", "damaged", "padded", "deep")
    raw_dirs = (*(f"schema-{seed}" for seed in SCHEMA_SEEDS), *tei_dirs)
    needle = gen.PERSONS[0].split()[-1]

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
    for path in (*dirs["deep"], dirs["corpus"][0], *dirs["damaged"], *dirs["padded"]):
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
