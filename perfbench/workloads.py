"""The three workloads: how each sets up, runs one pass, and checks it.

A pass is a fixed sequence of operations run one at a time by one caller.
``article-deep`` sends its pass to a worker process that calls the library;
``corpus-products`` and ``schema-evolve`` run ``teijournal`` subcommands as
child processes.  Every operation is checked against the generator's
manifest after the pass; each failed operation is one entry in
``PassResult.failures``.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import gen

XHTML = "{http://www.w3.org/1999/xhtml}"
ENTRY = "import sys; from teijournal.cli import main; sys.exit(main())"
HERE = Path(__file__).resolve().parent


@dataclass
class PassResult:
    wall_s: float
    attempted: int
    failures: list  # one message per failed operation
    bytes_read: int
    rss_mib: float  # peak resident memory of the process(es) doing the work
    cmd_walls: Counter = field(default_factory=Counter)  # subcommand -> s
    span_files: list = field(default_factory=list)


class Context:
    """Run-wide settings and the digest ledger shared by the workloads."""

    def __init__(self, root: Path, work: Path, seed: int, size: str, control: bool,
                 trace: bool):
        self.root = root
        self.work = work
        self.seed = seed
        self.size = size
        self.control = control
        self.trace = trace
        self.env: dict = {}
        self.ledger_path = work.parent / "digests" / f"{work.name}.json"
        self.inputs = ""  # fingerprint of the inputs the current outputs come from
        try:
            self.ledger = json.loads(self.ledger_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.ledger = {}

    def make_env(self, pycache: Path) -> dict:
        env = dict(os.environ)
        for name in ("TJ_CONFIG", "PYTHONDONTWRITEBYTECODE", "PYTHONSTARTUP"):
            env.pop(name, None)
        env["PYTHONPATH"] = str(self.root / "src")
        env["PYTHONPYCACHEPREFIX"] = str(pycache)
        env["PYTHONIOENCODING"] = "utf-8"
        return env

    def digest(self, key: str, data: bytes) -> list:
        """Record an output digest under the input fingerprint; a mismatch
        with any earlier pass or run on the same inputs fails."""
        value = hashlib.sha256(data).hexdigest()
        previous = self.ledger.setdefault(f"{self.inputs}:{key}", value)
        if previous != value:
            return [f"{key}: output differs from an earlier pass or run"]
        return []

    def write_manifest(self, expected: dict) -> None:
        """Keep the expected answers of this workload and seed for inspection."""
        path = self.work.parent / "manifests" / f"{self.work.name}-{self.size}-{self.seed}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(expected, indent=1, sort_keys=True), encoding="utf-8")

    def save_ledger(self) -> None:
        self.ledger_path.parent.mkdir(parents=True, exist_ok=True)
        self.ledger_path.write_text(json.dumps(self.ledger, indent=0, sort_keys=True))


def run_child(argv: list, ctx: Context, out: Path, err: Path) -> tuple:
    """Run one child to completion: (exit code, wall seconds, peak RSS MiB)."""
    with open(out, "wb") as out_handle, open(err, "wb") as err_handle:
        started = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=out_handle, stderr=err_handle,
            env=ctx.env, cwd=ctx.root,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def fingerprint(files: dict) -> str:
    digest = hashlib.sha256()
    for name in sorted(files):
        digest.update(name.encode() + b"\0" + hashlib.sha256(files[name]).digest())
    return digest.hexdigest()[:16]


def write_files(directory: Path, files: dict) -> None:
    if directory.exists():
        shutil.rmtree(directory)
    directory.mkdir(parents=True)
    for name, data in files.items():
        (directory / name).write_bytes(data)


def well_formed(text: str, what: str) -> tuple:
    try:
        return ET.fromstring(text.encode("utf-8")), []
    except ET.ParseError as exc:
        return None, [f"{what}: XHTML not well formed: {exc}"]


# --------------------------------------------------------------------------
# article-deep
# --------------------------------------------------------------------------

DEEP_OPS = ("parse", "validate", "serialize", "reparse", "reserialize",
            "xhtml.apa", "xhtml.chicago", "xhtml.mla", "text")


class ArticleDeep:
    name = "article-deep"

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.worker = None
        self.spans = ctx.work / "spans-worker.json"
        self.facts: dict = {}  # (pass, label) -> ArticleFacts
        self.fingerprints: dict = {}  # pass -> input fingerprint

    def inputs(self, pass_no: int) -> list:
        """Generate and write this pass's S and 2S articles."""
        pairs = []
        files = {}
        for label in ("S", "2S"):
            data, facts = gen.deep_article(self.ctx.seed, pass_no, label, self.ctx.size)
            path = self.ctx.work / "inputs" / f"pass{pass_no}-{label}.xml"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
            files[label] = data
            if self.ctx.control:
                facts.findings["R9"] += 1  # deliberately wrong manifest entry
            self.facts[(pass_no, label)] = facts
            pairs.append((label, str(path)))
        self.fingerprints[pass_no] = fingerprint(files)
        return pairs

    def setup(self) -> None:
        self.close()
        self.inputs(0)
        self.ctx.write_manifest({
            label: {
                "findings": self.facts[(0, label)].findings,
                "parse_warnings": self.facts[(0, label)].parse_warnings,
                "citation_order": self.facts[(0, label)].citation_order,
                "entries": self.facts[(0, label)].entry_ids,
            }
            for label in ("S", "2S")
        })

    def start(self, traced: bool) -> None:
        """Start the worker; traced and untraced passes share it, so the
        overhead ratio compares passes of one process."""
        if traced:
            return
        argv = [sys.executable, str(HERE / "worker.py")]
        if self.ctx.trace:
            argv += ["--trace", str(self.spans)]
        with open(self.ctx.work / "worker.err", "wb") as err:
            self.worker = subprocess.Popen(
                argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
                env=self.ctx.env, cwd=self.ctx.root, text=True,
            )
        hello = json.loads(self.worker.stdout.readline() or "{}")
        src = str(self.ctx.root / "src")
        if not str(hello.get("ready", "")).startswith(src):
            raise RuntimeError(f"worker did not load teijournal from {src}: {hello}")

    def close(self) -> list:
        """Stop the worker; returns the span file it wrote, if tracing."""
        if self.worker is None:
            return []
        self.worker.stdin.write(json.dumps({"quit": True}) + "\n")
        self.worker.stdin.close()
        self.worker.wait()
        self.worker.stdout.close()
        self.worker = None
        return [self.spans] if self.ctx.trace else []

    def abort(self) -> None:
        if self.worker is not None:
            self.worker.kill()
            self.worker.wait()
            self.worker = None

    def run_pass(self, pass_no: int, traced: bool) -> PassResult:
        pairs = self.inputs(pass_no) if pass_no else [
            (label, str(self.ctx.work / "inputs" / f"pass0-{label}.xml"))
            for label in ("S", "2S")
        ]
        out = self.ctx.work / "out"
        if out.exists():
            shutil.rmtree(out)
        request = {"pass": pass_no, "inputs": pairs, "out": str(out), "trace": traced}
        self.worker.stdin.write(json.dumps(request) + "\n")
        self.worker.stdin.flush()
        line = self.worker.stdout.readline()
        if not line:
            raise RuntimeError("article-deep worker exited")
        answer = json.loads(line)
        self.ctx.inputs = self.fingerprints[pass_no]
        failures = []
        for label, _ in pairs:
            failures += self.check(pass_no, label, out, answer["errors"][label])
        read = sum(os.path.getsize(path) for _, path in pairs)
        return PassResult(
            wall_s=answer["wall_s"],
            attempted=len(DEEP_OPS) * len(pairs),
            failures=failures,
            bytes_read=read,
            rss_mib=answer["maxrss_kib"] / 1024.0,
        )

    def check(self, pass_no: int, label: str, out: Path, errors: dict) -> list:
        facts = self.facts[(pass_no, label)]
        where = f"pass {pass_no} {label}"
        failed: dict = {}  # op -> first problem
        for step, message in errors.items():
            for op in DEEP_OPS[DEEP_OPS.index(step):]:
                failed.setdefault(op, f"{where} {op}: not run after {step} raised {message}")

        def read(suffix: str) -> bytes | None:
            path = out / f"{label}.{suffix}"
            return path.read_bytes() if path.exists() else None

        def problem(op: str, message: str) -> None:
            failed.setdefault(op, f"{where} {op}: {message}")

        def digest(op: str, suffix: str, data: bytes) -> None:
            for message in self.ctx.digest(f"{label}:{suffix}", data):
                problem(op, message)

        issues = read("issues")
        if issues is not None and int(issues) != facts.parse_warnings:
            problem("parse", f"{int(issues)} parse issues, expected {facts.parse_warnings}")
        findings = read("findings")
        if findings is not None:
            digest("validate", "findings", findings)
            got = Counter(line.split("\t", 1)[0] for line in findings.decode().splitlines())
            expected = Counter(facts.findings)
            if got != expected:
                problem("validate", f"findings {dict(got)}, expected {dict(expected)}")
        s1, s2 = read("s1.xml"), read("s2.xml")
        if s1 is not None:
            digest("serialize", "s1", s1)
        reparse_issues = read("reparse_issues")
        if reparse_issues is not None and int(reparse_issues):
            problem("reparse", f"{int(reparse_issues)} issues re-parsing serialized bytes")
        if s2 is not None and s2 != s1:
            problem("reserialize", "serialize(parse(serialized)) differs: not a fixpoint")
        for style in ("apa", "chicago", "mla"):
            op = f"xhtml.{style}"
            data = read(f"{style}.xhtml")
            if data is None:
                continue
            digest(op, style, data)
            for message in self.check_xhtml(data.decode("utf-8"), style, facts):
                problem(op, message)
        text = read("txt")
        if text is not None:
            digest("text", "txt", text)
            for message in self.check_text(text.decode("utf-8"), facts):
                problem("text", message)
        return list(failed.values())

    @staticmethod
    def check_xhtml(text: str, style: str, facts) -> list:
        root, problems = well_formed(text, style)
        if root is None:
            return problems
        order = facts.citation_order
        items = [
            li.get("id", "") for li in root.iter(f"{XHTML}li")
            if li.get("class") == "tj-biblio-entry"
        ]
        if len(items) != facts.entry_ids:
            problems.append(f"{len(items)} reference entries, expected {facts.entry_ids}")
        markers = [
            (a.get("href", ""), a.text or "") for a in root.iter(f"{XHTML}a")
            if a.get("class") == "tj-ref"
        ]
        linked = {href[len("#ref-"):] for href, _ in markers}
        if linked != set(order):
            problems.append(f"{len(linked)} linked entries, expected {len(order)} cited")
        if style == "chicago":  # numeric markers, list in citation order
            number = {ref_id: f"[{n}]" for n, ref_id in enumerate(order, start=1)}
            wrong = [t for href, t in markers if number.get(href[len("#ref-"):]) != t]
            if wrong:
                problems.append(f"{len(wrong)} markers not numbered by first citation")
            if items[:len(order)] != [f"ref-{ref_id}" for ref_id in order]:
                problems.append("reference list not in first-citation order")
        return problems

    @staticmethod
    def check_text(text: str, facts) -> list:
        problems = []
        lines = text.split("\n")
        wide = [line for line in lines if len(line) > 78]
        if wide:
            problems.append(f"{len(wide)} lines wider than 78 columns")
        try:
            start = lines.index("References")
        except ValueError:
            return problems + ["no References section"]
        numbers = [int(m.group(1)) for m in
                   (re.match(r"\[(\d+)\] ", line) for line in lines[start:]) if m]
        if numbers != list(range(1, facts.entry_ids + 1)):
            problems.append(f"reference numbers 1..{len(numbers)}, expected 1..{facts.entry_ids}")
        return problems


# --------------------------------------------------------------------------
# Subcommand workloads
# --------------------------------------------------------------------------


@dataclass
class Command:
    label: str  # unique within the pass
    sub: str  # the subcommand, for cli.<sub>.wall_s
    argv: list
    reads: int  # document bytes the command reads
    check: object  # (stdout text) -> list of problems
    exit_code: int = 0
    writes: tuple = ()  # files or directories it writes, digested


class CliWorkload:
    """Runs its commands through the real entry point, or the launcher."""

    name = ""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.commands: list = []

    def rel(self, path: Path) -> str:
        return str(path.relative_to(self.ctx.root))

    def start(self, traced: bool) -> None:
        pass

    def close(self) -> list:
        return []

    def abort(self) -> None:
        pass

    def before_pass(self) -> None:
        pass

    def run_pass(self, pass_no: int, traced: bool) -> PassResult:
        self.before_pass()
        io = self.ctx.work / "io"
        io.mkdir(exist_ok=True)
        spans = []
        ran = []
        walls: Counter = Counter()
        rss = 0.0
        started = time.perf_counter()
        for cmd in self.commands:
            if traced:
                span_file = self.ctx.work / "spans" / f"{pass_no}-{cmd.label}.json"
                span_file.parent.mkdir(exist_ok=True)
                spans.append(span_file)
                argv = [sys.executable, str(HERE / "launch.py"), str(span_file),
                        str(pass_no), cmd.sub, "--", *cmd.argv]
            else:
                argv = [sys.executable, "-c", ENTRY, *cmd.argv]
            out, err = io / f"{cmd.label}.out", io / f"{cmd.label}.err"
            code, wall, child_rss = run_child(argv, self.ctx, out, err)
            walls[cmd.sub] += wall
            rss = max(rss, child_rss)
            ran.append((cmd, code, out, err))
        wall_s = time.perf_counter() - started
        failures = []
        for cmd, code, out, err in ran:
            problems = self.check(cmd, code, out.read_bytes(), err.read_bytes())
            if problems:
                failures.append(f"pass {pass_no} {cmd.label}: " + "; ".join(problems))
        return PassResult(
            wall_s=wall_s,
            attempted=len(ran),
            failures=failures,
            bytes_read=sum(cmd.reads for cmd in self.commands),
            rss_mib=rss,
            cmd_walls=walls,
            span_files=spans,
        )

    def check(self, cmd: Command, code: int, stdout: bytes, stderr: bytes) -> list:
        problems = []
        if code != cmd.exit_code:
            problems.append(f"exit {code}, expected {cmd.exit_code}")
        if stderr:
            problems.append("stderr: " + stderr.decode("utf-8", "replace")[:200])
        problems += self.ctx.digest(f"{cmd.label}:stdout", stdout)
        for target in cmd.writes:
            target = self.ctx.root / target
            if target.is_dir():
                blob = b"".join(
                    p.name.encode() + b"\0" + hashlib.sha256(p.read_bytes()).digest()
                    for p in sorted(target.iterdir())
                )
            elif target.exists():
                blob = target.read_bytes()
            else:
                problems.append(f"{target.name} not written")
                continue
            problems += self.ctx.digest(f"{cmd.label}:{target.name}", blob)
        try:
            text = stdout.decode("utf-8")
        except UnicodeDecodeError:
            return problems + ["stdout is not UTF-8"]
        return problems + cmd.check(text)


def records(text: str) -> list:
    return [line.split("\t") for line in text.split("\n") if line]


class CorpusProducts(CliWorkload):
    name = "corpus-products"

    def setup(self) -> None:
        ctx = self.ctx
        manifest = gen.corpus(ctx.seed, ctx.size)
        corpus_dir = ctx.work / "inputs"
        write_files(corpus_dir, manifest.files)
        ctx.inputs = fingerprint(manifest.files)
        arts = manifest.articles
        size = sum(len(data) for data in manifest.files.values())
        d = self.rel(corpus_dir)
        files = [f"{d}/{name}" for name in manifest.files]

        findings = sum((a.findings for a in arts), Counter())
        expected_exit = 1 if findings["R9"] else 0

        def check_validate(text: str) -> list:
            rows = records(text)
            got = Counter(row[3] for row in rows)
            problems = [] if got == findings else [f"findings {dict(got)}, expected {dict(findings)}"]
            severity = {"R9": "error", "R10": "warning", "R11": "warning"}
            if any(severity.get(row[3]) != row[0] for row in rows):
                problems.append("unexpected severity")
            return problems

        mentions = {}  # kind -> (locators, distinct keys)
        for kind in gen.INDEX_KINDS:
            texts = [t for a in arts for t in a.mentions[kind]]
            mentions[kind] = (len(texts), len({gen.norm_key(t) for t in texts}))

        def check_index(text: str) -> list:
            rows = records(text)
            problems = []
            for kind, want in mentions.items():
                got = [row for row in rows if row[0] == kind]
                got = (len(got), len({row[3] for row in got}))
                if got != want:
                    problems.append(f"{kind}: {got} locators/keys, expected {want}")
            return problems

        works = {w.title for a in arts for w in a.works}  # titles are unique
        citing_pairs = sum(len(a.works) for a in arts)

        def check_biblio(text: str) -> list:
            root, problems = well_formed(text, "biblio")
            if root is None:
                return problems
            items = [li for li in root.iter(f"{XHTML}li")]
            pairs = sum(
                len(span.text[len("(cited by: "):-1].split(", "))
                for li in items for span in li if span.get("class") == "tj-citing"
            )
            if len(items) != len(works) or pairs != citing_pairs:
                problems.append(
                    f"{len(items)} works/{pairs} citations, "
                    f"expected {len(works)}/{citing_pairs}"
                )
            return problems

        corrections = sorted(
            ((when, a.doc_id, text) for a in arts for when, text in a.corrections),
            key=lambda c: (tuple(-int(p) for p in c[0].split("-")), c[1]),
        )
        if ctx.control:  # deliberately wrong manifest entry
            corrections.append(("2001-01-01", "10.5555/none", "Phantom correction"))

        def check_corrigenda(text: str) -> list:
            root, problems = well_formed(text, "corrigenda")
            if root is None:
                return problems
            got = [li.text for li in root.iter(f"{XHTML}li")]
            want = [f"{when} — {doc}: {text}" for when, doc, text in corrections]
            if got != want:
                problems.append(f"{len(got)} corrections, expected {len(want)}")
            return problems

        def hits_check(label: str, expected: Counter, kind_texts) -> object:
            def check(text: str) -> list:
                rows = records(text)
                got = Counter(row[1] for row in rows)
                bad = [row for row in rows if row[0] != "hit" or row[4] not in kind_texts]
                problems = [f"{len(bad)} hits of the wrong kind"] if bad else []
                if got != expected:
                    problems.append(
                        f"{sum(got.values())} hits in {len(got)} articles, expected "
                        f"{sum(expected.values())} in {len(expected)}"
                    )
                return problems
            return check

        needle = gen.QUERY_PERSON_NEEDLE
        persons = Counter({
            a.doc_id: n for a in arts
            if (n := sum(needle in t.casefold() for t in a.mentions["person"]))
        })
        places = Counter({
            a.doc_id: len(a.mentions["place"]) for a in arts
            if gen.in_window(a.date) and a.mentions["place"]
        })
        rare = manifest.cites_surname
        orgs = Counter({
            a.doc_id: len(a.mentions["organization"]) for a in arts
            if rare.casefold() in a.surnames_cited and a.mentions["organization"]
        })
        ctx.write_manifest({
            "findings": findings,
            "validate_exit": expected_exit,
            "index_locators_and_keys": mentions,
            "distinct_works": len(works),
            "citing_pairs": citing_pairs,
            "corrections": corrections,
            "query_hits": {"person": persons, "dates": places, "cites": orgs},
        })
        self.commands = [
            Command("validate", "validate", ["validate", *files, "--format", "records"],
                    size, check_validate, exit_code=expected_exit),
            Command("index", "index", ["index", d, "--format", "records"], size, check_index),
            Command("biblio", "biblio", ["biblio", d, "--style", "chicago", "--format", "xhtml"],
                    size, check_biblio),
            Command("corrigenda", "corrigenda", ["corrigenda", d], size, check_corrigenda),
            Command("query-person", "query",
                    ["query", d, "--in", "person-mention", "--text", needle], size,
                    hits_check("person", persons, set(gen.PERSONS))),
            Command("query-dates", "query",
                    ["query", d, "--in", "place-mention", "--from", gen.QUERY_DATE_FROM,
                     "--to", gen.QUERY_DATE_TO], size,
                    hits_check("place", places, set(gen.PLACES))),
            Command("query-cites", "query",
                    ["query", d, "--in", "org-mention", "--cites-surname", rare], size,
                    hits_check("org", orgs, set(gen.ORGS))),
        ]


class SchemaEvolve(CliWorkload):
    name = "schema-evolve"

    def setup(self) -> None:
        ctx = self.ctx
        manifest = gen.schema_corpus(ctx.seed, ctx.size)
        corpus_dir = ctx.work / "inputs"
        write_files(corpus_dir, manifest.files)
        ctx.inputs = fingerprint(manifest.files)
        rules = ctx.work / "rules.txt"
        rules.write_text(manifest.rules, encoding="utf-8")
        self.out_dir = ctx.work / "arbitrated"
        self.schema = ctx.work / "schema.json"
        d, out, schema = self.rel(corpus_dir), self.rel(self.out_dir), self.rel(self.schema)
        files = [f"{d}/{name}" for name in manifest.files]
        size = sum(len(data) for data in manifest.files.values())
        fixed = sum(len(data) for data in manifest.canonical.values())
        count = len(manifest.files)
        rewrites = sum(
            manifest.value_counts[(element, attribute, value)]
            for element, attribute, _, _, variants in gen.VARIANTS
            for value in variants
        )
        if ctx.control:
            rewrites += 1  # deliberately wrong manifest entry

        def expect_lines(lines: list) -> object:
            want = "".join(line + "\n" for line in lines)
            return lambda text: [] if text == want else [
                f"stdout {text[:120]!r}, expected {want[:120]!r}"
            ]

        def check_codify(text: str) -> list:
            problems = expect_lines([
                f"codified {count} documents: {manifest.elements} elements, "
                f"{manifest.attributes} attributes, root 'doc'"
            ])(text)
            try:
                json.loads(self.schema.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                problems.append(f"schema file unreadable: {exc}")
            return problems

        def check_arbitrate(text: str) -> list:
            problems = expect_lines([
                f"{rewrites} attribute values rewritten across {count} documents"
            ])(text)
            wrong = [
                name for name, data in manifest.canonical.items()
                if not (self.out_dir / name).exists()
                or (self.out_dir / name).read_bytes() != data
            ]
            if wrong:
                problems.append(f"{len(wrong)} rewritten documents differ from the expected bytes")
            return problems

        ctx.write_manifest({
            "documents": count,
            "elements": manifest.elements,
            "attributes": manifest.attributes,
            "variant_clusters": gen.expected_variant_lines(manifest.value_counts),
            "rewrites": rewrites,
        })
        self.commands = [
            Command("codify", "codify", ["codify", d, "--out", schema], size,
                    check_codify, writes=(schema,)),
            Command("schema-validate", "schema-validate",
                    ["schema-validate", *files, "--schema", schema],
                    size, expect_lines([f"{f}: ok" for f in files])),
            Command("variants", "variants", ["variants", d], size,
                    expect_lines(gen.expected_variant_lines(manifest.value_counts))),
            Command("arbitrate", "arbitrate",
                    ["arbitrate", d, "--rules", self.rel(rules), "--out-dir", out],
                    size, check_arbitrate, writes=(out,)),
            Command("variants-after", "variants", ["variants", out], fixed,
                    expect_lines(["no variant clusters"])),
        ]

    def before_pass(self) -> None:
        if self.out_dir.exists():
            shutil.rmtree(self.out_dir)
        self.schema.unlink(missing_ok=True)


WORKLOADS = {w.name: w for w in (ArticleDeep, CorpusProducts, SchemaEvolve)}
