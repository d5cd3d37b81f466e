"""The ``teijournal`` command: one binary, one subcommand per pipeline stage.

Validation, schema evolution (codify / variants / arbitrate), rendering, and
the corpus products each get a subcommand so the stages can run at different
times over the same files.  All output is deterministic and sorted; the only
subcommand that ever writes to its inputs is ``arbitrate --in-place``.  Every
file a command writes goes through :func:`_replace_all`, all or nothing.

Exit codes: 0 success, 1 error-severity findings (validate and
schema-validate only), 2 usage, I/O, or format problems, and internal
errors.

Machine-readable output (``--format records``) is line-delimited UTF-8 text
with five tab-separated fields — kind, file, path, code, message — written
by :func:`write_records` and read back by :func:`read_records`.
"""

from __future__ import annotations

import argparse
import errno
import gc
import json
import os
import re
import shutil
import sys
from enum import IntEnum
from pathlib import Path

from .base import BUILTIN_STYLES, QUERY_KINDS, escaper, json_object, json_strings
from .rawxml import RawXmlError, parse_raw

# Each command imports, inside its function, the modules only it needs: the
# schema commands never load the model, builder, validator, renderers or
# corpus code, and the TEI commands never load ``schema``.  Names are looked
# up in their modules at call time.


class ExitStatus(IntEnum):
    OK = 0
    FINDINGS = 1
    FAILURE = 2


class CliError(Exception):
    """Anything that should stop the command with exit status 2."""


# --------------------------------------------------------------------------
# Records format
# --------------------------------------------------------------------------

_FIELD_COUNT = 5


_escape_field = escaper(("\\", "\\\\"), ("\t", "\\t"), ("\n", "\\n"), ("\r", "\\r"))
_ESCAPE_RE = re.compile(r"\\(.)", re.S)
_UNESCAPED = {"t": "\t", "n": "\n", "r": "\r"}


def _unescape_field(value: str) -> str:
    # An unknown escape stands for its own character; a lone final
    # backslash is kept.
    return _ESCAPE_RE.sub(lambda m: _UNESCAPED.get(m[1], m[1]), value)


def write_records(records) -> str:
    """Serialize (kind, file, path, code, message) tuples, one per line."""
    lines = []
    for record in records:
        if len(record) != _FIELD_COUNT:
            raise ValueError(f"record needs {_FIELD_COUNT} fields: {record!r}")
        lines.append("\t".join(_escape_field(str(f)) for f in record))
    return "".join(line + "\n" for line in lines)


def read_records(text: str) -> list:
    """Parse :func:`write_records` output back into 5-tuples."""
    records = []
    # Split on newlines only: unicode line separators may appear unescaped
    # inside a field and must not end the record.
    for line in text.split("\n"):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != _FIELD_COUNT:
            raise ValueError(f"malformed record line: {line!r}")
        records.append(tuple(_unescape_field(f) for f in fields))
    return records


# --------------------------------------------------------------------------
# Shared plumbing
# --------------------------------------------------------------------------


def _read_bytes(name: str) -> bytes:
    try:
        with open(name, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise CliError(f"cannot read {name}: {exc}") from None


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        _replace_all([(path, text.encode("utf-8"))])


def _replace_all(contents) -> None:
    """Write every (path, data) pair, or none of them.

    Each content goes to a new file beside its target (mode 0o666 less the
    umask, as from ``open``, or the mode of the file it replaces), and the
    targets are replaced once all are written.  A directory target is refused
    first; a device or FIFO target is written in place.
    """
    contents, moves, serial = list(contents), [], 0
    try:
        for name in (n for n, _ in contents if n.endswith(os.sep) or os.path.isdir(n)):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        for name, data in contents:
            if os.path.exists(name) and not os.path.isfile(name):
                with open(name, "wb") as out:  # a device or a FIFO
                    out.write(data)
                continue
            target = os.path.realpath(name)
            while True:  # past any name that a killed process left behind
                serial += 1
                temp = f".teijournal-{os.getpid()}-{serial}.tmp"
                temp = os.path.join(os.path.dirname(target), temp)
                try:
                    out = open(temp, "xb")  # O_CREAT | O_EXCL, mode 0o666
                    break
                except FileExistsError:
                    pass
            moves.append((name, temp, target))
            with out:
                out.write(data)
            if os.path.exists(target):
                shutil.copymode(target, temp)
        for name, temp, target in moves:
            os.replace(temp, target)
    except BaseException as exc:
        for _, temp, _ in moves:
            if os.path.lexists(temp):
                os.unlink(temp)
        if isinstance(exc, OSError):  # named by its target, not a temporary file
            error = OSError(exc.errno, exc.strerror, name)
            raise CliError(f"cannot write {name}: {error}") from None
        raise


def _load_validator_config(args):
    from .validator import ValidatorConfig

    path = getattr(args, "config", None) or os.environ.get("TJ_CONFIG")
    if not path:
        return ValidatorConfig()
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise CliError(f"cannot load config {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise CliError(f"config {path} must hold a JSON object")
    unknown = set(raw) - {"org_unit_vocabulary", "severity_overrides"}
    if unknown:
        raise CliError(f"config {path} has unknown keys: {', '.join(sorted(unknown))}")
    kwargs: dict = {}
    try:
        if "org_unit_vocabulary" in raw:
            kwargs["org_unit_vocabulary"] = frozenset(
                json_strings(raw["org_unit_vocabulary"], "org_unit_vocabulary")
            )
        if "severity_overrides" in raw:
            overrides = raw["severity_overrides"]
            kwargs["severity_overrides"] = json_object(overrides, "severity_overrides")
        return ValidatorConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad config {path}: {exc}") from None


def _xml_files(directory: str) -> list:
    root = Path(directory)
    if not root.is_dir():
        raise CliError(f"not a directory: {directory}")
    return sorted(str(p) for p in root.glob("*.xml"))


def _load_raw_dir(directory: str) -> list:
    """(name, TreeDocument) for each readable, parseable file; notes the rest."""
    docs = []
    for name in _xml_files(directory):
        try:
            docs.append((name, parse_raw(_read_bytes(name))))
        except (CliError, RawXmlError) as exc:
            print(f"skipping {name}: {exc}", file=sys.stderr)
    return docs


def _error_line(report) -> str:
    """A parse report's errors on one line, so each unusable file gets one."""
    return "; ".join(issue.message for issue in report.errors())


def _load_corpus_dir(directory: str):
    from .corpus import load_corpus

    corpus = load_corpus(_xml_files(directory))
    for name, report in corpus.load_reports.items():
        if not report.ok:
            print(f"skipping {name}: {_error_line(report)}", file=sys.stderr)
    return corpus


def _load_schema_file(path: str):
    from . import schema as schema_ops

    try:
        return schema_ops.schema_from_json(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, KeyError, RecursionError) as exc:
        raise CliError(f"cannot load schema {path}: {exc}") from None


def _style_arg(args):
    from .render import get_style

    try:
        return get_style(args.style)
    except (OSError, ValueError, RecursionError) as exc:
        raise CliError(f"cannot load style {args.style!r}: {exc}") from None


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------


def _report_findings(args, check) -> int:
    """Print or record the findings of ``check(name, data)`` for each file.

    ``check`` returns a file's findings, or None when the file cannot be
    parsed (having said why on stderr).  A file that cannot be read is
    skipped in the same way.
    """
    failed = False
    any_error_finding = False
    records = []
    for name in args.files:
        try:
            data = _read_bytes(name)
        except CliError as exc:
            print(f"teijournal: {exc}", file=sys.stderr)
            failed = True
            continue
        findings = check(name, data)
        if findings is None:
            failed = True
            continue
        any_error_finding |= any(f.severity == "error" for f in findings)
        if args.format == "records":
            records.extend(
                (f.severity, name, f.location, f.rule_id, f.message) for f in findings
            )
        else:
            for f in findings:
                print(f"{name}: [{f.rule_id}/{f.severity}] {f.location}: {f.message}")
            if not findings:
                print(f"{name}: ok")
    if args.format == "records":
        sys.stdout.write(write_records(records))
    if failed:
        return ExitStatus.FAILURE
    return ExitStatus.FINDINGS if any_error_finding else ExitStatus.OK


def cmd_validate(args) -> int:
    from .validator import validate
    from .xmlio import parse_article

    config = _load_validator_config(args)

    def check(name: str, data: bytes):
        report = parse_article(data, name)
        if not report.ok:
            print(f"{name}: cannot parse: {_error_line(report)}", file=sys.stderr)
            return None
        if args.format == "text":
            for issue in report.warnings():
                print(f"{name}: parse warning at {issue.location}: {issue.message}")
        return validate(report.outcome, config)

    return _report_findings(args, check)


def cmd_schema_validate(args) -> int:
    from . import schema as schema_ops

    schema = _load_schema_file(args.schema)
    if args.no_base:
        base = None
    elif args.base:
        base = _load_schema_file(args.base)
    else:
        base = schema_ops.load_base_schema()

    def check(name: str, data: bytes):
        try:
            doc = parse_raw(data)
        except RawXmlError as exc:
            print(f"{name}: cannot parse: {exc}", file=sys.stderr)
            return None
        return schema_ops.validate_against(schema, doc, base)

    return _report_findings(args, check)


def _codify_options(args):
    from .schema import CodifyOptions

    kwargs: dict = {}
    if args.enumerable is not None:
        kwargs["enumerable_attributes"] = frozenset(
            token for token in args.enumerable.split(",") if token
        )
    if args.cap is not None:
        kwargs["enumeration_cap"] = args.cap
    try:
        return CodifyOptions(**kwargs)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def cmd_codify(args) -> int:
    from . import schema as schema_ops

    docs = _load_raw_dir(args.dir)
    if not docs:
        raise CliError(f"no parseable documents in {args.dir}")
    schema = schema_ops.codify(
        schema_ops.profile_corpus(d for _, d in docs), _codify_options(args)
    )
    _write_text(args.out, schema_ops.schema_to_json(schema))
    attr_count = sum(len(rule.attributes) for rule in schema.elements.values())
    print(
        f"codified {len(docs)} documents: {len(schema.elements)} elements, "
        f"{attr_count} attributes, root {schema.root!r}"
    )
    return ExitStatus.OK


def cmd_variants(args) -> int:
    from . import schema as schema_ops

    docs = _load_raw_dir(args.dir)
    clusters = schema_ops.detect_variants(schema_ops.profile_corpus(d for _, d in docs))
    for cluster in clusters:
        members = ", ".join(f"{value} ({count})" for value, count in cluster.members)
        print(f"{cluster.element} @{cluster.attribute} ~{cluster.key}: {members}")
    if not clusters:
        print("no variant clusters")
    return ExitStatus.OK


def cmd_arbitrate(args) -> int:
    from . import schema as schema_ops

    try:
        rules = schema_ops.parse_rules(Path(args.rules).read_text(encoding="utf-8"))
    except OSError as exc:
        raise CliError(f"cannot read rules {args.rules}: {exc}") from None
    except ValueError as exc:
        raise CliError(f"bad rules file: {exc}") from None
    named = _load_raw_dir(args.dir)
    try:
        rewritten, changes = schema_ops.arbitrate([doc for _, doc in named], rules)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    out_dir = None if args.in_place else Path(args.out_dir)
    if out_dir:
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise CliError(f"cannot write {out_dir}: {exc}") from None
    _replace_all(  # --in-place rewrites only the files that changed
        (str(out_dir / Path(name).name) if out_dir else name, data)
        for (name, old), data in zip(named, rewritten)
        if out_dir or data != old.data
    )
    print(f"{changes} attribute values rewritten across {len(named)} documents")
    return ExitStatus.OK


def cmd_render(args) -> int:
    from .render import render_plaintext, render_xhtml
    from .xmlio import parse_article

    style = _style_arg(args)
    report = parse_article(_read_bytes(args.file), args.file)
    if not report.ok:
        raise CliError(f"cannot parse {args.file}: {_error_line(report)}")
    render = render_xhtml if args.to == "xhtml" else render_plaintext
    _write_text(args.out, render(report.outcome, style))
    return ExitStatus.OK


def cmd_index(args) -> int:
    from . import corpus as corpus_ops

    corpus = _load_corpus_dir(args.dir)
    kinds = None
    if args.kinds is not None:
        kinds = {token for token in args.kinds.split(",") if token}
    try:
        entries = corpus_ops.build_indexes(corpus, kinds)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    if args.format == "records":
        sys.stdout.write(write_records(corpus_ops.index_records(entries)))
    else:
        sys.stdout.write(corpus_ops.index_xhtml(entries))
    return ExitStatus.OK


def cmd_biblio(args) -> int:
    from . import corpus as corpus_ops

    corpus = _load_corpus_dir(args.dir)
    items = corpus_ops.unified_bibliography(corpus)
    style = _style_arg(args)
    if args.format == "records":
        sys.stdout.write(write_records(corpus_ops.biblio_records(items, style)))
    else:
        sys.stdout.write(corpus_ops.unified_bibliography_xhtml(items, style))
    return ExitStatus.OK


def cmd_corrigenda(args) -> int:
    from . import corpus as corpus_ops

    corpus = _load_corpus_dir(args.dir)
    entries = corpus_ops.corrigenda(corpus, kind=args.kind)
    if args.format == "records":
        sys.stdout.write(write_records(corpus_ops.corrigenda_records(entries)))
    else:
        sys.stdout.write(corpus_ops.corrigenda_xhtml(entries))
    return ExitStatus.OK


def _parse_date(raw: str | None, flag: str):
    from .model import CalendarDate

    if raw is None:
        return None
    try:
        return CalendarDate.parse(raw)
    except ValueError as exc:
        raise CliError(f"bad {flag} date {raw!r}: {exc}") from None


def cmd_query(args) -> int:
    from . import corpus as corpus_ops

    corpus = _load_corpus_dir(args.dir)
    try:
        q = corpus_ops.Query(
            element_kind=args.element_kind,
            text=args.text,
            date_from=_parse_date(args.date_from, "--from"),
            date_to=_parse_date(args.date_to, "--to"),
            cites_author_surname=args.cites_surname,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from None
    hits = corpus_ops.query(corpus, q)
    if args.format == "records":
        sys.stdout.write(write_records(corpus_ops.query_records(hits)))
    else:
        sys.stdout.write(corpus_ops.query_xhtml(hits))
    return ExitStatus.OK


def cmd_explain(args) -> int:
    from .validator import explain

    try:
        print(explain(args.rule))
    except ValueError as exc:
        raise CliError(str(exc)) from None
    return ExitStatus.OK


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="teijournal",
        description="Validate, evolve, and publish TEI-encoded journal articles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check articles against rules R1-R12")
    p.add_argument("files", nargs="+")
    p.add_argument("--config", help="validator config JSON (default: $TJ_CONFIG)")
    p.add_argument("--format", choices=("text", "records"), default="text")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser(
        "schema-validate", help="check raw documents against a restricted schema"
    )
    p.add_argument("files", nargs="+")
    p.add_argument("--schema", required=True, help="restricted schema JSON")
    p.add_argument("--base", help="base schema for downgrades (default: built-in)")
    p.add_argument(
        "--no-base", action="store_true", help="disable base-schema downgrades"
    )
    p.add_argument("--format", choices=("text", "records"), default="text")
    p.set_defaults(func=cmd_schema_validate)

    p = sub.add_parser("codify", help="infer a restricted schema from a corpus")
    p.add_argument("dir")
    p.add_argument("--out", required=True, help="schema file to write")
    p.add_argument("--enumerable", help="comma-separated enumerable attributes")
    p.add_argument("--cap", type=int, help="max distinct values for a closed list")
    p.set_defaults(func=cmd_codify)

    p = sub.add_parser("variants", help="list competing attribute-value spellings")
    p.add_argument("dir")
    p.set_defaults(func=cmd_variants)

    p = sub.add_parser("arbitrate", help="rewrite attribute values corpus-wide")
    p.add_argument("dir")
    p.add_argument("--rules", required=True, help="rewrite rules file")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--in-place", action="store_true")
    target.add_argument("--out-dir", help="write rewritten copies here")
    p.set_defaults(func=cmd_arbitrate)

    p = sub.add_parser("render", help="render one article")
    p.add_argument("file")
    p.add_argument(
        "--style",
        default="chicago",
        help=f"one of {', '.join(BUILTIN_STYLES)}, or a style JSON path",
    )
    p.add_argument("--to", choices=("xhtml", "text"), default="xhtml")
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("index", help="build mention indexes over a corpus")
    p.add_argument("dir")
    p.add_argument("--kinds", help="comma-separated subset of the seven kinds")
    p.add_argument("--format", choices=("xhtml", "records"), default="xhtml")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("biblio", help="build the unified bibliography")
    p.add_argument("dir")
    p.add_argument("--style", default="chicago")
    p.add_argument("--format", choices=("xhtml", "records"), default="xhtml")
    p.set_defaults(func=cmd_biblio)

    p = sub.add_parser("corrigenda", help="collect published corrections")
    p.add_argument("dir")
    p.add_argument("--kind", default="correction", help="revision change kind")
    p.add_argument("--format", choices=("xhtml", "records"), default="xhtml")
    p.set_defaults(func=cmd_corrigenda)

    p = sub.add_parser("query", help="structural search across a corpus")
    p.add_argument("dir")
    p.add_argument("--in", dest="element_kind", choices=QUERY_KINDS)
    p.add_argument("--text", help="casefolded substring to find")
    p.add_argument("--from", dest="date_from", help="earliest publication date")
    p.add_argument("--to", dest="date_to", help="latest publication date")
    p.add_argument("--cites-surname", help="require a cited author surname")
    p.add_argument("--format", choices=("xhtml", "records"), default="records")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("explain", help="describe one validator rule")
    p.add_argument("rule", help="rule id, e.g. R9")
    p.set_defaults(func=cmd_explain)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Parses and walks leave no reference cycles, so the cyclic collector
    # would only rescan live objects: it is off for the length of the
    # command, and back on afterwards if it was on, for callers that run
    # commands in process.
    collecting = gc.isenabled()
    gc.disable()
    try:
        status = int(args.func(args))
        sys.stdout.flush()  # so that a closed pipe is met here, not at exit
        return status
    except BrokenPipeError:  # the reader left first, as `| head` does
        print("teijournal: output closed before it was all written", file=sys.stderr)
        with open(os.devnull, "wb") as null:  # so that the flush at exit is quiet
            os.dup2(null.fileno(), sys.stdout.fileno())
    except CliError as exc:
        print(f"teijournal: {exc}", file=sys.stderr)
    except Exception as exc:  # a bug, not a finding: never exit 1 for it
        import traceback

        frame = traceback.extract_tb(exc.__traceback__)[-1]
        detail = " ".join(str(exc).split())
        print(
            f"teijournal: internal error: {type(exc).__name__}: {detail}"
            f" ({Path(frame.filename).name}:{frame.lineno})",
            file=sys.stderr,
        )
    finally:
        if collecting:
            gc.enable()
    return int(ExitStatus.FAILURE)


if __name__ == "__main__":
    sys.exit(main())
