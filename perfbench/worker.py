"""In-process library calls for the article-deep workload.

    python3 perfbench/worker.py [--trace SPANS_JSON]

Reads one JSON request per line on stdin, ``{"pass": n, "inputs": [[label,
path], ...], "out": dir, "trace": bool}``, runs the pass and answers with one
JSON line on stdout.  Per article the pass runs ``parse_article``, ``validate``,
``serialize_article``, a re-parse and re-serialization of the serialized
bytes (the fixpoint check), ``render_xhtml`` in apa, chicago and mla, and
``render_plaintext``.  Only those calls are timed; the outputs are written
to the request's directory afterwards for the caller to check.  A request
``{"quit": true}`` ends the worker.  With ``--trace`` the timing wrappers
are installed for passes that ask for tracing and removed for the others, so
traced and untraced passes run in one process; the recorded spans are
written to SPANS_JSON at the end.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path

import teijournal
from teijournal import render, validator, xmlio

STYLES = ("apa", "chicago", "mla")


def one_article(data: bytes, name: str, styles: dict) -> tuple:
    """(outputs, errors): outputs map file suffix to text or bytes."""
    outputs: dict = {}
    step = "parse"
    try:
        report = xmlio.parse_article(data, name)
        outputs["issues"] = str(len(report.issues))
        if report.outcome is None:
            raise ValueError("no article: " + "; ".join(i.message for i in report.issues))
        article = report.outcome
        step = "validate"
        outputs["findings"] = "".join(
            f"{f.rule_id}\t{f.severity}\t{f.location}\t{f.message}\n"
            for f in validator.validate(article)
        )
        step = "serialize"
        outputs["s1.xml"] = xmlio.serialize_article(article)
        step = "reparse"
        again = xmlio.parse_article(outputs["s1.xml"], name)
        outputs["reparse_issues"] = str(len(again.issues))
        if again.outcome is None:
            raise ValueError("serialized bytes do not parse")
        step = "reserialize"
        outputs["s2.xml"] = xmlio.serialize_article(again.outcome)
        for style in STYLES:
            step = f"xhtml.{style}"
            outputs[f"{style}.xhtml"] = render.render_xhtml(article, styles[style])
        step = "text"
        outputs["txt"] = render.render_plaintext(article)
    except Exception as exc:  # one failed step fails the rest of the article
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        where = f"{Path(frame.filename).name}:{frame.lineno}"
        return outputs, {step: f"{type(exc).__name__}: {exc} ({where})"}
    return outputs, {}


def main() -> int:
    recorder = restore = None
    if sys.argv[1:2] == ["--trace"]:
        import tracer

        recorder = tracer.Tracer()
    styles = {style: render.builtin_style(style) for style in STYLES}
    print(json.dumps({"ready": teijournal.__file__}), flush=True)
    for line in sys.stdin:
        request = json.loads(line)
        if request.get("quit"):
            break
        if request["trace"] and restore is None:
            restore = tracer.install(recorder)
        elif not request["trace"] and restore is not None:
            restore()
            restore = None
        inputs = [(label, Path(path).read_bytes()) for label, path in request["inputs"]]
        results = {}
        started = time.perf_counter()
        for label, data in inputs:
            if restore is not None:
                recorder.pass_id = request["pass"]
                recorder.tag = label
            results[label] = one_article(data, f"{label}.xml", styles)
        wall = time.perf_counter() - started
        out = Path(request["out"])
        out.mkdir(parents=True, exist_ok=True)
        errors = {}
        for label, (outputs, failed) in results.items():
            errors[label] = failed
            for suffix, content in outputs.items():
                target = out / f"{label}.{suffix}"
                if isinstance(content, bytes):
                    target.write_bytes(content)
                else:
                    target.write_text(content, encoding="utf-8")
        maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        answer = {"wall_s": wall, "errors": errors, "maxrss_kib": maxrss}
        print(json.dumps(answer), flush=True)
    if recorder is not None:
        recorder.dump(sys.argv[2])
    return 0


if __name__ == "__main__":
    sys.exit(main())
