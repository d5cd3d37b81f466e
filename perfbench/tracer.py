"""Timing wrappers around teijournal's public functions, and span summaries.

The wrappers measure each layer from outside: a wrapped function records one
span per call (name, start, end, parent span, pass id, tag, counters) in a
list held by a :class:`Tracer`.  Because ``cli``, ``validator`` and
``corpus`` import names directly, :func:`install` rebinds every teijournal
module attribute that holds a wrapped function, not only the defining one.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, function, counter) where counter maps (args, result) to extra
# per-call counts recorded on the span.
TARGETS = (
    ("rawxml", "parse_raw", lambda args, result: {"bytes": len(args[0])}),
    (
        "xmlio",
        "parse_article",
        lambda args, result: {
            "issues": len(result.issues),
            "articles": int(result.outcome is not None),
        },
    ),
    ("xmlio", "serialize_article", None),
    ("xmlio", "iter_model_paths", None),
    ("model", "resolve_ref", None),
    ("validator", "validate", lambda args, result: {"findings": len(result)}),
    ("render", "citation_order", None),
    ("render", "render_xhtml", None),
    ("render", "render_plaintext", None),
    (
        "corpus",
        "load_corpus",
        lambda args, result: {
            "files": len(result.load_reports),
            "loaded": len(result.articles),
        },
    ),
    ("corpus", "build_indexes", None),
    ("corpus", "unified_bibliography", None),
    ("corpus", "corrigenda", None),
    ("corpus", "query", None),
    ("schema", "profile_corpus", None),
    ("schema", "codify", None),
    ("schema", "validate_against", None),
    ("schema", "detect_variants", None),
    ("schema", "arbitrate", lambda args, result: {"rewrites": result[1]}),
    ("cli", "main", None),
)

# Span fields, in list order.
NAME, START, END, PARENT, PASS, TAG, COUNTS = range(7)


class Tracer:
    """In-memory span recorder; ``pass_id`` and ``tag`` label new spans."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list = []
        self.pass_id = 0
        self.tag = ""

    def wrap(self, name: str, fn, counter=None):
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1,
                    self.pass_id, self.tag, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if counter is not None:
                span[COUNTS] = counter(args, result)
            return result

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def install(tracer: Tracer):
    """Rebind every teijournal reference to a target function to its wrapper.

    Returns a function that puts the original functions back.
    """
    replacements: dict = {}
    for module_name, fn_name, counter in TARGETS:
        module = importlib.import_module(f"teijournal.{module_name}")
        original = getattr(module, fn_name)
        wrapper = tracer.wrap(f"{module_name}.{fn_name}", original, counter)
        replacements[id(original)] = (original, wrapper)
    rebound = []
    for name, module in list(sys.modules.items()):
        if name != "teijournal" and not name.startswith("teijournal."):
            continue
        for attr, value in list(vars(module).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                rebound.append((module, attr, value))

    def restore() -> None:
        for module, attr, value in rebound:
            setattr(module, attr, value)

    return restore


def summarize(spans: list, into: dict) -> None:
    """Add one process's spans to ``into[pass_id][(name, tag)]`` totals.

    Each total holds ``calls``, ``self_s`` (duration minus the time covered
    by child spans) and the summed counters.  Parent links are indexes into
    this ``spans`` list, so call once per process.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    for i, span in enumerate(spans):
        key = (span[NAME], span[TAG])
        total = into.setdefault(span[PASS], {}).setdefault(
            key, {"calls": 0, "self_s": 0.0}
        )
        total["calls"] += 1
        total["self_s"] += span[END] - span[START] - child_time[i]
        for counter, value in (span[COUNTS] or {}).items():
            total[counter] = total.get(counter, 0) + value
