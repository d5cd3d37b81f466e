"""A TEI-subset toolkit for scholarly journal articles.

Parse and serialize article files, validate them against editorial rules,
infer and evolve a restricted schema from a corpus, render styled outputs
(bibliographies, XHTML, plain text), and build cross-document products:
indexes, a unified bibliography, corrigenda, and structural query results.

The names below are imported from their modules on first access (PEP 562),
so importing one module, such as the schema code, does not load the rest.
"""

from importlib import import_module

__version__ = "0.1.0"

# exported name -> defining module
_EXPORTS = {
    "Article": "model",
    "BiblStruct": "model",
    "CalendarDate": "model",
    "ParseReport": "xmlio",
    "ValidatorConfig": "validator",
    "parse_article": "xmlio",
    "serialize_article": "xmlio",
    "validate": "validator",
}

__all__ = sorted([*_EXPORTS, "__version__"])


def __getattr__(name: str):
    if name in _EXPORTS:
        return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted({*globals(), *_EXPORTS})
