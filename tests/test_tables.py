"""Per-operation node tables: every inline and block class has a row in
each table that reads it, lookups are by exact class, and a node of a class
with no row is refused with ``KeyError`` rather than dropped."""

import ast
from pathlib import Path

import pytest

from teijournal import model as m
from teijournal.base import Record
from teijournal.render import (
    _BLOCK_HTML,
    _BLOCK_TEXT,
    _INLINE_HTML,
    builtin_style,
    render_plaintext,
    render_xhtml,
)
from teijournal.xmlio import _INLINE_ELEMENT, _WRITE_BLOCK, serialize_article

INLINE = {
    m.TextRun, m.Emph, m.BiblRef, m.PersonMention, m.OrgMention, m.PlaceMention,
    m.TermMention, m.AbbrMention, m.Link, m.OpaqueInline,
}
BLOCK = {
    m.Paragraph, m.CitBlock, m.FigureBlock, m.TableBlock, m.FormulaBlock,
    m.ListBlock, m.QuoteBlock, m.OpaqueBlock,
}
# Every other record class of the model: no table is keyed by these.
OTHER = {
    m.CalendarDate, m.DocumentType, m.Title, m.Identifier, m.OrgUnit,
    m.AddressLine, m.Address, m.Affiliation, m.Author, m.Scope, m.Imprint,
    m.Analytic, m.Monogr, m.BiblStruct, m.FileDesc, m.Keyword, m.ProfileDesc,
    m.Change, m.RevisionDesc, m.Header, m.Division, m.ListBibl, m.BackMatter,
    m.Article,
}
ROOT = Path(__file__).resolve().parents[1]


def test_inline_tables_cover_the_inline_classes():
    assert set(m._PLAIN) == INLINE
    assert set(_INLINE_HTML) == INLINE
    # text runs and opaque markup are written as they are, with no element
    assert set(_INLINE_ELEMENT) == INLINE - {m.TextRun, m.OpaqueInline}


def test_block_tables_cover_the_block_classes():
    for table in (_BLOCK_HTML, _BLOCK_TEXT, _WRITE_BLOCK):
        assert set(table) == BLOCK


def test_every_model_record_class_is_classified():
    defined = {
        value for value in vars(m).values()
        if isinstance(value, type) and issubclass(value, Record)
        and value.__module__ == m.__name__
    }
    assert not (INLINE & BLOCK or INLINE & OTHER or BLOCK & OTHER)
    assert defined == INLINE | BLOCK | OTHER


def test_no_inline_or_block_class_is_subclassed():
    # The tables are read with type(node), so a subclass would have no row.
    names = {cls.__name__ for cls in INLINE | BLOCK}
    for cls in INLINE | BLOCK:
        assert cls.__subclasses__() == []
    for directory in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    for base in node.bases:
                        name = getattr(base, "attr", getattr(base, "id", None))
                        assert name not in names, f"{path.name}: class {node.name}({name})"


class _NotANode:
    pass


def _with_blocks(*blocks) -> m.Article:
    return m.Article(body=(m.Division(blocks=blocks),))


@pytest.mark.parametrize(
    "operation",
    [
        lambda: m.plain_text((m.TextRun("a"), _NotANode())),
        lambda: serialize_article(_with_blocks(m.Paragraph((_NotANode(),)))),
        lambda: render_xhtml(_with_blocks(m.Paragraph((_NotANode(),))), builtin_style("apa")),
        lambda: serialize_article(_with_blocks(_NotANode())),
        lambda: render_xhtml(_with_blocks(_NotANode()), builtin_style("apa")),
        lambda: render_plaintext(_with_blocks(_NotANode())),
    ],
    ids=["plain_text", "serialize-inline", "xhtml-inline", "serialize-block", "xhtml-block",
         "text-block"],
)
def test_a_node_of_no_known_class_is_refused(operation):
    with pytest.raises(KeyError) as caught:
        operation()
    assert caught.value.args == (_NotANode,)
