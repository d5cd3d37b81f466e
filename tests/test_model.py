"""Value objects: dates, rich text, bibliographic records, references."""

import copy
import dataclasses
import datetime
import inspect
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from teijournal import corpus, render, schema, validator, xmlio
from teijournal import model as m
from teijournal.base import Finding, Record, factory

from support import parse_skeleton


class TestCalendarDate:
    def test_full_date(self):
        d = m.CalendarDate(2009, 6, 1)
        assert (d.year, d.month, d.day) == (2009, 6, 1)
        assert d.precision == "day"
        assert d.iso() == "2009-06-01"
        assert d.raw == "2009-06-01"

    def test_year_and_month_precision(self):
        assert m.CalendarDate(2009).precision == "year"
        assert m.CalendarDate(2009, 6).precision == "month"
        assert m.CalendarDate(2009, 6).iso() == "2009-06"

    def test_parse_three_shapes(self):
        assert m.CalendarDate.parse("1981") == m.CalendarDate(1981, raw="1981")
        assert m.CalendarDate.parse("2009-06") == m.CalendarDate(2009, 6, raw="2009-06")
        assert m.CalendarDate.parse("1969-02-07") == m.CalendarDate(
            1969, 2, 7, raw="1969-02-07"
        )

    @pytest.mark.parametrize(
        "bad",
        ["", "sometime", "81", "2009-13", "2009-00", "2009-02-30", "2009-06-32", "2009-6-1"],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            m.CalendarDate.parse(bad)

    def test_day_requires_month(self):
        with pytest.raises(ValueError):
            m.CalendarDate(2009, None, 5)

    def test_sort_and_end_keys_pad_precision(self):
        year_only = m.CalendarDate(2009)
        assert year_only.sort_key() == (2009, 1, 1)
        assert year_only.end_key() == (2009, 12, 31)
        assert m.CalendarDate(2009, 6).end_key() == (2009, 6, 30)
        assert m.CalendarDate(2009, 6, 1).sort_key() == (2009, 6, 1)

    @given(st.dates())
    def test_roundtrip_through_parse(self, d):
        date = m.CalendarDate(d.year, d.month, d.day)
        assert m.CalendarDate.parse(date.iso()).sort_key() == date.sort_key()

    @given(st.integers(1, 9999), st.integers(1, 12))
    def test_sort_key_never_after_end_key(self, year, month):
        date = m.CalendarDate(year, month)
        assert date.sort_key() <= date.end_key()

    @settings(max_examples=300)
    @given(st.integers(1, 9999), st.integers(1, 12), st.integers(1, 31))
    @example(2009, 2, 29)
    @example(2008, 2, 29)
    @example(1900, 2, 29)
    @example(2000, 2, 29)
    def test_days_follow_the_gregorian_calendar(self, year, month, day):
        try:
            expected = datetime.date(year, month, day)
        except ValueError:
            with pytest.raises(ValueError, match="day out of range"):
                m.CalendarDate(year, month, day)
            return
        assert m.CalendarDate(year, month, day).iso() == expected.isoformat()

    @given(st.one_of(st.integers(1, 9999), st.sampled_from([1900, 2000, 2008, 2009, 2100])),
           st.integers(1, 12))
    def test_month_end_key_is_its_last_day(self, year, month):
        last = max(day for day in range(28, 32) if _is_date(year, month, day))
        assert m.CalendarDate(year, month).end_key() == (year, month, last)
        assert m.CalendarDate.parse(f"{year:04d}-{month:02d}").end_key() == (year, month, last)


def _is_date(year: int, month: int, day: int) -> bool:
    try:
        datetime.date(year, month, day)
    except ValueError:
        return False
    return True


class TestRichText:
    def test_plain_text_flattens_nesting(self):
        content = (
            m.TextRun("see "),
            m.Emph("italic", (m.TextRun("deep "), m.Emph("bold", (m.TextRun("er"),)))),
            m.BiblRef("#b1", "[1]"),
            m.PersonMention("Dean"),
            m.AbbrMention("DNA", "deoxyribonucleic acid"),
            m.Link("https://example.org", "site"),
            m.OpaqueInline("<x:q/>"),
        )
        assert m.plain_text(content) == "see deep er[1]DeanDNAsite"

    def test_normalize_title_collapses_whitespace(self):
        assert m.normalize_title("  A\n  Title\t here ") == "A Title here"
        assert m.normalize_title((m.TextRun(" A  B "),)) == "A B"

    @given(st.text())
    def test_normalize_title_idempotent(self, text):
        once = m.normalize_title(text)
        assert m.normalize_title(once) == once


def _record():
    return m.BiblStruct(
        doc_type=m.DocumentType("journalArticle"),
        analytic=m.Analytic(
            titles=(
                m.Title((m.TextRun("Inner"),), "a", "main"),
                m.Title((m.TextRun("Sub"),), "a", "subordinate"),
            ),
            authors=(m.Author(surname="Dean", forenames=("Michael",)),),
        ),
        monogr=m.Monogr(
            titles=(m.Title((m.TextRun("Outer"),), "j", "main"),),
            authors=(m.Author(surname="Wilson"),),
            imprint=m.Imprint(
                scopes=(m.Scope("vol", "17"), m.Scope("fpage", "774"))
            ),
        ),
        identifiers=(m.Identifier("DOI", "10.1/x"),),
        xml_id="b1",
    )


class TestBiblStruct:
    def test_main_title_prefers_analytic(self):
        assert m.plain_text(_record().main_title().text) == "Inner"

    def test_main_title_falls_back_to_monogr(self):
        record = dataclasses.replace(_record(), analytic=None)
        assert m.plain_text(record.main_title().text) == "Outer"

    def test_main_title_none_when_no_main(self):
        record = m.BiblStruct(
            monogr=m.Monogr(titles=(m.Title((m.TextRun("Running"),), "j", "running"),))
        )
        assert record.main_title() is None

    def test_authors_fall_back_to_container(self):
        record = _record()
        assert record.authors()[0].surname == "Dean"
        no_analytic = dataclasses.replace(record, analytic=None)
        assert no_analytic.authors()[0].surname == "Wilson"

    def test_scope_lookup(self):
        record = _record()
        assert record.scope("vol") == "17"
        assert record.scope("lpage") is None

    def test_identifier_case_insensitive(self):
        record = _record()
        assert record.identifier("doi") == "10.1/x"
        assert record.identifier("DOI") == "10.1/x"
        assert record.identifier("isbn") is None

    def test_scope_kinds_vocabulary(self):
        assert m.SCOPE_KINDS == ("vol", "issue", "fpage", "lpage", "pp")


class TestArticleOps:
    def _article(self):
        listbibl = m.ListBibl(entries=(_record(),))
        return m.Article(
            id="a1",
            header=m.Header(
                file_desc=m.FileDesc(publication_date=m.CalendarDate(2009, 6, 1))
            ),
            back=m.BackMatter(reference_list=listbibl),
        )

    def test_resolve_ref(self):
        article = self._article()
        assert m.resolve_ref(article, "#b1").xml_id == "b1"
        assert m.resolve_ref(article, "#nope") is None

    def test_resolve_ref_rejects_non_fragment(self):
        with pytest.raises(ValueError):
            m.resolve_ref(self._article(), "b1")

    def test_document_date(self):
        assert m.document_date(self._article()) == m.CalendarDate(2009, 6, 1)
        assert m.document_date(m.Article()) is None

    def test_derive_article_id_prefers_doi(self):
        assert m.derive_article_id(_record(), "folder/file.xml") == "10.1/x"

    def test_derive_article_id_file_stem(self):
        record = dataclasses.replace(_record(), identifiers=())
        assert m.derive_article_id(record, "folder/file.tei.xml") == "file.tei"
        assert m.derive_article_id(None, r"c:\docs\other.xml") == "other"
        assert m.derive_article_id(None, None) == ""


class TestImmutability:
    def test_frozen(self):
        record = _record()
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.xml_id = "b2"

    def test_structural_equality(self):
        assert _record() == _record()
        assert _record() != dataclasses.replace(_record(), xml_id="zz")


# Copies of the model classes that keep the methods dataclasses generate:
# the oracle for the iterative equality and repr of the nesting classes.
GENERATED = {
    cls: dataclasses.make_dataclass(
        cls.__name__,
        [(f.name, f.type, dataclasses.field(default=f.default))
         for f in dataclasses.fields(cls)],
        frozen=True,
    )
    for cls in (m.Emph, m.Division)
}


def rebuilt(node, classes: dict = GENERATED):
    """A structurally equal copy of ``node`` made of new objects, with the
    classes in ``classes`` swapped for their copies."""
    if isinstance(node, tuple):
        return tuple(rebuilt(item, classes) for item in node)
    if dataclasses.is_dataclass(node):
        values = {f.name: rebuilt(getattr(node, f.name), classes)
                  for f in dataclasses.fields(node)}
        return classes.get(type(node), type(node))(**values)
    return node


WORDS = st.sampled_from(["", "a", "it's"])
INLINE = st.recursive(
    st.builds(m.TextRun, WORDS) | st.builds(m.OpaqueInline, WORDS),
    lambda inner: st.builds(
        m.Emph, st.sampled_from(["", "i"]), st.lists(inner, max_size=3).map(tuple)
    ),
    max_leaves=10,
)
RICH = st.lists(INLINE, max_size=2).map(tuple)
DIVISION = st.recursive(
    st.builds(m.Division, st.sampled_from(["s", "t"]), RICH),
    lambda inner: st.builds(
        m.Division,
        st.sampled_from(["s", "t"]),
        RICH,
        st.lists(st.builds(m.Paragraph, RICH), max_size=2).map(tuple),
        st.lists(inner, max_size=2).map(tuple),
    ),
    max_leaves=6,
)


class TestNestedEqualityAndRepr:
    @given(DIVISION, DIVISION)
    def test_match_the_generated_methods(self, a, b):
        assert repr(a) == repr(rebuilt(a))
        assert (a == b) == (rebuilt(a) == rebuilt(b))
        assert (a != b) == (rebuilt(a) != rebuilt(b))
        copy = rebuilt(a, {})
        assert copy == a and copy is not a
        assert hash(copy) == hash(a)

    def test_other_types_compare_unequal(self):
        emph = m.Emph("i", (m.TextRun("x"),))
        assert emph != m.TextRun("x")
        assert emph != ("i", (m.TextRun("x"),))
        assert m.Division() != m.Paragraph()
        assert dataclasses.replace(emph, rend="b") == m.Emph("b", emph.content)
        assert [f.name for f in dataclasses.fields(m.Division)] == [
            "kind", "head", "blocks", "children"
        ]


# Every model class against a copy made by ``make_dataclass``: the oracle
# for equality, hash and repr of every record.
MODEL_CLASSES = tuple(
    cls for cls in vars(m).values()
    if isinstance(cls, type) and issubclass(cls, Record) and cls.__module__ == m.__name__
)
ALL_GENERATED = {
    cls: dataclasses.make_dataclass(
        cls.__name__,
        [(f.name, f.type, dataclasses.field(default=f.default,
                                            default_factory=f.default_factory))
         for f in dataclasses.fields(cls)],
        frozen=True,
    )
    for cls in MODEL_CLASSES
}
TUPLE_ITEM = st.one_of(
    WORDS,
    st.builds(m.TextRun, WORDS),
    st.builds(m.Emph, WORDS, st.lists(st.builds(m.TextRun, WORDS), max_size=2).map(tuple)),
    st.lists(st.builds(m.TextRun, WORDS), max_size=1).map(tuple),
)


def field_values(hint: str):
    """Values for a model field, drawn from its annotation."""
    options = []
    for name in hint.strip("'").split(" | "):
        if name == "None":
            options.append(st.none())
        elif name == "str":
            options.append(WORDS)
        elif name == "bool":
            options.append(st.booleans())
        elif name in ("tuple", "RichText"):
            options.append(st.lists(TUPLE_ITEM, max_size=2).map(tuple))
        else:
            options.append(nodes(getattr(m, name)))
    return st.one_of(options)


def nodes(cls: type):
    if cls is m.CalendarDate:
        return st.builds(cls, st.integers(2000, 2001), st.sampled_from([None, 1, 12]))
    return st.builds(cls, **{f.name: field_values(f.type) for f in dataclasses.fields(cls)})


NODE_PAIRS = st.sampled_from(MODEL_CLASSES).flatmap(lambda cls: st.tuples(nodes(cls), nodes(cls)))


class TestEveryModelClassMatchesTheGeneratedMethods:
    def test_oracle_covers_the_whole_model(self):
        assert len(MODEL_CLASSES) == 42
        assert {m.Emph, m.Division, m.Article, m.CalendarDate} <= set(MODEL_CLASSES)

    @settings(max_examples=300, deadline=None)
    @given(NODE_PAIRS)
    def test_eq_ne_hash_and_repr(self, pair):
        a, b = pair
        generated_a, generated_b = rebuilt(a, ALL_GENERATED), rebuilt(b, ALL_GENERATED)
        assert repr(a) == repr(generated_a)
        assert (a == b) == (generated_a == generated_b)
        assert (a != b) == (generated_a != generated_b)
        assert hash(a) == hash(generated_a)
        copy = rebuilt(a, {})
        assert copy == a and not copy != a and hash(copy) == hash(a)


RECORD_CLASSES = [cls for cls in Record.__subclasses__()
                  if cls.__module__.startswith("teijournal.")]
MUTABLE_RECORDS = (schema.ElementUsage, schema.UsageProfile)


# Values for the required fields that "x" does not satisfy.
SAMPLE_VALUES = {m.CalendarDate: {"year": 2009, "month": 6}, corpus.Query: {"text": "a"},
                 schema.RewriteRule: {"to_value": "y"}}


def sample_record(cls: type) -> Record:
    """A record of ``cls``: "x" for every required field, defaults elsewhere."""
    values = {name: "x" for name, p in inspect.signature(cls).parameters.items()
              if p.default is inspect.Parameter.empty}
    return cls(**{**values, **SAMPLE_VALUES.get(cls, {})})


class TestRecordContract:
    def test_every_module_defines_records(self):
        modules = {cls.__module__ for cls in RECORD_CLASSES}
        assert modules == {f"teijournal.{name}" for name in (
            "base", "model", "xmlio", "validator", "render", "corpus", "schema")}
        assert len(RECORD_CLASSES) == 62

    @pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda cls: cls.__qualname__)
    def test_fields_defaults_and_assignment(self, cls):
        declared = list(cls.__annotations__)
        assert dataclasses.is_dataclass(cls)
        assert [f.name for f in dataclasses.fields(cls)] == declared
        defaults = {name: p.default for name, p in inspect.signature(cls).parameters.items()
                    if p.default is not inspect.Parameter.empty}
        required = {}
        for f in dataclasses.fields(cls):
            default = defaults.get(f.name, dataclasses.MISSING)
            if isinstance(default, factory):
                assert (f.default, f.default_factory) == (dataclasses.MISSING, default.make)
            else:
                assert (f.default, f.default_factory) == (default, dataclasses.MISSING)
                if default is dataclasses.MISSING:
                    required[f.name] = "x"
        made = [f.name for f in dataclasses.fields(cls)
                if f.default_factory is not dataclasses.MISSING]
        if made:
            one, two = cls(**required), cls(**required)
            for name in made:
                assert getattr(one, name) == getattr(two, name)
                assert getattr(one, name) is not getattr(two, name)
        if cls not in MUTABLE_RECORDS:
            # a bare instance: the frozen guard needs no valid field values
            node = object.__new__(cls)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(node, declared[0], None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(node, declared[0])

    @pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda cls: cls.__qualname__)
    def test_slotted_without_a_metaclass(self, cls):
        assert type(cls) is type
        extra = ("__dict__",) if cls is m.Article else ()
        assert cls.__slots__ == tuple(cls.__annotations__) + extra
        assert hasattr(object.__new__(cls), "__dict__") == (cls is m.Article)
        assert not hasattr(cls, "__weakref__")

    @pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda cls: cls.__qualname__)
    def test_copy_deepcopy_and_pickle_rebuild_an_equal_record(self, cls):
        record = sample_record(cls)
        for twin in (copy.copy(record), copy.deepcopy(record),
                     pickle.loads(pickle.dumps(record))):
            assert twin is not record
            assert twin.__class__ is cls and twin == record

    def test_parsed_article_round_trips_without_its_memos(self):
        article = parse_skeleton()
        assert render.citation_order(article) and xmlio.model_paths(article)
        assert article.entries_by_id
        # both pages, so the formatted reference entries are kept as well
        pages = (render.render_xhtml(article, render.builtin_style("chicago")),
                 render.render_plaintext(article))
        serialized = xmlio.serialize_article(article)
        twins = [copy.copy(article), copy.deepcopy(article)]
        twins += [pickle.loads(pickle.dumps(article, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in twins:
            assert twin.__class__ is m.Article and twin == article
            assert twin.__dict__ == {}
            assert xmlio.serialize_article(twin) == serialized
            assert xmlio.model_paths(twin) == xmlio.model_paths(article)
            assert (render.render_xhtml(twin, render.builtin_style("chicago")),
                    render.render_plaintext(twin)) == pages

    def test_mutable_schema_records_accept_assignment_and_are_unhashable(self):
        for cls in MUTABLE_RECORDS:
            record, name = cls(), dataclasses.fields(cls)[0].name
            setattr(record, name, 5)
            assert getattr(record, name) == 5
            assert cls.__hash__ is None
            with pytest.raises(TypeError):
                hash(record)
        usage = schema.ElementUsage()
        usage.count += 2
        assert usage == schema.ElementUsage(count=2)

    def test_replace_runs_post_init_again(self):
        date = m.CalendarDate(2009, 6)
        with pytest.raises(ValueError, match="month out of range: 13"):
            dataclasses.replace(date, month=13)
        assert dataclasses.replace(date, month=7, raw="") == m.CalendarDate(2009, 7)
        with pytest.raises(ValueError, match="at least one filter"):
            dataclasses.replace(corpus.Query(text="a"), text=None)
        with pytest.raises(ValueError, match="enumeration_cap"):
            dataclasses.replace(schema.CodifyOptions(), enumeration_cap=0)
        with pytest.raises(ValueError, match="unknown rules"):
            dataclasses.replace(validator.ValidatorConfig(), severity_overrides={"R0": "error"})
        with pytest.raises(ValueError, match="to itself"):
            dataclasses.replace(schema.RewriteRule("a", "k", "v", "w"), to_value="v")

    def test_positional_and_keyword_construction(self):
        assert render.Span("t") == render.Span(text="t", typography="plain")
        assert Finding("P-x", "error", "", "m") == Finding(
            rule_id="P-x", severity="error", location="", message="m")
        with pytest.raises(TypeError):
            Finding("P-x", "error", "")
        assert m.Monogr().imprint == m.Imprint() and m.BiblStruct().doc_type.value == "unknown"

