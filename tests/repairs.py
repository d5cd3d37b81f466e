"""The repair catalogue: one TEI document, ``REPAIR_BASE``, and ``REPAIRS``,
one replacement in it per edge shape the builder repairs, reports or keeps
verbatim, with the issues each reports and one model fact it leaves.

``tests/test_xmlio.py::TestRepairTable`` checks every row.
``tools/digest.py`` writes the base and each changed document among the
inputs of its build, so a new row is digested with no edit to the tool.
This module therefore imports the standard library and
``teijournal.model`` only.
"""

from teijournal import model as m

TEI = b'<TEI xmlns="http://www.tei-c.org/ns/1.0">'


def wrap(header: bytes = b"", text: bytes = b"<body><div type=\"s\"><p>x</p></div></body>") -> bytes:
    header_block = header or (
        b"<fileDesc><titleStmt><title level=\"a\" type=\"main\">T</title></titleStmt>"
        b"<publicationStmt><authority>A</authority></publicationStmt></fileDesc>"
    )
    return (
        b'<?xml version="1.0" encoding="UTF-8"?>\n'
        + TEI
        + b"<teiHeader>"
        + header_block
        + b"</teiHeader><text>"
        + text
        + b"</text></TEI>\n"
    )


def serialize_article(article: m.Article) -> bytes:
    """``xmlio.serialize_article``, imported on the first call of a fact
    that reads the canonical bytes."""
    from teijournal.xmlio import serialize_article as serialize

    return serialize(article)


# --------------------------------------------------------------------------
# Every repair of the builder: one document, changed by one replacement per
# case, with the issues the repair reports, one model fact it leaves, and
# the parse ∘ serialize fixpoint of its outcome
# --------------------------------------------------------------------------

REPAIR_BASE = wrap(
    header=b'<fileDesc><titleStmt><title level="a" type="main">T</title></titleStmt>'
    b"<publicationStmt><availability><p>Open.</p></availability><authority>A</authority>"
    b'</publicationStmt><sourceDesc><biblStruct type="journalArticle"><analytic>'
    b'<title level="a" type="main">T</title><author><persName><forename>Ann</forename>'
    b'<surname>Lee</surname></persName><affiliation><orgName type="institution">U</orgName>'
    b"<address><country>NZ</country></address></affiliation></author></analytic>"
    b'<monogr><title level="j" type="main">J</title><imprint><date when="2009"/></imprint>'
    b"</monogr></biblStruct></sourceDesc></fileDesc>"
    b"<profileDesc><textClass><keywords><term>k</term></keywords></textClass></profileDesc>"
    b'<revisionDesc><change when="2009-01-01">Received</change></revisionDesc>',
    text=b'<front><div type="abstract"><p>A.</p></div></front>'
    b'<body><div type="section"><p>x</p></div></body>'
    b'<back><listBibl><biblStruct xml:id="r1"><monogr><title level="m" type="main">B</title>'
    b'<imprint><date when="2001"/></imprint></monogr></biblStruct></listBibl></back>',
)

_H = "TEI[1]/teiHeader[1]"
_FD = _H + "/fileDesc[1]"
_SRC = _FD + "/sourceDesc[1]/biblStruct[1]"
_KW = _H + "/profileDesc[1]/textClass[1]/keywords[1]"
_AUTHOR = _SRC + "/analytic[1]/author[1]"
_T = "TEI[1]/text[1]"
_ENTRY = _T + "/back[1]/listBibl[1]/biblStruct[1]"
_ENTRY_TITLE = b'<monogr><title level="m" type="main">B</title>'


def _source(article):
    return article.header.file_desc.source


def _entry(article):
    return article.reference_list.entries[0]


def _dropped(location: str, name: str, context: str) -> tuple:
    return (("P-unknown-element", "warning", location,
             f"unknown element '{name}' in {context} dropped"),)


def _para(text: str) -> tuple:
    return (m.Paragraph((m.TextRun(text),)),)


#: id -> ((old, new) replacement in REPAIR_BASE, issues, model fact, its value)
REPAIRS = {
    "stray-text-in-div": (
        (b'<div type="section"><p>x', b'<div type="section">loose<p>x'),
        (("P-stray-text-in-div", "warning", _T + "/body[1]/div[1]",
          "stray text inside div wrapped as paragraph"),),
        lambda a: a.body[0].blocks[0], _para("loose")[0],
    ),
    "stray-text-in-front": (
        (b"<front>", b"<front>loose"),
        (("P-stray-text", "warning", _T + "/front[1]", "stray text in front wrapped in div"),),
        lambda a: a.front[0].blocks, _para("loose"),
    ),
    "stray-text-in-body": (
        (b"<body>", b"<body>loose"),
        (("P-stray-text", "warning", _T + "/body[1]", "stray text in body wrapped in div"),),
        lambda a: a.body[0].blocks, _para("loose"),
    ),
    "stray-text-in-back": (
        (b"<back>", b"<back>loose"),
        (("P-stray-text", "warning", _T + "/back[1]", "stray text in back wrapped in div"),),
        lambda a: a.back.divisions[0].blocks, _para("loose"),
    ),
    # text directly in TEI or text is dropped, not wrapped
    "stray-text-in-TEI-dropped": (
        (b"<teiHeader>", b"lost words<teiHeader>"),
        (("P-stray-text", "warning", "TEI[1]", "stray text in TEI dropped"),),
        lambda a: b"lost" in serialize_article(a), False,
    ),
    "stray-text-in-text-dropped": (
        (b"<front>", b"lost words<front>"),
        (("P-stray-text", "warning", _T, "stray text in text dropped"),),
        lambda a: b"lost" in serialize_article(a), False,
    ),
    "element-in-text-wrapped-into-body": (
        (b"</body>", b"</body><p>late</p>"),
        (("P-wrapped-into-body", "warning", _T + "/p[1]",
          "element 'p' in text wrapped into body"),),
        lambda a: a.body[-1].blocks, _para("late"),
    ),
    "div-in-text-read-as-a-div": (
        (b"</body>", b'</body><div type="late"><head>H</head><p>late</p></div>'),
        (("P-wrapped-into-body", "warning", _T + "/div[1]",
          "element 'div' in text wrapped into body"),),
        lambda a: a.body[-1], m.Division("late", (m.TextRun("H"),), _para("late")),
    ),
    "head-in-body-heads-a-div": (
        (b"<body>", b'<body><head rend="x">H</head>'),
        (("P-wrapped", "warning", _T + "/body[1]/head[1]",
          "element 'head' in body wrapped in div"),),
        lambda a: a.body[0], m.Division(head=(m.TextRun("H"),)),
    ),
    "unknown-in-biblStruct": (
        (b"</monogr></biblStruct></sourceDesc>", b"</monogr><note>n</note></biblStruct></sourceDesc>"),
        _dropped(_SRC + "/note[1]", "note", "biblStruct"),
        lambda a: _source(a).doc_type.value, "journalArticle",
    ),
    "unknown-in-analytic": (
        (b"<analytic>", b"<analytic><note>n</note>"),
        _dropped(_SRC + "/analytic[1]/note[1]", "note", "analytic"),
        lambda a: len(_source(a).analytic.authors), 1,
    ),
    "unknown-in-monogr": (
        (b'<monogr><title level="j"', b'<monogr><note>n</note><title level="j"'),
        _dropped(_SRC + "/monogr[1]/note[1]", "note", "monogr"),
        lambda a: _source(a).monogr.titles[0].level, "j",
    ),
    "unknown-in-imprint": (
        (b'<date when="2009"/>', b'<date when="2009"/><note>n</note>'),
        _dropped(_SRC + "/monogr[1]/imprint[1]/note[1]", "note", "imprint"),
        lambda a: _source(a).monogr.imprint.date.year, 2009,
    ),
    "unknown-in-persName": (
        (b"</surname></persName>", b"</surname><roleName>Dr</roleName></persName>"),
        _dropped(_AUTHOR + "/persName[1]/roleName[1]", "roleName", "persName"),
        lambda a: _source(a).analytic.authors[0].surname, "Lee",
    ),
    "unknown-in-author": (
        (b"</affiliation></author>", b"</affiliation><note>n</note></author>"),
        _dropped(_AUTHOR + "/note[1]", "note", "author"),
        lambda a: _source(a).analytic.authors[0].forenames, ("Ann",),
    ),
    "unknown-in-affiliation": (
        (b"<affiliation>", b"<affiliation><note>n</note>"),
        _dropped(_AUTHOR + "/affiliation[1]/note[1]", "note", "affiliation"),
        lambda a: _source(a).analytic.authors[0].affiliation.org_units,
        (m.OrgUnit("institution", "U"),),
    ),
    "empty-unknown-in-address": (
        (b"<address>", b"<address><district/>"),
        _dropped(_AUTHOR + "/affiliation[1]/address[1]/district[1]", "district", "address"),
        lambda a: _source(a).analytic.authors[0].affiliation.address.country, "NZ",
    ),
    "typed-address-lines": (
        (b"<address>", b'<address><addrLine type="phone">1</addrLine><district>D</district>'),
        (),
        lambda a: _source(a).analytic.authors[0].affiliation.address.lines,
        (m.AddressLine("1", "phone"), m.AddressLine("D", "district")),
    ),
    "unknown-in-titleStmt": (
        (b"</title></titleStmt>", b"</title><editor>E</editor></titleStmt>"),
        _dropped(_FD + "/titleStmt[1]/editor[1]", "editor", "titleStmt"),
        lambda a: a.header.file_desc.main_title, (m.TextRun("T"),),
    ),
    "extra-titleStmt-title": (
        (b"</title></titleStmt>", b'</title><title type="sub">S</title></titleStmt>'),
        (("P-extra-element", "warning", _FD + "/titleStmt[1]/title[2]",
          "additional titleStmt title dropped; first kept"),),
        lambda a: a.header.file_desc.main_title, (m.TextRun("T"),),
    ),
    "unknown-in-sourceDesc": (
        (b"</biblStruct></sourceDesc>", b"</biblStruct><bibl>b</bibl></sourceDesc>"),
        _dropped(_FD + "/sourceDesc[1]/bibl[1]", "bibl", "sourceDesc"),
        lambda a: _source(a).monogr.titles[0].text, (m.TextRun("J"),),
    ),
    "unknown-in-publicationStmt": (
        (b"<authority>A</authority>", b"<authority>A</authority><pubPlace>X</pubPlace>"),
        _dropped(_FD + "/publicationStmt[1]/pubPlace[1]", "pubPlace", "publicationStmt"),
        lambda a: a.header.file_desc.authority, "A",
    ),
    "extra-availability-paragraph": (
        (b"<p>Open.</p></availability>", b"<p>Open.</p><p>More.</p></availability>"),
        (("P-extra-availability", "warning", _FD + "/publicationStmt[1]/availability[1]/p[2]",
          "additional availability paragraph dropped"),),
        lambda a: a.header.file_desc.availability, (m.TextRun("Open."),),
    ),
    "bare-text-availability": (
        (b"<availability><p>Open.</p></availability>", b"<availability>Open.</availability>"),
        (),
        lambda a: a.header.file_desc.availability, (m.TextRun("Open."),),
    ),
    "unknown-in-availability": (
        (b"<availability><p>", b"<availability><licence>CC BY</licence><p>"),
        _dropped(_FD + "/publicationStmt[1]/availability[1]/licence[1]", "licence",
                 "availability"),
        lambda a: a.header.file_desc.availability, (m.TextRun("Open."),),
    ),
    "stray-text-beside-availability-paragraph": (
        (b"<availability><p>", b"<availability>lost <p>"),
        (("P-stray-text", "warning", _FD + "/publicationStmt[1]/availability[1]",
          "stray text beside availability paragraphs dropped"),),
        lambda a: a.header.file_desc.availability, (m.TextRun("Open."),),
    ),
    "unknown-in-textClass": (
        (b"</keywords></textClass>", b"</keywords><classCode>c</classCode></textClass>"),
        _dropped(_H + "/profileDesc[1]/textClass[1]/classCode[1]", "classCode", "textClass"),
        lambda a: a.header.profile_desc.keywords, (m.Keyword("k"),),
    ),
    "unknown-in-profileDesc": (
        (b"</textClass></profileDesc>", b"</textClass><abstract>a</abstract></profileDesc>"),
        _dropped(_H + "/profileDesc[1]/abstract[1]", "abstract", "profileDesc"),
        lambda a: a.header.profile_desc.keywords, (m.Keyword("k"),),
    ),
    "unknown-in-keywords": (
        (b"<keywords><term>", b"<keywords><note>n</note><term>"),
        _dropped(_H + "/profileDesc[1]/textClass[1]/keywords[1]/note[1]", "note", "keywords"),
        lambda a: a.header.profile_desc.keywords, (m.Keyword("k"),),
    ),
    # a keyword list's head is presentation; anything else beside its items
    # and terms is reported, and a term-less item is its own term
    "keyword-list-head": (
        (b"<keywords><term>k</term>", b"<keywords><list><head>Keywords</head><item><term>k"
         b"</term></item><item>j <hi>i</hi></item></list>"),
        (),
        lambda a: a.header.profile_desc.keywords, (m.Keyword("k"), m.Keyword("j i")),
    ),
    "unknown-in-keyword-list": (
        (b"<keywords><term>k</term>", b"<keywords><list><label>L</label><item><term>k</term>"
         b"</item></list>"),
        _dropped(_KW + "/list[1]/label[1]", "label", "list"),
        lambda a: a.header.profile_desc.keywords, (m.Keyword("k"),),
    ),
    "unknown-in-keyword-item": (
        (b"<keywords><term>k</term>", b"<keywords><list><item><term>k</term><note>n</note>"
         b"</item></list>"),
        _dropped(_KW + "/list[1]/item[1]/note[1]", "note", "item"),
        lambda a: a.header.profile_desc.keywords, (m.Keyword("k"),),
    ),
    "stray-text-beside-a-term": (
        (b"<keywords><term>k</term>", b"<keywords><list><item><term>k</term> and more</item>"
         b"</list>"),
        (("P-stray-text", "warning", _KW + "/list[1]/item[1]",
          "stray text beside a term in item dropped"),),
        lambda a: a.header.profile_desc.keywords, (m.Keyword("k"),),
    ),
    "unknown-in-revisionDesc": (
        (b"</revisionDesc>", b"<note>n</note></revisionDesc>"),
        _dropped(_H + "/revisionDesc[1]/note[1]", "note", "revisionDesc"),
        lambda a: len(a.header.revision_desc.changes), 1,
    ),
    "unparseable-change-date": (
        (b"</revisionDesc>", b'<change when="someday">Revised</change></revisionDesc>'),
        (("P-bad-change-date", "warning", _H + "/revisionDesc[1]/change[2]",
          "change with unparseable date 'someday' dropped"),),
        lambda a: [c.kind for c in a.header.revision_desc.changes], ["received"],
    ),
    "unknown-in-listBibl": (
        (b"<listBibl>", b"<listBibl><head>Refs</head>"),
        _dropped(_T + "/back[1]/listBibl[1]/head[1]", "head", "listBibl"),
        lambda a: _entry(a).xml_id, "r1",
    ),
    "unknown-in-TEI": (
        (b"</text></TEI>", b"</text><facsimile/></TEI>"),
        _dropped("TEI[1]/facsimile[1]", "facsimile", "TEI"),
        lambda a: len(a.body), 1,
    ),
    "unknown-in-teiHeader": (
        (b"</revisionDesc>", b"</revisionDesc><encodingDesc/>"),
        _dropped(_H + "/encodingDesc[1]", "encodingDesc", "teiHeader"),
        lambda a: len(a.header.revision_desc.changes), 1,
    ),
    "editor-read-as-author": (
        (_ENTRY_TITLE, _ENTRY_TITLE + b"<editor><persName><surname>Ed</surname></persName></editor>"),
        (),
        lambda a: _entry(a).monogr.authors, (m.Author(surname="Ed"),),
    ),
    "orgName-in-the-author-slot": (
        (_ENTRY_TITLE, _ENTRY_TITLE + b"<author><orgName>The Group</orgName></author>"),
        (),
        lambda a: _entry(a).monogr.authors, (m.Author(surname="The Group"),),
    ),
    "imprint-date-without-a-value": (
        (b'<date when="2001"/>', b"<date/>"),
        (("P-no-date", "warning", _ENTRY + "/monogr[1]/imprint[1]/date[1]",
          "imprint date has no usable value; dropped"),),
        lambda a: _entry(a).monogr.imprint.date, None,
    ),
    "unparseable-imprint-date": (
        (b'<date when="2001"/>', b'<date when="soon"/>'),
        (("P-bad-date", "warning", _ENTRY + "/monogr[1]/imprint[1]/date[1]",
          "unparseable imprint date 'soon'; dropped"),),
        lambda a: _entry(a).monogr.imprint.date, None,
    ),
    "unicode-digit-imprint-date": (
        (b'<date when="2001"/>', '<date when="\u0662\u0660\u0660\u0661"/>'.encode()),
        (("P-bad-date", "warning", _ENTRY + "/monogr[1]/imprint[1]/date[1]",
          "unparseable imprint date '\u0662\u0660\u0660\u0661'; dropped"),),
        lambda a: _entry(a).monogr.imprint.date, None,
    ),
    "unicode-digit-publication-date": (
        (b"<authority>A</authority>",
         '<date when="\u0662\u0660\u0660\u0669-06-01"/><authority>A</authority>'.encode()),
        (("P-bad-date", "warning", _FD + "/publicationStmt[1]/date[1]",
          "unparseable publication date '\u0662\u0660\u0660\u0669-06-01'; dropped"),),
        lambda a: a.header.file_desc.publication_date, None,
    ),
    "unicode-digit-change-date": (
        (b'<change when="2009-01-01">', '<change when="\u0662\u0660\u0660\u0669-01-01">'.encode()),
        (("P-bad-change-date", "warning", _H + "/revisionDesc[1]/change[1]",
          "change with unparseable date '\u0662\u0660\u0660\u0669-01-01' dropped"),),
        lambda a: a.header.revision_desc.changes, (),
    ),
    "date-role-without-a-date": (
        (b'<date when="2001"/>', b'<date type="accessed"/>'),
        (("P-no-date", "warning", _ENTRY + "/monogr[1]/imprint[1]/date[1]",
          "imprint date has no usable value; dropped"),),
        lambda a: _entry(a).monogr.imprint.date_role, "published",
    ),
    "imprint-date-with-a-role": (
        (b'<date when="2001"/>', b'<date type="Accessed" when="2001-02-03"/>'),
        (),
        lambda a: (_entry(a).monogr.imprint.date_role, _entry(a).monogr.imprint.date.iso()),
        ("accessed", "2001-02-03"),
    ),
    "bibr-ref-without-text": (
        (b"<p>x</p>", b'<p>x<ref type="bibr" target="#r1"/></p>'),
        (),
        lambda a: a.body[0].blocks[0].content[1], m.BiblRef("#r1", ""),
    ),
    "non-ISSN-idno-in-monogr-joins-the-record": (
        (_ENTRY_TITLE, _ENTRY_TITLE + b'<idno type="ISBN">123</idno>'),
        (),
        lambda a: (_entry(a).identifiers,
                   b'</monogr>\n          <idno type="ISBN">123</idno>\n' in serialize_article(a)),
        ((m.Identifier("ISBN", "123"),), True),
    ),
    "doc-type-journalArticle": (
        (_ENTRY_TITLE, b'<analytic><title level="a">P</title></analytic>'
         b'<monogr><title level="j" type="main">B</title>'),
        (),
        lambda a: _entry(a).doc_type.value, "journalArticle",
    ),
    "doc-type-bookSection": (
        (_ENTRY_TITLE, b'<analytic><title level="a">P</title></analytic>' + _ENTRY_TITLE),
        (),
        lambda a: _entry(a).doc_type.value, "bookSection",
    ),
    "doc-type-unknown-with-analytic": (
        (_ENTRY_TITLE, b'<analytic><title level="a">P</title></analytic><monogr>'),
        (),
        lambda a: _entry(a).doc_type.value, "unknown",
    ),
    "doc-type-book": (
        (_ENTRY_TITLE, _ENTRY_TITLE),
        (),
        lambda a: _entry(a).doc_type.value, "book",
    ),
    "doc-type-unknown": (
        (_ENTRY_TITLE, b'<monogr><title level="j" type="main">B</title>'),
        (),
        lambda a: _entry(a).doc_type.value, "unknown",
    ),
    "date-typ-read-as-type": (
        (b'<date when="2009"/>', b'<date typ="Accessed" when="2009"/>'),
        (("P-typ-attr", "warning", _SRC + "/monogr[1]/imprint[1]/date[1]",
          "attribute 'typ' on date read as 'type'"),),
        lambda a: _source(a).monogr.imprint.date_role, "accessed",
    ),
    "extra-source-record-dropped": (
        (b"</biblStruct></sourceDesc>",
         b'</biblStruct><biblStruct><monogr><title level="m">S</title></monogr></biblStruct>'
         b"</sourceDesc>"),
        (("P-extra-element", "warning", _FD + "/sourceDesc[1]/biblStruct[2]",
          "additional sourceDesc biblStruct dropped; first kept"),),
        lambda a: _source(a).monogr.titles[0].text, (m.TextRun("J"),),
    ),
    "extra-listBibl-merged": (
        (b"</listBibl></back>", b'</listBibl><listBibl><biblStruct xml:id="r2">'
         + _ENTRY_TITLE + b"</monogr></biblStruct></listBibl></back>"),
        (("P-listBibl-merged", "warning", _T + "/back[1]/listBibl[2]",
          "additional listBibl merged into the first"),),
        lambda a: [e.xml_id for e in a.reference_list.entries], ["r1", "r2"],
    ),
    "listBib-read-as-listBibl": (
        (b"</listBibl></back>", b'</listBibl><listBib><biblStruct xml:id="r2">'
         + _ENTRY_TITLE + b"</monogr></biblStruct></listBib></back>"),
        (("P-listBib", "warning", _T + "/back[1]/listBib[1]",
          "element 'listBib' read as 'listBibl'"),
         ("P-listBibl-merged", "warning", _T + "/back[1]/listBib[1]",
          "additional listBibl merged into the first")),
        lambda a: [e.xml_id for e in a.reference_list.entries], ["r1", "r2"],
    ),
    "empty-back-div-kept": (
        (b"<back>", b'<back><div type="appendix"/>'),
        (),
        lambda a: a.back.divisions, (m.Division("appendix"),),
    ),
    "back-issues-in-document-order": (
        (b"<back>", b"<back>loose<listBib/>"),
        (("P-stray-text", "warning", _T + "/back[1]", "stray text in back wrapped in div"),
         ("P-listBib", "warning", _T + "/back[1]/listBib[1]",
          "element 'listBib' read as 'listBibl'"),
         ("P-listBibl-merged", "warning", _T + "/back[1]/listBibl[1]",
          "additional listBibl merged into the first")),
        lambda a: (a.back.divisions[0].blocks, [e.xml_id for e in a.reference_list.entries]),
        (_para("loose"), ["r1"]),
    ),
    "empty-div-beside-back-list-kept": (
        (b"<back>", b'<back><div type="bibliography"><div type="notes"/><listBibl/></div>'),
        (("P-listBibl-merged", "warning", _T + "/back[1]/listBibl[1]",
          "additional listBibl merged into the first"),),
        lambda a: a.back.divisions,
        (m.Division("bibliography", children=(m.Division("notes"),)),),
    ),
    "empty-head-is-no-head": (
        (b'<div type="section"><p>x', b'<div type="section"><head/><head>H</head><p>x'),
        (),
        lambda a: a.body[0], m.Division("section", (m.TextRun("H"),), _para("x")),
    ),
    "empty-mention-key-is-absent": (
        (b"<p>x</p>", b'<p>x<persName key="">Ada</persName></p>'),
        (),
        lambda a: a.body[0].blocks[0].content[1], m.PersonMention("Ada"),
    ),
    "empty-entry-id-is-absent": (
        (b'<biblStruct xml:id="r1">', b'<biblStruct xml:id="">'),
        (),
        lambda a: _entry(a).xml_id, None,
    ),
    "empty-address-line-type-is-absent": (
        (b"<address>", b'<address><addrLine type="">1</addrLine>'),
        (),
        lambda a: _source(a).analytic.authors[0].affiliation.address.lines,
        (m.AddressLine("1"),),
    ),
    "empty-keyword-scheme-is-absent": (
        (b"<keywords><term>", b'<keywords scheme=""><term>'),
        (),
        lambda a: a.header.profile_desc.keywords, (m.Keyword("k"),),
    ),
    "empty-authority-is-absent": (
        (b"<authority>A</authority>", b"<authority/>"),
        (),
        lambda a: a.header.file_desc.authority, None,
    ),
    "empty-imprint-texts-are-absent": (
        (b'<date when="2009"/>', b'<publisher/><pubPlace/><date when="2009"/>'),
        (),
        lambda a: (_source(a).monogr.imprint.publisher, _source(a).monogr.imprint.pub_place),
        (None, None),
    ),
    "empty-ISSN-is-absent": (
        (b'<title level="j" type="main">J</title>',
         b'<title level="j" type="main">J</title><idno type="ISSN"/>'),
        (),
        lambda a: _source(a).monogr.issn, None,
    ),
    "empty-email-is-absent": (
        (b"</affiliation></author>", b"</affiliation><email/></author>"),
        (),
        lambda a: _source(a).analytic.authors[0].email, None,
    ),
    "empty-address-parts-are-absent": (
        (b"<country>NZ</country>", b"<settlement/><postCode/><country/>"),
        (),
        lambda a: _source(a).analytic.authors[0].affiliation.address, m.Address(),
    ),
    "emptied-address-is-empty": (
        (b"<address><country>NZ</country></address>", b"<address/>"),
        (),
        lambda a: _source(a).analytic.authors[0].affiliation.address, m.Address(),
    ),
    "empty-figure-and-list-after-a-paragraph": (
        (b"<p>x</p>", b"<p>x</p><figure/><list/>"),
        (),
        lambda a: a.body[0].blocks[1:], (m.FigureBlock(), m.ListBlock()),
    ),
    "empty-analytic-before-monogr": (
        (b'<biblStruct xml:id="r1"><monogr>', b'<biblStruct xml:id="r1"><analytic/><monogr>'),
        (),
        lambda a: (_entry(a).analytic, _entry(a).doc_type.value), (m.Analytic(), "bookSection"),
    ),
    "cit-kept-verbatim-reports-nothing": (
        (b"<p>x</p>", b"<p>x</p><cit><biblStruct><monogr/><revisionDesc/></biblStruct>"
         b"<biblStruct><monogr/></biblStruct></cit>"),
        (),
        lambda a: type(a.body[0].blocks[1]), m.OpaqueBlock,
    ),
    "cit-record-with-unknown-child-then-bibl-kept-verbatim": (
        (b"<p>x</p>", b"<p>x</p><cit><biblStruct><monogr/><mystery/></biblStruct><bibl/></cit>"),
        (),
        lambda a: a.body[0].blocks[1],
        m.OpaqueBlock("<cit><biblStruct><monogr/><mystery/></biblStruct><bibl/></cit>"),
    ),
    # a cit or figure whose children repeat a name is kept verbatim, the
    # first of them empty or not
    "empty-quote-then-quote-kept-verbatim": (
        (b"<p>x</p>", b"<p>x</p><cit><quote/><quote>Q</quote></cit>"),
        (),
        lambda a: type(a.body[0].blocks[1]), m.OpaqueBlock,
    ),
    "empty-note-then-note-kept-verbatim": (
        (b"<p>x</p>", b"<p>x</p><cit><quote>Q</quote><note/><note>N</note></cit>"),
        (),
        lambda a: type(a.body[0].blocks[1]), m.OpaqueBlock,
    ),
    "empty-figure-head-then-head-kept-verbatim": (
        (b"<p>x</p>", b'<p>x</p><figure><head/><head>H</head><graphic url="u.png"/></figure>'),
        (),
        lambda a: type(a.body[0].blocks[1]), m.OpaqueBlock,
    ),
    "second-monogr-dropped": (
        (b"</monogr></biblStruct></listBibl>",
         b'</monogr><monogr><title level="m">Z</title><imprint><publisher>P</publisher>'
         b"</imprint></monogr></biblStruct></listBibl>"),
        (("P-extra-element", "warning", _ENTRY + "/monogr[2]",
          "additional biblStruct monogr dropped; first kept"),),
        lambda a: (_entry(a).monogr.titles[0].text, _entry(a).monogr.imprint.publisher),
        ((m.TextRun("B"),), None),
    ),
    "second-analytic-dropped": (
        (b"</analytic>", b'</analytic><analytic><title level="a">Z</title></analytic>'),
        (("P-extra-element", "warning", _SRC + "/analytic[2]",
          "additional biblStruct analytic dropped; first kept"),),
        lambda a: _source(a).analytic.titles[0].text, (m.TextRun("T"),),
    ),
    "second-imprint-date-dropped-with-its-role": (
        (b'<date when="2001"/>', b'<date type="accessed" when="1999"/><date when="2001"/>'),
        (("P-extra-element", "warning", _ENTRY + "/monogr[1]/imprint[1]/date[2]",
          "additional imprint date dropped; first kept"),),
        lambda a: (_entry(a).monogr.imprint.date_role, _entry(a).monogr.imprint.date.year),
        ("accessed", 1999),
    ),
    "second-fileDesc-dropped": (
        (b"</fileDesc>", b"</fileDesc><fileDesc><titleStmt><title>Z</title></titleStmt></fileDesc>"),
        (("P-extra-element", "warning", _H + "/fileDesc[2]",
          "additional teiHeader fileDesc dropped; first kept"),),
        lambda a: a.header.file_desc.main_title, (m.TextRun("T"),),
    ),
    "second-publisher-dropped": (
        (b'<date when="2009"/>', b'<publisher>P</publisher><publisher>Q</publisher><date when="2009"/>'),
        (("P-extra-element", "warning", _SRC + "/monogr[1]/imprint[1]/publisher[2]",
          "additional imprint publisher dropped; first kept"),),
        lambda a: _source(a).monogr.imprint.publisher, "P",
    ),
    "second-persName-dropped": (
        (b"</surname></persName>", b"</surname></persName><persName><surname>Kim</surname></persName>"),
        (("P-extra-element", "warning", _AUTHOR + "/persName[2]",
          "additional author persName dropped; first kept"),),
        lambda a: (_source(a).analytic.authors[0].surname, _source(a).analytic.authors[0].forenames),
        ("Lee", ("Ann",)),
    ),
    "orgName-after-persName-dropped": (
        (b"</surname></persName>", b"</surname></persName><orgName>Org X</orgName>"),
        (("P-extra-element", "warning", _AUTHOR + "/orgName[1]",
          "additional author orgName dropped; first kept"),),
        lambda a: (_source(a).analytic.authors[0].surname, _source(a).analytic.authors[0].forenames),
        ("Lee", ("Ann",)),
    ),
    "persName-after-orgName-dropped": (
        (b"<author><persName>", b"<author><orgName>Org X</orgName><persName>"),
        (("P-extra-element", "warning", _AUTHOR + "/persName[1]",
          "additional author persName dropped; first kept"),),
        lambda a: (_source(a).analytic.authors[0].surname, _source(a).analytic.authors[0].forenames),
        ("Org X", ()),
    ),
    "second-email-dropped": (
        (b"</affiliation></author>", b"</affiliation><email>a@x</email><email>b@x</email></author>"),
        (("P-extra-element", "warning", _AUTHOR + "/email[2]",
          "additional author email dropped; first kept"),),
        lambda a: _source(a).analytic.authors[0].email, "a@x",
    ),
    "second-body-kept-verbatim": (
        (b"</body>", b'</body><body><div type="section"><p>two</p></div></body>'),
        (("P-wrapped-into-body", "warning", _T + "/body[2]",
          "element 'body' in text wrapped into body"),),
        lambda a: (a.body[0].blocks, a.body[1].blocks),
        (_para("x"), (m.OpaqueBlock('<body><div type="section"><p>two</p></div></body>'),)),
    ),
    "choice-of-two-abbrs-kept-verbatim": (
        (b"<p>x</p>", b"<p>x<choice><abbr>A</abbr><abbr>B</abbr></choice></p>"),
        (),
        lambda a: a.body[0].blocks[0].content[1],
        m.OpaqueInline("<choice><abbr>A</abbr><abbr>B</abbr></choice>"),
    ),
    # a cit, figure or choice with text beside its children is kept verbatim
    "text-beside-cit-quote-kept-verbatim": (
        (b"<p>x</p>", b"<p>x</p><cit>lost words<quote>Q</quote></cit>"),
        (),
        lambda a: a.body[0].blocks[1], m.OpaqueBlock("<cit>lost words<quote>Q</quote></cit>"),
    ),
    "text-beside-figure-graphic-kept-verbatim": (
        (b"<p>x</p>", b'<p>x</p><figure>lost words<graphic url="u"/></figure>'),
        (),
        lambda a: a.body[0].blocks[1],
        m.OpaqueBlock('<figure>lost words<graphic url="u"/></figure>'),
    ),
    "text-beside-choice-parts-kept-verbatim": (
        (b"<p>x</p>", b"<p>x<choice><abbr>A</abbr> lost <expan>B</expan></choice></p>"),
        (),
        lambda a: a.body[0].blocks[0].content[1],
        m.OpaqueInline("<choice><abbr>A</abbr> lost <expan>B</expan></choice>"),
    ),
    # an element in no namespace never reads as its TEI namesake
    "no-namespace-surname-dropped": (
        (b"<surname>Lee</surname>", b'<surname xmlns="">Dean</surname>'),
        _dropped(_AUTHOR + "/persName[1]/{}surname[1]", "{}surname", "persName"),
        lambda a: _source(a).analytic.authors[0].surname, "",
    ),
    "no-namespace-list-item-kept-verbatim": (
        (b"<p>x</p>", b'<p>x</p><list><item xmlns="">a</item></list>'),
        (),
        lambda a: a.body[0].blocks[1], m.OpaqueBlock('<list><item xmlns="">a</item></list>'),
    ),
    "no-namespace-choice-abbr-kept-verbatim": (
        (b"<p>x</p>", b'<p>x<choice><abbr xmlns="">A</abbr></choice></p>'),
        (),
        lambda a: a.body[0].blocks[0].content[1],
        m.OpaqueInline('<choice><abbr xmlns="">A</abbr></choice>'),
    ),
    "no-namespace-table-head-is-no-caption": (
        (b"<p>x</p>", b'<p>x</p><table><head xmlns="">H</head><row/></table>'),
        (),
        lambda a: a.body[0].blocks[1].caption, (),
    ),
    # a TEI p after one in no namespace is p[1]
    "no-namespace-paragraph-before-paragraph-in-div": (
        (b"<p>x</p>", b'<p xmlns="">F</p><p>x</p>'),
        (),
        lambda a: a.body[0].blocks, (m.OpaqueBlock('<p xmlns="">F</p>'), *_para("x")),
    ),
    "no-namespace-paragraph-before-paragraph-in-body": (
        (b"<body>", b'<body><p xmlns="">F</p><p>N</p>'),
        (("P-wrapped", "warning", _T + "/body[1]/{}p[1]", "element '{}p' in body wrapped in div"),
         ("P-wrapped", "warning", _T + "/body[1]/p[1]", "element 'p' in body wrapped in div")),
        lambda a: [d.blocks for d in a.body[:2]],
        [(m.OpaqueBlock('<p xmlns="">F</p>'),), _para("N")],
    ),
}
