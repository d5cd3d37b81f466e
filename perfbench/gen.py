"""Seeded input generators for the three workloads, with expected answers.

Everything here is plain string building from a ``random.Random`` seeded by
the caller; nothing imports teijournal.  Each generator returns the bytes it
wrote together with the facts it planted (findings per rule, citation order,
mention counts, corrections, variant clusters, ...), so the checks compare
the program's output with answers known before the program ran.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

TEI_NS = "http://www.tei-c.org/ns/1.0"
MATHML_NS = "http://www.w3.org/1998/Math/MathML"

WORDS = (
    "analysis archive baseline cohort corpus data design effect estimate "
    "evidence field frame growth history index journal layer measure method "
    "model network notion object origin pattern phase policy practice "
    "process protocol record region report result sample scale schema scope "
    "series signal source stage structure study survey system table theory "
    "trend value variant version volume window account agent answer aspect "
    "balance border branch bridge budget canvas chapter circle climate "
    "column comment context contrast county credit cycle debate decade "
    "detail device dialect domain draft edition editor element energy "
    "episode factor figure format fragment genre glossary harbor horizon "
    "image impact income island kernel label ledger letter limit margin "
    "market matrix medium memory mirror motive narrative notice outline "
    "output panel parish passage period portion premise profile quarter "
    "reader reform relation remark review rhythm routine segment sequence "
    "setting share sketch speech spirit status storage stream subject "
    "summary symbol target temple tension thread timber token transfer "
    "treaty unit valley vector venture verse vessel voice wealth witness"
).split()

FORENAMES = (
    "Ada Alan Anna Boris Carla Chen Dara Elena Emil Farah Felix Greta Hana "
    "Ivan Jonas Karin Lars Lena Mara Mateo Nadia Nils Olga Omar Paula Pedro "
    "Rosa Rui Sara Selma Tariq Una Vera Viktor Yara Zofia"
).split()

SURNAMES = (
    "Abbott Baker Bergstrom Castillo Dalton Eriksen Fischer Garnier Haddad "
    "Holm Ibarra Jansen Kowalski Lindqvist Moreau Nakamura Okafor Petrov "
    "Quist Romano Sandoval Tanaka Ulrich Vasquez Weber Xavier Yilmaz Zeller "
    "Aalto Brandt Costa Dimitrov Eklund Ferreira Gallo Hartmann Iversen "
    "Jovanovic Keller Larsen"
).split()

# Person mentions; the three containing "curie" are the only query hits.
PERSONS = (
    "Marie Curie", "Pierre Curie", "Irene Joliot-Curie", "Ada Lovelace",
    "Alan Turing", "Charles Darwin", "Rosalind Franklin", "Gregor Mendel",
    "Niels Bohr", "Lise Meitner", "Emmy Noether", "Carl Linnaeus",
    "Dorothy Hodgkin", "Barbara McClintock", "Louis Pasteur",
    "Alexander Fleming", "Jane Goodall", "Rachel Carson", "Alfred Wegener",
    "Tycho Brahe",
)
QUERY_PERSON_NEEDLE = "curie"

ORGS = (
    "World Health Organization", "European Space Agency", "Royal Society",
    "Max Planck Society", "National Science Foundation", "CERN",
    "Ede & Ravenscroft", "Wellcome Trust", "Pasteur Institute",
    "Smithsonian Institution", "Karolinska Institute", "Bell Laboratories",
)
PLACES = (
    "Bangalore", "Geneva", "Uppsala", "Lisbon", "Kyoto", "Nairobi",
    "Reykjavik", "Valparaiso", "Tbilisi", "Hobart", "Tromso", "Quito",
    "Marrakesh", "Krakow", "Manaus", "Ushuaia",
)
SOFTWARE = ("R", "Python", "PLINK", "SAS", "MATLAB", "Stata", "BLAST", "GATK")
ABBRS = (
    ("DNA", "deoxyribonucleic acid"), ("PCR", "polymerase chain reaction"),
    ("GWAS", "genome-wide association study"), ("SNP", None),
    ("MRI", "magnetic resonance imaging"), ("RCT", None),
    ("ANOVA", "analysis of variance"), ("CI", None),
)
KEYWORDS = (
    "macular degeneration", "population genetics", "corpus linguistics",
    "text encoding", "citation analysis", "scholarly publishing",
    "digital editions", "metadata quality", "schema inference",
    "bibliometrics", "peer review", "open access", "data curation",
    "markup languages", "information retrieval", "genome annotation",
)
JOURNALS = (
    "Journal of Applied Markup", "Annals of Textual Studies",
    "Review of Scholarly Data", "Bulletin of Corpus Research",
    "Quarterly of Encoding Practice", "Letters in Digital Philology",
)
PUBLISHERS = ("Harbor Press", "Northfield Books", "Quillon", "Oxbow & Vane")
ORG_UNITS = ("Department of Informatics", "Institute of Philology",
             "Laboratory of Genetics", "Centre for Text Studies")
INSTITUTIONS = ("University of Uppsala", "Indian Institute of Science",
                "University of Lisbon", "Kyoto University")


def esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def norm_key(text: str) -> str:
    return " ".join(text.split()).casefold()


def words(rng: random.Random, lo: int, hi: int) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(lo, hi)))


def title_text(rng: random.Random, lo: int = 4, hi: int = 8) -> str:
    return words(rng, lo, hi).capitalize()


# --------------------------------------------------------------------------
# Bibliographic works
# --------------------------------------------------------------------------


@dataclass
class Work:
    """One citable record; ``xml`` takes the entry id and returns markup."""

    kind: str  # journalArticle | book | bookSection
    title: str
    authors: list  # [(forename or "", surname)]
    year: int
    doi: str | None = None
    container: str = ""
    editor: tuple | None = None
    publisher: str = ""
    fpage: int = 0
    lpage: int = 0
    volume: int = 0
    issue: int = 0
    date_typ: bool = False  # planted 'typ' attribute on the imprint date

    def cite(self) -> str:
        return f"({self.authors[0][1]} {self.year})"

    def xml(self, ref_id: str) -> str:
        def author(tag: str, forename: str, surname: str) -> str:
            fn = f"<forename>{forename}</forename>" if forename else ""
            return f"<{tag}><persName>{fn}<surname>{surname}</surname></persName></{tag}>"

        authors = "".join(author("author", f, s) for f, s in self.authors)
        typ = ' typ="published"' if self.date_typ else ""
        date = f'<date{typ} when="{self.year}"/>'
        doi = f'<idno type="DOI">{self.doi}</idno>' if self.doi else ""
        head = f'<biblStruct type="{self.kind}" xml:id="{ref_id}">'
        if self.kind == "book":
            return (
                f"{head}<monogr>{authors}"
                f'<title level="m" type="main">{esc(self.title)}</title>'
                f"<imprint><publisher>{esc(self.publisher)}</publisher>{date}</imprint>"
                f"</monogr>{doi}</biblStruct>"
            )
        pages = (
            f'<biblScope type="fpage">{self.fpage}</biblScope>'
            f'<biblScope type="lpage">{self.lpage}</biblScope>'
        )
        if self.kind == "bookSection":
            editor = author("editor", *self.editor)
            return (
                f"{head}<analytic>"
                f'<title level="a" type="main">{esc(self.title)}</title>{authors}'
                f"</analytic><monogr>"
                f'<title level="m" type="main">{esc(self.container)}</title>{editor}'
                f"<imprint><publisher>{esc(self.publisher)}</publisher>{date}{pages}"
                f"</imprint></monogr>{doi}</biblStruct>"
            )
        return (
            f"{head}<analytic>"
            f'<title level="a" type="main">{esc(self.title)}</title>{authors}'
            f"</analytic><monogr>"
            f'<title level="j" type="main">{esc(self.container)}</title>'
            f"<imprint>{date}"
            f'<biblScope type="vol">{self.volume}</biblScope>'
            f'<biblScope type="issue">{self.issue}</biblScope>{pages}'
            f"</imprint></monogr>{doi}</biblStruct>"
        )


def random_work(rng: random.Random, serial: str, with_doi: bool) -> Work:
    kind = rng.choices(("journalArticle", "book", "bookSection"), (6, 2, 2))[0]
    authors = [
        (rng.choice(FORENAMES), rng.choice(SURNAMES))
        for _ in range(rng.randint(1, 3))
    ]
    fpage = rng.randint(1, 400)
    return Work(
        kind=kind,
        # the serial keeps every title, hence every dedup key, distinct
        title=f"{title_text(rng)} {serial}",
        authors=authors,
        year=rng.randint(1950, 2009),
        doi=f"10.5555/w.{serial}" if with_doi else None,
        container=rng.choice(JOURNALS) if kind == "journalArticle"
        else title_text(rng, 3, 5),
        editor=(rng.choice(FORENAMES), rng.choice(SURNAMES)),
        publisher=rng.choice(PUBLISHERS),
        fpage=fpage,
        lpage=fpage + rng.randint(1, 30),
        volume=rng.randint(1, 60),
        issue=rng.randint(1, 12),
    )


# --------------------------------------------------------------------------
# TEI articles
# --------------------------------------------------------------------------


@dataclass
class ArticleSpec:
    doc_id: str  # the DOI, which teijournal uses as the document id
    title: str
    date: str  # publication date, YYYY-MM-DD
    works: list  # reference list, in list order
    paragraphs: int
    paras_per_div: int = 8
    rich: bool = True  # figures, lists, cit blocks, notes, foreign markup
    keywords: tuple = ()
    corrections: list = field(default_factory=list)  # [(date, text)]
    out_of_order_change: bool = False  # plants one R10
    dangling: int = 0  # '#id' pointers matching no entry (R9 each)
    malformed: int = 0  # pointers without '#' (R9 each)
    bad_pages: int = 0  # entries with fpage > lpage (R5 each)
    no_forename: int = 0  # reference authors without forename (R6 each)
    bad_org_unit: bool = False  # one off-vocabulary orgName type (R7)
    duplicate_id: bool = False  # repeats one entry id (R12)
    typ_dates: int = 0  # 'typ' attributes on imprint dates (parse warnings)


@dataclass
class ArticleFacts:
    doc_id: str
    date: str
    findings: Counter = field(default_factory=Counter)  # rule id -> count
    parse_warnings: int = 0
    citation_order: list = field(default_factory=list)  # entry ids
    entry_ids: int = 0  # distinct entry ids in the reference list
    mentions: dict = field(default_factory=dict)  # index kind -> [text]
    corrections: list = field(default_factory=list)  # [(date, text)]
    surnames_cited: set = field(default_factory=set)  # casefolded
    works: list = field(default_factory=list)


INDEX_KINDS = ("abbreviation", "author", "keyword", "organization", "person",
                "place", "software")


class _ArticleWriter:
    def __init__(self, rng: random.Random, spec: ArticleSpec):
        self.rng = rng
        self.spec = spec
        self.facts = ArticleFacts(spec.doc_id, spec.date)
        self.facts.mentions = {kind: [] for kind in INDEX_KINDS}
        self.ids = [f"b{i}" for i in range(1, len(spec.works) + 1)]
        self.cited: dict = {}  # entry id -> None, in first-citation order
        self.figures = 0

    def mention(self, kind: str, text: str) -> None:
        self.facts.mentions[kind].append(text)

    def cite(self) -> str:
        i = self.rng.randrange(len(self.ids))
        ref_id = self.ids[i]
        self.cited.setdefault(ref_id, None)
        return (
            f'<ref type="bibr" target="#{ref_id}">'
            f"{esc(self.spec.works[i].cite())}</ref>"
        )

    def inline(self) -> str:
        rng = self.rng
        roll = rng.random()
        if roll < 0.30:
            return self.cite()
        if roll < 0.40:
            name = rng.choice(PERSONS)
            self.mention("person", name)
            return f'<persName key="p{PERSONS.index(name)}">{esc(name)}</persName>'
        if roll < 0.48:
            name = rng.choice(ORGS)
            self.mention("organization", name)
            return f"<orgName>{esc(name)}</orgName>"
        if roll < 0.56:
            name = rng.choice(PLACES)
            self.mention("place", name)
            return f"<placeName>{esc(name)}</placeName>"
        if roll < 0.62:
            name = rng.choice(SOFTWARE)
            self.mention("software", name)
            return f'<term type="software">{name}</term>'
        if roll < 0.68:
            abbr, expansion = rng.choice(ABBRS)
            self.mention("abbreviation", abbr)
            if expansion is None:
                return f"<abbr>{abbr}</abbr>"
            return f"<choice><abbr>{abbr}</abbr><expan>{expansion}</expan></choice>"
        if roll < 0.84:
            rend = rng.choice(("italic", "bold", "smallcaps"))
            return f'<hi rend="{rend}">{rng.choice(WORDS)}</hi>'
        if not self.spec.rich:
            return rng.choice(WORDS)
        if roll < 0.94:
            return f'<note place="foot">{words(rng, 3, 8)}</note>'
        return f"<m:math><m:mi>x</m:mi><m:mo>=</m:mo><m:mn>{rng.randint(1, 99)}</m:mn></m:math>"

    def paragraph(self) -> str:
        rng = self.rng
        parts = [words(rng, 4, 10)]
        for _ in range(rng.randint(1, 3)):
            parts.append(self.inline())
            parts.append(words(rng, 2, 7))
        return "<p>" + " ".join(parts) + ".</p>"

    def block(self) -> str:
        """A paragraph, or occasionally a figure, list or quotation."""
        rng = self.rng
        if self.spec.rich:
            roll = rng.random()
            if roll < 0.03:
                self.figures += 1
                return (
                    f"<figure><head>Figure {self.figures}. {words(rng, 3, 6)}</head>"
                    f'<graphic url="fig{self.figures}.png"/></figure>'
                )
            if roll < 0.05:
                items = "".join(
                    f"<item>{words(rng, 2, 6)}</item>" for _ in range(rng.randint(2, 4))
                )
                return f"<list>{items}</list>"
            if roll < 0.07:
                ref_id = self.ids[rng.randrange(len(self.ids))]
                self.cited.setdefault(ref_id, None)
                return (
                    f"<cit><quote>{words(rng, 5, 12)}</quote>"
                    f'<ref target="#{ref_id}"/></cit>'
                )
            if roll < 0.08:
                return (
                    '<m:math display="block"><m:mi>y</m:mi><m:mo>=</m:mo>'
                    f"<m:mn>{rng.randint(1, 9)}</m:mn></m:math>"
                )
        return self.paragraph()

    def body(self) -> str:
        rng = self.rng
        spec = self.spec
        blocks = [self.block() for _ in range(spec.paragraphs)]
        # Planted dangling and malformed pointers replace whole paragraphs at
        # random positions; they never enter the citation order.
        planted = [
            f'<p>see <ref type="bibr" target="#missing{i}">(Nobody)</ref>.</p>'
            for i in range(spec.dangling)
        ] + [
            f'<p>see <ref type="bibr" target="b{i + 1}">(Nobody)</ref>.</p>'
            for i in range(spec.malformed)
        ]
        for markup in planted:
            blocks.insert(rng.randrange(len(blocks) + 1), markup)
        self.facts.findings["R9"] += spec.dangling + spec.malformed
        divs = []
        for start in range(0, len(blocks), spec.paras_per_div):
            head = title_text(rng, 1, 4)
            divs.append(
                f'<div type="section"><head>{head}</head>'
                + "".join(blocks[start:start + spec.paras_per_div])
                + "</div>"
            )
        return "\n".join(divs)

    def source_authors(self) -> str:
        rng = self.rng
        out = []
        for n in range(rng.randint(1, 3)):
            forename, surname = rng.choice(FORENAMES), rng.choice(SURNAMES)
            self.mention("author", f"{surname}, {forename}")
            unit_type = "department"
            if self.spec.bad_org_unit and n == 0:
                unit_type = "faculty"
                self.facts.findings["R7"] += 1
            corresp = ' type="corresp"' if n == 0 else ""
            email = f"<email>{surname.lower()}@example.org</email>" if n == 0 else ""
            out.append(
                f"<author{corresp}><persName><forename>{forename}</forename>"
                f"<surname>{surname}</surname></persName>"
                f'<affiliation><orgName type="{unit_type}">{rng.choice(ORG_UNITS)}</orgName>'
                f'<orgName type="institution">{rng.choice(INSTITUTIONS)}</orgName>'
                f"<address><settlement>{rng.choice(PLACES)}</settlement>"
                f"<country>Norway</country></address></affiliation>{email}</author>"
            )
        return "".join(out)

    def revision_desc(self) -> str:
        spec = self.spec
        year = int(spec.date[:4])
        changes = [(f"{year - 1}-03-14", "Received"), (f"{year - 1}-09-02", "Accepted")]
        if spec.out_of_order_change:
            changes[1] = (f"{year - 2}-09-02", "Accepted")
            self.facts.findings["R10"] += 1
        out = [f'<change when="{when}">{what}</change>' for when, what in changes]
        for when, text in sorted(spec.corrections):
            out.append(f'<change when="{when}" type="correction">{esc(text)}</change>')
            self.facts.corrections.append((when, text))
        return "".join(out)

    def reference_list(self) -> str:
        spec = self.spec
        rng = self.rng
        works = list(spec.works)
        # entry 0 is the one repeated for R12, so it carries no other defect
        picks = rng.sample(
            range(1, len(works)), spec.bad_pages + spec.no_forename + spec.typ_dates
        )
        for n, i in enumerate(picks):
            w = works[i]
            if n < spec.bad_pages:
                kind = "bookSection" if w.kind == "book" else w.kind
                works[i] = Work(**{**w.__dict__, "kind": kind, "fpage": 90, "lpage": 12})
                self.facts.findings["R5"] += 1
            elif n < spec.bad_pages + spec.no_forename:
                authors = [("", w.authors[0][1])] + list(w.authors[1:])
                works[i] = Work(**{**w.__dict__, "authors": authors})
                self.facts.findings["R6"] += 1
            else:
                works[i] = Work(**{**w.__dict__, "date_typ": True})
                self.facts.parse_warnings += 1
        entries = [w.xml(ref_id) for w, ref_id in zip(works, self.ids)]
        if spec.duplicate_id:
            entries.append(works[0].xml(self.ids[0]))
            self.facts.findings["R12"] += 1
        for w in works:
            for _, surname in w.authors:
                self.facts.surnames_cited.add(surname.casefold())
            if w.kind == "bookSection":
                self.facts.surnames_cited.add(w.editor[1].casefold())
        self.facts.works = works
        self.facts.entry_ids = len(self.ids)
        return "\n".join(entries)

    def write(self) -> bytes:
        spec = self.spec
        rng = self.rng
        year = spec.date[:4]
        authors = self.source_authors()
        keywords = ""
        if spec.keywords:
            items = "".join(f"<item><term>{k}</term></item>" for k in spec.keywords)
            keywords = f'<textClass><keywords scheme="free"><list>{items}</list></keywords></textClass>'
            for k in spec.keywords:
                self.mention("keyword", k)
        else:
            self.facts.findings["R11"] += 1
        abstract = self.paragraph()
        body = self.body()
        back = self.reference_list() if spec.works else ""
        self.facts.citation_order = list(self.cited)
        fpage = rng.randint(1, 300)
        text = f"""<?xml version="1.0" encoding="UTF-8"?>
<TEI xmlns="{TEI_NS}" xmlns:m="{MATHML_NS}">
  <teiHeader>
    <fileDesc>
      <titleStmt><title level="a" type="main">{esc(spec.title)}</title></titleStmt>
      <publicationStmt>
        <availability><p>Distributed under an open licence.</p></availability>
        <date when="{spec.date}"/>
        <authority>The Bench Press</authority>
      </publicationStmt>
      <sourceDesc><biblStruct type="journalArticle">
        <analytic>
          <title level="a" type="main">{esc(spec.title)}</title>
          {authors}
        </analytic>
        <monogr>
          <title level="j" type="main">{rng.choice(JOURNALS)}</title>
          <idno type="ISSN">1234-5678</idno>
          <imprint><date when="{year}"/><biblScope type="vol">{rng.randint(1, 40)}</biblScope><biblScope type="issue">{rng.randint(1, 6)}</biblScope><biblScope type="fpage">{fpage}</biblScope><biblScope type="lpage">{fpage + rng.randint(5, 40)}</biblScope></imprint>
        </monogr>
        <idno type="DOI">{spec.doc_id}</idno>
      </biblStruct></sourceDesc>
    </fileDesc>
    <profileDesc><langUsage><language ident="en"/></langUsage>{keywords}</profileDesc>
    <revisionDesc>{self.revision_desc()}</revisionDesc>
  </teiHeader>
  <text>
    <front><div type="abstract"><p>{abstract[3:-4]}</p></div></front>
    <body>
{body}
    </body>
    <back><div type="bibliography"><listBibl>
{back}
    </listBibl></div></back>
  </text>
</TEI>
"""
        return text.encode("utf-8")


def tei_article(rng: random.Random, spec: ArticleSpec) -> tuple:
    """(bytes, ArticleFacts) for one article."""
    writer = _ArticleWriter(rng, spec)
    data = writer.write()
    return data, writer.facts


# --------------------------------------------------------------------------
# article-deep: one large article at a given scale
# --------------------------------------------------------------------------

#: Size S: refs and paragraphs of the smaller article of each pass; the
#: larger one doubles both.
DEEP_SIZES = {
    "full": (200, 800),
    "smoke": (25, 100),
}


def deep_article(seed: int, pass_no: int, label: str, size: str) -> tuple:
    """The S or 2S article for one pass; bytes never repeat across passes."""
    rng = random.Random(f"deep/{seed}/{pass_no}/{label}")
    refs, paras = DEEP_SIZES[size]
    if label == "2S":
        refs, paras = 2 * refs, 2 * paras
    works = [
        random_work(rng, f"{pass_no}.{label}.{i}", with_doi=rng.random() < 0.5)
        for i in range(refs)
    ]
    spec = ArticleSpec(
        doc_id=f"10.5555/deep.{seed}.{pass_no}.{label}",
        title=title_text(rng, 5, 8),
        date="2009-06-01",
        works=works,
        paragraphs=paras,
        paras_per_div=20,
        keywords=tuple(rng.sample(KEYWORDS, 4)),
        corrections=[("2009-08-11", "Correction to the caption of figure 2")],
        out_of_order_change=True,
        dangling=3,
        malformed=2,
        bad_pages=2,
        no_forename=2,
        bad_org_unit=True,
        duplicate_id=True,
        typ_dates=2,
    )
    return tei_article(rng, spec)


# --------------------------------------------------------------------------
# corpus-products: many small articles citing a shared pool
# --------------------------------------------------------------------------

CORPUS_SIZES = {"full": 60, "smoke": 12}

QUERY_DATE_FROM = "2004"
QUERY_DATE_TO = "2006-06"


@dataclass
class CorpusManifest:
    files: dict  # file name -> bytes
    articles: list  # [ArticleFacts]
    cites_surname: str  # the --cites-surname query value (as written)


def corpus(seed: int, size: str) -> CorpusManifest:
    rng = random.Random(f"corpus/{seed}")
    count = CORPUS_SIZES[size]
    pool = [
        random_work(rng, f"p{i}", with_doi=rng.random() < 0.5)
        for i in range(max(30, count * 3 // 2))
    ]
    # Make one surname rare so the --cites-surname query is selective.
    rare = "Quackenbush"
    for w in rng.sample(pool, max(3, len(pool) // 40)):
        w.authors[-1] = (rng.choice(FORENAMES), rare)
    files: dict = {}
    articles: list = []
    for n in range(count):
        day = rng.randint(0, 11 * 365 - 1)
        year = 2000 + day // 365
        month = 1 + (day % 365) // 31 % 12
        date = f"{year}-{month:02d}-{1 + day % 28:02d}"
        corrections = []
        if rng.random() < 0.2:
            for k in range(rng.randint(1, 2)):
                corrections.append(
                    (f"{year + 1}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}",
                     f"Correction {k + 1}: {words(rng, 3, 7)}")
                )
        spec = ArticleSpec(
            doc_id=f"10.5555/c.{seed}.{n}",
            title=title_text(rng, 4, 9),
            date=date,
            # counts follow the index, not the seed, so every seed's corpus
            # holds the same number of references and blocks
            works=rng.sample(pool, 5 + n % 6),
            paragraphs=6 + n % 5,
            paras_per_div=5,
            rich=False,
            keywords=() if rng.random() < 0.05 else tuple(rng.sample(KEYWORDS, 3)),
            corrections=corrections,
            out_of_order_change=rng.random() < 0.04,
            dangling=1 if rng.random() < 0.04 else 0,
        )
        data, facts = tei_article(rng, spec)
        files[f"art{n:04d}.xml"] = data
        articles.append(facts)
    return CorpusManifest(files, articles, rare)


def in_window(date: str) -> bool:
    """Publication date within --from QUERY_DATE_FROM --to QUERY_DATE_TO."""
    return "2004-01-01" <= date <= "2006-06-31"


# --------------------------------------------------------------------------
# schema-evolve: raw non-TEI documents with planted spelling variants
# --------------------------------------------------------------------------

SCHEMA_SIZES = {"full": (25, 50_000), "smoke": (8, 5_000)}

# (element, attribute, canonical value, normalized key, variant spellings).
# Keys are written out by hand: they are what a reader would call the
# variant family, not computed by the program's normalizer.
VARIANTS = (
    ("sec", "type", "method", "method", ("Method", "methods")),
    ("sec", "type", "result", "result", ("Results",)),
    ("sec", "type", "introduction", "introduction", ()),
    ("sec", "type", "discussion", "discussion", ("Discussion",)),
    ("hi", "rend", "italic", "italic", ("italics", "Italic")),
    ("hi", "rend", "bold", "bold", ()),
    ("hi", "rend", "small-caps", "small-cap", ("small_caps", "Small Caps")),
)
VARIANT_RATE = 0.08


@dataclass
class SchemaManifest:
    files: dict  # name -> input bytes
    canonical: dict  # name -> bytes after arbitration
    rules: str  # rewrite rules file text
    value_counts: Counter  # (element, attribute, value) -> occurrences
    elements: int
    attributes: int


def _attr_value(rng, element, attribute, counts) -> tuple:
    """(written value, canonical value) for one attribute occurrence."""
    options = [v for v in VARIANTS if v[0] == element and v[1] == attribute]
    _, _, canonical, _, variants = rng.choice(options)
    value = canonical
    if variants and rng.random() < VARIANT_RATE:
        value = rng.choice(variants)
    counts[(element, attribute, value)] += 1
    return value, canonical


def schema_corpus(seed: int, size: str) -> SchemaManifest:
    rng = random.Random(f"schema/{seed}")
    count, approx = SCHEMA_SIZES[size]
    counts: Counter = Counter()
    files: dict = {}
    canonical: dict = {}
    for n in range(count):
        written = ['<doc version="1">']
        fixed = ['<doc version="1">']
        total = len(written[0])
        while total < approx:
            value, canon = _attr_value(rng, "sec", "type", counts)
            head = f"<head>{rng.choice(WORDS).title()}</head>"
            w_parts = [f'<sec type="{value}">{head}']
            c_parts = [f'<sec type="{canon}">{head}']
            for _ in range(rng.randint(2, 5)):
                text = words(rng, 10, 30)
                w_text = c_text = text
                if rng.random() < 0.4:
                    value, canon = _attr_value(rng, "hi", "rend", counts)
                    word, tail = rng.choice(WORDS), rng.choice(WORDS)
                    w_text += f' <hi rend="{value}">{word}</hi> {tail}'
                    c_text += f' <hi rend="{canon}">{word}</hi> {tail}'
                if rng.random() < 0.2:
                    note = f' <note place="foot">{rng.choice(WORDS)}</note>'
                    w_text += note
                    c_text += note
                w_parts.append(f"<p>{w_text}</p>")
                c_parts.append(f"<p>{c_text}</p>")
            w_parts.append("</sec>")
            c_parts.append("</sec>")
            blob = "".join(w_parts)
            written.append(blob)
            fixed.append("".join(c_parts))
            total += len(blob)
        written.append("</doc>")
        fixed.append("</doc>")
        name = f"doc{n:04d}.xml"
        files[name] = "".join(written).encode("utf-8")
        canonical[name] = "".join(fixed).encode("utf-8")
    rules = "".join(
        f"{element} {attribute} {variant} -> {canon}\n"
        for element, attribute, canon, _, variants in VARIANTS
        for variant in variants
    )
    # doc, sec, head, p, hi, note; doc@version, sec@type, hi@rend, note@place
    return SchemaManifest(files, canonical, rules, counts, elements=6, attributes=4)


def expected_variant_lines(counts: Counter) -> list:
    """The lines ``teijournal variants`` must print for these counts."""
    clusters = []
    for element, attribute, canon, key, variants in VARIANTS:
        members = [
            (value, counts[(element, attribute, value)])
            for value in (canon, *variants)
            if counts[(element, attribute, value)]
        ]
        if len(members) < 2:
            continue
        members.sort(key=lambda kv: (-kv[1], kv[0]))
        total = sum(c for _, c in members)
        clusters.append((-total, element, attribute, key, members))
    clusters.sort(key=lambda c: c[:4])
    return [
        f"{element} @{attribute} ~{key}: "
        + ", ".join(f"{value} ({count})" for value, count in members)
        for _, element, attribute, key, members in clusters
    ]
