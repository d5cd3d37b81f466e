"""The one XML reader: an ElementTree tree with source byte spans on demand.

:func:`parse_raw` reads every document in one pass of the C ElementTree
parser, a chunk at a time, checking the depth as the tree grows.  The only
expat passes are ``_prescan``, which first reads a document with a DOCTYPE
whole and makes every refusal but the depth limit, and ``_depth_scan``,
which locates the first refusal of a refused document.  Elements carry
display names: TEI names lose their namespace, and other qualified names
read ``{uri}local``, or ``xml:local`` in the XML namespace; under a
document element in a namespace, an element in no namespace reads
``{}local``, so no two namespaces share an element name.  Byte spans,
whose offsets come from regex scans, and source paths are worked out only
for documents that ask for them (:class:`TreeDocument`).
Those spans let higher layers carry unrecognized markup through a
parse/serialize cycle verbatim, and let the rewrite machinery splice
attribute values without disturbing anything else.

Hardening: entity declarations of any kind and external DTD subsets are
rejected outright, as are UTF-16/32 inputs and non-UTF-8 encoding
declarations. Only the five built-in character entities and numeric
character references ever reach the tree. Elements may nest at most
``MAX_DEPTH`` deep, so that every recursive walk over the tree, here and
in the layers above, finishes within Python's default recursion limit.
The expat handlers refer back to the parser, so every pass releases them
before it returns.
"""

from __future__ import annotations

import re
from collections import deque
from functools import lru_cache
from itertools import chain, compress, repeat
from operator import attrgetter
from xml.parsers import expat

TEI_NS = "http://www.tei-c.org/ns/1.0"
XML_NS = "http://www.w3.org/XML/1998/namespace"

#: Deepest element nesting accepted, counting the document element as 1.
MAX_DEPTH = 256

#: Bytes the C parser reads between two depth checks.
_CHUNK = 1 << 16

_SEP = "\x01"  # expat's namespace separator; no XML 1.0 document holds it


class RawXmlError(Exception):
    """Input rejected: not well-formed, wrong encoding, or unsafe."""


# The rest of a start tag after its '<': any run of unquoted bytes and
# quoted values up to the first unquoted '>' (values may contain '>').
_START_TAG_REST_RE = re.compile(rb"""(?:[^"'>]|"[^"]*"|'[^']*')*>""")

# Content after an element's last child, or after its start tag when it has
# none, up to and including its end tag: element content that holds no
# element is character data, comments, CDATA sections and processing
# instructions, any of which may contain '>' and the text of an end tag.
_TAIL_RE = re.compile(
    rb"(?:[^<]|<!--.*?-->|<!\[CDATA\[.*?\]\]>|<\?.*?\?>)*</[^>]*>", re.S
)

# A start tag's '<' in a well-formed document, as the empty group, or the
# markup that may hold a '<', read whole: comments, CDATA, PIs and the
# DOCTYPE with its internal subset, whose declarations quote freely.
_TAG_OFFSETS_RE = re.compile(
    rb"""<(?:()(?=[^/!?])|!--.*?-->|!\[CDATA\[.*?\]\]>|\?.*?\?>|!DOCTYPE"""
    rb"""(?:[^\[>"']|"[^"]*"|'[^']*')*(?:\[(?:[^\]<]|<!--.*?-->|<\?.*?\?>"""
    rb"""|<!(?:[^>"']|"[^"]*"|'[^']*')*>)*\][^>]*)?>)""", re.S
)

_TAG_NAME_RE = re.compile(rb"<[^ \t\n\r/>]*")
# A name cannot hold "/" or ">", so character data after the tag never reads
# as one more attribute.
_ATTRIBUTE_RE = re.compile(
    rb"[ \t\n\r]+([^ \t\n\r=/>]+)[ \t\n\r]*=[ \t\n\r]*(?:\"([^\"]*)\"|'([^']*)')"
)

_ENC_DECL_RE = re.compile(
    rb"<\?xml[^>]*?encoding\s*=\s*[\"']([A-Za-z0-9._-]+)[\"']"
)


def _check_prolog(data: bytes) -> None:
    if data[:4] in (b"\x00\x00\xfe\xff", b"\xff\xfe\x00\x00"):
        raise RawXmlError("UTF-32 input is not supported; supply UTF-8")
    if data[:2] in (b"\xfe\xff", b"\xff\xfe"):
        raise RawXmlError("UTF-16 input is not supported; supply UTF-8")
    m = _ENC_DECL_RE.match(data, 3 if data.startswith(b"\xef\xbb\xbf") else 0)
    if m:
        encoding = m.group(1).decode("ascii").lower()
        if encoding not in ("utf-8", "utf8"):
            raise RawXmlError(f"unsupported encoding {encoding!r}; supply UTF-8")


def _run(parser, data: bytes, handlers: dict) -> None:
    """Parse ``data`` with ``handlers`` and the refusals every pass makes.

    Those are: empty input, a wrong encoding, entity declarations, external
    DTDs and input that is not well-formed.  The handlers refer back to the
    parser, so they are released before this returns.
    """
    if not data.strip():
        raise RawXmlError("empty input")
    _check_prolog(data)

    def on_entity_decl(*args) -> None:
        _fail(parser, "entity declarations are not allowed")

    def on_doctype(name, sysid, pubid, has_internal) -> None:
        if sysid or pubid:
            _fail(parser, "external DTD references are not allowed")

    handlers = {
        "EntityDeclHandler": on_entity_decl,
        "StartDoctypeDeclHandler": on_doctype,
        "ExternalEntityRefHandler": lambda *args: 0,
        **handlers,
    }
    for event, handler in handlers.items():
        setattr(parser, event, handler)
    try:
        parser.Parse(data, True)
    except expat.ExpatError as exc:
        raise RawXmlError(f"not well-formed: {exc}") from None
    finally:
        for event in handlers:
            setattr(parser, event, None)


def _new_parser():
    parser = expat.ParserCreate(namespace_separator=_SEP)
    parser.ordered_attributes = True
    return parser


def _fail(parser, message: str) -> None:
    raise RawXmlError(
        f"{message} (line {parser.CurrentLineNumber},"
        f" column {parser.CurrentColumnNumber + 1})"
    )


class TreeDocument:
    """A document read by :func:`parse_raw`: an ElementTree ``root`` whose
    tags are display names.  When ``root`` is in a namespace, an element in
    no namespace is named ``{}local``; attribute names never are.

    Attribute keys keep ElementTree's form (``xml:id`` is
    ``{http://www.w3.org/XML/1998/namespace}id``), except that a key in the
    TEI namespace is stripped to its local name; :func:`attribute_name`
    gives a key's display name.  ``foreign`` holds every element that is,
    or lies inside, an element whose namespace differs from the document
    element's; the document element itself never is.  Spans and source
    paths are worked out, with no expat pass, the first time one is asked for.
    """

    __slots__ = ("data", "root", "root_ns", "ns_decls", "foreign", "_twins",
                 "_starts", "_parents", "_ordinals")

    def __init__(self, data: bytes, root, root_ns: str, ns_decls: tuple, foreign: set,
                 twins: dict):
        self.data = data
        self.root = root
        self.root_ns = root_ns
        #: First declaration of each namespace prefix, in document order.
        self.ns_decls = ns_decls
        self.foreign = foreign
        self._twins = twins  # element -> its items before a TEI key merged
        self._starts = None  # element -> start offset
        self._parents = None  # element -> parent element
        self._ordinals: dict = {}  # element -> ordinal, filled per parent

    def _start(self, element) -> int:
        """The offset of ``element``'s start tag; the first call scans for all."""
        if self._starts is None:  # the scan finds start tags in ``iter`` order
            self._starts = dict(zip(self.root.iter(), _tag_offsets(self.data)))
        return self._starts[element]

    def attributes(self, element) -> list:
        """``(display name, value, value_start, value_end)`` of each attribute
        ``element``'s start tag specifies, in start-tag order: the value as
        expat reports it, the offsets of its text between the quotes.  No
        namespace declaration or DTD default is listed.  A TEI-prefixed name
        and its unprefixed twin both read as the local name, so the list can
        be longer than ``element.keys()``."""
        items = self._twins.get(element) or element.items()
        spans = _attr_value_spans(self.data, self._start(element))
        return [(attribute_name(key), value, *span) for (key, value), span in zip(items, spans)]

    def span(self, element) -> tuple[int, int]:
        """The ``(start, end)`` byte offsets of ``element``'s markup.

        Start offsets come from ``_start``.  The end is found from the last
        descendant up: a childless element ends at its own ``/>`` or at the
        end tag after its content, and each element around it ends at the
        end tag after its last child's tail (see ``_TAIL_RE``).
        """
        data = self.data
        enclosing = [element]
        while len(enclosing[-1]):
            enclosing.append(enclosing[-1][-1])
        end = _START_TAG_REST_RE.match(data, self._start(enclosing.pop()) + 1).end()
        if data[end - 2] != 0x2F:  # no '/' before the '>': paired tags
            end = _TAIL_RE.match(data, end).end()
        for _ in enclosing:
            end = _TAIL_RE.match(data, end).end()
        return self._start(element), end

    def slice(self, element) -> str:
        start, end = self.span(element)
        return self.data[start:end].decode("utf-8")

    def source_path(self, element) -> str:
        """Slash-joined path with 1-based same-name sibling indexes."""
        parents = self._parents
        if parents is None:
            parents = self._parents = {
                child: parent for parent in self.root.iter() for child in parent
            }
        ordinals = self._ordinals
        parts = []
        while element is not self.root:
            parent = parents[element]
            if element not in ordinals:
                counters: dict = {}
                for child in parent:
                    name = child.tag
                    ordinals[child] = counters[name] = counters.get(name, 0) + 1
            parts.append(f"{element.tag}[{ordinals[element]}]")
            element = parent
        parts.append(f"{element.tag}[1]")
        return "/".join(reversed(parts))


class _TooDeep(Exception):
    """The tree read so far nests deeper than ``MAX_DEPTH``."""


def parse_raw(data: bytes) -> TreeDocument:
    """Read bytes into a :class:`TreeDocument`, or raise ``RawXmlError``.

    Once the encoding is checked, the C parser reads the document,
    ``_CHUNK`` bytes at a time, and reports its namespace declarations.
    Entity declarations and external DTDs need a DOCTYPE, so only a
    document with one is first read whole by ``_prescan``, before the C
    parser gets any of it.  After each chunk the path of last children
    down from the document element, which holds every open element, is
    measured, so a document nested far too deep is dropped after its first
    chunks; the whole tree is measured once at the end.  A document refused
    on any of these counts is read once more, by ``_depth_scan``, for the
    first refusal in document order and its line and column.  If it finds
    none, a namespace URI holds ``}``, the C parser's separator, which expat
    accepts; a URI holding a space is read by every pass.
    """
    from xml.etree.ElementTree import ParseError

    failure = None
    try:
        return _build(data, _prescan(data) if b"<!DOCTYPE" in data else {})
    except ParseError as exc:
        failure = exc
    except (RawXmlError, _TooDeep):
        pass
    _depth_scan(data)  # raises at the first refusal, too-deep elements included
    raise RawXmlError(f"a namespace URI holds '}}' ({failure})")


def _build(data: bytes, entities: dict) -> TreeDocument:
    """The tree of ``data`` read by the C parser, with ``entities`` defined
    as it starts."""
    from xml.etree.ElementTree import TreeBuilder, XMLParser

    _check_prolog(data)
    builder = TreeBuilder()
    parser = XMLParser(target=builder)
    parser.entity.update(entities)
    events: list = []  # ("start-ns", (prefix, uri)), as XMLPullParser has them
    parser._setevents(events, ("start-ns",))
    for at in range(0, len(data), _CHUNK):
        parser.feed(data[at:at + _CHUNK])
        # the C builder's ``close`` hands back the document element built so
        # far and leaves the parse open (pinned by a test)
        if _last_path_too_deep(builder.close()):
            raise _TooDeep
    root = parser.close()
    if _deeper_than_limit(root):
        raise _TooDeep
    first_ns: dict = {}
    for _, (prefix, uri) in events:
        if prefix:
            first_ns.setdefault(prefix, uri)
    tei_prefixed = any(uri == TEI_NS for _, (prefix, uri) in events if prefix)
    root_ns, foreign, twins = _adopt_names(root, tei_prefixed)
    return TreeDocument(data, root, root_ns, tuple(first_ns.items()), foreign, twins)


def _prescan(data: bytes) -> dict:
    """Make every refusal but the depth limit, building nothing.

    Returns each general entity expat skips, which happens when the DTD
    refers to a parameter entity, mapped to the empty string.
    """
    parser = _new_parser()
    entities: dict = {}

    def on_skipped(name, is_parameter_entity) -> None:
        if not is_parameter_entity:
            entities[name] = ""

    _run(parser, data, {"SkippedEntityHandler": on_skipped})
    return entities


def _depth_scan(data: bytes) -> None:
    """Raise at the first refusal, too-deep elements included."""
    parser = _new_parser()
    depth = 0

    def on_start(name, attrs) -> None:
        nonlocal depth
        if depth >= MAX_DEPTH:
            _fail(parser, f"elements nested more than {MAX_DEPTH} deep")
        depth += 1

    def on_end(name) -> None:
        nonlocal depth
        depth -= 1

    _run(parser, data, {"StartElementHandler": on_start, "EndElementHandler": on_end})


@lru_cache(maxsize=1024)
def _tree_name(tag: str) -> tuple[str, str]:
    """Map ElementTree's ``{uri}local`` form to a display name and URI."""
    if tag[:1] != "{":
        return tag, ""
    uri, _, local = tag[1:].rpartition("}")  # a local name holds no '}'
    if uri == TEI_NS:
        return local, uri
    if uri == XML_NS:
        return f"xml:{local}", uri
    return tag, uri


@lru_cache(maxsize=1024)
def attribute_name(key: str) -> str:
    """The display name of an attribute key of a :class:`TreeDocument`
    element: ``xml:lang``, ``{uri}local``, or the key itself."""
    return _tree_name(key)[0]


def has_text(element) -> bool:
    """True when any direct text run of ``element`` is more than whitespace."""
    if element.text and element.text.strip():
        return True
    for child in element:
        if child.tail and child.tail.strip():
            return True
    return False


_TEI_KEY = "{%s}" % TEI_NS
_TAG = attrgetter("tag")


def _adopt_names(root, tei_prefixed: bool) -> tuple:
    """Rename every element of ``root`` to its display name, and strip the
    TEI namespace from attribute keys when a prefix is bound to it.

    Returns the document element's namespace, the set of foreign elements
    and the items, from before the strip, of each element where it merged a
    TEI-prefixed key into its unprefixed twin.  The per-element steps run in
    C (``map``, ``compress``, a ``deque`` that keeps nothing); Python runs
    once per distinct tag and once per element whose own namespace is foreign.
    """
    elements = list(root.iter())
    tags = list(map(_TAG, elements))
    resolved = {tag: _tree_name(tag) for tag in set(tags)}
    root_ns = resolved[root.tag][1]
    is_foreign = {tag for tag, (_, uri) in resolved.items() if uri != root_ns}
    foreign: set = set()
    for element in compress(elements, map(is_foreign.__contains__, tags)):
        if element not in foreign:  # in document order, an outer one came first
            foreign.update(element.iter())
    names = {tag: "{}" + name if root_ns and not uri else name  # see the module docstring
             for tag, (name, uri) in resolved.items()}
    deque(map(setattr, elements, repeat("tag"), map(names.__getitem__, tags)), maxlen=0)
    twins: dict = {}
    if tei_prefixed:
        for element in elements:
            if any(key.startswith(_TEI_KEY) for key in element.keys()):
                items = element.items()
                element.attrib = {key.removeprefix(_TEI_KEY): value for key, value in items}
                if len(element.attrib) < len(items):
                    twins[element] = items
    return root_ns, foreign, twins


def _last_path_too_deep(element) -> bool:
    """True when the path of last children down from ``element`` is more
    than ``MAX_DEPTH`` long; ``None``, no document element yet, is not."""
    for _ in range(MAX_DEPTH):
        if element is None or not len(element):
            return False
        element = element[-1]
    return True


def _deeper_than_limit(root) -> bool:
    """True when elements nest more than ``MAX_DEPTH`` deep.  Walks the tree
    level by level, keeping only the elements that have children."""
    level = [root] if len(root) else []
    for _ in range(MAX_DEPTH - 1):
        level = list(filter(len, chain.from_iterable(level)))
        if not level:
            return False
    return bool(level)


def _tag_offsets(data: bytes) -> list:
    """The offset of every start tag's ``<``, in document order, from one
    regex scan of a document :func:`parse_raw` accepted."""
    return [match.start() for match in _TAG_OFFSETS_RE.finditer(data)
            if match.lastindex]


def _attr_value_spans(data: bytes, start: int) -> list:
    """Lexical ``(value_start, value_end)`` of each attribute the start tag
    at ``start`` specifies, in order; namespace declarations are left out."""
    spans: list = []
    pos = _TAG_NAME_RE.match(data, start).end()
    while match := _ATTRIBUTE_RE.match(data, pos):
        name = match[1]
        if name != b"xmlns" and not name.startswith(b"xmlns:"):
            spans.append(match.span(match.lastindex))
        pos = match.end()
    return spans
