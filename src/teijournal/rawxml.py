"""Low-level XML tree with source byte spans.

Built directly on ``xml.parsers.expat`` so that every element records where
it starts and where its end tag was reported in the input.
:meth:`RawDocument.span` turns that into the byte range the element
occupies, on demand, because only a few nodes ever need it.  Those spans
let higher layers carry unrecognized markup through a parse/serialize cycle
verbatim, and let the rewrite machinery splice attribute values without
disturbing anything else.

Hardening: entity declarations of any kind and external DTD subsets are
rejected outright, as are UTF-16/32 inputs and non-UTF-8 encoding
declarations. Only the five built-in character entities and numeric
character references ever reach the tree. Elements may nest at most
``MAX_DEPTH`` deep, so that every recursive walk over the tree, here and
in the layers above, finishes within Python's default recursion limit.

Every structure a parse builds is free of reference cycles, so it is freed
as soon as the last reference to it goes, without waiting for the cyclic
garbage collector.  A node therefore has no ``parent`` attribute.  Instead
``up`` holds its parent's upward chain, the tuple ``(name, ordinal, up)``
of the parent, which ends in ``None`` at the document element.
:func:`source_path` reads a node's path from its own name and ordinal and
that chain.  One chain tuple is made per element that has element
children, and all of those children share it.  The expat handlers refer
back to the parser, so every pass releases them before it returns.

:func:`parse_tree` is the cheaper reader the TEI builder uses.  One expat
pass with no element handler makes every refusal above; then the C
ElementTree parser builds the tree, and only ever sees accepted bytes.  Its
elements carry ``parse_raw``'s names, and the byte spans and source paths
that cost a Python call per element are worked out only for documents that
ask for them (:class:`TreeDocument`).
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, compress, repeat
from operator import attrgetter
from xml.parsers import expat

TEI_NS = "http://www.tei-c.org/ns/1.0"
XML_NS = "http://www.w3.org/XML/1998/namespace"

#: Deepest element nesting accepted, counting the document element as 1.
MAX_DEPTH = 256


class RawXmlError(Exception):
    """Input rejected: not well-formed, wrong encoding, or unsafe."""


@dataclass(eq=False, slots=True)
class RawNode:
    """One element: resolved name, attributes, children, and byte span.

    Identity equality: nodes are positions in one parsed document, not
    values.
    """

    name: str
    ns: str = ""
    attrs: dict = field(default_factory=dict)
    children: list = field(default_factory=list)  # RawNode | str
    start: int = 0  # offset of the start tag's '<'
    close: int = 0  # where expat reported the end: see RawDocument.span
    up: "tuple | None" = field(default=None, repr=False)  # parent's chain
    ordinal: int = 1  # 1-based position among same-named siblings
    ns_decls: tuple = ()  # prefixed declarations carried by this element
    foreign: bool = False  # namespace differs from the document element's

    def element_children(self) -> list:
        return [c for c in self.children if isinstance(c, RawNode)]

    def text_content(self) -> str:
        parts = []
        for child in self.children:
            if isinstance(child, str):
                parts.append(child)
            else:
                parts.append(child.text_content())
        return "".join(parts)

    def has_text(self) -> bool:
        """True when any direct text child is more than whitespace."""
        return any(
            isinstance(c, str) and c.strip() for c in self.children
        )


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


@dataclass
class RawDocument:
    data: bytes
    root: RawNode
    #: First declaration of each namespace prefix, in document order.
    ns_decls: tuple = ()

    def span(self, node: RawNode) -> tuple[int, int]:
        """The ``(start, end)`` byte offsets of ``node``'s markup.

        The parse records only where each element starts and where expat
        reported its end tag; the end offset is worked out here, for the
        few nodes that need it.  An empty-element tag ends at its own
        ``/>``; otherwise the end tag runs to the next ``>`` (end tags
        contain no quotes).
        """
        data = self.data
        end = _START_TAG_REST_RE.match(data, node.start + 1).end()
        if data[end - 2] != 0x2F:  # no '/' before the '>': paired tags
            end = data.index(b">", node.close) + 1
        return node.start, end


def source_path(node: RawNode) -> str:
    """Slash-joined path with 1-based same-name sibling indexes."""
    parts = [f"{node.name}[{node.ordinal}]"]
    up = node.up
    while up is not None:
        name, ordinal, up = up
        parts.append(f"{name}[{ordinal}]")
    return "/".join(reversed(parts))


_ENC_DECL_RE = re.compile(
    rb"<\?xml[^>]*?encoding\s*=\s*[\"']([A-Za-z0-9._-]+)[\"']"
)


def _check_prolog(data: bytes) -> None:
    if data[:4] in (b"\x00\x00\xfe\xff", b"\xff\xfe\x00\x00"):
        raise RawXmlError("UTF-32 input is not supported; supply UTF-8")
    if data[:2] in (b"\xfe\xff", b"\xff\xfe"):
        raise RawXmlError("UTF-16 input is not supported; supply UTF-8")
    m = _ENC_DECL_RE.match(data[:256].lstrip(b"\xef\xbb\xbf"))
    if m:
        encoding = m.group(1).decode("ascii").lower()
        if encoding not in ("utf-8", "utf8"):
            raise RawXmlError(f"unsupported encoding {encoding!r}; supply UTF-8")


def _resolve_name(expat_name: str) -> tuple[str, str]:
    """Map expat's ``uri local`` form to a display name and namespace URI."""
    if " " not in expat_name:
        return expat_name, ""
    uri, local = expat_name.split(" ", 1)
    if uri == TEI_NS:
        return local, uri
    if uri == XML_NS:
        return f"xml:{local}", uri
    return "{%s}%s" % (uri, local), uri


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
    parser = expat.ParserCreate(namespace_separator=" ")
    parser.ordered_attributes = True
    parser.buffer_text = True
    return parser


def _fail(parser, message: str) -> None:
    raise RawXmlError(
        f"{message} (line {parser.CurrentLineNumber},"
        f" column {parser.CurrentColumnNumber + 1})"
    )


def parse_raw(data: bytes) -> RawDocument:
    """Parse bytes into a span-annotated tree, or raise ``RawXmlError``."""
    parser = _new_parser()
    root_holder: list[RawNode] = []
    # One frame per open element: [node, its children list, same-name
    # sibling counters, upward chain]; the last two are made at its first
    # element child.
    stack: list[list] = []
    pending_ns: list[tuple] = []
    first_ns: dict = {}  # prefix -> URI of its first declaration
    names: dict = {}  # expat name -> (name, namespace URI), for this parse

    def resolve(expat_name: str) -> tuple[str, str]:
        resolved = names[expat_name] = _resolve_name(expat_name)
        return resolved

    def on_ns_decl(prefix, uri) -> None:
        if prefix:
            pending_ns.append((prefix, uri or ""))
            first_ns.setdefault(prefix, uri or "")

    def on_start(expat_name, attr_list) -> None:
        if len(stack) >= MAX_DEPTH:
            _fail(parser, f"elements nested more than {MAX_DEPTH} deep")
        name, uri = names.get(expat_name) or resolve(expat_name)
        attrs = {}
        if attr_list:
            pairs = iter(attr_list)
            for attr_name, value in zip(pairs, pairs):
                attrs[(names.get(attr_name) or resolve(attr_name))[0]] = value
        if pending_ns:
            ns_decls = tuple(pending_ns)
            pending_ns.clear()
        else:
            ns_decls = ()
        children = []
        if stack:
            frame = stack[-1]
            up = frame[3]
            if up is None:
                parent = frame[0]
                up = frame[3] = (parent.name, parent.ordinal, parent.up)
                siblings = frame[2] = {name: 1}
                ordinal = 1
            else:
                siblings = frame[2]
                ordinal = siblings[name] = siblings.get(name, 0) + 1
            # positional for speed: name, ns, attrs, children, start, close,
            # up, ordinal, ns_decls, foreign
            node = RawNode(name, uri, attrs, children, parser.CurrentByteIndex, 0,
                           up, ordinal, ns_decls,
                           frame[0].foreign or uri != root_holder[0].ns)
            frame[1].append(node)
        else:
            node = RawNode(name, uri, attrs, children, parser.CurrentByteIndex,
                           ns_decls=ns_decls)
            root_holder.append(node)
        stack.append([node, children, None, None])

    def on_end(expat_name) -> None:
        stack.pop()[0].close = parser.CurrentByteIndex

    def on_text(text) -> None:
        if not stack:
            return
        children = stack[-1][1]
        if children and isinstance(children[-1], str):
            children[-1] += text
        else:
            children.append(text)

    _run(parser, data, {
        "StartNamespaceDeclHandler": on_ns_decl,
        "StartElementHandler": on_start,
        "EndElementHandler": on_end,
        "CharacterDataHandler": on_text,
    })
    if not root_holder:
        raise RawXmlError("no document element")
    return RawDocument(data, root_holder[0], tuple(first_ns.items()))


# --------------------------------------------------------------------------
# The ElementTree reader
# --------------------------------------------------------------------------


class TreeDocument:
    """A document read by :func:`parse_tree`: an ElementTree ``root`` whose
    tags and attribute names are the ones :func:`parse_raw` gives.

    TEI names lose their namespace and XML-namespace element names read
    ``xml:*``.  Attribute keys keep ElementTree's form (``xml:id`` is
    ``{http://www.w3.org/XML/1998/namespace}id``), except that a key in the
    TEI namespace is stripped to its local name, as ``parse_raw`` does.
    ``foreign`` holds every element that is, or lies inside, an element
    whose namespace differs from the document element's.  Byte spans and
    source paths are worked out the first time one is asked for.
    """

    __slots__ = ("data", "root", "root_ns", "ns_decls", "foreign", "_starts",
                 "_parents", "_ordinals")

    def __init__(self, data: bytes, root, root_ns: str, ns_decls: tuple, foreign: set):
        self.data = data
        self.root = root
        self.root_ns = root_ns
        #: First declaration of each namespace prefix, in document order.
        self.ns_decls = ns_decls
        self.foreign = foreign
        self._starts = None  # element -> start offset, from one more pass
        self._parents = None  # element -> parent element
        self._ordinals: dict = {}  # element -> ordinal, filled per parent

    def span(self, element) -> tuple[int, int]:
        """The ``(start, end)`` byte offsets of ``element``'s markup.

        Only start offsets are recorded, by one expat pass the first time a
        span is asked for.  The end is found from the last descendant up:
        a childless element ends at its own ``/>`` or at the end tag after
        its content, and each element around it ends at the end tag after
        its last child's tail (see ``_TAIL_RE``).
        """
        starts = self._starts
        if starts is None:
            # expat reports start tags in the order ``iter`` walks the tree
            starts = self._starts = dict(
                zip(self.root.iter(), _element_starts(self.data))
            )
        data = self.data
        enclosing = [element]
        while len(enclosing[-1]):
            enclosing.append(enclosing[-1][-1])
        end = _START_TAG_REST_RE.match(data, starts[enclosing.pop()] + 1).end()
        if data[end - 2] != 0x2F:  # no '/' before the '>': paired tags
            end = _TAIL_RE.match(data, end).end()
        for _ in enclosing:
            end = _TAIL_RE.match(data, end).end()
        return starts[element], end

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


def parse_tree(data: bytes) -> TreeDocument:
    """Read bytes into a :class:`TreeDocument`, or raise ``RawXmlError``.

    Refuses exactly what :func:`parse_raw` refuses, with the same message:
    an expat pass with no element handler checks everything but the depth;
    the depth is measured on the built tree, and only a refused document
    is read once more, depth-checked, for the first refusal in document
    order and its line and column.
    """
    from xml.etree.ElementTree import XMLParser

    try:
        ns_decls, skipped, tei_prefixed = _prescan(data, limit_depth=False)
    except RawXmlError:
        _prescan(data, limit_depth=True)  # an element too deep may come first
        raise
    parser = XMLParser()
    # expat skips an undeclared entity when the DTD refers to a parameter
    # entity; parse_raw then drops the reference, and so does this parser
    parser.entity.update(dict.fromkeys(skipped, ""))
    parser.feed(data)
    root = parser.close()
    if _deeper_than_limit(root):
        _prescan(data, limit_depth=True)  # raises at the first too-deep element
        raise RawXmlError(f"elements nested more than {MAX_DEPTH} deep")
    root_ns, foreign = _adopt_names(root, tei_prefixed)
    return TreeDocument(data, root, root_ns, ns_decls, foreign)


def _prescan(data: bytes, limit_depth: bool) -> tuple:
    """Check ``data`` as :func:`parse_raw` does, building nothing.

    Returns the first declaration of each namespace prefix, the general
    entities expat skipped, and whether any prefix is bound to the TEI
    namespace.  Only with ``limit_depth`` are element handlers set, to
    refuse nesting deeper than ``MAX_DEPTH`` where ``parse_raw`` does.
    """
    parser = _new_parser()
    first_ns: dict = {}
    skipped: list = []
    tei_prefixed = False
    depth = 0

    def on_ns_decl(prefix, uri) -> None:
        nonlocal tei_prefixed
        if prefix:
            first_ns.setdefault(prefix, uri or "")
            tei_prefixed = tei_prefixed or uri == TEI_NS

    def on_skipped(name, is_parameter_entity) -> None:
        if not is_parameter_entity:
            skipped.append(name)

    def on_start(name, attrs) -> None:
        nonlocal depth
        if depth >= MAX_DEPTH:
            _fail(parser, f"elements nested more than {MAX_DEPTH} deep")
        depth += 1

    def on_end(name) -> None:
        nonlocal depth
        depth -= 1

    handlers = {
        "StartNamespaceDeclHandler": on_ns_decl,
        "SkippedEntityHandler": on_skipped,
    }
    if limit_depth:
        handlers.update(StartElementHandler=on_start, EndElementHandler=on_end)
    _run(parser, data, handlers)
    return tuple(first_ns.items()), skipped, tei_prefixed


@lru_cache(maxsize=1024)
def _tree_name(tag: str) -> tuple[str, str]:
    """Map ElementTree's ``{uri}local`` form to parse_raw's name and URI."""
    if tag[:1] != "{":
        return tag, ""
    uri, _, local = tag[1:].rpartition("}")  # a local name holds no '}'
    return _resolve_name(f"{uri} {local}")


_TEI_KEY = "{%s}" % TEI_NS
_TAG = attrgetter("tag")


def _adopt_names(root, tei_prefixed: bool) -> tuple:
    """Rename every element of ``root`` to parse_raw's name for it, and strip
    the TEI namespace from attribute keys when a prefix is bound to it.

    Returns the document element's namespace and the set of foreign
    elements.  The per-element steps run in C (``map``, ``compress``, a
    ``deque`` that keeps nothing); Python runs once per distinct tag and
    once per element whose own namespace is foreign.
    """
    elements = list(root.iter())
    tags = list(map(_TAG, elements))
    resolved = {tag: _tree_name(tag) for tag in set(tags)}
    root_ns = resolved[root.tag][1]
    foreign_tags = {tag for tag, (_, uri) in resolved.items() if uri != root_ns}
    foreign: set = set()
    for element in compress(elements, map(foreign_tags.__contains__, tags)):
        if element not in foreign:  # in document order, an outer one came first
            foreign.update(element.iter())
    names = {tag: name for tag, (name, _) in resolved.items()}
    deque(map(setattr, elements, repeat("tag"), map(names.__getitem__, tags)), maxlen=0)
    if tei_prefixed:
        for element in elements:
            if any(key.startswith(_TEI_KEY) for key in element.keys()):
                element.attrib = {
                    key.removeprefix(_TEI_KEY): value for key, value in element.items()
                }
    return root_ns, foreign


def _deeper_than_limit(root) -> bool:
    """True when elements nest more than ``MAX_DEPTH`` deep.  Walks the tree
    level by level, keeping only the elements that have children."""
    level = [root] if len(root) else []
    for _ in range(MAX_DEPTH - 1):
        level = list(filter(len, chain.from_iterable(level)))
        if not level:
            return False
    return bool(level)


def _element_starts(data: bytes) -> list:
    """The offset of every start tag's ``<``, in document order."""
    parser = expat.ParserCreate()  # accepted bytes: names need no resolving
    parser.ordered_attributes = True
    starts: list = []

    def on_start(name, attrs) -> None:
        starts.append(parser.CurrentByteIndex)

    _run(parser, data, {"StartElementHandler": on_start})
    return starts
