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
back to the parser, so ``parse_raw`` releases them before it returns.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
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

    def find(self, name: str) -> "RawNode | None":
        for child in self.children:
            if isinstance(child, RawNode) and child.name == name:
                return child
        return None

    def find_all(self, name: str) -> list:
        return [
            c for c in self.children if isinstance(c, RawNode) and c.name == name
        ]

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

    def slice(self, node: RawNode) -> str:
        start, end = self.span(node)
        return self.data[start:end].decode("utf-8")


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


def parse_raw(data: bytes) -> RawDocument:
    """Parse bytes into a span-annotated tree, or raise ``RawXmlError``."""
    if not data.strip():
        raise RawXmlError("empty input")
    _check_prolog(data)

    parser = expat.ParserCreate(namespace_separator=" ")
    parser.ordered_attributes = True
    parser.buffer_text = True

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

    def fail(message: str) -> None:
        raise RawXmlError(
            f"{message} (line {parser.CurrentLineNumber},"
            f" column {parser.CurrentColumnNumber + 1})"
        )

    def on_entity_decl(*args) -> None:
        fail("entity declarations are not allowed")

    def on_doctype(name, sysid, pubid, has_internal) -> None:
        if sysid or pubid:
            fail("external DTD references are not allowed")

    def on_ns_decl(prefix, uri) -> None:
        if prefix:
            pending_ns.append((prefix, uri or ""))
            first_ns.setdefault(prefix, uri or "")

    def on_start(expat_name, attr_list) -> None:
        if len(stack) >= MAX_DEPTH:
            fail(f"elements nested more than {MAX_DEPTH} deep")
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

    handlers = {
        "EntityDeclHandler": on_entity_decl,
        "StartDoctypeDeclHandler": on_doctype,
        "StartNamespaceDeclHandler": on_ns_decl,
        "StartElementHandler": on_start,
        "EndElementHandler": on_end,
        "CharacterDataHandler": on_text,
        "ExternalEntityRefHandler": lambda *args: 0,
    }
    for event, handler in handlers.items():
        setattr(parser, event, handler)
    try:
        parser.Parse(data, True)
    except expat.ExpatError as exc:
        raise RawXmlError(f"not well-formed: {exc}") from None
    finally:
        # the handlers refer back to the parser: break that cycle
        for event in handlers:
            setattr(parser, event, None)

    if not root_holder:
        raise RawXmlError("no document element")
    return RawDocument(data, root_holder[0], tuple(first_ns.items()))
