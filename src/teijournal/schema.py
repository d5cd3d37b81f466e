"""Corpus-driven schema inference, variant detection, and arbitration.

The lifecycle: profile a corpus of parsed trees, codify the observations
into a restricted schema (everything observed is allowed, nothing more),
detect competing attribute-value spellings, rewrite the corpus once a
spelling has been chosen, and codify again. Content models are unordered
on purpose — inferring element order from a small corpus would overfit,
so only vocabulary is restricted.

Schemas serialize to JSON with sorted keys so that consecutive schema
generations diff cleanly.
"""

from __future__ import annotations

import json
import re
from collections import Counter

from .rawxml import TreeDocument, attribute_name, has_text
from .base import Finding, Record, escaper, factory, json_bool, json_object, json_strings, slotted

DEFAULT_ENUMERABLE_ATTRIBUTES = frozenset({"type", "level", "rend", "unit"})


# --------------------------------------------------------------------------
# Usage profiles
# --------------------------------------------------------------------------


class ElementUsage(Record, mutable=True, metaclass=slotted):
    """Aggregated observations for one element name."""

    count: int = 0
    children: Counter = factory(Counter)
    child_coverage: Counter = factory(Counter)
    attributes: dict = factory(dict)  # name -> Counter(values)
    text_count: int = 0  # instances with non-whitespace direct text


class UsageProfile(Record, mutable=True, metaclass=slotted):
    doc_count: int = 0
    roots: Counter = factory(Counter)
    elements: dict = factory(dict)  # name -> ElementUsage
    foreign: Counter = factory(Counter)  # boundary names


def profile_corpus(docs) -> UsageProfile:
    """Aggregate observations over a collection of parsed trees, each read
    in one document-order loop over its elements outside foreign subtrees:
    every name enters its counter when first seen, so the repr does not
    depend on the hash seed.  Foreign children count as boundaries, and each
    other child name once per parent in ``child_coverage``."""
    profile = UsageProfile()
    elements = profile.elements
    for doc in docs:
        profile.doc_count += 1
        profile.roots[doc.root.tag] += 1
        foreign = doc.foreign
        for element in doc.root.iter():
            if element in foreign:
                continue
            usage = elements.get(element.tag)
            if usage is None:
                usage = elements[element.tag] = ElementUsage()
            usage.count += 1
            for key, value in element.items():
                name = attribute_name(key)
                values = usage.attributes.get(name)
                if values is None:
                    values = usage.attributes[name] = Counter()
                values[value] += 1
            text = element.text  # as has_text tests it, with no call
            textual = bool(text) and not text.isspace()
            if len(element):
                seen = set()
                for child in element:
                    if not textual:
                        tail = child.tail
                        textual = bool(tail) and not tail.isspace()
                    name = child.tag
                    if child in foreign:
                        profile.foreign[name] += 1
                        continue
                    usage.children[name] += 1
                    if name not in seen:
                        seen.add(name)
                        usage.child_coverage[name] += 1
            if textual:
                usage.text_count += 1
    return profile


# --------------------------------------------------------------------------
# Codification
# --------------------------------------------------------------------------


class CodifyOptions(Record, metaclass=slotted):
    enumerable_attributes: frozenset = DEFAULT_ENUMERABLE_ATTRIBUTES
    enumeration_cap: int = 20

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "enumerable_attributes",
            frozenset(self.enumerable_attributes),
        )
        if self.enumeration_cap < 1:
            raise ValueError("enumeration_cap must be >= 1")


class AttributeRule(Record, metaclass=slotted):
    required: bool = False
    values: tuple | None = None  # sorted closed list, or None when open


class ElementRule(Record, metaclass=slotted):
    children: frozenset = frozenset()
    required_children: frozenset = frozenset()
    attributes: dict = factory(dict)  # name -> AttributeRule
    text: bool = False


class RestrictedSchema(Record, metaclass=slotted):
    root: str = ""
    elements: dict = factory(dict)  # name -> ElementRule
    foreign: frozenset = frozenset()


def codify(
    profile: UsageProfile, options: CodifyOptions | None = None
) -> RestrictedSchema:
    """Formalize a profile: exactly the observed practice becomes legal."""
    options = options or CodifyOptions()
    if not profile.elements:
        return RestrictedSchema()
    root = min(
        profile.roots, key=lambda name: (-profile.roots[name], name)
    )
    elements: dict = {}
    for name, usage in profile.elements.items():
        coverage = usage.child_coverage.items()
        required_children = frozenset(c for c, covered in coverage if covered >= usage.count)
        attributes: dict = {}
        for attr, values in usage.attributes.items():
            closed = (
                attr in options.enumerable_attributes
                and len(values) <= options.enumeration_cap
            )
            attributes[attr] = AttributeRule(
                required=values.total() >= usage.count,
                values=tuple(sorted(values)) if closed else None,
            )
        elements[name] = ElementRule(
            children=frozenset(usage.children),
            required_children=required_children,
            attributes=attributes,
            text=usage.text_count > 0,
        )
    return RestrictedSchema(
        root=root,
        elements=elements,
        foreign=frozenset(profile.foreign),
    )


# --------------------------------------------------------------------------
# Schema files
# --------------------------------------------------------------------------


def schema_to_json(schema: RestrictedSchema) -> str:
    payload = {
        "content_model": "unordered",
        "root": schema.root,
        "foreign": sorted(schema.foreign),
        "elements": {
            name: {
                "children": sorted(rule.children),
                "required_children": sorted(rule.required_children),
                "attributes": {
                    attr: {
                        "required": arule.required,
                        "values": (
                            list(arule.values)
                            if arule.values is not None
                            else None
                        ),
                    }
                    for attr, arule in rule.attributes.items()
                },
                "text": rule.text,
            }
            for name, rule in schema.elements.items()
        },
    }
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def load_base_schema() -> RestrictedSchema:
    """The shipped permissive superset used as the escape hatch."""
    from pathlib import Path

    # Read beside the module, as render reads its styles.
    text = (Path(__file__).parent / "data" / "base_schema.json").read_text("utf-8")
    return schema_from_json(text)


def schema_from_json(text: str) -> RestrictedSchema:
    payload = json_object(json.loads(text), "a schema")
    elements: dict = {}
    for name, entry in json_object(payload.get("elements", {}), "elements").items():
        entry = json_object(entry, f"element {name!r}")
        attributes = {}
        for attr, arule in json_object(
            entry.get("attributes", {}), f"attributes of {name!r}"
        ).items():
            arule = json_object(arule, f"attribute {name}@{attr}")
            values = arule.get("values")
            if values is not None:
                values = tuple(json_strings(values, f"values of {name}@{attr}"))
            attributes[attr] = AttributeRule(
                required=json_bool(arule.get("required", False), f"required of {name}@{attr}"),
                values=values,
            )
        elements[name] = ElementRule(
            children=frozenset(json_strings(entry.get("children", []), f"children of {name!r}")),
            required_children=frozenset(
                json_strings(entry.get("required_children", []), f"required_children of {name!r}")
            ),
            attributes=attributes,
            text=json_bool(entry.get("text", False), f"text of {name!r}"),
        )
    root = payload.get("root", "")
    if not isinstance(root, str):
        raise ValueError("root must be a string")
    return RestrictedSchema(
        root=root,
        elements=elements,
        foreign=frozenset(json_strings(payload.get("foreign", []), "foreign")),
    )


# --------------------------------------------------------------------------
# Validation against a schema
# --------------------------------------------------------------------------


def validate_against(
    schema: RestrictedSchema,
    doc: TreeDocument,
    base: RestrictedSchema | None = None,
) -> list:
    """Report constructs the schema does not permit, in document order; a
    missing required child is reported after every finding inside its parent.

    With a base schema, constructs absent from ``schema`` but permitted
    by ``base`` are downgraded to warnings; absences of required parts
    stay errors.
    """
    check = _SchemaCheck(schema, base, doc)
    root = doc.root
    if schema.root and root.tag != schema.root:
        check.emit(
            "S-root",
            root,
            f"document element '{root.tag}' differs from schema root "
            f"'{schema.root}'",
            False,
        )
    check.visit(root)
    return check.findings


class _SchemaCheck:
    """One ``validate_against`` run: the schemas, the document and the
    findings so far."""

    def __init__(self, schema: RestrictedSchema, base: RestrictedSchema | None,
                 doc: TreeDocument):
        self.schema = schema
        self.base = base
        self.doc = doc
        self.findings: list = []

    def emit(self, rule_id, node, message, downgrade_if) -> None:
        severity = "warning" if (self.base is not None and downgrade_if) else "error"
        self.findings.append(
            Finding(rule_id, severity, self.doc.source_path(node), message)
        )

    def visit(self, node) -> None:
        schema = self.schema
        base = self.base
        emit = self.emit
        name = node.tag
        rule = schema.elements.get(name)
        brule = base.elements.get(name) if base is not None else None
        if rule is None:
            emit(
                "S-element",
                node,
                f"element '{name}' not in the schema",
                brule is not None,
            )
        else:
            items = node.items()
            attrs = {attribute_name(key): value for key, value in items} if items else {}
            for attr, value in attrs.items():
                arule = rule.attributes.get(attr)
                battr = brule.attributes.get(attr) if brule else None
                if arule is None:
                    emit(
                        "S-attribute",
                        node,
                        f"attribute '{attr}' not allowed on '{name}'",
                        battr is not None,
                    )
                elif arule.values is not None and value not in arule.values:
                    base_allows = battr is not None and (
                        battr.values is None or value in battr.values
                    )
                    emit(
                        "S-value",
                        node,
                        f"value '{value}' of '{name}/@{attr}' outside "
                        f"the closed list {sorted(arule.values)}",
                        base_allows,
                    )
            for attr, arule in rule.attributes.items():
                if arule.required and attr not in attrs:
                    emit(
                        "S-required-attribute",
                        node,
                        f"required attribute '{attr}' missing on '{name}'",
                        False,
                    )
            if not rule.text and has_text(node):
                emit(
                    "S-text",
                    node,
                    f"text content not allowed in '{name}'",
                    brule is not None and brule.text,
                )
        present = set() if len(node) else ()
        foreign = self.doc.foreign
        for child in node:
            child_name = child.tag
            if child in foreign:
                if child_name in schema.foreign:
                    continue
                emit(
                    "S-element",
                    child,
                    f"foreign element '{child_name}' not in the schema",
                    base is not None and child_name in base.foreign,
                )
                continue
            present.add(child_name)
            if rule is not None and child_name not in rule.children:
                base_allows = brule is not None and child_name in brule.children
                emit(
                    "S-child",
                    child,
                    f"element '{child_name}' not permitted inside "
                    f"'{name}'",
                    base_allows,
                )
            self.visit(child)
        if rule is not None and rule.required_children:
            for required in sorted(rule.required_children.difference(present)):
                emit(
                    "S-required-child",
                    node,
                    f"required child '{required}' missing in '{name}'",
                    False,
                )


# --------------------------------------------------------------------------
# Variant detection
# --------------------------------------------------------------------------


class VariantCluster(Record, metaclass=slotted):
    element: str
    attribute: str
    key: str
    members: tuple  # ((value, count), ...) by count desc then value
    total: int


def normalize_variant(value: str) -> str:
    """Collapse spelling variation: case, plural -s, separator style."""
    value = value.casefold()
    if len(value) > 1 and value.endswith("s"):
        value = value[:-1]
    return re.sub(r"[-_ ]+", "-", value)


def detect_variants(profile: UsageProfile) -> list:
    """Find attribute values that are competing spellings of one key."""
    clusters: list = []
    for element in profile.elements:
        usage = profile.elements[element]
        for attr, values in usage.attributes.items():
            if attr not in DEFAULT_ENUMERABLE_ATTRIBUTES:
                continue
            by_key: dict = {}
            for value, count in values.items():
                by_key.setdefault(normalize_variant(value), {})[value] = count
            for key, members in by_key.items():
                if len(members) < 2:
                    continue
                ordered = tuple(
                    sorted(members.items(), key=lambda kv: (-kv[1], kv[0]))
                )
                clusters.append(
                    VariantCluster(
                        element=element,
                        attribute=attr,
                        key=key,
                        members=ordered,
                        total=sum(members.values()),
                    )
                )
    clusters.sort(
        key=lambda c: (-c.total, c.element, c.attribute, c.key)
    )
    return clusters


# --------------------------------------------------------------------------
# Arbitration
# --------------------------------------------------------------------------


# Any character outside XML 1.0's Char production.
_NON_XML_CHAR_RE = re.compile(
    r"[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]"
)


class RewriteRule(Record, metaclass=slotted):
    element: str  # element name or "*"
    attribute: str
    from_value: str
    to_value: str

    def __post_init__(self) -> None:
        if self.from_value == self.to_value:
            raise ValueError(
                f"rewrite rule maps '{self.from_value}' to itself"
            )
        bad = _NON_XML_CHAR_RE.search(self.to_value)
        if bad:
            raise ValueError(
                f"rewrite rule for {self.element} @{self.attribute}: target"
                f" contains U+{ord(bad.group()):04X}, which XML does not allow"
            )


# XML's whitespace: the only characters that separate rule fields.
_XML_SPACE = " \t\r\n"
_XML_SPACE_RE = re.compile(r"[ \t\r\n]+")


def parse_rules(text: str) -> list:
    """Read rules, one per line: ``element attribute from -> to``.  Lines
    end at LF; only XML whitespace separates or surrounds fields."""
    rules: list = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip(_XML_SPACE)
        if not line or line.startswith("#"):
            continue
        if " -> " not in line:
            raise ValueError(f"line {lineno}: missing ' -> ' separator")
        left, to_value = line.split(" -> ", 1)
        parts = _XML_SPACE_RE.split(left, 2)
        if len(parts) != 3:
            raise ValueError(
                f"line {lineno}: expected 'element attribute from -> to'"
            )
        element, attribute, from_value = parts
        for field, name in (("element", element), ("attribute", attribute)):
            if name.startswith("{") and "}" not in name:
                raise ValueError(f"line {lineno}: {field} {name} opens '{{' without closing it")
        rules.append(
            RewriteRule(element, attribute, from_value, to_value.strip(_XML_SPACE))
        )
    return rules


_encode_attr = escaper(("&", "&amp;"), ("<", "&lt;"), ('"', "&quot;"), ("'", "&#39;"))


def arbitrate(docs, rules) -> tuple:
    """Apply rewrite rules across trees; returns (new bytes per document,
    change count).

    Conflicting rules — the same (element, attribute, from) mapped to two
    targets — raise before anything is touched. A rule naming an element
    outranks a "*" rule for the same attribute and value.  An untouched
    document's bytes are returned as they are.  Rewriting cannot make a
    document ill-formed: a :class:`RewriteRule` target holds only
    characters XML allows, values are written escaped, and namespace
    declarations are left alone.
    """
    table: dict = {}
    for rule in rules:
        key = (rule.element, rule.attribute, rule.from_value)
        if key in table and table[key] != rule.to_value:
            raise ValueError(
                f"conflicting rules for {key}: "
                f"'{table[key]}' vs '{rule.to_value}'"
            )
        table[key] = rule.to_value

    def lookup(element: str, attribute: str, value: str) -> str | None:
        target = table.get((element, attribute, value))
        if target is None:
            target = table.get(("*", attribute, value))
        return target

    sources = {from_value for _, _, from_value in table}
    rewritten: list = []
    changes = 0
    for doc in docs:
        edits = _collect_edits(doc, sources, lookup)
        changes += len(edits)
        rewritten.append(_splice(doc.data, edits) if edits else doc.data)
    return rewritten, changes


def _splice(data: bytes, edits: list) -> bytes:
    """``data`` with each ``(start, end, replacement)`` applied; the spans
    must not overlap.  Builds the result in one pass."""
    parts: list = []
    pos = 0
    for start, end, replacement in sorted(edits):
        parts.append(data[pos:start])
        parts.append(replacement)
        pos = end
    parts.append(data[pos:])
    return b"".join(parts)


def _collect_edits(doc: TreeDocument, sources: set, lookup) -> list:
    """``(start, end, replacement)`` for every attribute value of ``doc``
    that a rule rewrites; a value not in ``sources``, the rules' ``from``
    values, is passed over before its attribute is named."""
    edits: list = []
    for element in doc.root.iter():
        hits: dict = {}  # (display name, value) -> target
        for key, value in element.items():
            if value in sources:
                name = attribute_name(key)
                target = lookup(element.tag, name, value)
                if target is not None:
                    hits[name, value] = target
        if not hits:
            continue
        # a TEI-prefixed twin of a name may carry another value
        for name, value, value_start, value_end in doc.attributes(element):
            target = hits.get((name, value))
            if target is not None:
                edits.append((value_start, value_end, _encode_attr(target).encode("utf-8")))
    return edits
