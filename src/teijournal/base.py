"""Definitions at the bottom of the package's import graph.

The :class:`Finding` record shared by the validator and the schema checks,
and the names the command line offers as choices: the built-in styles and
the query kinds.  This module imports nothing from the package, so the
schema subcommands can build the command line and report findings without
loading the TEI model, the builder, the renderers or the corpus code.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Finding:
    rule_id: str
    severity: str
    location: str
    message: str


BUILTIN_STYLES = ("apa", "chicago", "mla")

# Mention class name (in ``model``) -> (index kind, query kind).  A term is
# indexed only when its kind is "software"; every term is queryable.
MENTION_KINDS = {
    "PersonMention": ("person", "person-mention"),
    "OrgMention": ("organization", "org-mention"),
    "PlaceMention": ("place", "place-mention"),
    "TermMention": ("software", "term-mention"),
    "AbbrMention": ("abbreviation", "abbreviation"),
}

QUERY_KINDS = ("any",) + tuple(query for _, query in MENTION_KINDS.values())
