"""Definitions at the bottom of the package's import graph.

:class:`Record`, the base of every record type in the package; the
:class:`Finding` record shared by the validator and the schema checks; the
shape checks for JSON read from the user's files; and the names the command
line offers as choices: the built-in styles and the query kinds.  This
module imports nothing from the package, so the schema subcommands can
build the command line and report findings without loading the TEI model,
the builder, the renderers or the corpus code.
"""

from __future__ import annotations


class factory:
    """A field default made anew for each instance: ``make()``."""

    __slots__ = ("make",)

    def __init__(self, make) -> None:
        self.make = make


_REQUIRED = object()  # the default of a field that has none


class _LazyFields:
    """``__dataclass_fields__``, built on first read and then cached on the
    class, so that ``dataclasses.replace``, ``fields`` and ``is_dataclass``
    accept records while no command loads ``dataclasses`` to start up."""

    def __get__(self, instance, owner) -> dict:
        from dataclasses import MISSING, field, make_dataclass

        spec = []
        for name in owner._Record__fields:
            default = getattr(owner, name, MISSING)
            spec.append((name, owner.__annotations__[name], field(default_factory=default.make)
                         if isinstance(default, factory) else field(default=default)))
        owner.__dataclass_fields__ = make_dataclass(owner.__name__, spec).__dataclass_fields__
        return owner.__dataclass_fields__


class Record:
    """A record whose fields are its class annotations, with defaults taken
    from class attributes; a class attribute with no annotation is not a
    field.

    Each subclass gets an ``__init__`` that takes the fields in order, sets
    them with ``object.__setattr__`` and then calls ``__post_init__`` if the
    class has one, as ``@dataclass`` does.  Records are frozen and hash by
    their field tuple; ``mutable=True`` allows assignment and makes them
    unhashable.  Equality and ``repr`` walk nested records and tuples with a
    list instead of recursing, so nodes nested as deep as the parser allows
    compare and print; their results are those of the generated methods.
    """

    __dataclass_fields__ = _LazyFields()

    def __init_subclass__(cls, mutable: bool = False) -> None:
        cls.__fields = tuple(cls.__annotations__)
        params, lines, env = [], [], {"_set": object.__setattr__}
        for name in cls.__fields:
            env[f"_d_{name}"] = default = getattr(cls, name, _REQUIRED)
            params.append(name if default is _REQUIRED else f"{name}=_d_{name}")
            if isinstance(default, factory):
                lines.append(f" if {name} is _d_{name}: {name} = _d_{name}.make()")
            lines.append(f" _set(self, {name!r}, {name})")
        if hasattr(cls, "__post_init__"):
            lines.append(" self.__post_init__()")
        exec(f"def __init__(self, {', '.join(params)}):\n" + "\n".join(lines), env)
        cls.__init__ = env["__init__"]
        if mutable:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__
            cls.__hash__ = None

    def __setattr__(self, name: str, value) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(tuple(map(self.__getattribute__, self.__fields)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        pending = [(self, other)]
        while pending:
            a, b = pending.pop()
            if a is b:
                continue
            kind = a.__class__
            if kind is not b.__class__:
                if not a == b:
                    return False
            elif kind is tuple:
                if len(a) != len(b):
                    return False
                pending.extend(zip(a, b))
            elif isinstance(a, Record):
                pending.extend((getattr(a, name), getattr(b, name)) for name in kind.__fields)
            elif not a == b:
                return False
        return True

    def __repr__(self) -> str:
        parts: list = []
        pending: list = [(False, self)]  # (is literal text, item)
        while pending:
            literal, item = pending.pop()
            kind = item.__class__
            if literal:
                parts.append(item)
            elif kind is tuple:
                pending.append((True, ",)" if len(item) == 1 else ")"))
                for i in range(len(item) - 1, -1, -1):
                    pending.append((False, item[i]))
                    if i:
                        pending.append((True, ", "))
                pending.append((True, "("))
            elif isinstance(item, Record):
                names = kind.__fields
                pending.append((True, ")"))
                for i in range(len(names) - 1, -1, -1):
                    pending.append((False, getattr(item, names[i])))
                    pending.append((True, f"{', ' if i else ''}{names[i]}="))
                pending.append((True, f"{kind.__qualname__}("))
            else:
                parts.append(repr(item))
        return "".join(parts)


def json_object(value, what: str) -> dict:
    """``value`` read from a JSON file, if it is an object."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object")
    return value


def json_strings(value, what: str) -> list:
    """``value`` read from a JSON file, if it is a list of strings."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ValueError(f"{what} must be a list of strings")
    return value


class Finding(Record):
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
