"""Content names and the identifier variants that share the network layer.

Canonical text forms carry a scheme prefix so files and CLI flags stay
unambiguous: ``content:/a/b``, ``id:alice``, ``geo:cn.gd.sz``,
``ip:10.0.0.1``.  Content-name components are opaque text that may not
be empty or contain ``/``; parse and format round-trip exactly.

The value types are frozen dataclasses with hand-written ``__slots__``
(``slots=True`` rebuilds the class, and the rebuilt class answers an
assignment to a non-field name with ``TypeError``, not
``FrozenInstanceError``).  Each pickles as a call of its constructor on
its fields, since pickle's default path would set the slots through the
frozen ``__setattr__``.  An `Identifier` hashes once: the first
``hash()`` keeps the result in a slot that is not a field, and as the
pickle carries only the fields, an unpickled identifier hashes afresh
under its own process's hash seed.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from enum import Enum
from typing import Union

IpAddress = Union[ipaddress.IPv4Address, ipaddress.IPv6Address]


class ParseError(ValueError):
    """Malformed identifier or content-name text."""


@dataclass(frozen=True)
class ContentName:
    """Hierarchical name ``/c1/c2/.../cN``, N >= 1."""

    __slots__ = ("components",)
    components: tuple[str, ...]

    def __post_init__(self) -> None:
        comps = self.components
        if not isinstance(comps, tuple):
            comps = tuple(comps)
            object.__setattr__(self, "components", comps)
        if not comps:
            raise ParseError("content name needs at least one component")
        # two C-level checks over the whole tuple; join raises TypeError
        # for a component that is not a str
        try:
            ok = "" not in comps and "/" not in "".join(comps)
        except TypeError:
            ok = False
        if ok:
            return
        for comp in comps:      # name the first bad component
            if not isinstance(comp, str) or not comp:
                raise ParseError("empty name component")
            if "/" in comp:
                raise ParseError(f"component contains separator: {comp!r}")

    @classmethod
    def parse(cls, text: str) -> "ContentName":
        if not text.startswith("/"):
            raise ParseError(f"content name must start with '/': {text!r}")
        return cls(tuple(text[1:].split("/")))

    @property
    def text(self) -> str:
        return "/" + "/".join(self.components)

    def prefix(self, k: int) -> "ContentName":
        """The length-k prefix, 1 <= k <= len(self)."""
        if not 1 <= k <= len(self.components):
            raise ValueError(f"prefix length {k} out of range 1..{len(self.components)}")
        return ContentName(self.components[:k])

    def is_prefix_of(self, other: "ContentName") -> bool:
        return self.components == other.components[: len(self.components)]

    def child(self, comp: str) -> "ContentName":
        return ContentName(self.components + (comp,))

    def __len__(self) -> int:
        return len(self.components)

    def __str__(self) -> str:
        return self.text

    def __reduce__(self):
        return ContentName, (self.components,)


class IdKind(Enum):
    IDENTITY = "id"
    CONTENT = "content"
    GEO = "geo"
    IP = "ip"

    # members are singletons, so identity hashing keeps equality and
    # skips Enum's Python-level __hash__ in every Identifier hash
    __hash__ = object.__hash__


# EnumType defines __getattr__ and `value` is a Python-level property, so
# `Identifier` reads its kinds and their schemes from these instead
_IDENTITY, _CONTENT, _GEO, _IP = (IdKind.IDENTITY, IdKind.CONTENT,
                                  IdKind.GEO, IdKind.IP)
_SCHEME = {kind: kind.value for kind in IdKind}


@dataclass(frozen=True)
class Identifier:
    """One of the four identifier families, tagged by kind."""

    __slots__ = ("kind", "value", "_hash")    # `_hash` is set by __hash__
    kind: IdKind
    value: Union[str, ContentName, IpAddress]

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            pass
        h = hash((self.kind, self.value))
        object.__setattr__(self, "_hash", h)
        return h

    # the fields only: a hash kept under one hash seed is wrong under another
    def __reduce__(self):
        return Identifier, (self.kind, self.value)

    @classmethod
    def identity(cls, name: str) -> "Identifier":
        if not name:
            raise ParseError("empty identity")
        return cls(_IDENTITY, name)

    @classmethod
    def content(cls, name: Union[str, ContentName]) -> "Identifier":
        if isinstance(name, str):
            name = ContentName.parse(name)
        return cls(_CONTENT, name)

    @classmethod
    def geo(cls, code: str) -> "Identifier":
        if not code:
            raise ParseError("empty geographic code")
        return cls(_GEO, code)

    @classmethod
    def ip(cls, addr: Union[str, IpAddress]) -> "Identifier":
        if isinstance(addr, str):
            try:
                addr = ipaddress.ip_address(addr)
            except ValueError as exc:
                raise ParseError(f"malformed IP address: {addr!r}") from exc
        return cls(_IP, addr)

    @classmethod
    def parse(cls, text: str) -> "Identifier":
        scheme, sep, rest = text.partition(":")
        if not sep:
            raise ParseError(f"missing scheme prefix: {text!r}")
        if scheme == "content":
            return cls.content(rest)
        if scheme == "id":
            return cls.identity(rest)
        if scheme == "geo":
            return cls.geo(rest)
        if scheme == "ip":
            return cls.ip(rest)
        raise ParseError(f"unknown scheme: {scheme!r}")

    @property
    def text(self) -> str:
        kind = self.kind
        if kind is _CONTENT:
            return f"content:{self.value.text}"
        return f"{_SCHEME[kind]}:{self.value}"

    def __str__(self) -> str:
        return self.text


@dataclass(frozen=True)
class ForwardingInfo:
    """Next-hop choice attached to a real forwarding entry."""

    __slots__ = ("face_id", "metric")
    face_id: int
    metric: int

    def __post_init__(self) -> None:
        if self.face_id < 0:
            raise ValueError("face_id must be non-negative")

    def __reduce__(self):
        return ForwardingInfo, (self.face_id, self.metric)


# a slot cannot share its name with a class-level default, so the default
# metric of 0 sits on the generated __init__
ForwardingInfo.__init__.__defaults__ = (0,)
