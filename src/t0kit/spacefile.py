"""Line-oriented text format for finite spaces and maps.

A document is a sequence of blocks:

    # comments run to end of line
    space NAME
    points a b c
    le a b          # a below b; reflexive-transitive closure is taken
    ...
    space OTHER
    points p q
    open q          # one open per line; empty and full are implicit,
    ...             # and the family is completed to a topology

    map f : NAME -> OTHER
    send a p
    ...

A space block lists its points once and then describes the topology
either through `le` lines (specialization order, Alexandrov opens) or
through `open` lines (generating opens), never both.  Map blocks must
name previously declared spaces, send every domain point, and be
continuous.  Parsing is strict: unknown directives, undeclared names,
duplicates, and non-T0 or non-poset data all fail with the source
position."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Sequence

from .constructions import SpaceMap, space_map
from .errors import NotAPartialOrder, NotContinuous, NotT0, ParseError
from .finite_space import FiniteSpace, from_cover, from_opens, mask_of
from .report import cover_pairs

_WORD = re.compile(r"\S+")
_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_MAP_HEADER = re.compile(
    r"^map\s+([A-Za-z_][A-Za-z0-9_]*)\s*:\s*"
    r"([A-Za-z_][A-Za-z0-9_]*)\s*->\s*([A-Za-z_][A-Za-z0-9_]*)\s*$"
)


@dataclass(frozen=True)
class SpaceDoc:
    name: str
    point_names: tuple[str, ...]
    space: FiniteSpace
    line: int

    def index(self, point_name: str) -> int:
        return self.point_names.index(point_name)


@dataclass(frozen=True)
class MapDoc:
    name: str
    src: str
    dst: str
    map: SpaceMap
    line: int


@dataclass(frozen=True)
class Document:
    spaces: dict[str, SpaceDoc] = field(default_factory=dict)
    maps: tuple[MapDoc, ...] = ()

    def first_space(self) -> SpaceDoc:
        if not self.spaces:
            raise ParseError("document declares no space")
        return next(iter(self.spaces.values()))


class _SpaceBlock:
    kind = "space"

    def __init__(self, name: str, line: int):
        self.name, self.line = name, line
        self.points: list[str] | None = None
        self.mode: str | None = None  # "le" or "open" once seen
        self.rows: list[list[int]] = []  # point indices, one list per line

    def build(self) -> SpaceDoc:
        if self.points is None:
            raise ParseError(f"space {self.name} has no points line", self.line, 1)
        n = len(self.points)
        try:
            if self.mode == "open":
                space = from_opens(n, map(mask_of, self.rows))
            else:
                space = from_cover(n, self.rows)
        except (NotT0, NotAPartialOrder) as exc:
            raise type(exc)(f"space {self.name} (line {self.line}): {exc}") from None
        return SpaceDoc(self.name, tuple(self.points), space, self.line)


class _MapBlock:
    kind = "map"

    def __init__(self, name: str, src: SpaceDoc, dst: SpaceDoc, line: int):
        self.name, self.src, self.dst, self.line = name, src, dst, line
        self.sent: dict[int, int] = {}

    def build(self) -> MapDoc:
        missing = [p for i, p in enumerate(self.src.point_names) if i not in self.sent]
        if missing:
            raise ParseError(f"map {self.name} never sends {', '.join(missing)}", self.line, 1)
        table = tuple(self.sent[i] for i in range(self.src.space.n))
        try:
            f = space_map(self.src.space, self.dst.space, table)
        except NotContinuous as exc:
            raise NotContinuous(f"map {self.name} (line {self.line}): {exc}") from None
        return MapDoc(self.name, self.src.name, self.dst.name, f, self.line)


# The block each directive must sit in; `space` and `map` open blocks.
_BLOCK = {"points": "space", "le": "space", "open": "space", "send": "map"}

_Token = tuple[str, int | None]  # a word and its 1-based column, if in a document


def _check_name(token: _Token, what: str, line: int | None) -> str:
    word, col = token
    if not _NAME.match(word):
        raise ParseError(f"bad {what} name {word!r}", line, col)
    return word


def _index(names: Sequence[str], token: _Token, message: str, line: int) -> int:
    """Position of the token's word in names; message formats the miss."""
    word, col = token
    try:
        return names.index(word)
    except ValueError:
        raise ParseError(message.format(word), line, col) from None


def parse_document(text: str) -> Document:
    spaces: dict[str, SpaceDoc] = {}
    maps: list[MapDoc] = []
    block: _SpaceBlock | _MapBlock | None = None

    def flush():
        if isinstance(block, _SpaceBlock):
            doc = block.build()
            spaces[doc.name] = doc
        elif isinstance(block, _MapBlock):
            maps.append(block.build())

    for lineno, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0]
        tokens = [(m.group(), m.start() + 1) for m in _WORD.finditer(content)]
        if not tokens:
            continue
        head, args = tokens[0][0], tokens[1:]
        kind = _BLOCK.get(head)
        if kind is not None and getattr(block, "kind", None) != kind:
            raise ParseError(f"{head} outside a {kind} block", lineno, 1)

        if head == "space":
            if len(args) != 1:
                raise ParseError("space takes exactly one name", lineno, 1)
            name = _check_name(args[0], "space", lineno)
            flush()
            if name in spaces:
                raise ParseError(f"duplicate space {name}", lineno, 1)
            block = _SpaceBlock(name, lineno)
        elif head == "points":
            if block.points is not None:
                raise ParseError(f"space {block.name} lists points twice", lineno, 1)
            if not args:
                raise ParseError("points line needs at least one name", lineno, 1)
            seen: list[str] = []
            for token in args:
                word = _check_name(token, "point", lineno)
                if word in seen:
                    raise ParseError(f"duplicate point {word}", lineno, token[1])
                seen.append(word)
            block.points = seen
        elif head in ("le", "open"):
            if block.points is None:
                raise ParseError(f"space {block.name} needs a points line first", lineno, 1)
            if block.mode not in (None, head):
                raise ParseError(f"space {block.name} mixes le and open lines", lineno, 1)
            block.mode = head
            if head == "le" and len(args) != 2:
                raise ParseError("le takes exactly two points", lineno, 1)
            if not args:
                raise ParseError("empty open is implicit; open lines need points", lineno, 1)
            block.rows.append(
                [_index(block.points, t, "undeclared point {}", lineno) for t in args]
            )
        elif head == "map":
            m = _MAP_HEADER.match(content.strip())
            if not m:
                raise ParseError("map header is `map f : A -> B`", lineno, 1)
            flush()
            fname, src, dst = m.groups()
            for which in (src, dst):
                if which not in spaces:
                    raise ParseError(
                        f"map {fname} references undeclared space {which}", lineno, 1
                    )
            if any(d.name == fname for d in maps):
                raise ParseError(f"duplicate map {fname}", lineno, 1)
            block = _MapBlock(fname, spaces[src], spaces[dst], lineno)
        elif head == "send":
            if len(args) != 2:
                raise ParseError("send takes exactly two points", lineno, 1)
            src, dst = block.src, block.dst
            i = _index(src.point_names, args[0], "{} is not a point of " + src.name, lineno)
            x = _index(dst.point_names, args[1], "{} is not a point of " + dst.name, lineno)
            if i in block.sent:
                raise ParseError(f"{args[0][0]} is sent twice", lineno, 1)
            block.sent[i] = x
        else:
            raise ParseError(f"unknown directive {head!r}", lineno, 1)

    flush()
    return Document(spaces=spaces, maps=tuple(maps))


def parse_space(text: str) -> SpaceDoc:
    """Parse a document that declares exactly one space and no maps."""
    doc = parse_document(text)
    if len(doc.spaces) != 1 or doc.maps:
        raise ParseError(
            f"expected exactly one space block, found {len(doc.spaces)} "
            f"spaces and {len(doc.maps)} maps"
        )
    return doc.first_space()


def print_space(name: str, space: FiniteSpace,
                point_names: list[str] | None = None,
                comments: list[str] | None = None) -> str:
    """Canonical text for one space: points plus covering-pair le lines.

    Raises ParseError for any name or comment the parser would refuse or
    read back differently, so parse_space(print_space(...)) round-trips."""
    names = list(point_names) if point_names is not None else [
        f"x{i}" for i in range(space.n)
    ]
    _check_name((name, None), "space", None)
    if len(names) != space.n or len(set(names)) != space.n:
        raise ParseError(f"need {space.n} distinct point names")
    for word in names:
        _check_name((word, None), "point", None)
    comments = comments or []
    for c in comments:
        if "".join(c.splitlines()) != c:
            raise ParseError(f"comment {c!r} spans lines")
    lines = [f"# {c}" for c in comments]
    lines.append(f"space {name}")
    lines.append("points " + " ".join(names))
    for x, y in sorted(cover_pairs(space)):
        lines.append(f"le {names[x]} {names[y]}")
    return "\n".join(lines) + "\n"


def print_document(doc: Document) -> str:
    chunks = [
        print_space(s.name, s.space, list(s.point_names))
        for s in doc.spaces.values()
    ]
    for m in doc.maps:
        src = doc.spaces[m.src]
        dst = doc.spaces[m.dst]
        lines = [f"map {m.name} : {m.src} -> {m.dst}"]
        for i, v in enumerate(m.map.table):
            lines.append(f"send {src.point_names[i]} {dst.point_names[v]}")
        chunks.append("\n".join(lines) + "\n")
    return "\n".join(chunks)
