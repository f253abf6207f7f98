"""Report rendering: one tree, three syntaxes.

Checkers hand back value objects with an as_tree() view; this module
flattens any such object (or plain dicts and lists of them) into JSON
screen text, and draws finite spaces as DOT diagrams of their covering
relation.  Rendering is deterministic so golden files stay stable."""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .finite_space import FiniteSpace, iter_bits


def as_data(obj: Any) -> Any:
    """Normalize a report-shaped object into plain JSON-ready data."""
    tree = getattr(obj, "as_tree", None)
    if callable(tree):
        return as_data(tree())
    if isinstance(obj, dict):
        return {_key(k): as_data(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [as_data(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted((as_data(v) for v in obj), key=repr)
    if isinstance(obj, Fraction):
        return str(obj)
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return repr(obj)


def _key(k: Any) -> str:
    return k if isinstance(k, str) else str(k)


def render_json(obj: Any) -> str:
    return json.dumps(as_data(obj), indent=2, sort_keys=True)


def render_text(obj: Any) -> str:
    lines: list[str] = []
    _emit(as_data(obj), 0, lines)
    return "\n".join(lines)


def _is_scalar(v: Any) -> bool:
    return v is None or isinstance(v, (bool, int, float, str))


def _multiline(v: Any) -> bool:
    return isinstance(v, str) and "\n" in v


def _emit(data: Any, depth: int, lines: list[str]) -> None:
    pad = "  " * depth
    if isinstance(data, dict):
        if not data:
            lines.append(f"{pad}{{}}")
            return
        for k, v in data.items():
            if _multiline(v):
                lines.append(f"{pad}{k}:")
                lines.extend(f"{pad}  {part}" for part in v.splitlines())
            elif _is_scalar(v):
                lines.append(f"{pad}{k}: {v}")
            elif not v:
                lines.append(f"{pad}{k}: {'[]' if isinstance(v, list) else '{}'}")
            else:
                lines.append(f"{pad}{k}:")
                _emit(v, depth + 1, lines)
    elif isinstance(data, list):
        for v in data:
            if _multiline(v):
                lines.append(f"{pad}-")
                lines.extend(f"{pad}  {part}" for part in v.splitlines())
            elif _is_scalar(v):
                lines.append(f"{pad}- {v}")
            else:
                lines.append(f"{pad}-")
                _emit(v, depth + 1, lines)
    else:
        lines.append(f"{pad}{data}")


def cover_pairs(space: FiniteSpace) -> list[tuple[int, int]]:
    """Covering pairs (x, y): x < y with nothing strictly between."""
    out = []
    for x in range(space.n):
        for y in iter_bits(space.up[x]):
            if y == x:
                continue
            between = space.up[x] & space.down[y] & ~(1 << x) & ~(1 << y)
            if between == 0:
                out.append((x, y))
    return out


def render_dot(space: FiniteSpace, names: list[str] | None = None,
               graph_name: str = "space") -> str:
    """DOT digraph of the covering relation, drawn upward."""
    names = names if names is not None else [f"x{i}" for i in range(space.n)]
    lines = [f"digraph {graph_name} {{", "  rankdir=BT;"]
    for i in range(space.n):
        lines.append(f'  {i} [label="{names[i]}"];')
    for x, y in sorted(cover_pairs(space)):
        lines.append(f"  {x} -> {y};")
    lines.append("}")
    return "\n".join(lines)
