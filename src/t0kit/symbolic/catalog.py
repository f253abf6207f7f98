"""Name-based access to the symbolic example spaces."""

from __future__ import annotations

from ..errors import BadParams, UnknownSpace
from ..finite_space import FiniteSpace
from .alexandrov import AlexandrovNat
from .cofinite import CofiniteNat
from .intervals import ScottQSubspace, scott_full, scott_xn, scott_y
from .johnstone import JohnstoneSpace, KnSubspace

SymbolicSpace = CofiniteNat | AlexandrovNat | ScottQSubspace | JohnstoneSpace | KnSubspace

_NO_PARAMS = {
    "nat_cofinite": CofiniteNat,
    "nat_alexandrov": AlexandrovNat,
    "scott_q03": scott_full,
    "scott_q03_y": scott_y,
    "johnstone": JohnstoneSpace,
}
_WITH_N = {"scott_q03_xn": scott_xn, "johnstone_kn": KnSubspace}


def catalog_names() -> list[str]:
    return sorted([*_NO_PARAMS, *_WITH_N])


def catalog(name: str, **params) -> SymbolicSpace:
    """Look up an example space by name.

    scott_q03_xn and johnstone_kn take n, an int (their constructors
    check it); the rest take no parameters.
    """
    if name in _NO_PARAMS:
        if params:
            raise BadParams(f"{name} takes no parameters; got {sorted(params)}")
        return _NO_PARAMS[name]()
    if name in _WITH_N:
        if set(params) != {"n"}:
            raise BadParams(f"{name} takes exactly the parameter n")
        return _WITH_N[name](params["n"])
    raise UnknownSpace(f"no catalog space named {name!r}; "
                       f"try one of {', '.join(catalog_names())}")


def truncate(space: SymbolicSpace, bound: int | None = None, **params) -> FiniteSpace:
    """Finite trace of a catalog space.

    The chain-like spaces take a single bound; the two-dimensional dcpo
    handles take columns and height (bound sets both when given alone).
    A size the caller leaves out keeps the handle's own default.
    """
    if isinstance(space, (JohnstoneSpace, KnSubspace)):
        unknown = sorted(set(params) - {"columns", "height"})
        if unknown:
            raise BadParams(f"unknown truncation parameters {unknown}")
        sizes = {} if bound is None else {"columns": bound, "height": bound}
        return space.truncate(**{**sizes, **params})
    if params:
        raise BadParams(f"unknown truncation parameters {sorted(params)}")
    if bound is None:
        raise BadParams("this space needs a truncation bound")
    return space.truncate(bound)
