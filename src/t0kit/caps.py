"""Size guards.

Everything here is about refusing work whose cost is exponential in the
carrier or the number of opens.  DEFAULTS names every cap; cap(name) is
the only code that picks the one in force: the innermost scoped() value,
else T0KIT_CAP (read at call time; "N" is the carrier cap, "N,M" the
carrier and product point caps), else DEFAULTS.  Callers that need more
room for one construction use scoped() rather than mutating globals;
truncations of infinite examples go through truncation(), and every
truncation size or sample bound through check_bound().
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Callable

from .errors import BadParams, CapExceeded

DEFAULTS = {
    "carrier": 16,
    "product": 4096,
    "owf_opens": 12,
    "enum": 6,
    "maps": 1_000_000,
    "truncate": 256,
}
_ENV_NAMES = ("carrier", "product")  # the fields of T0KIT_CAP, in order

# The caps raised by the enclosing scoped() blocks, innermost winning.
# A ContextVar, so a block in one thread or context leaves the others alone.
_SCOPED: ContextVar[dict[str, int]] = ContextVar("t0kit_scoped_caps", default={})


def _env_caps() -> dict[str, int]:
    raw = os.environ.get("T0KIT_CAP")
    if not raw:
        return {}
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) <= len(_ENV_NAMES):
        try:
            return dict(zip(_ENV_NAMES, map(int, parts)))
        except ValueError:
            pass
    raise CapExceeded(f"cannot parse T0KIT_CAP={raw!r}; expected N or N,M")


@contextmanager
def scoped(**limits: int):
    """Raise selected caps inside a with-block, for the current thread
    and context only.

    Keywords are the DEFAULTS names: carrier, product, owf_opens, enum,
    maps, truncate.  Reports built inside the block see the scoped values
    through caps_summary(), so the relaxation is always visible in the
    output it produced.
    """
    bad = set(limits) - DEFAULTS.keys()
    if bad:
        raise BadParams(f"unknown cap names: {sorted(bad)}")
    token = _SCOPED.set({**_SCOPED.get(), **limits})
    try:
        yield
    finally:
        _SCOPED.reset(token)


def cap(name: str) -> int:
    """The cap in force, by the precedence in the module docstring."""
    scoped_caps = _SCOPED.get()
    if name in scoped_caps:
        return scoped_caps[name]
    if name in _ENV_NAMES:
        return _env_caps().get(name, DEFAULTS[name])
    return DEFAULTS[name]


def caps_summary() -> dict:
    """Echoed into reports so a verdict is never read without its bounds."""
    return {f"{name}_cap": cap(name) for name in DEFAULTS}


def guard(value: int, cap: int, what: str) -> None:
    if value > cap:
        raise CapExceeded(f"{what}: {value} exceeds cap {cap}")


def check_int(value: Any, what: str) -> None:
    """BadParams unless value is an int; a bool is refused too."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadParams(f"{what} must be an int; got {value!r}")


def check_bound(n: int, what: str) -> None:
    """The one rule for a truncation size or a sample bound: anything but
    an int is BadParams (check_int), below 1 is BadParams ("<what> must
    be at least 1"), above the truncate cap is CapExceeded."""
    check_int(n, what)
    if n < 1:
        raise BadParams(f"{what} must be at least 1")
    guard(n, cap("truncate"), what)


def truncation(n: int, build: Callable[[int], Any]) -> Any:
    """build(n), n in 1..truncate cap, with the carrier cap raised to fit."""
    check_bound(n, "truncation bound")
    with scoped(carrier=max(n, DEFAULTS["carrier"])):
        return build(n)
