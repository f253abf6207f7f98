"""Three-valued verdicts for claims about infinite spaces.

A verdict separates what an exact algebra computation established from
what a bounded check established.  Holds and Refuted mean the claim was
decided inside the set algebra (quantifiers discharged by closed-form
membership tests); HoldsUpTo(bound) means every instance up to the bound
was checked and nothing beyond it was.  Refutations always carry the
machine-checked witness that produced them.
"""

from __future__ import annotations

from typing import Any

from ..caps import caps_summary
from ..errors import BadParams
from ..values import Value

LABELS = {"holds": "Holds", "refuted": "Refuted", "holds_up_to": "HoldsUpTo"}


class Verdict(Value):
    __slots__ = _fields = ("claim", "kind", "method", "bound", "witness", "details")

    def __init__(self, claim: str, kind: str, method: str, bound: int | None = None,
                 witness: dict[str, Any] | None = None, details: dict[str, Any] | None = None):
        if kind not in LABELS:
            raise BadParams(f"unknown verdict kind {kind!r}")
        if kind == "holds_up_to" and bound is None:
            raise BadParams("holds_up_to requires the bound actually checked")
        object.__setattr__(self, "claim", claim)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "method", method)
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "details", {} if details is None else details)

    @property
    def label(self) -> str:
        return LABELS[self.kind] + (f"({self.bound})" if self.kind == "holds_up_to" else "")

    @property
    def exact(self) -> bool:
        return self.kind in ("holds", "refuted")

    @property
    def holds(self) -> bool:
        return self.kind in ("holds", "holds_up_to")

    def as_tree(self) -> dict[str, Any]:
        tree: dict[str, Any] = {
            "claim": self.claim,
            "verdict": self.label,
            "exact": self.exact,
            "method": self.method,
        }
        if self.witness is not None:
            tree["witness"] = self.witness
        if self.details:
            tree["details"] = self.details
        tree["caps"] = caps_summary()
        return tree


def holds(claim: str, method: str, **kw) -> Verdict:
    return Verdict(claim, "holds", method, **kw)


def refuted(claim: str, method: str, witness: dict[str, Any], **kw) -> Verdict:
    return Verdict(claim, "refuted", method, witness=witness, **kw)


def holds_up_to(claim: str, bound: int, method: str, **kw) -> Verdict:
    return Verdict(claim, "holds_up_to", method, bound=bound, **kw)
