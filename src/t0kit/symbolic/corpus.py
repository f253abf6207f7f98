"""The certificate corpus, rendered by `t0kit corpus run`: claims about
infinite spaces, each a CorpusRow whose check(bound) must reach its `kind`
and `exact`, and `extra` if set, for the reason `why`.  Adjacent rows with
one check share its one call.  A check looks its checker up when it runs,
so a rebinding of the checker (a tracer's wrapper, a test's spy) is seen."""

from __future__ import annotations

import itertools
import time
from typing import Any, Callable

from .. import caps
from ..values import Value
from .alexandrov import check_cosober_alexandrov
from .cofinite import check_owf
from .intervals import check_kbs_holds, scott_full, scott_xn, scott_y
from .johnstone import check_johnstone_claims
from .verdicts import LABELS, Verdict


class CorpusRow(Value):
    __slots__ = _fields = ("name", "kind", "exact", "check", "extra", "why")

    def __init__(self, name: str, kind: str, exact: bool, check: Callable[[int], Any],
                 extra: Callable[[Verdict], bool] | None = None, why: str = ""):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "check", check)
        object.__setattr__(self, "extra", extra)
        object.__setattr__(self, "why", why)


def _johnstone(bound: int) -> list[Verdict]:
    return check_johnstone_claims(bound)


ROWS = (
    CorpusRow("cofinite naturals: open well-filtered", "refuted", True,
              lambda bound: check_owf(bound=max(bound, 8))),
    CorpusRow("alexandrov naturals: co-sober", "holds", True,
              lambda bound: check_cosober_alexandrov(bound=50)),
    CorpusRow("scott rationals [0,3]: k-bounded sober", "holds", True,
              lambda bound: check_kbs_holds(scott_full())),
    CorpusRow("scott rationals [0,1) u {2}: k-bounded sober", "refuted", True,
              lambda bound: check_kbs_holds(scott_y())),
    *(CorpusRow(f"scott rationals [0,1) u (2-1/{n}, 2+1/{n}): k-bounded sober", "holds", True,
                lambda bound, n=n: check_kbs_holds(scott_xn(n))) for n in range(2, 7)),
    CorpusRow("johnstone dcpo: (1) way below is trivial on representable opens", "holds", True,
              _johnstone, lambda v: v.details.get("nonempty_samples_refuted", 0) >= 3,
              "the claim rests on at least 3 nonempty sample opens refuted as way below"),
    CorpusRow("johnstone dcpo: (2) the space is open well-filtered", "holds_up_to", False,
              _johnstone),
    CorpusRow("johnstone dcpo: (3) the column-deleted subspaces are open well-filtered",
              "holds_up_to", False, _johnstone),
    CorpusRow("johnstone dcpo: (4) the residual carrier is the top row, homeomorphic to the "
              "cofinite naturals", "holds", True, _johnstone),
)


def run_corpus(bound: int) -> list[dict[str, Any]]:
    """One result per row, in order; a shared call's time is split evenly."""
    caps.check_bound(bound, "the check bound")
    results = []
    for check, group in itertools.groupby(ROWS, key=lambda row: row.check):
        rows, t0 = list(group), time.perf_counter()
        out = check(bound)
        secs = round((time.perf_counter() - t0) / len(rows), 3)
        for row, v in zip(rows, out if isinstance(out, list) else [out], strict=True):
            results.append({"check": row.name, "verdict": v.label, "expected": LABELS[row.kind],
                            "match": v.kind == row.kind and v.exact == row.exact
                            and (row.extra is None or row.extra(v)),
                            "seconds": secs, "report": v.as_tree()})
    return results
