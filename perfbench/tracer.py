"""Per-layer tracing from outside the program.

Each traced function is replaced, in its defining module and in every
``t0kit`` module (or module-level dict, such as ``cli.PROPERTIES``) that
bound it by name, with a wrapper that opens a span.  Spans are not kept
one by one: each closes into an aggregate keyed by (parent span name,
function name) holding calls, total time and self time, so memory stays
bounded however hot a leaf is (``compose`` runs about two million times
per ``maps`` repetition).  Self time is a span's duration minus the time
its child spans cover.  The root span of every operation is named by the
operation's label, so the aggregates also say which operation paid for
which layer.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter

# (metric layer, defining module, attribute).  Order is report order.
TIMED = [
    ("finite_space", "t0kit.finite_space", "all_opens"),
    ("finite_space", "t0kit.finite_space", "irreducible_closed_sets"),
    ("finite_space", "t0kit.finite_space", "is_directed"),
    ("finite_space", "t0kit.finite_space", "from_order"),
    ("finite_space", "t0kit.finite_space", "from_cover"),
    ("properties", "t0kit.properties", "is_sober"),
    ("properties", "t0kit.properties", "is_co_sober"),
    ("properties", "t0kit.properties", "is_strong_d"),
    ("properties", "t0kit.properties", "is_k_bounded_sober"),
    ("properties", "t0kit.properties", "is_open_well_filtered"),
    ("properties", "t0kit.properties", "way_below_opens"),
    ("b_topology", "t0kit.b_topology", "b_closure"),
    ("b_topology", "t0kit.b_topology", "b_space"),
    ("b_topology", "t0kit.b_topology", "b_basic_opens"),
    ("constructions", "t0kit.constructions", "compose"),
    ("constructions", "t0kit.constructions", "product"),
    ("constructions", "t0kit.constructions", "subspace"),
    ("constructions", "t0kit.constructions", "equalizer"),
    ("constructions", "t0kit.constructions", "canonical_embedding"),
    ("constructions", "t0kit.constructions", "find_homeomorphism"),
    ("enumeration", "t0kit.enumeration", "all_spaces"),
    ("enumeration", "t0kit.enumeration", "canonical_form"),
    ("enumeration", "t0kit.enumeration", "all_continuous_maps"),
    ("enumeration", "t0kit.enumeration", "continuous_maps_list"),
    ("reflection_lab", "t0kit.reflection_lab", "sobrify_irr"),
    ("reflection_lab", "t0kit.reflection_lab", "sobrify_bclosure"),
    ("reflection_lab", "t0kit.reflection_lab", "k_closure"),
    ("reflection_lab", "t0kit.reflection_lab", "is_reflection"),
    ("reflection_lab", "t0kit.reflection_lab", "construct_reflection"),
    ("symbolic", "t0kit.symbolic.cofinite", "check_owf"),
    ("symbolic", "t0kit.symbolic.alexandrov", "check_cosober_alexandrov"),
    ("symbolic", "t0kit.symbolic.intervals", "check_kbs_holds"),
    ("symbolic", "t0kit.symbolic.johnstone", "check_johnstone_claims"),
    ("spacefile", "t0kit.spacefile", "parse_document"),
    ("spacefile", "t0kit.spacefile", "print_space"),
    ("report", "t0kit.report", "render_text"),
    ("report", "t0kit.report", "render_json"),
    ("report", "t0kit.report", "render_dot"),
]

# Counted only: the equality that compose and the caches run millions of
# times, and the cap echo whose count tracks per-report overhead.
COUNTED = [
    ("finite_space", "FiniteSpace.__eq__"),
    ("caps", "caps_summary"),
]

RATIOS = [
    "finite_space.all_opens.hit_ratio",
    "properties.is_strong_d.directed_ratio",
    "properties.is_open_well_filtered.literal_share",
    "reflection_lab.is_reflection.compose_per_factorization",
    "enumeration.all_spaces.kept_ratio",
    "trace.overhead_ratio",
]


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric, in report order, with its unit."""
    out = []
    for layer, _, attr in TIMED:
        out.append((f"{layer}.{attr}.calls", "count"))
        out.append((f"{layer}.{attr}.self_s", "s"))
    for layer, attr in COUNTED:
        out.append((f"{layer}.{attr}.calls", "count"))
    out += [(name, "ratio") for name in RATIOS]
    return out


def _rebind(orig, wrapper) -> None:
    """Replace every module-level binding of orig inside t0kit."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "t0kit" or mod_name.startswith("t0kit.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapper)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is orig:
                        value[k] = wrapper


class Tracer:
    """Installs span wrappers; collect() turns the aggregates into metrics."""

    def __init__(self) -> None:
        self.stack: list[list] = [["(untraced)", 0.0]]
        self.edges: dict[tuple[str, str], list] = {}
        self.counts = {f"{layer}.{attr}": 0 for layer, attr in COUNTED}
        self.directed = [0, 0]  # directed sets found, subsets scanned
        self.owf_calls = [0, 0]  # literal-tier calls, all calls
        self.verified = 0  # factorizations verified by is_reflection
        self.kept: dict[int, int] = {}  # all_spaces size -> classes kept
        self._all_opens = None
        self._opens_before = None

    def install(self) -> None:
        import t0kit.cli  # noqa: F401  (binds every module that imports by name)
        from t0kit import caps
        from t0kit.finite_space import FiniteSpace

        hooks = {
            "is_strong_d": self._after_strong_d,
            "is_open_well_filtered": self._after_owf,
            "is_reflection": self._after_reflection,
            "all_spaces": self._after_all_spaces,
        }
        for layer, mod_name, attr in TIMED:
            orig = getattr(sys.modules[mod_name], attr)
            if attr == "all_opens":
                self._all_opens = orig
                self._opens_before = orig.cache_info()
            if inspect.isgeneratorfunction(orig):
                wrapper = self._wrap_generator(attr, orig)
            else:
                wrapper = self._wrap(attr, orig, hooks.get(attr))
            _rebind(orig, wrapper)

        counts = self.counts
        eq = FiniteSpace.__eq__

        def counted_eq(a, b):
            counts["finite_space.FiniteSpace.__eq__"] += 1
            return eq(a, b)

        FiniteSpace.__eq__ = counted_eq
        summary = caps.caps_summary

        def counted_summary():
            counts["caps.caps_summary"] += 1
            return summary()

        _rebind(summary, counted_summary)

    def root(self, label: str) -> None:
        """Name the operation that the next spans belong to."""
        self.stack = [[label, 0.0]]

    def _close(self, parent: list, name: str, frame: list, dur: float,
               calls: int = 1) -> None:
        parent[1] += dur
        agg = self.edges.get((parent[0], name))
        if agg is None:
            self.edges[(parent[0], name)] = [calls, dur, dur - frame[1]]
        else:
            agg[0] += calls
            agg[1] += dur
            agg[2] += dur - frame[1]

    def _wrap(self, name: str, fn, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                tracer._close(parent, name, frame, dur)
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        """A generator's work happens while it is iterated, so each
        resumption is a span of its own; the call is counted once."""
        tracer = self

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            first = True
            while True:
                stack = tracer.stack
                parent = stack[-1]
                frame = [name, 0.0]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dur = perf_counter() - t0
                    stack.pop()
                    tracer._close(parent, name, frame, dur, 1 if first else 0)
                    first = False
                yield item

        return wrapper

    def _after_strong_d(self, args, report) -> None:
        found = report.details.get("directed_sets")
        if found is not None:
            self.directed[0] += found
            self.directed[1] += (1 << args[0].n) - 1

    def _after_owf(self, args, report) -> None:
        self.owf_calls[1] += 1
        if report.method == "exhaustive" or "literal" in report.method:
            self.owf_calls[0] += 1

    def _after_reflection(self, args, check) -> None:
        self.verified += check.verified_objects

    def _after_all_spaces(self, args, result) -> None:
        if result and result[0].n > 1:
            self.kept[result[0].n] = len(result)

    def collect(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far (overhead_ratio
        is filled in by the caller, which times an untraced run)."""
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for (_, name), (n, _, own) in self.edges.items():
            calls[name] = calls.get(name, 0) + n
            self_s[name] = self_s.get(name, 0.0) + own
        out: dict[str, float] = {}
        for layer, _, attr in TIMED:
            out[f"{layer}.{attr}.calls"] = calls.get(attr, 0)
            out[f"{layer}.{attr}.self_s"] = self_s.get(attr, 0.0)
        for key, n in self.counts.items():
            out[f"{key}.calls"] = n
        hits = lookups = 0
        if self._all_opens is not None:
            info, before = self._all_opens.cache_info(), self._opens_before
            hits = info.hits - before.hits
            lookups = hits + info.misses - before.misses
        out["finite_space.all_opens.hit_ratio"] = hits / lookups if lookups else 0.0
        d, scanned = self.directed
        out["properties.is_strong_d.directed_ratio"] = d / scanned if scanned else 0.0
        lit, total = self.owf_calls
        out["properties.is_open_well_filtered.literal_share"] = lit / total if total else 0.0
        composed = sum(
            n for (parent, name), (n, _, _) in self.edges.items()
            if parent == "is_reflection" and name == "compose"
        )
        out["reflection_lab.is_reflection.compose_per_factorization"] = (
            composed / self.verified if self.verified else 0.0
        )
        candidates = sum(
            n for (parent, name), (n, _, _) in self.edges.items()
            if parent == "all_spaces" and name == "canonical_form"
        )
        kept = sum(self.kept.values())
        out["enumeration.all_spaces.kept_ratio"] = kept / candidates if candidates else 0.0
        return out

    def edge_list(self) -> list[dict]:
        return [
            {"parent": p, "name": n, "calls": c, "total_s": t, "self_s": s}
            for (p, n), (c, t, s) in sorted(self.edges.items())
        ]
