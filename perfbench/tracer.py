"""Spans around the calls into each gvaskit layer, recorded from outside.

A span has a name ``<layer>.<function>``, a start, an end, its parent
span and a run id.  Spans stay in memory and are written out when the
run ends.  A layer's self time is its spans' duration minus the part
covered by child spans; time outside every span is the harness's own.

Untraced iterations use :data:`NULL`, whose spans cost a method call and
record nothing.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator


class _Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer: "Tracer", rec: dict) -> None:
        self.tracer = tracer
        self.rec = rec

    def __enter__(self) -> dict:
        t, rec = self.tracer, self.rec
        rec["id"] = len(t.spans)
        rec["parent"] = t.stack[-1] if t.stack else None
        t.spans.append(rec)
        t.stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        return rec

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.rec["end"] = time.perf_counter()
        self.tracer.stack.pop()
        if exc_type is not None:
            self.rec["error"] = exc_type.__name__
        return False


class Tracer:
    """Collects spans for one traced iteration."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self.stack: list[int] = []

    def span(self, name: str, **attrs: Any) -> _Span:
        return _Span(self, {"name": name, "run": self.run_id, **attrs})

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        with self.span(name):
            return fn(*args, **kwargs)


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> dict:
        return {}

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


class _NullTracer:
    _span = _NullSpan()

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return self._span

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        return fn(*args, **kwargs)


NULL = _NullTracer()


def _pairs_of(rec: dict, table: Any) -> None:
    rec["pairs"] = sum(table.count(nt) for nt in table.gvas.nonterminals)


def _inner_boundaries() -> list[tuple[Any, str, str, Callable | None]]:
    """Layer boundaries crossed inside other public functions.

    The workloads call these through their module attributes, and gvaskit
    calls them from inside ``cli.main``, ``member_bounded`` and the weak
    computer checks, so they are traced by rebinding the attribute for
    the length of a traced iteration.  None of them calls itself, so the
    wrapper adds one frame per call, not one per recursion level.
    """
    from gvaskit import cli, reach, setops, weakcomp

    return [
        (cli, "parse_gvas", "gvas.parse_gvas", None),
        (reach, "bounded_reach", "reach.bounded_reach", _pairs_of),
        (reach.ReachTable, "witness", "reach.witness", None),
        (reach.ReachCone, "witness", "reach.cone_witness", None),
        (setops, "cached_cone", "reach.cached_cone", None),
        (weakcomp, "cached_cone", "reach.cached_cone", None),
    ]


@contextmanager
def traced_boundaries(tracer: Tracer) -> Iterator[None]:
    """Rebind the inner boundaries to span-recording wrappers."""
    saved = []
    for owner, attr, name, after in _inner_boundaries():
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, _wrap(tracer, name, original, after))
    try:
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _wrap(tracer: Tracer, name: str, fn: Callable, after: Callable | None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with tracer.span(name) as rec:
            out = fn(*args, **kwargs)
        if after is not None:
            after(rec, out)
        return out

    return wrapper


# Per-layer metrics built from span names: metric -> span names summed.
NAMED_TIMES = {
    "reach.fixpoint_s": ("reach.bounded_reach",),
    "reach.witness_s": ("reach.witness",),
    "fastgrowing.safety_s": ("fastgrowing.safety_check",),
    "fastgrowing.build_witness_s": ("fastgrowing.build_witness",),
    "setops.member_s": ("setops.member_bounded",),
    "weakcomp.check_s": ("weakcomp.check_safe", "weakcomp.check_complete"),
    "flowtree.leq_s": ("flowtree.leq",),
    "flowtree.replay_s": ("flowtree.replay",),
    "flowtree.validate_s": ("flowtree.validate_tree",),
    "flowtree.hom_embeds_s": ("flowtree.hom_embeds",),
    "flowtree.adorn_leq_s": ("flowtree.leq_via_adorn",),
    "flowtree.amalgamate_s": ("flowtree.amalgamate",),
    "flowtree.format_parse_s": ("flowtree.format_tree", "flowtree.parse_tree"),
    "gvas.parse_s": ("gvas.parse_gvas",),
}

# cli.main spans carry a role; metric -> role.
CLI_ROLES = {
    "cli.reach_s": "reach",
    "cli.witness_tree_s": "witness-tree",
    "cli.check_weak_s": "check-weak",
    "cli.golden_s": "golden",
}

LAYERS = ("gvas", "reach", "fastgrowing", "flowtree", "setops", "weakcomp", "cli")


def span_metrics(spans: list[dict], wall: float) -> dict[str, float]:
    """Per-layer figures of one traced iteration that took ``wall`` seconds."""
    dur = [s["end"] - s["start"] for s in spans]
    covered = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s["parent"] is not None:
            covered[s["parent"]] += d
    by_name: dict[str, float] = defaultdict(float)
    self_by_layer: dict[str, float] = defaultdict(float)
    cone_build = cone_hit = 0.0
    pairs = 0
    cli_roles: dict[str, float] = defaultdict(float)
    for s, d, c in zip(spans, dur, covered):
        by_name[s["name"]] += d
        self_by_layer[s["name"].split(".", 1)[0]] += d - c
        if "cone_miss" in s:
            if s["cone_miss"]:
                cone_build += d
            else:
                cone_hit += d
        if "role" in s:
            cli_roles[s["role"]] += d
        pairs += s.get("pairs", 0)
    top = sum(d for s, d in zip(spans, dur) if s["parent"] is None)

    out = {m: sum(by_name[n] for n in names) for m, names in NAMED_TIMES.items()}
    out.update({m: cli_roles[role] for m, role in CLI_ROLES.items()})
    out["reach.cone_build_s"] = cone_build
    out["reach.cone_hit_s"] = cone_hit
    out["reach.pairs"] = pairs
    fix = out["reach.fixpoint_s"]
    out["reach.pairs_per_s"] = pairs / fix if fix > 0 else 0.0
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_by_layer.get(layer, 0.0)
    out["harness.self_s"] = wall - top
    out["trace.coverage"] = top / wall if wall > 0 else 0.0
    out["trace.spans"] = len(spans)
    return out
