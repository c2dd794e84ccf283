"""In-memory span tracing at the module boundaries of ``menger``.

A traced pass patches the public functions of each layer at the name where
its caller looks it up (the modules import each other by name, so patching
only the defining module would miss those calls), records one span per call
(name, start, end, parent) on a single stack, and restores every patched
attribute afterwards.  A layer's self time is the length of its spans minus
the time covered by their child spans.

The per-layer metrics, their units and which way is better are listed in
``PER_LAYER``; ``layer_metrics`` turns one traced pass into their values.
"""

from __future__ import annotations

import importlib
import math
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 for a root span


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name: each span's length minus its children's."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.end - span.start
    out: dict[str, float] = defaultdict(float)
    for span, child in zip(spans, covered):
        out[span.name] += span.end - span.start - child
    return dict(out)


def root_time(spans: list[Span]) -> float:
    return sum(s.end - s.start for s in spans if s.parent < 0)


class Tracer:
    """Spans and counts of one traced pass.  The process is single-threaded."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.counts: Counter[str] = Counter()
        self._records: list[list[Any]] = []     # [name, start, end, parent]
        self._stack: list[int] = []             # indices of the open spans

    def wrap(self, name: str, fn: Callable, extra: Callable | None = None) -> Callable:
        """``fn`` recorded as a span named ``name``; ``extra`` adds counts."""
        clock = self.clock
        stack = self._stack
        spans = self._records
        counts = self.counts

        def traced(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            if extra is not None:
                counts.update(extra(args, result))
            return result

        return traced

    def count(self, name: str, fn: Callable) -> Callable:
        """``fn`` with its calls counted under ``name``, without a span."""
        counts = self.counts

        def counted(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def finished_spans(self) -> list[Span]:
        if self._stack:
            raise RuntimeError("spans are still open")
        return [Span(*s) for s in self._records]


# ---------------------------------------------------------------------------
# Count hooks: (args, result) -> counts to add.

def _gate_checks(args: tuple, report: Any) -> dict[str, int]:
    return {"pipeline.gate_checks": len(report.checks)}


def _blocks(args: tuple, blocks: Any) -> dict[str, int]:
    return {"partitions.blocks": len(blocks)}


def _margin_pairs(args: tuple, result: Any) -> dict[str, int]:
    return {"pipeline.margin_pairs": len(args[2])}


def _separated_pairs(args: tuple, result: Any) -> dict[str, int]:
    return {"pipeline.separated_pairs": len(args[1].pairs)}


def _cover_sets(args: tuple, cover: Any) -> dict[str, int]:
    return {"covers.sets": sum(len(fam) for fam in cover.families)}


def _assigned_sets(args: tuple, assignment: Any) -> dict[str, int]:
    return {"perturb.assigned_sets": sum(len(e) for e in assignment.per_coordinate)}


def _cert_bytes(args: tuple, payload: Any) -> dict[str, int]:
    return {"io.cert_bytes": os.path.getsize(args[0])}


def _halvings(budget: Any, eta: Any) -> int:
    steps = 0
    while eta * 2 ** steps < budget:
        steps += 1
    return steps


def _block_logs(args: tuple, cert: Any) -> dict[str, int]:
    from menger.pipeline import BRANCH_SKIPPED

    skipped = sum(1 for b in cert.blocks if b.branch == BRANCH_SKIPPED)
    halvings = sum(
        _halvings(b.budget, b.eta) for b in cert.blocks if b.eta is not None and b.budget is not None
    )
    return {"pipeline.blocks_skipped": skipped, "pipeline.eta_halvings": halvings}


# (module, attribute path, span name, count hook).  Every gate function is
# patched in all three modules that call it.
HOOKS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("menger.cli", "main", "cli", None),
    ("menger.cli", "load_space", "io.load", None),
    ("menger.cli", "load_family", "io.load", None),
    ("menger.cli", "load_action", "io.load", None),
    ("menger.cli", "load_observable", "io.load", None),
    ("menger.cli", "load_coords", "io.load", None),
    ("menger.cli", "load_certificate", "io.load", None),
    ("menger.cli", "hash_file", "io.hash", None),
    ("menger.cli", "write_certificate", "io.write", _cert_bytes),
    ("menger.cli", "write_orbit_csv", "io.csv", None),
    ("menger.cli", "verify_certificate", "io.verify", None),
    ("menger.io", "validate_space", "space.validate", None),
    ("menger.cli", "check_hypotheses_family", "pipeline.gate", _gate_checks),
    ("menger.cli", "check_hypotheses_action", "pipeline.gate", _gate_checks),
    ("menger.pipeline", "check_hypotheses_family", "pipeline.gate", _gate_checks),
    ("menger.pipeline", "check_hypotheses_action", "pipeline.gate", _gate_checks),
    ("menger.io", "check_hypotheses_family", "pipeline.gate", _gate_checks),
    ("menger.io", "check_hypotheses_action", "pipeline.gate", _gate_checks),
    ("menger.pipeline", "compatible_subset", "partitions.compatible", None),
    ("menger.pipeline", "periodic_set", "space.periodic", None),
    ("menger.pipeline", "orbit", "space.periodic", None),
    ("menger.cli", "embed_family", "pipeline.embed", _block_logs),
    ("menger.cli", "embed_equivariant", "pipeline.embed", _block_logs),
    ("menger.pipeline", "doubled_induced_partition", "partitions.classify", None),
    ("menger.pipeline", "coherent_decomposition", "partitions.decompose", _blocks),
    ("menger.pipeline", "intersective_transport", "partitions.transport", None),
    ("menger.pipeline", "margin", "pipeline.margin", _margin_pairs),
    ("menger.pipeline", "separate_on_block", "pipeline.separate", _separated_pairs),
    ("menger.pipeline", "build_cover", "covers.build", _cover_sets),
    ("menger.pipeline", "diameter_clusters", "covers.clusters", None),
    ("menger.covers", "diameter_clusters", "covers.clusters", None),
    ("menger.pipeline", "pull_cover", "covers.pull", None),
    ("menger.pipeline", "modulus", "perturb.modulus", None),
    ("menger.pipeline", "assign_values", "perturb.assign", _assigned_sets),
    ("menger.pipeline", "perturb", "perturb.apply", None),
    ("menger.pipeline", "sup_distance", "perturb.sup_distance", None),
    ("menger.pipeline", "check_separation", "witness.check", None),
)

# Called too often for a span each: only counted.
COUNTED: tuple[tuple[str, str, str], ...] = (
    ("menger.space", "FiniteSpace.dim", "space.dim"),
)


def _owner(module: str, path: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def hook_targets() -> list[tuple[Any, str]]:
    """Every (owner, attribute) that ``traced`` patches."""
    return [_owner(m, p) for m, p, *_ in HOOKS + COUNTED]


@contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    """Patch every hook to record into ``tracer``; restore them on exit."""
    saved: list[tuple[Any, str, Any]] = []
    try:
        for module, path, name, extra in HOOKS:
            owner, attr = _owner(module, path)
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), extra))
        for module, path, name in COUNTED:
            owner, attr = _owner(module, path)
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, tracer.count(name, getattr(owner, attr)))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics: (metric, unit, better, source).  A source "self:<span>"
# is that span's self time; "count:<key>" is a call count or hook count.
PER_LAYER: tuple[tuple[str, str, str, str], ...] = (
    ("cli.self_s", "s", "lower", "self:cli"),
    ("io.load_s", "s", "lower", "self:io.load"),
    ("io.hash_s", "s", "lower", "self:io.hash"),
    ("io.write_s", "s", "lower", "self:io.write"),
    ("io.csv_s", "s", "lower", "self:io.csv"),
    ("io.verify_s", "s", "lower", "self:io.verify"),
    ("io.cert_bytes", "count", "lower", "count:io.cert_bytes"),
    ("space.validate_s", "s", "lower", "self:space.validate"),
    ("space.dim_calls", "count", "lower", "count:space.dim"),
    ("space.periodic_s", "s", "lower", "self:space.periodic"),
    ("pipeline.gate_s", "s", "lower", "self:pipeline.gate"),
    ("pipeline.gate_checks", "count", "lower", "count:pipeline.gate_checks"),
    ("partitions.compatible_s", "s", "lower", "self:partitions.compatible"),
    ("partitions.compatible_calls", "count", "lower", "count:partitions.compatible"),
    ("partitions.classify_s", "s", "lower", "self:partitions.classify"),
    ("partitions.classify_calls", "count", "lower", "count:partitions.classify"),
    ("partitions.decompose_s", "s", "lower", "self:partitions.decompose"),
    ("partitions.classes", "count", "lower", "count:partitions.decompose"),
    ("partitions.blocks", "count", "lower", "count:partitions.blocks"),
    ("partitions.transport_s", "s", "lower", "self:partitions.transport"),
    ("partitions.useful_pair_ratio", "ratio", "higher", "useful_pair_ratio"),
    ("pipeline.embed_self_s", "s", "lower", "self:pipeline.embed"),
    ("pipeline.margin_s", "s", "lower", "self:pipeline.margin"),
    ("pipeline.margin_calls", "count", "lower", "count:pipeline.margin"),
    ("pipeline.margin_pairs", "count", "lower", "count:pipeline.margin_pairs"),
    ("pipeline.separate_s", "s", "lower", "self:pipeline.separate"),
    ("pipeline.blocks_perturbed", "count", "lower", "count:pipeline.separate"),
    ("pipeline.blocks_skipped", "count", "lower", "count:pipeline.blocks_skipped"),
    ("pipeline.eta_halvings", "count", "lower", "count:pipeline.eta_halvings"),
    ("covers.build_s", "s", "lower", "self:covers.build"),
    ("covers.build_calls", "count", "lower", "count:covers.build"),
    ("covers.sets", "count", "lower", "count:covers.sets"),
    ("covers.clusters_s", "s", "lower", "self:covers.clusters"),
    ("covers.pull_s", "s", "lower", "self:covers.pull"),
    ("perturb.modulus_s", "s", "lower", "self:perturb.modulus"),
    ("perturb.assign_s", "s", "lower", "self:perturb.assign"),
    ("perturb.assigned_sets", "count", "lower", "count:perturb.assigned_sets"),
    ("perturb.apply_s", "s", "lower", "self:perturb.apply"),
    ("perturb.sup_distance_s", "s", "lower", "self:perturb.sup_distance"),
    ("witness.check_s", "s", "lower", "self:witness.check"),
    ("witness.checks", "count", "lower", "count:witness.check"),
    ("trace.overhead_s", "s", "lower", "overhead"),
    ("trace.overhead_ratio", "ratio", "lower", "overhead"),
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values of one traced pass (all but the tracing overhead)."""
    spans = tracer.finished_spans()
    own = self_times(spans)
    counts = tracer.counts
    out: dict[str, float] = {}
    for metric, _, _, source in PER_LAYER:
        kind, _, key = source.partition(":")
        if kind == "self":
            out[metric] = own.get(key, 0.0)
        elif kind == "count":
            out[metric] = counts.get(key, 0)
    classified = counts.get("partitions.classify", 0)
    useful = counts.get("pipeline.separated_pairs", 0)
    out["partitions.useful_pair_ratio"] = useful / classified if classified else 0.0
    if not math.isclose(sum(own.values()), root_time(spans), rel_tol=1e-9, abs_tol=1e-9):
        raise RuntimeError("self times do not add up to the traced time")
    return out
