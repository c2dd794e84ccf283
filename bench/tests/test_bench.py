"""Tests of the benchmark's own machinery: span arithmetic, seeded inputs,
patching and the metric lists in BENCHMARK.json.

Run from the repository root: ``python -m pytest -q bench/tests``.
"""

import io
import json
import os
import signal
import time

import pytest

import run
import spans
import workloads
from spans import Span


def test_self_times_of_nested_spans():
    # cli [0, 10] holds io.load [1, 3] (which holds space.validate [1.5, 2.5])
    # and pipeline.embed [4, 9] (which holds two margin spans); a second
    # root cli [20, 21] has no children.
    built = [
        Span("cli", 0.0, 10.0, -1),
        Span("io.load", 1.0, 3.0, 0),
        Span("space.validate", 1.5, 2.5, 1),
        Span("pipeline.embed", 4.0, 9.0, 0),
        Span("pipeline.margin", 5.0, 6.0, 3),
        Span("pipeline.margin", 7.0, 7.5, 3),
        Span("cli", 20.0, 21.0, -1),
    ]
    own = spans.self_times(built)
    assert own == {
        "cli": 10.0 - 2.0 - 5.0 + 1.0,
        "io.load": 2.0 - 1.0,
        "space.validate": 1.0,
        "pipeline.embed": 5.0 - 1.5,
        "pipeline.margin": 1.5,
    }
    assert sum(own.values()) == spans.root_time(built) == 11.0


def test_tracer_links_nested_calls_to_their_parent():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2,
                        extra=lambda args, result: {"outer.sum": result})
    assert outer(1) == 4
    assert outer(2) == 6
    assert tracer.finished_spans() == [
        Span("outer", 0.0, 3.0, -1),
        Span("inner", 1.0, 2.0, 0),
        Span("outer", 4.0, 7.0, -1),
        Span("inner", 5.0, 6.0, 2),
    ]
    assert tracer.counts == {"outer": 2, "inner": 2, "outer.sum": 10}
    assert spans.self_times(tracer.finished_spans()) == {"outer": 4.0, "inner": 2.0}


def test_tracer_closes_spans_when_the_call_raises():
    tracer = spans.Tracer()

    def fail():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap("failing", fail)()
    (span,) = tracer.finished_spans()
    assert span.name == "failing" and span.end >= span.start


def test_speed_scale_maps_the_median_reference_sample_to_ref_seconds():
    slow = [2 * run.REF_SECONDS, 2 * run.REF_SECONDS, 9 * run.REF_SECONDS]
    assert run.speed_scale(slow) == 0.5


def test_speed_sampler_samples_during_a_long_call_and_excludes_itself():
    class Cli:
        @staticmethod
        def main(argv):
            end = time.perf_counter() + 0.3
            while time.perf_counter() < end:
                pass
            return 0

    sampler = run.SpeedSampler()
    with sampler:
        elapsed, code = run.call(Cli, [], io.StringIO(), sampler)
    assert code == 0
    assert len(sampler.samples) >= 3
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert elapsed == pytest.approx(0.3 - sampler.spent, abs=0.02)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_writes_identical_inputs(tmp_path, workload):
    first, second, other = (tmp_path / name for name in ("a", "b", "c"))
    for target, seed in ((first, 11), (second, 11), (other, 12)):
        target.mkdir()
        workloads.generate(workload, seed, str(target))
    assert run.read_tree(str(first)) == run.read_tree(str(second))
    assert run.read_tree(str(first)) != run.read_tree(str(other))


def test_sweep_runs_the_same_mix_for_every_seed(tmp_path):
    plans = []
    for seed in (3, 4):
        target = tmp_path / str(seed)
        target.mkdir()
        manifest = workloads.generate("sweep-collide", seed, str(target))
        plans.append(sorted(
            (inst["expect"], inst["backend"], inst["r"], "family" in inst,
             len(json.loads((target / inst["space"]).read_text())["metric"]))
            for inst in manifest["instances"]
        ))
    assert plans[0] == plans[1]
    assert len(plans[0]) == len(workloads.sweep_plan()) == 120
    assert sum(1 for p in plans[0] if p[0] == "gate") == 19


def test_unwrapping_restores_every_patched_attribute():
    targets = spans.hook_targets()
    before = [owner.__dict__[attr] for owner, attr in targets]
    with spans.traced(spans.Tracer()):
        during = [owner.__dict__[attr] for owner, attr in targets]
    after = [owner.__dict__[attr] for owner, attr in targets]
    assert all(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))


def test_unwrapping_restores_attributes_after_an_error():
    targets = spans.hook_targets()
    before = [owner.__dict__[attr] for owner, attr in targets]
    with pytest.raises(RuntimeError):
        with spans.traced(spans.Tracer()):
            raise RuntimeError("stop")
    assert all(owner.__dict__[attr] is b for (owner, attr), b in zip(targets, before))


def test_benchmark_json_lists_the_emitted_metrics():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in spans.PER_LAYER
    ]
