"""Benchmark of the ``menger`` command line: check, embed and verify.

Run from the repository root:

    python3 bench/run.py --workload circle-seeded --seed 1 --seconds 38 --trace 0

Set-up starts a fresh interpreter ``SETUPS`` times; each imports ``menger``
and writes the workload's inputs, generated from ``--seed``, as JSON files.
``setup_s`` is the median of those times, and the copies must be
byte-identical.  The measuring process then repeats rounds until
``--seconds`` are used up.  A round is one pass of ``menger check``, one
of ``menger embed`` and one of ``menger verify`` (with the inputs, so the
gate is recomputed) over every instance, all through ``menger.cli.main`` in
this single-threaded process, followed by the outcome checks.

``--trace 0`` reports the end-to-end metrics (medians over the rounds).
Times are in reference seconds (see ``REF_SECONDS``).
``--trace 1`` alternates untraced rounds with traced rounds, which patch the
layer boundaries listed in ``spans.HOOKS``, and reports the per-layer
metrics (medians over the traced rounds) and the tracing overhead.

Readable lines go to standard output first; its last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every outcome was right, the certificate
digest was the same in every round, and the set-up copies were identical.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from typing import Any, NamedTuple

import spans
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
SETUPS = 5
# numpy must not start a thread pool: the benchmark is single-threaded.
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
EXIT_HYPOTHESIS = 2
# (metric, unit) reported with --trace 0, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"),
    ("check_s", "s"),
    ("embed_s", "s"),
    ("verify_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("cert_kb", "kB"),
)


# A shared machine's speed drifts by up to 2x, within seconds and between
# minutes, more than any bound a change could be held to.  So every reported
# time is scaled by how long a fixed reference loop takes at the same moments:
# a reported second is the time the work would take on a machine that runs
# one reference sample in REF_SECONDS.  The readable lines also give wall time.
REF_SECONDS = 0.001
PROBE_INTERVAL = 0.05   # wall seconds between reference samples in a round
SETUP_PROBES = 50       # reference samples before and after each set-up


def reference_sample() -> float:
    """Wall time of a fixed pure-Python loop over the kind of data ``menger``
    works on: exact fractions, tuples, frozensets and dicts."""
    start = time.perf_counter()
    total = Fraction(0)
    seen: dict[tuple[int, int], set[frozenset[int]]] = {}
    for i in range(1, 300):
        total += Fraction(i % 97, i % 89 + 1)
        seen.setdefault((i % 13, i % 7), set()).add(frozenset((i % 11, i % 5)))
    return time.perf_counter() - start


def speed_scale(samples: list[float]) -> float:
    """Factor from wall seconds to seconds at the reference speed."""
    return REF_SECONDS / statistics.median(samples)


class SpeedSampler:
    """Reference samples every ``PROBE_INTERVAL`` wall seconds while active.

    A ``SIGALRM`` handler takes them in this process's only thread, so they
    cover a long ``menger`` call evenly in time; ``spent`` is the time spent
    in the handler, which ``call`` subtracts from the call it interrupted.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous: Any = None

    def _sample(self, signum: int, frame: Any) -> None:
        elapsed = reference_sample()
        self.samples.append(elapsed)
        self.spent += elapsed

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


class Instance(NamedTuple):
    ident: str
    expect: str            # "pass" or "gate"
    eps: Fraction
    check: list[str]
    embed: list[str]
    verify: list[str]
    cert: str


def instances_from(manifest: dict[str, Any], in_dir: str, out_dir: str) -> list[Instance]:
    out = []
    for inst in manifest["instances"]:
        def path(role: str) -> str:
            return os.path.join(in_dir, inst[role])

        inputs = ["--space", path("space")]
        inputs += ["--family", path("family")] if "family" in inst else ["--action", path("action")]
        r = ["--r", str(inst["r"])]
        cert = os.path.join(out_dir, inst["id"] + ".json")
        embed = ["embed", *inputs, *r, "--eps", inst["eps"], "--f0", path("f0"),
                 "--backend", inst["backend"], "--out", cert]
        if "coords" in inst:
            embed += ["--coords", path("coords")]
        out.append(Instance(
            inst["id"], inst["expect"], Fraction(inst["eps"]),
            ["check", *inputs, *r], embed, ["verify", "--cert", cert, *inputs], cert,
        ))
    return out


def call(cli: Any, argv: list[str], out: io.StringIO,
         sampler: SpeedSampler) -> tuple[float, int | None]:
    """Wall time and exit code of one ``menger`` call; its output goes to ``out``.

    The time ``sampler`` spent inside the call is not counted.  An exception
    escaping ``main`` is recorded as exit code None.
    """
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        spent = sampler.spent
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:
            code = None
        elapsed = time.perf_counter() - start - (sampler.spent - spent)
        if code is None:
            traceback.print_exc(file=out)
    return elapsed, code


def check_outcome(inst: Instance, codes: dict[str, int | None],
                  out_dir: str) -> tuple[list[str], str | None]:
    """Problems with one instance's outcome, and its certificate hash."""
    if inst.expect == "gate":
        problems = []
        if (codes["check"], codes["embed"]) != (EXIT_HYPOTHESIS, EXIT_HYPOTHESIS):
            problems.append(
                f"gate-failing instance exited {codes['check']}/{codes['embed']}, expected 2/2"
            )
        if any(name.startswith(inst.ident + ".") for name in os.listdir(out_dir)):
            problems.append("gate-failing instance wrote a certificate")
        return problems, None
    if list(codes.values()) != [0, 0, 0]:
        return [f"exit codes {codes}, expected 0 from check, embed and verify"], None
    with open(inst.cert, encoding="utf-8") as fh:
        doc = json.load(fh)
    problems = []
    if doc["margin"] == "inf" or not Fraction(doc["margin"]) > 0:
        problems.append(f"stored margin {doc['margin']} is not a positive rational")
    if not Fraction(doc["displacement"]) <= inst.eps:
        problems.append(f"displacement {doc['displacement']} exceeds eps {inst.eps}")
    return problems, doc["cert_sha256"]


def run_round(cli: Any, instances: list[Instance], out_dir: str,
              sample_speed: bool) -> dict[str, Any]:
    """One pass of each command over every instance, then the outcome checks.

    Each instance runs check, embed and verify back to back, so the three
    passes sample the machine over the same stretch of time; a pass's time
    is the sum of its calls.  With ``sample_speed``, ``scale`` converts this
    round's wall seconds to reference seconds.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    seconds = {"check": 0.0, "embed": 0.0, "verify": 0.0}
    sampler = SpeedSampler()
    outcomes = []
    with sampler if sample_speed else contextlib.nullcontext():
        for inst in instances:
            out = io.StringIO()
            codes: dict[str, int | None] = {}
            for command, argv in (("check", inst.check), ("embed", inst.embed),
                                  ("verify", inst.verify)):
                if command == "verify" and (inst.expect != "pass" or codes["embed"] != 0):
                    break
                elapsed, codes[command] = call(cli, argv, out, sampler)
                seconds[command] += elapsed
            outcomes.append((inst, codes, out))
    if not sampler.samples:
        sampler.samples.append(reference_sample())

    problems = []
    hashes = []
    for inst, codes, out in outcomes:
        found, cert_hash = check_outcome(inst, codes, out_dir)
        if found:
            problems.append(f"{inst.ident}: {'; '.join(found)}\n{out.getvalue()[-2000:]}")
        if cert_hash is not None:
            hashes.append(f"{inst.ident} {cert_hash}\n")
    return {
        "check_s": seconds["check"],
        "embed_s": seconds["embed"],
        "verify_s": seconds["verify"],
        "scale": speed_scale(sampler.samples),
        "cert_bytes": sum(e.stat().st_size for e in os.scandir(out_dir)),
        "digest": hashlib.sha256("".join(hashes).encode()).hexdigest(),
        "problems": problems,
    }


def set_up(workload: str, seed: int, work: str) -> tuple[list[tuple[float, float]], str, bool]:
    """Generate the inputs in ``SETUPS`` fresh interpreters.

    Returns the wall times with the speed scale measured around each, the
    first input directory, and whether every copy is byte-identical to the
    first.
    """
    env = dict(os.environ, **SINGLE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    times = []
    copies = []
    for k in range(SETUPS):
        target = os.path.join(work, f"inputs{k}")
        os.makedirs(target)
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(seed), "--setup-only", target]
        refs = [reference_sample() for _ in range(SETUP_PROBES)]
        start = time.perf_counter()
        subprocess.run(argv, env=env, check=True, timeout=120)
        elapsed = time.perf_counter() - start
        refs += [reference_sample() for _ in range(SETUP_PROBES)]
        times.append((elapsed, speed_scale(refs)))
        copies.append(read_tree(target))
    return times, os.path.join(work, "inputs0"), all(c == copies[0] for c in copies)


def read_tree(directory: str) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


def setup_only(workload: str, seed: int, target: str) -> None:
    """The timed set-up: import menger as the command does, write the inputs."""
    import menger.cli  # noqa: F401

    workloads.generate(workload, seed, target)


def import_menger() -> Any:
    sys.path.insert(0, SRC)
    import menger
    import menger.cli

    if os.path.dirname(os.path.abspath(menger.__file__)) != os.path.join(SRC, "menger"):
        raise RuntimeError(f"imported menger from {menger.__file__}, not from {SRC}")
    return menger.cli


def measure(cli: Any, instances: list[Instance], out_dir: str, seconds: float,
            trace: bool) -> tuple[list[dict[str, Any]], list[dict[str, Any]]]:
    """Rounds until ``seconds`` are used up: untraced, and traced when asked.

    A new round starts only when the mean round so far still fits.  Traced
    and untraced rounds alternate, each going first every other time.
    """
    plain: list[dict[str, Any]] = []
    traced: list[dict[str, Any]] = []
    start = time.perf_counter()
    while True:
        order = (False, True) if len(plain) % 2 == 0 else (True, False)
        for with_trace in order if trace else (False,):
            if not with_trace:
                plain.append(run_round(cli, instances, out_dir, sample_speed=True))
                continue
            tracer = spans.Tracer()
            with spans.traced(tracer):
                result = run_round(cli, instances, out_dir, sample_speed=False)
            result["layers"] = spans.layer_metrics(tracer)
            traced.append(result)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(plain) > seconds:
            return plain, traced


def median_of(rounds: list[dict[str, Any]], key: str) -> float:
    return statistics.median(r[key] for r in rounds)


def scaled_median(rounds: list[dict[str, Any]], key: str) -> float:
    return statistics.median(r[key] * r["scale"] for r in rounds)


def total_s(r: dict[str, Any]) -> float:
    return r["check_s"] + r["embed_s"] + r["verify_s"]


def report(args: argparse.Namespace, setup_times: list[tuple[float, float]], inputs_identical: bool,
           n_instances: int, plain: list[dict[str, Any]],
           traced: list[dict[str, Any]]) -> dict[str, Any]:
    rounds = plain + traced
    problems = [p for r in rounds for p in r["problems"]]
    failed = sum(len(r["problems"]) for r in rounds)
    attempted = n_instances * len(rounds)
    digests = {r["digest"] for r in rounds}
    correct = failed == 0 and len(digests) == 1 and inputs_identical

    values = {
        "setup_s": statistics.median(t * scale for t, scale in setup_times),
        "check_s": scaled_median(plain, "check_s"),
        "embed_s": scaled_median(plain, "embed_s"),
        "verify_s": scaled_median(plain, "verify_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cert_kb": median_of(plain, "cert_bytes") / 1000,
    }
    print(f"workload {args.workload}, seed {args.seed}: {n_instances} instances per pass, "
          f"{len(plain)} untraced and {len(traced)} traced rounds, {SETUPS} set-ups")
    print("  times are in reference seconds; wall seconds and speed scale per round follow")
    for name, unit in END_TO_END:
        print(f"  {name:<12} {values[name]:.6g} {unit}")
    print(f"  setup_s wall: {' '.join(f'{t:.4g}' for t, _ in setup_times)}; "
          f"scale: {' '.join(f'{scale:.3f}' for _, scale in setup_times)}")
    for key in ("check_s", "embed_s", "verify_s"):
        print(f"  {key} wall: {' '.join(f'{r[key]:.4g}' for r in plain)}")
    scales = " ".join(f"{r['scale']:.3f}" for r in plain)
    print(f"  round scale: {scales}")
    print(f"  {'failed_ratio':<12} {failed / attempted:.6g} ({failed}/{attempted})")
    print(f"  certificate digest: {', '.join(sorted(digests))}")
    if not inputs_identical:
        print("  set-up copies of the inputs differ")
    if len(digests) > 1:
        print("  certificate digest differs between rounds")
    for p in problems[:10]:
        print(f"  wrong outcome: {p}")

    if not traced:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    else:
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        base = statistics.median(total_s(r) for r in plain)
        overhead = statistics.median(total_s(r) for r in traced) - base
        layers["trace.overhead_s"] = overhead
        layers["trace.overhead_ratio"] = overhead / base
        units = {name: unit for name, unit, _, _ in spans.PER_LAYER}
        metrics = {name: {"value": layers[name], "unit": units[name]} for name, *_ in spans.PER_LAYER}
        traced_total = statistics.median(total_s(r) for r in traced)
        print(f"  traced pass {traced_total:.4g} s, untraced {base:.4g} s, "
              f"overhead {overhead:+.4g} s ({100 * overhead / base:+.2f} %)")
        shares = sorted(((v, n) for n, v in layers.items()
                         if units[n] == "s" and not n.startswith("trace.")), reverse=True)
        print("  self time share of the traced pass:")
        for value, name in shares:
            print(f"    {name:<28} {100 * value / traced_total:6.2f} %  {value:.4g} s")
        for name, unit, _, _ in spans.PER_LAYER:
            if unit != "s":
                print(f"    {name:<28} {layers[name]:.6g} {unit}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only:
        setup_only(args.workload, args.seed, args.setup_only)
        return 0
    if not os.path.isfile(os.path.join(SRC, "menger", "cli.py")):
        print(f"error: no menger sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(SINGLE_THREAD)

    work = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        setup_times, in_dir, inputs_identical = set_up(args.workload, args.seed, work)
        cli = import_menger()
        with open(os.path.join(in_dir, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        out_dir = os.path.join(work, "out")
        instances = instances_from(manifest, in_dir, out_dir)
        plain, traced = measure(cli, instances, out_dir, args.seconds, bool(args.trace))
        result = report(args, setup_times, inputs_identical, len(instances), plain, traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
