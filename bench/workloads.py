"""Seeded input generators for the benchmark workloads.

``generate(workload, seed, out_dir)`` writes every input file of one
workload into ``out_dir`` plus a ``manifest.json`` that lists the instances:
the file names, the command line parameters, and the outcome each instance
must have (``"pass"``: exit 0 and a certificate; ``"gate"``: exit 2 from
``check`` and ``embed`` and no certificate).  The same workload and seed
always give byte-identical files.  The program under test never sees the
seed, only these files and command line arguments.

Inputs are built here rather than through ``menger.fixtures`` or the
``menger.io`` writers, so a change to the program cannot change its own
benchmark inputs (certificates record the input file hashes).

Expected outcomes follow from the dimension gate by construction:

* a circle sample is 1-dimensional, and k rotations by distinct steps
  induce the discrete partition of the k maps at every point, so the family
  gate holds exactly when 2 < r * k;
* the antipodal action has every orbit of size 2, so its gate holds exactly
  when 2 < 2 * r;
* a planar sample without simplices is 0-dimensional, so every family gate
  holds.
"""

from __future__ import annotations

import json
import math
import os
import random
from typing import Any

WORKLOADS = ("circle-seeded", "sweep-collide", "gate-wide")

EPS = "1/20"
GRID = 1 << 30          # seeded observables live on the dyadic grid of this step

SIZES = range(8, 17)
EVEN_SIZES = range(8, 17, 2)
# sweep-collide mix: (kind, sizes, map counts, repeats); the action kinds
# ignore the map count.  Every seed runs the same multiset of (kind, n, maps),
# so the work per pass barely depends on the seed; the seed draws the order,
# the rotation steps, the planar points and maps, and the start values.
SWEEP_MIX = (
    ("rotations-cells", SIZES, (2, 3, 4), 1),
    ("rotations-bricks", SIZES, (2, 3), 1),
    ("antipodal", EVEN_SIZES, (1,), 4),
    ("planar", SIZES, (2, 3), 2),
    ("gate-rotations", SIZES, (2,), 1),
    ("gate-antipodal", EVEN_SIZES, (1,), 2),
)


def sweep_plan() -> list[tuple[str, int, int]]:
    """The (kind, n, maps) of every sweep-collide instance, unshuffled."""
    return [
        (kind, n, k)
        for kind, sizes, maps, repeats in SWEEP_MIX
        for _ in range(repeats)
        for n in sizes
        for k in maps
    ]


def _write_json(path: str, doc: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def circle_metric(n: int) -> list[list[float]]:
    """Chord metric of n equally spaced points on the unit circle."""
    metric = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            k = min(j - i, n - (j - i))
            metric[i][j] = metric[j][i] = 2.0 * math.sin(math.pi * k / n)
    return metric


def circle_doc(n: int) -> dict[str, Any]:
    return {"metric": circle_metric(n), "simplices": [sorted({i, (i + 1) % n}) for i in range(n)]}


def circle_coords_doc(n: int) -> dict[str, Any]:
    step = 2.0 * math.pi / n
    return {"dim": 1, "points": [[i * step] for i in range(n)]}


def triangle_ok(metric: list[list[float]]) -> bool:
    """The float triangle inequality, compared the way the loader checks it."""
    n = len(metric)
    return all(
        metric[i][k] <= metric[i][j] + metric[j][k]
        for i in range(n)
        for j in range(n)
        for k in range(n)
    )


def planar_doc(rng: random.Random, n: int) -> dict[str, Any]:
    """Distinct grid points in the plane; drawn again until rounding of
    nearly collinear triples leaves the float metric a metric."""
    while True:
        points: list[tuple[float, float]] = []
        while len(points) < n:
            p = (rng.randint(0, 60) / 10.0, rng.randint(0, 60) / 10.0)
            if p not in points:
                points.append(p)
        metric = [[math.dist(a, b) for b in points] for a in points]
        if triangle_ok(metric):
            return {"metric": metric}


def rotation(n: int, step: int) -> list[int]:
    return [(i + step) % n for i in range(n)]


def seeded_values(rng: random.Random, n: int, r: int) -> list[list[str]]:
    return [[f"{rng.getrandbits(30)}/{GRID}" for _ in range(r)] for _ in range(n)]


def constant_values(rng: random.Random, n: int, r: int) -> list[list[str]]:
    row = [f"{rng.randint(1, 99)}/100" for _ in range(r)]
    return [list(row) for _ in range(n)]


def orbit_constant_values(rng: random.Random, n: int, r: int) -> list[list[str]]:
    """Values constant on the antipodal orbits {x, x + n/2}."""
    half = [[f"{rng.randint(1, 99)}/100" for _ in range(r)] for _ in range(n // 2)]
    return [list(half[x % (n // 2)]) for x in range(n)]


class _Writer:
    """Collects instances and writes their files under one directory."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.instances: list[dict[str, Any]] = []

    def add(self, expect: str, r: int, files: dict[str, Any], backend: str = "cells") -> None:
        ident = f"i{len(self.instances):03d}"
        inst: dict[str, Any] = {"id": ident, "expect": expect, "r": r, "eps": EPS, "backend": backend}
        for role, doc in files.items():
            name = f"{ident}-{role}.json"
            _write_json(os.path.join(self.out_dir, name), doc)
            inst[role] = name
        self.instances.append(inst)

    def finish(self, workload: str, seed: int) -> dict[str, Any]:
        manifest = {"workload": workload, "seed": seed, "instances": self.instances}
        _write_json(os.path.join(self.out_dir, "manifest.json"), manifest)
        return manifest


def _circle_family(w: _Writer, n: int, steps: list[int], r: int,
                   values: list[list[str]], expect: str, backend: str = "cells") -> None:
    files: dict[str, Any] = {
        "space": circle_doc(n),
        "family": {"maps": [rotation(n, s) for s in steps]},
        "f0": {"r": r, "values": values},
    }
    if backend == "bricks":
        files["coords"] = circle_coords_doc(n)
    w.add(expect, r, files, backend)


def _sweep_instance(w: _Writer, rng: random.Random, kind: str, n: int, k: int) -> None:
    if kind in ("rotations-cells", "rotations-bricks", "gate-rotations"):
        r = 2 if k == 2 and kind != "gate-rotations" else 1
        steps = sorted(rng.sample(range(n), k))
        backend = "bricks" if kind == "rotations-bricks" else "cells"
        expect = "gate" if kind == "gate-rotations" else "pass"
        _circle_family(w, n, steps, r, constant_values(rng, n, r), expect, backend)
    elif kind in ("antipodal", "gate-antipodal"):
        r = 2 if kind == "antipodal" else 1
        w.add(
            "pass" if kind == "antipodal" else "gate",
            r,
            {
                "space": circle_doc(n),
                "action": {"generators": [rotation(n, n // 2)]},
                "f0": {"r": r, "values": orbit_constant_values(rng, n, r)},
            },
        )
    elif kind == "planar":
        maps = []
        for _ in range(k):
            perm = list(range(n))
            rng.shuffle(perm)
            maps.append(perm)
        w.add(
            "pass",
            1,
            {
                "space": planar_doc(rng, n),
                "family": {"maps": maps},
                "f0": {"r": 1, "values": constant_values(rng, n, 1)},
            },
        )
    else:
        raise ValueError(f"unknown sweep kind {kind!r}")


def generate(workload: str, seed: int, out_dir: str) -> dict[str, Any]:
    """Write the inputs of ``workload`` for ``seed`` into ``out_dir``."""
    rng = random.Random(f"{workload}:{seed}")
    w = _Writer(out_dir)
    if workload == "circle-seeded":
        n = 96
        _circle_family(w, n, [0, n // 3, 2 * n // 3], 1, seeded_values(rng, n, 1), "pass")
    elif workload == "gate-wide":
        n = 24
        _circle_family(w, n, list(range(0, n, 3)), 1, seeded_values(rng, n, 1), "pass")
    elif workload == "sweep-collide":
        plan = sweep_plan()
        rng.shuffle(plan)
        for kind, n, k in plan:
            _sweep_instance(w, rng, kind, n, k)
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
    return w.finish(workload, seed)
