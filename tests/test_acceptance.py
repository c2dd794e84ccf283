"""Acceptance suite: nine end-to-end criteria, one printed line each.

Each test prints ``ACCEPTANCE <n> PASS|FAIL: <description>`` on the real
stdout so the verdicts stay visible under pytest capture.  Expected values
and tolerances are exact rationals throughout; runtime bounds are asserted
with a monotonic clock.
"""

import json
import math
import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest
from helpers import (
    naive_compatible,
    naive_doubled_blocks,
    naive_induced_blocks,
    orbit_row,
    random_endo_family,
    random_euclidean_space,
)

from menger.cli import main
from menger.fixtures import (
    antipodal_perm,
    circle_space,
    path_space,
    rotation_perm,
    run_cover_oracle,
)
from menger.io import (
    save_action,
    save_space,
    verify_certificate,
    write_certificate,
)
from menger.partitions import (
    INTERSECTIVE,
    DoubledFamily,
    compatible_subset,
    doubled_induced_partition,
    induced_partition,
)
from menger.perturb import Observable, sample_observable, sup_distance
from menger.pipeline import (
    BRANCH_EMPTY,
    BRANCH_SKIPPED,
    check_hypotheses_action,
    embed_equivariant,
    embed_family,
    margin,
)
from menger.space import GroupAction, MapFamily
from menger.witness import run_witness_oracle


def _report(capsys, num: int, desc: str, passed: bool) -> None:
    verdict = "PASS" if passed else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE {num} {verdict}: {desc}")
        sys.stdout.flush()


@contextmanager
def criterion(capsys, num: int, desc: str):
    try:
        yield
    except BaseException:
        _report(capsys, num, desc, False)
        raise
    _report(capsys, num, desc, True)


def _surj_count(n_from: int, n_to: int) -> int:
    return sum(
        (-1) ** k * math.comb(n_to, k) * (n_to - k) ** n_from
        for k in range(n_to + 1)
    )


def _majority_count(n: int) -> int:
    return sum(math.comb(n, s) for s in range(n // 2 + 1, n + 1))


def _instance_count(max_w: int, max_v1: int, max_v2: int) -> int:
    return sum(
        _surj_count(nw, nv1) * _surj_count(nw, nv2)
        * _majority_count(nv1) * _majority_count(nv2)
        for nw in range(1, max_w + 1)
        for nv1 in range(1, min(max_v1, nw) + 1)
        for nv2 in range(1, min(max_v2, nv1, nw) + 1)
    )


def _rotation_family(n: int = 9) -> MapFamily:
    space = circle_space(n)
    step = n // 3
    return MapFamily.create(
        space, space, [rotation_perm(n, s) for s in (0, step, 2 * step)]
    )


@pytest.fixture(scope="module")
def pipeline_runs():
    """Named pipeline runs shared by the perturbation and persistence criteria."""
    runs = []

    fam9 = _rotation_family(9)
    const9 = Observable.create(fam9.target, [[Fraction(1, 2)]] * 9)
    eps9 = Fraction(1, 10)
    runs.append(("rotations, constant start", fam9, eps9,
                 embed_family(fam9, 1, eps9, f0=const9)))

    space8 = circle_space(8)
    act8 = GroupAction.from_generators(space8, [antipodal_perm(8)])
    orbit_const = Observable.create(
        space8,
        [[Fraction(1 + (x % 4), 10), Fraction(2 + (x % 4), 10)] for x in range(8)],
    )
    eps8 = Fraction(1, 8)
    cert8 = embed_equivariant(act8, 2, eps8, f0=orbit_const)
    fam8 = MapFamily.create(space8, space8, list(cert8.stages[0].maps))
    runs.append(("antipodal, orbit-constant start", fam8, eps8, cert8))

    seeded = embed_family(fam9, 1, Fraction(1, 20), seed=7)
    runs.append(("rotations, seeded start", fam9, Fraction(1, 20), seeded))

    # a start whose second class still collides after the first perturbation
    space9 = fam9.source
    fam2 = MapFamily.create(space9, space9, [tuple(range(9)), (1, 4, 3, 8, 0, 6, 2, 5, 7)])
    half = Fraction(1, 2)
    start = [half, 1, 1, 1, 1, half, 0, half, half]
    f0_2 = Observable.create(space9, [[v, v] for v in start])
    runs.append(("two-map circle, two perturbed blocks", fam2, eps9,
                 embed_family(fam2, 2, eps9, f0=f0_2)))
    return runs


def test_acceptance_1_witness_oracle(capsys):
    desc = "exhaustive witness search over all small instances"
    with criterion(capsys, 1, desc):
        start = time.monotonic()
        summary = run_witness_oracle(4, 3, 3)
        elapsed = time.monotonic() - start
        assert summary.failures == ()
        assert summary.instances == _instance_count(4, 3, 3)
        assert summary.a_witnesses + summary.b_witnesses == summary.instances
        assert elapsed < 30


def test_acceptance_2_cover_oracle(capsys):
    desc = "randomized cover builds verify cleanly on both backends"
    with criterion(capsys, 2, desc):
        start = time.monotonic()
        result = run_cover_oracle(runs_per_backend=50)
        elapsed = time.monotonic() - start
        assert result.builds == 100
        assert result.violations == 0, result.details
        assert elapsed < 10


def test_acceptance_3_perturbation_properties(capsys, pipeline_runs):
    desc = "perturbation value properties hold exactly on every logged run"
    with criterion(capsys, 3, desc):
        executed = 0
        for name, fam, eps, cert in pipeline_runs:
            assert cert.displacement <= eps
            assert sup_distance(cert.f0, cert.observable) == cert.displacement
            for log in cert.blocks:
                if log.branch in (BRANCH_SKIPPED, BRANCH_EMPTY):
                    continue
                executed += 1
                assignment = log.assignment
                assert assignment is not None
                # (a) every assigned value sits within the block budget of
                # the points it covers, and the block moved at most that far
                assert log.displacement <= assignment.eps <= eps
                # (b) distinct subsets of one coordinate get distinct values
                seen_per_coord = []
                for entries in assignment.per_coordinate:
                    vals = [v for _, v in entries]
                    assert len(set(vals)) == len(vals)
                    seen_per_coord.append(set(vals))
                # (c) assigned ranges across coordinates never meet
                for e1 in range(len(seen_per_coord)):
                    for e2 in range(e1 + 1, len(seen_per_coord)):
                        assert not (seen_per_coord[e1] & seen_per_coord[e2])
        assert executed > 0


def test_acceptance_4_rotation_embedding(capsys):
    desc = "three-rotation circle embedding: margin, displacement, injectivity"
    with criterion(capsys, 4, desc):
        start = time.monotonic()
        fam = _rotation_family(9)
        assert fam.source.dim(range(9)) == 1
        eps = Fraction(1, 20)          # the 0.05 budget, exactly
        cert = embed_family(fam, r=1, eps=eps, seed=0)
        elapsed = time.monotonic() - start
        assert cert.margin > 0
        assert cert.displacement <= eps
        pairs = [(a, b) for a in range(9) for b in range(a + 1, 9)]
        assert len(pairs) == 36
        rows = [orbit_row(cert.observable, fam, x) for x in range(9)]
        for a, b in pairs:
            assert rows[a] != rows[b]
        assert elapsed < 5


def test_acceptance_5_antipodal_gate_and_embedding(tmp_path, capsys, pipeline_runs):
    desc = "antipodal action embeds at r=2 and is rejected at r=1"
    with criterion(capsys, 5, desc):
        start = time.monotonic()
        space8 = circle_space(8)
        action = GroupAction.from_generators(space8, [antipodal_perm(8)])
        assert space8.dim(range(8)) == 1
        assert check_hypotheses_action(action, 2).passed

        _, _, _, cert = next(r for r in pipeline_runs if r[0].startswith("antipodal"))
        assert cert.margin > 0
        assert any(b.branch == INTERSECTIVE for b in cert.blocks)

        space_path = str(tmp_path / "space8.json")
        action_path = str(tmp_path / "action8.json")
        save_space(space8, space_path)
        save_action([antipodal_perm(8)], action_path)
        code = main(["check", "--space", space_path, "--action", action_path, "--r", "1"])
        out = capsys.readouterr().out
        assert code == 2
        assert "periodic N=2: dim 1 < 2/2 [FAIL]" in out
        code = main(["embed", "--space", space_path, "--action", action_path,
                     "--r", "1", "--eps", "0.05",
                     "--out", str(tmp_path / "never.json")])
        capsys.readouterr()
        assert code == 2
        assert not (tmp_path / "never.json").exists()
        elapsed = time.monotonic() - start
        assert elapsed < 5


def test_acceptance_6_baire_persistence(capsys, pipeline_runs):
    desc = "separations persist across blocks within the total budget"
    with criterion(capsys, 6, desc):
        multi_block = 0
        for name, fam, eps, cert in pipeline_runs:
            # only perturbed blocks are logged
            assert all(b.branch not in (BRANCH_EMPTY, BRANCH_SKIPPED) for b in cert.blocks)
            if len(cert.blocks) >= 2:
                multi_block += 1
            # every pair of every perturbed block is still separated at the
            # end of the run, so no earlier separation was ever destroyed
            for log in cert.blocks:
                assert log.margin_after > 0
                assert margin(cert.observable, fam, log.pairs) > 0
            assert cert.displacement <= eps
        assert multi_block >= 1
        _, _, _, two = next(r for r in pipeline_runs if r[0].startswith("two-map"))
        assert len(two.blocks) == 2
        assert two.margin == Fraction(17, 38400)
        assert two.displacement == Fraction(1, 40)


def test_acceptance_7_certificate_round_trip(tmp_path, capsys, pipeline_runs):
    desc = "certificates re-verify bit-exactly and tampering is caught"
    with criterion(capsys, 7, desc):
        for idx, (name, fam, eps, cert) in enumerate(pipeline_runs):
            path = str(tmp_path / f"cert{idx}.json")
            payload = write_certificate(path, cert)
            assert verify_certificate(payload) == []
            assert verify_certificate(json.load(open(path))) == []

        space_path = str(tmp_path / "space9.json")
        action_path = str(tmp_path / "action9.json")
        save_space(circle_space(9), space_path)
        save_action([rotation_perm(9, 3)], action_path)
        cert_path = str(tmp_path / "cli_cert.json")
        assert main(["embed", "--space", space_path, "--action", action_path,
                     "--r", "1", "--eps", "0.05", "--seed", "3",
                     "--out", cert_path]) == 0
        assert main(["verify", "--cert", cert_path, "--space", space_path,
                     "--action", action_path]) == 0
        capsys.readouterr()

        raw = open(cert_path, "rb").read()
        anchor = raw.index(b'"observable_values"')
        offset = raw.index(b"1", anchor)
        flipped = bytearray(raw)
        flipped[offset] ^= 0x01          # '1' becomes '0': a single-bit flip
        open(cert_path, "wb").write(bytes(flipped))
        code = main(["verify", "--cert", cert_path])
        err = capsys.readouterr().err
        assert code == 4
        assert "cert_sha256 mismatch" in err


def test_acceptance_8_brute_force_equivalence(capsys):
    desc = "partition machinery matches the naive re-implementation"
    with criterion(capsys, 8, desc):
        start = time.monotonic()
        rng = random.Random(424242)
        spaces = [circle_space(n) for n in (4, 6, 8)]
        spaces += [path_space(n) for n in (4, 7)]
        spaces += [random_euclidean_space(rng, rng.randint(4, 8)) for _ in range(12)]
        checked = 0
        for space in spaces:
            n = space.n_points
            fams = [random_endo_family(rng, space, rng.randint(1, 3)) for _ in range(3)]
            for fam in fams:
                everything = range(n)
                for x in range(n):
                    got = induced_partition(fam, x)
                    assert {frozenset(b) for b in got.blocks} == naive_induced_blocks(fam, x)
                seen = {induced_partition(fam, x) for x in range(n)}
                for p in seen:
                    got = compatible_subset(fam, everything, p)
                    naive = naive_compatible(
                        fam, everything, {frozenset(b) for b in p.blocks}
                    )
                    assert set(got) == naive
                df = DoubledFamily(fam)
                for x1 in range(n):
                    for x2 in range(n):
                        if x1 == x2:
                            continue
                        got = doubled_induced_partition(df, (x1, x2))
                        assert {
                            frozenset(b) for b in got.blocks
                        } == naive_doubled_blocks(fam, (x1, x2))
                        checked += 1
        elapsed = time.monotonic() - start
        assert checked > 1000
        assert elapsed < 10


def test_acceptance_9_seeded_sampling_report(capsys):
    fam = _rotation_family(9)
    eps = Fraction(1, 20)
    pairs = [(a, b) for a in range(9) for b in range(a + 1, 9)]
    already = 0
    succeeded = 0
    seeds = range(100)
    for seed in seeds:
        f0 = sample_observable(fam.target, 1, seed)
        if margin(f0, fam, pairs) > 0:
            already += 1
        cert = embed_family(fam, r=1, eps=eps, f0=f0)
        if cert.margin > 0 and cert.displacement <= eps:
            succeeded += 1
    rate = succeeded / len(seeds)
    desc = (
        f"seeded sampling: {already}/100 already injective, "
        f"post-perturbation success rate {rate:.2f}"
    )
    with criterion(capsys, 9, desc):
        assert succeeded == len(seeds)
