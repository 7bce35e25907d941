"""Tests of the benchmark itself: generator, checker and a smoke run.

    python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import chains  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from oracle import Group, WrongAnswer  # noqa: E402


def _det(rows: list[list[int]]) -> Fraction:
    m = [[Fraction(x) for x in row] for row in rows]
    n, det = len(m), Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return det


def _first_deck(workload: str, seed: int, tmp_path: Path) -> list[tuple]:
    deck = next(workloads.decks(workload, seed, str(tmp_path)))
    return [(op.argv, op.files, op.expect, op.size) for op in deck]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    assert _first_deck(workload, 7, tmp_path) == _first_deck(workload, 7, tmp_path)
    assert _first_deck(workload, 7, tmp_path) != _first_deck(workload, 8, tmp_path)


def test_unimodular_factors_have_det_pm1_and_exact_inverse():
    rng = random.Random(3)
    for n in (1, 2, 5, 9):
        p, p_inv = chains.unimodular(n, 40, rng)
        assert abs(_det(p)) == 1
        assert chains.matmul(p, p_inv) == chains.identity(n)


def test_generated_complexes_satisfy_dd_zero_and_homology_ranks():
    rng = random.Random(5)
    for _ in range(20):
        ranks = [rng.randint(1, 9) for _ in range(4)]
        c = chains.chain_complex(ranks, 25, 2, rng)
        for p in range(2, len(ranks)):
            product = chains.matmul(c.d[p - 1], c.d[p])
            assert all(x == 0 for row in product for x in row)
        # Euler characteristic of the ranks equals that of the homology
        euler = sum((-1) ** p * n for p, n in enumerate(ranks))
        assert euler == sum((-1) ** p * h.free for p, h in enumerate(c.homology))


def test_pdq_keeps_the_chosen_diagonal_rank():
    rng = random.Random(9)
    matrix, diag = chains.pdq(6, 4, 30, rng)
    assert len(diag) == 4 and len(matrix) == 6 and len(matrix[0]) == 4
    nonzero = sum(1 for d in diag if d)
    square = [row[:] for row in chains.matmul(list(map(list, zip(*matrix))), matrix)]
    assert (_det(square) != 0) == (nonzero == 4)


def test_checker_normalises_to_prime_powers():
    assert oracle.same_group(Group(0, (2, 3)), Group(0, (6,)))
    assert oracle.same_group(Group(1, (2, 12)), Group(1, (4, 6)))
    assert not oracle.same_group(Group(0, (4,)), Group(0, (2, 2)))
    assert not oracle.same_group(Group(1, ()), Group(0, ()))


def test_checker_accepts_equivalent_and_rejects_perturbed_output():
    expect = oracle.plain_report([Group(0, (2, 2)), Group(1, (3,))])
    good = "spectral run: period=2 cap=1 stabilized at page 2\nK_0 = Z/2 + Z/2\nK_1 = Z + Z/3"
    oracle.check(expect, good, 0, as_json=False)
    with pytest.raises(WrongAnswer):
        oracle.check(expect, good.replace("Z/2 + Z/2", "Z/4"), 0, as_json=False)
    with pytest.raises(WrongAnswer):
        oracle.check(expect, good, 2, as_json=False)
    payload = {
        "truncated_at": None,
        "degrees": [
            {"degree": 0, "ambiguous": False, "assembled": {"free_rank": 0, "torsion": [2, 2]}, "pieces": []},
            {"degree": 1, "ambiguous": False, "assembled": {"free_rank": 1, "torsion": [3]}, "pieces": []},
        ],
    }
    oracle.check(expect, json.dumps(payload), 0, as_json=True)
    payload["degrees"][0]["assembled"]["torsion"] = [4]
    with pytest.raises(WrongAnswer):
        oracle.check(expect, json.dumps(payload), 0, as_json=True)


def test_extension_policy_marks_torsion_on_top_as_ambiguous():
    free_then_torsion = oracle.assemble([(0, Group(1)), (1, Group(0, (2,)))])
    assert free_then_torsion.ambiguous and free_then_torsion.assembled is None
    torsion_then_free = oracle.assemble([(0, Group(0, (2,))), (1, Group(1)), (2, Group(0))])
    assert not torsion_then_free.ambiguous
    assert oracle.same_group(torsion_then_free.assembled, Group(1, (2,)))


def test_disjoint_rays_closed_form_matches_brute_force():
    def dist(x, lo, hi):
        return max(0, (lo - x) if lo is not None else 0, (x - hi) if hi is not None else 0)

    rays = [(None, -5), (5, None)]
    for r, s in [(Fraction(6), Fraction(6)), (Fraction(13, 2), Fraction(4)), (Fraction(3), Fraction(2))]:
        inner = 12
        expect = workloads.disjoint_rays_verdicts(r, s, inner)
        for j in expect:
            witness = None
            for x in range(-inner, inner + 1):
                near_all = all(dist(x, *rays[i]) <= r for i in j)
                inter_lo = max((rays[i][0] for i in j if rays[i][0] is not None), default=None)
                inter_hi = min((rays[i][1] for i in j if rays[i][1] is not None), default=None)
                empty = inter_lo is not None and inter_hi is not None and inter_lo > inter_hi
                if near_all and (empty or dist(x, inter_lo, inter_hi) > s):
                    witness = (x,)
                    break
            assert expect[j] == witness, (r, s, j)


def test_checker_and_generator_never_import_coarsek():
    code = (
        f"import sys; sys.path.insert(0, {str(BENCH)!r}); import chains, oracle, workloads; "
        "sys.exit(any(m.startswith('coarsek') for m in sys.modules))"
    )
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def _bench(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run(workload, trace):
    proc = _bench(["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", trace], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(["--workload", "nerve", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
