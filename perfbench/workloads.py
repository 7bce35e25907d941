"""The three seeded workloads, each an endless stream of decks of CLI ops.

An op is one argv for ``coarsek.cli.main`` plus the answer the checker
expects.  Each workload deals its ops in decks: a deck holds every op kind
and size of the workload in a fixed proportion, shuffled, and a run plays
whole decks, so every run sees the same mix and only the order and the
seeded parameters change with the seed.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, count
from math import ceil, floor

import chains
from oracle import Excision, Group, Report, Snf, Sweep, plain_report

ZERO, Z = Group(0), Group(1)


@dataclass
class Op:
    argv: list[str]
    expect: object
    size: str  # instance-size bucket for the per-run histogram
    files: dict[str, str] = field(default_factory=dict)  # written before the op runs

    @property
    def as_json(self) -> bool:
        return self.argv[:2] == ["--format", "json"]


def _fmt(argv: list[str], as_json: bool) -> list[str]:
    return ["--format", "json", *argv] if as_json else argv


# ---------------------------------------------------------------------------
# nerve: builtin covers whose cost is the 2^k index-set nerve


def _builtin_report(name: str) -> Report:
    kind, *rest = name.split(":")
    if kind == "rn":
        n = int(rest[0])
        return plain_report([Z if n % 2 == s else ZERO for s in (0, 1)])
    if kind == "wedge":
        return plain_report([ZERO, Group(int(rest[0]) - 1)])
    return plain_report([ZERO, ZERO])  # zinf: every intersection is flasque


def _sweep_expect(builtin: str, caps: range) -> Sweep:
    if builtin == "wedge:countable":
        reports = {c: plain_report([ZERO, Group(c - 1)], truncated_at=c) for c in caps}
        return Sweep(reports, {0: caps[0], 1: None if len(caps) > 1 else caps[0]})
    reports = {c: plain_report([ZERO, ZERO]) for c in caps}
    return Sweep(reports, {0: caps[0], 1: caps[0]})


def nerve_deck(rng: random.Random, deck_no: int) -> list[Op]:
    """The same 26 builtin ops every deck; only their order depends on the seed.

    Builtins have no free parameter that leaves the cost alone, and a
    seeded cap would move the median op between runs.
    """
    ops = []
    for as_json in (False, True):
        for name in ("rn:10", "rn:11", "rn:12", "wedge:13", "wedge:14", "wedge:15"):
            ops.append(Op(_fmt(["run", "--builtin", name], as_json), _builtin_report(name), name))
        for m in (9, 10, 11):
            argv = ["run", "--builtin", f"zinf:{m}", "--cap", str(m - 1)]
            ops.append(Op(_fmt(argv, as_json), _builtin_report("zinf"), f"zinf:{m}"))
        for builtin, top in (("wedge:countable", 12), ("wedge:countable", 13), ("zinf:9", 9), ("zinf:10", 10)):
            argv = ["sweep", "--builtin", builtin, "--caps", f"1..{top}"]
            ops.append(Op(_fmt(argv, as_json), _sweep_expect(builtin, range(1, top + 1)), f"sweep {builtin} ..{top}"))
    return ops


# ---------------------------------------------------------------------------
# torsion: free chain complexes and P·D·Q, where SNF coefficient growth bites

CAP = 3
# Rank range of each C_p, elementary mixing steps per base change, and the
# most invariant factors >= 2 per differential.  A cell with many of them is
# re-factored at every page turn and the naive SNF's transforms compound
# until an op runs for minutes; see README.md for the odds.
RANKS = (6, 9)
STEPS = (4, 6)
TORSION = 2
REPEATS = 7  # ops per deck: 8 * REPEATS
SNF_DIMS, SNF_STEPS = (20, 26), (60, 90)


def _complex_op(rng: random.Random, path: str, kind: str, as_json: bool) -> Op:
    rows = [
        chains.chain_complex([rng.randint(*RANKS) for _ in range(CAP + 1)], rng.randint(*STEPS), TORSION, rng)
        for _ in range(2)
    ]
    if kind == "page":
        obj = chains.page_json(rows, CAP)
    elif kind == "ideal_chain":
        obj = chains.ideal_chain_json(rows, CAP)
    else:
        obj = chains.mv_json(rows, CAP, rng)
    biggest = max(max(r.ranks) for r in rows)
    return Op(_fmt(["run", "--input", path], as_json), chains.expected_report(rows, CAP),
              f"{kind} rank<={biggest}", {path: json.dumps(obj)})


def _snf_op(rng: random.Random, as_json: bool) -> Op:
    rows, cols = rng.randint(*SNF_DIMS), rng.randint(*SNF_DIMS)
    matrix, diag = chains.pdq(rows, cols, rng.randint(*SNF_STEPS), rng)
    argv = _fmt(["snf", "--matrix", json.dumps(matrix)], as_json)
    return Op(argv, Snf(tuple(diag), matrix), f"snf dim<={max(rows, cols)}")


def torsion_deck(rng: random.Random, deck_no: int, workdir: str) -> list[Op]:
    """REPEATS x (page, ideal_chain, mv, snf) x (table, json)."""
    ops = []
    for _ in range(REPEATS):
        for kind in ("page", "ideal_chain", "mv", "snf"):
            for as_json in (False, True):
                if kind == "snf":
                    ops.append(_snf_op(rng, as_json))
                else:
                    path = os.path.join(workdir, f"d{deck_no}-{len(ops)}.json")
                    ops.append(_complex_op(rng, path, kind, as_json))
    return ops


# ---------------------------------------------------------------------------
# excision: the numpy dense-grid oracle, no exact algebra

# grid half-width per dimension: (2*inner+1)^n points per index set
INNER = {3: 45, 4: 11, 5: 6, 6: 4}
RAY_BOX = (90_000, 110_000)


def _radius(rng: random.Random, below: int) -> Fraction:
    den = rng.choice((1, 2, 3, 4))
    return Fraction(rng.randint(den, below * den - 1), den)


def _block_cover_op(rng: random.Random, n: int, metric: str, as_json: bool) -> Op:
    inner = INNER[n]
    r = _radius(rng, inner)
    argv = ["excision", "--builtin", f"rn:{n}", "--metric", metric, "--radius", str(r)]
    if metric == "dinf":
        s = r
    elif metric == "d1":
        s = n * r
    else:
        weights = [rng.choice((Fraction(1), Fraction(3, 2), Fraction(2))) for _ in range(n)]
        s = n * r * max(weights)
        argv += ["--weights", ",".join(map(str, weights)), "--s", str(s)]
    argv += ["--box", str(ceil(s + inner))]  # so that floor(box - S) == inner
    verdicts = {j: None for size in range(1, n + 2) for j in combinations(range(n + 1), size)}
    return Op(_fmt(argv, as_json), Excision(verdicts), f"rn:{n} {metric} inner={inner}")


def _first_in(lo: Fraction, hi: Fraction, lo_open: bool, hi_open: bool, inner: int) -> tuple[int, ...] | None:
    """Least integer x in the interval, within [-inner, inner]."""
    x = max(floor(lo) + 1 if lo_open else ceil(lo), -inner)
    top = min(ceil(hi) - 1 if hi_open else floor(hi), inner)
    return (x,) if x <= top else None


def disjoint_rays_verdicts(r: Fraction, s: Fraction, inner: int) -> dict:
    """Rays (-inf, -5] and [5, inf) in Z; the distance to each is a clamp.

    J=(0,): violated where S < x + 5 <= R; J=(1,): where S < 5 - x <= R;
    J=(0, 1): the intersection is empty, so anywhere within R of both rays.
    """
    return {
        (0,): _first_in(s - 5, r - 5, True, False, inner),
        (1,): _first_in(5 - r, 5 - s, False, True, inner),
        (0, 1): _first_in(5 - r, r - 5, False, False, inner),
    }


def _rays_op(rng: random.Random, as_json: bool) -> Op:
    r = 5 + _radius(rng, 4)  # R > 5, so the two rays come within R of one point
    box = rng.randint(*RAY_BOX)
    argv = ["excision", "--custom", "disjoint-rays", "--radius", str(r), "--s", str(r), "--box", str(box)]
    inner = floor(box - r)
    return Op(_fmt(argv, as_json), Excision(disjoint_rays_verdicts(r, r, inner)), "disjoint-rays")


def excision_deck(rng: random.Random, deck_no: int) -> list[Op]:
    ops = []
    for as_json in (False, True):
        for n in INNER:
            for metric in ("dinf", "d1"):
                ops.append(_block_cover_op(rng, n, metric, as_json))
        for n in (3, 4):
            ops.append(_block_cover_op(rng, n, "weighted", as_json))
        ops.append(_rays_op(rng, as_json))
    return ops


def decks(workload: str, seed: int, workdir: str):
    """Endless shuffled decks; a run always plays whole decks, so its mix is fixed."""
    rng = random.Random(f"{workload}:{seed}")
    make = {
        "nerve": nerve_deck,
        "torsion": lambda r, n: torsion_deck(r, n, workdir),
        "excision": excision_deck,
    }[workload]
    for deck_no in count():
        deck = make(rng, deck_no)
        rng.shuffle(deck)
        yield deck


# the smallest command of each workload, timed in a fresh interpreter
SETUP_ARGV = {
    "nerve": ["run", "--builtin", "rn:2"],
    "torsion": ["snf", "--matrix", "[[2, 4], [6, 8]]"],
    "excision": ["excision", "--builtin", "rn:1", "--radius", "1", "--box", "3"],
}
WORKLOADS = tuple(SETUP_ARGV)
