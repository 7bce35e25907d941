"""CLI subcommands, exit codes, serialization round trips, determinism."""

import contextlib
import json
import os
import random
import signal
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsek import assembly, coarse, jsonio, simplex
from coarsek.abelian import FgAbGroup, IntMatrix, decimal_str, smith_normal_form
from coarsek.assembly import truncation_sweep
from coarsek.cli import main
from coarsek.coarse import zinf_mv_input
from coarsek.pages import CountableRank, first_page

from _oracles import random_group, random_hom_presented
from test_simplex import MUTANTS

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_MV = GOLDEN / "inputs" / "readme_mv.json"
_DIGIT_LIMIT = sys.get_int_max_str_digits()

def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# run


def test_run_builtin_rn4(capsys):
    code, out, _ = run_cli(capsys, "run", "--builtin", "rn:4")
    assert code == 0
    assert "K_0 = Z" in out
    assert "K_1 = 0" in out
    assert "stabilized at page 1" in out
    assert "differentials assumed zero" in out


def test_run_builtin_zinf_cap(capsys):
    code, out, _ = run_cli(capsys, "run", "--builtin", "zinf:6", "--cap", "4")
    assert code == 0
    assert "K_0 = 0" in out and "K_1 = 0" in out


def test_run_builtin_wedge(capsys):
    code, out, _ = run_cli(capsys, "run", "--builtin", "wedge:5")
    assert code == 0
    assert "K_1 = Z^4" in out
    code, out, _ = run_cli(capsys, "run", "--builtin", "wedge:countable:5")
    assert code == 0
    assert "truncated at cap 5" in out


def test_run_ambiguous_extension_exit_code(capsys, tmp_path):
    payload = {
        "kind": "page",
        "period": 2,
        "cap": 1,
        "cells": [
            {"p": 0, "q": 0, "group": {"free_rank": 0, "torsion": [2]}},
            {"p": 1, "q": 1, "group": {"free_rank": 0, "torsion": [2]}},
        ],
        "d1": [],
    }
    path = tmp_path / "ambiguous.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "run", "--input", str(path))
    assert code == 2
    assert "ambiguous extension" in out
    assert "Z/2" in out


def test_run_malformed_json_reports_location(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"kind": "page", "cap": ')
    code, _, err = run_cli(capsys, "run", "--input", str(path))
    assert code == 1
    assert "line" in err and "column" in err


def test_run_unknown_builtin(capsys):
    code, _, err = run_cli(capsys, "run", "--builtin", "nonsense:3")
    assert code == 1
    assert "unknown builtin" in err


def test_run_ideal_chain_input(capsys, tmp_path):
    payload = {
        "kind": "ideal_chain",
        "length": 1,
        "default_zero": True,
        "groups": [{"p": 0, "s": 0, "group": {"free_rank": 1, "torsion": []}}],
    }
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "run", "--input", str(path))
    assert code == 0
    assert "K_0 = Z" in out


@pytest.mark.parametrize("with_d1", [False, True], ids=["no-d1", "d1"])
@pytest.mark.parametrize("period", [2, 8])
def test_ideal_chain_runs_as_the_page_it_names(capsys, tmp_path, period, with_d1):
    # group (p, s) of an ideal chain is cell (p, (s - p) mod period) of a page;
    # with the same d1 both files print the same bytes after the input echo
    rng = random.Random(f"ideal-chain:{period}:{with_d1}")
    for _ in range(10):
        length = rng.randint(0, 4)
        groups = {}
        for p in range(length + 1):
            for s in rng.sample(range(period), rng.randint(0, period)):
                groups[(p, s)] = random_group(rng)
        cells = {(p, (s - p) % period): g for (p, s), g in groups.items() if not g.is_zero}
        d1 = []
        for (p, q), g in sorted(cells.items()):
            if with_d1 and p % 2 and (p - 1, q) in cells:  # odd p only, so that no two maps compose
                matrix = random_hom_presented(rng, g.generator_orders(), cells[(p - 1, q)].generator_orders())
                d1.append({"from": [p, q], "matrix": matrix.to_rows()})
        as_json = lambda key, g: {"p": key[0], key[1]: key[2], "group": jsonio.group_to_json(g)}  # noqa: E731
        files = {
            "ideal_chain": {
                "length": length, "default_zero": True,
                "groups": [as_json((p, "s", s), g) for (p, s), g in sorted(groups.items())],
            },
            "page": {"cap": length, "cells": [as_json((p, "q", q), g) for (p, q), g in sorted(cells.items())]},
        }
        outputs = []
        for kind, payload in files.items():
            path = tmp_path / f"{kind}.json"
            text = json.dumps({"kind": kind, "period": period, **payload, "d1": d1})
            path.write_text(text)
            runs = [run_cli(capsys, *flags, "run", "--input", str(path)) for flags in ([], ["--verbose"], ["--format", "json"])]
            echo = f"input:\n{text}\n"
            assert runs[1][1].startswith(echo)
            outputs.append([(code, out.removeprefix(echo), err) for code, out, err in runs])
        assert outputs[0] == outputs[1]
        assert outputs[0][0][0] in (0, 2) and not outputs[0][0][2]


def test_run_mv_input_file_with_torsion_and_d1(capsys, tmp_path):
    payload = {
        "kind": "mv",
        "labels": [0, 1],
        "cap": 1,
        "intersections": [
            {"J": [0], "k": {"0": {"free_rank": 0, "torsion": [4]}}},
            {"J": [1], "k": {"0": {"free_rank": 1, "torsion": []}}},
            {"J": [0, 1], "k": {"0": {"free_rank": 1, "torsion": []}}},
        ],
        "d1": [{"from": [1, 0], "matrix": [[2], [3]]}],
    }
    path = tmp_path / "mv.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "run", "--input", str(path))
    assert code == 0
    # cokernel of (2, 3) into Z/4 + Z is cyclic of order 12; kernel vanishes
    assert "K_0 = Z/12" in out
    assert "K_1 = 0" in out
    assert "assumed zero" not in out


def test_run_mv_input_with_large_coprime_torsion(capsys, tmp_path):
    # merging the two pieces is one Smith form of diag(2^8000, 3^5000), which
    # once ran for minutes; the product has more digits than the default limit
    payload = {
        "kind": "mv",
        "labels": [0, 1],
        "cap": 1,
        "intersections": [
            {"J": [0], "k": {"0": {"free_rank": 0, "torsion": [2**8000]}}},
            {"J": [1], "k": {"0": {"free_rank": 0, "torsion": [3**5000]}}},
            {"J": [0, 1], "k": {}},
        ],
    }
    code, out, _ = _run_payload(capsys, tmp_path, payload)
    assert code == 0
    assert f"K_0 = Z/{decimal_str(2**8000 * 3**5000)}\n" in out


def test_run_countable_sentinel_reported(capsys, tmp_path):
    payload = {
        "kind": "mv",
        "labels": ["a"],
        "cap": 0,
        "intersections": [
            {"J": ["a"], "k": {"1": {"free_rank": "countable", "torsion": []}}}
        ],
    }
    path = tmp_path / "countable.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "run", "--input", str(path))
    assert code == 0
    assert "K_1 = Z^inf" in out


def test_run_countable_rank_beside_torsion(capsys, tmp_path):
    # a free piece on top splits off, so Z/2 under Z^inf is exact; Z/2 on
    # top of Z^inf is an extension the engine does not guess
    z2 = {"free_rank": 0, "torsion": [2]}
    inf = {"free_rank": "countable", "torsion": []}
    for bottom, top, code_expected, line in [
        (z2, inf, 0, "K_0 = Z^inf + Z/2"),
        (inf, z2, 2, "K_0 = ambiguous extension; pieces: p=0: Z^inf, p=1: Z/2"),
    ]:
        payload = {
            "kind": "ideal_chain",
            "length": 1,
            "default_zero": True,
            "groups": [{"p": 0, "s": 0, "group": bottom}, {"p": 1, "s": 0, "group": top}],
        }
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "run", "--input", str(path))
        assert (code, err) == (code_expected, "")
        assert line in out.splitlines()


def test_countable_cell_sums_with_finite_summands(capsys, tmp_path):
    # Z^inf + Z/2 and Z^2 + Z/3 in one cell: the countable rank absorbs the
    # free rank, and the torsion is renormalised to Z/6
    payload = {
        "kind": "mv",
        "labels": [0, 1],
        "intersections": [
            {"J": [0], "k": {"0": {"free_rank": "countable", "torsion": [2]}}},
            {"J": [1], "k": {"0": {"free_rank": 2, "torsion": [3]}}},
            {"J": [0, 1], "k": {}},
        ],
    }
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "run", "--input", str(path))
    assert (code, err) == (0, "")
    assert "K_0 = Z^inf + Z/6" in out.splitlines()
    code, out, err = run_cli(capsys, "--format", "json", "run", "--input", str(path))
    assert (code, err) == (0, "")
    degree0 = json.loads(out)["degrees"][0]
    assert degree0["assembled"] == {"free_rank": "countable", "torsion": [6]}
    assert degree0["pieces"][0]["group"] == {"free_rank": "countable", "torsion": [6]}


# ---------------------------------------------------------------------------
# wrong answers that reproduce today (ROADMAP items 1, 4 and 12); the change
# that mends one removes its marker


def _run_payload(capsys, tmp_path, payload):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    return run_cli(capsys, "run", "--input", str(path))


def _z_cells(*keys):
    return [{"p": p, "q": q, "group": {"free_rank": 1}} for p, q in keys]


@pytest.mark.xfail(strict=True, reason="d^r with r >= 2 is silently zero (ROADMAP item 1)")
def test_unsupplied_d2_is_not_assumed_zero(capsys, tmp_path):
    # a d2 (2,0) -> (0,1) of x3 is as consistent with this page as zero;
    # today it prints K_0 = Z + Z/2, K_1 = Z with exit 0
    payload = {
        "kind": "page",
        "cap": 2,
        "cells": _z_cells((2, 0), (0, 1), (1, 0), (0, 0)),
        "d1": [{"from": [1, 0], "matrix": [[2]]}],
    }
    assert _run_payload(capsys, tmp_path, payload)[0] == 2


@pytest.mark.xfail(strict=True, reason="the true d2 of complex C cannot be expressed (ROADMAP items 1, 12)")
def test_d2_past_a_torsion_target_is_not_assumed_zero(capsys, tmp_path):
    # complex C's E^1: its true d2 is an isomorphism and H(C) = 0; today it
    # prints K_0 = Z, K_1 = Z with exit 0
    payload = {
        "kind": "page",
        "cap": 2,
        "cells": [*_z_cells((2, 0), (0, 1)), {"p": 1, "q": 0, "group": {"free_rank": 0, "torsion": [2]}}],
        "d1": [{"from": [2, 0], "matrix": [[1]]}],
    }
    assert _run_payload(capsys, tmp_path, payload)[0] == 2


@pytest.mark.xfail(strict=True, reason="Ext^1(Z/3, Z/2) = 0 forces Z/6 (ROADMAP item 4)")
def test_forced_extension_is_settled(capsys, tmp_path):
    # today: K_0 = ambiguous extension; pieces: p=0: Z/2, p=1: Z/3, exit 2
    payload = {
        "kind": "ideal_chain",
        "length": 1,
        "default_zero": True,
        "groups": [
            {"p": 0, "s": 0, "group": {"free_rank": 0, "torsion": [2]}},
            {"p": 1, "s": 0, "group": {"free_rank": 0, "torsion": [3]}},
        ],
    }
    code, out, _ = _run_payload(capsys, tmp_path, payload)
    assert code == 0
    assert "K_0 = Z/6" in out.splitlines()


def test_truncated_mv_input_prints_the_note(capsys, tmp_path):
    # the same nerve stopped at cap 0 is refused as exact and reported as
    # truncated once the file says so
    z = {"free_rank": 1, "torsion": []}
    payload = {
        "kind": "mv",
        "labels": [0, 1, 2],
        "cap": 0,
        "intersections": [{"J": [j], "k": {"0": z}} for j in range(3)],
    }
    path = tmp_path / "mv.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "run", "--input", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: nonzero group at the cap boundary p=0")
    for extra in ({"truncated_at": 0}, {"mode": "truncated", "truncated_at": 0}):
        path.write_text(json.dumps({**payload, **extra}))
        code, out, _ = run_cli(capsys, "run", "--input", str(path))
        assert code == 0
        assert "note: truncated at cap 0" in out.splitlines()
        assert "K_0 = Z^3" in out.splitlines()


def test_mv_data_above_the_cap_counts_once_the_cap_covers_it(capsys, tmp_path):
    # an exact file with K-data past its cap is refused (the row
    # mv-nonzero-above-cap); marked truncated it runs at the cap as before,
    # and with the cap dropped the set reaches the answer
    z = {"free_rank": 1}
    payload = {
        "kind": "mv",
        "labels": [0, 1, 2],
        "intersections": [{"J": [x], "k": {"0": z}} for x in range(3)]
        + [{"J": list(j), "k": {}} for j in ([0, 1], [0, 2], [1, 2])]
        + [{"J": [0, 1, 2], "k": {"1": z}}],
    }
    path = tmp_path / "mv.json"
    for extra, lines in (
        ({"cap": 1, "truncated_at": 1}, ["note: truncated at cap 1", "K_0 = Z^3", "K_1 = 0"]),
        ({}, ["K_0 = Z^3", "K_1 = Z"]),
    ):
        path.write_text(json.dumps({**payload, **extra}))
        code, out, _ = run_cli(capsys, "run", "--input", str(path))
        assert code == 0 and out.splitlines()[-len(lines):] == lines


def test_run_json_format_reparses(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "run", "--builtin", "rn:3")
    assert code == 0
    payload = json.loads(out)
    assert payload["stabilized_at"] == 1
    deg1 = payload["degrees"][1]
    assert jsonio.group_from_json(deg1["assembled"]) == FgAbGroup.free(1)


def test_run_builtin_rejects_ko_period(capsys):
    code, _, err = run_cli(capsys, "--period", "8", "run", "--builtin", "rn:2")
    assert code == 1
    assert "period 2" in err


def test_run_ko_mode_page_input(capsys, tmp_path):
    # KO grading: the q column has eight slots; a lone cell at q = 5 shows
    # up in degree s = p + q = 5 mod 8 only
    payload = {
        "kind": "page",
        "period": 8,
        "cap": 0,
        "cells": [{"p": 0, "q": 5, "group": {"free_rank": 1, "torsion": []}}],
    }
    path = tmp_path / "ko.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "--period", "8", "run", "--input", str(path))
    assert code == 0
    assert "K_5 = Z" in out
    for s in range(8):
        if s != 5:
            assert f"K_{s} = 0" in out


@pytest.mark.parametrize(
    "payload",
    [
        {"kind": "page", "cap": 0, "cells": [{"p": 0, "q": 0, "group": {"free_rank": 1}}]},
        {"kind": "mv", "labels": [0], "intersections": [{"J": [0], "k": {"0": {"free_rank": 1}}}]},
    ],
    ids=["page", "mv"],
)
@pytest.mark.parametrize(
    "file_period, flag, shown",
    [(2, "8", 2), (8, "2", 8), (None, "8", 8), (None, "2", 2)],
    ids=["file-2-over-flag-8", "file-8-over-flag-2", "flag-8-fills-in", "flag-2-fills-in"],
)
def test_file_period_wins_over_the_flag(capsys, tmp_path, payload, file_period, flag, shown):
    # --period is only the default for a file that names no period of its own
    if file_period is not None:
        payload = {**payload, "period": file_period}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "--period", flag, "run", "--input", str(path))
    assert code == 0
    assert out.splitlines()[0].startswith(f"spectral run: period={shown} ")


def test_summand_order_recorded_in_output(capsys):
    # only nonzero summands are recorded, and only for nonzero cells, and
    # only nonzero pieces are listed: for the blocks of Z^2 every
    # intersection but the triple one is flasque
    code, out, _ = run_cli(capsys, "--format", "json", "run", "--builtin", "rn:2")
    assert code == 0
    zero = {"free_rank": 0, "torsion": []}
    z = {"free_rank": 1, "torsion": []}
    assert json.loads(out) == {
        "cap": 2,
        "d1_assumed_zero": True,
        "degrees": [
            {
                "ambiguous": False,
                "assembled": z,
                "degree": 0,
                "pieces": [{"group": z, "p": 2}],
            },
            {"ambiguous": False, "assembled": zero, "degree": 1, "pieces": []},
        ],
        "period": 2,
        "stabilized_at": 1,
        "summand_order": [{"J": [[0, 1, 2]], "p": 2, "q": 0}],
        "truncated_at": None,
    }
    code, out, _ = run_cli(capsys, "--verbose", "run", "--builtin", "rn:2")
    assert code == 0
    assert out.splitlines() == [
        "spectral run: period=2 cap=2 stabilized at page 1",
        "note: differentials assumed zero (none supplied)",
        "K_0 = Z    [pieces: p=2: Z]",
        "K_1 = 0    [pieces: none]",
        "summand order (for d1 matrices):",
        "  cell (2,0): {0,1,2}",
    ]


@contextlib.contextmanager
def _deadline(seconds):
    """A TimeoutError after ``seconds``, so that a report whose cost follows
    its cap fails instead of hanging."""

    def expire(signum, frame):
        raise TimeoutError(f"not done after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("fmt", ("table", "json"))
def test_huge_cap_page_costs_its_nonzero_cells(capsys, fmt):
    # two cells at p = 0 and p = 10**12: listing every p would never end
    with _deadline(5):
        code, out, _ = run_cli(capsys, "--format", fmt, "run", "--input", str(GOLDEN / "inputs" / "page_huge_cap.json"))
    assert code == 2
    assert out == (GOLDEN / f"page-huge-cap.{fmt}").read_text(encoding="utf-8")


def test_huge_ideal_chain_costs_its_declared_groups(capsys, tmp_path):
    n = 10**12
    groups = [
        {"p": 0, "s": 0, "group": {"free_rank": 1}},
        {"p": n, "s": 1, "group": {"free_rank": 0, "torsion": [3]}},
    ]
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"kind": "ideal_chain", "length": n, "default_zero": True, "groups": groups}))
    with _deadline(5):
        code, out, _ = run_cli(capsys, "--format", "json", "run", "--input", str(path))
    assert code == 0
    degrees = json.loads(out)["degrees"]
    assert [[(x["p"], x["group"]) for x in d["pieces"]] for d in degrees] == [
        [(0, {"free_rank": 1, "torsion": []})],
        [(n, {"free_rank": 0, "torsion": [3]})],
    ]


def test_report_json_fully_reparses(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "run", "--builtin", "wedge:4")
    assert code == 0
    payload = json.loads(out)
    for line in payload["degrees"]:
        if line["assembled"] is not None:
            jsonio.group_from_json(line["assembled"])
        for piece in line["pieces"]:
            jsonio.group_from_json(piece["group"])


# ---------------------------------------------------------------------------
# snf


def test_snf_table(capsys):
    code, out, _ = run_cli(capsys, "snf", "--matrix", "[[2,4],[6,8]]")
    assert code == 0
    assert "D = diag(2, 4)" in out
    assert "certificate" in out and "True" in out


def test_snf_json_and_verbose_echo(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "--verbose", "snf", "--matrix", "[[0]]"
    )
    assert code == 0
    assert "input:\n[[0]]" in out
    payload = json.loads(out.split("\n", 2)[2])
    assert payload["D"]["entries"] == [0]
    assert payload["certificate_ok"] is True


def test_snf_bad_matrix(capsys):
    code, _, err = run_cli(capsys, "snf", "--matrix", "[[2,")
    assert code == 1
    assert "malformed" in err


# ---------------------------------------------------------------------------
# excision


def test_excision_builtin_pass(capsys):
    code, out, _ = run_cli(
        capsys, "excision", "--builtin", "rn:2", "--metric", "dinf",
        "--radius", "3", "--box", "12",
    )
    assert code == 0
    assert "overall: PASS" in out


def test_excision_disjoint_rays_fail(capsys):
    code, out, _ = run_cli(
        capsys, "excision", "--custom", "disjoint-rays", "--radius", "6", "--s", "4"
    )
    assert code == 0
    assert "FAIL" in out and "witness" in out


def test_excision_json(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "excision", "--builtin", "rn:1",
        "--metric", "d1", "--radius", "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["all_ok"] is True


@pytest.mark.parametrize("radius, box", [("1/8", 1), ("1/5", 1), ("1/4", 1), ("3/8", 1), ("1", 4), ("5/4", 5)])
def test_excision_default_box_exceeds_s_plus_r(capsys, radius, box):
    # dinf takes S = R; the default box is 2(S + R), or floor(S + R) + 1
    # where 2(S + R) rounds down to S + R or below
    code, out, err = run_cli(capsys, "--verbose", "excision", "--builtin", "rn:1", "--metric", "dinf", "--radius", radius)
    assert (code, err) == (0, "")
    assert f'"box": {box},' in out
    assert "overall: PASS" in out


def test_excision_dinf_decides_a_grid_too_large_to_allocate(capsys):
    # each subset is decided inside its window, so a 10**15 box costs what a
    # small one does
    box = 10**15
    code, out, err = run_cli(
        capsys, "--format", "json", "excision", "--builtin", "rn:2", "--radius", "1", "--box", str(box)
    )
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["all_ok"] is True and len(payload["subsets"]) == 7
    for subset in payload["subsets"]:
        assert subset["ok"] is True and subset["witness"] is None
        assert type(subset["points_checked"]) is int and subset["points_checked"] == (2 * (box - 1) + 1) ** 2


def test_excision_dinf_verdicts_hold_on_a_wide_box(capsys):
    # widening the box moves no verdict of the failing rn:6 golden
    golden = json.loads((GOLDEN / "excision-rn6-dinf-fail.json").read_text(encoding="utf-8"))
    code, out, _ = run_cli(
        capsys, "--format", "json", "excision", "--builtin", "rn:6", "--metric", "dinf",
        "--radius", "3", "--s", "2", "--box", str(10**6),
    )
    assert code == 0
    wide = json.loads(out)
    assert [(s["J"], s["ok"]) for s in wide["subsets"]] == [(s["J"], s["ok"]) for s in golden["subsets"]]
    assert not wide["all_ok"]


SETTLED = ["--builtin", "rn:6", "--metric", "d1", "--radius", "3", "--box", "22"]
TIGHT = ["--builtin", "rn:6", "--metric", "d1", "--radius", "3", "--s", "17", "--box", "21"]


@pytest.mark.parametrize(
    "argv, verdict",
    [
        (SETTLED, "PASS"),
        (
            ["--metric", "weighted", "--builtin", "rn:3", "--weights", "1,3/2,2", "--radius", "7/2", "--s", "21", "--box", "66"],
            "PASS",
        ),
        (TIGHT, "FAIL"),
    ],
    ids=["rn6-d1", "rn3-weighted", "rn6-d1-tight"],
)
def test_excision_sums_peak_allocation(capsys, argv, verdict):
    # the farthest-point bound settles every subset of the first two rows
    # (a traced peak of about 0.05 MB and 0.01 MB); at S = 17 it leaves
    # subsets of rn:6 to the search, which holds one path of integers per
    # subset (about 0.09 MB) where a grid over the window would take
    # megabytes.  The parser is built before tracing.
    import tracemalloc

    assert run_cli(capsys, "excision", *argv)[0] == 0
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, "excision", *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and out.endswith(f"overall: {verdict}\n")
    assert peak < 0.5 * 10**6, peak


@pytest.mark.parametrize("argv", [SETTLED, TIGHT], ids=["settled", "tight"])
def test_excision_imports_numpy_only_for_a_grid(argv):
    # no excision builds a grid any more: whether the farthest-point bound
    # settles every subset (the default S = n R) or leaves some open for the
    # search (S = 17), numpy is never imported
    script = (
        "import contextlib, io, sys\n"
        "from coarsek.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(sys.argv[1:])\n"
        "print('numpy' in sys.modules)\n"
    )
    path = os.pathsep.join(filter(None, [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script, "excision", *argv],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True,
    )
    assert done.stdout == "False\n"


def _modules_run_by(argv):
    """Exit code of ``main(argv)`` in a fresh interpreter, and the coarsek
    modules it ran, with "fractions" when that was imported.  ``type`` does
    not run a lazily registered module, and tells a run one by its class."""
    script = (
        "import contextlib, io, json, sys, types\n"
        "from coarsek.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "ran = [n for n, m in sys.modules.items() if n.startswith('coarsek') and type(m) is types.ModuleType]\n"
        "print(json.dumps([code, sorted(ran + ['fractions'] * ('fractions' in sys.modules))]))\n"
    )
    path = os.pathsep.join(filter(None, [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True,
    )
    code, ran = json.loads(done.stdout)
    return code, set(ran)


def test_snf_runs_only_cli_abelian_and_jsonio():
    code, ran = _modules_run_by(["snf", "--matrix", "[[2,4],[6,8]]"])
    assert code == 0
    assert ran == {"coarsek", "coarsek.abelian", "coarsek.jsonio", "coarsek.cli"}


@pytest.mark.parametrize(
    "argv, skipped",
    [
        (["excision", "--builtin", "rn:1", "--radius", "1"], {"coarsek.assembly", "coarsek.pages"}),
        (["run", "--input", str(GOLDEN / "inputs" / "readme_page.json")], {"coarsek.coarse", "coarsek.simplex"}),
        (["simplex", "verify", "--dim", "2"], {"coarsek.pages"}),
    ],
    ids=["excision", "run-page", "simplex"],
)
def test_subcommands_skip_the_modules_they_do_not_read(argv, skipped):
    code, ran = _modules_run_by(argv)
    assert code == 0
    assert ran.isdisjoint(skipped), ran & skipped


def test_excision_goldens_run_without_numpy():
    # every subset is decided by a search on Python integers, so with numpy
    # unimportable each excision golden still prints its pinned bytes
    from test_golden import CASES

    cases = {name: argv for name, argv in CASES.items() if name.startswith("excision-")}
    script = (
        "import contextlib, io, json, sys\n"
        "sys.modules['numpy'] = None\n"
        "from coarsek.cli import main\n"
        "outs = {}\n"
        "for name, argv in json.loads(sys.argv[1]).items():\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "        assert main(argv) == 0, name\n"
        "    outs[name] = out.getvalue()\n"
        "print(json.dumps(outs))\n"
    )
    path = os.pathsep.join(filter(None, [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps(cases)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True,
    )
    assert {"excision-rn3-d1", "excision-rn5-d1-fail", "excision-rn6-dinf-fail", "excision-rn3-weighted",
            "excision-rn6-d1-tight"} <= set(cases)
    assert json.loads(done.stdout) == {name: (GOLDEN / f"{name}.table").read_text(encoding="utf-8") for name in cases}


def test_excision_window_bound_decides_a_grid_too_large_to_allocate(capsys):
    # at the default S = R every subset of rn:1 is settled by its window's
    # farthest point, and points_checked still counts every grid point
    code, out, err = run_cli(
        capsys, "--format", "json", "excision", "--builtin", "rn:1", "--metric", "d1",
        "--radius", "1", "--box", str(10**15),
    )
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["all_ok"] is True
    assert {s["points_checked"] for s in payload["subsets"]} == {1999999999999999}


@pytest.mark.parametrize(
    "cover, witnesses",
    [
        (None, {(0,): [1], (0, 1): [-1], (1,): [-1]}),
        ([{"factors": ["zero"]}], {(0,): [-1]}),
    ],
    ids=["rn1", "point"],
)
def test_excision_huge_box_answers_as_a_small_one(capsys, tmp_path, cover, witnesses):
    # at S = 1/2 the farthest-point bound settles no subset, and the search
    # walks each window, which holds a few points at any box; only
    # points_checked grows with the box
    if cover is None:
        source = ["--builtin", "rn:1"]
    else:
        (tmp_path / "cover.json").write_text(json.dumps(cover))
        source = ["--cover", str(tmp_path / "cover.json")]
    for box in (10, 10**15):
        code, out, err = run_cli(
            capsys, "--format", "json", "excision", *source, "--metric", "d1", "--radius", "1", "--s", "1/2",
            "--box", str(box),
        )
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["all_ok"] is False
        assert {tuple(s["J"]): s["witness"] for s in payload["subsets"]} == witnesses
        assert {s["points_checked"] for s in payload["subsets"]} == {2 * box - 1}


def test_excision_cover_file(capsys, tmp_path):
    cover = [{"factors": ["nonpos"]}, {"factors": ["nonneg"]}]
    path = tmp_path / "cover.json"
    path.write_text(json.dumps(cover))
    code, out, _ = run_cli(
        capsys, "excision", "--cover", str(path), "--metric", "dinf",
        "--radius", "2", "--box", "8",
    )
    assert code == 0
    assert "overall: PASS" in out


# ---------------------------------------------------------------------------
# simplex


def test_simplex_verify(capsys):
    for dim in (*range(1, 11), 50, 200):
        code, out, _ = run_cli(capsys, "simplex", "verify", "--dim", str(dim))
        assert code == 0
        assert out.count(": pass\n") == 6 and "FAIL" not in out


@pytest.mark.parametrize("mutant", MUTANTS)
def test_simplex_verify_fails_exactly_what_a_mutant_breaks(capsys, monkeypatch, mutant):
    # a map off by 10^-15 (below float resolution) or by a lot: the exact
    # vertex checks must fail the properties it breaks, and only those
    attr, make, broken = MUTANTS[mutant]
    monkeypatch.setattr(simplex, attr, make)
    for dim in ("1", "3", "10"):
        code, out, _ = run_cli(capsys, "simplex", "verify", "--dim", dim)
        assert code == 1
        assert {line.split(":")[0] for line in out.splitlines() if line.endswith(": FAIL")} == broken
        assert out.count(": pass\n") == 6 - len(broken)


def test_metric_schema_round_trip():
    from coarsek.coarse import Metric

    # the excision command reads --weights as exact fractions
    m = Metric("weighted", ("1/2", 3))
    assert m.weights == (Fraction(1, 2), Fraction(3))
    assert Metric("d1").kind == "d1"


# ---------------------------------------------------------------------------
# sweep


def test_sweep_wedge(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--builtin", "wedge:countable", "--caps", "1..5"
    )
    assert code == 0
    assert "cap 5: K_0 = 0, K_1 = Z^4" in out
    assert "K_0: stable from cap 1" in out
    assert "K_1: not stable in sweep" in out


def test_sweep_zinf(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--builtin", "zinf:5", "--caps", "1,2,3"
    )
    assert code == 0
    assert "K_0: stable from cap 1" in out


@pytest.mark.parametrize(
    ("builtin", "caps"),
    [("zinf:3", "1,1,2"), ("wedge:countable", "2,1,2")],
    ids=["zinf", "wedge-countable"],
)
def test_sweep_runs_a_repeated_cap_once(capsys, builtin, caps):
    code, out, _ = run_cli(capsys, "sweep", "--builtin", builtin, "--caps", caps)
    assert code == 0
    assert out.count("cap 2:") == 1
    assert out == run_cli(capsys, "sweep", "--builtin", builtin, "--caps", "1,2")[1]


@pytest.mark.parametrize("m", range(1, 9))
def test_zinf_sweep_matches_a_fresh_input_at_every_cap(capsys, m):
    # the sweep builds one input at its top cap and copies it down; building
    # each cap's input from scratch must give the same report
    for caps in ([m], [1], [m, 1], [1, 1, m], list(range(m, 0, -1)), [(m + 1) // 2, m, (m + 1) // 2]):
        fresh = truncation_sweep(lambda c: zinf_mv_input(m, c), caps)
        spec = ",".join(map(str, caps))
        code, out, _ = run_cli(capsys, "--format", "json", "sweep", "--builtin", f"zinf:{m}", "--caps", spec)
        assert code == 0
        assert out == jsonio.dumps(jsonio.sweep_to_json(fresh)) + "\n", caps
        code, out, _ = run_cli(capsys, "--verbose", "sweep", "--builtin", f"zinf:{m}", "--caps", spec)
        assert out == jsonio.sweep_to_table(fresh, verbose=True) + "\n", caps


@pytest.mark.parametrize("m", (4, 10))
def test_zinf_sweep_walks_its_cover_once(capsys, monkeypatch, m):
    builds = []
    real_build = coarse._blocky_mv_input
    monkeypatch.setattr(coarse, "_blocky_mv_input", lambda *a: builds.append(a) or real_build(*a))
    assert run_cli(capsys, "sweep", "--builtin", f"zinf:{m}", "--caps", f"1..{m}")[0] == 0
    assert len(builds) == 1


def test_refused_caps_range_is_never_listed(capsys):
    # the caps 1..3000000 as a list took 141 MB traced before the refusal;
    # a range is read at its ends and up to the first cap above m
    tracemalloc.start()
    try:
        start = time.perf_counter()
        result = run_cli(capsys, "sweep", "--builtin", "zinf:3", "--caps", "1..3000000")
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == (1, "", "error: bad builtin parameter in 'zinf:3': cap 4 lies above m = 3\n")
    assert peak < 2**20 and elapsed < 1


# ---------------------------------------------------------------------------
# serialization round trips


def test_group_round_trip():
    for g in [FgAbGroup(2, (2, 4)), FgAbGroup.zero(), CountableRank(), CountableRank((2, 4))]:
        assert jsonio.group_from_json(jsonio.group_to_json(g)) == g


def test_matrix_round_trip():
    m = IntMatrix.from_rows([[1, -2], [3, 4]])
    assert jsonio.matrix_from_json(jsonio.matrix_to_json(m)) == m
    assert jsonio.matrix_from_json([[1, -2], [3, 4]]) == m


def test_page_round_trip():
    # a one-summand cell keeps its group's own generators, so the d1 read
    # from a page file is the d1 given, also next to torsion
    for target, column in [(FgAbGroup.free(1), [2]), (FgAbGroup(3, (4,)), [1, 2, 3, 2])]:
        d1 = IntMatrix.from_columns([column], len(column))
        groups = {(1, 0): [FgAbGroup.free(1)], (0, 0): [target]}
        page = first_page(1, 2, groups, d1={(1, 0): d1})
        obj = {
            "period": 2,
            "cap": 1,
            "cells": [
                {"p": p, "q": 0, "group": jsonio.group_to_json(g)} for (p, _), [g] in groups.items()
            ],
            "d1": [{"from": [1, 0], "matrix": jsonio.matrix_to_json(d1)}],
        }
        back = jsonio.page_from_json(obj)
        assert back.cap == page.cap
        assert back.cell_group(1, 0) == page.cell_group(1, 0)
        assert back.cell_group(0, 0) == page.cell_group(0, 0) == target
        assert back.diffs[(1, 0)].matrix == page.diffs[(1, 0)].matrix == d1


_JSON_SCALARS = (
    st.text(alphabet=st.characters(max_codepoint=0x1F600))  # non-ASCII, quotes and control characters
    | st.integers(min_value=-(2**700), max_value=2**700)
    | st.booleans()
    | st.none()
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_JSON_VALUES)
def test_dumps_matches_the_standard_encoder(value):
    assert jsonio.dumps(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [0.5, Fraction(1, 2), {1, 2}, [[1, 0.5]]])
def test_dumps_refuses_what_it_cannot_write(value):
    with pytest.raises(TypeError):
        jsonio.dumps(value)


def test_ints_past_the_digit_limit_print_in_full(capsys):
    # D = diag(1, 2**1100 * 3**700) has 666 digits, past a limit of 640; the
    # entries of the input are below it, so only the output needs the digits
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no integer string digit limit in this interpreter")
    product = 2**1100 * 3**700
    matrix = json.dumps([[2**1100, 0], [0, 3**700]])
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        table = run_cli(capsys, "snf", "--matrix", matrix)
        as_json = run_cli(capsys, "--format", "json", "snf", "--matrix", matrix)
        group = str(FgAbGroup(0, (product,)))
        assert sys.get_int_max_str_digits() == 640
        sys.set_int_max_str_digits(0)  # no limit, so the expected text comes from repr and json
        result = smith_normal_form(IntMatrix.from_rows(json.loads(matrix)))
        payload = {name: jsonio.matrix_to_json(getattr(result, name)) for name in "DUV"}
        expected_json = json.dumps({**payload, "certificate_ok": True}, sort_keys=True, indent=2)
        expected_rows = f"U = {result.U.to_rows()}\nV = {result.V.to_rows()}\n"
    finally:
        sys.set_int_max_str_digits(saved)
    assert result.diagonal == (1, product)
    assert group == f"Z/{result.diagonal[1]!r}"
    assert table[0] == 0, table[2]
    assert table[1] == (
        f"D = diag{result.diagonal!r}\n{expected_rows}"
        "certificate: U*A*V == D and |det U| == |det V| == 1: True\n"
    )
    assert as_json[0] == 0, as_json[2]
    assert as_json[1] == expected_json + "\n"


def test_schema_errors():
    with pytest.raises(jsonio.SchemaError):
        jsonio.group_from_json({"torsion": [2]})
    with pytest.raises(jsonio.SchemaError):
        jsonio.matrix_from_json({"rows": 1})
    with pytest.raises(jsonio.SchemaError):
        jsonio.group_from_json({"free_rank": 0, "torsion": [3, 4]})


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"kind": "mv"}, "labels: missing"),
        ({"kind": "page", "cells": []}, "cap: missing"),
        ([], "input: expected an object, got list"),
        ({"kind": "page", "cap": 0, "cells": [{"p": 0, "q": 0}]}, "cells[0].group: missing"),
        (
            {"kind": "page", "cap": 0, "cells": [{"p": 0, "q": 0, "group": {"free_rank": True}}]},
            "cells[0].group.free_rank: expected a nonnegative integer or 'countable', got True",
        ),
        ({"kind": "page", "cap": None}, "cap: expected an integer, got NoneType"),
        ({"kind": "page", "cap": 0, "period": None}, "period: expected an integer, got NoneType"),
        (
            {"kind": "mv", "labels": [0], "intersections": [{"J": [0], "k": []}]},
            "intersections[0].k: expected an object, got list",
        ),
        ({"kind": "mv", "labels": 5}, "labels: expected a list, got int"),
        (
            {"kind": "mv", "labels": [0], "intersections": [{"J": 5, "k": {}}]},
            "intersections[0].J: expected a list, got int",
        ),
        (
            {"kind": "page", "cap": 0, "cells": [{"p": 0, "q": 0, "group": {"free_rank": 0, "torsion": 5}}]},
            "cells[0].group.torsion: expected a list, got int",
        ),
        (
            {"kind": "page", "cap": 1, "d1": [{"from": 5, "matrix": [[1]]}]},
            "d1[0].from: expected a list, got int",
        ),
        (
            {
                "kind": "mv",
                "labels": [0, 1],
                "intersections": [
                    {"J": [0], "k": {"0": {"free_rank": "countable"}}},
                    {"J": [1], "k": {}},
                    {"J": [0, 1], "k": {"0": {"free_rank": 1}}},
                ],
                "d1": [{"from": [1, 0], "matrix": [[1]]}],
            },
            "d1 at (1, 0) touches a countable-rank cell",
        ),
        ({"kind": "mv", "labels": [0, "a"]}, "labels: expected all integers or all strings, got [0, 'a']"),
        (
            {"kind": "mv", "labels": [0], "intersections": [{"J": [0], "k": {"zero": {"free_rank": 1}}}]},
            "intersections[0].k: expected integer degree keys, got 'zero'",
        ),
        ({"kind": "mv", "labels": [0], "truncated_at": [1]}, "truncated_at: expected an integer, got list"),
        (
            {
                "kind": "page",
                "cap": 1,
                "cells": [{"p": p, "q": 0, "group": {"free_rank": 1}} for p in (0, 1)],
                "d1": [{"from": [1, 0], "matrix": [[2.7]]}],
            },
            "d1[0].matrix[0][0]: expected an integer, got float",
        ),
        (
            {
                "kind": "page",
                "cap": 1,
                "cells": [{"p": p, "q": 0, "group": {"free_rank": 1}} for p in (0, 1)],
                "d1": [{"from": [1, 0], "matrix": [[True]]}],
            },
            "d1[0].matrix[0][0]: expected an integer, got bool",
        ),
        (
            {"kind": "page", "cap": 0, "cells": [{"p": 0, "q": 0, "group": {"free_rank": 0, "torsion": [2, False]}}]},
            "cells[0].group.torsion[1]: expected an integer, got bool",
        ),
        (
            {"kind": "ideal_chain", "length": 1, "groups": [{"p": 2, "s": 0, "group": {"free_rank": 1}}]},
            "groups[0].p: 2 lies outside 0..1",
        ),
        (
            {
                "kind": "ideal_chain",
                "length": 1,
                "groups": [{"p": 0, "s": s, "group": {"free_rank": 1}} for s in (1, 3)],
            },
            "groups[1]: (0, 1) listed twice",
        ),
        (
            {
                "kind": "mv",
                "labels": [0, 1],
                "intersections": [{"J": j, "k": {}} for j in ([0, 1], [1, 0])],
            },
            "intersections[1].J: (0, 1) listed twice",
        ),
        (
            {
                "kind": "mv",
                "labels": [0],
                "intersections": [{"J": [0], "k": {"1": {"free_rank": 1}, "3": {"free_rank": 2}}}],
            },
            "intersections[0].k.3: 1 listed twice",
        ),
        (
            {"kind": "page", "cap": 0, "cells": [{"p": 0, "q": q, "group": {"free_rank": 1}} for q in (0, -2)]},
            "cells[1]: (0, 0) listed twice",
        ),
        (
            {
                "kind": "page",
                "cap": 1,
                "cells": [{"p": p, "q": 0, "group": {"free_rank": 1}} for p in (0, 1)],
                "d1": [{"from": [1, q], "matrix": [[1]]} for q in (0, 2)],
            },
            "d1[1].from: (1, 0) listed twice",
        ),
        ({"kind": "ideal_chain", "length": 0, "default_zero": "no"}, "default_zero: expected a boolean, got str"),
        ({"kind": "mv", "labels": [0, 0]}, "labels: [0, 0] lists a label twice"),
        (
            {"kind": "mv", "labels": ["a", "b"], "intersections": [{"J": ["a", "a"], "k": {}}]},
            "intersections[0].J: ['a', 'a'] lists a label twice",
        ),
        (
            {"kind": "mv", "labels": [0, 1, 2], "cap": 0, "mode": "truncated"},
            "mode: expected 'truncated' with truncated_at or 'exact' without, got 'truncated'",
        ),
        (
            {"kind": "mv", "labels": [0], "mode": "exact", "truncated_at": 7},
            "mode: expected 'truncated' with truncated_at or 'exact' without, got 'exact'",
        ),
        (
            {"kind": "mv", "labels": [0], "mode": "partial"},
            "mode: expected 'truncated' with truncated_at or 'exact' without, got 'partial'",
        ),
        ({"kind": "page", "cap": -3}, "cap: expected a nonnegative integer, got -3"),
        ({"kind": "ideal_chain", "length": -1}, "length: expected a nonnegative integer, got -1"),
        (
            {"kind": "mv", "labels": [0], "mode": "truncated", "truncated_at": -3},
            "truncated_at: expected a nonnegative integer, got -3",
        ),
        ({"kind": "page", "cap": 0, "cells": [{"p": 0, "q": 0, "group": 5}]}, "cells[0].group: expected an object, got int"),
        (
            {"kind": "page", "cap": 0, "cells": [{"p": 0, "q": 0, "group": {"torsion": [2]}}]},
            "cells[0].group.free_rank: missing",
        ),
        (
            {"kind": "page", "cap": 0, "cells": [{"p": 0, "q": 0, "group": {"free_rank": "many"}}]},
            "cells[0].group.free_rank: expected a nonnegative integer or 'countable', got 'many'",
        ),
        (
            {"kind": "mv", "labels": [0], "intersections": [{"J": [0], "k": {"1": {"free_rank": -1}}}]},
            "intersections[0].k.1.free_rank: expected a nonnegative integer or 'countable', got -1",
        ),
        (
            {"kind": "page", "cap": 0, "cells": [{"p": 0, "q": 0, "group": {"free_rank": 0, "torsion": [1]}}]},
            "cells[0].group.torsion: torsion coefficients must be >= 2",
        ),
        (
            {"kind": "ideal_chain", "length": 0, "groups": [{"p": 0, "s": 0, "group": {"free_rank": 0, "torsion": [3, 4]}}]},
            "groups[0].group.torsion: torsion must form a divisibility chain",
        ),
        (
            {"kind": "page", "cap": 0, "cells": [{"p": 0, "q": 0, "group": {"free_rank": "countable", "torsion": [2, 3]}}]},
            "cells[0].group.torsion: torsion must form a divisibility chain",
        ),
        (
            {"kind": "page", "cap": 1, "d1": [{"from": [1, 0], "matrix": [[1], [1, 2]]}]},
            "d1[0].matrix: ragged rows",
        ),
        (
            {"kind": "page", "cap": 1, "d1": [{"from": [1, 0], "matrix": {"rows": 1, "cols": 1, "entries": [1, 2]}}]},
            "d1[0].matrix: expected 1 entries, got 2",
        ),
        (
            {"kind": "page", "cap": 1, "d1": [{"from": [1, 0], "matrix": {"rows": -1, "cols": 0, "entries": []}}]},
            "d1[0].matrix: negative matrix dimension",
        ),
        (
            {"kind": "page", "cap": 1, "d1": [{"from": [1, 0], "matrix": "x"}]},
            "d1[0].matrix: expected nested lists or rows/cols/entries, got 'x'",
        ),
        (
            {"kind": "page", "cap": 1, "cells": [{"p": p, "q": 0, "group": {"free_rank": 1}} for p in (0, 5)]},
            "cell (5, 0) lies outside the support 0..1",
        ),
        (
            {
                "kind": "page",
                "cap": 2,
                "cells": [{"p": p, "q": 0, "group": {"free_rank": 1}} for p in (0, 1, 2)],
                "d1": [{"from": [2, 0], "matrix": [[1]]}, {"from": [1, 0], "matrix": [[2]]}],
            },
            "d1 at (2, 0): d o d != 0 through (1, 0)",
        ),
        # only null or a missing key means no d1; a falsy non-list is no list
        ({"kind": "page", "cap": 0, "d1": False}, "d1: expected a list, got bool"),
        ({"kind": "page", "cap": 0, "d1": 0}, "d1: expected a list, got int"),
        ({"kind": "mv", "labels": [0], "d1": ""}, "d1: expected a list, got str"),
        ({"kind": "ideal_chain", "length": 0, "default_zero": True, "d1": {}}, "d1: expected a list, got dict"),
        # a table counts every entry, so each J must name a nonempty set of labels
        (
            {"kind": "mv", "labels": [0, 1], "intersections": [{"J": [0, 7], "k": {"0": {"free_rank": 1}}}]},
            "intersections[0].J: 7 is not one of the labels [0, 1]",
        ),
        (
            {"kind": "mv", "labels": [0], "intersections": [{"J": [], "k": {}}]},
            "intersections[0].J: expected at least one label, got []",
        ),
        ({"kind": "page", "cap": 1, "d1": [{"from": [1], "matrix": []}]}, "d1[0].from: expected [p, q], got [1]"),
        ({"kind": "mv", "labels": [0], "cap": 3}, "cap: expected 0..0, got 3"),
        ({"kind": "mv", "labels": [0], "cap": -1}, "cap: expected 0..0, got -1"),
        ({"kind": "mv", "labels": [], "cap": 1}, "cap: expected 0..0, got 1"),
        # the Bott period is 2 (complex K-theory) or 8 (KO) in every kind of file
        ({"kind": "page", "cap": 0, "period": 3}, "period: expected 2 or 8, got 3"),
        ({"kind": "mv", "labels": [0], "period": 3}, "period: expected 2 or 8, got 3"),
        ({"kind": "ideal_chain", "length": 0, "period": 3}, "period: expected 2 or 8, got 3"),
        ({"kind": "page", "cap": 0, "period": 0}, "period: expected 2 or 8, got 0"),
        ({"kind": "mv", "labels": [0], "period": 0}, "period: expected 2 or 8, got 0"),
        ({"kind": "ideal_chain", "length": 0, "period": 0}, "period: expected 2 or 8, got 0"),
        # a misspelled key would read as absent, so every object refuses a key
        # outside its schema
        (
            {"kind": "page", "cap": 1, "cels": [{"p": 0, "q": 0, "group": {"free_rank": 1}}]},
            "cels: unknown key, expected one of kind, period, cap, cells, d1",
        ),
        (
            {"kind": "page", "cap": 0, "cells": [{"p": 0, "q": 0, "qq": 1, "group": {"free_rank": 1}}]},
            "cells[0].qq: unknown key, expected one of p, q, group",
        ),
        (
            {"kind": "page", "cap": 0, "cells": [{"p": 0, "q": 0, "group": {"free_rank": 1, "torsoin": [2]}}]},
            "cells[0].group.torsoin: unknown key, expected one of free_rank, torsion",
        ),
        (
            {
                "kind": "page",
                "cap": 1,
                "cells": [{"p": p, "q": 0, "group": {"free_rank": 1}} for p in (0, 1)],
                "d1": [{"from": [1, 0], "to": [0, 0], "matrix": [[1]]}],
            },
            "d1[0].to: unknown key, expected one of from, matrix",
        ),
        (
            {
                "kind": "page",
                "cap": 1,
                "cells": [{"p": p, "q": 0, "group": {"free_rank": 1}} for p in (0, 1)],
                "d1": [{"from": [1, 0], "matrix": {"rows": 1, "cols": 1, "entries": [1], "shape": [1, 1]}}],
            },
            "d1[0].matrix.shape: unknown key, expected one of rows, cols, entries",
        ),
        (
            {"kind": "mv", "labels": [0], "intersection": []},
            "intersection: unknown key, expected one of kind, period, labels, cap, mode, truncated_at, intersections, d1",
        ),
        (
            {"kind": "mv", "labels": [0], "intersections": [{"J": [0], "K": {}}]},
            "intersections[0].K: unknown key, expected one of J, k",
        ),
        (
            {"kind": "ideal_chain", "length": 0, "default_zero": True, "d_1": []},
            "d_1: unknown key, expected one of kind, period, length, default_zero, groups, d1",
        ),
        (
            {"kind": "ideal_chain", "length": 0, "default_zero": True, "groups": [{"p": 0, "q": 0, "group": {"free_rank": 1}}]},
            "groups[0].q: unknown key, expected one of p, s, group",
        ),
        # the engine's own refusals end the same way: an AbelianError
        # (IncompatibleShapes) and an AssemblyError (CapTooSmall); the rows
        # cell-outside-support and d-o-d-nonzero end in a PageError, and
        # test_bad_cover_is_one_error_line's mixed-dimensions in a CoarseError
        (
            {
                "kind": "page",
                "cap": 1,
                "cells": [{"p": p, "q": 0, "group": {"free_rank": 1}} for p in (0, 1)],
                "d1": [{"from": [1, 0], "matrix": [[1, 1]]}],
            },
            "d1 at (1, 0): expected 1x1 on concatenated summand generators, got 1x2",
        ),
        (
            {"kind": "mv", "labels": [0, 1], "cap": 0, "intersections": [{"J": [0], "k": {"0": {"free_rank": 1}}}, {"J": [1], "k": {}}]},
            "nonzero group at the cap boundary p=0; raise the cap or mark the run as truncated",
        ),
        # an exact input asserts zero K-theory past its cap, so a set there
        # with K-data would otherwise be dropped from the answer unseen
        (
            {
                "kind": "mv",
                "labels": [0, 1, 2],
                "cap": 1,
                "intersections": [{"J": [x], "k": {"0": {"free_rank": 1}}} for x in range(3)]
                + [{"J": list(j), "k": {}} for j in ([0, 1], [0, 2], [1, 2])]
                + [{"J": [0, 1, 2], "k": {"1": {"free_rank": 1}}}],
            },
            "intersections[6].J: nonzero K-data above cap 1 in an exact input; raise the cap or mark it truncated",
        ),
    ],
    ids=[
        "mv-no-labels", "page-no-cap", "top-level-list", "cell-no-group", "bool-free-rank",
        "null-cap", "null-period", "list-k", "int-labels", "int-J", "int-torsion", "int-d1-from",
        "d1-touches-countable", "mixed-labels", "str-degree-key", "list-truncated-at",
        "float-d1-entry", "bool-d1-entry", "bool-torsion-entry", "ideal-chain-p-outside", "duplicate-p-s", "duplicate-J",
        "duplicate-degree", "duplicate-cell", "duplicate-d1-from", "str-default-zero",
        "duplicate-label", "duplicate-label-in-J", "truncated-without-truncated-at",
        "exact-with-truncated-at", "unknown-mode", "negative-page-cap",
        "negative-ideal-chain-length", "negative-truncated-at", "int-group", "group-no-free-rank",
        "str-free-rank", "negative-free-rank", "torsion-one", "torsion-not-a-chain",
        "countable-torsion-not-a-chain", "ragged-matrix",
        "matrix-entry-count", "negative-matrix-dimension", "str-matrix", "cell-outside-support",
        "d-o-d-nonzero", "false-d1", "zero-d1", "empty-str-d1", "empty-object-d1", "J-outside-labels",
        "empty-J", "short-d1-from", "mv-cap-past-labels", "mv-negative-cap",
        "mv-cap-past-empty-labels", "page-period-3", "mv-period-3",
        "ideal-chain-period-3", "page-period-0", "mv-period-0", "ideal-chain-period-0",
        "page-unknown-key", "cell-unknown-key", "group-unknown-key", "d1-item-unknown-key",
        "matrix-unknown-key", "mv-unknown-key", "intersection-unknown-key", "ideal-chain-unknown-key",
        "groups-item-unknown-key", "d1-wrong-shape", "mv-cap-too-small", "mv-nonzero-above-cap",
    ],
)
def test_bad_input_is_one_error_line(capsys, tmp_path, payload, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "run", "--input", str(path))
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_mv_without_labels_runs_at_cap_zero(capsys, tmp_path):
    # the default cap is the largest the labels allow, and no less than 0
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"kind": "mv", "labels": []}))
    code, out, err = run_cli(capsys, "run", "--input", str(path))
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "spectral run: period=2 cap=0 stabilized at page 1"
    assert out.splitlines()[-2:] == ["K_0 = 0", "K_1 = 0"]


def test_degrees_reduce_modulo_the_period(capsys, tmp_path):
    # every degree key of a run input is taken modulo the period, so each
    # of these files reads the same as with the reduced keys
    z = {"free_rank": 1, "torsion": []}
    cases = [
        (
            {"kind": "mv", "labels": [0], "intersections": [{"J": [0], "k": {"3": z}}]},
            {"kind": "mv", "labels": [0], "intersections": [{"J": [0], "k": {"1": z}}]},
            "K_1 = Z",
        ),
        (
            {"kind": "ideal_chain", "length": 0, "default_zero": True, "groups": [{"p": 0, "s": 3, "group": z}]},
            {"kind": "ideal_chain", "length": 0, "default_zero": True, "groups": [{"p": 0, "s": 1, "group": z}]},
            "K_1 = Z",
        ),
        (
            {
                "kind": "page",
                "cap": 1,
                "cells": [{"p": 1, "q": -2, "group": z}, {"p": 0, "q": 4, "group": z}],
                "d1": [{"from": [1, 6], "matrix": [[3]]}],
            },
            {
                "kind": "page",
                "cap": 1,
                "cells": [{"p": 1, "q": 0, "group": z}, {"p": 0, "q": 0, "group": z}],
                "d1": [{"from": [1, 0], "matrix": [[3]]}],
            },
            "K_0 = Z/3",
        ),
    ]
    for raw, reduced, answer in cases:
        outs = []
        for payload in (raw, reduced):
            path = tmp_path / "in.json"
            path.write_text(json.dumps(payload))
            outs.append(run_cli(capsys, "run", "--input", str(path)))
        assert outs[0] == outs[1]
        assert outs[0][0] == 0 and answer in outs[0][1].splitlines()


@pytest.mark.parametrize(
    "cover, message",
    [
        (5, "cover: expected a list, got int"),
        ([], "cover: expected at least one space, got []"),
        ([{"factors": ["nonneg"]}, "nonpos"], "cover[1]: expected an object, got str"),
        ([{}], "cover[0].factors: missing"),
        ([{"factors": "nonneg"}], "cover[0].factors: expected a list, got str"),
        ([{"factors": []}], "cover[0].factors: expected at least one factor, got []"),
        (
            [{"factors": ["nonneg", "up"]}],
            "cover[0].factors[1]: expected one of ['full', 'nonneg', 'nonpos', 'zero'], got 'up'",
        ),
        ([{"factors": ["nonneg"]}, {"factors": ["nonpos", "full"]}], "cover sets of different dimensions"),
        ([{"factors": ["nonneg"], "dim": 1}], "cover[0].dim: unknown key, expected one of factors"),
    ],
    ids=[
        "int", "empty", "str-item", "no-factors", "str-factors", "no-factor", "unknown-factor", "mixed-dimensions",
        "unknown-key",
    ],
)
def test_bad_cover_is_one_error_line(capsys, tmp_path, cover, message):
    path = tmp_path / "cover.json"
    path.write_text(json.dumps(cover))
    code, out, err = run_cli(capsys, "excision", "--cover", str(path), "--radius", "1", "--box", "4")
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("metric", ["dinf", "d1"])
def test_excision_past_the_recursion_limit_is_one_error_line(capsys, tmp_path, metric):
    # the search takes one call per axis, so 100 axes past the limit overflow
    axes = sys.getrecursionlimit() + 100
    path = tmp_path / "cover.json"
    path.write_text(json.dumps([{"factors": [side] * axes} for side in ("nonneg", "nonpos")]))
    code, out, err = run_cli(capsys, "excision", "--cover", str(path), "--metric", metric, "--radius", "1", "--s", "1/2")
    assert (code, out) == (1, "")
    assert err == f"error: the input nests deeper than the interpreter's recursion limit ({sys.getrecursionlimit()})\n"


def test_out_of_memory_is_one_error_line(capsys, monkeypatch):
    # MemoryError() carries no message; a first page too large to build
    # raises it, and the line still says what happened
    def exhausted(inp):
        raise MemoryError()

    monkeypatch.setattr(assembly, "build_mv_e1", exhausted)
    assert run_cli(capsys, "run", "--builtin", "wedge:20000") == (1, "", "error: out of memory\n")


@pytest.mark.parametrize(
    "args, message",
    [
        (["run", "--builtin", "rn:3", "--cap", "1"], "--cap applies only to --builtin zinf:<m>"),
        (["run", "--builtin", "wedge:4", "--cap", "2"], "--cap applies only to --builtin zinf:<m>"),
        (["run", "--builtin", "wedge:countable:4", "--cap", "2"], "--cap applies only to --builtin zinf:<m>"),
        (
            ["run", "--input", str(GOLDEN_MV), "--cap", "0"],
            "--cap applies only to --builtin zinf:<m>",
        ),
        (
            ["sweep", "--builtin", "wedge:countable:junk", "--caps", "1..3"],
            "unknown sweep builtin 'wedge:countable:junk'; expected wedge:countable or zinf:<m>",
        ),
        (["run", "--builtin", "zinf:3", "--cap", "7"], "bad builtin parameter in 'zinf:3': cap 7 lies above m = 3"),
        (["run", "--builtin", "zinf:3", "--cap=-1"], "bad builtin parameter in 'zinf:3': cap -1 lies below 0"),
        (
            ["sweep", "--builtin", "zinf:3", "--caps", "1..6"],
            "bad builtin parameter in 'zinf:3': cap 4 lies above m = 3",
        ),
        (
            ["sweep", "--builtin", "zinf:0", "--caps", "1"],
            "bad builtin parameter in 'zinf:0': truncation prefix must be >= 1",
        ),
        (
            ["sweep", "--builtin", "zinf:-1", "--caps", "1"],
            "bad builtin parameter in 'zinf:-1': truncation prefix must be >= 1",
        ),
        (
            ["--period", "8", "sweep", "--builtin", "zinf:3", "--caps", "1..2"],
            "builtin examples are complex-K lookups; they require --period 2",
        ),
        (
            ["--period", "8", "sweep", "--builtin", "wedge:countable", "--caps", "1..2"],
            "builtin examples are complex-K lookups; they require --period 2",
        ),
        (["excision", "--builtin", "rn:2", "--radius", "1/0"], "--radius: expected a rational number, got '1/0'"),
        (
            ["excision", "--builtin", "rn:2", "--radius", "1", "--s", "3/0"],
            "--s: expected a rational number, got '3/0'",
        ),
        (
            ["excision", "--builtin", "rn:2", "--radius", "1", "--metric", "weighted", "--weights", "1,2/0"],
            "--weights: expected a rational number, got '2/0'",
        ),
        (
            ["excision", "--builtin", "rn:1", "--radius", "1", "--metric", "dinf", "--weights", "1,1"],
            "--weights applies only to --metric weighted",
        ),
        (
            ["excision", "--builtin", "rn:1", "--radius", "1", "--metric", "d1", "--weights", "1"],
            "--weights applies only to --metric weighted",
        ),
        (
            ["excision", "--builtin", "rn:x", "--radius", "1"],
            "bad builtin parameter in 'rn:x': invalid literal for int() with base 10: 'x'",
        ),
        (["excision", "--builtin", "rn:2", "--radius", "1", "--box", "3.5"], "argument --box: invalid int value: '3.5'"),
        (["run", "--builtin", "rn:2", "--no-such-flag"], "unrecognized arguments: --no-such-flag"),
        # the vertex checks are complete, so there is nothing to sample or seed
        (["simplex", "verify", "--dim", "2", "--samples", "0"], "unrecognized arguments: --samples 0"),
        (["simplex", "verify", "--dim", "2", "--samples", "-3"], "unrecognized arguments: --samples -3"),
        (["simplex", "verify", "--dim", "2", "--seed", "5"], "unrecognized arguments: --seed 5"),
        (["simplex", "verify", "--dim", "0"], "--dim: expected at least 1, got 0"),
        (
            ["excision", "--builtin", "rn:1", "--radius", "1" * 5001],
            f"--radius: more than the interpreter's limit of {_DIGIT_LIMIT} digits",
        ),
        (
            ["excision", "--builtin", "rn:1", "--radius", "1", "--box", "1" * 5001],
            f"argument --box: more than the interpreter's limit of {_DIGIT_LIMIT} digits",
        ),
        (
            ["simplex", "verify", "--dim", "1" * 5001],
            f"argument --dim: more than the interpreter's limit of {_DIGIT_LIMIT} digits",
        ),
        (
            ["sweep", "--builtin", "zinf:3", "--caps", "1/0"],
            "--caps: expected A..B or a comma list of integers, got '1/0'",
        ),
        (
            ["sweep", "--builtin", "zinf:3", "--caps", "1..2..3"],
            "--caps: expected A..B or a comma list of integers, got '1..2..3'",
        ),
        (["sweep", "--builtin", "zinf:3", "--caps", "3..1"], "--caps: empty range '3..1'"),
        (["sweep", "--builtin", "zinf:3", "--caps", "0..3"], "--caps: caps must be positive, got '0..3'"),
        (
            ["excision", "--builtin", "rn:2", "--metric", "weighted", "--weights", "1", "--radius", "1"],
            "weight count does not match dimension",
        ),
        (
            ["excision", "--builtin", "rn:2", "--metric", "weighted", "--weights", "0,1", "--radius", "1"],
            "weights must be strictly positive",
        ),
        (
            ["run", "--builtin", "rn:1", "--input", "missing.json"],
            "argument --input: not allowed with argument --builtin",
        ),
        (
            ["excision", "--builtin", "rn:1", "--custom", "disjoint-rays", "--radius", "1"],
            "argument --custom: not allowed with argument --builtin",
        ),
    ],
    ids=[
        "rn-cap", "wedge-cap", "wedge-countable-cap", "input-cap", "sweep-wedge-countable-suffix",
        "zinf-cap-above-m", "zinf-cap-negative", "sweep-zinf-caps-above-m", "sweep-zinf-0", "sweep-zinf-negative",
        "sweep-zinf-ko-period", "sweep-wedge-ko-period",
        "excision-radius-1/0", "excision-s-3/0", "excision-weights-2/0", "excision-dinf-weights",
        "excision-d1-weights", "excision-rn-x", "excision-box-3.5", "run-no-such-flag", "simplex-samples-0",
        "simplex-samples-negative", "simplex-seed", "simplex-dim-0", "radius-past-digit-limit",
        "box-past-digit-limit", "dim-past-digit-limit", "caps-1/0", "caps-1..2..3", "caps-empty-range", "caps-0..3",
        "weight-count", "weight-zero", "run-builtin-and-input", "excision-builtin-and-custom",
    ],
)
def test_bad_arguments_are_one_error_line(capsys, args, message):
    code, out, err = run_cli(capsys, *args)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_top_level_seed_is_refused(capsys):
    # with no top-level --seed, argparse reads its value as the subcommand
    code, out, err = run_cli(capsys, "--seed", "5", "simplex", "verify", "--dim", "2")
    assert (code, out) == (1, "")
    assert err.startswith("error: argument command: invalid choice: ") and err.count("\n") == 1


def test_hostile_input_ends_without_a_traceback(tmp_path):
    # a fresh interpreter per input, as a shell runs the program; each case
    # must end in at most one error line, never a traceback
    deep, digits = "[" * 100_000, "7" * 5001
    files = {
        "deep.json": deep.encode(),
        "digits.json": f'{{"kind": "page", "cap": {digits}}}'.encode(),
        "bytes.json": b"\xff\xfe{}",
        "empty.json": b"",
    }
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    (tmp_path / "dir.json").mkdir()
    cases = [(["run", "--input", str(tmp_path / name)], name) for name in [*files, "dir.json"]]
    cases += [(["snf", "--matrix", deep], "--matrix"), (["snf", "--matrix", f"[[{digits}]]"], "--matrix")]
    path = os.pathsep.join(filter(None, [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")]))
    command = [sys.executable, "-X", "dev", "-m", "coarsek.cli"]
    env = {**os.environ, "PYTHONPATH": path}
    for argv, source in cases:
        done = subprocess.run(command + argv, env=env, capture_output=True, text=True, timeout=60)
        assert "Traceback" not in done.stderr and done.returncode == 1, (source, done.stderr)
        assert done.stderr.count("error:") == 1 and source in done.stderr, (source, done.stderr)
    # stdout closed after one line of 115 kB, more than a pipe holds, so a
    # later write must find the reader gone
    proc = subprocess.Popen(
        command + ["excision", "--builtin", "rn:11", "--metric", "dinf", "--radius", "1"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    assert proc.stdout.readline() == "J=[0]: PASS\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) in (0, 1, 2)
    assert "Traceback" not in err and err.count("error:") <= 1, err


def test_calls_in_one_process_share_no_state(capsys):
    # main parses every call with one parser; no flag, default or failed
    # parse of one call may reach the next
    plain = (GOLDEN / "rn2.table").read_text(encoding="utf-8")
    calls = [
        (["--format", "json", "run", "--builtin", "rn:2"], 0),
        (["--verbose", "run", "--builtin", "rn:2"], 0),
        (["--period", "8", "run", "--builtin", "rn:2"], 1),
        (["--format", "json", "--verbose", "--period", "8", "sweep", "--builtin", "zinf:3", "--caps", "1..2"], 1),
        (["--format", "json", "run", "--builtin", "rn:2", "--cap", "1"], 1),
        (["run", "--builtin", "rn:2", "--no-such-flag"], 1),
        (["--format", "xml", "run", "--builtin", "rn:2"], 1),
        (["--verbose", "simplex", "verify", "--dim", "2"], 0),
    ]
    for argv, code in calls:
        assert run_cli(capsys, *argv)[0] == code, argv
        assert run_cli(capsys, "run", "--builtin", "rn:2") == (0, plain, ""), argv


def test_null_or_missing_d1_means_none(capsys, tmp_path):
    base = json.loads((GOLDEN / "inputs" / "readme_page.json").read_text())
    del base["d1"]
    path = tmp_path / "page.json"
    outputs = []
    for payload in ({**base, "d1": []}, {**base, "d1": None}, base):
        path.write_text(json.dumps(payload))
        outputs.append(run_cli(capsys, "run", "--input", str(path)))
    assert outputs[0][0] == 0
    assert outputs == outputs[:1] * 3


# ---------------------------------------------------------------------------
# determinism


@pytest.mark.parametrize(
    "args",
    [
        ("--format", "json", "run", "--builtin", "wedge:7"),
        ("--format", "json", "simplex", "verify", "--dim", "3"),
        ("--format", "json", "sweep", "--builtin", "zinf:4", "--caps", "1..3"),
    ],
)
def test_byte_identical_reruns(capsys, args):
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
