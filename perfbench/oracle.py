"""Independent answer checker for the benchmark's CLI ops.

It parses what the CLI printed (table or JSON) and compares it with an
answer known in advance: a closed form for the builtins, the generator's
construction for chain complexes and P·D·Q, and coarse-geometry theory for
excision.  It never imports coarsek.  Groups are compared after splitting
every torsion coefficient into prime powers, so Z/2 + Z/3 equals Z/6 while
Z/4 differs from Z/2 + Z/2.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass


class WrongAnswer(Exception):
    """The CLI's output disagrees with the expected answer."""


# ---------------------------------------------------------------------------
# groups


@dataclass(frozen=True)
class Group:
    """Free rank plus torsion coefficients in any order (not necessarily a chain)."""

    free: int
    torsion: tuple[int, ...] = ()

    @property
    def is_zero(self) -> bool:
        return self.free == 0 and not self.torsion

    @property
    def is_free(self) -> bool:
        return not self.torsion

    def plus(self, other: "Group") -> "Group":
        return Group(self.free + other.free, self.torsion + other.torsion)


def prime_powers(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            q = 1
            while n % p == 0:
                n //= p
                q *= p
            out.append(q)
        p += 1
    if n > 1:
        out.append(n)
    return out


def normal_form(g: Group) -> tuple[int, tuple[int, ...]]:
    """Free rank and the sorted prime-power decomposition of the torsion."""
    return g.free, tuple(sorted(q for d in g.torsion for q in prime_powers(d)))


def same_group(a: Group, b: Group) -> bool:
    if a.free != b.free:
        return False
    order_a = order_b = 1
    for d in a.torsion:
        order_a *= d
    for d in b.torsion:
        order_b *= d
    # equal orders first, so a wrong huge coefficient is never factored
    return order_a == order_b and normal_form(a) == normal_form(b)


def parse_group(text: str) -> Group:
    """Group from the table notation: 0, Z, Z^3, Z/2, Z + Z/2 + Z/6."""
    text = text.strip()
    if text == "0":
        return Group(0)
    free, torsion = 0, []
    for part in text.split(" + "):
        if part == "Z":
            free += 1
        elif part.startswith("Z^") and part[2:].isdigit():
            free += int(part[2:])
        elif part.startswith("Z/") and part[2:].isdigit():
            torsion.append(int(part[2:]))
        else:
            raise WrongAnswer(f"unreadable group {text!r}")
    return Group(free, tuple(torsion))


def group_from_json(obj) -> Group:
    if not isinstance(obj, dict) or not isinstance(obj.get("free_rank"), int):
        raise WrongAnswer(f"unreadable group {obj!r}")
    return Group(obj["free_rank"], tuple(obj.get("torsion", ())))


def expect_group(actual: Group, expected: Group, where: str) -> None:
    if not same_group(actual, expected):
        raise WrongAnswer(f"{where}: got {normal_form(actual)}, expected {normal_form(expected)}")


# ---------------------------------------------------------------------------
# expected answers


@dataclass(frozen=True)
class Degree:
    """Expected answer in one target degree; pieces are the nonzero (p, group) pairs."""

    ambiguous: bool
    assembled: Group | None
    pieces: tuple[tuple[int, Group], ...] = ()


@dataclass(frozen=True)
class Report:
    """Expected `run` answer: one Degree per q-degree, plus the truncation marker."""

    degrees: tuple[Degree, ...]
    truncated_at: int | None = None

    @property
    def exit_code(self) -> int:
        return 2 if any(d.ambiguous for d in self.degrees) else 0


def plain_report(groups: list[Group], truncated_at: int | None = None) -> Report:
    return Report(tuple(Degree(False, g) for g in groups), truncated_at)


def assemble(pieces: list[tuple[int, Group]]) -> Degree:
    """The README's extension policy, stacking pieces bottom-up in p.

    A nonzero piece on top of a nonzero partial sum splits only when it is
    free; otherwise the degree is an ambiguous extension.
    """
    nonzero = tuple((p, g) for p, g in pieces if not g.is_zero)
    assembled = Group(0)
    for _, g in nonzero:
        if not assembled.is_zero and not g.is_free:
            return Degree(True, None, nonzero)
        assembled = assembled.plus(g)
    return Degree(False, assembled, nonzero)


@dataclass(frozen=True)
class Sweep:
    """Expected `sweep` answer: a Report per cap and where each degree settles."""

    reports: dict[int, Report]
    stable_at: dict[int, int | None]


@dataclass(frozen=True)
class Snf:
    diagonal: tuple[int, ...]
    matrix: list[list[int]]


@dataclass(frozen=True)
class Excision:
    """Expected verdict per index set J: None for PASS, else the witness point."""

    verdicts: dict[tuple[int, ...], tuple[int, ...] | None]


# ---------------------------------------------------------------------------
# checking CLI output


def _table_degrees(lines: list[str]) -> dict[int, str]:
    out = {}
    for line in lines:
        if line.startswith("K_") and " = " in line:
            head, rest = line.split(" = ", 1)
            out[int(head[2:])] = rest
    return out


def _check_degree_text(text: str, exp: Degree, where: str) -> None:
    if exp.ambiguous:
        prefix = "ambiguous extension; pieces: "
        if not text.startswith(prefix):
            raise WrongAnswer(f"{where}: expected an ambiguous extension, got {text!r}")
        pieces = []
        for item in text[len(prefix):].split(", "):
            p, g = item.split(": ", 1)
            pieces.append((int(p[2:]), parse_group(g)))
        _check_pieces(pieces, exp, where)
    else:
        expect_group(parse_group(text), exp.assembled, where)


def _check_pieces(pieces: list[tuple[int, Group]], exp: Degree, where: str) -> None:
    got = [(p, g) for p, g in pieces if not g.is_zero]
    if [p for p, _ in got] != [p for p, _ in exp.pieces]:
        raise WrongAnswer(f"{where}: pieces at p={[p for p, _ in got]}, expected {[p for p, _ in exp.pieces]}")
    for (p, g), (_, e) in zip(got, exp.pieces):
        expect_group(g, e, f"{where} piece p={p}")


def _check_report_json(obj: dict, exp: Report, where: str) -> None:
    degrees = obj["degrees"]
    if len(degrees) != len(exp.degrees):
        raise WrongAnswer(f"{where}: {len(degrees)} degrees, expected {len(exp.degrees)}")
    if obj.get("truncated_at") != exp.truncated_at:
        raise WrongAnswer(f"{where}: truncated_at {obj.get('truncated_at')}, expected {exp.truncated_at}")
    for d, e in zip(degrees, exp.degrees):
        here = f"{where} K_{d['degree']}"
        if bool(d["ambiguous"]) != e.ambiguous:
            raise WrongAnswer(f"{here}: ambiguous={d['ambiguous']}, expected {e.ambiguous}")
        if e.ambiguous:
            pieces = [(x["p"], group_from_json(x["group"])) for x in d["pieces"]]
            _check_pieces(pieces, e, here)
        else:
            expect_group(group_from_json(d["assembled"]), e.assembled, here)


def _check_report_table(lines: list[str], exp: Report, where: str) -> None:
    found = _table_degrees(lines)
    if sorted(found) != list(range(len(exp.degrees))):
        raise WrongAnswer(f"{where}: degree lines {sorted(found)}")
    for s, e in enumerate(exp.degrees):
        _check_degree_text(found[s], e, f"{where} K_{s}")
    marker = f"note: truncated at cap {exp.truncated_at}"
    if (exp.truncated_at is not None) != (marker in lines):
        raise WrongAnswer(f"{where}: truncation note does not match {exp.truncated_at}")


def _check_sweep_table(lines: list[str], exp: Sweep) -> None:
    caps = sorted(exp.reports)
    cap_lines = [ln for ln in lines if ln.startswith("cap ")]
    if len(cap_lines) != len(caps):
        raise WrongAnswer(f"sweep printed {len(cap_lines)} caps, expected {len(caps)}")
    for cap, line in zip(caps, cap_lines):
        head, rest = line.split(": ", 1)
        if head != f"cap {cap}":
            raise WrongAnswer(f"sweep line {line!r}, expected cap {cap}")
        found = _table_degrees(rest.split(", "))
        for s, e in enumerate(exp.reports[cap].degrees):
            _check_degree_text(found.get(s, "missing"), e, f"cap {cap} K_{s}")
    for s, cap in exp.stable_at.items():
        want = f"K_{s}: stable from cap {cap}" if cap is not None else f"K_{s}: not stable in sweep"
        if want not in lines:
            raise WrongAnswer(f"sweep: missing {want!r}")


def _check_sweep_json(obj: dict, exp: Sweep) -> None:
    if obj["caps"] != sorted(exp.reports):
        raise WrongAnswer(f"sweep caps {obj['caps']}")
    for cap, rep in exp.reports.items():
        _check_report_json(obj["reports"][str(cap)], rep, f"cap {cap}")
    stable = {int(s): c for s, c in obj["assembled_stable_at"].items()}
    if stable != exp.stable_at:
        raise WrongAnswer(f"sweep stable_at {stable}, expected {exp.stable_at}")


def _check_snf(out: str, as_json: bool, exp: Snf) -> None:
    if as_json:
        obj = json.loads(out)
        d, u, v = (obj[k] for k in ("D", "U", "V"))
        ok = obj["certificate_ok"] is True
        to_rows = lambda m: [m["entries"][i * m["cols"]:(i + 1) * m["cols"]] for i in range(m["rows"])]  # noqa: E731
        d_rows, u_rows, v_rows = to_rows(d), to_rows(u), to_rows(v)
        diag = tuple(d_rows[i][i] for i in range(min(d["rows"], d["cols"])))
    else:
        fields = dict(line.split(" = ", 1) for line in out.splitlines() if line[:4] in ("D = ", "U = ", "V = "))
        diag = tuple(ast.literal_eval(fields["D"][len("diag"):]))
        u_rows, v_rows = ast.literal_eval(fields["U"]), ast.literal_eval(fields["V"])
        ok = out.rstrip().endswith(": True")
        d_rows = [[diag[i] if i == j and i < len(diag) else 0 for j in range(len(exp.matrix[0]))]
                  for i in range(len(exp.matrix))]
    if not ok:
        raise WrongAnswer("snf certificate not reported ok")
    if diag != exp.diagonal:
        raise WrongAnswer(f"snf diagonal {diag}, expected {exp.diagonal}")
    if matmul(matmul(u_rows, exp.matrix), v_rows) != d_rows:
        raise WrongAnswer("snf: U @ A @ V != D")


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def _check_excision(out: str, as_json: bool, exp: Excision) -> None:
    if as_json:
        obj = json.loads(out)
        got = {tuple(s["J"]): (None if s["ok"] else tuple(s["witness"])) for s in obj["subsets"]}
        all_ok = obj["all_ok"]
    else:
        got = {}
        for line in out.splitlines():
            if line.startswith("J="):
                j, verdict = line.split(": ", 1)
                got[tuple(ast.literal_eval(j[2:]))] = (
                    None if verdict == "PASS" else tuple(ast.literal_eval(verdict.split("witness=", 1)[1]))
                )
        all_ok = "overall: PASS" in out.splitlines()
    if got != exp.verdicts:
        bad = sorted(j for j in set(got) | set(exp.verdicts) if got.get(j, "missing") != exp.verdicts.get(j, "absent"))
        raise WrongAnswer(f"excision verdicts differ at J={bad[:3]}")
    if all_ok != all(w is None for w in exp.verdicts.values()):
        raise WrongAnswer("excision overall verdict wrong")


def check(expect, out: str, code: int, as_json: bool) -> None:
    """Raise WrongAnswer unless (out, code) is the expected CLI result."""
    want = expect.exit_code if isinstance(expect, Report) else 0
    if code != want:
        raise WrongAnswer(f"exit code {code}, expected {want}")
    if isinstance(expect, Report):
        if as_json:
            _check_report_json(json.loads(out), expect, "run")
        else:
            _check_report_table(out.splitlines(), expect, "run")
    elif isinstance(expect, Sweep):
        if as_json:
            _check_sweep_json(json.loads(out), expect)
        else:
            _check_sweep_table(out.splitlines(), expect)
    elif isinstance(expect, Snf):
        _check_snf(out, as_json, expect)
    elif isinstance(expect, Excision):
        _check_excision(out, as_json, expect)
    else:
        raise TypeError(f"no checker for {expect!r}")
