"""JSON schemas for groups, matrices, pages, inputs, and reports.

Groups serialize as {"free_rank": int | "countable", "torsion": [...]};
matrices as row-major entry arrays with explicit shape (nested lists are
accepted on input).  All emitters sort keys, so identical values render
byte-identically.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .abelian import CountablyInfinite, FgAbGroup, IntMatrix
from .assembly import DegreeReport, FiltrationReport, IdealChainInput, MvInput, SweepReport
from .coarse import BlockySpace, Factor, Metric
from .pages import Grading, Page


class SchemaError(ValueError):
    """Input does not match the documented schema."""


def _need(obj: Any, key: str, where: str = "") -> Any:
    """``obj[key]``; a SchemaError names the path when obj is no object or lacks key."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{where or 'input'}: expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise SchemaError(f"{where}.{key}: missing" if where else f"{key}: missing")
    return obj[key]


def group_to_json(g: FgAbGroup) -> dict:
    return {
        "free_rank": "countable" if g.is_countable else g.free_rank,
        "torsion": list(g.torsion),
    }


def group_from_json(obj: Any) -> FgAbGroup:
    if not isinstance(obj, dict) or "free_rank" not in obj:
        raise SchemaError(f"group must be an object with free_rank, got {obj!r}")
    rank = obj["free_rank"]
    torsion = tuple(obj.get("torsion", ()))
    if rank == "countable":
        return FgAbGroup(CountablyInfinite, torsion)
    if not isinstance(rank, int) or isinstance(rank, bool):
        raise SchemaError(f"free_rank must be an int or 'countable', got {rank!r}")
    try:
        return FgAbGroup(rank, torsion)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def matrix_to_json(m: IntMatrix) -> dict:
    return {"rows": m.rows, "cols": m.cols, "entries": list(m.entries)}


def matrix_from_json(obj: Any) -> IntMatrix:
    if isinstance(obj, list):
        if obj and not isinstance(obj[0], list):
            raise SchemaError("matrix list form must be a list of rows")
        return IntMatrix.from_rows(obj)
    if isinstance(obj, dict) and {"rows", "cols", "entries"} <= obj.keys():
        return IntMatrix(int(obj["rows"]), int(obj["cols"]), tuple(int(x) for x in obj["entries"]))
    raise SchemaError(f"matrix must be nested lists or rows/cols/entries, got {obj!r}")


def _d1_from_json(items: Any) -> dict[tuple[int, int], IntMatrix]:
    out: dict[tuple[int, int], IntMatrix] = {}
    for i, item in enumerate(items or []):
        p, q = _need(item, "from", f"d1[{i}]")
        out[(int(p), int(q))] = matrix_from_json(_need(item, "matrix", f"d1[{i}]"))
    return out


def page_to_json(page: Page) -> dict:
    cells = [
        {"p": p, "q": q, "group": group_to_json(cell.group)}
        for (p, q), cell in sorted(page.cells.items())
    ]
    d1 = [
        {"from": [p, q], "matrix": matrix_to_json(h.matrix)}
        for (p, q), h in sorted(page.diffs.items())
        if h.matrix is not None
    ]
    return {"period": page.period, "cap": page.cap, "cells": cells, "d1": d1}


def page_from_json(obj: Any, default_period: int = 2) -> Page:
    cap = int(_need(obj, "cap"))
    period = int(obj.get("period", default_period))
    groups: dict[tuple[int, int], FgAbGroup] = {}
    for i, cell in enumerate(obj.get("cells", [])):
        at = f"cells[{i}]"
        key = (int(_need(cell, "p", at)), int(_need(cell, "q", at)))
        groups[key] = group_from_json(_need(cell, "group", at))
    d1 = _d1_from_json(obj.get("d1"))
    return Page.from_groups(cap, Grading(period), groups, d1=d1 or None,
                            d1_defaulted=not d1)


def mv_from_json(obj: Any, default_period: int = 2) -> MvInput:
    labels = tuple(_need(obj, "labels"))
    inter: dict[tuple, dict[int, FgAbGroup]] = {}
    for i, item in enumerate(obj.get("intersections", [])):
        at = f"intersections[{i}]"
        j = tuple(sorted(_need(item, "J", at)))
        inter[j] = {int(q): group_from_json(g) for q, g in _need(item, "k", at).items()}
    return MvInput(
        labels=labels,
        cap=int(obj.get("cap", len(labels) - 1)),
        intersections=inter,
        d1=_d1_from_json(obj.get("d1")) or None,
        grading=Grading(int(obj.get("period", default_period))),
        mode=obj.get("mode", "exact"),
        truncated_at=obj.get("truncated_at"),
    )


def ideal_chain_from_json(obj: Any, default_period: int = 2) -> IdealChainInput:
    groups: dict[tuple[int, int], FgAbGroup] = {}
    for i, item in enumerate(obj.get("groups", [])):
        at = f"groups[{i}]"
        key = (int(_need(item, "p", at)), int(_need(item, "s", at)))
        groups[key] = group_from_json(_need(item, "group", at))
    return IdealChainInput(
        length=int(_need(obj, "length")),
        grading=Grading(int(obj.get("period", default_period))),
        groups=groups,
        d1=_d1_from_json(obj.get("d1")) or None,
        default_zero=bool(obj.get("default_zero", False)),
    )


def blocky_from_json(obj: Any) -> BlockySpace:
    names = {f.value: f for f in Factor}
    try:
        return BlockySpace(tuple(names[x] for x in obj["factors"]))
    except KeyError as exc:
        raise SchemaError(f"unknown factor {exc}") from exc


def blocky_to_json(space: BlockySpace) -> dict:
    return {"factors": [f.value for f in space.factors]}


def metric_from_json(obj: Any) -> Metric:
    kind = obj["kind"]
    if kind == "weighted":
        return Metric.weighted([Fraction(str(w)) for w in obj["weights"]])
    return Metric(kind)


def report_to_json(report: FiltrationReport) -> dict:
    payload = {
        "period": report.period,
        "cap": report.cap,
        "stabilized_at": report.stabilized_at,
        "d1_assumed_zero": report.d1_assumed_zero,
        "truncated_at": report.truncated_at,
        "degrees": [
            {
                "degree": d.degree,
                "assembled": None if d.assembled is None else group_to_json(d.assembled),
                "ambiguous": d.ambiguous,
                "pieces": [
                    {"p": p, "group": group_to_json(g)} for p, g in d.pieces
                ],
            }
            for d in report.degrees
        ],
    }
    if report.summands is not None:
        payload["summand_order"] = [
            {"p": p, "q": q, "J": [list(j) for j in order]}
            for (p, q), order in sorted(report.summands.items())
        ]
    return payload


def _degree_line(d: DegreeReport, verbose: bool) -> str:
    if d.ambiguous:
        pieces = ", ".join(f"p={p}: {g}" for p, g in d.nonzero_pieces)
        return f"K_{d.degree} = ambiguous extension; pieces: {pieces}"
    line = f"K_{d.degree} = {d.assembled}"
    if verbose:
        pieces = ", ".join(f"p={p}: {g}" for p, g in d.nonzero_pieces) or "none"
        line += f"    [pieces: {pieces}]"
    return line


def report_to_table(report: FiltrationReport, verbose: bool = False) -> str:
    lines = [
        f"spectral run: period={report.period} cap={report.cap} "
        f"stabilized at page {report.stabilized_at}"
    ]
    if report.d1_assumed_zero:
        lines.append("note: differentials assumed zero (none supplied)")
    if report.truncated_at is not None:
        lines.append(f"note: truncated at cap {report.truncated_at}")
    for d in report.degrees:
        lines.append(_degree_line(d, verbose))
    if verbose and report.summands:
        lines.append("summand order (for d1 matrices):")
        for (p, q), order in sorted(report.summands.items()):
            sets = ", ".join("{" + ",".join(map(str, j)) + "}" for j in order)
            lines.append(f"  cell ({p},{q}): {sets}")
    return "\n".join(lines)


def sweep_to_json(sweep: SweepReport) -> dict:
    return {
        "caps": list(sweep.caps),
        "reports": {str(c): report_to_json(sweep.reports[c]) for c in sweep.caps},
        "cell_stable_at": [
            {"p": p, "q": q, "cap": cap}
            for (p, q), cap in sorted(sweep.cell_stable_at.items())
        ],
        "assembled_stable_at": {
            str(s): cap for s, cap in sorted(sweep.assembled_stable_at.items())
        },
    }


def sweep_to_table(sweep: SweepReport, verbose: bool = False) -> str:
    lines = []
    for cap in sweep.caps:
        rep = sweep.reports[cap]
        degs = ", ".join(
            f"K_{d.degree} = {'ambiguous' if d.ambiguous else d.assembled}"
            for d in rep.degrees
        )
        lines.append(f"cap {cap}: {degs}")
    for s, cap in sorted(sweep.assembled_stable_at.items()):
        where = f"stable from cap {cap}" if cap is not None else "not stable in sweep"
        lines.append(f"K_{s}: {where}")
    if verbose:
        for (p, q), cap in sorted(sweep.cell_stable_at.items()):
            where = f"stable from cap {cap}" if cap is not None else "not stable"
            lines.append(f"E1 cell ({p},{q}): {where}")
    return "\n".join(lines)


def dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)
