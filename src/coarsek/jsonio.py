"""JSON schemas for groups, matrices, pages, inputs, and reports.

Groups serialize as {"free_rank": int | "countable", "torsion": [...]};
matrices as row-major entry arrays with explicit shape (nested lists are
accepted on input).  All emitters sort keys, so identical values render
byte-identically.
"""

from __future__ import annotations

from itertools import combinations
from json.encoder import encode_basestring_ascii
from typing import Any

from . import assembly, coarse, pages
from .abelian import FgAbGroup, IncompatibleShapes, IntMatrix, decimal_str


class SchemaError(ValueError):
    """Input does not match the documented schema."""


_KINDS = {int: "an integer", bool: "a boolean", list: "a list", dict: "an object"}
_REQUIRED = object()


def _typed(value: Any, kind: type, where: str) -> Any:
    """``value`` if it has JSON type ``kind`` (a bool is no integer), else a
    SchemaError naming the path."""
    if isinstance(value, kind) and not (kind is int and isinstance(value, bool)):
        return value
    raise SchemaError(f"{where}: expected {_KINDS[kind]}, got {type(value).__name__}")


def _need(obj: Any, key: str, where: str = "") -> Any:
    """``obj[key]``; a SchemaError names the path when obj is no object or lacks key."""
    _typed(obj, dict, where or "input")
    if key not in obj:
        raise SchemaError(f"{where}.{key}: missing" if where else f"{key}: missing")
    return obj[key]


def _known(obj: Any, keys: tuple[str, ...], where: str = "") -> None:
    """A SchemaError naming the path unless ``obj`` is an object with no key
    outside ``keys``: a misspelled key would read as absent."""
    for key in _typed(obj, dict, where or "input"):
        if key not in keys:
            at = f"{where}.{key}" if where else key
            raise SchemaError(f"{at}: unknown key, expected one of {', '.join(keys)}")


def _get(obj: Any, key: str, kind: type, where: str = "", default: Any = _REQUIRED) -> Any:
    """``obj[key]`` checked to have JSON type ``kind``; ``default`` when the
    key is absent, which is an error when no default is given."""
    if default is not _REQUIRED and key not in _typed(obj, dict, where or "input"):
        return default
    return _typed(_need(obj, key, where), kind, f"{where}.{key}" if where else key)


def _size(value: Any, where: str) -> int:
    """A nonnegative integer, else a SchemaError naming the path."""
    if _typed(value, int, where) < 0:
        raise SchemaError(f"{where}: expected a nonnegative integer, got {value}")
    return value


def _ints(value: Any, where: str) -> list[int]:
    items = _typed(value, list, where)
    if all(type(x) is int for x in items):  # the common case: no path strings to build
        return items
    return [_typed(x, int, f"{where}[{i}]") for i, x in enumerate(items)]


def _degree(key: str, where: str) -> int:
    """A degree key of a ``k`` object (JSON object keys are strings)."""
    try:
        return int(key)
    except ValueError:
        raise SchemaError(f"{where}: expected integer degree keys, got {key!r}") from None


def _add(out: dict, key: Any, value: Any, where: str) -> None:
    """``out[key] = value``; a SchemaError when ``key`` is there already."""
    if key in out:
        raise SchemaError(f"{where}: {key} listed twice")
    out[key] = value


def _labels(value: Any, where: str) -> list:
    """Distinct index-set labels: all integers or all strings, so that they sort."""
    items = _typed(value, list, where)
    if not (all(isinstance(x, str) for x in items) or all(type(x) is int for x in items)):
        raise SchemaError(f"{where}: expected all integers or all strings, got {items!r}")
    if len(set(items)) < len(items):
        raise SchemaError(f"{where}: {items!r} lists a label twice")
    return items


def group_to_json(g: FgAbGroup | pages.CountableRank) -> dict:
    return {
        "free_rank": "countable" if isinstance(g, pages.CountableRank) else g.free_rank,
        "torsion": list(g.torsion),
    }


def group_from_json(obj: Any, where: str = "group") -> FgAbGroup | pages.CountableRank:
    _known(obj, ("free_rank", "torsion"), where)
    rank = _need(obj, "free_rank", where)
    torsion = tuple(_ints(obj.get("torsion", []), f"{where}.torsion"))
    if rank != "countable" and (type(rank) is not int or rank < 0):
        raise SchemaError(f"{where}.free_rank: expected a nonnegative integer or 'countable', got {rank!r}")
    try:
        return pages.CountableRank(torsion) if rank == "countable" else FgAbGroup(rank, torsion)
    except ValueError as exc:
        raise SchemaError(f"{where}.torsion: {exc}") from exc


def matrix_to_json(m: IntMatrix) -> dict:
    return {"rows": m.rows, "cols": m.cols, "entries": list(m.entries)}


def matrix_from_json(obj: Any, where: str = "matrix") -> IntMatrix:
    try:
        if isinstance(obj, list):
            return IntMatrix.from_rows([_ints(row, f"{where}[{i}]") for i, row in enumerate(obj)])
        if isinstance(obj, dict) and {"rows", "cols", "entries"} <= obj.keys():
            _known(obj, ("rows", "cols", "entries"), where)
            rows, cols = (_get(obj, key, int, where) for key in ("rows", "cols"))
            return IntMatrix(rows, cols, tuple(_ints(obj["entries"], f"{where}.entries")))
    except IncompatibleShapes as exc:
        raise SchemaError(f"{where}: {exc}") from exc
    raise SchemaError(f"{where}: expected nested lists or rows/cols/entries, got {obj!r}")


def _period(obj: Any, default: int) -> int:
    """The Bott period: the file's own ``period`` key, else ``default``; 2 or 8."""
    period = _get(obj, "period", int, default=default)
    if period not in (2, 8):
        raise SchemaError(f"period: expected 2 or 8, got {period}")
    return period


def _d1_from_json(obj: dict, period: int) -> dict[tuple[int, int], IntMatrix]:
    """The optional ``d1`` list (null or absent means none), q taken modulo the period."""
    out: dict[tuple[int, int], IntMatrix] = {}
    d1 = obj.get("d1")
    for i, item in enumerate([] if d1 is None else _typed(d1, list, "d1")):
        at = f"d1[{i}]"
        _known(item, ("from", "matrix"), at)
        key = _ints(_need(item, "from", at), f"{at}.from")
        if len(key) != 2:
            raise SchemaError(f"{at}.from: expected [p, q], got {key}")
        matrix = matrix_from_json(_need(item, "matrix", at), f"{at}.matrix")
        _add(out, (key[0], key[1] % period), matrix, f"{at}.from")
    return out


def page_from_json(obj: Any, default_period: int = 2) -> pages.Page:
    _known(obj, ("kind", "period", "cap", "cells", "d1"))
    cap = _size(_need(obj, "cap"), "cap")
    period = _period(obj, default_period)
    parts: dict[tuple[int, int], list[FgAbGroup]] = {}
    for i, cell in enumerate(_get(obj, "cells", list, default=[])):
        at = f"cells[{i}]"
        _known(cell, ("p", "q", "group"), at)
        key = (_get(cell, "p", int, at), _get(cell, "q", int, at) % period)
        _add(parts, key, [group_from_json(_need(cell, "group", at), f"{at}.group")], at)
    return pages.first_page(cap, period, parts, _d1_from_json(obj, period))


def mv_from_json(obj: Any, default_period: int = 2) -> assembly.MvInput:
    _known(obj, ("kind", "period", "labels", "cap", "mode", "truncated_at", "intersections", "d1"))
    labels = tuple(_labels(_need(obj, "labels"), "labels"))
    period = _period(obj, default_period)
    truncated_at = obj.get("truncated_at")
    if truncated_at is not None:
        _size(truncated_at, "truncated_at")
    mode = obj.get("mode", "exact" if truncated_at is None else "truncated")
    if mode not in ("exact", "truncated") or (mode == "truncated") != (truncated_at is not None):
        raise SchemaError(f"mode: expected 'truncated' with truncated_at or 'exact' without, got {mode!r}")
    top = max(len(labels) - 1, 0)
    cap = _get(obj, "cap", int, default=top)
    if not 0 <= cap <= top:
        raise SchemaError(f"cap: expected 0..{top}, got {cap}")
    inter: dict[tuple, dict[int, FgAbGroup]] = {}
    for i, item in enumerate(_get(obj, "intersections", list, default=[])):
        at = f"intersections[{i}]"
        _known(item, ("J", "k"), at)
        graded: dict[int, FgAbGroup] = {}
        for q, g in _get(item, "k", dict, at).items():
            deg = _degree(q, f"{at}.k") % period
            _add(graded, deg, group_from_json(g, f"{at}.k.{q}"), f"{at}.k.{q}")
        j = _labels(_need(item, "J", at), f"{at}.J")
        if not j:
            raise SchemaError(f"{at}.J: expected at least one label, got []")
        for x in j:
            if x not in labels:
                raise SchemaError(f"{at}.J: {x!r} is not one of the labels {list(labels)}")
        _add(inter, tuple(sorted(j)), graded, f"{at}.J")
        # an exact input says every set past the cap has zero K-theory
        if truncated_at is None and len(j) > cap + 1 and not all(g.is_zero for g in graded.values()):
            raise SchemaError(f"{at}.J: nonzero K-data above cap {cap} in an exact input; raise the cap or mark it truncated")
    inp = assembly.MvInput(
        labels=labels,
        cap=cap,
        intersections=inter,
        d1=_d1_from_json(obj, period),
        period=period,
        truncated_at=truncated_at,
    )
    # a file says nothing about which sets vanish, so it lists every one
    for n in range(1, inp.cap + 2):
        for j in combinations(sorted(labels), n):
            if j not in inter:
                raise SchemaError(f"no K-data for intersection J={list(j)}")
    return inp


def ideal_chain_from_json(obj: Any, default_period: int = 2) -> pages.Page:
    _known(obj, ("kind", "period", "length", "default_zero", "groups", "d1"))
    length = _size(_need(obj, "length"), "length")
    period = _period(obj, default_period)
    groups: dict[tuple[int, int], FgAbGroup] = {}
    for i, item in enumerate(_get(obj, "groups", list, default=[])):
        at = f"groups[{i}]"
        _known(item, ("p", "s", "group"), at)
        p = _get(item, "p", int, at)
        if not 0 <= p <= length:
            raise SchemaError(f"{at}.p: {p} lies outside 0..{length}")
        key = (p, _get(item, "s", int, at) % period)
        _add(groups, key, group_from_json(_need(item, "group", at), f"{at}.group"), at)
    d1 = _d1_from_json(obj, period)
    if not _get(obj, "default_zero", bool, default=False):
        for p in range(length + 1):
            for s in ((p + q) % period for q in range(period)):
                if (p, s) not in groups:
                    raise SchemaError(f"no K-group declared at (p={p}, s={s})")
    return assembly.build_ideal_chain_e1(length, period, groups, d1)


def blocky_from_json(obj: Any, where: str = "space") -> coarse.BlockySpace:
    _known(obj, ("factors",), where)
    names = {f.value: f for f in coarse.Factor}
    factors = _get(obj, "factors", list, where)
    if not factors:
        raise SchemaError(f"{where}.factors: expected at least one factor, got []")
    for i, x in enumerate(factors):
        if not isinstance(x, str) or x not in names:
            raise SchemaError(f"{where}.factors[{i}]: expected one of {sorted(names)}, got {x!r}")
    return coarse.BlockySpace(tuple(names[x] for x in factors))


def cover_from_json(obj: Any) -> list[coarse.BlockySpace]:
    """An ``excision --cover`` file: a nonempty list of blocky spaces."""
    if not _typed(obj, list, "cover"):
        raise SchemaError("cover: expected at least one space, got []")
    return [blocky_from_json(item, f"cover[{i}]") for i, item in enumerate(obj)]


def report_to_json(report: assembly.FiltrationReport) -> dict:
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


def _degree_line(d: assembly.DegreeReport, verbose: bool) -> str:
    if d.ambiguous:
        pieces = ", ".join(f"p={p}: {g}" for p, g in d.pieces)
        return f"K_{d.degree} = ambiguous extension; pieces: {pieces}"
    line = f"K_{d.degree} = {d.assembled}"
    if verbose:
        pieces = ", ".join(f"p={p}: {g}" for p, g in d.pieces) or "none"
        line += f"    [pieces: {pieces}]"
    return line


def report_to_table(report: assembly.FiltrationReport, verbose: bool = False) -> str:
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


def sweep_to_json(sweep: assembly.SweepReport) -> dict:
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


def sweep_to_table(sweep: assembly.SweepReport, verbose: bool = False) -> str:
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
    """``json.dumps(obj, sort_keys=True, indent=2)`` in one recursive pass (an
    indent keeps the standard encoder off its C path) for strings, None,
    bools, ints, lists, tuples and dicts; ints print in full past the
    interpreter's digit limit, and any other value is a TypeError."""
    out: list[str] = []
    append = out.append

    def write(value: Any, indent: str) -> None:
        if isinstance(value, str):
            append(encode_basestring_ascii(value))
        elif value is None or value is True or value is False:
            append("null" if value is None else "true" if value else "false")
        elif isinstance(value, int):
            append(decimal_str(value))
        elif isinstance(value, dict):
            inner = indent + "  "
            sep = "{\n" + inner
            for key in sorted(value):
                append(sep + encode_basestring_ascii(key) + ": ")
                write(value[key], inner)
                sep = ",\n" + inner
            append("\n" + indent + "}" if value else "{}")
        elif isinstance(value, (list, tuple)):
            inner = indent + "  "
            sep = "[\n" + inner
            for item in value:
                append(sep)
                write(item, inner)
                sep = ",\n" + inner
            append("\n" + indent + "]" if value else "[]")
        else:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")

    write(obj, "")
    return "".join(out)
