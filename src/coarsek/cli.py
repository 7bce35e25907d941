"""Command-line entry point: run, snf, excision, simplex, sweep.

Builtin examples (rn:<n>, zinf:<m>, wedge:<k> or wedge:countable:<cap>)
embed the cover generators, so the headline computations run with no
input files.  Exit codes: 0 success, 1 input error (a malformed command
line included), 2 the run computed but left an ambiguous extension
(pieces are still printed).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from fractions import Fraction
from functools import cache
from math import floor
from typing import Callable, Sequence

from . import jsonio
from .abelian import AbelianError, decimal_str, smith_normal_form
from .assembly import (
    AssemblyError,
    assemble_target,
    build_ideal_chain_e1,
    build_mv_e1,
    truncation_sweep,
)
from .coarse import (
    CoarseError,
    Metric,
    block_decomposition,
    check_cover_excision,
    disjoint_rays,
    rn_mv_input,
    wedge_mv_input,
    zinf_mv_input,
)
from .jsonio import SchemaError
from .pages import PageError, run_to_infinity
from .simplex import verify_geometry


class CliError(Exception):
    """Input-level failure; exits with code 1."""


def _number(text: str, parse: Callable = int, flag: str | None = None):
    """``parse(text)``; a value past the interpreter's digit limit is one error
    that names ``flag`` (argparse names it when None) and the limit, not the digits."""
    try:
        return parse(text)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        if not limit or sum(map(str.isdigit, text)) <= limit:
            raise
        message = f"more than the interpreter's limit of {limit} digits"
        raise (argparse.ArgumentTypeError(message) if flag is None else CliError(f"{flag}: {message}")) from None


class _Parser(argparse.ArgumentParser):
    """A parser, and its subcommand parsers, that refuse a malformed command
    line with a CliError instead of a usage block and exit 2 (``_number`` reads ``type=int``)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.register("type", int, _number)

    def error(self, message: str):
        raise CliError(message)


def _parse_builtin(name: str, caps: Sequence[int], period: int):
    """The builtin ``name``; a zinf:<m> input is built at the last of the
    sorted ``caps`` (m when there are none), and every cap must lie in 0..m."""
    if period != 2:
        raise CliError("builtin examples are complex-K lookups; they require --period 2")
    parts = name.split(":")
    kind = parts[0]
    try:
        if kind == "rn" and len(parts) == 2:
            return rn_mv_input(_number(parts[1], flag="--builtin"))
        if kind == "zinf" and len(parts) == 2:
            m = _number(parts[1], flag="--builtin")
            if caps and caps[0] < 0:
                raise ValueError(f"cap {caps[0]} lies below 0")
            top = zinf_mv_input(m, caps[-1] if caps else m)  # a prefix m < 1 fails here first
            if caps and caps[-1] > m:
                raise ValueError(f"cap {next(c for c in caps if c > m)} lies above m = {m}")
            return top
        if kind == "wedge" and len(parts) == 2 and parts[1] != "countable":
            return wedge_mv_input(_number(parts[1], flag="--builtin"))
        if kind == "wedge" and len(parts) == 3 and parts[1] == "countable":
            return wedge_mv_input(_number(parts[2], flag="--builtin"), truncated=True)
    except ValueError as exc:
        raise CliError(f"bad builtin parameter in {name!r}: {exc}") from exc
    raise CliError(
        f"unknown builtin {name!r}; expected rn:<n>, zinf:<m>, wedge:<k>, wedge:countable:<cap>"
    )


def _parse_json(text: str, source: str):
    """``text`` parsed as JSON; each way parsing can fail is one CliError
    that names ``source`` and, past a limit of the interpreter, the limit."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"malformed JSON in {source} at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise CliError(
            f"JSON in {source} nests deeper than the parser allows (recursion limit {sys.getrecursionlimit()})"
        ) from None
    except ValueError:  # json turns every other integer literal into an int
        raise CliError(
            f"JSON in {source} has an integer past the interpreter's limit of {sys.get_int_max_str_digits()} digits"
        ) from None


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CliError(f"cannot read {path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return _parse_json(text, path), text


def _cmd_run(args) -> int:
    if args.cap is not None and not (args.builtin or "").startswith("zinf:"):
        raise CliError("--cap applies only to --builtin zinf:<m>")
    if args.builtin:
        inp = _parse_builtin(args.builtin, () if args.cap is None else (args.cap,), args.period)
        page = build_mv_e1(inp)
        raw = None
    elif args.input:
        obj, raw = _load_json(args.input)
        if not isinstance(obj, dict):
            raise SchemaError(f"input: expected an object, got {type(obj).__name__}")
        kind = obj.get("kind", "mv")
        if kind == "mv":
            page = build_mv_e1(jsonio.mv_from_json(obj, args.period))
        elif kind == "ideal_chain":
            page = build_ideal_chain_e1(jsonio.ideal_chain_from_json(obj, args.period))
        elif kind == "page":
            page = jsonio.page_from_json(obj, args.period)
        else:
            raise CliError(f"unknown input kind {kind!r}")
    else:
        raise CliError("run needs --builtin NAME or --input PATH")
    if args.verbose and raw is not None:
        print("input:")
        print(raw.rstrip("\n"))
    run = run_to_infinity(page)
    report = assemble_target(run)
    if args.format == "json":
        print(jsonio.dumps(jsonio.report_to_json(report)))
    else:
        print(jsonio.report_to_table(report, verbose=args.verbose))
    return 2 if report.any_ambiguous else 0


def _ints_repr(value) -> str:
    """``repr`` of an int, or of a tuple or nested lists of ints, with every
    int in full past the interpreter's digit limit."""
    if isinstance(value, int):
        return decimal_str(value)
    inner = ", ".join(map(_ints_repr, value))
    if isinstance(value, list):
        return f"[{inner}]"
    return f"({inner},)" if len(value) == 1 else f"({inner})"


def _cmd_snf(args) -> int:
    matrix = jsonio.matrix_from_json(_parse_json(args.matrix, "--matrix"))
    if args.verbose:
        print("input:")
        print(args.matrix)
    result = smith_normal_form(matrix)
    if args.format == "json":
        print(
            jsonio.dumps(
                {
                    "D": jsonio.matrix_to_json(result.D),
                    "U": jsonio.matrix_to_json(result.U),
                    "V": jsonio.matrix_to_json(result.V),
                    "certificate_ok": result.check(),
                }
            )
        )
    else:
        print(f"D = diag{_ints_repr(result.diagonal)}")
        print(f"U = {_ints_repr(result.U.to_rows())}")
        print(f"V = {_ints_repr(result.V.to_rows())}")
        print(f"certificate: U*A*V == D and |det U| == |det V| == 1: {result.check()}")
    return 0


def _pick_cover(args):
    if args.builtin:
        parts = args.builtin.split(":")
        if parts[0] == "rn" and len(parts) == 2:
            try:
                return block_decomposition(_number(parts[1], flag="--builtin"))
            except ValueError as exc:
                raise CliError(f"bad builtin parameter in {args.builtin!r}: {exc}") from exc
        raise CliError(f"unknown excision builtin {args.builtin!r}; expected rn:<n>")
    if args.custom == "disjoint-rays":
        return disjoint_rays()
    if args.cover:
        return jsonio.cover_from_json(_load_json(args.cover)[0])
    raise CliError("excision needs --builtin rn:<n>, --custom disjoint-rays, or --cover PATH")


def _fraction(flag: str, text: str) -> Fraction:
    try:
        return _number(text, Fraction, flag)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"{flag}: expected a rational number, got {text!r}") from None


def _cmd_excision(args) -> int:
    if args.weights is not None and args.metric != "weighted":
        raise CliError("--weights applies only to --metric weighted")
    cover = _pick_cover(args)
    dim = cover[0].dim
    if args.metric == "weighted":
        if not args.weights:
            raise CliError("weighted metric needs --weights")
        metric = Metric("weighted", tuple(_fraction("--weights", w) for w in args.weights.split(",")))
    else:
        metric = Metric(args.metric)
    radius = _fraction("--radius", args.radius)
    if args.s is not None:
        s_radius = _fraction("--s", args.s)
    elif args.metric == "d1":
        s_radius = radius * dim
    else:
        s_radius = radius
    box = args.box
    if box is None:  # 2(S + R), raised where that rounds down to S + R or below
        box = max(int(2 * (s_radius + radius)), floor(s_radius + radius) + 1)
    if args.verbose:
        echo = {
            "cover_size": len(cover),
            "dim": dim,
            "metric": args.metric,
            "radius": str(radius),
            "s": str(s_radius),
            "box": box,
        }
        print("input:")
        print(jsonio.dumps(echo))
    results = check_cover_excision(cover, radius, metric, box, s_radius=s_radius)
    all_ok = all(r.ok for r in results.values())
    if args.format == "json":
        payload = [
            {
                "J": list(j),
                "ok": r.ok,
                "witness": None if r.witness is None else list(r.witness),
                "points_checked": r.points_checked,
            }
            for j, r in sorted(results.items())
        ]
        print(jsonio.dumps({"all_ok": all_ok, "subsets": payload}))
    else:
        for j, r in sorted(results.items()):
            status = "PASS" if r.ok else f"FAIL witness={list(r.witness)}"
            print(f"J={list(j)}: {status}")
        print("overall:", "PASS" if all_ok else "FAIL")
    return 0


def _cmd_simplex(args) -> int:
    for flag, value in (("--dim", args.dim), ("--samples", args.samples)):
        if value < 1:
            raise CliError(f"{flag}: expected at least 1, got {value}")
    if args.verbose:
        print("input:")
        print(jsonio.dumps({"dim": args.dim, "samples": args.samples, "seed": args.seed}))
    checks = verify_geometry(args.dim, args.samples, args.seed)
    if args.format == "json":
        print(jsonio.dumps([{"name": c.name, "ok": c.ok} for c in checks]))
    else:
        print("\n".join(f"{c.name}: {'pass' if c.ok else 'FAIL'}" for c in checks))
    return 0 if all(c.ok for c in checks) else 1


def _parse_caps(spec: str) -> Sequence[int]:
    """A ``range`` for A..B, so that a long one is never listed, or a sorted list."""
    try:
        if ".." in spec:
            lo, hi = spec.split("..")
            caps = range(_number(lo, flag="--caps"), _number(hi, flag="--caps") + 1)
        else:
            caps = sorted(_number(x, flag="--caps") for x in spec.split(","))
    except ValueError:
        raise CliError(f"--caps: expected A..B or a comma list of integers, got {spec!r}") from None
    if not caps:
        raise CliError(f"--caps: empty range {spec!r}")
    if caps[0] < 1:
        raise CliError(f"--caps: caps must be positive, got {spec!r}")
    return caps


def _cmd_sweep(args) -> int:
    caps = _parse_caps(args.caps)
    if args.builtin == "wedge:countable":
        family = lambda c: _parse_builtin(f"wedge:countable:{c}", (), args.period)  # noqa: E731
    elif args.builtin.startswith("zinf:"):
        # one input at the top cap: each smaller cap shares its table
        top = _parse_builtin(args.builtin, caps, args.period)
        family = lambda c: replace(top, cap=c)  # noqa: E731
    else:
        raise CliError(
            f"unknown sweep builtin {args.builtin!r}; expected wedge:countable or zinf:<m>"
        )
    sweep = truncation_sweep(family, caps)
    if args.format == "json":
        print(jsonio.dumps(jsonio.sweep_to_json(sweep)))
    else:
        print(jsonio.sweep_to_table(sweep, verbose=args.verbose))
    return 0


@cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use; each
    ``parse_args`` call fills a fresh namespace, so calls share no state."""
    parser = _Parser(
        prog="coarsek",
        description="Exact spectral-sequence calculator for coarse-cover K-theory data",
    )
    parser.add_argument("--format", choices=("table", "json"), default="table")
    parser.add_argument("--period", type=int, choices=(2, 8), default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="build a first page, run to the limit, assemble")
    source = p_run.add_mutually_exclusive_group()
    source.add_argument("--builtin")
    source.add_argument("--input")
    p_run.add_argument("--cap", type=int)
    p_run.set_defaults(func=_cmd_run)

    p_snf = sub.add_parser("snf", help="Smith normal form with transforms")
    p_snf.add_argument("--matrix", required=True)
    p_snf.set_defaults(func=_cmd_snf)

    p_exc = sub.add_parser("excision", help="brute-force excisiveness check")
    source = p_exc.add_mutually_exclusive_group()
    source.add_argument("--builtin")
    source.add_argument("--custom", choices=("disjoint-rays",))
    source.add_argument("--cover")
    p_exc.add_argument("--metric", choices=("d1", "dinf", "weighted"), default="dinf")
    p_exc.add_argument("--weights")
    p_exc.add_argument("--radius", required=True)
    p_exc.add_argument("--s")
    p_exc.add_argument("--box", type=int)
    p_exc.set_defaults(func=_cmd_excision)

    p_sx = sub.add_parser("simplex", help="verify the cake-piece geometry exactly")
    p_sx.add_argument("action", choices=("verify",))
    p_sx.add_argument("--dim", type=int, required=True)
    p_sx.add_argument("--samples", type=int, default=1000)
    p_sx.add_argument("--seed", type=int, dest="seed", default=argparse.SUPPRESS)
    p_sx.set_defaults(func=_cmd_simplex)

    p_sw = sub.add_parser("sweep", help="truncation sweep over caps")
    p_sw.add_argument("--builtin", required=True)
    p_sw.add_argument("--caps", required=True, help="e.g. 1,2,3 or 1..8")
    p_sw.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except (CliError, SchemaError, AbelianError, AssemblyError, CoarseError, PageError, ValueError,
            MemoryError) as exc:  # MemoryError: an input too large to allocate
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout: what is still buffered goes to devnull,
        # so the flush at exit cannot fail again (the SIGPIPE note of the
        # signal module's docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
