"""Mutated input files and argument vectors end with exit 0, 1 or 2, never
with a traceback.

Each input example takes one of the golden ``run --input`` files or a cover
file for ``excision --cover``, applies a few mutations (replace a value, drop
or add a key, drop or repeat a list item) and runs the CLI in process.  Every
value drawn is small, integers in -3..9 and lists of at most 4 items, so no
example can ask for an oversized computation.

Each argument example picks a subcommand and a few of its flags, with values
drawn from a small pool of good and bad ones.  The good values stay small:
builtin parameters at most 4 (at most 2 for excision, whose search grows
with the dimension), radii at most 3, ``--box`` at most 12 and ``--dim`` at
most 4.
"""

import contextlib
import io
import json
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from coarsek.cli import main

INPUTS = Path(__file__).parent / "golden" / "inputs"
BASES = [(["run", "--input"], json.loads(path.read_text())) for path in sorted(INPUTS.glob("*.json"))]
BASES += [
    (["excision", "--radius", "1", "--box", "3", "--cover"], cover)
    for cover in (
        [{"factors": ["nonneg"]}, {"factors": ["nonpos"]}],
        [{"factors": ["nonneg", "full"]}, {"factors": ["nonpos", "full"]}, {"factors": ["full", "zero"]}],
    )
]
KEYS = sorted(
    {"kind", "labels", "cap", "mode", "intersections", "J", "k", "0", "1", "3", "d1", "from",
     "matrix", "length", "default_zero", "groups", "p", "q", "s", "group", "free_rank",
     "torsion", "period", "cells", "truncated_at", "rows", "cols", "entries", "factors"}
)
SMALL = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 9)
    | st.sampled_from(["", "a", "countable", "nonneg", "nonpos", "full", "zero", "mv", "page", "2"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(KEYS), inner, max_size=4),
    max_leaves=6,
)


def _mutate(data, node):
    """A copy of ``node`` with one mutation at a drawn depth."""
    if isinstance(node, (dict, list)) and node and data.draw(st.booleans()):
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        key = data.draw(st.sampled_from(keys))
        out = dict(node) if isinstance(node, dict) else list(node)
        out[key] = _mutate(data, node[key])
        return out
    action = data.draw(st.sampled_from(["replace", "drop", "add"]))
    if action == "replace" or not isinstance(node, (dict, list)):
        return data.draw(SMALL)
    if isinstance(node, dict):
        out = dict(node)
        if action == "drop" and out:
            del out[data.draw(st.sampled_from(sorted(out)))]
        else:
            out[data.draw(st.sampled_from(KEYS))] = data.draw(SMALL)
        return out
    out = list(node)
    if out:
        i = data.draw(st.integers(0, len(out) - 1))
        if action == "drop":
            del out[i]
        elif len(out) < 4:
            out.append(out[i])
    return out


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_mutated_inputs_exit_cleanly(tmp_path_factory, data):
    argv, doc = data.draw(st.sampled_from(BASES))
    for _ in range(data.draw(st.integers(1, 3))):
        doc = _mutate(data, doc)
    path = tmp_path_factory.mktemp("fuzz") / "input.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, str(path)])
    assert code in (0, 1, 2), (doc, code)
    lines = err.getvalue().splitlines()
    if code == 1:
        assert len(lines) == 1 and lines[0].startswith("error: "), (doc, lines)
    else:
        assert not lines, (doc, lines)


BAD = ["1/0", "0", "-3", "junk"]
FLAGS = {
    "run": {
        "--builtin": ["rn:4", "zinf:3", "wedge:4", "wedge:countable:3", "wedge:countable", "rn:2:1"],
        "--input": [str(path) for path in sorted(INPUTS.glob("*.json"))] + ["missing.json"],
        "--cap": ["2", "8"],
    },
    "snf": {"--matrix": ["[[2, 4], [6, 8]]", "[[1], [1, 2]]", "[]", '{"rows": 1}', "[[1.5]]"]},
    "excision": {
        "--builtin": ["rn:1", "rn:2", "zinf:3"],
        "--custom": ["disjoint-rays"],
        "--cover": ["cover:0", "cover:1", "missing.json"],
        "--metric": ["d1", "dinf", "weighted"],
        "--weights": ["1,2", "1", "1/2,3", "0,1"],
        "--radius": ["1", "3", "1/2"],
        "--s": ["1", "3/2"],
        "--box": ["8", "12"],
    },
    "simplex": {"--dim": ["1", "2", "4"]},
    "sweep": {
        "--builtin": ["zinf:3", "wedge:countable", "wedge:countable:junk", "rn:2"],
        "--caps": ["1..4", "1,2", "3..1", "0..2"],
    },
}
GLOBAL = {"--format": ["table", "json"], "--period": ["2", "8"]}


# a tuple stands for one of its flags: excision needs one source of a cover
REQUIRED = {
    "snf": ["--matrix"],
    "excision": ["--radius", ("--builtin", "--custom", "--cover")],
    "simplex": ["--dim"],
    "sweep": ["--builtin", "--caps"],
}


def _flags(data, pool, required=(), bad=BAD):
    """Each required flag and up to three others, each as ``--flag=value``
    so that argparse passes a value such as -3 on to the command."""
    required = [data.draw(st.sampled_from(flag)) if isinstance(flag, tuple) else flag for flag in required]
    others = sorted(set(pool) - set(required))
    drawn = data.draw(st.lists(st.sampled_from(others), max_size=3, unique=True)) if others else []
    argv = []
    for flag in [*required, *drawn]:
        values = st.sampled_from(pool[flag])
        argv.append(f"{flag}={data.draw(values | st.sampled_from(bad) if bad else values)}")
    return argv


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_argument_vectors_exit_cleanly(tmp_path_factory, data):
    command = data.draw(st.sampled_from(sorted(FLAGS)))
    argv = _flags(data, GLOBAL, bad=()) + [command]
    if command == "simplex":
        argv.append(data.draw(st.sampled_from(["verify", "junk"])))
    argv += _flags(data, FLAGS[command], REQUIRED.get(command, ()))
    for i, arg in enumerate(argv):
        if arg.startswith("--cover=cover:"):
            path = tmp_path_factory.mktemp("fuzz") / "cover.json"
            path.write_text(json.dumps(BASES[int(arg[-1]) - 2][1]))
            argv[i] = f"--cover={path}"
    out, err = io.StringIO(), io.StringIO()
    # an exception escaping main would end the real CLI in a traceback
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)  # a malformed vector is an input error, not an exit from argparse
    assert code in (0, 1, 2), (argv, code)
    lines = err.getvalue().splitlines()
    if code == 1:
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
    elif code == 0:
        assert not lines, (argv, lines)
