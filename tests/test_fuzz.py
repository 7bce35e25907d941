"""Mutated input files end with exit 0, 1 or 2, never with a traceback.

Each example takes one of the golden ``run --input`` files or a cover file
for ``excision --cover``, applies a few mutations (replace a value, drop or
add a key, drop or repeat a list item) and runs the CLI in process.  Every
value drawn is small, integers in -3..9 and lists of at most 4 items, so no
example can ask for an oversized computation.
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
