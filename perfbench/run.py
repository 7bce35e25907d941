"""Closed-loop benchmark of the coarsek CLI, one process and one thread.

    python3 perfbench/run.py --workload nerve --seed 1 --seconds 20 --trace 0

Each op is one in-process ``coarsek.cli.main(argv)`` call with stdout
captured and the answer checked against an independent expectation.  The
last stdout line is the result JSON; the line before it carries run details
(timed-out ops, size histogram, tail percentile, repeat share).  With
``--trace 1`` every op also runs once more under the tracer, and the result
holds the per-layer metrics instead of the end-to-end ones.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import oracle
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SPAWNS = 7  # at least this many set-up samples per run, one per deck
# Far above every op of every workload (the slowest take about 1.5 s), so an
# op that reaches it is a failure that repeats on every run of its seed.
DEADLINE_S = 20.0
TAIL_BEYOND = 10

SETUP_CODE = "import sys; from coarsek.cli import main; sys.exit(main())"


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an op; BaseException so no handler in the CLI swallows it."""


def _alarm(signum, frame):
    raise OpTimeout()


def time_setup(argv: list[str]) -> float:
    """Wall time of a fresh interpreter that imports the CLI and runs ``argv``."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, *argv], cwd=ROOT, env={**os.environ, "PYTHONPATH": str(SRC)},
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"setup command failed: {proc.stderr.decode()[-500:]}")
    return elapsed


def run_op(main, argv: list[str], deadline: float) -> tuple[float, int | None, str]:
    """One CLI call; returns (wall seconds, exit code or None on timeout, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    code = None
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, deadline)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except OpTimeout:
        pass
    except SystemExit as exc:  # argparse rejects bad argv this way
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a traceback is a wrong answer, not the end of the run
        code = -1
        traceback.print_exc()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - t0
    return wall, code, out.getvalue()


def tail(times: list[float]) -> tuple[float, float]:
    """The highest order statistic with TAIL_BEYOND samples above it, and its percentile."""
    ordered = sorted(times)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


@dataclass
class Tally:
    """What the timed phase saw, op by op."""

    times: list[float] = field(default_factory=list)
    solved: int = 0
    timeouts: list[int] = field(default_factory=list)
    wrong: list[tuple[int, str]] = field(default_factory=list)
    sizes: Counter = field(default_factory=Counter)
    seen: set = field(default_factory=set)
    repeats: int = 0
    untraced_wall: float = 0.0
    traced_wall: float = 0.0
    labels: list[str] = field(default_factory=list)


def play(op, index: int, tally: Tally, main, deadline: float, tracer, tag: str) -> None:
    """Run, time and check one op; with a tracer, run it a second time traced."""
    for path, text in op.files.items():
        Path(path).write_text(text)
    key = (*op.argv, *op.files.values())
    tally.repeats += key in tally.seen
    tally.seen.add(key)
    tally.sizes[op.size] += 1
    gc.collect()  # each op starts from a clean heap, as a fresh CLI process would
    wall, code, out = run_op(main, op.argv, deadline)
    if tracer is not None:
        tracer.install()
        tracer.begin_op(index)
        try:
            t_wall, t_code, t_out = run_op(main, op.argv, deadline)
        finally:
            tracer.uninstall()
        tracer.end_op(t_wall, len(t_out.encode()))
        tally.labels.append(op.size)
        tally.untraced_wall += wall
        tally.traced_wall += t_wall
        if code is not None and t_code is not None and (t_code, t_out) != (code, out):
            tally.wrong.append((index, "traced answer differs from the untraced one"))
    for path in op.files:
        os.unlink(path)
    tally.times.append(wall)
    if code is None:
        tally.timeouts.append(index)
        print(f"timeout: {tag} op={index} size={op.size!r}", file=sys.stderr)
        return
    try:
        oracle.check(op.expect, out, code, op.as_json)
        tally.solved += 1
    except (oracle.WrongAnswer, KeyError, ValueError, TypeError, SyntaxError, IndexError) as exc:
        tally.wrong.append((index, f"{type(exc).__name__}: {exc}"))
        print(f"wrong: {tag} op={index} argv={op.argv[:6]} {exc}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "coarsek" / "cli.py").is_file():
        print(f"error: no coarsek sources under {SRC}", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads, and inherited by the set-up spawns
    sys.path.insert(0, str(SRC))
    from coarsek import cli

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if Path(cli.__file__).resolve().parent.parent != SRC:
        print(f"error: imported coarsek from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _alarm)
    tag = f"workload={args.workload} seed={args.seed}"
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    tally = Tally()
    try:
        setup_argv = workloads.SETUP_ARGV[args.workload]
        setup_times = []
        if not args.trace:
            time_setup(setup_argv)  # untimed: leaves the bytecode caches in place
        begin = time.perf_counter()
        for deck in workloads.decks(args.workload, args.seed, str(workdir)):
            if time.perf_counter() - begin >= args.seconds:
                break
            if not args.trace:  # spread over the run, so set-up sees the same machine as the ops
                setup_times.append(time_setup(setup_argv))
            for op in deck:
                play(op, len(tally.times) + 1, tally, cli.main, DEADLINE_S, tracer, tag)
        while not args.trace and len(setup_times) < SETUP_SPAWNS:
            setup_times.append(time_setup(setup_argv))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    times = tally.times
    attempted = len(times)
    tail_s, tail_pct = tail(times)
    repeat_frac = tally.repeats / attempted
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "deadline_s": DEADLINE_S,
        "timed_out_ops": tally.timeouts,
        "wrong_ops": tally.wrong[:10],
        "tail_percentile": round(tail_pct, 2),
        "tail_samples": attempted,
        "repeat_frac": repeat_frac,
        "size_histogram": dict(sorted(tally.sizes.items())),
    }
    if tracer is not None:
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"spans-{args.workload}-{args.seed}.npz"
        tracer.save(str(span_file), tally.labels)
        info["span_file"] = str(span_file.relative_to(ROOT))
        info["spans"] = len(tracer.start)
        slowdown = tally.traced_wall / tally.untraced_wall
        info["tracing_overhead"] = f"traced/untraced op time = {slowdown:.3f}"
        metrics = tracer.metrics(slowdown, repeat_frac)
        result = {key: {"value": value, "unit": tracing.PER_LAYER[key]} for key, value in metrics.items()}
    else:
        result = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "solve_p50_s": {"value": statistics.median(times), "unit": "s"},
            "solve_tail_s": {"value": tail_s, "unit": "s"},
            "throughput_per_s": {"value": tally.solved / sum(times), "unit": "1/s"},
            "solved_frac": {"value": tally.solved / attempted, "unit": "ratio"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": not tally.wrong, "attempted": attempted,
                      "failed": attempted - tally.solved, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
