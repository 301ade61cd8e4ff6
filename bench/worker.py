"""One process of a benchmark run; started by run.py.

    python3 bench/worker.py WORKLOAD SEED BUDGET_S MODE WORKDIR

Builds the workload's inputs from the seed, then
- MODE=setup: stops, having run no op (a set-up sample);
- MODE=loop: runs whole cycles of the ops, one after another (closed loop,
  one client), until about BUDGET_S seconds have passed;
- MODE=trace: runs each op of one cycle once to warm up and then in
  untraced/traced pairs (traced under tracing.Tracer), after one cycle of
  CLI processes for cli_files, and writes the spans to WORKDIR/spans.jsonl.
Prints one JSON object: the monotonic time just before the first op, the
ops as [input index, seconds, output, error], and peak RSS in KiB.  The
outputs are checked by run.py, after this process has exited.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import inputs

PAIRS = 4  # untraced/traced pairs per op in a traced run; even, so each order runs as often


def run_op(call) -> list:
    start = time.perf_counter()
    try:
        out = call()
    except Exception as exc:  # an op that raises is a failed op, not a failed run
        return [time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"]
    return [time.perf_counter() - start, out, None]


def cli_process(argv: list[str], peak: list):
    """One `python -m fermicorr.cli` process per call, as a user runs it.

    The child is reaped with wait4, which gives that child's own peak RSS.
    """
    argv = [sys.executable, "-m", "fermicorr.cli", *argv]

    def run():
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        peak[0] = max(peak[0], usage.ru_maxrss)
        return {"rc": proc.returncode, "out": out.decode()}

    return run


def closed_loop(calls, budget_s: float) -> dict:
    """Whole cycles until one more would end past the budget by over half a cycle."""
    ops, cycles = [], 0
    start = time.perf_counter()
    while True:
        for i, call in enumerate(calls):
            ops.append([i, *run_op(call)])
        cycles += 1
        loop_s = time.perf_counter() - start
        if loop_s + 0.5 * loop_s / cycles > budget_s:
            return {"ops": ops, "loop_s": loop_s, "cycles": cycles}


def traced_cycles(calls, workdir: Path, user_calls=None) -> dict:
    """Each op once to warm up, then in PAIRS untraced/traced pairs.

    The pairs alternate which call goes first, and the tracing overhead of
    an op is the median of its paired differences, so that neither a drift
    of the machine's speed nor the order of the calls passes for overhead.
    `user_calls`, when given, are the same ops as a user runs them (CLI
    processes), run once first.
    """
    import statistics

    import tracing

    user = [[i, *run_op(call)] for i, call in enumerate(user_calls or [])]
    tracer = tracing.Tracer()
    ops, untraced_s, overhead_s = [], 0.0, 0.0
    for i, call in enumerate(calls):
        ops.append([i, *run_op(call)])
        plain, diffs = [], []
        for k in range(PAIRS):
            times = {}
            for traced in ((False, True) if k % 2 == 0 else (True, False)):
                if traced:
                    tracer.op = i
                    tracer.install()
                    try:
                        ops.append([i, *run_op(tracer.span(tracing.OP, call))])
                    finally:
                        tracer.remove()
                else:
                    ops.append([i, *run_op(call)])
                times[traced] = ops[-1][1]
            plain.append(times[False])
            diffs.append(times[True] - times[False])
        untraced_s += statistics.median(plain)
        overhead_s += statistics.median(diffs)
    tracer.write(workdir / "spans.jsonl")
    user_op_s = sum(op[1] for op in user) if user else untraced_s
    layers = tracing.layer_metrics(tracer, PAIRS, user_op_s, overhead_s)
    return {"ops": user + ops, "layers": layers, "absent": tracer.absent}


def main() -> None:
    workload, seed, budget_s, mode, workdir = sys.argv[1:6]
    trace, workdir = mode == "trace", Path(workdir)
    records = inputs.generate(workload, int(seed))
    peak = [0]
    processes = None
    if workload == "cli_files":
        inputs.write_cli_files(workdir)
        processes = [cli_process(inputs.cli_argv(rec, workdir), peak) for rec in records]
    if trace or processes is None:
        import program

        calls = [program.call(rec, workdir) for rec in records]
    first_op_at = time.monotonic()
    if mode == "setup":
        result = {"ops": []}
    elif trace:
        result = traced_cycles(calls, workdir, processes)
    else:
        result = closed_loop(processes or calls, float(budget_s))
    own_peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["first_op_at"] = first_op_at
    result["maxrss_kb"] = peak[0] if peak[0] else own_peak
    print(json.dumps(result))


if __name__ == "__main__":
    main()
