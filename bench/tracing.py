"""Timing wrappers around fermicorr's layer functions, and per-layer metrics.

The wrappers live here, in the benchmark, not in the program: `Tracer`
replaces every binding of a traced function in every loaded fermicorr
module (so `fermicorr.corr.rotate_ci` and the re-export in the package
both go through it), keeps one span per call in memory as
(name, start, end, parent, op), and restores the originals on `remove`.
A traced name that the program no longer has is recorded as absent and
its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import subprocess
import sys
import time
from collections import Counter

# Layer functions that get a span; self time is span time minus the time
# of the spans it encloses.
SPANNED = (
    "corr.corr_pure",
    "corr.corr_mixed",
    "natural_orbitals.rotate_ci",
    "natural_orbitals.diagonalize",
    "wavefunction.one_pdm",
    "quasifree.occupation_probability",
    "fock.enumerate_subsets",
    "oracle.overlap_oracle",
    "oracle.natural_fock_vector",
    "oracle.fock_operator_matrix",
    "quasifree.verify_wick",
    "models.sweep",
    "cli.main",
)
# Called tens of thousands of times per op: counted, without a span, so
# that its time stays in rotate_ci's self time.
COUNTED = ("fock.slater_overlap",)


def _targets(args, result):
    return len(result.amplitudes)


def _fock_dim_of_state(args, result):
    return 2 ** args[0].space.d


def _fock_dim_of_spec(args, result):
    return 2 ** args[0].d


# Sizes computed from a call, summed per metric name.
SIZES = {
    "natural_orbitals.rotate_ci": ("natural_orbitals.rotate_ci.targets", _targets),
    "oracle.overlap_oracle": ("oracle.fock_dim", _fock_dim_of_state),
    "quasifree.verify_wick": ("oracle.fock_dim", _fock_dim_of_spec),
}

OP = "op"  # the benchmark's own root span around each op

# (metric, unit) in the order BENCHMARK.json lists them.
LAYER_METRICS = (
    ("natural_orbitals.rotate_ci.self_s", "s"),
    ("natural_orbitals.rotate_ci.calls", "count"),
    ("natural_orbitals.rotate_ci.targets", "count"),
    ("natural_orbitals.rotate_ci.share", "fraction"),
    ("fock.slater_overlap.calls", "count"),
    ("wavefunction.one_pdm.self_s", "s"),
    ("wavefunction.one_pdm.calls", "count"),
    ("quasifree.occupation_probability.self_s", "s"),
    ("quasifree.occupation_probability.calls", "count"),
    ("quasifree.occupation_probability.share", "fraction"),
    ("fock.enumerate_subsets.self_s", "s"),
    ("corr.corr_mixed.self_s", "s"),
    ("corr.corr_pure.self_s", "s"),
    ("natural_orbitals.diagonalize.self_s", "s"),
    ("oracle.natural_fock_vector.self_s", "s"),
    ("oracle.fock_operator_matrix.self_s", "s"),
    ("oracle.fock_operator_matrix.calls", "count"),
    ("oracle.overlap_oracle.self_s", "s"),
    ("quasifree.verify_wick.self_s", "s"),
    ("oracle.fock_dim", "count"),
    ("cli.main.self_s", "s"),
    ("models.sweep.self_s", "s"),
    ("cli.interp_start_s", "s"),
    ("cli.import_s", "s"),
    ("cli.import_scipy_s", "s"),
    ("trace.op_s", "s"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.sizes: Counter = Counter()
        self.absent: list[str] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list = []

    def span(self, name: str, fn):
        """`fn` wrapped so that each call records a span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = (name, start, end, parent, self.op)
            if name in SIZES:
                metric, size = SIZES[name]
                try:
                    self.sizes[metric] += size(args, result)
                except (AttributeError, IndexError, TypeError):
                    pass  # the signature changed: the size is unknown, not an error
            return result

        return traced

    def counter(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        self.absent = []
        modules = [m for k, m in sys.modules.items() if k == "fermicorr" or k.startswith("fermicorr.")]
        for wrap, names in ((self.span, SPANNED), (self.counter, COUNTED)):
            for name in names:
                home, attr = name.rsplit(".", 1)
                try:
                    fn = getattr(importlib.import_module("fermicorr." + home), attr)
                except (ImportError, AttributeError):
                    self.absent.append(name)
                    continue
                wrapper = wrap(name, fn)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, key, wrapper)
                            self._patches.append((module, key, fn))

    def remove(self):
        for module, key, fn in reversed(self._patches):
            setattr(module, key, fn)
        self._patches.clear()

    def write(self, path):
        with open(path, "w") as out:
            for name, start, end, parent, op in self.spans:
                out.write(json.dumps([name, start, end, parent, op]) + "\n")


def self_times(spans) -> dict[str, list]:
    """name -> [self seconds, calls, inclusive seconds] over a span list.

    Spans are (name, start, end, parent index or -1, op id) from one thread,
    so they nest; a span's self time is its duration minus its children's.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, list] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        agg = out.setdefault(name, [0.0, 0, 0.0])
        agg[0] += end - start - child[i]
        agg[1] += 1
        agg[2] += end - start
    return out


def layer_metrics(tracer: Tracer, cycles: int, user_op_s: float, overhead_s: float) -> dict[str, float]:
    """Every LAYER_METRICS entry except the cli.* import times.

    The tracer has seen `cycles` traced cycles of the ops; self times, calls
    and sizes are per cycle.  `user_op_s` is the untraced time of one cycle
    as a user waits for it, which for a CLI call includes its interpreter
    start and import, and `overhead_s` the tracing overhead of one cycle; a
    share is inclusive time over their sum.
    """
    agg = self_times(tracer.spans)
    total_s = user_op_s + overhead_s
    out = {}
    for metric, _ in LAYER_METRICS:
        name, _, field = metric.rpartition(".")
        if field == "self_s":
            out[metric] = agg.get(name, [0.0])[0] / cycles
        elif field == "calls":
            calls = tracer.counts[name] if name in COUNTED else agg.get(name, [0, 0])[1]
            out[metric] = calls // cycles
        elif field == "share":
            out[metric] = agg.get(name, [0, 0, 0.0])[2] / cycles / total_s
        elif metric in ("natural_orbitals.rotate_ci.targets", "oracle.fock_dim"):
            out[metric] = tracer.sizes[metric] // cycles
    out["trace.op_s"] = user_op_s
    out["trace.overhead_s"] = overhead_s
    return out


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(fermicorr import, scipy import) seconds from `python -X importtime`.

    Each is the cumulative time of the outermost matching entries, so it
    includes what fermicorr or scipy imports in turn.  The output lists a
    module after the modules it imported, one indent level deeper, so read
    backwards the lines come parent first.
    """
    fermicorr_us = scipy_us = 0
    ancestors: list[tuple[int, str]] = []  # (indent, root package), outermost first
    for line in reversed(stderr.splitlines()):
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:") :].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue  # the header line
        name = fields[2].lstrip()
        indent = len(fields[2]) - len(name)
        while ancestors and ancestors[-1][0] >= indent:
            ancestors.pop()
        root = name.split(".")[0]
        if root == "fermicorr" and not ancestors:
            fermicorr_us += int(fields[1])
        if root == "scipy" and all(r != "scipy" for _, r in ancestors):
            scipy_us += int(fields[1])
        ancestors.append((indent, root))
    return fermicorr_us / 1e6, scipy_us / 1e6


def import_times(env: dict, repeats: int = 3) -> dict[str, float]:
    """Medians over fresh interpreters: start-up, fermicorr.cli import, scipy's share."""
    start, imports, scipy = [], [], []
    for _ in range(repeats):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        start.append(time.perf_counter() - t)
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import fermicorr.cli"],
            env=env, check=True, capture_output=True, text=True,
        )
        fermicorr_s, scipy_s = parse_importtime(proc.stderr)
        imports.append(fermicorr_s)
        scipy.append(scipy_s)
    return {
        "cli.interp_start_s": statistics.median(start),
        "cli.import_s": statistics.median(imports),
        "cli.import_scipy_s": statistics.median(scipy),
    }
