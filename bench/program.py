"""The program under test, driven through its stable public entry points.

Turns plain-data input records (see inputs.py) into fermicorr objects and
zero-argument calls.  Every call looks its entry point up on the module at
call time, so the timing wrappers of tracing.py see it.  A call returns a
JSON-able output for the gate.
"""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import fermicorr
import fermicorr.cli

import inputs


def state(s: dict) -> fermicorr.CIWavefunction:
    amps = {fermicorr.Determinant(m): complex(re, im) for m, re, im in s["dets"]}
    return fermicorr.CIWavefunction(fermicorr.OrbitalSpace(s["d"]), s["n"], amps)


def _vectors(rows) -> list[list[complex]]:
    return [[complex(re, im) for re, im in row] for row in rows]


def call(rec: dict, workdir: Path):
    """A zero-argument callable running the record's op once."""
    op = rec["op"]
    if op == "corr_pure":
        psi = state(rec["state"])
        return lambda: fermicorr.corr_pure(psi).corr
    if op == "corr_mixed":
        mixed = fermicorr.MixedState([(w, state(s)) for w, s in rec["components"]])
        return lambda: fermicorr.corr_mixed(mixed).corr
    if op == "overlap_oracle":
        psi = state(rec["state"])
        return lambda: fermicorr.overlap_oracle(psi)
    if op == "verify_wick":
        spec = fermicorr.QuasifreeSpec(rec["occupations"])
        f, g = _vectors(rec["f"]), _vectors(rec["g"])

        def wick():
            report = fermicorr.verify_wick(spec, f, g)
            return [report.difference, abs(report.lhs)]

        return wick
    if op == "cli":
        argv = inputs.cli_argv(rec, workdir)

        def main():
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                rc = fermicorr.cli.main(argv)
            return {"rc": rc, "out": out.getvalue()}

        return main
    raise ValueError(f"unknown op {op!r}")
