"""Correctness gate: an independent reference for every benchmark input.

No reference shares the kernel it checks:
- closed forms carried by the records ("bits"), and the closed forms of
  the CLI samples and the Hubbard dimer;
- pure states with d <= 12: the explicit Fock-space `overlap_oracle`;
- sparse states in d=64: the support relabelled in increasing order down
  to at most 14 orbitals, then `overlap_oracle`.  Relabelling keeps the
  order of occupied orbitals, hence every sign, and an empty orbital has
  occupation 0, so the value is unchanged;
- mixtures: the sector Gram matrix built from `oracle.natural_fock_vector`
  coefficients, not from rotate_ci;
- verify_wick: its own difference;
- CLI calls: exit code 0 and the parsed output.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

import fermicorr
from fermicorr.oracle import natural_fock_vector

import program

CORR_TOL_BITS = 1e-8  # far above roundoff (~1e-13), far below a real defect
WICK_TOL = 1e-10  # the CLI's default verify-wick failure threshold
CSV_TOL = 1e-9  # the CLI prints 12 significant digits


def _relabelled(s: dict) -> dict:
    support = sorted({p for mask, _, _ in s["dets"] for p in range(s["d"]) if mask >> p & 1})
    new = {p: i for i, p in enumerate(support)}
    dets = [[sum(1 << new[p] for p in support if mask >> p & 1), re, im] for mask, re, im in s["dets"]]
    return {"d": len(support), "n": s["n"], "dets": dets}


def _oracle_bits(s: dict) -> float:
    if s["d"] > 12:
        s = _relabelled(s)
    return -math.log2(fermicorr.overlap_oracle(program.state(s)))


def _mixed_bits(components) -> float:
    mixed = [(w, program.state(s)) for w, s in components]
    d = mixed[0][1].space.d
    gamma = sum(w * fermicorr.one_pdm(psi).gamma for w, psi in mixed)
    basis = fermicorr.diagonalize(gamma)
    masks = np.arange(1 << d)
    occupied = (masks[:, None] >> np.arange(d)) & 1
    lam = basis.occupations
    p = np.prod(np.where(occupied, lam, 1.0 - lam), axis=1)
    fidelity = 0.0
    for n in sorted({psi.n for _, psi in mixed}):
        coeffs = np.array(
            [math.sqrt(w) * natural_fock_vector(psi, basis.vectors) for w, psi in mixed if psi.n == n]
        )
        gram = (coeffs.conj() * p) @ coeffs.T
        fidelity += float(np.sqrt(np.clip(np.linalg.eigvalsh(gram), 0.0, None)).sum())
    return -2.0 * math.log2(fidelity)


def reference(rec: dict):
    """The expected output of the record's op, computed outside the timed region."""
    if "bits" in rec or rec["op"] in ("verify_wick", "cli"):
        return rec.get("bits")
    if rec["op"] == "corr_mixed":
        return _mixed_bits(rec["components"])
    return _oracle_bits(rec["state"])


def _close(value, expected: float, tol: float = CORR_TOL_BITS) -> bool:
    return isinstance(value, (int, float)) and abs(value - expected) <= tol


def _hubbard_row(u: float) -> tuple[float, float]:
    # In the bonding/antibonding basis the t=1 ground state is
    # cos(theta)|bb> - sin(theta)|aa> with tan(2 theta) = u/4: energy
    # (u - sqrt(u^2 + 16))/2, pair weights p and 1-p, overlap p^5 + (1-p)^5.
    p = 0.5 * (1.0 + 1.0 / math.sqrt(1.0 + (u / 4.0) ** 2))
    return 0.5 * (u - math.sqrt(u * u + 16.0)), -math.log2(p**5 + (1.0 - p) ** 5)


def _check_sweep(text: str, expect: dict) -> bool:
    lines = text.strip().splitlines()
    if lines[0].split(",")[:3] != ["u", "energy", "corr"] or len(lines) != expect["steps"] + 1:
        return False
    for k, line in enumerate(lines[1:]):
        u, energy, corr = (float(x) for x in line.split(",")[:3])
        want_u = expect["u_max"] * k / (expect["steps"] - 1)
        want_energy, want_corr = _hubbard_row(want_u)
        if not (
            _close(u, want_u, CSV_TOL)
            and _close(energy, want_energy, CSV_TOL)
            and _close(corr, want_corr, CSV_TOL)
        ):
            return False
    return True


def _check_cli(out: dict, expect: dict) -> bool:
    if out["rc"] != 0:
        return False
    text, kind = out["out"], expect["kind"]
    if kind == "corr_text":
        fields = dict(line.split(None, 1) for line in text.splitlines() if line.strip())
        return _close(float(fields["corr"]), expect["bits"], CSV_TOL)
    if kind == "json":
        payload = json.loads(text)
        weights = expect.get("schmidt_weights")
        return _close(payload["corr"], expect["corr"]) and (
            weights is None or np.allclose(payload["schmidt_weights"], weights, atol=1e-12, rtol=0)
        )
    if kind == "oracle_json":
        payload = json.loads(text)
        return all(
            _close(-math.log2(payload[key]), expect["bits"])
            for key in ("overlap_recipe", "overlap_oracle")
        )
    if kind == "sweep_csv":
        return _check_sweep(text, expect)
    if kind == "wick_text":
        found = re.search(r"^failures\s+(\d+)", text, re.MULTILINE)
        return found is not None and int(found.group(1)) == 0
    raise ValueError(f"unknown CLI expectation {kind!r}")


def check(rec: dict, ref, out) -> bool:
    """True when the op's output agrees with the reference."""
    if out is None:
        return False
    op = rec["op"]
    try:
        if op in ("corr_pure", "corr_mixed"):
            return _close(out, ref)
        if op == "overlap_oracle":
            return out > 0.0 and _close(-math.log2(out), ref)
        if op == "verify_wick":
            difference, abs_lhs = out
            balanced = len(rec["f"]) == len(rec["g"])
            return difference <= WICK_TOL and (balanced or abs_lhs <= WICK_TOL)
        if op == "cli":
            return _check_cli(out, rec["expect"])
    except (KeyError, TypeError, ValueError, IndexError):
        return False  # output in an unexpected shape
    raise ValueError(f"unknown op {op!r}")
