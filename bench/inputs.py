"""Seeded inputs of the four benchmark workloads, as plain data.

An input is a JSON-able record: the op to run and its arguments.  A state
is {"d": d, "n": n, "dets": [[mask, re, im], ...]} with 0-based orbital
bitmasks.  Where the answer is known in closed form the record carries it
as "bits" (the correlation in bits), so the gate needs no kernel of the
program to check it.

Sizes are fixed per workload; the seed moves only orbitals, amplitudes,
weights and parameters, so the cost of an op does not depend on the seed.
The same seed gives byte-identical records (see `dump`).

This module imports no part of fermicorr, and numpy only inside the
library-workload generators: the cli_files set-up is the harness's own
preparation and must not pay numpy's import.
"""

from __future__ import annotations

import json
import math
import random
from itertools import combinations
from pathlib import Path

WORKLOADS = ("dense_ci", "sparse_d64", "oracle_fock", "cli_files")


def generate(workload: str, seed: int) -> list[dict]:
    """The workload's cycle: every input once, in the order the loop runs them."""
    if workload == "cli_files":
        return _cli_files(seed)
    import numpy as np

    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return {"dense_ci": _dense_ci, "sparse_d64": _sparse_d64, "oracle_fock": _oracle_fock}[
        workload
    ](rng)


def dump(records: list[dict]) -> bytes:
    """Canonical bytes of a record list (floats written with full precision)."""
    return json.dumps(records, sort_keys=True).encode()


def _mask(orbitals) -> int:
    return sum(1 << int(p) for p in orbitals)


def _state(d: int, n: int, masks, amps) -> dict:
    return {
        "d": d,
        "n": n,
        "dets": [[int(m), float(a.real), float(a.imag)] for m, a in zip(masks, amps)],
    }


def _normalized_gaussian(rng, size: int):
    import numpy as np

    amps = rng.normal(size=size) + 1j * rng.normal(size=size)
    return amps / np.linalg.norm(amps)


def _dense_state(rng, d: int, n: int) -> dict:
    """Random complex amplitudes on all C(d, n) determinants."""
    masks = [_mask(c) for c in combinations(range(d), n)]
    return _state(d, n, masks, _normalized_gaussian(rng, len(masks)))


def _block_state(rng, d: int, blocks, top: bool = False) -> tuple[dict, float]:
    """Product of two-determinant blocks on disjoint random orbitals.

    Block (n_b, a_b) superposes two disjoint n_b-particle determinants with
    weights a_b and 1 - a_b and random phases.  Any two determinants of the
    product differ in at least two orbitals, so gamma is diagonal and each
    block contributes a_b^(2n_b+1) + (1 - a_b)^(2n_b+1) to the overlap,
    whatever the phases.  A Heitler-London dimer is (2, 1/2), worth 4 bits;
    (|1..k>+|k+1..2k>)/sqrt(2) is (k, 1/2), worth 2k bits.  With `top` the
    highest orbital d-1 is always used.  Returns the state and its bits.
    """
    import numpy as np

    need = 2 * sum(n for n, _ in blocks)
    if top:
        orbs = rng.choice(d - 1, need - 1, replace=False).tolist() + [d - 1]
    else:
        orbs = rng.choice(d, need, replace=False).tolist()
    orbs = rng.permutation(orbs).tolist()
    dets = [(0, 1.0 + 0.0j)]
    overlap = 1.0
    for n, a in blocks:
        ma, mb = _mask(orbs[:n]), _mask(orbs[n : 2 * n])
        orbs = orbs[2 * n :]
        ca = math.sqrt(a) * np.exp(2j * np.pi * rng.uniform())
        cb = math.sqrt(1.0 - a) * np.exp(2j * np.pi * rng.uniform())
        dets = [(m | ma, c * ca) for m, c in dets] + [(m | mb, c * cb) for m, c in dets]
        overlap *= a ** (2 * n + 1) + (1.0 - a) ** (2 * n + 1)
    n_total = need // 2
    masks, amps = zip(*dets)
    return _state(d, n_total, masks, amps), -math.log2(overlap)


def _random_unitary(rng, d: int):
    import numpy as np

    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r))).conjugate()


def _rotated(rng, state: dict) -> dict:
    """The state after a random orbital rotation W: c'(S) = sum_T det(W[S, T]) c(T).

    The correlation is invariant under orbital rotations, so a rotated block
    state is dense on all C(d, n) determinants and keeps its closed form.
    """
    import numpy as np

    d, n = state["d"], state["n"]
    w = _random_unitary(rng, d)
    rows = np.array(list(combinations(range(d), n)))
    w_rows = w[rows]
    amps = np.zeros(len(rows), dtype=complex)
    for mask, re, im in state["dets"]:
        cols = [p for p in range(d) if mask >> p & 1]
        amps += complex(re, im) * np.linalg.det(w_rows[:, :, cols])
    return _state(d, n, [_mask(r) for r in rows], amps)


def _few_det_state(rng, d: int, m: int, n: int, r: int) -> dict:
    """r random determinants of n particles on a support of m orbitals, one
    of them d-1, with all m natural orbitals occupied, so that every seed
    gives the same active space and the same op cost.

    The support is dealt out across the determinants first, so that they
    cover it by construction, and their other slots are filled at random;
    the rank check below then seldom fails, and set-up costs about the same
    for every seed.  Needs m <= r * n.
    """
    import numpy as np

    support = rng.choice(d - 1, m - 1, replace=False).tolist() + [d - 1]
    while True:
        dealt = rng.permutation(support).tolist()
        picks = set()
        for j in range(r):
            own = dealt[j::r]
            rest = [p for p in support if p not in own]
            picks.add(frozenset(own + rng.choice(rest, n - len(own), replace=False).tolist()))
        if len(picks) != r:
            continue
        masks = sorted(_mask(p) for p in picks)
        amps = _normalized_gaussian(rng, r)
        # gamma = A A^dagger with A[p, D - p] = sign * c(D): full rank on the
        # support means no natural orbital there is empty.
        holes: dict[int, int] = {}
        a = np.zeros((m, r * n), dtype=complex)
        for mask, c in zip(masks, amps):
            for row, p in enumerate(support):
                if mask >> p & 1:
                    col = holes.setdefault(mask ^ 1 << p, len(holes))
                    a[row, col] = (-1) ** (mask & ((1 << p) - 1)).bit_count() * c
        if np.linalg.svd(a, compute_uv=False)[-1] ** 2 > 1e-6:
            return _state(d, n, masks, amps)


def _dense_ci(rng) -> list[dict]:
    # Two rotate_ci-heavy ops of about 1 s, then ops from 0.04 to 0.25 s:
    # three (8,4) states and six mixtures whose costs differ by their
    # sectors, so that the median falls among several inputs of nearby
    # cost rather than inside the samples of one, and the tail in the
    # (12,3) block.
    def mixture(sectors):
        weights = rng.uniform(0.2, 1.0, size=3)
        weights = (weights / weights.sum()).tolist()
        return {
            "op": "corr_mixed",
            "label": "mixture d=8 n=" + ",".join(map(str, sectors)),
            "components": [[w, _dense_state(rng, 8, n)] for w, n in zip(weights, sectors)],
        }

    def pure(d, n):
        return {"op": "corr_pure", "label": f"dense ({d},{n})", "state": _dense_state(rng, d, n)}

    return [
        pure(10, 5), mixture((4, 4, 3)), pure(8, 4), mixture((2, 2, 1)), mixture((3, 3, 2)),
        pure(12, 3), mixture((5, 4, 4)), pure(8, 4), mixture((3, 2, 2)), pure(8, 4),
        mixture((4, 3, 3)),
    ]


def _sparse_d64(rng) -> list[dict]:
    def closed(label, blocks):
        state, bits = _block_state(rng, 64, blocks, top=True)
        return {"op": "corr_pure", "label": label, "state": state, "bits": bits}

    def few(m, n, r):
        return {
            "op": "corr_pure",
            "label": f"few-det support={m} n={n} dets={r}",
            "state": _few_det_state(rng, 64, m, n, r),
        }

    def dimers(k):
        return closed(f"{k} Heitler-London dimers", [(2, 0.5)] * k)

    def disjoint(k):
        return closed(f"disjoint superposition k={k}", [(k, 0.5)])

    return [
        dimers(3), few(12, 4, 5), dimers(2), disjoint(6), few(13, 4, 4), disjoint(5),
        dimers(2), few(14, 4, 4), disjoint(6), few(12, 5, 4), disjoint(5),
    ]


def _oracle_fock(rng) -> list[dict]:
    def oracle(d, blocks):
        state, bits = _block_state(rng, d, blocks)
        n = state["n"]
        return {
            "op": "overlap_oracle",
            "label": f"rotated ({d},{n})",
            "state": _rotated(rng, state),
            "bits": bits,
        }

    def weight():
        return float(rng.uniform(0.2, 0.8))

    def wick(d, m, n):
        def vectors(count):
            return [
                [[float(x.real), float(x.imag)] for x in _normalized_gaussian(rng, d)]
                for _ in range(count)
            ]

        return {
            "op": "verify_wick",
            "label": f"wick d={d} {m}x{n}",
            "occupations": rng.uniform(0.0, 1.0, size=d).tolist(),
            "f": vectors(m),
            "g": vectors(n),
        }

    return [
        oracle(12, [(6, weight())]), wick(10, 1, 1), oracle(10, [(5, weight())]),
        wick(12, 2, 2), oracle(12, [(3, weight())]), wick(10, 2, 3), wick(12, 1, 1),
        oracle(10, [(2, 0.5), (2, weight())]), wick(12, 3, 3), oracle(12, [(2, 0.5), (2, weight())]),
        wick(10, 3, 3),
    ]


# The sample states of the repository's data/ directory, comments dropped, so
# that the workload does not move when those samples are edited.
CLI_FILES = {
    "psi_3e.wf": "dim=6 nelec=3\n1 3 5 0.816496580927726 0\n2 4 6 0.5773502691896257 0\n",
    "phi_3e.wf": (
        "dim=6 nelec=3\n1 2 3 0.5773502691896257 0\n3 4 5 0.5773502691896257 0\n"
        "1 5 6 0.5773502691896257 0\n"
    ),
    "heitler_london.wf": (
        "dim=4 nelec=2\n1 4 0.7071067811865475 0\n2 3 -0.7071067811865475 0\n"
    ),
    "one_particle_a.wf": "dim=2 nelec=1\n1 1 0\n",
    "one_particle_b.wf": "dim=2 nelec=1\n2 1 0\n",
    "half_half.mix": "0.5 one_particle_a.wf\n0.5 one_particle_b.wf\n",
}
# psi_3e: natural orbitals occupied 2/3 (x3) and 1/3 (x3); p(135) = (2/3)^6 and
# p(246) = (1/3)^6, so the overlap is (2^7 + 1) / 3^7.  phi_3e: each of its
# three determinants has p = 16/729.
PSI_3E_BITS = math.log2(3**7 / 129)
PHI_3E_BITS = math.log2(729 / 16)


def write_cli_files(workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    for name, text in CLI_FILES.items():
        (workdir / name).write_text(text)


def cli_argv(rec: dict, workdir: Path) -> list[str]:
    """The record's CLI arguments with its input file names made absolute."""
    return [str(workdir / a) if a in CLI_FILES else a for a in rec["argv"]]


def _cli_files(seed: int) -> list[dict]:
    rng = random.Random(seed)
    u_max = round(rng.uniform(10.0, 30.0), 6)
    wick_seed = rng.randrange(2**31)

    def cli(argv, expect):
        return {"op": "cli", "label": " ".join(argv[:2]), "argv": argv, "expect": expect}

    return [
        cli(["corr", "psi_3e.wf"], {"kind": "corr_text", "bits": PSI_3E_BITS}),
        cli(["hubbard-sweep", "--u-min", "0", "--u-max", str(u_max), "--steps", "41"],
            {"kind": "sweep_csv", "steps": 41, "u_max": u_max}),
        cli(["corr", "--json", "phi_3e.wf"], {"kind": "json", "corr": PHI_3E_BITS}),
        cli(["corr2", "--json", "heitler_london.wf"],
            {"kind": "json", "corr": 4.0, "schmidt_weights": [0.5, 0.5]}),
        cli(["verify-wick", "--dim", "6", "--trials", "25", "--seed", str(wick_seed)],
            {"kind": "wick_text"}),
        cli(["mixed", "--json", "half_half.mix"], {"kind": "json", "corr": 1.0}),
        cli(["oracle", "--json", "psi_3e.wf"], {"kind": "oracle_json", "bits": PSI_3E_BITS}),
    ]
