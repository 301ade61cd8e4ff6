"""The brute-force Fock-space overlap, used by tests and the `oracle` command.

`overlap_oracle` is the one brute-force route to corr_pure's overlap
(corr_pure's value is -log of it).  It works with explicit 2^d vectors
and the ladder operators of `fock.ladder_table`, which checks the
dimension cap.  The code deliberately avoids the kernels of the fast
path (rotate_ci's adjacent-pair Givens rotations of the CI vector and its
minor determinants), and the fast path imports nothing from here, so
agreement between the two routes is evidence rather than tautology.
"""

from __future__ import annotations

import math

import numpy as np

from .fock import ladder_table
from .natural_orbitals import diagonalize
from .quasifree import QuasifreeSpec, pattern_probabilities
from .wavefunction import CIWavefunction, one_pdm, unit_norm2


def natural_fock_vector(psi: CIWavefunction, orbitals: np.ndarray) -> np.ndarray:
    """Coefficients of a CI state on determinants of rotated orbitals.

    Each rotated-orbital determinant a†_{i1} ... a†_{in} |0> (i1 < ... < in,
    a†_i creating along orbital column i) is built explicitly from the
    vacuum, highest index first; entry s of the result is its inner
    product with the state.  A rotated creation operator is applied as a
    gather over the ladder table that fills only the rows of the sector
    the state lands in, and determinants sharing their high orbitals share
    those steps.  Only patterns in the state's particle-number sector can
    be nonzero.
    """
    d, n = psi.space.d, psi.n
    orbitals = np.asarray(orbitals, dtype=complex)
    target, _, annihilate = ladder_table(d)
    weight = np.count_nonzero(annihilate, axis=0)
    position = np.zeros(1 << d, dtype=np.intp)  # index of a mask within its sector
    sectors = []  # sector k: a†_p into it as (sign, source position in sector k-1)
    for k in range(n + 1):
        rows = np.flatnonzero(weight == k)
        position[rows] = np.arange(rows.size)
        sign = annihilate[:, rows]
        sectors.append((sign, np.where(sign != 0, position[target[:, rows]], 0)))
    psi_sector = np.zeros(np.count_nonzero(weight == n), dtype=complex)
    psi_sector[position[psi.masks]] = psi.coeffs
    out = np.zeros(1 << d, dtype=complex)

    def extend(state: np.ndarray, mask: int, k: int):
        # state: the determinant of the rotated orbitals in `mask`, k of them
        if k == n:
            out[mask] = np.vdot(state, psi_sector)
            return
        sign, source = sectors[k + 1]
        lowest = (mask & -mask).bit_length() - 1 if mask else d
        orbs = range(n - k - 1, lowest)  # leave room for n-k-1 more orbitals below
        created = orbitals[:, orbs].T @ (sign * state[source])
        for i, child in zip(orbs, created):
            extend(child, mask | 1 << i, k + 1)

    extend(np.ones(1, dtype=complex), 0, 0)
    return out


def overlap_oracle(psi: CIWavefunction) -> float:
    """<psi, rho psi> with rho the quasifree reference sharing psi's gamma,
    for psi / |psi| (the norm must be 1 to within limits.NORM_TOL).

    Runs entirely through explicit Fock-space algebra: the state is
    rotated into the natural-orbital Fock basis operator by operator and
    weighted by the diagonal of rho, `pattern_probabilities`.
    """
    norm2 = unit_norm2(psi)
    basis = diagonalize(one_pdm(psi).gamma / norm2)
    coeffs = natural_fock_vector(psi, basis.vectors)
    spec = QuasifreeSpec(basis.occupations)
    weights = pattern_probabilities(spec, np.arange(1 << psi.space.d)) * np.abs(coeffs) ** 2
    return math.fsum(sorted(weights.tolist(), reverse=True)) / norm2
