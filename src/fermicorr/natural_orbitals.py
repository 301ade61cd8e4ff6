"""Natural orbitals: diagonalizing gamma and re-expressing CI states."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .fock import occupation_matrix, subset_masks
from .wavefunction import EIGENVALUE_TOL, HERMITICITY_TOL, CIWavefunction, OnePDM

ZERO_THRESHOLD = 1e-12  # occupation below this counts as an empty natural orbital
ROTATION_NORM_TOL = 1e-8
ROTATION_BUDGET_BYTES = 1 << 30  # targets, masks and amplitudes of one rotate_ci call
MINOR_BLOCK_ENTRIES = 1 << 20  # complex entries of the minor stack np.linalg.det gets at once
_PHASE_FLOOR = 1e-12


@dataclass
class NaturalOrbitalBasis:
    """Eigenbasis of a one-particle density matrix.

    Column i of `vectors` is natural orbital i expressed in the
    computational basis; `occupations` holds the matching eigenvalues,
    sorted descending and clipped to [0, 1].
    """

    vectors: np.ndarray
    occupations: np.ndarray

    @property
    def d(self) -> int:
        return self.vectors.shape[0]


def diagonalize(
    gamma: Union[OnePDM, np.ndarray], tol: float = EIGENVALUE_TOL
) -> NaturalOrbitalBasis:
    """Validate gamma and take its Hermitian eigendecomposition, with a
    deterministic convention.

    This is the one place gamma is checked: it must be Hermitian to within
    HERMITICITY_TOL, and eigenvalues outside [-tol, 1 + tol] are rejected.
    Values inside are clipped to [0, 1] and sorted descending (stable).
    Each eigenvector is rescaled so its first component above _PHASE_FLOOR
    is real positive (a unit vector always has one of size >= 1/sqrt(d));
    the basis chosen inside a degenerate block is otherwise the
    eigensolver's.
    """
    g = gamma.gamma if isinstance(gamma, OnePDM) else np.asarray(gamma, dtype=complex)
    if np.max(np.abs(g - g.conj().T)) > HERMITICITY_TOL:
        raise ValueError("gamma is not Hermitian")
    w, v = np.linalg.eigh(g)
    if w.min() < -tol or w.max() > 1.0 + tol:
        raise ValueError(
            f"invalid occupation: eigenvalue outside [0, 1] window (tol={tol:g})"
        )
    order = np.argsort(-w, kind="stable")
    w = np.clip(w[order], 0.0, 1.0)
    v = v[:, order]
    cols = np.arange(v.shape[1])
    ref = v[np.argmax(np.abs(v) > _PHASE_FLOOR, axis=0), cols]
    return NaturalOrbitalBasis(v * (ref.conj() / np.abs(ref)), w)


def rotate_ci(
    psi: CIWavefunction, basis: Union[NaturalOrbitalBasis, np.ndarray]
) -> CIWavefunction:
    """Re-express a CI state in the determinant basis of rotated orbitals.

    New amplitudes are c'(s) = sum_t det(V†[s, t]) c(t), the minor rule of
    Löwdin (Phys. Rev. 97, 1474, 1955), summed over source determinants t
    in ascending mask order.  When `basis` carries occupations, target
    determinants are enumerated over natural orbitals with occupation >=
    ZERO_THRESHOLD only; the state provably has no weight elsewhere, which
    the norm check enforces.  A target set whose arrays would exceed
    ROTATION_BUDGET_BYTES is refused before anything is allocated.
    """
    d, n = psi.space.d, psi.n
    if isinstance(basis, NaturalOrbitalBasis):
        v = basis.vectors
        active = np.flatnonzero(basis.occupations >= ZERO_THRESHOLD)
    else:
        v = np.asarray(basis, dtype=complex)
        active = np.arange(d)
    if v.shape != (d, d):
        raise ValueError(f"rotation matrix shape {v.shape} does not match d={d}")
    count = math.comb(len(active), n)
    need = count * (8 * n + 24)  # orbital indices, mask and amplitude per target
    if need > ROTATION_BUDGET_BYTES:
        raise ValueError(
            f"rotation too large: C({len(active)}, {n}) = {count} target determinants "
            f"over {len(active)} active orbitals need {need} B, above {ROTATION_BUDGET_BYTES} B"
        )
    targets, masks = subset_masks(active, n)

    vh = v.conj().T
    sources = np.nonzero(occupation_matrix(psi.masks, d))[1].reshape(psi.masks.size, n)
    block = max(1, MINOR_BLOCK_ENTRIES // max(n * n, 1))
    amps = np.zeros(count, dtype=complex)
    for cols, c in zip(sources, psi.coeffs):
        columns = vh[:, cols]
        for start in range(0, count, block):
            rows = targets[start : start + block]
            amps[start : start + block] += np.linalg.det(columns[rows]) * c
    total = math.fsum((np.abs(amps) ** 2).tolist())
    if abs(total - 1.0) > ROTATION_NORM_TOL:
        raise ValueError(
            f"rotation not unitary: rotated norm² = {total!r} (drift {abs(total - 1.0):.3e})"
        )
    return CIWavefunction.from_arrays(psi.space, n, masks, amps)
