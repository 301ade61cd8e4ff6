"""Natural orbitals: diagonalizing gamma and re-expressing CI states."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .fock import occupation_matrix, subset_masks
from .wavefunction import EIGENVALUE_TOL, HERMITICITY_TOL, CIWavefunction, OnePDM

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

    This is the one place gamma is checked: it must be finite and Hermitian
    to within HERMITICITY_TOL, and eigenvalues outside [-tol, 1 + tol] are
    rejected.  Values inside are clipped to [0, 1] and sorted descending (stable).
    Each eigenvector is rescaled so its first component above _PHASE_FLOOR
    is real positive (a unit vector always has one of size >= 1/sqrt(d));
    the basis chosen inside a degenerate block is otherwise the
    eigensolver's.
    """
    g = gamma.gamma if isinstance(gamma, OnePDM) else np.asarray(gamma, dtype=complex)
    if not np.all(np.isfinite(g)):
        raise ValueError("gamma has non-finite entries")
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


def rotate_ci(psi: CIWavefunction, orbitals: np.ndarray) -> CIWavefunction:
    """Re-express a CI state in the determinant basis of k target orbitals.

    `orbitals` is a d x k matrix whose columns are the target orbitals in
    the computational basis (k = d is a full rotation); bit j of a result
    mask stands for column j.  New amplitudes are
    c'(s) = sum_t det(V†[s, t]) c(t), the minor rule of Löwdin (Phys. Rev.
    97, 1474, 1955), summed over source determinants t in ascending mask
    order.  Columns that do not span the state lose weight, which the norm
    check rejects.  A target set whose arrays would exceed
    ROTATION_BUDGET_BYTES is refused before anything is allocated.
    """
    d, n = psi.space.d, psi.n
    v = np.asarray(orbitals, dtype=complex)
    if v.ndim != 2 or v.shape[0] != d or v.shape[1] > d:
        raise ValueError(f"orbital matrix shape {v.shape} does not fit d={d}")
    k = v.shape[1]
    count = math.comb(k, n)
    need = count * (8 * n + 24)  # orbital indices, mask and amplitude per target
    if need > ROTATION_BUDGET_BYTES:
        raise ValueError(
            f"rotation too large: C({k}, {n}) = {count} target determinants "
            f"over {k} active orbitals need {need} B, above {ROTATION_BUDGET_BYTES} B"
        )
    targets, masks = subset_masks(k, n)

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
