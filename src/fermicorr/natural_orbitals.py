"""Natural orbitals: diagonalizing gamma and re-expressing CI states."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import limits
from .fock import occupation_matrix, subset_masks
from .wavefunction import CIWavefunction, OnePDM

MINOR_BLOCK_ENTRIES = 1 << 20  # complex entries of the minor stack np.linalg.det gets at once


@dataclass
class NaturalOrbitalBasis:
    """Eigenbasis of a one-particle density matrix.

    Column i of `vectors` is natural orbital i expressed in the
    computational basis; `occupations` holds the matching eigenvalues,
    sorted descending and clipped to [0, 1].
    """

    vectors: np.ndarray
    occupations: np.ndarray


def diagonalize(gamma: Union[OnePDM, np.ndarray]) -> NaturalOrbitalBasis:
    """Validate gamma and take its Hermitian eigendecomposition, with a
    deterministic convention.

    This is the one place gamma is checked: it must be finite and Hermitian
    to within limits.HERMITICITY_TOL, and eigenvalues more than
    limits.EIGENVALUE_TOL outside [0, 1] are rejected.  Values inside are
    clipped to [0, 1] and sorted descending (stable).  Each eigenvector is
    rescaled so its first component above limits.PHASE_FLOOR is real
    positive (a unit vector always has one of size >= 1/sqrt(d)); the basis
    chosen inside a degenerate block is otherwise the eigensolver's.
    """
    g = gamma.gamma if isinstance(gamma, OnePDM) else np.asarray(gamma, dtype=complex)
    if not np.all(np.isfinite(g)):
        raise ValueError("gamma has non-finite entries")
    asymmetry = float(np.max(np.abs(g - g.conj().T)))
    if asymmetry > limits.HERMITICITY_TOL:
        limits.refuse(f"gamma is not Hermitian to {asymmetry:.3e}", "HERMITICITY_TOL")
    w, v = np.linalg.eigh(g)
    margin = limits.EIGENVALUE_TOL
    outside = w[(w < -margin) | (w > 1.0 + margin)]
    if outside.size:
        limits.refuse(f"invalid occupation: eigenvalue {outside[0]!s} outside [0, 1]", "EIGENVALUE_TOL")
    order = np.argsort(-w, kind="stable")
    w = np.clip(w[order], 0.0, 1.0)
    v = v[:, order]
    cols = np.arange(v.shape[1])
    ref = v[np.argmax(np.abs(v) > limits.PHASE_FLOOR, axis=0), cols]
    return NaturalOrbitalBasis(v * (ref.conj() / np.abs(ref)), w)


def _active_orbitals(v: np.ndarray) -> np.ndarray:
    """The orbitals the Givens route rotates, ascending.

    The lightest rows of V are dropped while their squared weights sum to at
    most limits.DROPPED_WEIGHT; this moves V†V on the kept rows from the
    identity, and the amplitudes from the minor rule, by no more than that
    sum.  A state in the span of the targets has gamma_pp at most the row
    weight of p, so the determinants that hold dropped orbitals weigh at
    most the dropped sum, and the Givens route leaves them out; for any
    other state the norm check sees the weight lost.
    """
    weight = np.sum(np.abs(v) ** 2, axis=1)
    order = np.argsort(weight, kind="stable")
    dropped = np.searchsorted(np.cumsum(weight[order]), limits.DROPPED_WEIGHT, side="right")
    return np.sort(order[dropped:])


def _givens_need(r: int, n: int) -> int:
    """Bytes of the Givens route's arrays over r active orbitals."""
    count = math.comb(r, n)
    paired = math.comb(r - 2, n - 1) if r >= 2 and n >= 1 else 0  # holders of p, not p+1
    # per sector determinant: its mask and amplitude, their copies in the
    # result, and the scratch of one partner scan (48 B); per holder of p
    # but not p + 1: its int32 index and its partner's for each of the
    # r - 1 adjacent pairs, and the index and complex temporaries of one
    # rotation (96 B)
    return count * 48 + paired * (8 * (r - 1) + 96)


def _adjacent_givens(b: np.ndarray) -> tuple[list[int], np.ndarray, list[complex]]:
    """Reduce an r x k matrix with orthonormal columns to a diagonal of
    phases over zeros, H_m ... H_1 b = [diag(phase); 0].

    Column by column, b[j, i] is zeroed from the bottom up by a rotation h
    of the adjacent rows (j - 1, j) with det h = 1; a zero entry needs no
    rotation.  Returns the upper row p = j - 1 of each rotation, the 2 x 2
    matrices h in the order they apply, and the k phases.  The rows are
    short, so this runs in plain Python.
    """
    rows, pairs, mixers = b.tolist(), [], []
    r, k = b.shape
    for i in range(k):
        for j in range(r - 1, i, -1):
            x, y = rows[j - 1][i], rows[j][i]
            if y == 0:
                continue
            rho = math.hypot(x.real, x.imag, y.real, y.imag)
            h00, h01, h10, h11 = x.conjugate() / rho, y.conjugate() / rho, -y / rho, x / rho
            upper, lower = rows[j - 1], rows[j]
            for c in range(i, k):
                u, w = upper[c], lower[c]
                upper[c], lower[c] = h00 * u + h01 * w, h10 * u + h11 * w
            pairs.append(j - 1)
            mixers.append(((h00, h01), (h10, h11)))
    return pairs, np.array(mixers, dtype=complex), [rows[i][i] for i in range(k)]


def _rotate_givens(
    psi: CIWavefunction, v: np.ndarray, active: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Target masks and amplitudes by adjacent-pair rotations of the C(r, n)
    sector over the r active orbitals (see rotate_ci)."""
    n, k, r = psi.n, v.shape[1], active.size
    b = v[active]
    drift = float(np.max(np.abs(b.conj().T @ b - np.eye(k)), initial=0.0))
    if drift > limits.UNITARITY_TOL:
        limits.refuse(f"rotation not unitary: targets orthonormal to {drift:.3e}", "UNITARITY_TOL")
    pairs, mixers, phases = _adjacent_givens(b)

    sector = subset_masks(r, n)
    # a zero amplitude may sit on orbitals left out of r, and so may the
    # negligible determinants on a dropped orbital (see _active_orbitals)
    outside = ~np.bitwise_or.reduce(np.uint64(1) << active.astype(np.uint64))
    held = psi.coeffs != 0
    if np.bitwise_or.reduce(psi.masks[held]) & outside:
        held &= psi.masks & outside == 0
    masks, coeffs = psi.masks[held], psi.coeffs[held]
    source = np.zeros(masks.size, dtype=np.uint64)  # bit i for orbital active[i]
    for i, p in enumerate(active.tolist()):
        source |= ((masks >> np.uint64(p)) & np.uint64(1)) << np.uint64(i)
    amps = np.zeros(sector.size, dtype=complex)
    amps[np.searchsorted(sector, source)] = coeffs
    # p: indices of [the determinants holding p but not p + 1; those holding
    # p + 1 but not p].  Adding 2^p maps the first set onto the second in
    # ascending order, so row 1 lists each partner of row 0 in place.
    partners: dict[int, np.ndarray] = {}
    for p, h in zip(pairs, mixers):
        if p not in partners:
            code = sector >> np.uint64(p)
            code &= np.uint64(3)
            held = [np.flatnonzero(code == 1), np.flatnonzero(code == 2)]
            partners[p] = np.array(held, dtype=np.int32)
        pair = partners[p].astype(np.intp)
        amps[pair] = h @ amps[pair]
    del partners  # before the result is copied out and phased

    m = math.comb(k, n)
    masks, amps = sector[:m].copy(), amps[:m].copy()
    for i, phase in enumerate(phases):
        if phase != 1:
            amps[(masks >> np.uint64(i)) & np.uint64(1) == 1] *= phase.conjugate()
    return masks, amps


def _rotate_minors(psi: CIWavefunction, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Target masks and amplitudes by the minor rule, one n x n determinant
    per (target, source) pair, a block of targets at a time."""
    n, k = psi.n, v.shape[1]
    masks = subset_masks(k, n)
    vh = v.conj().T
    # np.linalg.det scales by 1/pivot, which overflows on a subnormal pivot
    # and returns nan; entries that small move no amplitude
    vh[np.abs(vh) < np.finfo(float).tiny] = 0.0
    sources = np.nonzero(occupation_matrix(psi.masks, v.shape[0]))[1].reshape(psi.masks.size, n)
    block = max(1, MINOR_BLOCK_ENTRIES // max(n * n, 1))
    amps = np.zeros(masks.size, dtype=complex)
    for start in range(0, masks.size, block):
        rows = masks[start : start + block]
        rows = np.nonzero(occupation_matrix(rows, k))[1].reshape(rows.size, n)
        for cols, c in zip(sources, psi.coeffs):
            amps[start : start + block] += np.linalg.det(vh[:, cols][rows]) * c
    return masks, amps


def rotate_ci(psi: CIWavefunction, orbitals: np.ndarray) -> CIWavefunction:
    """Re-express a CI state in the determinant basis of k target orbitals.

    `orbitals` is a d x k matrix V whose columns are the target orbitals in
    the computational basis (k = d is a full rotation); bit j of a result
    mask stands for column j.  The result holds every n-subset s of the
    columns, in ascending mask order, with c'(s) = sum_t det(V†[s, t]) c(t)
    (Löwdin, Phys. Rev. 97, 1474 (1955)).  Two routes compute it, and the
    one with the smaller estimated cost runs:

    - Minors evaluate the rule as written: N C(k, n) determinants of size
      n x n for N source determinants.
    - Givens rotations transform the CI vector sequentially (Malmqvist,
      Int. J. Quantum Chem. 30, 479 (1986)) over the r orbitals that the
      columns weigh on (see _active_orbitals), relabelled in increasing
      order, which keeps every sign.  Rotations h of adjacent rows
      (p, p+1) with det h = 1 (Kivlichan et al., PRL 120, 110501 (2018))
      reduce V on those rows to a diagonal of phases over
      zeros, H_m ... H_1 V = [diag(phase); 0] with m <= k(r-1) (see
      _adjacent_givens), so that V† = [diag(phase)* | 0] H_m ... H_1.  The
      CI vector of the C(r, n) sector is rotated by H_1 first: h mixes each
      determinant that holds p but not p+1 with its partner, the one that
      holds p+1 but not p (mask + 2^p).  No orbital lies between p and
      p+1, so the pair carries no sign, and det h = 1 leaves the
      determinants that hold both as they are.  The determinants of the
      first k orbitals sort first in the sector; each is multiplied by the
      conjugate phases of its orbitals.  V on the active rows must have
      orthonormal columns to within limits.UNITARITY_TOL.

    Givens work grows with C(r, n) and minor work with N C(k, n), so
    minors win when the state spreads over more orbitals than it has
    targets (r > k) and its determinants are few for that spread.
    Columns that do not span the state lose weight, which the norm check
    rejects.  A target set whose minor-route arrays would exceed
    limits.ROTATION_BUDGET_BYTES is refused before anything is allocated, and
    Givens runs only when its own arrays fit the budget.
    """
    d, n = psi.space.d, psi.n
    v = np.asarray(orbitals, dtype=complex)
    if v.ndim != 2 or v.shape[0] != d or v.shape[1] > d:
        raise ValueError(f"orbital matrix shape {v.shape} does not fit d={d}")
    k = v.shape[1]
    count = math.comb(k, n)
    block = max(1, min(count, MINOR_BLOCK_ENTRIES // max(n * n, 1)))
    # mask and amplitude per target; one block's occupation, index and minor stacks
    need = count * 24 + block * (k + 24 * n + 32 * n * n)
    if need > limits.ROTATION_BUDGET_BYTES:
        size = f"C({k}, {n}) = {count} target determinants over {k} active orbitals"
        limits.refuse(f"rotation too large: {size} need {need} B", "ROTATION_BUDGET_BYTES")
    active = _active_orbitals(v)
    r = active.size
    # estimated microseconds on one core: a numpy call on a short array
    # costs 8-15 us, an amplitude update of one rotation 8 ns (each of at
    # most k(r-1) - k(k-1)/2 rotations moves 2 C(r-2, n-1) amplitudes, and
    # each of r - 1 partner scans reads the sector), a minor 30 + 50 n² ns
    rotations = k * (r - 1) - k * (k - 1) // 2
    moved = 2 * rotations * n * (r - n) / max(r * (r - 1), 1)
    givens_us = 8 * (rotations + r) + 0.008 * math.comb(r, n) * (r + moved)
    minors_us = psi.masks.size * (15 * -(-count // block) + count * (0.03 + 0.05 * n * n))
    if givens_us <= minors_us and _givens_need(r, n) <= limits.ROTATION_BUDGET_BYTES:
        masks, amps = _rotate_givens(psi, v, active)
    else:
        masks, amps = _rotate_minors(psi, v)
    total = float(np.vdot(amps, amps).real)  # one pass, no temporary array
    if not abs(total - 1.0) <= limits.UNITARITY_TOL:  # nan included
        limits.refuse(f"rotation not unitary: rotated norm² = {total!r}", "UNITARITY_TOL")
    return CIWavefunction.from_arrays(psi.space, n, masks, amps)
