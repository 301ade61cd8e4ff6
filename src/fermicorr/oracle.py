"""The brute-force Fock-space overlap, used by tests and the `oracle` command.

`overlap_oracle` is the one brute-force route to corr_pure's overlap
(corr_pure's value is -log of it).  `natural_fock_vector` expands the
state on every natural-orbital determinant, as an explicit 2^d vector,
by rotated ladder operators applied as gathers over the sector tables of
`fock.sector_ladders`, which checks the dimension cap; the quasifree
reference then weighs the patterns of the state's sector.
The code deliberately avoids the kernels of the fast path (rotate_ci's
adjacent-pair Givens rotations of the CI vector and its minor
determinants), and the fast path imports nothing from here, so agreement
between the two routes is evidence rather than tautology.
"""

from __future__ import annotations

import math

import numpy as np

from .fock import sector_ladders
from .natural_orbitals import diagonalize
from .quasifree import QuasifreeSpec, pattern_probabilities
from .wavefunction import CIWavefunction, one_pdm, unit_norm2


def _grow(vectors: np.ndarray, end: int, levels):
    """Apply one more rotated ladder operator per level to a family of
    vectors, each the image of one set of orbitals.

    `vectors` holds the start vector as its only row, and `end` bounds its
    empty set: d when the family grows downwards (each new orbital below
    the set's orbitals), -1 when it grows upwards.  Each level is
    (W, (orbital, sign, source), orbs): for each i in orbs, the operator of
    column i of W acts as sum_j W[orbital[t, j], i] sign[t, j]
    parent[source[t, j]] on row t of the next sector, on every parent
    whose orbitals lie on the growing side of i.  Returns the last level's
    vectors, masks and new orbitals, ordered by new orbital.
    """
    masks, ends = np.zeros(1, dtype=np.intp), np.array([end])
    down = end >= 0
    for columns, (orbital, sign, source), orbs in levels:
        gathered = vectors[:, source]
        cuts = np.searchsorted(ends, orbs, side="right" if down else "left")
        kids, kid_masks = [], []
        for i, cut in zip(orbs, cuts):
            parents = slice(cut, None) if down else slice(0, cut)
            kids.append(np.einsum("ctj,tj->ct", gathered[parents], columns[:, i][orbital] * sign))
            kid_masks.append(masks[parents] | 1 << i)
        ends = np.repeat(orbs, [kid.shape[0] for kid in kids])
        vectors, masks = np.concatenate(kids), np.concatenate(kid_masks)
    return vectors, masks, ends


def natural_fock_vector(psi: CIWavefunction, orbitals: np.ndarray) -> np.ndarray:
    """Coefficients of a CI state on determinants of rotated orbitals.

    Entry s of the result is <a†_{i1} ... a†_{in} 0, psi> for the orbital
    columns i1 < ... < in of s (a†_i creating along column i); only patterns
    in the state's particle-number sector can be nonzero.  The inner product
    is met in the middle: with h = n // 2 it equals
    <a†_{i(h+1)} ... a†_{in} 0, a_{ih} ... a_{i1} psi>.  The "top" vectors
    on the left of that pairing are built from the vacuum by rotated
    creations, the "bottom" vectors on the right from psi by rotated
    annihilations a_i = sum_q conj(V[q, i]) a_q, each level a gather over
    `fock.sector_ladders` that forms only the children the remaining
    orbitals can still complete.  Both end in sector n - h, where the
    bottoms of each highest orbital b meet every top of lowest orbital
    above b in one matrix product.
    """
    d, n = psi.space.d, psi.n
    orbitals = np.asarray(orbitals, dtype=complex)
    masks, raising, lowering = sector_ladders(d)
    h = n // 2
    start = np.zeros((1, masks[n].size), dtype=complex)
    start[0, np.searchsorted(masks[n], psi.masks.astype(np.intp))] = psi.coeffs
    # tops take orbitals in [h, d), bottoms orbitals in [0, d - n + h)
    t_vecs, t_masks, t_low = _grow(np.ones((1, 1), dtype=complex), d, [
        (orbitals, raising[k], np.arange(n - k, d - k + 1)) for k in range(1, n - h + 1)])
    b_vecs, b_masks, b_high = _grow(start, -1, [
        (orbitals.conj(), lowering[n - k], np.arange(k - 1, d - n + k)) for k in range(1, h + 1)])
    t_vecs = t_vecs.conj()
    out = np.zeros(1 << d, dtype=complex)
    highest, first = np.unique(b_high, return_index=True)
    above = np.searchsorted(t_low, highest, side="right")
    for lo, hi, top in zip(first, [*first[1:], b_high.size], above):
        out[t_masks[top:, None] | b_masks[lo:hi]] = t_vecs[top:] @ b_vecs[lo:hi].T
    return out


def overlap_oracle(psi: CIWavefunction) -> float:
    """<psi, rho psi> with rho the quasifree reference sharing psi's gamma,
    for psi / |psi| (the norm must be 1 to within limits.NORM_TOL).

    Runs entirely through explicit Fock-space algebra: the state is
    rotated into the natural-orbital Fock basis operator by operator and
    weighted by the diagonal of rho, `pattern_probabilities`, on the
    C(d, n) patterns of psi's sector, the only ones it reaches.
    """
    norm2 = unit_norm2(psi)
    basis = diagonalize(one_pdm(psi).gamma / norm2)
    coeffs = natural_fock_vector(psi, basis.vectors)
    masks = sector_ladders(psi.space.d)[0][psi.n]
    weights = pattern_probabilities(QuasifreeSpec(basis.occupations), masks) * np.abs(coeffs[masks]) ** 2
    return math.fsum(weights.tolist()) / norm2
