"""Natural orbitals: diagonalizing gamma and re-expressing CI states."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import limits
from .fock import occupation_matrix, relabel_masks, subset_masks
from .wavefunction import CIWavefunction, OnePDM

MINOR_BLOCK_ENTRIES = 1 << 20  # complex entries of a minor stack
_Rotated = tuple[np.ndarray, np.ndarray]  # target masks and amplitudes of a rotate_ci route


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
    rescaled so that its first component of weight |v_p|² at least
    limits.OCCUPATION_FLOOR is real positive (a unit vector always has one
    of weight >= 1/d); the basis chosen inside a degenerate block is
    otherwise the eigensolver's.
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
    ref = v[np.argmax(np.abs(v) ** 2 >= limits.OCCUPATION_FLOOR, axis=0), cols]
    return NaturalOrbitalBasis(v * (ref.conj() / np.abs(ref)), w)


def last_rows(m: np.ndarray) -> np.ndarray:
    """The row of each column's last exactly nonzero entry."""
    return (m.shape[0] - 1) - (m[::-1] != 0).argmax(axis=0)


def _givens_reach(b: np.ndarray) -> tuple[int, int]:
    """Upper bounds on the rotations and on the distinct pairs (p, p+1)
    that _adjacent_givens(b) takes, read from b's zero pattern.

    L_i, the largest last nonzero row of columns 0..i, bounds the rows that
    column i can reach once the rotations of the columns before it have
    filled in, so column i takes at most L_i - i rotations, on the pairs
    p in [i, L_i - 1].  L_i >= i, as columns 0..i are independent, so the
    pairs below k - 1 are those with L_p > p, and the rest number
    L_(k-1) - (k - 1).  A dense b gives k(r-1) - k(k-1)/2 and r - 1, and
    the identity none.
    """
    k = b.shape[1]
    if k == 0:
        return 0, 0
    above = np.maximum.accumulate(last_rows(b)) - np.arange(k)  # L_i - i
    return int(above.sum()), int(np.count_nonzero(above[:-1]) + above[-1])


def _givens_need(r: int, n: int, pairs: int) -> int:
    """Bytes of the Givens route's arrays over r active orbitals, when its
    rotations act on `pairs` distinct pairs (p, p+1) (see _givens_reach)."""
    paired = math.comb(r - 2, n - 1) if r >= 2 and n >= 1 and pairs else 0  # holders of p, not p+1
    # per sector determinant: the route's mask and amplitude (24 B), scan and phase
    # scratch, the prefix copy if r > k, then corr's rotated arrays, √p and X (48 B
    # for one component); per holder of p, not p + 1: int32 pair indices, scratch
    return math.comb(r, n) * 48 + paired * (8 * pairs + 96)


def _adjacent_givens(b: np.ndarray) -> tuple[list[int], np.ndarray, list[complex]]:
    """Reduce an r x k matrix with orthonormal columns to a diagonal of
    phases over zeros, H_m ... H_1 b = [diag(phase); 0].

    Column by column, b[j, i] is zeroed from the bottom up by a rotation h
    of the adjacent rows (j - 1, j) with det h = 1; a zero entry needs no
    rotation.  Returns the upper row p = j - 1 of each rotation, the 2 x 2
    matrices h in the order they apply, and the k phases.  An (x, y) of
    norm below 2^-500 is first scaled by 2^600, exactly, so that h stays
    unitary when x and y are subnormal and carry few bits.  The rows are
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
            if rho < 2.0**-500:
                x, y = x * 2.0**600, y * 2.0**600
                rho = math.hypot(x.real, x.imag, y.real, y.imag)
            h00, h01, h10, h11 = x.conjugate() / rho, y.conjugate() / rho, -y / rho, x / rho
            upper, lower = rows[j - 1], rows[j]
            for c in range(i, k):
                u, w = upper[c], lower[c]
                upper[c], lower[c] = h00 * u + h01 * w, h10 * u + h11 * w
            pairs.append(j - 1)
            mixers.append(((h00, h01), (h10, h11)))
    return pairs, np.array(mixers, dtype=complex), [rows[i][i] for i in range(k)]


def _rotate_givens(source: np.ndarray, coeffs: np.ndarray, n: int, b: np.ndarray) -> _Rotated:
    """Rotate the CI vector of the C(r, n) sector (Malmqvist, Int. J. Quantum
    Chem. 30, 479 (1986)) by H_1 ... H_m, where b† = [diag(phase)* | 0]
    H_m ... H_1 (see _adjacent_givens): h of rows (p, p+1) mixes each
    determinant that holds p but not p+1 with its partner (mask + 2^p), with
    no sign between them, and det h = 1 keeps the holders of both.  The
    first C(k, n) determinants then take their orbitals' conjugate phases.
    """
    r, k = b.shape
    pairs, mixers, phases = _adjacent_givens(b)
    sector = subset_masks(r, n)
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
    del partners  # before the targets are phased

    m = math.comb(k, n)  # the targets lead the sector, and are all of it when r = k
    masks, amps = (sector, amps) if m == sector.size else (sector[:m].copy(), amps[:m].copy())
    for i, phase in enumerate(phases):
        if phase != 1:
            amps[(masks >> np.uint64(i)) & np.uint64(1) == 1] *= phase.conjugate()
    return masks, amps


def _minor_plan(targets: int, sources: int, n: int) -> tuple[int, int]:
    """(sources per chunk, targets per block) whose minors fit MINOR_BLOCK_ENTRIES."""
    chunk = max(1, min(sources, MINOR_BLOCK_ENTRIES // max(n * n, 1)))
    return chunk, max(1, min(targets, MINOR_BLOCK_ENTRIES // max(chunk * n * n, 1)))


def _rotate_minors(source: np.ndarray, coeffs: np.ndarray, n: int, b: np.ndarray) -> _Rotated:
    """The minor rule: the n x n minors of a block of targets against a chunk
    of sources go to one np.linalg.det call, and one product contracts them
    with the amplitudes."""
    r, k = b.shape
    masks = subset_masks(k, n)
    vh = b.conj().T
    # np.linalg.det scales by 1/pivot, which overflows on a subnormal pivot
    # and returns nan; the product of two entries of at least sqrt(tiny)
    # (1.5e-154) stays normal, and smaller entries move no amplitude
    vh[np.abs(vh) < math.sqrt(np.finfo(float).tiny)] = 0.0
    cols = np.nonzero(occupation_matrix(source, r))[1].reshape(source.size, 1, n)
    chunk, block = _minor_plan(masks.size, source.size, n)
    amps = np.zeros(masks.size, dtype=complex)
    for start in range(0, masks.size, block):
        rows = masks[start : start + block]
        # (targets, 1, n, 1) against (sources, 1, n): entry [t, s, a, b] of
        # the stack is V†[row a of target t, column b of source s]
        rows = np.nonzero(occupation_matrix(rows, k))[1].reshape(rows.size, 1, n, 1)
        for j in range(0, source.size, chunk):
            minors = np.linalg.det(vh[rows, cols[j : j + chunk]])
            amps[start : start + block] += minors @ coeffs[j : j + chunk]
    return masks, amps


def rotate_ci(psi: CIWavefunction, orbitals: np.ndarray) -> CIWavefunction:
    """Re-express a CI state in the determinant basis of k target orbitals.

    `orbitals` is a d x k matrix V whose columns are the target orbitals in
    the computational basis (k = d is a full rotation); bit j of a result
    mask stands for column j.  The result holds every n-subset s of the
    columns, in ascending mask order, with c'(s) = sum_t det(V†[s, t]) c(t)
    (Löwdin, Phys. Rev. 97, 1474 (1955)).

    Both routes take one input, prepared here: B, the rows of V on the r
    orbitals p whose weight on the targets, sum_i |V_pi|², is at least
    limits.OCCUPATION_FLOOR, with columns orthonormal to within
    limits.UNITARITY_TOL, and the N determinants of nonzero amplitude on
    those orbitals, compressed onto them by fock.relabel_masks, bit i
    standing for the i-th of them (which keeps every sign; one shift and one
    mask per gap-free run of them).  corr's states arrive already compressed
    onto the orbitals they vary on, so there the r orbitals are mostly one
    run.  The rows left out weigh less than d times the floor together; a
    state in the span of the targets has gamma_pp at most the row weight of
    p, so the determinants that hold a left-out orbital weigh no more, and
    are left out too.  The cheaper by estimate runs: the minor rule
    as written, N C(k, n) n x n determinants (_rotate_minors), or Givens
    rotations of the C(r, n) sector (_rotate_givens); minors win when the
    state spreads over more orbitals than it has targets (r > k) and has few
    determinants.  Givens is costed and sized by the rotations and pairs
    that B's zero pattern allows (_givens_reach): targets ordered by their
    last nonzero row, as corr orders them, take rotations only inside
    gamma's blocks, and the identity takes none.  A route runs only if its
    arrays, counted before they are allocated, fit
    limits.ROTATION_BUDGET_BYTES; a rotation that fits neither is refused.
    No normalization is assumed: the rotation must keep the norm² it is
    given to within limits.UNITARITY_TOL, so columns that do not span the
    state lose weight, which the check rejects.
    """
    d, n = psi.space.d, psi.n
    v = np.asarray(orbitals, dtype=complex)
    if v.ndim != 2 or v.shape[0] != d or v.shape[1] > d:
        raise ValueError(f"orbital matrix shape {v.shape} does not fit d={d}")
    k, active = v.shape[1], np.flatnonzero(np.sum(np.abs(v) ** 2, axis=1) >= limits.OCCUPATION_FLOOR)
    r, b = active.size, v[active]
    drift = float(np.max(np.abs(b.conj().T @ b - np.eye(k)), initial=0.0))
    if drift > limits.UNITARITY_TOL:
        limits.refuse(f"rotation not unitary: targets orthonormal to {drift:.3e}", "UNITARITY_TOL")
    # a zero amplitude may sit on orbitals left out of r, and so may the
    # negligible determinants on a left-out orbital
    outside = ~np.bitwise_or.reduce(np.uint64(1) << active.astype(np.uint64))
    held = (psi.coeffs != 0) & (psi.masks & outside == 0)
    source, coeffs = relabel_masks(psi.masks[held], active), psi.coeffs[held]
    count, sources = math.comb(k, n), source.size
    chunk, block = _minor_plan(count, sources, n)
    # bytes: |V|², B and V† (or B's rows as Python lists); minor route: per
    # target, source and minor
    front = 16 * d * k + 32 * r * k
    need = front + count * 24 + (sources + block) * (17 * r + 16 * n + 32)
    need += block * chunk * (16 * n * n + 8 * n + 32)
    rotations, pairs = _givens_reach(b)
    givens_need = front + _givens_need(r, n, pairs)
    minors_fit, givens_fit = (x <= limits.ROTATION_BUDGET_BYTES for x in (need, givens_need))
    if not (minors_fit or givens_fit):
        size = f"C({k}, {n}) = {count} target determinants over {k} active orbitals"
        limits.refuse(f"rotation too large: {size} need {need} B", "ROTATION_BUDGET_BYTES")
    # estimated microseconds on one core: a numpy call on a short array
    # costs 8-15 us, an amplitude update of one rotation 8 ns (each of the
    # rotations _givens_reach bounds moves 2 C(r-2, n-1) amplitudes, and the
    # sector build and each pair's partner scan read the sector), a minor
    # 30 + 50 n² ns
    moved = 2 * rotations * n * (r - n) / max(r * (r - 1), 1)
    givens_us = 8 * (rotations + pairs + 1) + 0.008 * math.comb(r, n) * (pairs + 1 + moved)
    calls = -(-count // block) * -(-sources // chunk)
    minors_us = 15 * calls + sources * count * (0.03 + 0.05 * n * n)
    givens = givens_fit and (givens_us <= minors_us or not minors_fit)
    masks, amps = (_rotate_givens if givens else _rotate_minors)(source, coeffs, n, b)
    total, given = (float(np.vdot(c, c).real) for c in (amps, psi.coeffs))  # no temporary array
    if not abs(total - given) <= limits.UNITARITY_TOL:  # nan included
        limits.refuse(f"rotation not unitary: norm² {given!r} became {total!r}", "UNITARITY_TOL")
    return CIWavefunction.from_arrays(psi.space, n, masks, amps)
