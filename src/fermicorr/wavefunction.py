"""CI expansions of pure states and the one-particle density matrix.

A CI vector is held as two arrays: the occupation masks of its
determinants (uint64, strictly ascending) and their amplitudes.  Every
kernel reads those arrays; the {Determinant: amplitude} mapping is only
a constructor argument and a read-only view.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import limits
from .fock import Determinant, OrbitalSpace, occupation_matrix, sign_below


class CIWavefunction:
    """Sparse determinant expansion of a fixed-particle-number pure state.

    Built from a {Determinant: amplitude} mapping with finite amplitudes
    whose every key occupies exactly `n` orbitals inside `space`, and stored
    as `masks` (uint64, ascending) and `coeffs` (complex).  Instances are
    immutable values.
    """

    def __init__(self, space: OrbitalSpace, n: int, amplitudes: Mapping[Determinant, complex]):
        if not 0 <= n <= space.d:
            raise ValueError(f"particle count {n} outside [0, {space.d}]")
        if not amplitudes:
            raise ValueError("wavefunction needs at least one amplitude")
        for det in amplitudes:
            if not space.contains(det):
                raise ValueError(f"{det!r} does not fit in {space.d} orbitals")
            if det.particle_count != n:
                raise ValueError(
                    f"sector mismatch: {det!r} has {det.particle_count} particles, expected {n}"
                )
        dets = sorted(amplitudes)
        masks = np.array([det.mask for det in dets], dtype=np.uint64)
        coeffs = np.array([complex(amplitudes[det]) for det in dets], dtype=complex)
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("amplitudes must be finite")
        self._set(space, n, masks, coeffs)

    @classmethod
    def from_arrays(
        cls, space: OrbitalSpace, n: int, masks: np.ndarray, coeffs: np.ndarray
    ) -> "CIWavefunction":
        """A state from kernel output: `masks` strictly ascending, each with n
        bits below bit space.d, one amplitude per mask.  Not revalidated."""
        psi = cls.__new__(cls)
        psi._set(space, n, np.asarray(masks, dtype=np.uint64), np.asarray(coeffs, dtype=complex))
        return psi

    def _set(self, space: OrbitalSpace, n: int, masks: np.ndarray, coeffs: np.ndarray):
        masks.flags.writeable = False
        coeffs.flags.writeable = False
        self.space, self.n, self.masks, self.coeffs = space, n, masks, coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, CIWavefunction):
            return NotImplemented
        return (
            (self.space, self.n) == (other.space, other.n)
            and np.array_equal(self.masks, other.masks)
            and np.array_equal(self.coeffs, other.coeffs)
        )

    @property
    def amplitudes(self) -> Mapping[Determinant, complex]:
        """Read-only {Determinant: amplitude} view of the two arrays."""
        return _AmplitudeView(self)

    def amplitude(self, det: Determinant) -> complex:
        return self.amplitudes.get(det, 0.0 + 0.0j)

    def norm(self) -> float:
        """sqrt(sum |c|²), summed over the amplitudes of _scaled."""
        return math.ldexp(*_scaled(self.coeffs)[1:])

    def items_sorted(self) -> list[tuple[Determinant, complex]]:
        """Amplitudes in ascending determinant-mask order (deterministic sums)."""
        return list(zip(map(Determinant, self.masks.tolist()), self.coeffs.tolist()))


class _AmplitudeView(Mapping):
    def __init__(self, psi: CIWavefunction):
        self._psi = psi

    def __len__(self) -> int:
        return self._psi.masks.size

    def __iter__(self) -> Iterator[Determinant]:
        return map(Determinant, self._psi.masks.tolist())

    def __getitem__(self, det: Determinant) -> complex:
        psi = self._psi
        if isinstance(det, Determinant) and psi.space.contains(det):
            i = int(np.searchsorted(psi.masks, np.uint64(det.mask)))
            if i < psi.masks.size and int(psi.masks[i]) == det.mask:
                return complex(psi.coeffs[i])
        raise KeyError(det)


@dataclass
class OnePDM:
    """One-particle density matrix gamma with gamma[p, q] = <a†_q a_p>.

    With this index convention gamma acts on single-particle column
    vectors: <g, gamma f> is the two-point function of creation along f
    and annihilation along g.  Construction checks only the shape;
    Hermiticity and the [0, 1] eigenvalue window are checked by
    `natural_orbitals.diagonalize`.  The trace (n |psi|² for one_pdm(psi))
    is not checked.
    """

    gamma: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=complex)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError(f"gamma must be square, got shape {g.shape}")
        self.gamma = g


def _scaled(coeffs: np.ndarray) -> tuple[np.ndarray, float, int]:
    """(c 2^-e, |c 2^-e|, e), with e the exponent of max |c|: the scaling is
    exact, and the squares of a finite, nonzero state neither overflow nor
    all underflow."""
    exponent = math.frexp(float(np.abs(coeffs).max(initial=0.0)))[1]
    scaled = np.ldexp(np.ascontiguousarray(coeffs).view(float), -exponent).view(complex)
    return scaled, math.sqrt(math.fsum((np.abs(scaled) ** 2).tolist())), exponent


def normalize(psi: CIWavefunction) -> CIWavefunction:
    """Rescale by a single positive factor so the norm is 1, dividing at the
    scale of _scaled: a subnormal norm, whose reciprocal overflows, is never
    formed, and a normal one gives psi / norm to the bit."""
    scaled, root, _ = _scaled(psi.coeffs)
    if root == 0.0:
        raise ValueError("null state: all amplitudes vanish")
    return CIWavefunction.from_arrays(psi.space, psi.n, psi.masks, scaled / root)


def unit_norm2(psi: CIWavefunction) -> float:
    """|psi|², in one pass over the amplitudes, after checking that |psi| is 1
    to within limits.NORM_TOL."""
    norm2 = float(np.vdot(psi.coeffs, psi.coeffs).real)
    if not abs(math.sqrt(norm2) - 1.0) <= limits.NORM_TOL:
        limits.refuse(f"state norm {math.sqrt(norm2)!r} is not 1", "NORM_TOL")
    return norm2


def inner_product(a: CIWavefunction, b: CIWavefunction) -> complex:
    """<a, b> over the shared determinant basis (conjugate on the bra)."""
    if a.space != b.space or a.n != b.n:
        raise ValueError("sector mismatch: states live in different sectors")
    _, ia, ib = np.intersect1d(a.masks, b.masks, assume_unique=True, return_indices=True)
    return complex(np.vdot(a.coeffs[ia], b.coeffs[ib]))


def one_pdm(psi: CIWavefunction) -> OnePDM:
    """gamma[p, q] = <psi| a†_q a_p |psi> = sum_h A[h, p] conj(A[h, q]).

    A[h, p] = <h| a_p |psi> is the amplitude of the (n-1)-particle hole
    determinant h; a_p removes orbital p from each determinant that
    occupies it, with sign (-1)^(occupied below p).  The trace is
    n |psi|², so it is left to the callers that need a normalized state
    to check the norm (see unit_norm2).
    """
    occ = occupation_matrix(psi.masks, psi.space.d)
    det_index, orbital = np.nonzero(occ)
    terms = psi.coeffs[det_index] * sign_below(occ, axis=1)[det_index, orbital]
    bits = np.left_shift(np.uint64(1), orbital.astype(np.uint64))
    holes, row = np.unique(psi.masks[det_index] ^ bits, return_inverse=True)
    a = np.zeros((holes.size, psi.space.d), dtype=complex)
    a[row, orbital] = terms
    return OnePDM(a.T @ a.conj())
