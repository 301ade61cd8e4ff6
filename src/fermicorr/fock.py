"""Bitstring determinants and fermionic ladder-operator algebra.

A determinant over d spin-orbitals is stored as an integer bitmask
(bit p set means orbital p is occupied, 0-based).  The reference phase
of every determinant is fixed by applying creation operators in
increasing orbital order, which makes all signs below deterministic.

`ladder_table` lists every ladder operator on the explicit 2^d Fock
space as index/sign arrays.  It is the only ladder-operator builder:
every brute-force path and the Hubbard Hamiltonian build on it, and it
is each one's first 2^d allocation, so it alone checks the dimension cap
`limits.MAX_ORACLE_DIM`.  Array kernels read a CI vector's sorted uint64 mask
array through `occupation_matrix`; `subset_masks` is the one n-subset
enumerator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import limits


@dataclass(frozen=True, order=True)
class Determinant:
    """Occupation bitmask; hashable, ordered by mask value."""

    mask: int

    def __post_init__(self):
        object.__setattr__(self, "mask", int(self.mask))  # accept numpy integers
        if self.mask < 0:
            raise ValueError("negative occupation mask")

    @classmethod
    def from_indices(cls, indices: Iterable[int]) -> "Determinant":
        mask = 0
        for p in indices:
            bit = 1 << int(p)
            if mask & bit:
                raise ValueError(f"duplicate orbital index {p}")
            mask |= bit
        return cls(mask)

    @property
    def indices(self) -> tuple[int, ...]:
        """Occupied orbitals, strictly increasing."""
        m, out = self.mask, []
        while m:
            low = m & -m
            out.append(low.bit_length() - 1)
            m ^= low
        return tuple(out)

    @property
    def particle_count(self) -> int:
        return self.mask.bit_count()

    def occupies(self, p: int) -> bool:
        return bool(self.mask >> p & 1)

    def __repr__(self) -> str:
        return "Determinant({%s})" % ",".join(map(str, self.indices))


@dataclass(frozen=True)
class OrbitalSpace:
    """Finite single-particle space of d spin-orbitals, labelled 0..d-1."""

    d: int

    def __post_init__(self):
        if not 1 <= self.d <= limits.MAX_ORBITALS:
            raise ValueError(f"orbital count must be in [1, {limits.MAX_ORBITALS}], got {self.d}")

    def contains(self, det: Determinant) -> bool:
        return det.mask < (1 << self.d)


def subset_masks(k: int, n: int) -> np.ndarray:
    """Every n-subset of orbitals 0..k-1 as a uint64 occupation mask, in
    ascending order (empty unless 0 <= n <= k).

    The ascending m-subsets of 0..t-1 are the masks below 2^t, so they lead
    the list of m-subsets of any wider range.  Level m is therefore one
    concatenation, over the top orbital t in ascending order, of the leading
    C(t, m - 1) masks of level m - 1 with bit t set.
    """
    if not 0 <= n <= k:
        return np.zeros(0, dtype=np.uint64)
    masks = np.zeros(1, dtype=np.uint64)
    for m in range(1, n + 1):
        masks = np.concatenate(
            [masks[: math.comb(t, m - 1)] | np.uint64(1 << t) for t in range(m - 1, k - n + m)]
        )
    return masks


def enumerate_basis(space: OrbitalSpace, n: int) -> list[Determinant]:
    """All C(d, n) n-particle determinants in ascending bitmask order.

    n > d gives an empty list; n = 0 gives the vacuum.
    """
    if n < 0:
        raise ValueError("negative particle count")
    return [Determinant(m) for m in subset_masks(space.d, n).tolist()]


def occupation_matrix(masks: np.ndarray, d: int) -> np.ndarray:
    """occ[k, p] = 1 where masks[k] occupies orbital p, else 0; int8 of shape (len(masks), d)."""
    shifts = np.arange(d, dtype=np.uint64)
    return ((np.asarray(masks, dtype=np.uint64)[:, None] >> shifts) & np.uint64(1)).astype(np.int8)


def sign_below(occupied: np.ndarray, axis: int) -> np.ndarray:
    """(-1)^(occupied orbitals below p) for every orbital p along `axis` of a
    0/1 occupation array: the sign of a_p and a†_p on that determinant."""
    below = np.cumsum(occupied, axis=axis, dtype=np.int8) - occupied
    return (1 - 2 * (below & 1)).astype(np.int8)


def ladder_table(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every ladder operator on the 2^d Fock basis as (target, create, annihilate).

    Each array has shape (d, 2^d) and is indexed [p, s] by orbital p and
    basis mask s: a†_p |s> = create[p, s] |target[p, s]> and
    a_p |s> = annihilate[p, s] |target[p, s]>, with target = s ^ (1 << p).
    Signs are (-1)^(occupied below p), the parity of creating orbital p in
    increasing orbital order, and 0 where the operator kills s.  Raises
    before allocating when d exceeds limits.MAX_ORACLE_DIM.
    """
    if d > limits.MAX_ORACLE_DIM:
        limits.refuse(f"oracle scale exceeded: d={d}", "MAX_ORACLE_DIM")
    s = np.arange(1 << d)
    bits = 1 << np.arange(d)[:, None]
    occupied = (s & bits) != 0
    sign = sign_below(occupied, axis=0)
    return s ^ bits, sign * ~occupied, sign * occupied
