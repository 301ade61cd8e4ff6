"""Bitstring determinants and fermionic ladder-operator algebra.

A determinant over d spin-orbitals is stored as an integer bitmask
(bit p set means orbital p is occupied, 0-based).  The reference phase
of every determinant is fixed by applying creation operators in
increasing orbital order, which makes all signs below deterministic.

`ladder_table` lists every ladder operator on the explicit 2^d Fock
space as index/sign arrays.  It is the only ladder-operator builder:
every brute-force path and the Hubbard Hamiltonian build on it, directly
or through `sector_ladders`, which arranges it by particle-number sector
for the two oracles and keeps it per d.  Both check the dimension cap
`limits.MAX_ORACLE_DIM` before their first 2^d allocation.  Array
kernels read a CI vector's sorted uint64 mask array through
`occupation_matrix`; `subset_masks` is the one n-subset enumerator.
"""

from __future__ import annotations

import functools
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


def _check_oracle_dim(d: int):
    if d > limits.MAX_ORACLE_DIM:
        limits.refuse(f"oracle scale exceeded: d={d}", "MAX_ORACLE_DIM")


def ladder_table(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every ladder operator on the 2^d Fock basis as (target, create, annihilate).

    Each array has shape (d, 2^d) and is indexed [p, s] by orbital p and
    basis mask s: a†_p |s> = create[p, s] |target[p, s]> and
    a_p |s> = annihilate[p, s] |target[p, s]>, with target = s ^ (1 << p).
    Signs are (-1)^(occupied below p), the parity of creating orbital p in
    increasing orbital order, and 0 where the operator kills s.  Raises
    before allocating when d exceeds limits.MAX_ORACLE_DIM.
    """
    _check_oracle_dim(d)
    s = np.arange(1 << d)
    bits = 1 << np.arange(d)[:, None]
    occupied = (s & bits) != 0
    sign = sign_below(occupied, axis=0)
    return s ^ bits, sign * ~occupied, sign * occupied


def sector_ladders(d: int) -> tuple[tuple, tuple, tuple]:
    """The ladder table of `ladder_table(d)` arranged by particle-number
    sector as (masks, raising, lowering), one entry per sector k = 0..d;
    raises like it when d exceeds limits.MAX_ORACLE_DIM.

    `masks[k]` lists the C(d, k) masks of sector k in ascending order.
    `raising[k]` and `lowering[k]` are (orbital, sign, source) arrays whose
    row t covers the orbitals q that connect masks[k][t] with the sector
    below and above, q ascending: raising lists its k occupied orbitals
    with <t|a†_q|t - q> and the index of t - q in masks[k - 1]; lowering
    lists its d - k empty orbitals with <t|a_q|t + q> and the index of
    t + q in masks[k + 1].  The tables depend on d alone, so they are built
    once per d and shared read-only.
    """
    _check_oracle_dim(d)
    return _sector_ladders(d)


@functools.cache
def _sector_ladders(d: int) -> tuple[tuple, tuple, tuple]:
    target, create, annihilate = ladder_table(d)
    order = np.argsort(np.count_nonzero(annihilate, axis=0), kind="stable")  # by sector
    size = [math.comb(d, k) for k in range(d + 1)]
    position = np.empty(1 << d, dtype=np.intp)
    position[order] = np.arange(1 << d) - np.repeat(np.cumsum([0] + size[:-1]), size)

    def split(a, per_row):  # one (rows, per_row[k]) view per sector k, read-only
        a.flags.writeable = False
        parts = np.split(a, np.cumsum(np.multiply(size, per_row))[:-1])
        return [part.reshape(rows, -1) for part, rows in zip(parts, size)]

    def steps(table, per_row):
        sign = table.T[order].ravel()
        nonzero = np.flatnonzero(sign != 0)  # by row, then orbital
        rows, orbital = np.divmod(nonzero, d)
        source = position[target[orbital, order[rows]]]
        return tuple(zip(*(split(a, per_row) for a in (orbital, sign[nonzero], source))))

    masks = tuple(part[:, 0] for part in split(order, [1] * (d + 1)))
    # <t|a†_q|t - q> = <t - q|a_q|t> is a_q's sign on t
    return masks, steps(annihilate, range(d + 1)), steps(create, range(d, -1, -1))
