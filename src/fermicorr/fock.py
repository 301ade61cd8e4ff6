"""Bitstring determinants and fermionic ladder-operator algebra.

A determinant over d spin-orbitals is stored as an integer bitmask
(bit p set means orbital p is occupied, 0-based).  The reference phase
of every determinant is fixed by applying creation operators in
increasing orbital order, which makes all signs below deterministic.

`sector_ladders` lists every ladder operator on the explicit 2^d Fock
space, sector by particle-number sector, as index/sign tables built from
`subset_masks`.  It is the only ladder-operator builder: the two oracles
and the Hubbard Hamiltonian build on it, and it checks the dimension cap
`limits.MAX_ORACLE_DIM` before it builds anything.  Array kernels read a
CI vector's sorted uint64 mask array through `occupation_matrix`, and
move it onto a subset of the orbitals through `relabel_masks`;
`subset_masks` is the one n-subset enumerator.
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
    """occ[k, p] = 1 where masks[k] occupies orbital p, else 0; int8 of shape (len(masks), d).

    The eight bytes of each mask, lowest first, unpack lowest bit first
    straight into the result: 1 B per entry and no wider temporary.
    """
    octets = np.ascontiguousarray(masks, dtype="<u8").view(np.uint8).reshape(-1, 8)
    return np.unpackbits(octets, axis=1, count=d, bitorder="little").view(np.int8)


def relabel_masks(masks: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """uint64 masks over the ascending orbitals `kept`, bit i standing for
    orbital kept[i]; bits on other orbitals are dropped.

    The relabelling keeps the order of the kept orbitals, so it keeps every
    sign, and masks that differ only on kept orbitals keep their order.  Bit
    kept[i] moves down by kept[i] - i, a shift that every orbital of one
    gap-free run shares, so each run costs one shift and one mask.
    """
    windows: dict[int, int] = {}  # shift: the result bits that take it
    for i, p in enumerate(np.asarray(kept).tolist()):
        windows[p - i] = windows.get(p - i, 0) | 1 << i
    masks = np.asarray(masks, dtype=np.uint64)
    out = np.zeros(masks.shape, dtype=np.uint64)
    for shift, window in windows.items():
        out |= (masks >> np.uint64(shift)) & np.uint64(window)
    return out


def sign_below(occupied: np.ndarray, axis: int) -> np.ndarray:
    """(-1)^(occupied orbitals below p) for every orbital p along `axis` of a
    0/1 occupation array: the sign of a_p and a†_p on that determinant."""
    below = np.cumsum(occupied, axis=axis, dtype=np.int8) - occupied
    return (1 - 2 * (below & 1)).astype(np.int8)


def sector_ladders(d: int) -> tuple[tuple, tuple, tuple]:
    """Every ladder operator on the 2^d Fock space, by particle-number sector,
    as (masks, raising, lowering), one entry per sector k = 0..d.  Raises
    before building anything when d exceeds limits.MAX_ORACLE_DIM.

    `masks[k]` lists the C(d, k) masks of sector k in ascending order.
    `raising[k]` and `lowering[k]` are (orbital, sign, source) arrays whose
    row t covers the orbitals q that connect masks[k][t] with the sector
    below and above, q ascending: raising lists its k occupied orbitals
    with <t|a†_q|t - q> and the index of t - q in masks[k - 1]; lowering
    lists its d - k empty orbitals with <t|a_q|t + q> and the index of
    t + q in masks[k + 1].  Both signs are (-1)^(occupied below q), the
    parity of creating q in increasing orbital order.  The tables depend on
    d alone, so they are built once per d and shared read-only.
    """
    if d > limits.MAX_ORACLE_DIM:
        limits.refuse(f"oracle scale exceeded: d={d}", "MAX_ORACLE_DIM")
    return _sector_ladders(d)


@functools.cache
def _sector_ladders(d: int) -> tuple[tuple, tuple, tuple]:
    # sector d + 1 is empty, so index k - 1 = -1 reads an empty sector too
    masks = [subset_masks(d, k).astype(np.intp) for k in range(d + 2)]
    raising, lowering = [], []
    for k, sector in enumerate(masks[:-1]):
        occupied = occupation_matrix(sector, d)
        sign = sign_below(occupied, axis=1)
        for table, connects, other in ((raising, occupied, k - 1), (lowering, 1 - occupied, k + 1)):
            rows, orbital = np.divmod(np.flatnonzero(connects), d)  # by row, then orbital
            source = np.searchsorted(masks[other], sector[rows] ^ (1 << orbital))
            table.append(tuple(a.reshape(sector.size, -1) for a in (orbital, sign[rows, orbital], source)))
    for a in (*masks, *(a for arrays in raising + lowering for a in arrays)):
        a.flags.writeable = False
    return tuple(masks[:-1]), tuple(raising), tuple(lowering)
