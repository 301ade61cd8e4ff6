"""Bitstring determinants and fermionic ladder-operator algebra.

A determinant over d spin-orbitals is stored as an integer bitmask
(bit p set means orbital p is occupied, 0-based).  The reference phase
of every determinant is fixed by applying creation operators in
increasing orbital order, which makes all signs below deterministic.

`ladder_table` lists every ladder operator on the explicit 2^d Fock
space as index/sign arrays; every brute-force path builds on it, under
the one dimension cap of `max_oracle_dim`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional

import numpy as np

MAX_ORBITALS = 64  # masks must fit a machine word
DEFAULT_MAX_DIM = 14  # explicit 2^d Fock-space paths, unless FERMICORR_MAX_DIM says otherwise


def max_oracle_dim() -> int:
    """Dimension cap for every path that allocates a 2^d object."""
    raw = os.environ.get("FERMICORR_MAX_DIM")
    if raw is None:
        return DEFAULT_MAX_DIM
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"FERMICORR_MAX_DIM must be an integer, got {raw!r}") from None


def check_oracle_dim(d: int) -> None:
    """Raise before a 2^d allocation when d exceeds max_oracle_dim()."""
    cap = max_oracle_dim()
    if d > cap:
        raise ValueError(f"oracle scale exceeded: d={d} > {cap} (set FERMICORR_MAX_DIM to raise)")


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
        if not 1 <= self.d <= MAX_ORBITALS:
            raise ValueError(f"orbital count must be in [1, {MAX_ORBITALS}], got {self.d}")

    def contains(self, det: Determinant) -> bool:
        return det.mask < (1 << self.d)


def enumerate_basis(space: OrbitalSpace, n: int) -> list[Determinant]:
    """All C(d, n) n-particle determinants in ascending bitmask order.

    n > d gives an empty list; n = 0 gives the vacuum.
    """
    if n < 0:
        raise ValueError("negative particle count")
    if n > space.d:
        return []
    if n == 0:
        return [Determinant(0)]
    limit = 1 << space.d
    v = (1 << n) - 1
    out = []
    while v < limit:
        out.append(Determinant(v))
        # Gosper's hack: next larger integer with the same popcount
        low = v & -v
        ripple = v + low
        v = ripple | (((v ^ ripple) >> 2) // low)
    return out


def enumerate_subsets(orbitals: Iterable[int], n: int) -> list[Determinant]:
    """n-particle determinants occupying orbitals drawn from the given set,
    ascending bitmask order."""
    orbs = sorted(orbitals)
    if n < 0:
        raise ValueError("negative particle count")
    if n > len(orbs):
        return []
    dets = [Determinant.from_indices(c) for c in combinations(orbs, n)]
    dets.sort()
    return dets


def apply_creation(det: Determinant, p: int) -> Optional[tuple[int, Determinant]]:
    """a†_p on a canonically ordered determinant.

    Returns (sign, determinant) with sign = (-1)^(occupied below p), or
    None when orbital p is already occupied.
    """
    bit = 1 << p
    if det.mask & bit:
        return None
    sign = -1 if (det.mask & (bit - 1)).bit_count() & 1 else 1
    return sign, Determinant(det.mask | bit)


def apply_annihilation(det: Determinant, p: int) -> Optional[tuple[int, Determinant]]:
    """a_p, the adjoint of apply_creation; None when orbital p is empty."""
    bit = 1 << p
    if not det.mask & bit:
        return None
    sign = -1 if (det.mask & (bit - 1)).bit_count() & 1 else 1
    return sign, Determinant(det.mask ^ bit)


def slater_overlap(m: np.ndarray, bra: Determinant, ket: Determinant) -> complex:
    """Overlap of two same-sector determinants under a single-particle map.

    Evaluates det(m[rows, cols]) with rows from `bra` and columns from
    `ket`, both in increasing order; the empty sector gives 1.
    """
    rows, cols = bra.indices, ket.indices
    if len(rows) != len(cols):
        raise ValueError(
            f"sector mismatch: bra has {len(rows)} particles, ket has {len(cols)}"
        )
    if not rows:
        return 1.0 + 0.0j
    sub = np.asarray(m)[np.ix_(rows, cols)]
    return complex(np.linalg.det(sub))


def ladder_table(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every ladder operator on the 2^d Fock basis as (target, create, annihilate).

    Each array has shape (d, 2^d) and is indexed [p, s] by orbital p and
    basis mask s: a†_p |s> = create[p, s] |target[p, s]> and
    a_p |s> = annihilate[p, s] |target[p, s]>, with target = s ^ (1 << p).
    Signs follow apply_creation / apply_annihilation, (-1)^(occupied
    below p), and are 0 where the operator kills s.
    """
    check_oracle_dim(d)
    s = np.arange(1 << d)
    bits = 1 << np.arange(d)[:, None]
    occupied = (s & bits) != 0
    below = np.cumsum(occupied, axis=0) - occupied
    sign = (1 - 2 * (below & 1)).astype(np.int8)
    return s ^ bits, sign * ~occupied, sign * occupied
