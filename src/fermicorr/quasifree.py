"""Quasifree reference states: occupation-pattern probabilities and a
brute-force Wick-identity check.

A quasifree (number-conserving) density is the state in which each
natural orbital i is occupied independently with probability lambda_i.
It is diagonal in the natural-orbital Fock basis, with weight p(s) on
the occupation pattern s; `pattern_probabilities` gives that diagonal on
any array of masks, such as a CI vector's support or one particle-number
sector.  The Wick check takes its left side sector by sector, by explicit
ladder algebra over the tables of `fock.sector_ladders`, in coordinates
relative to each basis state, and its right side in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import limits
from .fock import sector_ladders


@dataclass
class QuasifreeSpec:
    """Occupation probabilities of the reference state, one per orbital.

    `occupations` must lie in [0, 1] exactly (clipping happens upstream in
    diagonalize); p(s) itself does not depend on which orbitals they label.
    """

    occupations: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.occupations, dtype=float)
        if lam.ndim != 1:
            raise ValueError("occupation list must be one-dimensional")
        if not np.all((lam >= 0.0) & (lam <= 1.0)):  # the vacuum has none
            raise ValueError("invalid occupation: probabilities must lie in [0, 1]")
        self.occupations = lam

    @property
    def d(self) -> int:
        return self.occupations.shape[0]


def pattern_probabilities(spec: QuasifreeSpec, masks: np.ndarray) -> np.ndarray:
    """p(s) for each occupation mask s: the product of lambda_i over occupied
    orbitals i and of (1 - lambda_i) over the rest, multiplied in orbital
    order.  Memory is O(len(masks)), and there is no dimension cap: the
    oracles pass sector masks from `fock.sector_ladders`, which checks
    theirs."""
    masks = np.asarray(masks, dtype=np.uint64)
    p = np.ones(masks.shape)
    for i, lam in enumerate(spec.occupations):
        occupied = (masks >> np.uint64(i)) & np.uint64(1)
        p *= np.where(occupied, lam, 1.0 - lam)
    return p


@dataclass
class WickReport:
    """Both sides of the Wick identity and their absolute difference."""

    lhs: complex
    rhs: complex
    difference: float


def _removal_images(conj_vectors, occupied, relative, steps) -> np.ndarray:
    """a_{vj}..a_{v1}|s> for every basis state s of one sector (v1 first,
    given as conj(v)), as an array whose column r holds the amplitude on s
    with the positions of the r-th j-subset R of 0..N-1 removed.

    `occupied` and `relative` come from the raising table of sector N of
    `fock.sector_ladders`: s's occupied orbitals and (-1)^position.
    `steps` are the d-mode raising tables of sectors 1..j; the N-mode table
    of sector k is their first C(N, k) rows, since the subsets of 0..N-1
    lead each sector's ascending masks.
    """
    states, count = occupied.shape
    image = np.ones((states, 1), dtype=complex)
    for v, (orbital, sign, source) in zip(conj_vectors, steps):
        rows = math.comb(count, orbital.shape[1])
        removed = relative * v[occupied]  # [s, p]: removing position p of s
        for j in range(orbital.shape[1]):  # the j-th position p of each R
            term = np.take(removed, orbital[:rows, j], axis=1)
            term *= image[:, source[:rows, j]]
            term *= sign[:rows, j]  # creating p into R - p
            if j:
                grown += term
            else:
                grown = term
        image = grown
    return image


def verify_wick(
    spec: QuasifreeSpec,
    f_list: Sequence[np.ndarray],
    g_list: Sequence[np.ndarray],
) -> WickReport:
    """Check the determinant factorization of a 2m/2n-point function.

    The left side Tr(rho a†_{f1}..a†_{fm} a_{gn}..a_{g1}) is evaluated by
    explicit ladder algebra on the 2^d Fock space, one particle-number
    sector at a time, as sum_s p(s) <a_{fm}..a_{f1} s, a_{gn}..a_{g1} s>
    over the basis states s; the right side is
    delta_{mn} det(Tr(rho a†_{f_i} a_{g_j})), with each two-point function
    in closed form, sum_p lambda_p f_p conj(g_p), so the two sides share
    neither the ladder algebra nor p(s).  Vectors are coordinates in the
    same orbital basis the occupation probabilities refer to.

    On a basis state s with N occupied orbitals occ_s, a_{vj}..a_{v1}|s>
    is a sum over the sets R of j removed positions among 0..N-1.
    Removing position k carries (-1)^k conj(v[occ_s[k]]) times the sign of
    creating R in the order of removal, so the image is
    a†_{uj}..a†_{u1}|0> on N modes, u_i[k] = (-1)^k conj(v_i[occ_s[k]]),
    built for every s of the sector at once (`_removal_images`).  The two
    sides pair by the mask of R, so an unbalanced pair (m != n) has no
    common R and sums to 0.
    """
    d = spec.d
    m, n = len(f_list), len(g_list)
    if max(m, n) > limits.WICK_MAX_OPS:
        limits.refuse(f"oracle scale exceeded: {max(m, n)} operators on one side", "WICK_MAX_OPS")
    masks, raising, _ = sector_ladders(d)
    # p(s) of every sector's states from one pass over the orbitals: a pass
    # per sector would cost d small array operations per sector
    p_all = pattern_probabilities(spec, np.concatenate(masks))
    p_sectors = np.split(p_all, np.cumsum([s.size for s in masks]))
    f_conj, g_conj = ([np.asarray(v, dtype=complex).conj() for v in side] for side in (f_list, g_list))
    # each side's sets R are the masks of the sector of its operator count
    # (none past d), and those within 0..N-1 lead them, so common[:c] pairs
    # them when c counts the common masks below 2^N
    f_sets, g_sets = (masks[j] if j <= d else np.zeros(0, dtype=np.intp) for j in (m, n))
    common, f_index, g_index = np.intersect1d(f_sets, g_sets, assume_unique=True, return_indices=True)
    steps = raising[1 : max(m, n) + 1]

    def sector(count: int) -> complex:
        # sum_s p(s) <a_{fm}..a_{f1} s, a_{gn}..a_{g1} s> over the states s
        # of `count` particles; its arrays are freed before the next sector
        occupied, relative, _ = raising[count]
        f_image = _removal_images(f_conj, occupied, relative, steps)
        g_image = _removal_images(g_conj, occupied, relative, steps)
        c = np.searchsorted(common, 1 << count)
        pairs = np.conjugate(f_image[:, f_index[:c]])
        pairs *= g_image[:, g_index[:c]]
        return complex(p_sectors[count] @ pairs.sum(axis=1))

    # fewer particles than operators leave no image
    lhs = sum((sector(count) for count in range(max(m, n), d + 1)), 0j)

    if m != n:
        rhs = 0.0 + 0.0j
    else:  # the determinant of the empty matrix (m = n = 0) is 1
        f, g = (np.asarray(v, dtype=complex).reshape(n, d) for v in (f_list, g_list))
        rhs = complex(np.linalg.det((f * spec.occupations) @ g.conj().T))
    return WickReport(lhs, rhs, abs(lhs - rhs))
