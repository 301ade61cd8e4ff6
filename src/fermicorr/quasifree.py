"""Quasifree reference states: occupation-pattern probabilities and a
brute-force Wick-identity check.

A quasifree (number-conserving) density is the state in which each
natural orbital i is occupied independently with probability lambda_i.
It is diagonal in the natural-orbital Fock basis, with weight p(s) on
the occupation pattern s; `pattern_probabilities` gives that diagonal on
any array of masks, from a CI vector's support to all 2^d patterns.  The
Wick check takes its left side on the index/sign arrays of
`fock.ladder_table` and its right side in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import limits
from .fock import ladder_table

_WICK_CHUNK = 1 << 12  # left-side basis states s per pass of verify_wick


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
    order.  Memory is O(len(masks)); a caller passing all 2^d masks builds
    the ladder table, which checks the dimension cap, first."""
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


def _annihilated(annihilate: np.ndarray, vectors: Sequence[np.ndarray], states: np.ndarray):
    """a_{v_k} ... a_{v_1} applied to each basis state s of the ascending
    array `states` at once (v_1 first).

    Returns sorted keys s * 2^d + r and the amplitude of basis state r in
    the image of s.  Removing orbital p maps key to key ^ (1 << p), so each
    orbital's terms come out sorted.  Equal keys are merged after every
    operator, not once at the end, so no step works on more than the
    distinct (s, r) pairs of the step before times d.
    """
    d, dim = annihilate.shape
    keys = states * (dim + 1)  # (s, r=s): the identity
    amps = np.ones(states.size, dtype=complex)
    for v in vectors:
        v = np.asarray(v, dtype=complex).conjugate()
        r = keys & (dim - 1)
        new, terms = [], []
        for p in range(d):
            sign = annihilate[p, r]
            j = np.flatnonzero(sign)
            new.append(keys[j] ^ (1 << p))
            terms.append(amps[j] * (v[p] * sign[j]))
        new, terms = np.concatenate(new), np.concatenate(terms)
        order = np.argsort(new, kind="stable")  # merges the d sorted runs
        new, terms = new[order], terms[order]
        start = np.flatnonzero(np.diff(new, prepend=-1))
        keys, amps = new[start], np.add.reduceat(terms, start)
    return keys, amps


def verify_wick(
    spec: QuasifreeSpec,
    f_list: Sequence[np.ndarray],
    g_list: Sequence[np.ndarray],
) -> WickReport:
    """Check the determinant factorization of a 2m/2n-point function.

    The left side Tr(rho a†_{f1}..a†_{fm} a_{gn}..a_{g1}) is evaluated by
    explicit ladder algebra on the 2^d Fock space, as
    sum_s p(s) <a_{fm}..a_{f1} s, a_{gn}..a_{g1} s> over the basis states
    s, _WICK_CHUNK of them at once; the right side is
    delta_{mn} det(Tr(rho a†_{f_i} a_{g_j})), with each two-point function
    in closed form, sum_p lambda_p f_p conj(g_p), so the two sides share
    neither the ladder algebra nor p(s).  Vectors are coordinates in the
    same orbital basis the occupation probabilities refer to.
    """
    d = spec.d
    m, n = len(f_list), len(g_list)
    if max(m, n) > limits.WICK_MAX_OPS:
        limits.refuse(f"oracle scale exceeded: {max(m, n)} operators on one side", "WICK_MAX_OPS")
    _, _, annihilate = ladder_table(d)
    everything = np.arange(1 << d)
    p_diag = pattern_probabilities(spec, everything)

    def rho_expectation(bra, ket) -> complex:
        # sum_s p(s) <bra(s), ket(s)> over two _annihilated results (sorted keys)
        (bra_keys, bra_amps), (ket_keys, ket_amps) = bra, ket
        j = np.searchsorted(ket_keys, bra_keys)
        hit = j < ket_keys.size
        hit[hit] = ket_keys[j[hit]] == bra_keys[hit]
        terms = p_diag[bra_keys[hit] >> d] * bra_amps[hit].conjugate() * ket_amps[j[hit]]
        return complex(np.sum(terms))

    # keys of different s never meet, so the left side is exactly a sum over
    # chunks of s; chunking bounds its (s, r) arrays near the dimension cap
    lhs = 0j
    for start in range(0, everything.size, _WICK_CHUNK):
        states = everything[start : start + _WICK_CHUNK]
        lhs += rho_expectation(
            _annihilated(annihilate, f_list, states), _annihilated(annihilate, g_list, states)
        )

    if m != n:
        rhs = 0.0 + 0.0j
    else:  # the determinant of the empty matrix (m = n = 0) is 1
        f, g = (np.asarray(v, dtype=complex).reshape(n, d) for v in (f_list, g_list))
        rhs = complex(np.linalg.det((f * spec.occupations) @ g.conj().T))
    return WickReport(lhs, rhs, abs(lhs - rhs))
