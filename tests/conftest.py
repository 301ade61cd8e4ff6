"""Shared fixtures and independent test oracles."""

from __future__ import annotations

import math
from itertools import permutations

import numpy as np
import pytest

from fermicorr import CIWavefunction, Determinant, OrbitalSpace, ladder_table, normalize


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_unitary(d: int, rng) -> np.ndarray:
    """Haar-ish unitary from the QR of a complex Gaussian matrix."""
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(m)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r))).conjugate()


def random_state(d: int, n: int, rng, support=None) -> CIWavefunction:
    """Random normalized CI state; support defaults to the full sector."""
    from fermicorr import enumerate_basis

    space = OrbitalSpace(d)
    dets = support if support is not None else enumerate_basis(space, n)
    amps = {
        det: complex(rng.normal(), rng.normal())
        for det in dets
    }
    return normalize(CIWavefunction(space, n, amps))


def single_determinant(d: int, indices) -> CIWavefunction:
    space = OrbitalSpace(d)
    det = Determinant.from_indices(indices)
    return CIWavefunction(space, len(det.indices), {det: 1.0})


def dense_ladder(kind: str, p: int, d: int) -> np.ndarray:
    """Explicit 2^d matrix of a†_p ("creation") or a_p ("annihilation"),
    built from fermicorr's ladder table."""
    target, create, annihilate = ladder_table(d)
    sign = {"creation": create, "annihilation": annihilate}[kind][p]
    m = np.zeros((1 << d, 1 << d))
    m[target[p], np.arange(1 << d)] = sign
    return m


def permutation_overlap(m: np.ndarray, bra: Determinant, ket: Determinant) -> complex:
    """det(m[bra, ket]) by explicit antisymmetrized expansion, n! terms.

    Shares nothing with rotate_ci's Givens rotations or with np.linalg.det;
    it is the oracle for the minor rule c'(s) = sum_t det(V†[s, t]) c(t)
    that rotate_ci must reproduce.
    """
    rows, cols = bra.indices, ket.indices
    assert len(rows) == len(cols)
    total = 0.0 + 0.0j
    for perm in permutations(range(len(cols))):
        sign = 1
        seen = list(perm)
        for i in range(len(seen)):  # parity by counting inversions
            for j in range(i + 1, len(seen)):
                if seen[i] > seen[j]:
                    sign = -sign
        term = complex(sign)
        for a, s in enumerate(perm):
            term *= m[rows[a], cols[s]]
        total += term
    return total


@pytest.fixture
def three_electron_psi() -> CIWavefunction:
    """sqrt(2/3) on {0,2,4} plus sqrt(1/3) on {1,3,5} (1-based: |135| and |246|)."""
    space = OrbitalSpace(6)
    return CIWavefunction(
        space,
        3,
        {
            Determinant.from_indices((0, 2, 4)): math.sqrt(2.0 / 3.0),
            Determinant.from_indices((1, 3, 5)): math.sqrt(1.0 / 3.0),
        },
    )


@pytest.fixture
def three_electron_phi() -> CIWavefunction:
    """Equal weights on {0,1,2}, {2,3,4}, {0,4,5}; same gamma as the psi fixture."""
    space = OrbitalSpace(6)
    amp = math.sqrt(1.0 / 3.0)
    return CIWavefunction(
        space,
        3,
        {
            Determinant.from_indices((0, 1, 2)): amp,
            Determinant.from_indices((2, 3, 4)): amp,
            Determinant.from_indices((0, 4, 5)): amp,
        },
    )
