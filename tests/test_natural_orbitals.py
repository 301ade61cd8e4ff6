from itertools import combinations

import numpy as np
import pytest

from fermicorr import (
    Determinant,
    OnePDM,
    OrbitalSpace,
    diagonalize,
    one_pdm,
    rotate_ci,
)

from conftest import random_state, random_unitary, single_determinant


def det(*indices):
    return Determinant.from_indices(indices)


class TestDiagonalize:
    def test_projector(self):
        basis = diagonalize(np.diag([1.0, 1.0, 0.0, 0.0]))
        assert np.allclose(basis.occupations, [1, 1, 0, 0])
        # permuted identity: one unit entry per column
        assert np.allclose(np.abs(basis.vectors).sum(axis=0), 1.0, atol=1e-12)
        assert np.allclose(np.abs(basis.vectors).max(axis=0), 1.0, atol=1e-12)

    def test_two_thirds_spectrum(self, three_electron_psi):
        gamma = one_pdm(three_electron_psi)
        basis = diagonalize(gamma)
        assert np.allclose(basis.occupations, [2 / 3] * 3 + [1 / 3] * 3, atol=1e-12)
        assert np.allclose(np.abs(basis.vectors).max(axis=0), 1.0, atol=1e-12)
        # eigen-equation with the original gamma
        resid = gamma.gamma @ basis.vectors - basis.vectors @ np.diag(basis.occupations)
        assert np.max(np.abs(resid)) < 1e-12

    def test_two_particle_spectrum_is_paired(self, rng):
        # any two-particle state has a doubly degenerate nonzero spectrum
        for d in (4, 5, 6):
            lam = diagonalize(one_pdm(random_state(d, 2, rng))).occupations
            nonzero = lam[lam > 1e-12]
            assert len(nonzero) % 2 == 0
            assert np.allclose(nonzero[0::2], nonzero[1::2], atol=1e-10)

    def test_descending_and_clipped(self, rng):
        lam = diagonalize(one_pdm(random_state(6, 3, rng))).occupations
        assert np.all(np.diff(lam) <= 1e-15)
        assert lam.min() >= 0.0 and lam.max() <= 1.0

    def test_invalid_occupation(self):
        with pytest.raises(ValueError, match="invalid occupation"):
            diagonalize(np.diag([1.5, 0.5]))
        nonfinite = (np.array([[np.nan, 0], [0, 1]]), np.full((2, 2), np.nan), np.diag([np.inf, 0]))
        for gamma in nonfinite:
            with pytest.raises(ValueError, match="non-finite"):
                diagonalize(gamma)

    def test_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            diagonalize(np.array([[0.5, 0.3], [0.1, 0.5]]))

    def test_caller_tol_sets_the_window(self):
        gamma = OnePDM(np.diag([1 + 1e-8, 0.5]), nelec=1.5 + 1e-8)
        with pytest.raises(ValueError, match="invalid occupation"):
            diagonalize(gamma)
        assert np.array_equal(diagonalize(gamma, tol=1e-6).occupations, [1.0, 0.5])

    def test_deterministic_phase(self, rng):
        gamma = one_pdm(random_state(5, 2, rng))
        a = diagonalize(gamma)
        b = diagonalize(gamma)
        assert np.array_equal(a.vectors, b.vectors)
        for col in a.vectors.T:
            lead = col[np.abs(col) > 1e-12][0]
            assert abs(lead.imag) < 1e-12 and lead.real > 0


class TestRotateCI:
    def test_identity(self, rng):
        psi = random_state(5, 2, rng)
        out = rotate_ci(psi, np.eye(5))
        for key, val in psi.amplitudes.items():
            assert abs(out.amplitude(key) - val) < 1e-12

    def test_occupied_block_rotation_keeps_determinant(self, rng):
        # mixing only the occupied orbitals leaves a determinant invariant
        # up to phase (the 2x2 block has |det| = 1)
        psi = single_determinant(4, (0, 1))
        u2 = random_unitary(2, rng)
        v = np.eye(4, dtype=complex)
        v[:2, :2] = u2
        out = rotate_ci(psi, v)
        amp = out.amplitude(det(0, 1))
        assert abs(abs(amp) - 1.0) < 1e-12
        rest = sum(abs(c) ** 2 for k, c in out.amplitudes.items() if k != det(0, 1))
        assert rest < 1e-24

    def test_permutation_rotation_two_config(self, three_electron_psi):
        basis = diagonalize(one_pdm(three_electron_psi))
        out = rotate_ci(three_electron_psi, basis.vectors)
        mags = sorted(abs(c) for c in out.amplitudes.values() if abs(c) > 1e-12)
        assert len(mags) == 2
        assert abs(mags[0] - np.sqrt(1 / 3)) < 1e-12
        assert abs(mags[1] - np.sqrt(2 / 3)) < 1e-12

    def test_round_trip(self, rng):
        psi = random_state(5, 3, rng)
        v = random_unitary(5, rng)
        back = rotate_ci(rotate_ci(psi, v), v.conj().T)
        for key, val in psi.amplitudes.items():
            assert abs(back.amplitude(key) - val) < 1e-10

    def test_gamma_transforms_covariantly(self, rng):
        psi = random_state(5, 2, rng)
        v = random_unitary(5, rng)
        rotated_gamma = one_pdm(rotate_ci(psi, v)).gamma
        expected = v.conj().T @ one_pdm(psi).gamma @ v
        assert np.max(np.abs(rotated_gamma - expected)) < 1e-10

    def test_parseval(self, rng):
        for d, n in ((4, 2), (5, 2), (6, 3)):
            psi = random_state(d, n, rng)
            out = rotate_ci(psi, random_unitary(d, rng))
            total = sum(abs(c) ** 2 for c in out.amplitudes.values())
            assert abs(total - 1.0) < 1e-10

    def test_zero_occupation_orbitals_carry_no_weight(self, rng):
        # state built inside orbitals {0,1,2} of d=4: natural orbital with
        # lambda=0 exists, and the full rotation puts <= 1e-8 amplitude on
        # determinants touching it
        space = OrbitalSpace(4)
        support = [det(0, 1), det(0, 2), det(1, 2)]
        psi = random_state(4, 2, rng, support=support)
        basis = diagonalize(one_pdm(psi))
        assert basis.occupations[-1] < 1e-12
        full = rotate_ci(psi, basis.vectors)
        inactive = [i for i, lam in enumerate(basis.occupations) if lam < 1e-12]
        for key, amp in full.amplitudes.items():
            if any(key.occupies(i) for i in inactive):
                assert abs(amp) < 1e-8
        # rotating onto the occupied (leading) columns only agrees on their patterns
        restricted = rotate_ci(psi, basis.vectors[:, : 4 - len(inactive)])
        for key, amp in restricted.amplitudes.items():
            assert abs(full.amplitude(key) - amp) < 1e-12

    def test_targets_ascend_over_a_sparse_active_set(self, rng):
        orbitals = [0, 2, 3, 5]
        support = [det(*c) for c in combinations(orbitals, 2)]
        psi = random_state(7, 2, rng, support=support)
        out = rotate_ci(psi, np.eye(7)[:, orbitals])
        assert out.masks.tolist() == sorted(det(*c).mask for c in combinations(range(4), 2))
        assert np.array_equal(out.coeffs, psi.coeffs)

    def test_non_unitary_rejected(self, rng):
        psi = random_state(4, 2, rng)
        with pytest.raises(ValueError, match="rotation not unitary"):
            rotate_ci(psi, 0.5 * np.eye(4))
