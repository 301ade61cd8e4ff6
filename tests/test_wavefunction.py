import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermicorr import (
    CIWavefunction,
    Determinant,
    OnePDM,
    OrbitalSpace,
    diagonalize,
    enumerate_basis,
    inner_product,
    normalize,
    one_pdm,
)

from conftest import dense_ladder, random_state, single_determinant


def det(*indices):
    return Determinant.from_indices(indices)


class TestCIWavefunction:
    def test_rejects_wrong_sector_key(self):
        with pytest.raises(ValueError, match="sector mismatch"):
            CIWavefunction(OrbitalSpace(4), 2, {det(0, 1, 2): 1.0})

    def test_rejects_key_outside_space(self):
        with pytest.raises(ValueError):
            CIWavefunction(OrbitalSpace(3), 1, {det(3): 1.0})

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            CIWavefunction(OrbitalSpace(3), 1, {})

    def test_rejects_nonfinite_amplitude(self):
        for space, amps in (
            (OrbitalSpace(4), {det(0, 1): math.nan, det(2, 3): 1.0}),
            (OrbitalSpace(4), {det(0, 1): complex(1.0, math.nan)}),
            (OrbitalSpace(64), {det(0, 63): math.inf, det(1, 2): 1.0}),
        ):
            with pytest.raises(ValueError, match="finite"):
                CIWavefunction(space, 2, amps)

    def test_sorted_read_only_arrays(self):
        psi = CIWavefunction(OrbitalSpace(64), 1, {det(63): 0.6, det(0): 0.8})
        assert psi.masks.dtype == np.uint64 and psi.masks.tolist() == [1, 1 << 63]
        assert psi.coeffs.tolist() == [0.8, 0.6]
        with pytest.raises(ValueError):
            psi.coeffs[0] = 0.0
        assert dict(psi.amplitudes) == {det(0): 0.8, det(63): 0.6}
        assert det(5) not in psi.amplitudes and psi.amplitude(det(5)) == 0

    def test_equal_by_value(self):
        a = CIWavefunction(OrbitalSpace(4), 2, {det(0, 1): 1.0, det(2, 3): 0.5})
        assert a == CIWavefunction(OrbitalSpace(4), 2, {det(2, 3): 0.5, det(0, 1): 1.0})
        assert a != CIWavefunction(OrbitalSpace(4), 2, {det(0, 1): 1.0, det(2, 3): -0.5})


class TestNormalize:
    def test_single_scale(self):
        psi = CIWavefunction(OrbitalSpace(4), 2, {det(0, 1): 2.0})
        assert normalize(psi).amplitude(det(0, 1)) == 1.0

    def test_two_equal(self):
        psi = CIWavefunction(OrbitalSpace(4), 2, {det(0, 1): 1.0, det(2, 3): 1.0})
        out = normalize(psi)
        assert abs(out.amplitude(det(0, 1)) - 1 / math.sqrt(2)) < 1e-15

    def test_weighted_two_thirds_one_third(self):
        psi = CIWavefunction(
            OrbitalSpace(6), 3, {det(0, 2, 4): math.sqrt(2.0), det(1, 3, 5): 1.0}
        )
        out = normalize(psi)
        assert abs(out.amplitude(det(0, 2, 4)) - math.sqrt(2.0 / 3.0)) < 1e-15
        assert abs(out.amplitude(det(1, 3, 5)) - math.sqrt(1.0 / 3.0)) < 1e-15

    def test_null_state(self):
        psi = CIWavefunction(OrbitalSpace(4), 2, {det(0, 1): 0.0})
        with pytest.raises(ValueError, match="null state"):
            normalize(psi)

    @given(st.integers(2, 6), st.integers(1, 4))
    @settings(deadline=None)
    def test_norm_one_after(self, d, n):
        if n > d:
            return
        rng = np.random.default_rng(d * 31 + n)
        psi = random_state(d, n, rng)
        assert abs(psi.norm() - 1.0) < 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e200, 1e-200, 1e-310])
    def test_norm_of_huge_and_tiny_amplitudes(self, scale):
        # |c|² overflows or underflows, but the norm is finite and nonzero;
        # at 1e-310 it is subnormal, and its reciprocal would overflow
        psi = CIWavefunction(OrbitalSpace(4), 2, {det(0, 1): scale, det(2, 3): -scale})
        assert psi.norm() == math.sqrt(2.0) * scale
        out = normalize(psi)
        assert np.abs(out.coeffs - [2**-0.5, -(2**-0.5)]).max() < 1e-15

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_subnormal_norm_keeps_each_phase(self):
        psi = CIWavefunction(OrbitalSpace(4), 2, {det(0, 1): 1e-310, det(2, 3): 1e-310j})
        out = normalize(psi)
        assert np.abs(out.coeffs - [2**-0.5, 2**-0.5 * 1j]).max() < 1e-15
        assert abs(out.norm() - 1.0) < 1e-15

    def test_norm_is_the_plain_sum_where_that_is_exact(self, rng):
        # scaling by a power of two changes no bit of a norm whose squares
        # neither overflow nor underflow
        for d, n in [(4, 2), (6, 3), (8, 2)]:
            psi = random_state(d, n, rng)
            for factor in (1.0, 3.7e5, 2.1e-7):
                coeffs = psi.coeffs * factor
                scaled = CIWavefunction.from_arrays(psi.space, n, psi.masks, coeffs)
                assert scaled.norm() == math.sqrt(math.fsum((np.abs(coeffs) ** 2).tolist()))


class TestInnerProduct:
    def test_self_overlap_is_one(self, rng):
        psi = random_state(5, 2, rng)
        assert abs(inner_product(psi, psi) - 1.0) < 1e-12

    def test_orthogonal_determinants(self):
        a = single_determinant(4, (0, 1))
        b = single_determinant(4, (0, 2))
        assert inner_product(a, b) == 0

    def test_disjoint_supports(self, three_electron_psi, three_electron_phi):
        assert inner_product(three_electron_psi, three_electron_phi) == 0

    def test_conjugate_symmetry(self, rng):
        a = random_state(5, 2, rng)
        b = random_state(5, 2, rng)
        assert abs(inner_product(a, b) - inner_product(b, a).conjugate()) < 1e-14

    def test_sector_mismatch(self, rng):
        a = random_state(5, 2, rng)
        b = random_state(5, 3, rng)
        with pytest.raises(ValueError, match="sector mismatch"):
            inner_product(a, b)


class TestOnePDM:
    def test_single_determinant_projector(self):
        gamma = one_pdm(single_determinant(4, (0, 1))).gamma
        assert np.allclose(gamma, np.diag([1.0, 1.0, 0.0, 0.0]), atol=1e-15)

    def test_idempotent_for_determinants(self, rng):
        gamma = one_pdm(single_determinant(6, (1, 3, 4))).gamma
        assert np.max(np.abs(gamma @ gamma - gamma)) < 1e-12

    def test_two_config_diagonal(self, three_electron_psi):
        gamma = one_pdm(three_electron_psi).gamma
        expected = np.diag([2 / 3, 1 / 3, 2 / 3, 1 / 3, 2 / 3, 1 / 3])
        assert np.max(np.abs(gamma - expected)) < 1e-14

    def test_three_config_same_gamma(self, three_electron_psi, three_electron_phi):
        g1 = one_pdm(three_electron_psi).gamma
        g2 = one_pdm(three_electron_phi).gamma
        assert np.max(np.abs(g1 - g2)) < 1e-14

    def test_invariants_on_random_states(self):
        # Hermitian, trace n, eigenvalues in [0, 1]: checked by the OnePDM
        # constructor, so it simply must not raise.
        rng = np.random.default_rng(11)
        for _ in range(100):
            d = int(rng.integers(2, 9))
            n = int(rng.integers(1, d + 1))
            gamma = one_pdm(random_state(d, n, rng))
            assert abs(np.trace(gamma.gamma).real - n) < 1e-10

    def test_global_phase_invariance(self, rng):
        psi = random_state(6, 3, rng)
        phase = np.exp(1j * 0.7318)
        shifted = CIWavefunction(
            psi.space, psi.n, {k: phase * v for k, v in psi.amplitudes.items()}
        )
        assert np.max(np.abs(one_pdm(psi).gamma - one_pdm(shifted).gamma)) < 1e-12

    @pytest.mark.parametrize("d,n", [(4, 0), (4, 4), (5, 1), (6, 3), (7, 2), (8, 4), (8, 5)])
    def test_matches_dense_ladder_expectation(self, d, n, rng):
        # gamma[p, q] = <psi| a†_q a_p |psi> on the explicit 2^d vector
        for support in (None, enumerate_basis(OrbitalSpace(d), n)[::3]):
            psi = random_state(d, n, rng, support=support)
            vec = np.zeros(1 << d, dtype=complex)
            for key, c in psi.items_sorted():
                vec[key.mask] = c
            lowered = [dense_ladder("annihilation", p, d) @ vec for p in range(d)]
            creation = [dense_ladder("creation", q, d) for q in range(d)]
            expected = np.array(
                [[np.vdot(vec, creation[q] @ lowered[p]) for q in range(d)] for p in range(d)]
            )
            assert np.max(np.abs(one_pdm(psi).gamma - expected)) < 1e-12


class TestOnePDMValidation:
    # OnePDM checks the shape; Hermiticity and the eigenvalue window are
    # checked once, by diagonalize
    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            diagonalize(OnePDM(np.array([[0.5, 0.2], [0.1, 0.5]])))

    def test_eigenvalue_window(self):
        with pytest.raises(ValueError, match="invalid occupation"):
            diagonalize(OnePDM(np.diag([1.5, 0.5])))
