import tracemalloc
from itertools import combinations

import numpy as np
import pytest

import fermicorr.fock
import fermicorr.limits
from fermicorr import (
    CIWavefunction,
    Determinant,
    OrbitalSpace,
    QuasifreeSpec,
    corr_pure,
    enumerate_basis,
    normalize,
    overlap_oracle,
    verify_wick,
)
from fermicorr.oracle import natural_fock_vector

from conftest import dense_ladder, permutation_overlap, random_state, random_unitary, single_determinant


class TestFockOperatorMatrix:
    def test_single_mode_creation(self):
        c = dense_ladder("creation", 0, 1)
        assert np.array_equal(c, [[0, 0], [1, 0]])

    def test_adjoint_pair(self):
        for p in range(4):
            c = dense_ladder("creation", p, 4)
            a = dense_ladder("annihilation", p, 4)
            assert np.array_equal(a, c.conj().T)

    def test_car_algebra(self):
        d = 4
        eye = np.eye(1 << d)
        for p in range(d):
            for q in range(d):
                a_p = dense_ladder("annihilation", p, d)
                c_q = dense_ladder("creation", q, d)
                anti = a_p @ c_q + c_q @ a_p
                expected = eye if p == q else np.zeros_like(eye)
                assert np.array_equal(anti, expected)

    def test_nilpotent(self):
        for p in range(4):
            a = dense_ladder("annihilation", p, 4)
            assert np.count_nonzero(a @ a) == 0
            c = dense_ladder("creation", p, 4)
            assert np.count_nonzero(c @ c) == 0

    def test_dimension_cap(self, monkeypatch):
        assert fermicorr.limits.MAX_ORACLE_DIM == 14
        monkeypatch.setattr(fermicorr.limits, "MAX_ORACLE_DIM", 4)
        psi = single_determinant(5, (0, 3))
        for run in (
            lambda: fermicorr.fock.sector_ladders(5),
            lambda: natural_fock_vector(psi, np.eye(5)),
            lambda: overlap_oracle(psi),
            lambda: verify_wick(QuasifreeSpec(np.zeros(5)), [], []),
        ):
            with pytest.raises(ValueError, match=r"oracle scale exceeded: d=5 \(limit MAX_ORACLE_DIM = 4\)"):
                run()


class TestOverlapOracle:
    def test_single_determinant(self):
        assert abs(overlap_oracle(single_determinant(5, (0, 3))) - 1.0) < 1e-12

    def test_exact_rationals(self, three_electron_psi, three_electron_phi):
        assert abs(overlap_oracle(three_electron_psi) - 43 / 729) < 1e-12
        assert abs(overlap_oracle(three_electron_phi) - 16 / 729) < 1e-12

    def test_agrees_with_recipe(self):
        rng = np.random.default_rng(77)
        states = []
        for _ in range(30):
            d = int(rng.integers(3, 7))
            n = int(rng.integers(1, d))
            states.append(random_state(d, n, rng))
        rng = np.random.default_rng(1234)
        states += [random_state(6, 3, rng) for _ in range(20)]
        for psi in states:
            recipe = corr_pure(psi).overlap
            brute = overlap_oracle(psi)
            assert abs(recipe - brute) < 1e-8 * brute

    def test_tiny_weight_on_empty_orbitals(self):
        # d = 14 at the oracle cap: a dense 4-particle state on orbitals 0-11
        # and 2e-7 excitations into orbitals 12 and 13, whose natural
        # orbitals are empty and whose rows rotate_ci leaves out
        rng = np.random.default_rng(14)
        psi = random_state(14, 4, rng, support=enumerate_basis(OrbitalSpace(12), 4))
        amps = dict(psi.amplitudes.items())
        for i, held in enumerate(combinations(range(12), 3)):
            if i % 20 == 0:
                amps[Determinant.from_indices((*held, 12 + i % 40 // 20))] = 2e-7 * complex(*rng.normal(size=2))
        psi = normalize(CIWavefunction(psi.space, 4, amps))
        assert abs(corr_pure(psi).overlap - overlap_oracle(psi)) <= fermicorr.limits.AGREEMENT_TOL


class TestNaturalFockVector:
    @pytest.mark.parametrize("d", range(1, 8))
    def test_matches_permutation_minors(self, d):
        # entry s is <a†_{s1}..a†_{sn} 0, psi> = sum_t det(V†[s, t]) c(t), the
        # minors expanded over permutations; a few determinants per state
        # keep the n! expansion short
        rng = np.random.default_rng(d)
        v = random_unitary(d, rng)
        for n in range(d + 1):
            basis = enumerate_basis(OrbitalSpace(d), n)
            support = [basis[i] for i in rng.choice(len(basis), min(3, len(basis)), replace=False)]
            psi = random_state(d, n, rng, support)
            expected = np.zeros(1 << d, dtype=complex)
            for s in basis:
                expected[s.mask] = sum(permutation_overlap(v.conj().T, s, t) * c for t, c in psi.amplitudes.items())
            assert np.abs(natural_fock_vector(psi, v) - expected).max() < 1e-13

    def test_peak_memory_at_the_cap(self):
        # a dense (14, 7) state: the largest level of each half and its
        # gathered parents, not every (parent, orbital, sector row) at once
        psi = random_state(14, 7, np.random.default_rng(14))
        fermicorr.fock._sector_ladders.cache_clear()  # count the tables too
        tracemalloc.start()
        try:
            overlap_oracle(psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 << 20
