import math
import warnings
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fermicorr.corr
import fermicorr.limits
import fermicorr.natural_orbitals
import fermicorr.oracle
from fermicorr import (
    CIWavefunction,
    Determinant,
    MixedState,
    OrbitalSpace,
    QuasifreeSpec,
    corr_mixed,
    corr_pure,
    corr_two_particle,
    correlation_entropy,
    degree_of_correlation,
    diagonalize,
    enumerate_basis,
    heitler_london_state,
    inner_product,
    normalize,
    one_pdm,
    overlap_oracle,
    pattern_probabilities,
    rotate_ci,
    schmidt_2e,
)
from fermicorr.cli import load_mixture
from fermicorr.corr import _neg_log_overlap

from conftest import random_state, random_unitary, single_determinant

DATA = Path(__file__).resolve().parent.parent / "data"


def det(*indices):
    return Determinant.from_indices(indices)


def rotated_determinant(d, indices, rng):
    return rotate_ci(single_determinant(d, indices), random_unitary(d, rng))


def two_config_state(d, rng):
    """Random base determinant plus a double excitation: never a Slater
    determinant when both amplitudes are bounded away from 0 and 1."""
    n = int(rng.integers(2, d - 1))
    orbitals = list(rng.permutation(d))
    base = sorted(orbitals[:n])
    excited = sorted(orbitals[: n - 2] + orbitals[n : n + 2])
    q = rng.uniform(0.05, 0.95)
    theta = rng.uniform(0, 2 * np.pi)
    return CIWavefunction(
        OrbitalSpace(d),
        n,
        {
            det(*base): math.sqrt(q),
            det(*excited): math.sqrt(1 - q) * np.exp(1j * theta),
        },
    )


class TestCorrPure:
    def test_single_determinant_is_zero(self):
        res = corr_pure(single_determinant(6, (0, 2, 5)))
        assert res.corr < 1e-10
        assert res.overlap > 1 - 1e-10

    def test_two_config_value(self, three_electron_psi):
        res = corr_pure(three_electron_psi)
        assert abs(res.corr - 4.083) < 0.005
        assert abs(res.overlap - 43 / 729) < 1e-12
        assert abs(res.corr - (-math.log2(43 / 729))) < 1e-10

    def test_three_config_value(self, three_electron_phi):
        res = corr_pure(three_electron_phi)
        assert abs(res.corr - 5.510) < 0.005
        assert abs(res.overlap - 16 / 729) < 1e-12
        assert abs(res.corr - (-math.log2(16 / 729))) < 1e-10

    def test_same_gamma_different_corr(self, three_electron_psi, three_electron_phi):
        a = corr_pure(three_electron_psi)
        b = corr_pure(three_electron_phi)
        assert np.allclose(a.occupations, b.occupations, atol=1e-10)
        assert abs(a.corr - b.corr) > 1.0

    def test_natural_log_base(self, three_electron_psi):
        res = corr_pure(three_electron_psi, base=math.e)
        assert abs(res.corr - (-math.log(43 / 729))) < 1e-10

    def test_rotated_determinants_stay_zero(self, rng):
        for _ in range(20):
            d = int(rng.integers(3, 9))
            n = int(rng.integers(1, d))
            indices = sorted(rng.permutation(d)[:n].tolist())
            psi = rotated_determinant(d, indices, rng)
            assert corr_pure(psi).corr < 1e-9

    def test_two_config_states_are_correlated(self, rng):
        for _ in range(20):
            d = int(rng.integers(4, 9))
            assert corr_pure(two_config_state(d, rng)).corr > 0.01

    def test_nonnegative(self, rng):
        for _ in range(10):
            d = int(rng.integers(3, 7))
            n = int(rng.integers(1, d))
            assert corr_pure(random_state(d, n, rng)).corr >= 0.0


def wide_state(blocks) -> CIWavefunction:
    """Product over blocks of superpositions {orbitals: amplitude} in d=64;
    blocks on increasing orbitals, so their wedge product carries no sign."""
    terms = {(): 1.0}
    for block in blocks:
        terms = {a + b: ca * cb for a, ca in terms.items() for b, cb in block.items()}
    amps = {det(*orbitals): c for orbitals, c in terms.items()}
    return CIWavefunction(OrbitalSpace(64), len(next(iter(terms))), amps)


def binary_entropy_bits(lam) -> float:
    """sum_i h2(lambda_i) in bits, the entropy of the reference's patterns."""
    return -math.fsum(
        x * math.log2(x) + (1 - x) * math.log2(1 - x) for x in map(float, lam) if 0 < x < 1
    )


class TestWideOrbitalSpace:
    """Closed forms at d=64, where no oracle runs; every state occupies bit 63."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_heitler_london_dimers_add(self, k):
        h = 1 / math.sqrt(2)
        dimers = [{(o, o + 3): h, (o + 1, o + 2): -h} for o in range(64 - 4 * k, 64, 4)]
        assert abs(corr_pure(wide_state(dimers)).corr - 4 * k) < 1e-10

    @pytest.mark.parametrize("k", range(2, 11))
    def test_disjoint_superposition(self, k):
        # (|S> + |T>)/sqrt(2), |S| = |T| = k, T ends at orbital 63; from k = 2 on
        # gamma is diagonal (k = 1 is one particle, hence a determinant).  Both
        # determinants have pattern weight 2^-2k, so corr sits at its Jensen
        # bound sum_i h2(lambda_i)
        h = 1 / math.sqrt(2)
        res = corr_pure(wide_state([{tuple(range(0, 2 * k, 2)): h, tuple(range(64 - k, 64)): h}]))
        assert abs(res.corr - 2 * k) < 1e-10
        assert abs(binary_entropy_bits(res.occupations) - 2 * k) < 1e-10

    def test_relabelled_support(self, rng):
        # an order-preserving relabelling keeps every sign and every occupation
        sector = enumerate_basis(OrbitalSpace(8), 3)
        for _ in range(5):
            support = [sector[i] for i in rng.choice(len(sector), size=5, replace=False)]
            psi = random_state(8, 3, rng, support=support)
            labels = sorted(rng.choice(63, size=7, replace=False).tolist()) + [63]
            wide = CIWavefunction(
                OrbitalSpace(64),
                3,
                {det(*(labels[i] for i in key.indices)): c for key, c in psi.items_sorted()},
            )
            assert abs(corr_pure(wide).corr - corr_pure(psi).corr) < 1e-12

    def test_subnormal_natural_orbital_entry(self):
        # a natural orbital of this state has a component of 8e-311, and
        # np.linalg.det gave nan on the minor holding it, which corr used to
        # report as 0 bits; the value is that of the relabelled d=6 state
        coeffs = [0.08776911980822988 + 0.10971139976028735j, 0.2194227995205747 + 0.4388455990411494j,
                  0.702152958465839j, 0.3510764792329195 + 0.3510764792329195j]
        keys = [(0, 5, 6), (4, 5, 23), (0, 23, 24), (5, 23, 24)]
        psi = CIWavefunction(OrbitalSpace(64), 3, {det(*key): c for key, c in zip(keys, coeffs)})
        relabel = {0: 0, 4: 1, 5: 2, 6: 3, 23: 4, 24: 5}
        small = CIWavefunction(
            OrbitalSpace(6), 3, {det(*(relabel[o] for o in key)): c for key, c in zip(keys, coeffs)}
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            corr = corr_pure(psi).corr
        assert abs(corr - corr_pure(small).corr) < 1e-12
        assert abs(corr + math.log2(overlap_oracle(small))) < 1e-12

    def test_support_wider_than_gamma_rank(self):
        # |0> ^ (|1> + |63>)/sqrt(2): three support orbitals, two natural orbitals
        h = 1 / math.sqrt(2)
        psi = CIWavefunction(OrbitalSpace(64), 2, {det(0, 1): h, det(0, 63): h})
        assert abs(corr_pure(psi).corr) < 1e-12

    def test_determinant_spread_over_orbital_pairs(self):
        # prod (a†_o + a†_o+1)/sqrt(2) over 13 pairs ending at 63: 8192 records
        # on 26 orbitals, gamma of rank 13; the C(26, 13) determinants of the
        # support exceed the rotation budget, the 8192 13x13 minors do not
        h = 1 / math.sqrt(2)
        psi = wide_state([{(o,): h, (o + 1,): h} for o in range(38, 64, 2)])
        assert psi.masks.size == 8192
        assert abs(corr_pure(psi).corr) < 1e-12

    @pytest.mark.parametrize("z", [0.0, 1e-7])
    def test_negligible_determinant_on_other_orbitals(self, z):
        # |0..12> + z|51..63>: for z^2 below OCCUPATION_FLOOR the second
        # determinant widens the support to 26 orbitals but adds no natural
        # orbital, and corr = z^2 log2(e) + O(z^4)
        amps = {det(*range(13)): 1.0, det(*range(51, 64)): z}
        psi = CIWavefunction(OrbitalSpace(64), 13, amps)
        assert abs(corr_pure(psi).corr) < 1e-12

    def test_negligible_determinant_on_held_orbitals(self, monkeypatch, rng):
        # a (14, 5) state of determinants linked by single and double
        # excitations, plus 1e-7 on five otherwise-empty orbitals: those hold a
        # determinant but carry no natural orbital, so Givens rotates the k
        # occupied orbitals alone (r = k) and leaves that determinant out
        singles_doubles = [
            det(*sorted(set(range(5)) - set(holes) | set(parts)))
            for m in (1, 2)
            for holes in combinations(range(5), m)
            for parts in combinations(range(5, 14), m)
        ]
        picked = rng.choice(len(singles_doubles), size=30, replace=False)
        psi = random_state(64, 5, rng, support=[det(*range(5))] + [singles_doubles[i] for i in picked])
        extra = CIWavefunction(psi.space, 5, {**dict(psi.items_sorted()), det(*range(59, 64)): 1e-7})
        rotations = []
        givens = fermicorr.natural_orbitals._rotate_givens
        monkeypatch.setattr(
            fermicorr.natural_orbitals,
            "_rotate_givens",
            lambda psi, v, active: rotations.append((active.size, v.shape[1])) or givens(psi, v, active),
        )
        corr = corr_pure(extra).corr
        assert rotations == [(14, 14)]
        assert abs(corr - corr_pure(psi).corr) < 1e-12

    def test_mixture_of_disjoint_determinants(self):
        # w|A><A| + (1-w)|B><B|: lambda = w on A and 1-w on B, so
        # p(A) = w^2n, p(B) = (1-w)^2n and F = w^(n+1/2) + (1-w)^(n+1/2);
        # each component's support is half of the active orbitals
        n, w = 3, 0.3
        space = OrbitalSpace(64)
        a = CIWavefunction(space, n, {det(2, 20, 63): 1.0})
        b = CIWavefunction(space, n, {det(0, 30, 41): 1.0})
        expected = -2 * math.log2(w ** (n + 0.5) + (1 - w) ** (n + 0.5))
        assert abs(corr_mixed(MixedState([(w, a), (1 - w, b)])).corr - expected) < 1e-12


class TestBasisInvariance:
    def test_corr_invariant_under_rotation(self, rng):
        for _ in range(5):
            psi = random_state(6, 3, rng)
            rotated = rotate_ci(psi, random_unitary(6, rng))
            assert abs(corr_pure(psi).corr - corr_pure(rotated).corr) < 1e-8

    def test_degenerate_block_invariance(self, three_electron_psi):
        rng = np.random.default_rng(42)
        basis = diagonalize(one_pdm(three_electron_psi))
        spec = QuasifreeSpec(basis.occupations)

        def overlap_with(vectors):
            rotated = rotate_ci(three_electron_psi, vectors)
            terms = pattern_probabilities(spec, rotated.masks) * np.abs(rotated.coeffs) ** 2
            return math.fsum(terms.tolist())

        reference = overlap_with(basis.vectors)
        lam = basis.occupations
        for _ in range(5):
            vectors = basis.vectors.copy()
            start = 0
            while start < len(lam):
                stop = start + 1
                while stop < len(lam) and abs(lam[stop] - lam[start]) < 1e-10:
                    stop += 1
                if stop - start > 1:
                    mix = random_unitary(stop - start, rng)
                    vectors[:, start:stop] = vectors[:, start:stop] @ mix
                start = stop
            assert abs(overlap_with(vectors) - reference) < 1e-8


class TestGammaStepOnce:
    """gamma is built, validated and diagonalized once per call."""

    def test_corr_pure_one_eigh(self, monkeypatch, three_electron_psi):
        d = three_electron_psi.space.d
        calls = []
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def counted(a, *args, _name=name, _original=original, **kwargs):
                if np.shape(a) == (d, d):
                    calls.append(_name)
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        result = corr_pure(three_electron_psi)
        assert calls == ["eigh"]
        assert result.fidelity is None

    def test_corr_pure_oracle_one_gamma(self, monkeypatch, three_electron_psi):
        # corr_pure's brute-force oracle is overlap_oracle
        calls = []

        def counted(psi):
            calls.append(psi)
            return one_pdm(psi)

        monkeypatch.setattr(fermicorr.oracle, "one_pdm", counted)
        assert abs(overlap_oracle(three_electron_psi) - 43 / 729) < 1e-12
        assert len(calls) == 1


class TestSchmidt2e:
    def test_single_determinant(self):
        form = schmidt_2e(single_determinant(4, (0, 1)))
        assert len(form.pairs) == 1
        f, g, p = form.pairs[0]
        assert abs(p - 1.0) < 1e-12
        span = np.abs(np.stack([f, g]))
        assert np.allclose(sorted(np.argmax(span, axis=1)), [0, 1])

    def test_heitler_london_pairs(self):
        form = schmidt_2e(heitler_london_state())
        assert np.allclose(sorted(form.weights), [0.5, 0.5], atol=1e-12)

    def test_weights_match_paired_gamma_spectrum(self, rng):
        for d in (4, 5, 6, 8):
            psi = random_state(d, 2, rng)
            lam = diagonalize(one_pdm(psi)).occupations
            weights = sorted(form_w for form_w in schmidt_2e(psi).weights if form_w > 1e-12)
            expected = sorted(lam[lam > 1e-12][0::2])
            assert np.allclose(weights, expected, atol=1e-10)

    def test_reconstruction(self, rng):
        for d in (4, 6, 7):
            psi = random_state(d, 2, rng)
            a = np.zeros((d, d), dtype=complex)
            for key, c in psi.amplitudes.items():
                p, q = key.indices
                a[p, q] = c
                a[q, p] = -c
            rebuilt = np.zeros_like(a)
            for f, g, w in schmidt_2e(psi).pairs:
                rebuilt += math.sqrt(w) * (np.outer(f, g) - np.outer(g, f))
            assert np.max(np.abs(rebuilt - a)) < 1e-10

    def test_wrong_particle_number(self, rng):
        with pytest.raises(ValueError, match="n=2"):
            schmidt_2e(random_state(5, 3, rng))


class TestCorrTwoParticle:
    def test_single_pair_is_zero(self):
        assert corr_two_particle(single_determinant(4, (1, 3))).corr < 1e-12

    def test_half_half_gives_four_bits(self):
        # -log2(2 * 1/2 * (1/4)^2) = -log2(1/16)
        res = corr_two_particle(heitler_london_state())
        assert abs(res.corr - 4.0) < 1e-12
        assert abs(corr_pure(heitler_london_state()).corr - 4.0) < 1e-9

    def test_matches_general_recipe(self):
        rng = np.random.default_rng(5150)
        for _ in range(50):
            d = int(rng.integers(4, 9))
            psi = random_state(d, 2, rng)
            assert abs(corr_two_particle(psi).corr - corr_pure(psi).corr) < 1e-10

    @pytest.mark.parametrize("x", [1e-13, 2e-12])
    def test_pair_weight_near_the_occupation_floor(self, rng, x):
        # pair weights (0.5, 0.3, 0.2 - x, x) on random orbitals: below
        # OCCUPATION_FLOOR the last pair is left out; above it, its deflated
        # orbitals carry roundoff / sqrt(x), about 1e-10, within UNITARITY_TOL
        d = 12
        q = random_unitary(d, rng)
        a = sum(
            math.sqrt(w) * (np.outer(q[:, 2 * j], q[:, 2 * j + 1]) - np.outer(q[:, 2 * j + 1], q[:, 2 * j]))
            for j, w in enumerate([0.5, 0.3, 0.2 - x, x])
        )
        amps = {det(p, r): a[p, r] for p, r in combinations(range(d), 2)}
        psi = normalize(CIWavefunction(OrbitalSpace(d), 2, amps))
        assert len(schmidt_2e(psi).pairs) == (3 if x < 1e-12 else 4)
        assert abs(corr_two_particle(psi).corr - corr_pure(psi).corr) < 1e-10

    def test_degenerate_pair_weights(self, rng):
        # two exactly equal pair weights; the canonical form is not unique
        # but the measure is
        space = OrbitalSpace(4)
        psi = normalize(
            CIWavefunction(space, 2, {det(0, 1): 1.0, det(2, 3): 1.0})
        )
        assert np.allclose(sorted(schmidt_2e(psi).weights), [0.5, 0.5], atol=1e-12)
        assert abs(corr_two_particle(psi).corr - corr_pure(psi).corr) < 1e-10
        # four equal pair weights: a fourfold-degenerate top eigenvalue
        psi = normalize(
            CIWavefunction(
                OrbitalSpace(8), 2, {det(0, 1): 1.0, det(2, 3): 1.0, det(4, 5): 1.0, det(6, 7): 1.0}
            )
        )
        assert np.allclose(schmidt_2e(psi).weights, [0.25] * 4, atol=1e-12)
        assert abs(corr_two_particle(psi).corr - corr_pure(psi).corr) < 1e-10
        # pair weights 1e-7 apart, in a random orbital basis
        for d in (6, 8):
            amps = np.array([1.0 + 1e-6 * k for k in range(d // 2)])
            psi = normalize(
                CIWavefunction(
                    OrbitalSpace(d), 2, {det(2 * k, 2 * k + 1): a for k, a in enumerate(amps)}
                )
            )
            psi = rotate_ci(psi, random_unitary(d, rng))
            expected = sorted(amps**2 / np.sum(amps**2))
            assert np.allclose(sorted(schmidt_2e(psi).weights), expected, atol=1e-12)


def one_particle_state(space, vector):
    amps = {det(p): vector[p] for p in range(space.d)}
    return normalize(CIWavefunction(space, 1, amps))


def dense_fidelity(mixed):
    """Dense-route oracle: materialize D and rho on the full Fock space in
    the natural-orbital basis and take Tr sqrt(sqrt(D) rho sqrt(D)).  The
    components enter the basis through the oracle's rotated ladder
    operators, not through rotate_ci."""
    space = mixed.space
    d = space.d
    nelec = sum(w * psi.n for w, psi in mixed.components)
    gamma = sum(w * one_pdm(psi).gamma for w, psi in mixed.components)
    basis = diagonalize(gamma)
    spec = QuasifreeSpec(basis.occupations)
    dim = 1 << d
    dens = np.zeros((dim, dim), dtype=complex)
    for w, psi in mixed.components:
        vec = fermicorr.oracle.natural_fock_vector(psi, basis.vectors)
        dens += w * np.outer(vec, vec.conjugate())
    rho = np.diag(pattern_probabilities(spec, np.arange(dim)))
    w_d, v_d = np.linalg.eigh(dens)
    sqrt_d = (v_d * np.sqrt(np.clip(w_d, 0, None))) @ v_d.conj().T
    middle = sqrt_d @ rho @ sqrt_d
    eig = np.clip(np.linalg.eigvalsh(middle), 0, None)
    eig[eig < 1e-13] = 0.0  # rank-deficiency noise would pollute the sqrt
    return float(np.sum(np.sqrt(eig)))


class TestCorrMixed:
    def test_pure_state_consistency(self, three_electron_psi):
        res = corr_mixed(MixedState([(1.0, three_electron_psi)]))
        assert abs(res.corr - 4.083) < 0.005
        assert abs(res.corr - corr_pure(three_electron_psi).corr) < 1e-8

    def test_orthogonal_one_particle_mixture_exact_basis(self):
        space = OrbitalSpace(2)
        mix = MixedState(
            [
                (0.5, one_particle_state(space, [1.0, 0.0])),
                (0.5, one_particle_state(space, [0.0, 1.0])),
            ]
        )
        res = corr_mixed(mix)
        assert abs(res.corr - 1.0) < 1e-10
        assert abs(res.fidelity - 1 / math.sqrt(2)) < 1e-12

    def test_orthogonal_one_particle_mixture_random_basis(self, rng):
        space = OrbitalSpace(5)
        q = random_unitary(5, rng)
        mix = MixedState(
            [
                (0.5, one_particle_state(space, q[:, 0])),
                (0.5, one_particle_state(space, q[:, 1])),
            ]
        )
        assert abs(corr_mixed(mix).corr - 1.0) < 1e-9

    def test_quasifree_input_scores_zero(self):
        res = corr_mixed(MixedState([(1.0, single_determinant(4, (0, 2)))]))
        assert res.corr < 1e-10
        assert abs(res.fidelity - 1.0) < 1e-12

    def test_positive_on_mixtures_of_determinants(self, rng):
        space = OrbitalSpace(4)
        mix = MixedState(
            [
                (0.5, single_determinant(4, (0, 1))),
                (0.5, single_determinant(4, (2, 3))),
            ]
        )
        assert corr_mixed(mix).corr > 0.5

    def test_against_dense_route(self, rng):
        space = OrbitalSpace(4)
        components = [
            (0.3, random_state(4, 2, rng)),
            (0.5, random_state(4, 2, rng)),
            (0.2, random_state(4, 1, rng)),
        ]
        mix = MixedState(components)
        res = corr_mixed(mix)
        expected = dense_fidelity(mix)
        assert abs(res.fidelity - expected) < 1e-10
        assert abs(res.corr - (-2 * math.log2(expected))) < 1e-8

    def test_weights_divided_by_their_sum(self):
        # weights 1 + 9.9e-11 in total, inside WEIGHT_SUM_TOL; used as given
        # they put gamma's eigenvalues 5e-11 above 1/2 and corr 1.4e-10 off
        w = 0.5 + 4.95e-11
        mix = MixedState([(w, single_determinant(4, (0, 1))), (w, single_determinant(4, (2, 3)))])
        assert abs(corr_mixed(mix).corr - 3.0) < 1e-13

    def test_duplicate_components_collapse(self, rng):
        # two copies of the same state are just that state
        psi = random_state(5, 2, rng)
        mix = MixedState([(0.5, psi), (0.5, psi)])
        assert abs(corr_mixed(mix).corr - corr_pure(psi).corr) < 1e-12

    @pytest.mark.parametrize("n, theta", [(2, 0.1), (2, 0.05), (2, 0.03), (2, 0.02), (3, 0.1)])
    def test_near_parallel_pair_closed_form(self, n, theta):
        # w|S><S| + (1-w)|b><b| with b = cos(theta)|S> + sin(theta)|T> on
        # d = 2n orbitals, S = {0..n-1} and T = {n..2n-1}.  S and T differ by
        # n >= 2 orbitals, so gamma is diagonal, and the sector matrix X is
        # 2 x 2 on the patterns S and T, with nuclear norm
        # sqrt(|X|_F² + 2 |det X|).  Its small singular value, 7e-10 to 2e-6
        # here, is one that square roots of X X†'s eigenvalues (absolute
        # error about 1e-16 times the trace) would lose or get wrong.
        w = 0.3
        space = OrbitalSpace(2 * n)
        s_det, t_det = det(*range(n)), det(*range(n, 2 * n))
        a = CIWavefunction(space, n, {s_det: 1.0})
        b = CIWavefunction(space, n, {s_det: math.cos(theta), t_det: math.sin(theta)})
        lam_s = w + (1 - w) * math.cos(theta) ** 2
        lam_t = (1 - w) * math.sin(theta) ** 2
        p_s = (lam_s * (1 - lam_t)) ** n
        p_t = (lam_t * (1 - lam_s)) ** n
        x = np.array([
            [math.sqrt(w * p_s), 0.0],
            [math.sqrt((1 - w) * p_s) * math.cos(theta), math.sqrt((1 - w) * p_t) * math.sin(theta)],
        ])
        fidelity = math.sqrt(np.sum(x**2) + 2 * abs(np.linalg.det(x)))
        res = corr_mixed(MixedState([(w, a), (1 - w, b)]))
        assert abs(res.fidelity - fidelity) <= 1e-15
        assert abs(res.corr + 2 * math.log2(fidelity)) <= 1e-14

    def test_weight_validation(self, three_electron_psi):
        with pytest.raises(ValueError, match="sum to 1"):
            MixedState([(0.7, three_electron_psi)])
        with pytest.raises(ValueError, match="positive"):
            MixedState([(1.5, three_electron_psi), (-0.5, three_electron_psi)])

    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    def test_nonfinite_weight_rejected(self, three_electron_psi, weight):
        with pytest.raises(ValueError, match="positive and finite"):
            MixedState([(weight, three_electron_psi)])


class TestSpectralMeasures:
    def test_entropy_of_determinant(self):
        gamma = one_pdm(single_determinant(6, (0, 1, 2)))
        assert abs(correlation_entropy(gamma) - math.log2(3)) < 1e-12
        assert correlation_entropy(gamma, convention="raw") < 1e-12

    def test_entropy_single_orbital(self):
        gamma = one_pdm(single_determinant(3, (1,)))
        assert correlation_entropy(gamma) < 1e-12

    def test_entropy_two_thirds_spectrum(self, three_electron_psi):
        gamma = one_pdm(three_electron_psi)
        mu = [2 / 9] * 3 + [1 / 9] * 3
        expected = -math.fsum(m * math.log2(m) for m in mu)
        value = correlation_entropy(gamma)
        assert abs(value - expected) < 1e-12
        assert abs(value - 2.503) < 5e-4

    def test_degree_examples(self, three_electron_psi):
        assert abs(degree_of_correlation(one_pdm(single_determinant(6, (0, 1, 2)))) - 3) < 1e-10
        assert abs(degree_of_correlation(one_pdm(single_determinant(3, (1,)))) - 1) < 1e-12
        assert abs(degree_of_correlation(one_pdm(three_electron_psi)) - 81 / 15) < 1e-10

    def test_unknown_convention(self, three_electron_psi):
        with pytest.raises(ValueError, match="convention"):
            correlation_entropy(one_pdm(three_electron_psi), convention="other")

    def test_invalid_spectrum_rejected(self):
        for measure in (correlation_entropy, degree_of_correlation):
            with pytest.raises(ValueError, match="invalid occupation"):
                measure(np.diag([1.5, 0.5]))


class TestOverflowHandling:
    def test_zero_overlap_rejected(self):
        with pytest.raises(ValueError, match="no weight on the quasifree reference"):
            _neg_log_overlap(0.0, 2.0)

    def test_roundoff_above_one_clamped(self):
        assert _neg_log_overlap(1.0 + 1e-15, 2.0) == (0.0, 1.0)
        assert _neg_log_overlap(1.0 + 1e-15, 2.0, power=2) == (0.0, 1.0)

    def test_log_of_the_fidelity(self):
        # corr is -2 log F: a fidelity whose square is below the smallest
        # double still gives its corr
        corr, overlap = _neg_log_overlap(1e-200, 2.0, power=2)
        assert overlap == 0.0
        assert corr == pytest.approx(400 * math.log2(10), rel=1e-15)


def pinned_state(scale: float) -> CIWavefunction:
    """sqrt(0.7)|0,1,3> + sqrt(0.3)|0,2,4>, times scale: orbital 0 has
    occupation 1, the edge of the eigenvalue window."""
    amps = {det(0, 1, 3): math.sqrt(0.7) * scale, det(0, 2, 4): math.sqrt(0.3) * scale}
    return CIWavefunction(OrbitalSpace(6), 3, amps)


class TestNormTolerance:
    """One norm tolerance, limits.NORM_TOL, checked once per component
    by each corr route, ahead of the eigenvalue window."""

    def test_accepted_norm_is_never_refused_later(self):
        # norm 1 + 4e-10: gamma's pinned eigenvalue would be 8e-10 above 1,
        # past EIGENVALUE_TOL = 1e-10
        psi, unit = pinned_state(1 + 4e-10), pinned_state(1.0)
        expected = corr_pure(unit).corr
        assert abs(corr_pure(psi).corr - expected) < 1e-12
        assert abs(corr_mixed(MixedState([(1.0, psi)])).corr - expected) < 1e-12
        assert abs(overlap_oracle(psi) - overlap_oracle(unit)) < 1e-12
        pair = heitler_london_state()
        pair = CIWavefunction.from_arrays(pair.space, 2, pair.masks, pair.coeffs * (1 + 4e-10))
        assert abs(corr_two_particle(pair).corr - 4.0) < 1e-12

    def test_norm_beyond_the_tolerance_is_one_error(self):
        psi = pinned_state(1 + 1e-6)
        for run in (
            lambda: corr_mixed(MixedState([(1.0, psi)])),
            lambda: corr_pure(psi),
            lambda: overlap_oracle(psi),
            lambda: corr_two_particle(CIWavefunction(OrbitalSpace(4), 2, {det(0, 1): 1 + 1e-6})),
        ):
            with pytest.raises(ValueError, match=r"state norm 1\.00000\d* is not 1 \(limit NORM_TOL = 1e-09\)"):
                run()

    def test_one_norm_pass_per_component(self, monkeypatch):
        calls = []
        real = fermicorr.corr.unit_norm2
        monkeypatch.setattr(fermicorr.corr, "unit_norm2", lambda psi: calls.append(psi) or real(psi))
        assert abs(corr_mixed(load_mixture(DATA / "half_half.mix")).corr - 1.0) < 1e-12
        assert len(calls) == 2

    def test_refusals_print_plain_floats(self, three_electron_psi):
        refusals = [
            lambda: diagonalize(np.diag([np.float64(1.5), 0.5])),
            lambda: diagonalize(np.array([[0.5, 0.2], [0.1, 0.5]])),
            lambda: MixedState([(np.float64(0.7), three_electron_psi)]),
            lambda: MixedState([(np.float64(np.nan), three_electron_psi)]),
            lambda: rotate_ci(three_electron_psi, 0.5 * np.eye(6)),
        ]
        messages = []
        for run in refusals:
            with pytest.raises(ValueError) as refused:
                run()
            messages.append(str(refused.value))
        assert not [m for m in messages if "np.float64" in m]
        assert "eigenvalue 1.5 outside [0, 1] (limit EIGENVALUE_TOL = 1e-10)" in messages[0]
        assert "(limit HERMITICITY_TOL = 1e-12)" in messages[1]
        assert "not 0.7 (limit WEIGHT_SUM_TOL = 1e-10)" in messages[2]
        assert "got nan" in messages[3]
        assert "(limit UNITARITY_TOL = 1e-08)" in messages[4]


@st.composite
def few_determinant_states(draw) -> CIWavefunction:
    """1-6 determinants of n <= 5 particles on up to 12 of the 64 orbitals."""
    n = draw(st.integers(1, 5))
    support = draw(st.lists(st.integers(0, 63), min_size=n, max_size=12, unique=True))
    subsets = st.lists(st.sampled_from(support), min_size=n, max_size=n, unique=True)
    dets = draw(st.lists(subsets.map(lambda s: det(*sorted(s))), min_size=1, max_size=6, unique=True))
    amps = [draw(st.complex_numbers(max_magnitude=1.0)) for _ in dets]
    norm = math.sqrt(math.fsum(abs(a) ** 2 for a in amps))
    assume(norm > 1e-3)
    return CIWavefunction(OrbitalSpace(64), n, {key: a / norm for key, a in zip(dets, amps)})


@st.composite
def mixtures(draw) -> MixedState:
    """1-4 components of any particle numbers on d <= 8 orbitals, each
    on up to 5 determinants."""
    d = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = draw(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=4))
    components = []
    for w in weights:
        sector = enumerate_basis(OrbitalSpace(d), int(rng.integers(0, d + 1)))
        picked = rng.choice(len(sector), size=min(len(sector), int(rng.integers(1, 6))), replace=False)
        components.append((w / math.fsum(weights), random_state(d, sector[0].particle_count, rng,
                                                               support=[sector[i] for i in picked])))
    return MixedState(components)


class TestJensenBound:
    """-log <psi, rho psi> <= -<psi, log rho psi> = sum_i h2(lambda_i) <= k
    bits (Jensen), so no accepted overlap comes near the smallest double."""

    @given(few_determinant_states())
    @settings(max_examples=40, deadline=None)
    def test_pure_state_below_its_pattern_entropy(self, psi):
        res = corr_pure(psi)
        assert res.corr <= binary_entropy_bits(res.occupations) + 1e-9

    @given(mixtures())
    @settings(max_examples=60, deadline=None)
    def test_mixture_below_its_bound(self, mixed):
        # F^2 >= Tr(D rho) >= w_max <psi_max, rho psi_max>, and each of the k
        # occupied natural orbitals costs psi_max at most 1 + log2(1/w_max)
        res = corr_mixed(mixed)
        k = int(np.count_nonzero(res.occupations >= fermicorr.limits.OCCUPATION_FLOOR))
        w_max = max(w for w, _ in mixed.components)
        assert res.corr <= k + (k + 1) * math.log2(1 / w_max) + 1e-9

    @given(mixtures())
    @settings(max_examples=60, deadline=None)
    def test_mixture_below_its_nonfreeness(self, mixed):
        # the sandwiched Renyi divergence grows with alpha: -2 log F at 1/2 is
        # at most the relative entropy S(D||Gamma) = S(Gamma) - S(D) at 1
        # (log Gamma is one-body; Mueller-Lennert et al., J. Math. Phys. 54,
        # 122203 (2013)), and D's spectrum is that of the weighted overlaps
        res = corr_mixed(mixed)
        comps = mixed.components
        m = np.array([[math.sqrt(wa * wb) * inner_product(a, b) if a.n == b.n else 0.0
                       for wb, b in comps] for wa, a in comps])
        mu = np.clip(np.linalg.eigvalsh(m), 0.0, None)
        s_d = -math.fsum(float(x) * math.log2(x) for x in mu if x > 0)
        assert res.corr <= binary_entropy_bits(res.occupations) - s_d + 1e-9


class TestVacuum:
    """N = 0: corr 0 and overlap 1; the measures that divide by N report 0."""

    def test_library(self):
        vacuum = CIWavefunction(OrbitalSpace(4), 0, {Determinant(0): 1.0})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for res in (corr_pure(vacuum), corr_mixed(MixedState([(0.5, vacuum), (0.5, vacuum)]))):
                assert (res.corr, res.overlap, res.entropy, res.degree) == (0.0, 1.0, 0.0, 0.0)
            assert overlap_oracle(vacuum) == 1.0
            for measure in (correlation_entropy, degree_of_correlation):
                assert math.copysign(1.0, measure(np.zeros((3, 3)))) == 1.0  # +0, not -0 or nan
                assert measure(np.zeros((3, 3))) == 0.0
            # a determinant's raw entropy is +0 too (the CLI printed "-0")
            raw = correlation_entropy(one_pdm(single_determinant(4, (0, 1))), convention="raw")
            assert math.copysign(1.0, raw) == 1.0
