import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fermicorr.fock
import fermicorr.limits
import fermicorr.quasifree
from fermicorr import (
    Determinant,
    QuasifreeSpec,
    pattern_probabilities,
    verify_wick,
)

from conftest import dense_ladder


def masks(*dets):
    return np.array([Determinant.from_indices(d).mask for d in dets], dtype=np.uint64)


def all_masks(d):
    return np.arange(1 << d)


def unit_vectors(rng, count, d):
    v = rng.normal(size=(count, d)) + 1j * rng.normal(size=(count, d))
    return [row / np.linalg.norm(row) for row in v]


class TestOccupationProbability:
    def test_deterministic_occupation(self):
        spec = QuasifreeSpec(np.array([1.0, 1.0, 0.0, 0.0]))
        assert pattern_probabilities(spec, masks((0, 1), (0, 2))).tolist() == [1.0, 0.0]

    def test_two_thirds_pattern(self):
        # probabilities (2/3, 1/3, 2/3, 1/3, 2/3, 1/3) in the original
        # orbital order; patterns quoted 1-based as {1,3,5} and {2,4,6}
        spec = QuasifreeSpec(np.array([2 / 3, 1 / 3, 2 / 3, 1 / 3, 2 / 3, 1 / 3]))
        p = pattern_probabilities(spec, masks((0, 2, 4), (1, 3, 5)))
        assert abs(p[0] - 64 / 729) < 1e-15
        assert abs(p[1] - 1 / 729) < 1e-15

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=8))
    def test_in_unit_interval(self, lams):
        spec = QuasifreeSpec(np.array(lams))
        p = pattern_probabilities(spec, masks(range(0, len(lams), 2)))
        assert 0.0 <= p[0] <= 1.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="invalid occupation"):
            QuasifreeSpec(np.array([1.1, 0.0]))


class TestPatternProbabilities:
    @pytest.mark.parametrize("d", [1, 4, 8, 12, 16])
    def test_total_probability_one(self, d):
        rng = np.random.default_rng(d)
        spec = QuasifreeSpec(rng.uniform(0, 1, d))
        p = pattern_probabilities(spec, all_masks(d))
        assert p.shape == (1 << d,)
        assert abs(math.fsum(p.tolist()) - 1.0) < 1e-12

    def test_sector_masses_below_one(self):
        rng = np.random.default_rng(5)
        d = 8
        spec = QuasifreeSpec(rng.uniform(0, 1, d))
        p = pattern_probabilities(spec, all_masks(d))
        by_count = {}
        for mask in range(1 << d):
            by_count.setdefault(bin(mask).count("1"), []).append(p[mask])
        for terms in by_count.values():
            assert math.fsum(terms) <= 1.0 + 1e-12

    def test_matches_elementwise_product(self):
        rng = np.random.default_rng(9)
        d = 6
        lam = rng.uniform(0, 1, d)
        p = pattern_probabilities(QuasifreeSpec(lam), all_masks(d))
        for mask in range(1 << d):
            expected = math.prod(lam[i] if mask >> i & 1 else 1.0 - lam[i] for i in range(d))
            assert abs(p[mask] - expected) < 1e-15

    def test_wide_masks_match_the_product_exactly(self):
        # d = 64 with bit 63 set in half the masks: the same factors in the
        # same orbital order, so the product agrees bit for bit
        rng = np.random.default_rng(64)
        lam = rng.uniform(0, 1, 64)
        wide = rng.integers(0, 1 << 63, size=300, dtype=np.uint64)
        wide[::2] |= np.uint64(1 << 63)
        p = pattern_probabilities(QuasifreeSpec(lam), wide)
        for mask, value in zip(wide.tolist(), p.tolist()):
            assert value == math.prod(lam[i] if mask >> i & 1 else 1.0 - lam[i] for i in range(64))


class TestBuildQuasifreeFockMatrix:
    """The quasifree density is diagonal on the Fock space; its diagonal is
    pattern_probabilities."""

    def test_single_occupied_mode(self):
        p = pattern_probabilities(QuasifreeSpec(np.array([1.0, 0.0])), all_masks(2))
        assert np.allclose(p, [0, 1, 0, 0])

    def test_fair_coins(self):
        p = pattern_probabilities(QuasifreeSpec(np.array([0.5, 0.5])), all_masks(2))
        assert np.allclose(p, [0.25] * 4)

    def test_trace_and_particle_number(self):
        rng = np.random.default_rng(3)
        lam = rng.uniform(0, 1, 10)
        diag = pattern_probabilities(QuasifreeSpec(lam), all_masks(10))
        assert abs(diag.sum() - 1.0) < 1e-12
        counts = np.array([bin(m).count("1") for m in range(1 << 10)])
        assert abs(float(diag @ counts) - lam.sum()) < 1e-10


class TestVerifyWick:
    def test_natural_orbital_two_point(self, rng):
        d = 5
        lam = rng.uniform(0, 1, d)
        spec = QuasifreeSpec(lam)
        e0 = np.zeros(d)
        e0[0] = 1.0
        report = verify_wick(spec, [e0], [e0])
        assert abs(report.lhs - lam[0]) < 1e-12
        assert abs(report.rhs - lam[0]) < 1e-12

    def test_unbalanced_op_count_vanishes(self, rng):
        d = 5
        spec = QuasifreeSpec(rng.uniform(0, 1, d))
        report = verify_wick(spec, unit_vectors(rng, 1, d), unit_vectors(rng, 2, d))
        assert report.rhs == 0
        assert abs(report.lhs) < 1e-12

    def test_three_body_factorization(self, rng):
        for d in (6, 13):
            spec = QuasifreeSpec(rng.uniform(0, 1, d))
            report = verify_wick(spec, unit_vectors(rng, 3, d), unit_vectors(rng, 3, d))
            assert report.difference < 1e-10

    def test_fifty_random_trials(self):
        rng = np.random.default_rng(123)
        d = 6
        worst = 0.0
        for trial in range(50):
            spec = QuasifreeSpec(rng.uniform(0, 1, d))
            m = n = int(rng.integers(1, 4))
            report = verify_wick(spec, unit_vectors(rng, m, d), unit_vectors(rng, n, d))
            worst = max(worst, report.difference)
        assert worst < 1e-10

    def test_wrong_diagonal_fails(self, rng, monkeypatch):
        # Wick's theorem holds for every product state, so the right side must
        # not share the left side's diagonal p(s): with lambda -> 1 - lambda in
        # p(s) only, a 1x1 trial must fail
        real = fermicorr.quasifree.pattern_probabilities
        monkeypatch.setattr(
            fermicorr.quasifree, "pattern_probabilities",
            lambda spec, masks: real(QuasifreeSpec(1.0 - spec.occupations), masks),
        )
        spec = QuasifreeSpec(rng.uniform(0, 1, 6))
        report = verify_wick(spec, unit_vectors(rng, 1, 6), unit_vectors(rng, 1, 6))
        assert report.difference > fermicorr.limits.AGREEMENT_TOL

    @pytest.mark.parametrize("d", range(1, 7))
    def test_left_side_is_the_dense_trace(self, d):
        # Tr(diag(p) A_f† A_g) with A_v = a_{vj}..a_{v1} a product of explicit
        # 2^d matrices, for every m, n <= d + 1: unbalanced pairs, states with
        # fewer particles than operators and more operators than orbitals
        # included
        rng = np.random.default_rng(d)
        spec = QuasifreeSpec(rng.uniform(0, 1, d))
        p = pattern_probabilities(spec, all_masks(d))
        ladders = [dense_ladder("annihilation", q, d) for q in range(d)]

        def removed(vectors):
            out = np.eye(1 << d)
            for v in vectors:
                out = sum(np.conj(v[q]) * ladders[q] for q in range(d)) @ out
            return out

        for m in range(d + 2):
            for n in range(d + 2):
                f, g = unit_vectors(rng, m, d), unit_vectors(rng, n, d)
                expected = np.trace(p[:, None] * (removed(f).conj().T @ removed(g)))
                assert abs(verify_wick(spec, f, g).lhs - expected) < 1e-13

    def test_removal_images_are_the_amplitudes(self, rng):
        # column r of a sector's image is <s - occ_s[R_r]| a_{v2} a_{v1} |s>,
        # R_r the r-th pair of positions among the N occupied ones
        d, count = 6, 4
        masks, raising, _ = fermicorr.fock.sector_ladders(d)
        occupied, relative, _ = raising[count]
        vectors = unit_vectors(rng, 2, d)
        images = fermicorr.quasifree._removal_images(
            [v.conj() for v in vectors], occupied, relative, raising[1:3]
        )
        op = np.eye(1 << d)
        for v in vectors:
            op = sum(np.conj(v[q]) * dense_ladder("annihilation", q, d) for q in range(d)) @ op
        for row, s in enumerate(masks[count]):
            for col, r in enumerate(fermicorr.fock.subset_masks(count, 2).tolist()):
                removed = sum(1 << occupied[row, p] for p in range(count) if r >> p & 1)
                assert abs(images[row, col] - op[s ^ removed, s]) < 1e-14

    def test_left_side_calls_no_det(self, rng, monkeypatch):
        calls = []
        real = np.linalg.det
        monkeypatch.setattr(np.linalg, "det", lambda a: calls.append(a) or real(a))
        spec = QuasifreeSpec(rng.uniform(0, 1, 8))
        verify_wick(spec, unit_vectors(rng, 2, 8), unit_vectors(rng, 3, 8))  # right side 0
        assert calls == []
        verify_wick(spec, unit_vectors(rng, 3, 8), unit_vectors(rng, 3, 8))
        assert len(calls) == 1  # the right side's 3x3 determinant

    def test_peak_memory_at_the_cap(self, rng):
        # 4 operators per side at d = 14, where the largest image of any
        # operator count is reached: besides the tables, which are built once
        # per d, the call holds at most five arrays the size of that image,
        # C(d, N) C(N, j) amplitudes at N = 9, j = 4
        d, j = 14, 4
        image = 16 * max(math.comb(d, count) * math.comb(count, j) for count in range(d + 1))
        spec = QuasifreeSpec(rng.uniform(0, 1, d))
        f, g = unit_vectors(rng, j, d), unit_vectors(rng, j, d)
        fermicorr.fock.sector_ladders(d)
        tracemalloc.start()
        try:
            verify_wick(spec, f, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * image

    def test_scale_guards(self):
        with pytest.raises(ValueError, match="oracle scale exceeded"):
            verify_wick(QuasifreeSpec(np.zeros(15)), [], [])
