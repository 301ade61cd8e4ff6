import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fermicorr import (
    CIWavefunction,
    Determinant,
    OrbitalSpace,
    enumerate_basis,
    ladder_table,
    rotate_ci,
)

from conftest import permutation_overlap, random_unitary, single_determinant


def det(*indices):
    return Determinant.from_indices(indices)


class TestDeterminant:
    def test_indices_roundtrip(self):
        d = det(0, 3, 7)
        assert d.indices == (0, 3, 7)
        assert d.mask == 0b10001001
        assert d.particle_count == 3

    def test_duplicate_index_rejected(self):
        with pytest.raises(ValueError):
            Determinant.from_indices((1, 1, 3))

    def test_ordering_by_mask(self):
        assert sorted([det(2, 3), det(0, 1), det(0, 2)]) == [det(0, 1), det(0, 2), det(2, 3)]


class TestOrbitalSpace:
    def test_bounds(self):
        with pytest.raises(ValueError):
            OrbitalSpace(0)
        with pytest.raises(ValueError):
            OrbitalSpace(65)
        assert OrbitalSpace(64).d == 64

    def test_contains(self):
        space = OrbitalSpace(4)
        assert space.contains(det(0, 3))
        assert not space.contains(det(4))


class TestEnumerateBasis:
    def test_vacuum(self):
        assert enumerate_basis(OrbitalSpace(4), 0) == [Determinant(0)]

    def test_lex_order_d4_n2(self):
        dets = enumerate_basis(OrbitalSpace(4), 2)
        expected = [det(0, 1), det(0, 2), det(1, 2), det(0, 3), det(1, 3), det(2, 3)]
        assert dets == expected

    def test_counts_match_binomial(self):
        assert len(enumerate_basis(OrbitalSpace(16), 8)) == math.comb(16, 8)

    def test_n_above_d_is_empty(self):
        assert enumerate_basis(OrbitalSpace(3), 4) == []

    @given(st.integers(1, 10), st.integers(0, 10))
    def test_masks_strictly_increasing(self, d, n):
        dets = enumerate_basis(OrbitalSpace(d), n)
        assert len(dets) == (math.comb(d, n) if n <= d else 0)
        masks = [x.mask for x in dets]
        assert masks == sorted(masks)
        assert all(x.particle_count == n for x in dets)


def create(d, start, p):
    """a†_p on a mask via ladder_table: (sign, mask), or None when it kills it."""
    target, creation, _ = ladder_table(d)
    sign = int(creation[p, start])
    return (sign, int(target[p, start])) if sign else None


def annihilate(d, start, p):
    target, _, annihilation = ladder_table(d)
    sign = int(annihilation[p, start])
    return (sign, int(target[p, start])) if sign else None


class TestLadderOperators:
    def test_creation_examples(self):
        assert create(6, det(0, 2).mask, 1) == (-1, det(0, 1, 2).mask)
        assert create(6, det(0, 2).mask, 2) is None
        assert create(6, 0, 5) == (1, det(5).mask)

    def test_annihilation_examples(self):
        assert annihilate(6, det(0, 1, 2).mask, 1) == (-1, det(0, 2).mask)
        assert annihilate(6, det(0, 2).mask, 1) is None
        assert annihilate(6, det(5).mask, 5) == (1, 0)

    @given(st.integers(1, 12).flatmap(
        lambda d: st.tuples(st.just(d), st.integers(0, (1 << d) - 1), st.integers(0, d - 1))
    ))
    def test_create_then_annihilate_restores(self, case):
        d, mask, p = case
        created = create(d, mask, p)
        if created is None:
            return
        s1, mid = created
        s2, back = annihilate(d, mid, p)
        assert back == mask
        assert s1 * s2 == 1

    @given(st.integers(2, 12).flatmap(
        lambda d: st.tuples(
            st.just(d),
            st.integers(0, (1 << d) - 1),
            st.integers(0, d - 1),
            st.integers(0, d - 1),
        )
    ))
    def test_creation_anticommutes(self, case):
        d, mask, p, q = case
        if p == q:
            return

        def create2(first, second):
            r1 = create(d, mask, first)
            if r1 is None:
                return None
            s1, mid = r1
            r2 = create(d, mid, second)
            if r2 is None:
                return None
            s2, out = r2
            return s1 * s2, out

        pq = create2(q, p)  # a†_p a†_q acts with q first
        qp = create2(p, q)
        if pq is None:
            assert qp is None
            return
        assert pq[1] == qp[1]
        assert pq[0] == -qp[0]


def overlap(m, bra, ket):
    """det(m†[bra, ket]) as rotate_ci computes it: the amplitude of `bra`
    after rotating the single determinant `ket` by m."""
    d = m.shape[0]
    return rotate_ci(single_determinant(d, ket.indices), m).amplitude(bra)


class TestSlaterOverlap:
    def test_identity_cases(self):
        eye = np.eye(4)
        assert overlap(eye, det(0, 2), det(0, 2)) == 1
        assert overlap(eye, det(0, 2), det(0, 1)) == 0

    def test_empty_sector(self):
        vacuum = CIWavefunction(OrbitalSpace(3), 0, {Determinant(0): 1.0})
        assert rotate_ci(vacuum, np.eye(3)).amplitude(Determinant(0)) == 1

    def test_against_permutation_expansion(self, rng):
        u = random_unitary(6, rng)
        bras = [det(0, 2, 5), det(1, 3, 4), det(0, 1, 2)]
        kets = [det(2, 3, 5), det(0, 1, 4), det(3, 4, 5)]
        for bra in bras:
            for ket in kets:
                fast = overlap(u, bra, ket)
                brute = permutation_overlap(u.conj().T, bra, ket)
                assert abs(fast - brute) < 1e-12

    @pytest.mark.parametrize("d,n", [(4, 2), (5, 3), (6, 3)])
    def test_unitary_map_is_unitary_on_sector(self, d, n, rng):
        u = random_unitary(d, rng)
        dets = enumerate_basis(OrbitalSpace(d), n)
        overlaps = np.array([[overlap(u, bra, ket) for ket in dets] for bra in dets])
        gram = overlaps.conj().T @ overlaps
        assert np.max(np.abs(gram - np.eye(len(dets)))) < 1e-10
