import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fermicorr import (
    CIWavefunction,
    Determinant,
    OrbitalSpace,
    enumerate_basis,
    rotate_ci,
)
from fermicorr.fock import occupation_matrix, relabel_masks, sector_ladders

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


def apply(d, start, p, creating):
    """a†_p (creating) or a_p on a mask via sector_ladders: (sign, mask), or
    None when it kills it.  The lowering table of start's sector lists the
    orbitals a†_p can fill, with <start|a_p|start + p> = <start + p|a†_p|start>;
    the raising table lists those a_p can empty, with <start - p|a_p|start>."""
    masks, raising, lowering = sector_ladders(d)
    k = bin(start).count("1")
    orbital, sign, source = (lowering if creating else raising)[k]
    row = int(np.searchsorted(masks[k], start))
    assert masks[k][row] == start
    hit = np.flatnonzero(orbital[row] == p)
    if not hit.size:
        return None
    target = masks[k + 1 if creating else k - 1][source[row, hit[0]]]
    return int(sign[row, hit[0]]), int(target)


def create(d, start, p):
    return apply(d, start, p, creating=True)


def annihilate(d, start, p):
    return apply(d, start, p, creating=False)


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


@pytest.mark.parametrize("d", range(1, 9))
def test_sector_tables_match_mask_by_mask(d):
    masks, raising, lowering = sector_ladders(d)
    for k in range(d + 1):
        assert masks[k].tolist() == [s for s in range(1 << d) if bin(s).count("1") == k]
        for row, s in enumerate(masks[k].tolist()):
            occupied = [q for q in range(d) if s >> q & 1]
            empty = [q for q in range(d) if not s >> q & 1]
            for (orbital, sign, source), orbs, other in (
                (raising[k], occupied, k - 1),
                (lowering[k], empty, k + 1),
            ):
                assert orbital[row].tolist() == orbs
                assert sign[row].tolist() == [(-1) ** bin(s & ((1 << q) - 1)).count("1") for q in orbs]
                assert [int(masks[other][i]) for i in source[row]] == [s ^ 1 << q for q in orbs]
    for array in (*masks, *(a for table in (*raising, *lowering) for a in table)):
        assert not array.flags.writeable



class TestMaskArrays:
    def test_occupation_matrix_bits(self):
        masks = np.array([0, 1, 1 << 63, (1 << 64) - 1, 0b1011 << 40, 0x0123456789ABCDEF], dtype=np.uint64)
        expected = np.array([[m >> p & 1 for p in range(64)] for m in masks.tolist()], dtype=np.int8)
        for d in (0, 1, 7, 41, 64):
            occ = occupation_matrix(masks, d)
            assert occ.dtype == np.int8 and occ.flags.c_contiguous
            assert np.array_equal(occ, expected[:, :d])
        assert occupation_matrix(np.zeros(0, dtype=np.uint64), 5).shape == (0, 5)
        assert np.array_equal(occupation_matrix(masks.astype(np.intp)[:3], 3), expected[:3, :3])

    def test_occupation_matrix_allocates_only_its_result(self):
        # 2e5 masks at d = 64: 1 B per entry for the int8 result; one uint64
        # temporary of the same shape would add 8 B per entry
        masks = np.random.default_rng(3).integers(0, 1 << 63, size=200_000, dtype=np.uint64)
        masks |= np.uint64(1 << 63)
        tracemalloc.start()
        try:
            occupation_matrix(masks, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * masks.size * 64

    @given(st.lists(st.integers(0, (1 << 64) - 1), max_size=20), st.sets(st.integers(0, 63)))
    def test_relabel_masks(self, masks, kept):
        kept = sorted(kept)
        out = relabel_masks(np.array(masks, dtype=np.uint64), np.array(kept, dtype=np.int64))
        assert out.dtype == np.uint64
        assert out.tolist() == [sum(1 << i for i, p in enumerate(kept) if m >> p & 1) for m in masks]

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
