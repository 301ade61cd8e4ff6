import math
import re
import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest

import fermicorr.limits
import fermicorr.natural_orbitals
from fermicorr import (
    CIWavefunction,
    Determinant,
    OrbitalSpace,
    corr_pure,
    diagonalize,
    enumerate_basis,
    normalize,
    one_pdm,
    rotate_ci,
)

from conftest import permutation_overlap, random_state, random_unitary, single_determinant


def det(*indices):
    return Determinant.from_indices(indices)


def spread_determinant(n, d=64):
    """prod_i (a†_2i + a†_2i+1)/sqrt(2) |0>: 2^n records, support 2n, gamma rank n."""
    h = 2 ** (-n / 2)
    dets = (det(*(2 * i + b for i, b in enumerate(bits))) for bits in product((0, 1), repeat=n))
    return CIWavefunction(OrbitalSpace(d), n, {u: h for u in dets})


def assert_minor_rule(out, psi, v):
    """out holds c'(s) = sum_t det(V†[s, t]) c(t), by explicit n! expansion."""
    for s_det, amp in out.amplitudes.items():
        terms = psi.amplitudes.items()
        minors = sum(permutation_overlap(v.conj().T, s_det, t) * c for t, c in terms)
        assert abs(amp - minors) < 1e-12


@pytest.fixture(params=["givens", "minors"])
def route(request, monkeypatch):
    """Sends every rotate_ci call of the test down one route."""
    no = fermicorr.natural_orbitals
    other = {"givens": "_rotate_minors", "minors": "_rotate_givens"}[request.param]
    monkeypatch.setattr(no, other, getattr(no, f"_rotate_{request.param}"))
    return request.param


class TestDiagonalize:
    def test_projector(self):
        basis = diagonalize(np.diag([1.0, 1.0, 0.0, 0.0]))
        assert np.allclose(basis.occupations, [1, 1, 0, 0])
        # permuted identity: one unit entry per column
        assert np.allclose(np.abs(basis.vectors).sum(axis=0), 1.0, atol=1e-12)
        assert np.allclose(np.abs(basis.vectors).max(axis=0), 1.0, atol=1e-12)

    def test_degenerate_diagonal_gamma(self):
        # each natural orbital of a diagonal gamma is exactly one computational
        # orbital, also inside a degenerate block, so the targets ordered by
        # their last row leave the Givens route nothing to rotate
        vectors = diagonalize(np.diag([0.5] * 12)).vectors
        assert np.array_equal(np.count_nonzero(vectors, axis=0), [1] * 12)

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

    def test_deterministic_phase(self, rng):
        gamma = one_pdm(random_state(5, 2, rng))
        a = diagonalize(gamma)
        b = diagonalize(gamma)
        assert np.array_equal(a.vectors, b.vectors)
        for col in a.vectors.T:
            lead = col[np.abs(col) ** 2 >= fermicorr.limits.OCCUPATION_FLOOR][0]
            assert abs(lead.imag) < 1e-12 and lead.real > 0

    def test_phase_skips_a_component_below_the_floor(self, rng):
        # the leading eigenvector's first component has weight 1e-16, below
        # OCCUPATION_FLOOR, so the second one is made real and positive
        lead = np.array([1e-8j, 0.6 * np.exp(2j), 0.8 * np.exp(-1j)])
        lead /= np.linalg.norm(lead)
        m = np.column_stack([lead, rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))])
        u, _ = np.linalg.qr(m)
        basis = diagonalize(u @ np.diag([0.9, 0.5, 0.1]) @ u.conj().T)
        col = basis.vectors[:, 0]
        assert abs(abs(col[0]) - 1e-8) < 1e-15
        assert abs(col[1].imag) < 1e-15 and col[1].real > 0
        assert np.allclose(col, lead * abs(lead[1]) / lead[1], atol=1e-14)


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

    @pytest.mark.parametrize("shape", [(4,), (5, 2), (4, 5)])
    def test_orbital_matrix_shape_refused(self, shape, rng):
        psi = random_state(4, 2, rng)
        with pytest.raises(ValueError, match=re.escape(f"orbital matrix shape {shape} does not fit d=4")):
            rotate_ci(psi, np.zeros(shape))

    def test_targets_that_miss_an_occupied_orbital(self, route, rng):
        # no target weighs on orbital 3, so the determinants that hold it are
        # left out: a state of norm 1 loses their weight, which is refused, and
        # the same state scaled to norm² 1e-13 loses only what they weigh there
        psi = random_state(4, 2, rng)
        lost = math.fsum(abs(c) ** 2 for key, c in psi.amplitudes.items() if key.occupies(3))
        message = f"rotation not unitary: norm² {float(np.vdot(psi.coeffs, psi.coeffs).real)!r} became"
        with pytest.raises(ValueError, match=re.escape(message) + r".*\(limit UNITARITY_TOL = 1e-08\)"):
            rotate_ci(psi, np.eye(4)[:, :3])
        light = CIWavefunction.from_arrays(psi.space, 2, psi.masks, math.sqrt(1e-13) * psi.coeffs)
        out = rotate_ci(light, np.eye(4)[:, :3])
        assert abs(np.vdot(out.coeffs, out.coeffs).real - 1e-13 * (1 - lost)) < 1e-27

    @pytest.mark.parametrize("scale", [1e-7, 3.0])
    def test_norm_is_kept_not_set(self, scale, route, rng):
        # targets that span the state keep the norm² it is given, whatever
        # that is: the rotation is linear, and nothing rescales its result
        psi = random_state(5, 2, rng)
        u = random_unitary(5, rng)
        scaled = CIWavefunction.from_arrays(psi.space, 2, psi.masks, scale * psi.coeffs)
        out, unit = rotate_ci(scaled, u), rotate_ci(psi, u)
        assert abs(np.vdot(out.coeffs, out.coeffs).real - scale**2) < 1e-14 * scale**2
        assert np.abs(out.coeffs - scale * unit.coeffs).max() < 1e-15 * scale

    def test_rotation_by_a_tiny_angle(self, route):
        # two rotations by sin = 1e-155 put entries whose products are
        # subnormal into V; an LU pivot built from such a product made the
        # minor route's det return nan
        v = np.eye(4, dtype=complex)
        for q in (1, 3):
            g = np.eye(4)
            g[[0, q], [0, q]] = math.sqrt(1 - 1e-310)
            g[0, q], g[q, 0] = -1e-155, 1e-155
            v = v @ g
        psi = CIWavefunction(OrbitalSpace(4), 3, {det(*c): 0.5 for c in combinations(range(4), 3)})
        assert np.abs(rotate_ci(psi, v).coeffs - psi.coeffs).max() < 1e-15

    def test_subnormal_amplitude(self, route):
        # an amplitude of 7.4e-309 puts subnormal entries into gamma and so
        # into its natural orbitals; a Givens rotation built from subnormal
        # entries of few bits was not unitary, and rotate_ci refused the
        # rotation (norm² 1.5625)
        amps = {det(0, 1, 2, 3, 4): 7.41691286169067e-309, det(0, 2, 3, 4, 5): 2 / 3,
                det(0, 1, 2, 4, 6): 2 / 3, det(0, 2, 3, 4, 6): 1 / 3}
        psi = CIWavefunction(OrbitalSpace(64), 5, amps)
        basis = diagonalize(one_pdm(psi))
        out = rotate_ci(psi, basis.vectors[:, basis.occupations >= fermicorr.limits.OCCUPATION_FLOOR])
        assert abs(np.vdot(out.coeffs, out.coeffs).real - 1.0) < 1e-14

    @pytest.mark.parametrize("d,rows", [(7, [0, 2, 3, 5, 6]), (64, [5, 17, 40, 62, 63])])
    def test_fewer_targets_than_active_orbitals(self, d, rows, route, rng):
        # three target columns spread over five orbitals, and a state in their
        # span: psi(u) = sum_t det(V[u, t]) phi(t), by explicit n! expansion
        n, k = 2, 3
        q, _ = np.linalg.qr(rng.normal(size=(5, k)) + 1j * rng.normal(size=(5, k)))
        v = np.zeros((d, k), dtype=complex)
        v[rows] = q
        phi = random_state(k, n, rng)
        amps = {
            u: sum(permutation_overlap(v, u, t) * c for t, c in phi.amplitudes.items())
            for u in (det(*c) for c in combinations(rows, n))
        }
        psi = CIWavefunction(OrbitalSpace(d), n, amps)
        out = rotate_ci(psi, v)
        assert out.masks.tolist() == phi.masks.tolist()
        assert_minor_rule(out, psi, v)
        for s_det, amp in out.amplitudes.items():
            assert abs(amp - phi.amplitude(s_det)) < 1e-12

    def test_sparse_wide_state_against_minors(self, route, rng):
        # d=64, bit 63 occupied; targets mix the five support orbitals only
        support = [3, 9, 30, 51, 63]
        dets = [det(*c) for c in combinations(support, 3)][::2]
        psi = random_state(64, 3, rng, support=dets)
        v = np.zeros((64, 5), dtype=complex)
        v[support] = random_unitary(5, rng)
        out = rotate_ci(psi, v)
        assert out.masks.tolist() == [d.mask for d in enumerate_basis(OrbitalSpace(5), 3)]
        assert_minor_rule(out, psi, v)

    def test_zero_amplitude_off_the_targets(self, route, rng):
        # a determinant of amplitude 0 on orbitals that no target weighs on
        psi = random_state(64, 2, rng, support=[det(3, 9), det(3, 30), det(9, 30)])
        psi = CIWavefunction(psi.space, 2, {**dict(psi.amplitudes.items()), det(40, 63): 0.0})
        v = np.zeros((64, 3), dtype=complex)
        v[[3, 9, 30]] = random_unitary(3, rng)
        assert_minor_rule(rotate_ci(psi, v), psi, v)

    def test_small_weights_off_the_support(self, route, rng):
        # d=64: targets 0 and 1 span the state's two orbitals inside its
        # five-orbital support; target 2 puts weight 9e-8 on 40 other
        # orbitals, 2.25e-9 on each, and V stays exactly orthonormal
        support = [3, 9, 30, 51, 63]
        off = [o for o in range(10, 51) if o not in support]
        q, _ = np.linalg.qr(rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3)))
        theta = math.asin(3e-4)
        v = np.zeros((64, 3), dtype=complex)
        v[support] = q
        v[support, 2] *= math.cos(theta)
        v[off, 2] = math.sin(theta) / math.sqrt(len(off))
        assert np.max(np.abs(v.conj().T @ v - np.eye(3))) < 1e-15
        pairs = (det(*c) for c in combinations(support, 2))
        amps = {u: permutation_overlap(v, u, det(0, 1)) for u in pairs}
        psi = CIWavefunction(OrbitalSpace(64), 2, amps)
        out = rotate_ci(psi, v)
        assert_minor_rule(out, psi, v)
        assert abs(abs(out.amplitude(det(0, 1))) - 1.0) < 1e-12

    def test_rows_below_the_floor_are_left_out(self, monkeypatch):
        # d = 64, 4 particles: a determinant on orbitals 0-3 with all its
        # single and double excitations into 4-11, plus 20 single excitations
        # of amplitude 5e-7 into orbitals 40-59.  Their natural orbitals are
        # empty, and each of their rows weighs below OCCUPATION_FLOOR on the
        # k = 12 occupied ones (20 of them sum past 1e-14), so the rotation
        # reads the 12 rows of the occupied orbitals alone
        def cisd(eps):
            rng = np.random.default_rng(3)
            amps = {det(0, 1, 2, 3): 1.0}
            for h in (1, 2):
                for holes, parts in product(combinations(range(4), h), combinations(range(4, 12), h)):
                    kept = sorted(set(range(4)) - set(holes) | set(parts))
                    amps[det(*kept)] = 0.1 * complex(*rng.normal(size=2))
            for j in range(20):
                amps[det(*sorted(set(range(4)) - {j % 4} | {40 + j}))] = eps
            return normalize(CIWavefunction(OrbitalSpace(64), 4, amps))

        shapes = []
        for name in ("_rotate_givens", "_rotate_minors"):
            real = getattr(fermicorr.natural_orbitals, name)
            monkeypatch.setattr(
                fermicorr.natural_orbitals,
                name,
                lambda *args, real=real: shapes.append(args[3].shape) or real(*args),
            )
        corr = corr_pure(cisd(5e-7)).corr
        assert shapes == [(12, 12)]
        assert abs(corr - corr_pure(cisd(0.0)).corr) < 1e-10

    def test_route_choice(self, monkeypatch, rng):
        # r = k: Givens; a two-orbital-spread determinant, r = 2k: minors
        taken = []
        for name in ("_rotate_givens", "_rotate_minors"):
            real = getattr(fermicorr.natural_orbitals, name)
            monkeypatch.setattr(
                fermicorr.natural_orbitals,
                name,
                lambda *args, real=real, name=name: taken.append(name) or real(*args),
            )
        dense = random_state(10, 5, rng)
        rotate_ci(dense, diagonalize(one_pdm(dense)).vectors)
        psi = spread_determinant(8)
        rotate_ci(psi, diagonalize(one_pdm(psi)).vectors[:, :8])
        assert taken == ["_rotate_givens", "_rotate_minors"]

    @pytest.mark.parametrize(
        "route,entries",
        [("givens", None), ("minors", None), ("minors", 1 << 14)],
        ids=["givens", "minors", "minors-chunked"],
        indirect=["route"],
    )
    def test_budget_covers_the_peak(self, route, entries, monkeypatch, rng):
        no = fermicorr.natural_orbitals
        if entries is None:
            # (|S> + |T>)/sqrt(2) with |S| = |T| = 9 in d=64: C(18, 9) targets
            # over 18 active orbitals, two sources
            h = 1 / math.sqrt(2)
            psi = CIWavefunction(
                OrbitalSpace(64), 9, {det(*range(0, 18, 2)): h, det(*range(55, 64)): h}
            )
            k = 18
        else:
            # a dense state of 5 particles on 7 orbitals, rotated by a 12 x 12
            # unitary: 792 sources over 12 orbitals and C(7, 5) = 21 targets,
            # which the smaller stack splits into source chunks and target blocks
            phi = random_state(12, 5, rng, support=enumerate_basis(OrbitalSpace(7), 5))
            psi = rotate_ci(phi, random_unitary(12, rng))
            k = 7
            monkeypatch.setattr(no, "MINOR_BLOCK_ENTRIES", entries)
            chunk, block = no._minor_plan(21, psi.masks.size, 5)
            assert chunk < psi.masks.size and block < 21
        occupied = diagonalize(one_pdm(psi)).vectors[:, :k]
        if route == "givens":
            # B permutes the degenerate 1/2 block into eigh's order; Givens
            # keeps partner indices for the pairs its zero pattern allows
            b = occupied[np.sum(np.abs(occupied) ** 2, axis=1) >= fermicorr.limits.OCCUPATION_FLOOR]
            need = no._givens_need(18, 9, no._givens_reach(b)[1])
        else:
            targets = rf"C\({k}, {psi.n}\) = {math.comb(k, psi.n)} target"
            with monkeypatch.context() as patch:
                patch.setattr(fermicorr.limits, "ROTATION_BUDGET_BYTES", 0)
                with pytest.raises(ValueError, match=targets) as refused:
                    rotate_ci(psi, occupied)
            need = int(re.search(r"need (\d+) B", str(refused.value)).group(1))
        tracemalloc.start()
        try:
            rotate_ci(psi, occupied)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= need

    @pytest.mark.parametrize("by_last_row", [False, True], ids=["eigh-order", "last-row-order"])
    def test_zero_pattern_admits_givens(self, by_last_row, monkeypatch):
        # the state of test_budget_covers_the_peak: B is a permutation in
        # eigh's order and the identity in the order of the targets' last
        # rows.  Under a budget between the count from B's zero pattern and
        # the dense count (r - 1 pairs), which the minor route passes, Givens
        # runs, and its peak stays within the zero-pattern count
        no = fermicorr.natural_orbitals
        h = 1 / math.sqrt(2)
        psi = CIWavefunction(OrbitalSpace(64), 9, {det(*range(0, 18, 2)): h, det(*range(55, 64)): h})
        occupied = diagonalize(one_pdm(psi)).vectors[:, :18]
        if by_last_row:
            occupied = occupied[:, np.argsort(no.last_rows(occupied), kind="stable")]
        b = occupied[np.sum(np.abs(occupied) ** 2, axis=1) >= fermicorr.limits.OCCUPATION_FLOOR]
        rotations, pairs = no._givens_reach(b)
        if by_last_row:
            assert (rotations, pairs) == (0, 0)
        front = 16 * 64 * 18 + 32 * 18 * 18  # |V|², B and B's rows as lists
        new, old = (front + no._givens_need(18, 9, p) for p in (pairs, 17))
        assert new < old
        monkeypatch.setattr(fermicorr.limits, "ROTATION_BUDGET_BYTES", (new + old) // 2)
        monkeypatch.setattr(no, "_rotate_minors", None)
        tracemalloc.start()
        try:
            out = rotate_ci(psi, occupied)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= new
        assert sorted(abs(c) for c in out.coeffs if c != 0) == pytest.approx([h, h], abs=1e-15)

    def test_whole_sector_is_handed_out(self):
        # (|S> + |T>)/sqrt(2) with |S| = |T| = 11 in d=64, targets in the order
        # of their last row: B is the identity and r = k, so the C(22, 11)
        # sector that Givens fills is the result, not copied out of it
        h = 1 / math.sqrt(2)
        psi = CIWavefunction(OrbitalSpace(64), 11, {det(*range(0, 22, 2)): h, det(*range(53, 64)): h})
        occupied = diagonalize(one_pdm(psi)).vectors[:, :22]
        occupied = occupied[:, np.argsort(fermicorr.natural_orbitals.last_rows(occupied), kind="stable")]
        tracemalloc.start()
        try:
            out = rotate_ci(psi, occupied)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.masks.size == math.comb(22, 11)
        assert peak <= 1.25 * (out.masks.nbytes + out.coeffs.nbytes)


def unitary_of_kind(kind: str, r: int, rng) -> np.ndarray:
    """An r x r unitary that is dense, a permutation with phases, or blocks
    on contiguous or on interleaved rows."""
    if kind == "dense":
        return random_unitary(r, rng)
    if kind == "permutation":
        return np.eye(r)[:, rng.permutation(r)] * np.exp(2j * np.pi * rng.random(r))
    u, start = np.zeros((r, r), dtype=complex), 0
    while start < r:
        size = int(rng.integers(1, min(4, r - start) + 1))
        u[start : start + size, start : start + size] = random_unitary(size, rng)
        start += size
    return u if kind == "blocks" else u[rng.permutation(r)]


class TestGivensReach:
    @pytest.mark.parametrize("kind", ["dense", "permutation", "blocks", "interleaved"])
    def test_bound_covers_the_rotations(self, kind, rng):
        # every k <= r columns, in a random order and in the order of their
        # last nonzero row; exact on a dense B
        no = fermicorr.natural_orbitals
        for r in range(1, 14):
            for _ in range(3):
                u = unitary_of_kind(kind, r, rng)
                for cols in (rng.permutation(r), np.argsort(no.last_rows(u), kind="stable")):
                    for k in range(r + 1):
                        b = u[:, cols[:k]]
                        pairs = no._adjacent_givens(b)[0]
                        bound = no._givens_reach(b)
                        if kind == "dense":
                            assert bound == (k * (r - 1) - k * (k - 1) // 2, r - 1 if k else 0)
                        assert bound[0] >= len(pairs) and bound[1] >= len(set(pairs))
