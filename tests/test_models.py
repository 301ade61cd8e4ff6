import math

import numpy as np
import pytest

from fermicorr import (
    HubbardParams,
    corr_pure,
    corr_two_particle,
    heitler_london_state,
    hubbard_ground_state,
    hubbard_hamiltonian,
    inner_product,
    one_pdm,
    sweep,
)
from fermicorr.models import dimer_basis


def analytic_ground_energy(t, U):
    return (U - math.sqrt(U * U + 16 * t * t)) / 2


class TestHamiltonian:
    def test_free_limit_spectrum(self):
        h = hubbard_hamiltonian(HubbardParams(t=1.0, U=0.0))
        assert np.allclose(np.linalg.eigvalsh(h), [-2, 0, 0, 0, 0, 2], atol=1e-12)

    def test_symmetric(self):
        h = hubbard_hamiltonian(HubbardParams(t=0.7, U=-2.3))
        assert np.array_equal(h, h.T)

    def test_ionic_diagonal_is_u(self):
        h = hubbard_hamiltonian(HubbardParams(t=1.0, U=3.5))
        basis = dimer_basis()
        for k, det in enumerate(basis):
            both_site1 = det.indices == (0, 1)
            both_site2 = det.indices == (2, 3)
            expected = 3.5 if (both_site1 or both_site2) else 0.0
            assert h[k, k] == expected

    def test_interacting_ground_energy(self):
        h = hubbard_hamiltonian(HubbardParams(t=1.0, U=4.0))
        assert abs(np.linalg.eigvalsh(h)[0] - (2 - 2 * math.sqrt(2))) < 1e-12

    def test_energy_against_closed_form(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            t = float(rng.uniform(0.1, 3.0))
            U = float(rng.uniform(-20.0, 20.0))
            h = hubbard_hamiltonian(HubbardParams(t=t, U=U))
            assert abs(np.linalg.eigvalsh(h)[0] - analytic_ground_energy(t, U)) < 1e-9

    def test_invalid_hopping(self):
        with pytest.raises(ValueError):
            HubbardParams(t=0.0, U=1.0)

    @pytest.mark.parametrize("t, U", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, -math.inf)])
    def test_nonfinite_parameters_rejected(self, t, U):
        with pytest.raises(ValueError, match="finite"):
            HubbardParams(t=t, U=U)

    def test_nonfinite_grid_point_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            sweep([math.nan])


class TestGroundState:
    def test_free_limit_is_uncorrelated(self):
        psi = hubbard_ground_state(HubbardParams(t=1.0, U=0.0))
        assert corr_pure(psi).corr < 1e-10

    def test_strong_coupling_reaches_heitler_london(self):
        psi = hubbard_ground_state(HubbardParams(t=1.0, U=1e4))
        assert abs(inner_product(psi, heitler_london_state())) > 0.9999

    def test_dimensionless_dependence(self):
        a = corr_pure(hubbard_ground_state(HubbardParams(t=1.0, U=3.0))).corr
        b = corr_pure(hubbard_ground_state(HubbardParams(t=2.0, U=6.0))).corr
        assert abs(a - b) < 1e-10

    def test_grid_continuity(self):
        grid = np.linspace(-8.0, 8.0, 33)
        states = [hubbard_ground_state(HubbardParams(t=1.0, U=u)) for u in grid]
        for left, right in zip(states, states[1:]):
            assert abs(inner_product(left, right)) > 0.99

    def test_stays_in_sz_zero_sector(self):
        from fermicorr import Determinant

        for u in (-50.0, -3.0, 0.0, 3.0, 50.0):
            psi = hubbard_ground_state(HubbardParams(t=1.0, U=u))
            up_up = psi.amplitude(Determinant.from_indices((0, 2)))
            dn_dn = psi.amplitude(Determinant.from_indices((1, 3)))
            assert abs(up_up) < 1e-12 and abs(dn_dn) < 1e-12

    def test_covalent_amplitude_real_positive(self):
        from fermicorr import Determinant

        for u in (-10.0, 0.0, 4.0, 100.0):
            psi = hubbard_ground_state(HubbardParams(t=1.0, U=u))
            amp = psi.amplitude(Determinant.from_indices((0, 3)))
            assert amp.imag == 0.0 and amp.real > 0.0


class TestHeitlerLondon:
    def test_amplitudes(self):
        psi = heitler_london_state()
        amp = 1 / math.sqrt(2)
        values = sorted(psi.amplitudes.values(), key=lambda z: z.real)
        assert abs(values[0] + amp) < 1e-15
        assert abs(values[1] - amp) < 1e-15

    def test_half_filled_gamma(self):
        gamma = one_pdm(heitler_london_state()).gamma
        assert np.allclose(gamma, np.diag([0.5] * 4), atol=1e-15)

    def test_four_bits(self):
        psi = heitler_london_state()
        a = corr_pure(psi).corr
        b = corr_two_particle(psi).corr
        assert abs(a - 4.0) < 1e-9
        assert abs(a - b) < 1e-10


class TestSweep:
    def test_columns_at_zero(self):
        row = sweep([0.0])[0]
        assert row.corr < 1e-9
        assert abs(row.ground_energy + 2.0) < 1e-12

    def test_strictly_increasing_and_dominated_by_entropy(self):
        grid = np.arange(0.0, 20.0 + 1e-12, 0.25)
        rows = sweep(grid)
        corrs = [r.corr for r in rows]
        assert all(b > a for a, b in zip(corrs, corrs[1:]))
        for row in rows:
            if row.u > 0:
                assert row.entropy_normalized > row.corr
            assert abs(row.ground_energy - analytic_ground_energy(1.0, row.u)) < 1e-9

    def test_negative_grid_increases_with_magnitude(self):
        grid = -np.arange(0.0, 20.0 + 1e-12, 0.25)
        corrs = [r.corr for r in sweep(grid)]
        assert all(b > a for a, b in zip(corrs, corrs[1:]))

    def test_strong_coupling_limit(self):
        row = sweep([1e4])[0]
        assert abs(row.corr - 4.0) < 0.01
        assert abs(row.entropy_normalized - 4.0) < 0.01

    def test_normalization_factor_is_convention_free(self):
        for convention in ("normalized", "raw"):
            row = sweep([1e4], entropy_convention=convention)[0]
            assert abs(row.entropy_normalized - 4.0) < 0.01

    def test_large_hopping_scales_the_energy(self):
        # U = u t would overflow at u = 1e10; the state depends on u alone
        small, large = sweep([0.0, 1e10]), sweep([0.0, 1e10], t=1e300)
        for a, b in zip(small, large):
            assert math.isfinite(b.ground_energy) and b.ground_energy == a.ground_energy * 1e300
            assert b.corr == a.corr and b.entropy == a.entropy

    def test_energy_overflow_refused(self):
        with pytest.raises(ValueError, match=r"t=1e\+308, u=0 is not finite"):
            sweep([0.0, 1.5], t=1e308)

    @pytest.mark.parametrize("t", [0.0, -1.0, math.inf, math.nan])
    def test_bad_hopping_refused(self, t):
        with pytest.raises(ValueError, match="finite t > 0"):
            sweep([1.0], t=t)

    def test_natural_log_base_keeps_ratio(self):
        row2 = sweep([2.0], base=2.0)[0]
        rowe = sweep([2.0], base=math.e)[0]
        assert abs(row2.entropy_normalized / row2.corr - rowe.entropy_normalized / rowe.corr) < 1e-9


class TestSmallInteractionProbes:
    def test_corr_second_difference_converges(self):
        # corr is smooth at u=0: central second differences stabilize
        def d2(h):
            rows = sweep([-h, 0.0, h])
            return (rows[0].corr - 2 * rows[1].corr + rows[2].corr) / h**2

        a, b = d2(1e-2), d2(1e-3)
        assert abs(a / b - 1.0) < 0.05

    def test_raw_entropy_second_difference_diverges(self):
        # raw-convention entropy is only once differentiable: its second
        # difference quotient keeps growing as the step shrinks
        def d2(h):
            rows = sweep([-h, 0.0, h], entropy_convention="raw")
            return (rows[0].entropy - 2 * rows[1].entropy + rows[2].entropy) / h**2

        assert d2(1e-3) > d2(1e-2) > 0

    def test_entropy_to_corr_ratio_blows_up(self):
        rows = {u: sweep([u])[0] for u in (1.0, 1e-3)}
        ratio = {u: r.entropy_normalized / r.corr for u, r in rows.items()}
        assert ratio[1e-3] > 10 * ratio[1.0]
