"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.
"""

import functools
import math
from pathlib import Path

import numpy as np

from fermicorr import (
    CIWavefunction,
    Determinant,
    MixedState,
    OrbitalSpace,
    QuasifreeSpec,
    corr_mixed,
    corr_pure,
    corr_two_particle,
    normalize,
    one_pdm,
    overlap_oracle,
    pattern_probabilities,
    rotate_ci,
    sweep,
    verify_wick,
)
from fermicorr import diagonalize
from fermicorr.cli import main

from conftest import dense_ladder, random_state, random_unitary, single_determinant
from test_corr import two_config_state

DATA = Path(__file__).resolve().parent.parent / "data"


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL  criterion {number}: {description}")
                raise
            print(f"PASS  criterion {number}: {description}")

        return wrapper

    return decorate


@criterion(1, "two- and three-configuration reference values and exact overlaps")
def test_criterion_1_reference_values(three_electron_psi, three_electron_phi):
    res_psi = corr_pure(three_electron_psi)
    res_phi = corr_pure(three_electron_phi)
    assert abs(res_psi.corr - 4.083) <= 0.005
    assert abs(res_phi.corr - 5.510) <= 0.005
    assert np.allclose(res_psi.occupations, res_phi.occupations, atol=1e-12)
    assert np.allclose(res_psi.occupations, [2 / 3] * 3 + [1 / 3] * 3, atol=1e-12)
    assert abs(res_psi.overlap - 43 / 729) <= 1e-12
    assert abs(res_phi.overlap - 16 / 729) <= 1e-12
    assert abs(overlap_oracle(three_electron_psi) - 43 / 729) <= 1e-12
    assert abs(overlap_oracle(three_electron_phi) - 16 / 729) <= 1e-12


@criterion(2, "zero exactly on Slater determinants, positive elsewhere")
def test_criterion_2_slater_zero_law():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        d = int(rng.integers(3, 9))
        n = int(rng.integers(1, d))
        indices = sorted(rng.permutation(d)[:n].tolist())
        psi = rotate_ci(single_determinant(d, indices), random_unitary(d, rng))
        assert corr_pure(psi).corr < 1e-9
    for _ in range(100):
        d = int(rng.integers(4, 9))
        assert corr_pure(two_config_state(d, rng)).corr > 0.01


@criterion(3, "two-particle closed form equals the general recipe (1e-10)")
def test_criterion_3_closed_form_equivalence():
    rng = np.random.default_rng(33)
    for _ in range(50):
        d = int(rng.integers(4, 9))
        psi = random_state(d, 2, rng)
        assert abs(corr_two_particle(psi).corr - corr_pure(psi).corr) <= 1e-10


@criterion(4, "recipe overlap equals the explicit Fock-matrix overlap (1e-8)")
def test_criterion_4_oracle_equivalence():
    rng = np.random.default_rng(44)
    for _ in range(30):
        d = int(rng.integers(3, 7))
        n = int(rng.integers(1, d))
        psi = random_state(d, n, rng)
        assert abs(corr_pure(psi).overlap - overlap_oracle(psi)) <= 1e-8


@criterion(5, "randomized Wick-identity checks at d=6, 50 trials, < 1e-10")
def test_criterion_5_wick(capsys):
    assert main(["verify-wick", "--dim", "6", "--trials", "50", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    with capsys.disabled():
        worst = float(next(l for l in out.splitlines() if "max_deviation" in l).split()[1])
        assert worst < 1e-10
        # unbalanced operator counts must vanish identically
        rng = np.random.default_rng(55)
        spec = QuasifreeSpec(rng.uniform(0, 1, 6))
        f = [v / np.linalg.norm(v) for v in rng.normal(size=(1, 6))]
        g = [v / np.linalg.norm(v) for v in rng.normal(size=(2, 6))]
        report = verify_wick(spec, f, g)
        assert report.rhs == 0 and abs(report.lhs) < 1e-12


@criterion(6, "half/half one-particle mixture scores one bit; pure mixtures reduce")
def test_criterion_6_mixed(three_electron_psi):
    rng = np.random.default_rng(66)
    space = OrbitalSpace(4)
    q = random_unitary(4, rng)
    components = []
    for col in range(2):
        amps = {Determinant.from_indices((p,)): q[p, col] for p in range(4)}
        components.append((0.5, normalize(CIWavefunction(space, 1, amps))))
    assert abs(corr_mixed(MixedState(components)).corr - 1.0) <= 1e-9
    single = corr_mixed(MixedState([(1.0, three_electron_psi)]))
    assert abs(single.corr - corr_pure(three_electron_psi).corr) <= 1e-8


@criterion(7, "Hubbard dimer: monotone growth, limits, energies, entropy bound")
def test_criterion_7_hubbard(capsys):
    grid = np.arange(0.0, 20.0 + 1e-12, 0.25)
    rows = sweep(grid)
    assert rows[0].corr <= 1e-9
    corrs = [r.corr for r in rows]
    assert all(b > a for a, b in zip(corrs, corrs[1:]))
    neg_corrs = [r.corr for r in sweep(-grid)]
    assert all(b > a for a, b in zip(neg_corrs, neg_corrs[1:]))
    for row in rows:
        assert abs(row.ground_energy - (row.u - math.sqrt(row.u**2 + 16)) / 2) <= 1e-9
        if row.u > 0:
            assert row.entropy_normalized > row.corr
    assert abs(sweep([1e4])[0].corr - 4.0) <= 0.01
    probes = [sweep([u])[0] for u in (1e-1, 1e-2, 1e-3)]
    ratios = [r.entropy_normalized / r.corr for r in probes]
    with capsys.disabled():
        for r, ratio in zip(probes, ratios):
            print(f"      entropy/corr at u={r.u:g}: {ratio:.6g}")
    assert ratios[0] < ratios[1] < ratios[2]


@criterion(8, "structural invariants: probabilities, unitarity, invariance, CAR")
def test_criterion_8_structural(three_electron_psi):
    rng = np.random.default_rng(88)

    # total pattern probability is 1 up to d = 16
    for d in (4, 10, 16):
        spec = QuasifreeSpec(rng.uniform(0, 1, d))
        p = pattern_probabilities(spec, np.arange(1 << d))
        assert abs(math.fsum(p.tolist()) - 1.0) <= 1e-12

    # rotate_ci preserves the norm
    for d, n in ((4, 2), (6, 3)):
        psi = random_state(d, n, rng)
        rotated = rotate_ci(psi, random_unitary(d, rng))
        total = math.fsum(abs(c) ** 2 for c in rotated.amplitudes.values())
        assert abs(total - 1.0) <= 1e-10

    # basis invariance of the measure
    psi = random_state(6, 3, rng)
    assert abs(corr_pure(psi).corr - corr_pure(rotate_ci(psi, random_unitary(6, rng))).corr) <= 1e-8

    # degenerate-eigenspace invariance on the threefold-degenerate spectrum
    basis = diagonalize(one_pdm(three_electron_psi))
    spec = QuasifreeSpec(basis.occupations)

    def overlap_with(vectors):
        rotated = rotate_ci(three_electron_psi, vectors)
        terms = pattern_probabilities(spec, rotated.masks) * np.abs(rotated.coeffs) ** 2
        return math.fsum(terms.tolist())

    reference = overlap_with(basis.vectors)
    vectors = basis.vectors.copy()
    vectors[:, 0:3] = vectors[:, 0:3] @ random_unitary(3, rng)
    vectors[:, 3:6] = vectors[:, 3:6] @ random_unitary(3, rng)
    assert abs(overlap_with(vectors) - reference) <= 1e-8

    # CAR algebra on explicit matrices
    d = 4
    eye = np.eye(1 << d)
    for p in range(d):
        a_p = dense_ladder("annihilation", p, d)
        assert np.count_nonzero(a_p @ a_p) == 0
        for q in range(d):
            c_q = dense_ladder("creation", q, d)
            anti = a_p @ c_q + c_q @ a_p
            assert np.array_equal(anti, eye if p == q else np.zeros_like(eye))
