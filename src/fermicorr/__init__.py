"""Correlation measures for many-fermion states.

A pure state's correlation is quantified as the negative log overlap
with the quasifree density (independently occupied natural orbitals)
that shares its one-particle density matrix; mixed number-conserving
states use the Uhlmann fidelity instead of the overlap.
"""

from .corr import (
    CorrResult,
    MixedState,
    SchmidtForm2e,
    corr_mixed,
    corr_pure,
    corr_two_particle,
    correlation_entropy,
    degree_of_correlation,
    schmidt_2e,
)
from .fock import Determinant, OrbitalSpace, enumerate_basis
from .models import (
    HubbardParams,
    SweepRow,
    heitler_london_state,
    hubbard_ground_state,
    hubbard_hamiltonian,
    sweep,
)
from .natural_orbitals import NaturalOrbitalBasis, diagonalize, rotate_ci
from .oracle import overlap_oracle
from .quasifree import QuasifreeSpec, WickReport, pattern_probabilities, verify_wick
from .wavefunction import CIWavefunction, OnePDM, inner_product, normalize, one_pdm

__all__ = [
    "CIWavefunction",
    "CorrResult",
    "Determinant",
    "HubbardParams",
    "MixedState",
    "NaturalOrbitalBasis",
    "OnePDM",
    "OrbitalSpace",
    "QuasifreeSpec",
    "SchmidtForm2e",
    "SweepRow",
    "WickReport",
    "corr_mixed",
    "corr_pure",
    "corr_two_particle",
    "correlation_entropy",
    "degree_of_correlation",
    "diagonalize",
    "enumerate_basis",
    "heitler_london_state",
    "hubbard_ground_state",
    "hubbard_hamiltonian",
    "inner_product",
    "normalize",
    "one_pdm",
    "overlap_oracle",
    "pattern_probabilities",
    "rotate_ci",
    "schmidt_2e",
    "sweep",
    "verify_wick",
]
