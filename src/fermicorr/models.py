"""Two-site Hubbard dimer: exact two-electron ground states and sweeps
comparing the quasifree-overlap correlation against spectrum-only measures.

Spin-orbital order is fixed as (site1 up, site1 down, site2 up, site2 down)
mapped to indices 0..3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corr import _spectrum_entropy, corr_pure
from .fock import Determinant, OrbitalSpace, enumerate_basis, occupation_matrix, sector_ladders
from .wavefunction import CIWavefunction

DIMER_SPACE = OrbitalSpace(4)
_SITE1_UP, _SITE1_DN, _SITE2_UP, _SITE2_DN = 0, 1, 2, 3

# one-body strings a†_i a_j for the hopping part
_HOPS = [
    (_SITE1_UP, _SITE2_UP),
    (_SITE2_UP, _SITE1_UP),
    (_SITE1_DN, _SITE2_DN),
    (_SITE2_DN, _SITE1_DN),
]
# number-operator products n_{site,up} n_{site,down}
_INTERACTIONS = [(_SITE1_UP, _SITE1_DN), (_SITE2_UP, _SITE2_DN)]


@dataclass(frozen=True)
class HubbardParams:
    """Finite hopping t > 0 and on-site energy U (attractive when negative)."""

    t: float
    U: float

    def __post_init__(self):
        if not (math.isfinite(self.t) and math.isfinite(self.U) and self.t > 0):
            raise ValueError(f"need finite t > 0 and finite U, got t={self.t!r}, U={self.U!r}")

    @property
    def u(self) -> float:
        """Dimensionless interaction U/t."""
        return self.U / self.t


@dataclass
class SweepRow:
    u: float
    ground_energy: float
    corr: float
    entropy: float
    entropy_normalized: float
    degree: float


def dimer_basis() -> list[Determinant]:
    """The six two-electron determinants, ascending mask order."""
    return enumerate_basis(DIMER_SPACE, 2)


def hubbard_hamiltonian(params: HubbardParams) -> np.ndarray:
    """The 6x6 two-electron Hamiltonian on dimer_basis().

    The sector-2 raising table of `fock.sector_ladders(4)` gives each a†_q
    as the 6x4 matrix A_q from the one-electron determinants to
    dimer_basis(), so hopping a†_i a_j is A_i A_jᵀ; the interaction
    n_i n_j is diagonal, read from the masks.
    """
    d = DIMER_SPACE.d
    masks, raising, _ = sector_ladders(d)
    orbital, sign, source = raising[2]
    dagger = np.zeros((d, masks[2].size, masks[1].size))
    dagger[orbital, np.arange(masks[2].size)[:, None], source] = sign
    occupied = occupation_matrix(masks[2], d)
    hop = sum(dagger[i] @ dagger[j].T for i, j in _HOPS)
    pair = np.diag(sum(occupied[:, i] * occupied[:, j] for i, j in _INTERACTIONS))
    return -params.t * hop + params.U * pair


def _ground(params: HubbardParams) -> tuple[float, CIWavefunction]:
    h = hubbard_hamiltonian(params)
    w, v = np.linalg.eigh(h)
    vec = v[:, 0]
    basis = dimer_basis()
    # fix the global phase: covalent amplitude (site1-up, site2-down) real positive
    covalent = basis.index(Determinant.from_indices((_SITE1_UP, _SITE2_DN)))
    if vec[covalent] < 0:
        vec = -vec
    amps = {det: complex(vec[k]) for k, det in enumerate(basis)}
    return float(w[0]), CIWavefunction(DIMER_SPACE, 2, amps)


def hubbard_ground_state(params: HubbardParams) -> CIWavefunction:
    """Normalized two-electron ground state (the singlet branch is the
    unique lowest state for every finite U, so no root flipping occurs)."""
    return _ground(params)[1]


def heitler_london_state() -> CIWavefunction:
    """Equal-weight one-electron-per-site singlet, the u -> +inf limit."""
    amp = 1.0 / math.sqrt(2.0)
    return CIWavefunction(
        DIMER_SPACE,
        2,
        {
            Determinant.from_indices((_SITE1_UP, _SITE2_DN)): amp,
            Determinant.from_indices((_SITE1_DN, _SITE2_UP)): -amp,
        },
    )


def _entropy_limit(base: float, convention: str) -> float:
    # analytic large-u spectrum: four occupations of 1/2
    return _spectrum_entropy(np.full(4, 0.5), 2.0, base, convention)


def sweep(
    u_grid: Sequence[float],
    base: float = 2.0,
    t: float = 1.0,
    entropy_convention: str = "normalized",
) -> list[SweepRow]:
    """Ground-state measures along an interaction grid.

    `entropy_normalized` rescales the entropy so that its large-u limit
    equals the correlation limit (4 bits, the Heitler-London value); the
    scale factor is computed from the analytic limiting spectrum, not
    from a grid sample.
    """
    corr_limit = -math.log(1.0 / 16.0) / math.log(base)
    factor = corr_limit / _entropy_limit(base, entropy_convention)
    rows = []
    for u in u_grid:
        energy, state = _ground(HubbardParams(t=t, U=u * t))
        res = corr_pure(state, base=base)
        entropy = res.entropy if entropy_convention == "normalized" else res.entropy_raw
        rows.append(
            SweepRow(
                u=float(u),
                ground_energy=energy,
                corr=res.corr,
                entropy=entropy,
                entropy_normalized=factor * entropy,
                degree=res.degree,
            )
        )
    return rows
