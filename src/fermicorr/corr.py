"""Correlation of a fermionic state against its quasifree reference.

The measure is the negative logarithm of the overlap between the state
and the unique quasifree (independently occupied natural orbitals)
density sharing its one-particle density matrix.  It vanishes exactly
on Slater determinants, unlike spectrum-only measures such as the
correlation entropy and the degree of correlation, which are also
provided here for comparison.  Two-particle states also have a closed
form through their canonical pairing.  Nothing here imports the
brute-force `oracle` module, so that it stays an independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np

from . import limits
from .fock import OrbitalSpace, occupation_matrix, relabel_masks
from .natural_orbitals import diagonalize, last_rows, rotate_ci
from .quasifree import QuasifreeSpec, pattern_probabilities
from .wavefunction import CIWavefunction, OnePDM, one_pdm, unit_norm2


@dataclass
class CorrResult:
    """Correlation value plus the quantities it was computed from.

    `corr` is -log_base(overlap); `occupations` is the natural-orbital
    spectrum, descending and of length d: on the pipeline of corr_pure and
    corr_mixed, c exact ones for the core orbitals that every determinant
    holds, the spectrum of gamma on the orbitals the state varies on, then
    exact zeros for the orbitals no determinant holds (see _strip);
    `entropy` / `entropy_raw` are the spectrum entropies under the
    normalized (lambda/N) and raw conventions, N the full particle count;
    `fidelity` is set on the mixed-state path.  A pure state's corr is at
    most sum_i h(lambda_i) <= k bits over its k occupied natural orbitals
    (Jensen: -log <psi, rho psi> <= -<psi, log rho psi>), so its overlap
    is at least 2^-64; see _corr for mixtures.
    """

    corr: float
    overlap: float
    base: float
    occupations: np.ndarray
    entropy: float
    entropy_raw: float
    degree: float
    fidelity: Optional[float] = None


@dataclass
class SchmidtForm2e:
    """Canonical pairing of a two-particle state.

    `pairs` holds (f_j, g_j, p_j): orthonormal orbital pairs and weights
    with sum p_j = 1; the state is the p_j-weighted superposition of the
    (f_j, g_j) determinants.
    """

    pairs: list[tuple[np.ndarray, np.ndarray, float]]

    def __post_init__(self):
        vecs = np.array([v for f, g, _ in self.pairs for v in (f, g)])
        drift = float(np.max(np.abs(vecs.conj() @ vecs.T - np.eye(len(vecs))), initial=0.0))
        if drift > limits.UNITARITY_TOL:
            limits.refuse(f"pair orbitals are orthonormal to {drift:.3e}", "UNITARITY_TOL")
        _check_sum(self.weights, "pair weights")

    @property
    def weights(self) -> list[float]:
        return [p for _, _, p in self.pairs]


@dataclass
class MixedState:
    """Convex mixture of fixed-particle-number pure states over one orbital
    space; (w, psi) counts as sqrt(w / W) psi / |psi|, W the weights' sum."""

    components: list[tuple[float, CIWavefunction]]

    def __post_init__(self):
        if not self.components:
            raise ValueError("mixture needs at least one component")
        for w, psi in self.components:
            if not (math.isfinite(w) and w > 0):
                raise ValueError(f"mixture weights must be positive and finite, got {float(w)!r}")
            if psi.space != self.space:
                raise ValueError("sector mismatch: components live in different orbital spaces")
        _check_sum([w for w, _ in self.components], "mixture weights")

    @property
    def space(self):
        return self.components[0][1].space


def _check_sum(weights: Sequence[float], what: str) -> None:
    total = math.fsum(weights)
    if not abs(total - 1.0) <= limits.WEIGHT_SUM_TOL:
        limits.refuse(f"{what} must sum to 1, not {total!r}", "WEIGHT_SUM_TOL")


def _neg_log_overlap(root: float, base: float, power: int = 1) -> tuple[float, float]:
    """(-log_base overlap, overlap) for the overlap root**power, clamped to
    [0, 1].  The log is taken of the nonnegative `root` (_corr passes the
    fidelity with power 2); a zero root has no log and is refused.
    """
    if root <= 0.0:
        raise ValueError("no weight on the quasifree reference")
    corr = max(0.0, -power * math.log(root) / math.log(base))
    return corr, min(root**power, 1.0)


def _spectrum_entropy(lam: np.ndarray, n: float, base: float, convention: str) -> float:
    """Shannon entropy of lam / n ("normalized", 0 at n = 0) or of lam ("raw")."""
    if convention == "normalized":
        mu = np.asarray(lam, dtype=float) / n if n else []  # no particles, no entropy
    elif convention == "raw":
        mu = np.asarray(lam, dtype=float)
    else:
        raise ValueError(f"unknown entropy convention {convention!r}")
    # 0 - sum rather than -sum, so that an empty sum gives +0
    return (0.0 - math.fsum(float(m) * math.log(m) for m in mu if m > 0.0)) / math.log(base)


def _spectrum_degree(lam: np.ndarray, n: float) -> float:
    """Inverse participation ratio of lam / n, and 0 at n = 0."""
    if n == 0:
        return 0.0
    mu = np.asarray(lam, dtype=float) / n
    return 1.0 / math.fsum(float(m) ** 2 for m in mu)


def correlation_entropy(
    gamma: Union[OnePDM, np.ndarray], base: float = 2.0, convention: str = "normalized"
) -> float:
    """Shannon entropy of the gamma spectrum.

    Under the default convention the spectrum is rescaled by the particle
    number to a probability vector, so a Slater determinant scores
    log_base(N), and the vacuum (N = 0) scores 0; the raw convention uses
    the occupations directly and gives 0 on every determinant.
    """
    g = gamma.gamma if isinstance(gamma, OnePDM) else np.asarray(gamma, dtype=complex)
    lam = diagonalize(g).occupations
    return _spectrum_entropy(lam, float(np.trace(g).real), base, convention)


def degree_of_correlation(gamma: Union[OnePDM, np.ndarray]) -> float:
    """Inverse participation ratio of the normalized gamma spectrum.

    Normalized so a Slater determinant of N particles scores exactly N,
    the vacuum included.
    """
    g = gamma.gamma if isinstance(gamma, OnePDM) else np.asarray(gamma, dtype=complex)
    return _spectrum_degree(diagonalize(g).occupations, float(np.trace(g).real))


def _result(corr: float, overlap: float, base: float, lam: np.ndarray, n: float,
            fidelity: Optional[float] = None) -> CorrResult:
    return CorrResult(
        corr=corr,
        overlap=overlap,
        base=base,
        occupations=np.asarray(lam, dtype=float),
        entropy=_spectrum_entropy(lam, n, base, "normalized"),
        entropy_raw=_spectrum_entropy(lam, n, base, "raw"),
        degree=_spectrum_degree(lam, n),
        fidelity=fidelity,
    )


def _strip(phis: list[CIWavefunction]) -> tuple[list[CIWavefunction], int]:
    """The components on the d' orbitals they vary on, and the core size c.

    held is the OR and core the AND of every mask of every component.  gamma
    is exactly 0 outside held and 1 on the core, so the reference factorizes
    there, and corr is that of the state left on the orbitals of
    held & ~core, relabelled 0..d'-1 in order (fock.relabel_masks), with
    n - c particles.  Moving the core creators of determinant m to the front
    multiplies its amplitude by prod over core q of (-1)^(orbitals of m
    below q), which is prod over p in m of (-1)^(core orbitals above p): a
    sign per kept orbital, that is a one-particle unitary, which changes
    neither gamma's spectrum nor corr, so no amplitude changes.  A full
    support has no core and passes through; d' = 0 leaves no component, as
    every one is the determinant `core`.
    """
    d = phis[0].space.d
    held = np.bitwise_or.reduce([np.bitwise_or.reduce(phi.masks) for phi in phis])
    core = np.bitwise_and.reduce([np.bitwise_and.reduce(phi.masks) for phi in phis])
    varied, pinned = occupation_matrix(np.array([held & ~core, core]), d)
    kept, c = np.flatnonzero(varied), int(np.count_nonzero(pinned))
    if kept.size == d:  # full support, so no core
        return phis, 0
    if kept.size == 0:  # every component is the determinant `core`
        return [], c
    space = OrbitalSpace(kept.size)
    return [CIWavefunction.from_arrays(space, phi.n - c, relabel_masks(phi.masks, kept), phi.coeffs)
            for phi in phis], c


def _corr(components: Sequence[tuple[float, CIWavefunction]], base: float) -> CorrResult:
    """The one corr pipeline, for a convex mixture of number-conserving
    pure states (a pure state is the single component of weight 1).

    Component a enters as one vector, phi_a = sqrt(w_a / (W |psi_a|²)) psi_a
    with W the sum of the weights and |psi_a| = 1 within limits.NORM_TOL,
    and the vectors are first stripped (see _strip) of the orbitals that no
    determinant holds and of the c core orbitals that every determinant
    holds; on those gamma is 0 or 1 and the reference factorizes, so this
    is exact.  The pipeline runs on the d' orbitals left.  gamma = sum_a
    one_pdm(phi_a) there has the particle number less c as its trace, and
    rotate_ci keeps each |phi_a|² = w_a / W to limits.UNITARITY_TOL, so a
    component on orbitals below the floor loses no more than it weighs.

    gamma is validated and diagonalized once, and the reference is its
    quasifree density.  The k occupied natural orbitals go to rotate_ci,
    and their occupations to the reference, in the order of the last row
    where each is exactly nonzero, a stable sort, so one dense block keeps
    the descending order: a diagonal gamma then needs no Givens rotation,
    and contiguous blocks of gamma need rotations only inside them (see
    natural_orbitals._givens_reach).  The fidelity between the mixture
    and the reference factorizes over particle-number sectors (both
    operators are number-conserving).  Within a sector, the rotated
    components form the rows sqrt(p(s)) c'_a(s) of one matrix X with
    X X† = D^{1/2} rho D^{1/2}, so the fidelity parts are X's singular
    values (Uhlmann, Rep. Math. Phys. 9, 273 (1976)), exact to about
    1e-16 |X| with no floor.
    corr is -2 log of their fsum F, which for one component is
    -log <psi, rho psi>; with d' = 0 the state is one determinant and F is
    1.  Over the k occupied natural orbitals,
    F² >= Tr(D rho) >= w_max 2^-(k (1 + log2(1/w_max))) (Jensen on the
    heaviest component), so corr <= k + (k + 1) log2(1/w_max) bits and F
    stays a normal double for fewer than about 1e9 components; the log is
    taken of F, not F².  The occupations reported are c ones, the d'
    occupations, then zeros up to d, and the spectral measures take the
    full particle count.
    """
    d = components[0][1].space.d
    total = math.fsum(w for w, _ in components)
    phis = []
    for w, psi in components:
        scale = math.sqrt(w / (total * unit_norm2(psi)))
        phis.append(CIWavefunction.from_arrays(psi.space, psi.n, psi.masks, scale * psi.coeffs))
    phis, c = _strip(phis)
    fid_parts, lam, particles = [1.0], np.zeros(0), float(c)
    if phis:
        g = sum(one_pdm(phi).gamma for phi in phis)
        basis = diagonalize(g)
        # the state has no weight on empty natural orbitals, and diagonalize
        # sorts occupations descending, so the occupied ones lead; the rotated
        # masks hold none of the empty ones, whose factors 1 - lambda are 1;
        # the occupied ones then go in the order of their last nonzero row
        k = int(np.count_nonzero(basis.occupations >= limits.OCCUPATION_FLOOR))
        order = np.argsort(last_rows(basis.vectors[:, :k]), kind="stable")
        occupied = basis.vectors[:, order]
        spec = QuasifreeSpec(basis.occupations[order])
        sectors: dict[int, list[CIWavefunction]] = {}
        for phi in phis:
            sectors.setdefault(phi.n, []).append(phi)
        fid_parts = []
        for same_n in sectors.values():
            for a, phi in enumerate(same_n):
                rotated = rotate_ci(phi, occupied)
                if a == 0:
                    # every component of a sector rotates onto the same ordered targets
                    root_p = np.sqrt(pattern_probabilities(spec, rotated.masks))
                    x = np.empty((len(same_n), root_p.size), dtype=complex)
                np.multiply(rotated.coeffs, root_p, out=x[a])
            del rotated, root_p  # so that svd's copy of x is the only other sector array
            fid_parts.extend(np.linalg.svd(x, compute_uv=False).tolist())
        lam, particles = basis.occupations, c + float(np.trace(g).real)
    fidelity = min(math.fsum(sorted(fid_parts, reverse=True)), 1.0)
    corr, overlap = _neg_log_overlap(fidelity, base, power=2)
    occupations = np.concatenate([np.ones(c), lam, np.zeros(d - c - lam.size)])
    return _result(corr, overlap, base, occupations, particles, fidelity=fidelity)


def corr_pure(psi: CIWavefunction, base: float = 2.0) -> CorrResult:
    """-log of the overlap between a pure state and its quasifree reference.

    Pipeline: gamma, natural orbitals, re-expansion of the state in
    natural-orbital determinants, then the overlap
    sum_s p(s) |c(s)|² over the occupation patterns s in the state's
    sector, taken as the one-component case of corr_mixed's sector step
    (its fidelity part is the 2-norm of the row sqrt(p) c).  Zero
    exactly when the state is a Slater determinant in some orbital basis.
    `fidelity` is left unset.
    """
    return replace(_corr([(1.0, psi)], base), fidelity=None)


def schmidt_2e(psi: CIWavefunction) -> SchmidtForm2e:
    """Canonical form of a two-particle state under unitary congruence
    (the Slater decomposition: Youla, Canad. J. Math. 13, 694 (1961);
    Schliemann et al., PRA 64, 022303 (2001)).

    The antisymmetric amplitude matrix A (A[p, q] = amplitude of the
    determinant {p, q}, p < q) is deflated one pair at a time.  With
    (b², f) the top eigenpair of A A†, the partner g = -A conj(f) / b is a
    unit vector orthogonal to f with A conj(g) = b f, so subtracting
    b (f gᵀ - g fᵀ) leaves an antisymmetric matrix that annihilates
    conj(f) and conj(g); a degenerate weight needs no special handling.
    The loop stops once b² (the pair's occupation) falls below
    limits.OCCUPATION_FLOOR, after at most d // 2 pairs; pair weights are
    the b² of psi / |psi|.
    """
    if psi.n != 2:
        raise ValueError(f"two-particle form needs n=2, got n={psi.n}")
    d = psi.space.d
    p, q = np.nonzero(occupation_matrix(psi.masks, d))[1].reshape(-1, 2).T
    a = np.zeros((d, d), dtype=complex)
    a[p, q] = psi.coeffs
    a = (a - a.T) / math.sqrt(unit_norm2(psi))
    pairs: list[tuple[np.ndarray, np.ndarray, float]] = []
    for _ in range(d // 2):
        w, vecs = np.linalg.eigh(a @ a.conj().T)
        weight, f = float(w[-1]), vecs[:, -1]
        if weight < limits.OCCUPATION_FLOOR:
            break
        b = math.sqrt(weight)
        g = -(a @ f.conj()) / b
        pairs.append((f, g, weight))
        a = a - b * (np.outer(f, g) - np.outer(g, f))
    return SchmidtForm2e(pairs)


def corr_two_particle(psi: CIWavefunction, base: float = 2.0) -> CorrResult:
    """Closed form of the correlation of a two-particle state.

    Each canonical pair contributes its own occupation pattern, so the
    overlap collapses to sum_i p_i (p_i prod_{j≠i} (1 - p_j))².
    """
    form = schmidt_2e(psi)
    p = form.weights
    terms = []
    for i, pi in enumerate(p):
        other = 1.0
        for j, pj in enumerate(p):
            if j != i:
                other *= 1.0 - pj
        terms.append(pi * (pi * other) ** 2)
    total = math.fsum(sorted(terms, reverse=True))
    corr, overlap = _neg_log_overlap(total, base)
    lam = np.zeros(psi.space.d)
    lam[: 2 * len(p)] = np.repeat(sorted(p, reverse=True), 2)
    return _result(corr, overlap, base, lam, 2.0)


def corr_mixed(mixed: MixedState, base: float = 2.0) -> CorrResult:
    """Correlation of a particle-number-conserving mixed state: -2 log of
    the Uhlmann fidelity between the mixture and the quasifree density of
    its weight-averaged gamma, evaluated sector by sector (see _corr)."""
    return _corr(mixed.components, base)
