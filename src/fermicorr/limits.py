"""Numerical limits: every tolerance, floor and size cap that decides what
fermicorr counts as zero, normalized, unitary or too large, each defined
once with its reason.

Modules read them at call time as `limits.NAME`, so a test can patch one
attribute; no function or command-line option takes one per call.
Working-set sizes and cost coefficients that only tune a kernel
(`natural_orbitals.MINOR_BLOCK_ENTRIES`, the rotation route's cost
estimate) stay beside their kernels: they do not decide what is accepted.
This module imports nothing.
"""

# max |gamma - gamma†|: a gamma built from amplitudes is Hermitian to
# roundoff, about 1e-16 per entry, so anything larger is an input error
HERMITICITY_TOL = 1e-12
# eigenvalues of gamma outside [-EIGENVALUE_TOL, 1 + EIGENVALUE_TOL] are
# refused and those inside clipped to [0, 1]; gamma of accepted states (each
# weighted by 1/norm², mixture weights divided by their sum) has eigenvalues
# in [0, 1] to roundoff
EIGENVALUE_TOL = 1e-10

# |norm - 1| of a state: within it the state counts as normalized and is
# weighted by 1/norm², so gamma's trace and eigenvalues stay exact; the CLI
# warns beyond it before it renormalizes a file.  The 2 NORM_TOL this leaves
# on a rotated norm² is far inside UNITARITY_TOL.
NORM_TOL = 1e-9
# |sum - 1| of mixture weights and of canonical pair weights: schmidt_2e
# leaves out at most d/2 pairs below OCCUPATION_FLOOR, 3.2e-11 at d = 64
WEIGHT_SUM_TOL = 1e-10
# an occupation below it counts as empty: a gamma eigenvalue (such natural
# orbitals are no rotation target, which loses at most d times it of norm²)
# and a canonical pair weight b² (pair deflation stops there)
OCCUPATION_FLOOR = 1e-12
# max |B†B - 1| of target or pair orbitals, and |norm² - 1| after rotate_ci:
# eigenvectors are orthonormal to about 1e-14, and a pair orbital deflated
# just above b² = OCCUPATION_FLOOR carries roundoff/b (measured: 1.6e-10)
UNITARITY_TOL = 1e-8

# arrays of one rotate_ci call, counted before allocating: C(26, 13) targets
# fit on the minor route (0.29 GB), C(40, 20) would need 3.3e12 B
ROTATION_BUDGET_BYTES = 1 << 30
# summed squared row weight of V that the Givens route may leave out; the
# rotated amplitudes then move from the minor rule by at most this sum
DROPPED_WEIGHT = 1e-14
# an eigenvector's phase is set by its first component above this: a unit
# vector has one of size >= 1/sqrt(d) >= 1/8, and roundoff must not choose
PHASE_FLOOR = 1e-12
# |recipe - oracle| of `fermicorr oracle` and |lhs - rhs| of a `verify-wick`
# trial beyond which the self-check fails: both routes agree to roundoff,
# measured at 8.8e-17 (largest of 50 verify-wick --dim 14 trials) and
# 1.4e-17 (oracle on data/psi_3e.wf)
AGREEMENT_TOL = 1e-10

# a determinant is one uint64 occupation mask
MAX_ORBITALS = 64
# d of every explicit 2^d Fock-space path: verify_wick with 4 operators per
# side took 0.27 s and an 18.5 MiB peak at d = 14, 0.77 s and 46 MiB at 15
# and 2.1 s and 119 MiB at 16; overlap_oracle on a dense (d, d // 2) state
# took 0.04, 0.08 and 0.31 s (2-vCPU VM, one BLAS thread)
MAX_ORACLE_DIM = 14
# creation or annihilation operators per side of verify_wick: applying the
# j-th to the states of N particles sums j gathered terms into a
# C(d, N) C(N, j) array of amplitudes, at most 2.5e5 of them (4 MB) at
# d = 14 and j <= 5; the verify-wick command draws at most 3
WICK_MAX_OPS = 4


def refuse(message: str, name: str):
    """Raise the ValueError of a refusal at limit `name`, stating its value."""
    raise ValueError(f"{message} (limit {name} = {globals()[name]!r})")
