"""Bloch spectra about a roll.

In the shifted basis ``e^{i m xi}`` the operator acts as

    B[m, n] = p_m * [ (eps^2 + sh(p_m)) d_{mn} + g_{m - n} ],
    p_m = k^2 (m + sigma)^2,

where ``sh`` is :func:`conslaw.model.swift_hohenberg` and ``g`` are the
Fourier coefficients of ``-2 s u - 3 u^2``.  The matrix factors as
``B = diag(p) S`` with ``p >= 0`` and ``S`` real symmetric, so ``B`` is
similar to the symmetric ``sqrt(p) S sqrt(p)``.
All eigenvalues are therefore real and are returned as real arrays; the
symmetric form is what gets eigensolved.  The three critical eigenvalues are
then polished by inverse iteration plus Rayleigh-Ritz, which restores absolute
accuracy near zero that a dense solve of a matrix with ``O(M^6)`` entries
cannot deliver on its own.

A sigma sweep is solved as one batch: the symmetric factors of every Bloch
number are gathered into one ``(n_sigma, N, N)`` stack (``S`` differs between
Bloch numbers only on its diagonal), and the eigensolve, the inverse
iterations and the Rayleigh-Ritz step each run once on the whole stack.  A
single Bloch number is a sweep of one.  Stacked LAPACK calls give the same
bits as one call per matrix, so a sweep's values do not depend on how it is
batched.

At ``sigma = 0`` the ``m = 0`` row vanishes identically (conservation law);
that zero eigenvalue is deflated exactly before the symmetric solve.  The
Bloch numbers of a sweep that are zero therefore form their own batch, of
dimension ``N - 1`` with two critical values.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import GapViolation, OutOfRange
from .model import swift_hohenberg
from .rolls import RollSolution

__all__ = [
    "BlochSpectrum",
    "critical_modes",
    "critical_triples",
    "critical_curves",
    "critical_curve_array",
]

_SIGMA_ZERO_TOL = 1e-13
_REFINE_STEPS = 2
#: Reorderings of a critical triple, in ``itertools.permutations`` order so
#: that the first minimum of a matching cost breaks ties as ``min`` would.
_PERMUTATIONS = np.array(list(permutations(range(3))))


@dataclass(frozen=True)
class BlochSpectrum:
    """Full real spectrum at one Bloch number with the critical triple flagged.

    ``eigenvalues`` are sorted descending; ``critical`` holds the indices of
    the three eigenvalues nearest zero, in curve order (ascending at a
    sweep's first Bloch number).  ``gap`` is ``-max`` over the non-critical rest.
    """

    sigma: float
    eigenvalues: np.ndarray
    critical: tuple[int, int, int]
    gap: float

    def critical_values(self) -> np.ndarray:
        return self.eigenvalues[list(self.critical)]


def _checked_sigmas(sigmas) -> np.ndarray:
    """Bloch numbers as a float array, all inside one Brillouin zone."""
    sigmas = np.asarray(sigmas, dtype=np.float64).reshape(-1)
    outside = np.flatnonzero(np.abs(sigmas) > 0.5)
    if outside.size:
        raise OutOfRange(f"sigma must lie in [-1/2, 1/2], got {float(sigmas[outside[0]])}", param="sigma")
    return sigmas


def _reaction_coefficients(roll: RollSolution) -> np.ndarray:
    """Coefficients of ``df(u) = eps^2 - 2 s u - 3 u^2`` up to mode ``2M``.

    Computed by exact convolution of the roll's cosine coefficients, so no
    transform error enters.
    """
    params = roll.params
    M = roll.profile.grid.n_modes
    c = roll.profile.coeffs.real
    df = -2.0 * params.s * np.concatenate([np.zeros(M), c, np.zeros(M)]) - 3.0 * np.convolve(c, c)
    df[2 * M] += params.eps**2
    return df


def _symmetric_factors(df: np.ndarray, k2: float, sigmas: np.ndarray):
    """Prefactors ``p`` ``(n, N)`` and symmetric factors ``S`` ``(n, N, N)``.

    The Toeplitz multiplication part is the same at every Bloch number, so it
    is gathered and symmetrized once; only the diagonal symbol varies.
    """
    N = (df.size + 1) // 2
    M = N // 2
    idx = np.subtract.outer(np.arange(N), np.arange(N)) + 2 * M
    T = df[idx]
    T = 0.5 * (T + T.T)
    kt2 = k2 * (np.arange(-M, M + 1) + sigmas[:, None]) ** 2
    S = np.repeat(T[None], sigmas.size, axis=0)
    S.reshape(sigmas.size, N * N)[:, :: N + 1] += swift_hohenberg(kt2)
    return kt2, S


def _solve(A: np.ndarray, B: np.ndarray, fallback) -> np.ndarray:
    """Stacked ``A^{-1} B``; only singular members go to ``fallback(a, b)``.

    A stacked solve fails as a whole when one member is singular, so on
    failure every member is solved on its own.
    """
    try:
        return np.linalg.solve(A, B)
    except np.linalg.LinAlgError:
        X = np.empty_like(B)
        for i, (a, b) in enumerate(zip(A, B)):
            try:
                X[i] = np.linalg.solve(a, b)
            except np.linalg.LinAlgError:
                X[i] = fallback(a, b)
        return X


def _shifted_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.linalg.solve(a + 1e-10 * np.eye(a.shape[0]), b)


def _least_squares(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.linalg.lstsq(a, b, rcond=None)[0]


def _refine_critical(H: np.ndarray, Y: np.ndarray):
    """Polish the near-zero Ritz pairs of a stack of symmetric ``H``.

    Inverse iteration on the Ritz vectors ``Y`` ``(n, N, k)``.  The critical
    eigenvectors decay spectrally, so matvecs with the huge-norm ``H`` are
    accurate in absolute terms and the final ``k x k`` Rayleigh-Ritz values
    come out near machine precision.
    """
    for _ in range(_REFINE_STEPS):
        Y, _ = np.linalg.qr(_solve(H, Y, _shifted_solve))
    G = Y.swapaxes(1, 2) @ (H @ Y)
    G = 0.5 * (G + G.swapaxes(1, 2))
    ritz, R = np.linalg.eigh(G)
    return ritz, Y @ R


def _eig_symmetric(p: np.ndarray, S: np.ndarray, n_critical: int):
    """Spectra of the stack ``diag(p) S`` (p > 0) via the symmetric similarity.

    Returns the refined critical eigenvalues (ascending) ``(n, k)``, the
    matching unit eigenvectors of ``diag(p) S`` ``(n, N, k)``, and the
    remaining eigenvalues ``(n, N - k)``.  ``S`` is overwritten.
    """
    n, N = p.shape
    sq = np.sqrt(p)
    H = S
    H *= sq[:, :, None]
    H *= sq[:, None, :]
    # Symmetrized one matrix at a time, so the temporary is one N x N matrix.
    for h in H:
        h += h.T
    H *= 0.5
    w, V = np.linalg.eigh(H)
    crit = np.argsort(np.abs(w), axis=1)[:, :n_critical]
    Y = np.take_along_axis(V, crit[:, None, :], axis=2)
    del V
    ritz, Yr = _refine_critical(H, Y)
    rest = np.ones((n, N), dtype=bool)
    np.put_along_axis(rest, crit, False, axis=1)
    others = w[rest].reshape(n, N - n_critical)
    # Map eigenvectors of H back to eigenvectors of diag(p) S.
    vecs = sq[:, :, None] * Yr
    norms = np.linalg.norm(vecs, axis=1)
    norms[norms == 0.0] = 1.0
    vecs /= norms[:, None, :]
    return ritz, vecs, others


def _eig_deflated(p: np.ndarray, S: np.ndarray):
    """Critical pairs of a stack at ``sigma = 0``, with the exact zero deflated.

    The ``m = 0`` row and column are dropped before the symmetric solve,
    which leaves two critical values; the zero's right eigenvector solves
    ``S v = e_0``.
    """
    n, N = p.shape
    M = N // 2
    keep = np.arange(N) != M
    e0 = np.zeros((n, N, 1))
    e0[:, M] = 1.0
    v0 = _solve(S, e0, _least_squares)[:, :, 0]
    # S is singular, so the solve leaves a roundoff-dependent odd part; S
    # commutes with m -> -m and e_0 is even, so the even part solves S v = e_0.
    v0 = 0.5 * (v0 + v0[:, ::-1])
    # Boolean indexing leaves the stack non-contiguous; matmul on the
    # contiguous copy rounds exactly as it does on a single matrix.
    sub = np.ascontiguousarray(S[:, keep][:, :, keep])
    ritz, vecs_sub, others = _eig_symmetric(p[:, keep], sub, 2)
    vals = np.concatenate([np.zeros((n, 1)), ritz], axis=1)
    vecs = np.zeros((n, N, 3))
    # Normalized one vector at a time, with the rounding of a single solve.
    vecs[:, :, 0] = v0 / np.array([[np.linalg.norm(v)] for v in v0])
    vecs[:, keep, 1:] = vecs_sub
    return vals, vecs, others


def _critical_stack(p: np.ndarray, S: np.ndarray, at_zero: bool):
    """Critical triples (ascending), their vectors and the rest, for a stack.

    ``at_zero`` selects the deflated solve for a stack at ``sigma = 0``.
    ``S`` may be overwritten.
    """
    vals, vecs, others = _eig_deflated(p, S) if at_zero else _eig_symmetric(p, S, 3)
    order = np.argsort(vals, axis=1)
    vals = np.take_along_axis(vals, order, axis=1)
    vecs = np.take_along_axis(vecs, order[:, None, :], axis=2)
    return vals, vecs, others


def _solve_sweep(roll: RollSolution, sigmas):
    """Batched solve of a sweep at the roll's resolution, in sweep order.

    Returns the checked Bloch numbers ``(n,)``, critical triples ``(n, 3)``,
    critical vectors ``(n, N, 3)`` and remaining eigenvalues ``(n, N - 3)``.
    """
    sigmas = _checked_sigmas(sigmas)
    df = _reaction_coefficients(roll)
    n, N = sigmas.size, 2 * roll.profile.grid.n_modes + 1
    vals = np.empty((n, 3))
    vecs = np.empty((n, N, 3))
    others = np.empty((n, N - 3))
    zero = np.abs(sigmas) < _SIGMA_ZERO_TOL
    for members, at_zero in ((zero, True), (~zero, False)):
        if members.any():
            p, S = _symmetric_factors(df, roll.params.k**2, sigmas[members])
            vals[members], vecs[members], others[members] = _critical_stack(p, S, at_zero)
    return sigmas, vals, vecs, others


def _certified_gaps(others: np.ndarray, delta: float) -> np.ndarray:
    """``-max`` of each row of ``others``; the first gap ``<= delta`` raises."""
    gaps = -np.max(others, axis=1)
    failed = np.flatnonzero(gaps <= delta)
    if failed.size:
        raise GapViolation(float(gaps[failed[0]]), delta)
    return gaps


def check_delta(delta: float) -> None:
    """Raise :class:`OutOfRange` unless the required gap ``delta`` is positive."""
    if delta <= 0.0:
        raise OutOfRange(f"delta must be positive, got {delta}", param="delta")


def _spectra(sigmas, vals, others, gaps) -> list[BlochSpectrum]:
    """Per-sigma spectra, triples matched as :func:`critical_curves` describes.

    On ties the first permutation in ``_PERMUTATIONS`` order wins.
    """
    allvals = np.concatenate([vals, others], axis=1)
    order = np.argsort(-allvals, axis=1, kind="stable")
    eigenvalues = np.take_along_axis(allvals, order, axis=1)
    pos = np.empty_like(order)
    np.put_along_axis(pos, order, np.arange(order.shape[1])[None, :], axis=1)
    critical = pos[:, :3]
    cvals = allvals[:, :3]
    spectra: list[BlochSpectrum] = []
    perm = _PERMUTATIONS[0]
    for i, sigma in enumerate(sigmas):
        if i > 0:
            cost = np.abs(cvals[i][_PERMUTATIONS] - cvals[i - 1][perm]).sum(axis=1)
            perm = _PERMUTATIONS[np.argmin(cost)]
        spectra.append(
            BlochSpectrum(
                sigma=float(sigma),
                eigenvalues=eigenvalues[i],
                critical=tuple(int(j) for j in critical[i][perm]),
                gap=float(gaps[i]),
            )
        )
    return spectra


def critical_modes(roll: RollSolution, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Critical eigenvalues (ascending) and real eigenvectors in the shifted basis.

    Column ``j`` of the vector array holds coefficients ``V_m`` of the Bloch
    eigenfunction ``e^{i sigma xi} sum_m V_m e^{i m xi}``.  No gap is certified.
    """
    _, vals, vecs, _ = _solve_sweep(roll, [sigma])
    return vals[0], vecs[0]


def critical_triples(roll: RollSolution, sigmas, delta: float = 1.0) -> np.ndarray:
    """Critical eigenvalues over a sigma sweep, ascending per sigma.

    Returns a real ``(n_sigma, 3)`` array.  The gap is certified as in
    :func:`critical_curves`; no per-sigma spectra are built and no curves are
    matched.
    """
    check_delta(delta)
    _, vals, _, others = _solve_sweep(roll, sigmas)
    _certified_gaps(others, delta)
    return vals


def critical_curves(roll: RollSolution, sigmas, delta: float = 1.0) -> list[BlochSpectrum]:
    """Spectra over a sigma sweep with the critical triple matched into curves.

    Matching is greedy nearest-continuation: at each sigma the permutation of
    the critical triple minimizing the total distance to the previous triple
    is chosen, so the returned ``critical`` index triples trace three
    continuous curves.  Raises :class:`GapViolation`, for the first offending
    sigma in sweep order, when the non-critical spectrum does not stay below
    ``-delta``, i.e. when the three-eigenvalue decomposition breaks.
    """
    check_delta(delta)
    sigmas, vals, _, others = _solve_sweep(roll, sigmas)
    gaps = _certified_gaps(others, delta)
    return _spectra(sigmas, vals, others, gaps)


def critical_curve_array(spectra: list[BlochSpectrum]) -> np.ndarray:
    """Stack matched critical curves as a real (3, n_sigma) array."""
    return np.column_stack([s.critical_values() for s in spectra])
