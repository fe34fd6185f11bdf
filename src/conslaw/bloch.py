"""Bloch spectra about a roll.

In the shifted basis ``e^{i m xi}`` the operator acts as

    B[m, n] = p_m * [ (eps^2 + sh(p_m)) d_{mn} + g_{m - n} ],
    p_m = k^2 (m + sigma)^2,

where ``sh`` is :func:`conslaw.model.swift_hohenberg` and ``eps^2 + g`` are the
coefficients of :func:`conslaw.model.reaction_derivative`.  The matrix factors as
``B = diag(p) S`` with ``p >= 0`` and ``S`` real symmetric, so ``B`` is
similar to the symmetric ``sqrt(p) S sqrt(p)``.
All eigenvalues are therefore real and are returned as real arrays; the
symmetric form is what gets eigensolved.  The three critical eigenvalues are
then polished by inverse iteration plus Rayleigh-Ritz, which restores absolute
accuracy near zero that a dense solve of a matrix with ``O(M^6)`` entries
cannot deliver on its own.

A sigma sweep is solved in batches: :func:`_stacks` gathers the symmetric
matrices of a batch's Bloch numbers into one ``(n_sigma, N, N)`` stack
(``S`` differs between Bloch numbers only on its diagonal), and the
eigensolve, the inverse iterations and the Rayleigh-Ritz step each run once
on the whole stack.  A single Bloch number is a sweep of one.  Stacked
LAPACK calls give the same bits as one call per matrix, so a sweep's values
do not depend on how it is batched.  A member fails when its own call
raises (:func:`_per_member`) or, in the certificate's Cholesky
factorization, when its factor has a non-finite diagonal, as NumPy returns
NaN factors for NaN input.  A failed solve is redone on the matrix shifted
by ``1e-10 I``; a failed certificate sends its member to the eigensolve path.

Critical triples need only the three values and the gap below them, so
:func:`critical_triples` (and through it the stability classifier and the
amplitude-system comparison) takes a second path with no full eigensolve.
It splits ``H`` as the Lyapunov-Schmidt reduction does: the critical block
``c`` (Bloch modes ``m = -2..2``) and the rest ``r``, which the sixth-order
symbol damps hard.  Unit vectors on ``c``, lifted onto ``r`` by one
diagonal solve ``-diag(H_rr)^{-1} H_rc`` (the first-order reduction), start
one step of the same inverse iteration and Rayleigh-Ritz step; one stacked
Cholesky factorization then certifies by inertia that the rest of the
spectrum lies below ``-delta``, and each value gets a residual enclosure.
Failed certificates and ``sigma = 0`` go to the eigensolve path.  Spectra,
matched curves and modes come from the eigensolve.

At ``sigma = 0`` the ``m = 0`` row vanishes identically (conservation law).
:func:`_stacks` alone decides which Bloch numbers count as zero; they form
their own batch, whose ``m = 0`` row and column are deflated before ``H`` is
built; only the eigensolve path solves it, for two values beside the zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import GapViolation, OutOfRange
from .model import reaction_derivative, swift_hohenberg
from .rolls import RollSolution

__all__ = [
    "BlochSpectrum",
    "critical_modes",
    "critical_triples",
    "critical_curves",
    "critical_curve_array",
]

_SIGMA_ZERO_TOL = 1e-13
#: Inverse-iteration steps of the eigensolve path from ``eigh``'s vectors; the
#: certified path takes one from its lifted start block.
_REFINE_STEPS = 2
#: The critical block of the certified path: Bloch modes whose lifted unit
#: vectors start its inverse iteration (whole, as it never solves
#: sigma = 0).  A small roll's critical triple lives at m = -1, 0, 1 (at
#: m = -2, -1, 0 near sigma = -1/2); the |m| = 2 neighbours widen the block,
#: so Rayleigh-Ritz resolves the triple apart.
_START_MODES = np.arange(-2, 3)
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


def _checked_sigmas(sigmas, param: str) -> np.ndarray:
    """Bloch numbers as a float array; :class:`OutOfRange` unless all lie in ``[-1/2, 1/2]``."""
    sigmas = np.asarray(sigmas, dtype=np.float64).reshape(-1)
    outside = np.flatnonzero(~(np.abs(sigmas) <= 0.5))
    if outside.size:
        raise OutOfRange(f"Bloch number {float(sigmas[outside[0]])} lies outside [-1/2, 1/2]", param=param)
    return sigmas


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


def _per_member(f, A: np.ndarray, *rest):
    """``f`` on a stack, member by member only when the stacked call raises.

    A stacked LAPACK call fails as a whole when one member fails, and rounds
    each member as a call on that member alone does.  Returns the result
    (shaped as the last operand), NaN on the members whose own call raised
    ``LinAlgError``, and the list of those members, empty on success.
    """
    try:
        return f(A, *rest), []
    except np.linalg.LinAlgError:
        out, failed = np.full(np.shape((A, *rest)[-1]), np.nan), []
    for i, args in enumerate(zip(A, *rest)):
        try:
            out[i] = f(*args)
        except np.linalg.LinAlgError:
            failed.append(i)
    return out, failed


def _solve(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Stacked ``A^{-1} B``; a singular member gets the solve shifted by ``1e-10 I``."""
    X, failed = _per_member(np.linalg.solve, A, B)
    for i in failed:
        X[i] = np.linalg.solve(A[i] + 1e-10 * np.eye(A.shape[1]), B[i])
    return X


def _refine_critical(H: np.ndarray, Y: np.ndarray, steps: int):
    """Polish the near-zero Ritz pairs of a stack of symmetric ``H``.

    ``steps`` inverse-iteration steps from the columns of ``Y`` ``(n, N, k)``:
    eigensolver vectors, or the classifier's lifted start block.  The
    critical eigenvectors decay spectrally, so matvecs with the huge-norm
    ``H`` are accurate in absolute terms and the final ``k x k``
    Rayleigh-Ritz values come out near machine precision.
    """
    for _ in range(steps):
        Y, _ = np.linalg.qr(_solve(H, Y))
    G = Y.swapaxes(1, 2) @ (H @ Y)
    G = 0.5 * (G + G.swapaxes(1, 2))
    ritz, R = np.linalg.eigh(G)
    return ritz, Y @ R


def _stacks(roll: RollSolution, sigmas: np.ndarray):
    """Symmetric stacks of a checked sweep in two batches: ``sigma = 0``, then the rest.

    Yields ``(members, sq, H, S0)`` for each non-empty batch, where
    ``members`` masks the batch's Bloch numbers in the sweep, ``sq = sqrt(p)``
    and ``H = diag(sq) S diag(sq)`` is built in place of ``S``.  The ``sigma = 0``
    batch drops the ``m = 0`` row and column of ``p`` and ``S`` first, and
    ``S0`` is its undeflated ``S``; the other batch has ``S0 = None``.
    """
    df = reaction_derivative(roll.profile.coeffs, roll.params.s, roll.params.eps)
    zero = np.abs(sigmas) < _SIGMA_ZERO_TOL
    for members, at_zero in ((zero, True), (~zero, False)):
        if not members.any():
            continue
        p, S = _symmetric_factors(df, roll.params.k**2, sigmas[members])
        S0 = None
        if at_zero:
            S0 = S
            keep = np.arange(p.shape[1]) != p.shape[1] // 2
            # Boolean indexing leaves the stack non-contiguous; matmul on the
            # contiguous copy rounds exactly as it does on a single matrix.
            p, S = p[:, keep], np.ascontiguousarray(S[:, keep][:, :, keep])
        sq = np.sqrt(p)
        H = S
        H *= sq[:, :, None]
        H *= sq[:, None, :]
        # Symmetrized one matrix at a time, so the temporary is one N x N matrix.
        for h in H:
            h += h.T
        H *= 0.5
        yield members, sq, H, S0


def _conserved_vectors(S0: np.ndarray) -> np.ndarray:
    """Unit right eigenvectors ``(n, N)`` of the exact zero at ``sigma = 0``: ``S0 v = e_0``."""
    n, N = S0.shape[:2]
    e0 = np.zeros((n, N, 1))
    e0[:, N // 2] = 1.0
    v0 = _solve(S0, e0)[:, :, 0]
    # S0 is singular, so the solve leaves a roundoff-dependent odd part; S0
    # commutes with m -> -m and e_0 is even, so the even part solves S0 v = e_0.
    v0 = 0.5 * (v0 + v0[:, ::-1])
    # Normalized one vector at a time, with the rounding of a single solve.
    return v0 / np.array([[np.linalg.norm(v)] for v in v0])


def _eigensolve(H: np.ndarray, at_zero: bool):
    """The eigensolve path on one batch of :func:`_stacks`.

    ``eigh``, then :func:`_refine_critical` from the eigenvectors of the
    values nearest zero: three, or two beside the exact zero of the deflated
    ``sigma = 0`` batch.  Returns the critical triples ``(n, 3)``
    (ascending), the order that sorts the columns of ``[rho]`` (``[0, rho]``
    at zero) into them, the refined Ritz vectors ``(n, N, k)`` of ``H`` and
    the remaining eigenvalues ``(n, N - 3)``.
    """
    nb = len(H)
    w, V = np.linalg.eigh(H)
    crit = np.argsort(np.abs(w), axis=1)[:, : 2 if at_zero else 3]
    Y = np.take_along_axis(V, crit[:, None, :], axis=2)
    del V
    ritz, Yr = _refine_critical(H, Y, _REFINE_STEPS)
    rest = np.ones(w.shape, dtype=bool)
    np.put_along_axis(rest, crit, False, axis=1)
    if at_zero:
        ritz = np.concatenate([np.zeros((nb, 1)), ritz], axis=1)
    order = np.argsort(ritz, axis=1)
    return np.take_along_axis(ritz, order, axis=1), order, Yr, w[rest].reshape(nb, -1)


def _solve_sweep(roll: RollSolution, sigmas):
    """Batched solve of a sweep at the roll's resolution, in sweep order.

    Returns the checked Bloch numbers ``(n,)``, critical triples ``(n, 3)``
    (ascending), critical unit eigenvectors of ``diag(p) S`` ``(n, N, 3)``
    and remaining eigenvalues ``(n, N - 3)``, each batch solved by
    :func:`_eigensolve`.
    """
    sigmas = _checked_sigmas(sigmas, "sigma")
    n, N = sigmas.size, 2 * roll.profile.grid.n_modes + 1
    vals = np.empty((n, 3))
    vecs = np.empty((n, N, 3))
    others = np.empty((n, N - 3))
    for members, sq, H, S0 in _stacks(roll, sigmas):
        vals[members], order, Yr, others[members] = _eigensolve(H, S0 is not None)
        # Map eigenvectors of H back to eigenvectors of diag(p) S.
        v = sq[:, :, None] * Yr
        v /= np.linalg.norm(v, axis=1)[:, None, :]
        if S0 is not None:
            full = np.zeros((len(H), N, 3))
            full[:, :, 0] = _conserved_vectors(S0)
            full[:, np.arange(N) != N // 2, 1:] = v
            v = full
        vecs[members] = np.take_along_axis(v, order[:, None, :], axis=2)
    return sigmas, vals, vecs, others


def _certified_gaps(others: np.ndarray, delta: float) -> np.ndarray:
    """``-max`` of each row of ``others``; the first gap ``<= delta`` raises.

    The gap is read off the eigenvalues of the eigensolve;
    :func:`_fixed_block_triples` certifies it by inertia instead.
    """
    gaps = -np.max(others, axis=1)
    failed = np.flatnonzero(gaps <= delta)
    if failed.size:
        raise GapViolation(float(gaps[failed[0]]), delta)
    return gaps


def _fixed_block_triples(roll: RollSolution, sigmas, delta: float):
    """Critical triples of a sweep, ascending, without a full eigensolve.

    The start block is the first-order Lyapunov-Schmidt reduction of the
    critical block ``c = _START_MODES``: unit vectors on ``c``, and
    ``-H[i, c] / H[i, i]`` on every other row ``i``.  That diagonal solve of
    the remainder, whose diagonal lies below about -130 (eps <= 0.08), leaves
    the block so close to the critical subspace that one inverse-iteration
    step and Rayleigh-Ritz (:func:`_refine_critical`) give what two steps
    from bare unit vectors gave: on 400 seeded cells (eps 0.005-0.08, M 8 to
    32) and the criterion-5 grid, every certified value lies within 7e-14
    of the eigensolve path's (4e-14 with two steps) and inside its radius,
    with no more fallbacks.  The price is a looser linear radius ``r``
    (below): median 2 times the two-step one, up to about 1e5 times at the
    smallest Bloch numbers, where it reaches 6e-3 at M = 32.  The three
    largest Ritz pairs ``(rho, Y)`` of the symmetric ``H`` are kept.  With
    ``r = ||H Y - Y diag(rho)||_F`` and
    ``tau = min(-delta, min rho - r)``, one stacked Cholesky of
    ``A = c Y Y^T + tau I - H``, ``c = 2 (max rho - tau)``, certifies each
    member by inertia (Sylvester's law).  A member whose ``c`` would
    overflow is not certified.  When ``A`` is positive definite, i.e. its
    factor exists and has a finite diagonal:

    - ``H - c Y Y^T < tau I``, so the fourth eigenvalue of ``H`` lies below
      ``tau <= -delta`` (interlacing for a rank-3 update);
    - ``H`` compressed to the complement of ``Y`` lies below ``min rho``, so
      the ``i``-th largest eigenvalue of ``H`` lies within ``||R||_2 <= r``
      of the ``i``-th largest ``rho`` (Weyl, Parlett ch. 11);
    - with ``max rho + r < -tau``, also checked, those three eigenvalues are
      the ones nearest zero, which the eigensolve path selects.

    These are floating-point certificates, not interval arithmetic.
    Members whose certificate fails, and the ``sigma = 0`` batch of
    :func:`_stacks`, go to :func:`_eigensolve` on their stack as built
    here, and its gap check raises :class:`GapViolation` for the first
    failing sigma in sweep order.
    Returns the triples ``(n, 3)`` and the enclosure radius ``r`` of each
    member ``(n,)``, NaN where the values come from that fallback.
    """
    check_delta(delta)
    sigmas = _checked_sigmas(sigmas, "sigma")
    N = 2 * roll.profile.grid.n_modes + 1
    vals = np.empty((sigmas.size, 3))
    radius = np.full(sigmas.size, np.nan)
    others = np.empty((sigmas.size, N - 3))
    c = N // 2 + _START_MODES
    for members, _, H, S0 in _stacks(roll, sigmas):
        at = np.flatnonzero(members)
        if S0 is None:
            # First-order Lyapunov-Schmidt lift: Y_r = -diag(H_rr)^{-1} H_rc.
            Y = np.ascontiguousarray(H[:, :, c])
            Y /= -np.diagonal(H, axis1=1, axis2=2)[:, :, None]
            Y[:, c] = np.eye(c.size)
            ritz, Y = _refine_critical(H, Y, 1)
            rho, Y = ritz[:, -3:], Y[:, :, -3:]
            r = np.linalg.norm(H @ Y - Y * rho[:, None, :], axis=(1, 2))
            tau = np.minimum(-delta, rho[:, 0] - r)
            # Where c = 2 (max rho - tau) would reach half the largest double
            # (a huge delta), A is formed with c = 0 and left uncertified.
            formable = rho[:, -1] - tau < np.finfo(np.float64).max / 4
            c_shift = 2.0 * np.where(formable, rho[:, -1] - tau, 0.0)
            A = c_shift[:, None, None] * (Y @ Y.swapaxes(1, 2)) - H
            A.reshape(len(A), -1)[:, :: A.shape[1] + 1] += tau[:, None]
            L, _ = _per_member(np.linalg.cholesky, A)
            certified = np.isfinite(np.diagonal(L, axis1=1, axis2=2)).all(axis=1) & (rho[:, -1] + r < -tau)
            certified &= formable
            vals[at] = rho
            radius[at] = np.where(certified, r, np.nan)
            at, H = at[~certified], H[~certified]
        if at.size:
            vals[at], _, _, others[at] = _eigensolve(H, S0 is not None)
    redo = np.isnan(radius)
    if redo.any():
        _certified_gaps(others[redo], delta)
    return vals, radius


def check_delta(delta: float) -> None:
    """Raise :class:`OutOfRange` unless the required gap ``delta`` is positive and finite."""
    if not 0.0 < delta < np.inf:
        raise OutOfRange(f"delta must be positive and finite, got {delta}", param="delta")


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

    Returns a real ``(n_sigma, 3)`` array without a full eigensolve: the
    triples and the gap below ``-delta`` are certified as described in
    :func:`_fixed_block_triples`, each value within its residual radius of
    the eigensolve's.  ``sigma = 0`` and members whose certificate fails are
    solved as in :func:`critical_curves`, bitwise, and raise
    :class:`GapViolation` as it does.  No spectra are built and no curves
    are matched.
    """
    return _fixed_block_triples(roll, sigmas, delta)[0]


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
    if not spectra:
        return np.empty((3, 0))
    return np.column_stack([s.critical_values() for s in spectra])
