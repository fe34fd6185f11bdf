"""Bloch spectra about a roll.

In the shifted basis ``e^{i m xi}`` the operator acts as

    B[m, n] = p_m * [ (eps^2 + sh(p_m)) d_{mn} + g_{m - n} ],
    p_m = k^2 (m + sigma)^2,

where ``sh`` is :func:`conslaw.model.swift_hohenberg` and ``eps^2 + g`` are the
coefficients of :func:`conslaw.model.reaction_derivative`.  The matrix factors as
``B = diag(p) S`` with ``p >= 0`` and ``S`` real symmetric, so ``B`` is
similar to the symmetric ``H = sqrt(p) S sqrt(p)``: every eigenvalue is
real, and is returned as a real array.  A dense solve of ``H`` (norm
``O(M^6)``) is accurate near zero only to ``eps ||H||``, so the three
critical eigenvalues are polished, by inverse iteration or by Davidson
corrections, plus Rayleigh-Ritz.

A sweep is solved in batches: :func:`_stacks` gathers a batch's matrices
into one ``(n_sigma, N, N)`` stack for each LAPACK call.  Stacked calls give
the bits of one call per matrix, so one Bloch number is a sweep of one.  A
member fails when its own call raises (:func:`_per_member`) or its
certificate's Cholesky factor has a non-finite diagonal (NumPy returns NaN
factors for NaN input); a failed solve is redone shifted by ``1e-10 I``.

The eigensolve path (:func:`_eigensolve`, for :func:`critical_modes`) runs
``eigh`` and refines from its vectors.  The other paths start from the
paper's Lyapunov-Schmidt split of ``H``: unit vectors on the critical block
``c`` (Bloch modes ``m = -2..2``), lifted onto the hard-damped rest ``r`` by
``-diag(H_rr)^{-1} H_rc``, and refined with no linear solve: the same lift
applied again at each Ritz value, i.e. Davidson's correction with a diagonal
preconditioner (:func:`_lifted_ritz`; E. R. Davidson, J. Comput. Phys. 17
(1975) 87-94).  :func:`critical_curves` takes its triple from that block and
one ``eigvalsh`` for the rest of the spectrum, and falls back to the
eigensolve path where the two disagree.  :func:`critical_triples` (the
stability classifier, the amplitude-system comparison) takes the same
triple, certifies by inertia that the rest lies below ``-delta``, and solves
uncertified members as :func:`critical_curves` does.  At ``sigma = 0`` the
``m = 0`` row vanishes identically (conservation law); the Bloch numbers
:func:`_stacks` counts as zero form their own batch, deflated of that row and
column, and only the eigensolve path solves it.
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
#: Inverse-iteration steps of the eigensolve path.
_REFINE_STEPS = 2
#: Davidson corrections of each of the four largest lifted Ritz vectors.
#: Four, not three: at sigma = +-1/2 the third and fourth eigenvalues are
#: split by as little as 3e-7.  The fifth is left alone: at the zone edge its
#: mirror mode lies in the rest, so its denominator ``H[i, i] - q`` may
#: vanish, while the top four stay about 130 away from every rest diagonal.
_CORRECTIONS = 2
#: The lifted triple must match ``eigvalsh`` to within its residual plus
#: ``_MATCH_ULPS`` times ``u = eps max|w|``, and needs ``p_0 = (k sigma)^2 >=
#: _P0_MIN u``: below, two eigenvalues of order ``p_0`` lie so far under the
#: rounding ``u`` of ``eigvalsh`` that the match checks nothing of them.
_MATCH_ULPS, _P0_MIN = 16, 1e-4
#: The critical block of the lifted start block (whole, as sigma = 0 never
#: gets one).  A small roll's triple lives at m = -1, 0, 1 (at m = -2, -1, 0
#: near sigma = -1/2); the |m| = 2 neighbours let Rayleigh-Ritz resolve it.
_START_MODES = np.arange(-2, 3)
#: Reorderings of a critical triple in ``itertools.permutations`` order,
#: the ascending order first; the first of tied matching costs wins.
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


def _rayleigh_ritz(H: np.ndarray, Q: np.ndarray):
    """Rayleigh-Ritz on the orthonormal columns of ``Q`` ``(n, N, k)``.

    Returns the ascending Ritz values ``(n, k)``, the eigenvectors ``R`` of
    the symmetrized ``Q^T H Q`` (the Ritz vectors are ``Q R``) and ``H Q``.
    """
    HQ = H @ Q
    G = Q.swapaxes(1, 2) @ HQ
    G = 0.5 * (G + G.swapaxes(1, 2))
    ritz, R = np.linalg.eigh(G)
    return ritz, R, HQ


def _refine_critical(H: np.ndarray, Y: np.ndarray):
    """Polish the near-zero Ritz pairs of a stack of symmetric ``H``.

    ``_REFINE_STEPS`` inverse-iteration steps from eigensolver vectors ``Y``
    ``(n, N, k)``.  The critical eigenvectors decay spectrally, so matvecs
    with the huge-norm ``H`` are accurate in absolute terms and the final
    ``k x k`` Rayleigh-Ritz values come out near machine precision.
    """
    for _ in range(_REFINE_STEPS):
        Y, _ = np.linalg.qr(_solve(H, Y))
    ritz, R, _ = _rayleigh_ritz(H, Y)
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
        # NumPy buffers the overlapping transpose, so each entry is the sum of
        # the original pair and H is exactly symmetric.
        H += H.swapaxes(1, 2)
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
    ritz, Yr = _refine_critical(H, Y)
    rest = np.ones(w.shape, dtype=bool)
    np.put_along_axis(rest, crit, False, axis=1)
    if at_zero:
        ritz = np.concatenate([np.zeros((nb, 1)), ritz], axis=1)
    order = np.argsort(ritz, axis=1)
    return np.take_along_axis(ritz, order, axis=1), order, Yr, w[rest].reshape(nb, -1)


def _lifted_ritz(H: np.ndarray):
    """The three largest Ritz pairs ``(rho, Y)`` and ``r = ||H Y - Y diag(rho)||_F``.

    Rayleigh-Ritz on the lifted start block (the first-order reduction): unit
    vectors on ``c``, ``-H[i, c] / H[i, i]`` on every rest row ``i``.  Each of
    the four largest Ritz vectors ``t`` then gets ``_CORRECTIONS`` Davidson
    corrections ``t_i -= (H t - q t)_i / (H[i, i] - q)`` on the rest rows, ``q``
    its fresh Rayleigh quotient: the lift applied again at each Ritz value,
    with no solve.  A final Rayleigh-Ritz step on the five vectors gives
    ``(rho, Y)``, and its ``H Q`` gives ``H Y``.
    """
    c = H.shape[1] // 2 + _START_MODES
    d = np.diagonal(H, axis1=1, axis2=2)
    Y = np.ascontiguousarray(H[:, :, c])
    Y /= -d[:, :, None]
    Y[:, c] = np.eye(c.size)
    Q, _ = np.linalg.qr(Y)
    _, R, _ = _rayleigh_ritz(H, Q)
    # The Ritz vectors as rows, so that H t is t H (H is symmetric) and each
    # reduction runs along a contiguous last axis, member by member.  T views
    # the four largest; V keeps the fifth beside them.
    V = R.swapaxes(1, 2) @ Q.swapaxes(1, 2)
    T = V[:, 1:]
    for _ in range(_CORRECTIONS):
        res = T @ H
        q = np.sum(T * res, axis=2, keepdims=True) / np.sum(T * T, axis=2, keepdims=True)
        res -= q * T
        res[:, :, c] = 0.0
        # A zero residual is no correction, also where H[i, i] = q (H diagonal).
        T -= np.divide(res, d[:, None, :] - q, out=res, where=res != 0.0)
    Q, _ = np.linalg.qr(np.ascontiguousarray(V.swapaxes(1, 2)))
    ritz, R, HQ = _rayleigh_ritz(H, Q)
    rho, R = ritz[:, -3:], R[:, :, -3:]
    Y = Q @ R
    return rho, Y, np.linalg.norm(HQ @ R - Y * rho[:, None, :], axis=(1, 2))


def _spectrum_batch(H: np.ndarray, sq: np.ndarray, at_zero: bool):
    """Critical triples ``(n, 3)``, ascending, and the rest of one batch's spectra.

    Off zero: one ``eigvalsh``, and the triple of :func:`_lifted_ritz` where
    it matches the three ``eigvalsh`` values nearest zero (see ``_P0_MIN``;
    ``sq`` is ``sqrt(p)``).  Other members, and ``sigma = 0``, go to
    :func:`_eigensolve`.
    """
    if at_zero:
        vals, _, _, others = _eigensolve(H, True)
        return vals, others
    w = np.linalg.eigvalsh(H)
    rho, _, r = _lifted_ritz(H)
    # Ordered by |w| as _eigensolve orders them, so the first three are its choice.
    w = np.take_along_axis(w, np.argsort(np.abs(w), axis=1), axis=1)
    near, others = np.sort(w[:, :3], axis=1), np.sort(w[:, 3:], axis=1)
    u = np.finfo(np.float64).eps * np.abs(w[:, -1])
    match = np.all(np.abs(rho - near) <= (r + _MATCH_ULPS * u)[:, None], axis=1)
    miss = np.flatnonzero(~(match & (sq[:, sq.shape[1] // 2] ** 2 >= _P0_MIN * u)))
    if miss.size:
        rho[miss], _, _, others[miss] = _eigensolve(H[miss], False)
    return rho, others


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
    """``-max`` of each row of ``others``; the first gap ``<= delta`` raises."""
    gaps = -np.max(others, axis=1)
    failed = np.flatnonzero(gaps <= delta)
    if failed.size:
        raise GapViolation(float(gaps[failed[0]]), delta)
    return gaps


def _fixed_block_triples(roll: RollSolution, sigmas, delta: float):
    """Critical triples of a sweep, ascending, without a full eigensolve.

    :func:`_lifted_ritz`, the triple :func:`critical_curves` matches against
    ``eigvalsh``, gives ``(rho, Y)`` and the radius ``r``.
    With ``tau = min(-delta, min rho - r)``, one stacked Cholesky of
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
      the ones nearest zero, which the other paths select.

    These are floating-point certificates, not interval arithmetic.  Members
    whose certificate fails, and the ``sigma = 0`` batch, go to
    :func:`_spectrum_batch`, and the first of their gaps ``<= delta`` in
    sweep order raises :class:`GapViolation`.  Returns the triples ``(n, 3)``
    and the radius ``r`` of each member ``(n,)``, NaN where uncertified.
    """
    check_delta(delta)
    sigmas = _checked_sigmas(sigmas, "sigma")
    N = 2 * roll.profile.grid.n_modes + 1
    vals, others = np.empty((sigmas.size, 3)), np.empty((sigmas.size, N - 3))
    radius = np.full(sigmas.size, np.nan)
    for members, sq, H, S0 in _stacks(roll, sigmas):
        at = np.flatnonzero(members)
        if S0 is None:
            rho, Y, r = _lifted_ritz(H)
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
            at, sq, H = at[~certified], sq[~certified], H[~certified]
        if at.size:
            vals[at], others[at] = _spectrum_batch(H, sq, S0 is not None)
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

    Costs within 8 ulp of the least tie, so that an exact tie in real
    arithmetic (two new values both below the two old ones they may
    continue) is not decided by the rounding of the cost sums.
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
            perm = _PERMUTATIONS[np.argmax(cost <= cost.min() + 8 * np.spacing(cost.min()))]
        crit = tuple(int(j) for j in critical[i][perm])
        spectra.append(BlochSpectrum(float(sigma), eigenvalues[i], crit, float(gaps[i])))
    return spectra


def critical_modes(roll: RollSolution, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Critical eigenvalues (ascending) and real eigenvectors in the shifted basis.

    Column ``j`` of the vector array holds coefficients ``V_m`` of the Bloch
    eigenfunction ``e^{i sigma xi} sum_m V_m e^{i m xi}``.  No gap is certified.
    """
    _, vals, vecs, _ = _solve_sweep(roll, [sigma])
    return vals[0], vecs[0]


def critical_triples(roll: RollSolution, sigmas, delta: float = 1.0) -> np.ndarray:
    """Critical eigenvalues over a sigma sweep, ascending per sigma, as ``(n_sigma, 3)``.

    The triples and the gap below ``-delta`` are certified as described in
    :func:`_fixed_block_triples`, each value within its residual radius.
    ``sigma = 0`` and members whose certificate fails are solved as in
    :func:`critical_curves`, bitwise, and raise :class:`GapViolation` as it
    does.  No spectrum is built and no curves are matched.
    """
    return _fixed_block_triples(roll, sigmas, delta)[0]


def critical_curves(roll: RollSolution, sigmas, delta: float = 1.0) -> list[BlochSpectrum]:
    """Spectra over a sigma sweep with the critical triple matched into curves.

    Off ``sigma = 0`` no eigenvectors are formed (:func:`_spectrum_batch`).
    Matching is greedy nearest-continuation: at each sigma the permutation of
    the triple minimizing the total distance to the previous triple is
    chosen, so the ``critical`` index triples trace three continuous curves.
    Raises :class:`GapViolation`, for the first offending sigma in sweep
    order, when the rest of the spectrum does not stay below ``-delta``.
    """
    check_delta(delta)
    sigmas = _checked_sigmas(sigmas, "sigma")
    N = 2 * roll.profile.grid.n_modes + 1
    vals, others = np.empty((sigmas.size, 3)), np.empty((sigmas.size, N - 3))
    for members, sq, H, S0 in _stacks(roll, sigmas):
        vals[members], others[members] = _spectrum_batch(H, sq, S0 is not None)
    return _spectra(sigmas, vals, others, _certified_gaps(others, delta))


def critical_curve_array(spectra: list[BlochSpectrum]) -> np.ndarray:
    """Stack matched critical curves as a real (3, n_sigma) array."""
    if not spectra:
        return np.empty((3, 0))
    return np.column_stack([s.critical_values() for s in spectra])
