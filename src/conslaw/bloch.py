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
``eigh`` and refines from its vectors.  The certified engine
(:func:`_certified_sweep`, behind :func:`critical_curves` and
:func:`critical_triples`) starts from the paper's Lyapunov-Schmidt split of
``H``: unit vectors on the critical block ``c`` (Bloch modes ``m = -2..2``),
lifted onto the hard-damped rest ``r`` by ``-diag(H_rr)^{-1} H_rc``, and
refined with no linear solve: the same lift applied again at each Ritz
value, i.e. Davidson's correction with a diagonal preconditioner
(:func:`_lifted_ritz`; E. R. Davidson, J. Comput. Phys. 17 (1975) 87-94).
That gives the four largest Ritz pairs and one radius over them; a Cholesky
factor certifies by inertia that the fifth eigenvalue lies below them, so
the triple and the gap (the top of the rest, ``-rho_4``) each lie within
the radius.  No full spectrum is solved for a certified member until its
``eigenvalues`` are read; then one ``eigvalsh`` of its rebuilt ``H`` gives
the rest, to ``eps max|w|``.  Uncertified members are solved whole, with
one ``eigvalsh`` and the lifted triple where the two agree, else by the
eigensolve path.  At ``sigma = 0`` the ``m = 0`` row vanishes identically
(conservation law); the Bloch numbers :func:`_stacks` counts as zero form
their own batch, deflated of that row and column, and only the eigensolve
path solves it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
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
#: The radius of the lifted Ritz values is floored at ``_ROUNDING_ULPS eps
#: ||G||_2`` (``G = Q^T H Q``, so ``||G||_2`` is the largest ``|theta|``), the
#: rounding of the values themselves.  A backward-stable 5 x 5 eigensolve
#: moves each by a small multiple of ``eps ||G||_2`` (LAPACK's own error
#: estimate takes the multiple as 1; Users' Guide, section 4.7); 8 leaves
#: room for the rounding of ``G``'s entries and its symmetrization.  Without
#: the floor a residual of 7.7e-16 enclosed a value that ``eigh`` put 8.9e-16 away.
_ROUNDING_ULPS = 8
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
    """Real spectrum at one Bloch number with the critical triple flagged.

    ``critical_values()`` are the three eigenvalues nearest zero in curve
    order (ascending at a sweep's first Bloch number).  ``gap`` is
    ``-lambda_4``, minus the largest eigenvalue of the rest: the certified
    ``-rho_4`` of :func:`_certified_sweep`, within its radius, or where the
    certificate fails and at ``sigma = 0``, ``-max`` of the rest solved
    whole.  ``eigenvalues`` (sorted descending) and ``critical`` (the indices
    of the triple in them) are computed on first read: the triple beside
    the rest of ``eigvalsh`` of this member's ``H``, rebuilt from the roll
    (accurate to ``eps max|w|``), or beside the rest already solved.  No
    matrix is kept.
    """

    sigma: float
    gap: float
    _triple: np.ndarray = field(repr=False)
    _perm: np.ndarray = field(repr=False)
    _rest: np.ndarray | RollSolution = field(repr=False)

    def critical_values(self) -> np.ndarray:
        return self._triple[self._perm]

    @cached_property
    def _full(self) -> tuple[np.ndarray, tuple[int, int, int]]:
        rest = self._rest
        if isinstance(rest, RollSolution):
            ((_, _, H, _),) = _stacks(rest, np.array([self.sigma]))
            rest = _split(np.linalg.eigvalsh(H))[1][0]
        allvals = np.concatenate([self._triple, rest])
        order = np.argsort(-allvals, kind="stable")
        pos = np.empty_like(order)
        pos[order] = np.arange(order.size)
        return allvals[order], tuple(int(j) for j in pos[self._perm])

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._full[0]

    @property
    def critical(self) -> tuple[int, int, int]:
        return self._full[1]


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
    """The five Ritz values ``theta`` ``(n, 5)``, ascending, the vectors ``Y``
    ``(n, N, 4)`` of the four largest, ``rho = theta[:, 1:]``, and one radius
    ``r = ||H Y - Y diag(rho)||_F + _ROUNDING_ULPS eps ||G||_2`` over them.

    Rayleigh-Ritz on the lifted start block (the first-order reduction): unit
    vectors on ``c``, ``-H[i, c] / H[i, i]`` on every rest row ``i``.  Each of
    the four largest Ritz vectors ``t`` then gets ``_CORRECTIONS`` Davidson
    corrections ``t_i -= (H t - q t)_i / (H[i, i] - q)`` on the rest rows, ``q``
    its fresh Rayleigh quotient: the lift applied again at each Ritz value,
    with no solve.  A final Rayleigh-Ritz step on the five vectors, with
    ``G = Q^T H Q``, gives ``(theta, Y)``, and its ``H Q`` gives ``H Y``.  The
    uncorrected fifth value lies at or below the fifth eigenvalue (Cauchy
    interlacing); it is returned only as an estimate of where that lies.
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
    theta, R, HQ = _rayleigh_ritz(H, Q)
    rho, R = theta[:, 1:], R[:, :, 1:]
    Y = Q @ R
    r = np.linalg.norm(HQ @ R - Y * rho[:, None, :], axis=(1, 2))
    return theta, Y, r + _ROUNDING_ULPS * np.finfo(np.float64).eps * np.max(np.abs(theta), axis=1)


def _split(w: np.ndarray):
    """The three of each row of ``w`` nearest zero, the rest, each ascending, and ``max|w|``.

    The order by ``|w|`` is :func:`_eigensolve`'s, so the three are its choice.
    """
    w = np.take_along_axis(w, np.argsort(np.abs(w), axis=1), axis=1)
    return np.sort(w[:, :3], axis=1), np.sort(w[:, 3:], axis=1), np.abs(w[:, -1])


def _spectrum_batch(H: np.ndarray, sq: np.ndarray, rho: np.ndarray, r: np.ndarray):
    """Critical triples ``(n, 3)``, ascending, and the rest of uncertified spectra off zero.

    One ``eigvalsh``, and the lifted triple ``rho`` (radius ``r``) where it
    matches the three ``eigvalsh`` values nearest zero (see ``_P0_MIN``;
    ``sq`` is ``sqrt(p)``).  Other members go to :func:`_eigensolve`.
    """
    near, others, wmax = _split(np.linalg.eigvalsh(H))
    u = np.finfo(np.float64).eps * wmax
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


def _certified_sweep(roll: RollSolution, sigmas, delta: float):
    """Critical triples, gaps and their radius over a sweep, with no full eigensolve.

    :func:`_lifted_ritz` gives the four largest Ritz pairs ``(rho, Y)``, the
    fifth Ritz value ``theta_5`` and the radius ``r``.  With ``tau`` halfway
    between ``rho_4 - r`` and ``theta_5``, one stacked Cholesky of
    ``A = c Y Y^T + tau I - H``, ``c = 2 (max rho - tau)``, certifies each
    member by inertia (Sylvester's law).  When ``A`` is positive definite,
    i.e. its factor exists and has a finite diagonal:

    - ``H - c Y Y^T < tau I``, so the fifth eigenvalue of ``H`` lies below
      ``tau`` (interlacing for a rank-4 update);
    - with ``tau < rho_4 - r``, also checked, the four eigenvalues within
      ``||R||_2 <= r`` of the ``rho`` (Parlett ch. 11) are the four largest,
      and the ``i``-th largest lies within ``r`` of the ``i``-th largest ``rho``;
    - with ``max rho + r < -(rho_4 + r)``, also checked, the top three are
      the eigenvalues nearest zero, which the other paths select.

    A certified member's triple is the top three ``rho``, and its gap is
    ``-rho_4``, both within ``r``; ``tau``, and so the certificate, does not
    depend on ``delta``.  These are floating-point certificates, not
    interval arithmetic.  Members whose certificate fails, and the
    ``sigma = 0`` batch, are solved whole (:func:`_spectrum_batch`,
    :func:`_eigensolve`), with the gap ``-max`` of their rest.

    A member passes the gap check when ``lambda_4 < -delta`` holds: certified,
    when ``rho_4 + r < -delta``; solved whole, when its gap exceeds ``delta``.
    The first member in sweep order that does not pass raises
    :class:`GapViolation` with its gap.  Returns the triples ``(n, 3)``, the
    gaps ``(n,)``, the radius ``r`` ``(n,)`` (NaN where uncertified) and the
    rest ``(n, N - 3)`` (NaN where certified).
    """
    check_delta(delta)
    sigmas = _checked_sigmas(sigmas, "sigma")
    n, N = sigmas.size, 2 * roll.profile.grid.n_modes + 1
    vals, gaps = np.empty((n, 3)), np.empty(n)
    radius, others = np.full(n, np.nan), np.full((n, N - 3), np.nan)
    for members, sq, H, S0 in _stacks(roll, sigmas):
        at = np.flatnonzero(members)
        if S0 is not None:
            vals[at], _, _, others[at] = _eigensolve(H, True)
            continue
        theta, Y, r = _lifted_ritz(H)
        rho4, top = theta[:, 1], theta[:, -1]
        tau = 0.5 * (rho4 - r + theta[:, 0])
        # A is formed in place of H (-(H - c Y Y^T) rounds as c Y Y^T - H), so
        # the batch holds two matrix stacks at a time, A and its factor, no
        # more than _stacks needs to symmetrize H.  Uncertified members get
        # their H rebuilt, bitwise.
        cYY = Y @ Y.swapaxes(1, 2)
        cYY *= (2.0 * (top - tau))[:, None, None]
        H -= cYY
        del cYY
        A = np.negative(H, out=H)
        A.reshape(len(A), -1)[:, :: A.shape[1] + 1] += tau[:, None]
        L, _ = _per_member(np.linalg.cholesky, A)
        certified = np.isfinite(np.diagonal(L, axis1=1, axis2=2)).all(axis=1)
        certified &= (tau < rho4 - r) & (top + r < -(rho4 + r))
        vals[at], gaps[at], radius[at] = theta[:, 2:], -rho4, np.where(certified, r, np.nan)
        miss = ~certified
        if miss.any():
            ((_, sq, H, _),) = _stacks(roll, sigmas[at[miss]])
            vals[at[miss]], others[at[miss]] = _spectrum_batch(H, sq, theta[miss, 2:], r[miss])
    solved = np.isnan(radius)
    gaps[solved] = -np.max(others[solved], axis=1)
    failed = np.flatnonzero(~np.where(solved, gaps > delta, gaps - radius > delta))
    if failed.size:
        raise GapViolation(float(gaps[failed[0]]), delta)
    return vals, gaps, radius, others


def check_delta(delta: float) -> None:
    """Raise :class:`OutOfRange` unless the required gap ``delta`` is positive and finite."""
    if not 0.0 < delta < np.inf:
        raise OutOfRange(f"delta must be positive and finite, got {delta}", param="delta")


def _spectra(sigmas, vals, rests, gaps) -> list[BlochSpectrum]:
    """Per-sigma spectra, triples matched as :func:`critical_curves` describes.

    ``rests`` holds each member's rest of the spectrum, or the roll to solve
    it from on first read.  Costs within 8 ulp of the least tie, so that an
    exact tie in real arithmetic (two new values both below the two old ones
    they may continue) is not decided by the rounding of the cost sums.
    """
    spectra: list[BlochSpectrum] = []
    perm = _PERMUTATIONS[0]
    for i, (sigma, rest) in enumerate(zip(sigmas, rests)):
        if i > 0:
            cost = np.abs(vals[i][_PERMUTATIONS] - vals[i - 1][perm]).sum(axis=1)
            perm = _PERMUTATIONS[np.argmax(cost <= cost.min() + 8 * np.spacing(cost.min()))]
        spectra.append(BlochSpectrum(float(sigma), float(gaps[i]), vals[i], perm, rest))
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

    The triples of :func:`critical_curves`, bitwise, from the same engine
    (:func:`_certified_sweep`), which raises :class:`GapViolation` as
    :func:`critical_curves` does.  No spectrum is built and no curves are
    matched.
    """
    return _certified_sweep(roll, sigmas, delta)[0]


def critical_curves(roll: RollSolution, sigmas, delta: float = 1.0) -> list[BlochSpectrum]:
    """Spectra over a sigma sweep with the critical triple matched into curves.

    The triples and gaps come from :func:`_certified_sweep`: off ``sigma = 0``
    no eigenvectors are formed, and a certified member runs no full
    eigensolve until its ``eigenvalues`` are read.  Matching is greedy
    nearest-continuation: at each sigma the permutation of the triple
    minimizing the total distance to the previous triple is chosen, so the
    ``critical`` index triples trace three continuous curves.  Raises
    :class:`GapViolation`, for the first offending sigma in sweep order,
    unless ``lambda_4 < -delta`` holds at every sigma.
    """
    vals, gaps, radius, others = _certified_sweep(roll, sigmas, delta)
    rests = [roll if np.isfinite(r) else rest for r, rest in zip(radius, others)]
    return _spectra(_checked_sigmas(sigmas, "sigma"), vals, rests, gaps)


def critical_curve_array(spectra: list[BlochSpectrum]) -> np.ndarray:
    """Stack matched critical curves as a real (3, n_sigma) array."""
    if not spectra:
        return np.empty((3, 0))
    return np.column_stack([s.critical_values() for s in spectra])
