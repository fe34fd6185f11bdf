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
critical eigenvalues come from a small Rayleigh-Ritz problem instead.

A sweep is solved as one batch: :func:`_stacks` gathers its matrices into
one ``(n_sigma, N, N)`` stack for each LAPACK call.  Stacked calls give the
bits of one call per matrix (:func:`_per_member`), so one Bloch number is a
sweep of one.

One engine, :func:`_lifted_sweep`, solves every Bloch number.  It starts
from the paper's Lyapunov-Schmidt split of ``H``: unit vectors on the
critical block ``c`` (Bloch modes ``m = -2..2``), lifted onto the
hard-damped rest ``r`` by ``-diag(H_rr)^{-1} H_rc``, and refined with no
linear solve: the same lift applied again at each Ritz value, i.e.
Davidson's correction with a diagonal preconditioner (:func:`_lifted_ritz`;
E. R. Davidson, J. Comput. Phys. 17 (1975) 87-94).  A Cholesky factor
certifies by inertia that the triple and the gap lie within their radii;
one ``eigvalsh`` of a member's rebuilt ``H`` gives the rest of its
spectrum, for a certified member only when its ``eigenvalues`` are read.

At ``sigma = 0`` the ``m = 0`` row and column of ``H`` vanish identically
(conservation law), so the conserved value is exactly zero and is set, not
computed.  No ``sigma = 0`` member is certified: the fourth and fifth
eigenvalues there are the cosine and sine modes of ``m = +-2``, split by
as little as 3e-11, inside the radius the certificate would need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import GapViolation, InvariantViolation, OutOfRange
from .model import reaction_derivative, swift_hohenberg
from .rolls import RollSolution

__all__ = [
    "BlochSpectrum",
    "critical_modes",
    "critical_triples",
    "critical_curves",
    "critical_curve_array",
]

#: Bloch numbers nearer zero than this are solved at exactly zero.
_SIGMA_ZERO_TOL = 1e-13
#: Davidson corrections of each of the four largest lifted Ritz vectors.
#: Four, not three: at sigma = +-1/2 the third and fourth eigenvalues are
#: split by as little as 3e-7.  The fifth is left alone: at the zone edge its
#: mirror mode lies in the rest, so its denominator ``H[i, i] - q`` may
#: vanish, while the top four stay about 130 away from every rest diagonal.
_CORRECTIONS = 2
#: The radii of the lifted Ritz values are floored at ``_ROUNDING_ULPS eps
#: ||G||_2`` (``G = Q^T H Q``, so ``||G||_2`` is the largest ``|theta|``), the
#: rounding of the values themselves.  A backward-stable 5 x 5 eigensolve
#: moves each by a small multiple of ``eps ||G||_2`` (LAPACK's own error
#: estimate takes the multiple as 1; Users' Guide, section 4.7); 8 leaves
#: room for the rounding of ``G``'s entries and its symmetrization.
_ROUNDING_ULPS = 8
#: An uncertified member's lifted triple must match ``eigvalsh`` to within
#: its radius plus ``_MATCH_ULPS`` times ``u = eps max|w|``.
_MATCH_ULPS = 16
#: The critical block of the lifted start block.  A small roll's triple
#: lives at m = -1, 0, 1 (at m = -2, -1, 0 near sigma = -1/2); the |m| = 2
#: neighbours let Rayleigh-Ritz resolve it.
_START_MODES = np.arange(-2, 3)


@dataclass(frozen=True)
class BlochSpectrum:
    """Real spectrum at one Bloch number with the critical triple flagged.

    ``critical_values()`` returns a copy of the three eigenvalues nearest
    zero, ascending.  ``gap`` is ``-lambda_4``, minus the largest eigenvalue
    of the rest: the certified ``-rho_4`` of :func:`_lifted_sweep`, within
    its radius, or where the certificate fails, ``-max`` of the rest solved
    whole.  ``eigenvalues`` (sorted descending) and ``critical`` (the indices
    of the triple in them) are computed on first read: the triple beside the
    rest of ``eigvalsh`` of this member's ``H``, rebuilt from the roll
    (accurate to ``eps max|w|``), or beside the rest already solved.  No
    matrix is kept.
    """

    sigma: float
    gap: float
    _triple: np.ndarray = field(repr=False)
    _rest: np.ndarray | RollSolution = field(repr=False)

    def critical_values(self) -> np.ndarray:
        return self._triple.copy()

    @cached_property
    def _full(self) -> tuple[np.ndarray, tuple[int, int, int]]:
        rest = self._rest
        if isinstance(rest, RollSolution):
            _, H = _stacks(rest, np.array([self.sigma]))
            rest = _split(np.linalg.eigvalsh(H))[1][0]
        allvals = np.concatenate([self._triple, rest])
        order = np.argsort(-allvals, kind="stable")
        pos = np.empty_like(order)
        pos[order] = np.arange(order.size)
        return allvals[order], tuple(int(j) for j in pos[:3])

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


def _per_member(f, A: np.ndarray) -> np.ndarray:
    """``f`` on a stack, member by member only when the stacked call raises.

    A stacked LAPACK call fails as a whole when one member fails, and rounds
    each member as a call on that member alone does.  Returns the result,
    shaped as ``A``, NaN on the members whose own call raised ``LinAlgError``.
    """
    try:
        return f(A)
    except np.linalg.LinAlgError:
        out = np.full(A.shape, np.nan)
    for i, a in enumerate(A):
        try:
            out[i] = f(a)
        except np.linalg.LinAlgError:
            pass
    return out


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


def _stacks(roll: RollSolution, sigmas: np.ndarray):
    """``sq = sqrt(p)`` ``(n, N)`` and the symmetric ``H = diag(sq) S diag(sq)`` of a checked sweep.

    Bloch numbers within ``_SIGMA_ZERO_TOL`` of zero are built at exactly
    zero, where ``sq`` and so the ``m = 0`` row and column of ``H`` vanish.
    """
    df = reaction_derivative(roll.profile.coeffs, roll.params.s, roll.params.eps)
    sigmas = np.where(np.abs(sigmas) < _SIGMA_ZERO_TOL, 0.0, sigmas)
    p, S = _symmetric_factors(df, roll.params.k**2, sigmas)
    sq = np.sqrt(p)
    H = S
    H *= sq[:, :, None]
    H *= sq[:, None, :]
    # NumPy buffers the overlapping transpose, so each entry is the sum of
    # the original pair and H is exactly symmetric.
    H += H.swapaxes(1, 2)
    H *= 0.5
    return sq, H


def _conserved_vector(roll: RollSolution) -> np.ndarray:
    """Unit right eigenvector ``(N,)`` of the exact zero at ``sigma = 0``: the even ``v`` with ``S0 v = e_0``.

    ``S0`` commutes with ``m -> -m`` and its kernel, the translation mode
    ``m c_m``, is odd, so folded onto the even vectors (``v_{-m} = v_m``,
    unknowns ``v_0 .. v_M``) it is non-singular for ``eps > 0``.  At the
    threshold state it is exactly singular, and the solve is shifted by
    ``1e-10 I``.
    """
    df = reaction_derivative(roll.profile.coeffs, roll.params.s, roll.params.eps)
    S0 = _symmetric_factors(df, roll.params.k**2, np.zeros(1))[1][0]
    M = S0.shape[0] // 2
    E = S0[M:, M:].copy()
    E[:, 1:] += S0[M:, M - 1 :: -1]
    e0 = np.eye(M + 1)[0]
    try:
        a = np.linalg.solve(E, e0)
    except np.linalg.LinAlgError:
        a = np.linalg.solve(E + 1e-10 * np.eye(M + 1), e0)
    v = np.concatenate([a[:0:-1], a])
    return v / np.linalg.norm(v)


def _lifted_ritz(H: np.ndarray):
    """The five Ritz values ``theta`` ``(n, 5)``, ascending, the vectors ``Y``
    ``(n, N, 4)`` of the four largest, ``rho = theta[:, 1:]``, and two radii:
    ``r3``, over the top three pairs, and ``r4``, over all four.

    Rayleigh-Ritz on the lifted start block (the first-order reduction): unit
    vectors on ``c``, ``-H[i, c] / H[i, i]`` on every rest row ``i``.  Each of
    the four largest Ritz vectors ``t`` then gets ``_CORRECTIONS`` Davidson
    corrections ``t_i -= (H t - q t)_i / (H[i, i] - q)`` on the rest rows, ``q``
    its fresh Rayleigh quotient: the lift applied again at each Ritz value,
    with no solve.  A final Rayleigh-Ritz step on the five vectors, with
    ``G = Q^T H Q``, gives ``(theta, Y)``, and its ``H Q`` gives ``H Y``.  Each
    radius is the Frobenius norm of its columns of ``H Y - Y diag(rho)`` plus
    ``_ROUNDING_ULPS eps ||G||_2``.  The uncorrected fifth value lies at or
    below the fifth eigenvalue (Cauchy interlacing); it is returned only as
    an estimate of where that lies.
    """
    N = H.shape[1]
    c = N // 2 + _START_MODES
    rest = np.ones(N, dtype=bool)
    rest[c] = False
    d = np.diagonal(H, axis1=1, axis2=2)
    # Only rest rows are divided: at sigma = 0 the m = 0 row of H and its
    # diagonal are exactly zero.
    Y = np.ascontiguousarray(H[:, :, c])
    Y[:, rest] /= -d[:, rest, None]
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
    resid = HQ @ R - Y * rho[:, None, :]
    floor = _ROUNDING_ULPS * np.finfo(np.float64).eps * np.max(np.abs(theta), axis=1)
    r3, r4 = (np.linalg.norm(block, axis=(1, 2)) + floor for block in (resid[:, :, 1:], resid))
    return theta, Y, r3, r4


def _split(w: np.ndarray):
    """The three of each row of ``w`` nearest zero, the rest, each ascending, and ``max|w|``."""
    w = np.take_along_axis(w, np.argsort(np.abs(w), axis=1), axis=1)
    return np.sort(w[:, :3], axis=1), np.sort(w[:, 3:], axis=1), np.abs(w[:, -1])


def _lifted_sweep(roll: RollSolution, sigmas):
    """Critical triples, their vectors, gaps and radii over a sweep, with no full eigensolve.

    :func:`_lifted_ritz` gives the four largest Ritz pairs ``(rho, Y)``, the
    fifth Ritz value ``theta_5`` and the radii ``r3`` and ``r4``.  With ``tau``
    halfway between ``rho_4 - r4`` and ``theta_5``, one stacked Cholesky of
    ``A = c Y Y^T + tau I - H``, ``c = 2 (max rho - tau)``, certifies each
    member by inertia (Sylvester's law).  When ``A`` is positive definite,
    i.e. its factor exists and has a finite diagonal:

    - ``H - c Y Y^T < tau I``, so the fifth eigenvalue of ``H`` lies below
      ``tau`` (interlacing for a rank-4 update);
    - with ``tau < rho_4 - r4``, also checked, the four eigenvalues within
      ``||R||_2 <= r4`` of the ``rho`` (Parlett ch. 11) are the four largest,
      and the ``i``-th largest lies within ``r4`` of the ``i``-th largest ``rho``;
    - with ``max rho + r4 < -(rho_4 + r4)``, also checked, the top three are
      the eigenvalues nearest zero.

    A certified member's triple is the top three ``rho`` and its gap is
    ``-rho_4``, within ``r4``.  The three eigenvalues within ``r3`` of the
    triple (Kahan) lie above ``rho_4 + r4``, so are the top three, once the
    least of the triple less ``r3`` does; the triple's radius is then ``r3``,
    else ``r4``.  These are floating-point certificates, not interval
    arithmetic.  An uncertified member keeps its lifted triple when it lies
    within ``r3 + _MATCH_ULPS eps max|w|`` of the three values nearest zero
    of one ``eigvalsh``, which gives its rest and its gap, ``-max`` of the
    rest; otherwise :class:`InvariantViolation` is raised.

    At ``sigma = 0`` the conserved ``e_0`` (``H e_0 = 0``) may be rotated with
    the translation mode, whose value is as near zero, so it is set, with the
    value ``0.0``, first among equal values.  ``H`` commutes with ``m -> -m``:
    beside it are the even and the odd part of largest norm of the three
    Ritz vectors less their ``m = 0`` entries, with their Rayleigh quotients.

    Returns the triples ``(n, 3)`` (ascending), their radius ``(n,)``, the
    gaps ``(n,)``, their radius ``(n,)`` (both NaN where uncertified), the rest
    ``(n, N - 3)`` (NaN where certified) and the triples' Ritz vectors of
    ``H`` ``(n, N, 3)``.
    """
    sigmas = _checked_sigmas(sigmas, "sigma")
    sq, H = _stacks(roll, sigmas)
    n, N = sq.shape
    zero = sq[:, N // 2] == 0.0
    theta, Y, r3, r4 = _lifted_ritz(H)
    rho4, top = theta[:, 1], theta[:, -1]
    vals, vecs = theta[:, 2:].copy(), Y[:, :, 1:].copy()
    for i in np.flatnonzero(zero):
        y = vecs[i]
        y[N // 2] = 0.0
        parts = [np.eye(N)[N // 2]]
        for part in (y + y[::-1], y - y[::-1]):
            parts.append(part[:, np.argmax(np.linalg.norm(part, axis=0))])
        y = np.column_stack(parts)
        y /= np.linalg.norm(y, axis=0)
        vals[i] = np.sum(y * (H[i] @ y), axis=0)
        vals[i, 0] = 0.0
        order = np.argsort(vals[i], kind="stable")
        vals[i], vecs[i] = vals[i, order], y[:, order]
    tau = 0.5 * (rho4 - r4 + theta[:, 0])
    # A is formed in place of H (-(H - c Y Y^T) rounds as c Y Y^T - H), so
    # the batch holds two matrix stacks at a time, A and its factor, no
    # more than _stacks needs to symmetrize H.  Uncertified members get
    # their H rebuilt, bitwise.
    cYY = Y @ Y.swapaxes(1, 2)
    cYY *= (2.0 * (top - tau))[:, None, None]
    H -= cYY
    del cYY
    A = np.negative(H, out=H)
    A.reshape(n, N * N)[:, :: N + 1] += tau[:, None]
    # sigma = 0 is never certified; an identity there keeps the stacked call whole.
    A[zero] = np.eye(N)
    L = _per_member(np.linalg.cholesky, A)
    del A, H
    certified = np.isfinite(np.diagonal(L, axis1=1, axis2=2)).all(axis=1)
    certified &= (tau < rho4 - r4) & (top + r4 < -(rho4 + r4)) & ~zero
    radius = np.where(certified, np.where(vals[:, 0] - r3 > rho4 + r4, r3, r4), np.nan)
    gaps, others = -rho4, np.full((n, N - 3), np.nan)
    miss = np.flatnonzero(~certified)
    if miss.size:
        near, others[miss], wmax = _split(np.linalg.eigvalsh(_stacks(roll, sigmas[miss])[1]))
        tol = r3[miss] + _MATCH_ULPS * np.finfo(np.float64).eps * wmax
        bad = miss[~(np.abs(vals[miss] - near).max(axis=1) <= tol)]
        if bad.size:
            raise InvariantViolation(f"lifted triple {vals[bad[0]]} at sigma = {sigmas[bad[0]]} misses eigvalsh")
        gaps[miss] = -np.max(others[miss], axis=1)
    return vals, radius, gaps, np.where(certified, r4, np.nan), others, vecs


def check_delta(delta: float) -> None:
    """Raise :class:`OutOfRange` unless the required gap ``delta`` is positive and finite."""
    if not 0.0 < delta < np.inf:
        raise OutOfRange(f"delta must be positive and finite, got {delta}", param="delta")


def _certified_sweep(roll: RollSolution, sigmas, delta: float):
    """:func:`_lifted_sweep`, checked for ``lambda_4 < -delta``.

    A certified member passes when ``rho_4 + r4 < -delta``, an uncertified
    one when its gap exceeds ``delta``.  The first member in sweep order
    that does not pass raises :class:`GapViolation` with its gap.
    """
    check_delta(delta)
    sweep = _lifted_sweep(roll, sigmas)
    _, _, gaps, gap_radius, _, _ = sweep
    solved = np.isnan(gap_radius)
    failed = np.flatnonzero(~np.where(solved, gaps > delta, gaps - gap_radius > delta))
    if failed.size:
        raise GapViolation(float(gaps[failed[0]]), delta)
    return sweep


def critical_modes(roll: RollSolution, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Critical eigenvalues (ascending) and real unit eigenvectors in the shifted basis.

    Column ``j`` of the vector array holds coefficients ``V_m`` of the Bloch
    eigenfunction ``e^{i sigma xi} sum_m V_m e^{i m xi}``.  The triple is
    :func:`critical_triples`'.  Each vector is ``sqrt(p)`` times its lifted
    Ritz vector ``y`` after one more Davidson correction on the rest rows,
    but for the conserved mode at ``sigma = 0``, which ``sqrt(p)`` maps to
    zero (:func:`_conserved_vector`).  No gap is certified.
    """
    sigmas = _checked_sigmas([sigma], "sigma")
    (vals,), _, _, _, _, (y,) = _lifted_sweep(roll, sigmas)
    (sq,), (H,) = _stacks(roll, sigmas)
    # The orthonormalized y carries a rounding of eps on every entry, which
    # the rest diagonal of diag(p) S, of order M^6, would turn into residuals
    # of up to 4.4e-6 at M = 32; the correction rebuilds the rest entries.
    rest = np.ones(sq.size, dtype=bool)
    rest[sq.size // 2 + _START_MODES] = False
    y[rest] -= (H[rest] @ y - y[rest] * vals) / (np.diagonal(H)[rest, None] - vals)
    vecs = sq[:, None] * y
    norms = np.linalg.norm(vecs, axis=0)
    for j in np.flatnonzero(norms == 0.0):
        vecs[:, j], norms[j] = _conserved_vector(roll), 1.0
    return vals, vecs / norms


def critical_triples(roll: RollSolution, sigmas, delta: float = 1.0) -> np.ndarray:
    """Critical eigenvalues over a sigma sweep, ascending per sigma, as ``(n_sigma, 3)``.

    The triples of :func:`critical_curves`, bitwise, from the same engine
    (:func:`_certified_sweep`), which raises :class:`GapViolation` as
    :func:`critical_curves` does.  No spectrum is built.
    """
    return _certified_sweep(roll, sigmas, delta)[0]


def critical_curves(roll: RollSolution, sigmas, delta: float = 1.0) -> list[BlochSpectrum]:
    """Spectra over a sigma sweep, each with its ascending critical triple.

    The triples and gaps come from :func:`_certified_sweep`: a certified
    member runs no full eigensolve until its ``eigenvalues`` are read.  The
    triples are real, so the ascending order is the curve order: between two
    real triples the ascending assignment has the least total distance
    (monotone rearrangement), and the ``i``-th least values trace curve ``i``.
    Raises :class:`GapViolation`, for the first offending sigma in sweep
    order, unless ``lambda_4 < -delta`` holds at every sigma.
    """
    vals, radius, gaps, _, others, _ = _certified_sweep(roll, sigmas, delta)
    return [
        BlochSpectrum(float(sigma), float(gap), triple, roll if np.isfinite(r) else rest)
        for sigma, gap, triple, r, rest in zip(_checked_sigmas(sigmas, "sigma"), gaps, vals, radius, others)
    ]


def critical_curve_array(spectra: list[BlochSpectrum]) -> np.ndarray:
    """Stack the critical triples of a sweep as a real (3, n_sigma) array, each column ascending."""
    if not spectra:
        return np.empty((3, 0))
    return np.column_stack([s.critical_values() for s in spectra])
