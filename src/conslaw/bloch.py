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
bits of one call per matrix, so one Bloch number is a sweep of one, and
each distinct ``|sigma|`` is solved once (:func:`_lifted_sweep`).  Its two
``N x N`` stacks, ``S`` and ``H``, live in a per-thread workspace kept
between sweeps (:func:`_workspace_stacks`; see the README); nothing a sweep
returns views it.  At M = 12 a sweep costs more in NumPy calls than in
arithmetic, so the engine calls NumPy's stacked kernels, ufunc reductions
and array methods, never the functions that wrap them, which give the same
bits; indexes its mode blocks by slices; and builds what depends on ``N``
alone once (:func:`_layout`).  The cost before the first member is about
190 us, and of each member 19 us (``python -m timeit``, one BLAS thread;
the README gives the command).

What depends on the roll alone is built once per roll, on first request,
and dropped with the roll (:func:`_operator`): the Toeplitz part ``T`` of
``S``, the masked ``|T|`` of the certificate and, from the first sweep
through ``sigma = 0``, that member solved.  So a sweep, the classifier's
settle test, :func:`critical_modes` and the conserved vector read one
``T``, and the zone sweep and the comparison of one roll solve
``sigma = 0`` once between them.

One engine, :func:`_lifted_sweep`, solves every Bloch number: the paper's
Lyapunov-Schmidt split of ``H``, the critical block (Bloch modes
``|m| <= 2``) lifted onto the hard-damped rest and refined by Davidson's
correction (:func:`_lifted_ritz`; E. R. Davidson, J. Comput. Phys. 17
(1975) 87-94), each member certified; at ``sigma = 0`` the same steps run
on the even and odd blocks of ``H`` (:func:`_parity_member`).  The
classifier solves only the members that an inertia test on
``S - level diag(1/p)`` cannot settle (:func:`_settled_members`), which
builds no ``N x N`` matrix, at one level per member: where its predicted
member's top value ``b`` exceeds ``1e-10`` plus ``m(b)``, ``b - m(b)``;
else the decay rate that a stable verdict needs at the member.
:func:`_ritz_margin` gives ``m(L)``, the a priori bound on how far the
computed top Ritz value of a member settled at level ``L`` can exceed
``L``, sized by ``L`` and by ``eps ||H||``.  Every
certificate is the split again, proved by one kernel
(:func:`_schur_certificate`): Gershgorin's theorem on the rest and one
stacked Cholesky of a Schur-complement bound on the 9 x 9 block of
``|m| <= 4``.  Here only the benchmark's adapter (:class:`BlochSpectrum`) runs
an ``eigvalsh`` of ``H``, for the rest of a spectrum on read.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from numpy.linalg._umath_linalg import cholesky_lo, eigh_lo, qr_r_raw, qr_reduced

from .errors import GapViolation, InvariantViolation, OutOfRange
from .model import reaction_derivative, swift_hohenberg
from .rolls import RollSolution

__all__ = ["BlochSweep", "critical_sweep", "critical_modes", "BlochSpectrum", "critical_curves"]

#: Bloch numbers nearer zero than this are solved at exactly zero.
_SIGMA_ZERO_TOL = 1e-13
#: Davidson corrections of each of the four largest lifted Ritz vectors.
#: Four, not three: at sigma = +-1/2 the third and fourth eigenvalues are
#: split by as little as 3e-7.  The fifth is left alone (at the zone edge its
#: mirror mode lies in the rest, so its ``H[i, i] - q`` may vanish; the top
#: four stay about 130 from every rest diagonal), and may lie so far below
#: ``lambda_5`` that members at ``0 < |sigma| < 1e-8`` fail the rank-4
#: certificate and need the rank-3 one (:func:`_lifted_sweep`).
_CORRECTIONS = 2
#: The radii of the lifted Ritz values are floored at ``_ROUNDING_ULPS eps
#: ||G||_2`` (``G = Q^T H Q``, so ``||G||_2`` is the largest ``|theta|``), the
#: rounding of the values themselves.  A backward-stable 5 x 5 eigensolve
#: moves each by a small multiple of ``eps ||G||_2`` (LAPACK's own error
#: estimate takes the multiple as 1; Users' Guide, section 4.7); 8 leaves
#: room for the rounding of ``G``'s entries and its symmetrization.
_ROUNDING_ULPS = 8
#: The critical block of the lifted start block, Bloch modes |m| <= 2.  A
#: small roll's triple lives at m = -1, 0, 1 (at m = -2, -1, 0 near
#: sigma = -1/2); the |m| = 2 neighbours let Rayleigh-Ritz resolve it.
_START_MODES = 2
#: The block the inertia certificate factors: Bloch modes |m| <= 4, the
#: critical block and two neighbours on each side.  Every outer row's
#: diagonal lies below about ``-k^2 m^2 (k^2 m^2 - 1)^2``, which dominates
#: its Gershgorin row sum, so the block alone carries the certificate.
_BLOCK_MODES = 4
#: The slack of :func:`_schur_certificate` for its own rounding.  Its
#: Gershgorin row sums and Schur term ``P`` are sums of at most ``N``
#: products (``M`` on a parity block, whose entries carry one rounding more),
#: whose rounding is at most ``gamma_N``, about ``N eps / 2``, relative to the
#: sums of their absolute values (Higham, Accuracy and Stability of Numerical
#: Algorithms, section 3.1), so at most ``gamma_N tr(P)`` in ``P``'s 2-norm,
#: and each ``|H_ij|`` exceeds its bound ``sq_i sq_j |T_ij|`` by at most three
#: roundings.  The row sums and ``P``'s diagonal are inflated by
#: ``_SCHUR_ULPS N eps`` (``tr(P)`` times that), about 4 times the rounding
#: (2.6 on a parity block at M = 8).  A Cholesky factorization of a ``k x k``
#: matrix that completes is exact for one within about ``k (k + 1) eps / 2``
#: of it, relative in the 2-norm of the matrix scaled to a unit diagonal
#: (section 10.1), so the factored diagonal is shrunk by
#: ``_SCHUR_ULPS k (k + 1) eps``, relative, about 4 times that.
_SCHUR_ULPS = 2
#: The factors of :func:`_ritz_margin`, ``m(L) = (N + 1) eps (_MARGIN_ULPS h +
#: _LEVEL_ULPS |L|)``, ``h >= ||H||_2``, for a member settled at level ``L``.
#: With ``k = 5`` Ritz vectors, unit roundoff ``u = eps / 2`` and
#: ``gamma_N = N u / (1 - N u)`` (Higham, Accuracy and Stability of Numerical
#: Algorithms, 2nd ed., section 3.1), its computed top Ritz value exceeds
#: ``L``, which the settle test proves above ``lambda_1`` of
#: ``diag(sq) S diag(sq)``, by at most the sum of (Weyl's inequality for each
#: perturbation of ``G``):
#:
#: - ``H`` as built, within three roundings of ``diag(sq) S diag(sq)``
#:   entrywise: 1.5 ``eps h``;
#: - the shifted diagonal ``d - L / p`` as built, and ``sq^2 / p`` within two
#:   roundings of one: 2 ``eps |L|`` and 0.5 ``eps h``;
#: - the departure of the Householder ``Q`` from orthonormality,
#:   ``||Q^T Q - I||_2 <= 2 sqrt(k) gamma~_{Nk}`` (section 19.3,
#:   ``||Q - Q_exact||_F <= sqrt(k) gamma~_{Nk}``, its unstated constant
#:   taken as 1), 11.2 ``N eps``: for the unit top vector ``x`` of
#:   ``Q^T H Q``, its value is at most ``lambda_1 ||Q x||^2`` (Courant-Fischer),
#:   so above ``L`` by at most ``11.2 N eps |L|``, whatever the signs of
#:   ``lambda_1 < L`` (``|L|``, not ``max(L, 0)``: below zero,
#:   ``lambda_1 ||Q x||^2`` may exceed ``L``);
#: - ``H Q``: ``gamma_N || |H| |Q| ||_F <= gamma_N sqrt(k) h``, 1.12 ``N eps h``;
#: - ``Q^T (H Q)``: ``gamma_N ||Q||_F ||H Q||_F <= gamma_N k h``, 2.5 ``N eps h``;
#: - the symmetrization of ``G``, ``u k h``, and the 5 x 5 ``eigh``,
#:   ``_ROUNDING_ULPS eps ||G||_2``: 2.5 and 8 ``eps h``.
#:
#: In all ``(3.62 N + 12.5) eps h + (11.2 N + 2) eps |L|``, below
#: ``(N + 1) eps (5 h + 12 |L|)`` at every ``N >= 17`` (``M >= 8``), which
#: also covers the second-order terms and the rounding of ``h`` itself.
_MARGIN_ULPS = 5
_LEVEL_ULPS = 12
_EPS = np.finfo(np.float64).eps


@dataclass(frozen=True)
class BlochSpectrum:
    """Real spectrum at one Bloch number with the critical triple flagged: one member of :func:`critical_curves`.

    ``critical_values()`` returns a copy of the member's
    :attr:`BlochSweep.values`, and ``gap`` is its :attr:`BlochSweep.gaps`.
    ``eigenvalues`` (descending) and ``critical`` (the triple's indices in
    them) are computed on first read: the triple beside the rest of one
    ``eigvalsh`` of ``H`` rebuilt from the roll at ``|sigma|`` (accurate to
    ``eps max|w|``, with no radius); no matrix is kept.  Kept only for the
    benchmark (``bench/workloads.py``), which reads them at ``sigma = 0``;
    no module here does.  Its other readers are the six tests of this
    adapter in ``tests/test_bloch.py``.  It goes, with :func:`critical_curves` and
    those tests, at the next change to the benchmark (ROADMAP item 2).
    """

    sigma: float
    gap: float
    _triple: np.ndarray = field(repr=False)
    _roll: RollSolution = field(repr=False)

    def critical_values(self) -> np.ndarray:
        return self._triple.copy()

    @cached_property
    def _full(self) -> tuple[np.ndarray, tuple[int, int, int]]:
        w = np.linalg.eigvalsh(_stacks(self._roll, np.array([abs(self.sigma)]))[1])[0]
        allvals = np.concatenate([self._triple, w[np.argsort(np.abs(w))[3:]]])
        order = np.argsort(-allvals, kind="stable")
        return allvals[order], tuple(int(j) for j in np.argsort(order)[:3])

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._full[0]

    @property
    def critical(self) -> tuple[int, int, int]:
        return self._full[1]


def _checked_sigmas(sigmas, param: str) -> np.ndarray:
    """Bloch numbers as a float array; :class:`OutOfRange` unless all lie in ``[-1/2, 1/2]``."""
    sigmas = np.asarray(sigmas, dtype=np.float64).reshape(-1)
    outside = (~(np.abs(sigmas) <= 0.5)).nonzero()[0]
    if outside.size:
        raise OutOfRange(f"Bloch number {float(sigmas[outside[0]])} lies outside [-1/2, 1/2]", param=param)
    return sigmas


def _rows(N: int, m: int) -> slice:
    """The rows of the Bloch modes ``|m'| <= m`` in an ``N x N`` matrix."""
    return slice(N // 2 - m, N // 2 + m + 1)


@lru_cache
def _layout(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only, once per ``N = 2M + 1``: the index ``(N, N)`` of ``g_{m - n}`` in :func:`conslaw.model.reaction_derivative`
    and the modes ``-M .. M``."""
    modes = np.arange(N) - N // 2
    return _read_only(np.subtract.outer(modes, modes) + (N - 1), modes)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, each made read-only."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _toeplitz(df: np.ndarray) -> np.ndarray:
    """The symmetrized Toeplitz part ``T`` ``(N, N)`` of ``S``, gathered from the reaction coefficients ``df``.

    The multiplication part is the same at every Bloch number; only the
    diagonal symbol varies, and off the diagonal ``S`` is ``T``.
    """
    T = df[_layout((df.size + 1) // 2)[0]]
    return 0.5 * (T + T.T)


def _outer_abs(T: np.ndarray, block: slice) -> np.ndarray:
    """``|T|`` off the diagonal with the rows ``block`` zeroed: the Gershgorin row sums of :func:`_block_certificate`."""
    Th = np.abs(T)
    Th.reshape(Th.size)[:: Th.shape[0] + 1] = 0.0
    Th[block] = 0.0
    return Th


@dataclass(eq=False)
class _Operator:
    """What a roll's Bloch operator is at every Bloch number, built once per roll by :func:`_operator`.

    ``k2 = k^2``; the Toeplitz part ``T`` ``(N, N)`` (:func:`_toeplitz`); and
    ``outer``, :func:`_outer_abs` of ``T`` on the block of ``|m| <= 4``,
    which :func:`_block_certificate` reads on every whole pass.  ``zero`` is
    the ``sigma = 0`` member as :func:`_parity_member` returns it, set by the
    first sweep through zero.  Every array is read-only.  The record holds
    no reference to the roll, so it is dropped with it.
    """

    k2: float
    T: np.ndarray
    outer: np.ndarray
    zero: tuple[np.ndarray, ...] | None = None


#: Each live roll's record.  A roll hashes and compares by its fields, its
#: profile by identity, so rolls solved apart never share a record, and an
#: entry lives exactly as long as its roll.
_operators: weakref.WeakKeyDictionary[RollSolution, _Operator] = weakref.WeakKeyDictionary()


def _operator(roll: RollSolution) -> _Operator:
    """The roll's :class:`_Operator`, built on first request: the one place the reaction and ``T`` are built."""
    op = _operators.get(roll)
    if op is None:
        # Built under the record's own error state, not its first caller's:
        # a small roll's reaction underflows.
        with np.errstate(under="ignore"):
            T = _toeplitz(reaction_derivative(roll.profile.coeffs, roll.params.s, roll.params.eps))
            outer = _outer_abs(T, _rows(T.shape[0], _BLOCK_MODES))
        op = _operators.setdefault(roll, _Operator(roll.params.k**2, *_read_only(T, outer)))
    return op


def _zero_member(roll: RollSolution, op: _Operator) -> tuple[np.ndarray, ...]:
    """The roll's ``sigma = 0`` member, solved by :func:`_parity_member` on first request and kept in ``op``.

    Its ``H`` is built in a stack of its own, with the bits a sweep's stack
    gives it: ``H`` is built elementwise.
    """
    if op.zero is None:
        with np.errstate(under="ignore"):
            (sq,), (H,) = _stacks(roll, np.zeros(1))
            op.zero = _read_only(*_parity_member(sq, H, op.T))
    return op.zero


def _symbols(op: _Operator, sigmas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prefactors ``p`` ``(n, N)`` and the diagonal symbol ``sh(p)`` ``(n, N)`` of ``S``."""
    kt2 = op.k2 * (_layout(op.T.shape[0])[1] + sigmas[:, None]) ** 2
    return kt2, swift_hohenberg(kt2)


def _symmetric_factors(op: _Operator, sigmas: np.ndarray, out: np.ndarray | None = None):
    """Prefactors ``p`` ``(n, N)`` and symmetric factors ``S`` ``(n, N, N)``.

    ``S`` is ``T`` plus the diagonal symbol of :func:`_symbols`, written into
    ``out``, a C-contiguous ``(n, N, N)`` stack, if given.
    """
    kt2, sh = _symbols(op, sigmas)
    N = op.T.shape[0]
    S = np.empty((sigmas.size, N, N)) if out is None else out
    S[...] = op.T
    S.reshape(sigmas.size, N * N)[:, :: N + 1] += sh
    return kt2, S


#: Each thread's ``stacks``, two C-contiguous ``(n_cap, N, N)`` stacks kept
#: between sweeps; per thread, so that concurrent sweeps never share one.
_workspace = threading.local()


def _workspace_stacks(n: int, N: int) -> np.ndarray:
    """This thread's two ``(n, N, N)`` stacks ``(2, n, N, N)``, reallocated only when ``N`` changes or ``n`` outgrows them."""
    stacks = getattr(_workspace, "stacks", None)
    if stacks is None or stacks.shape[1] < n or stacks.shape[2] != N:
        stacks = _workspace.stacks = np.empty((2, n, N, N))
    return stacks[:, :n]


def _cholesky(A: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Lower Cholesky factors of a stack, all NaN on each member that is not positive definite.

    Here and in :func:`_orthonormal` and :func:`_eigh`, NumPy's stacked
    kernels are called as ``np.linalg`` calls them, so give its bits: each
    member as a call on it alone does, and NaN on a member that fails, where
    ``np.linalg`` raises for the whole stack.  ``out=A`` factors in place.
    """
    with np.errstate(all="ignore"):
        return cholesky_lo(A, signature="d->d", out=out)


def _orthonormal(Y: np.ndarray) -> np.ndarray:
    """The reduced QR ``Q`` of each member of ``Y`` ``(n, N, k)``, which is overwritten; ``R`` is never formed."""
    return qr_reduced(Y, qr_r_raw(Y, signature="d->d"), signature="dd->d")


def _eigh(A: np.ndarray):
    """Ascending eigenvalues ``(n, N)`` and eigenvectors ``(n, N, N)`` of a symmetric stack: ``eigh``."""
    with np.errstate(all="ignore"):
        return eigh_lo(A, signature="d->dd")


def _rayleigh_ritz(H: np.ndarray, Q: np.ndarray):
    """Rayleigh-Ritz on the orthonormal columns of ``Q`` ``(n, N, k)``.

    Returns the ascending Ritz values ``(n, k)``, the eigenvectors ``R`` of
    the symmetrized ``Q^T H Q`` (the Ritz vectors are ``Q R``) and ``H Q``.
    """
    HQ = H @ Q
    G = Q.swapaxes(1, 2) @ HQ
    G = 0.5 * (G + G.swapaxes(1, 2))
    return (*_eigh(G), HQ)


def _stacks(roll: RollSolution, sigmas: np.ndarray, out: np.ndarray | None = None):
    """``sq = sqrt(p)`` ``(n, N)`` and the symmetric ``H = diag(sq) S diag(sq)`` of a checked sweep.

    Bloch numbers within ``_SIGMA_ZERO_TOL`` of zero are built at exactly
    zero, where ``sq`` and so the ``m = 0`` row and column of ``H`` vanish.
    Off the diagonal, ``H[i, j]`` is ``sq_i sq_j T[i, j]`` to within three
    roundings, ``T`` the roll's (:func:`_operator`).  ``out`` ``(2, n, N, N)``,
    if given, holds ``S`` in ``out[0]`` and ``H`` in ``out[1]``; each must be
    C-contiguous.
    """
    sigmas = np.where(np.abs(sigmas) < _SIGMA_ZERO_TOL, 0.0, sigmas)
    p, S = _symmetric_factors(_operator(roll), sigmas, None if out is None else out[0])
    sq = np.sqrt(p)
    S *= sq[:, :, None]
    S *= sq[:, None, :]
    # Summed into another stack: in place, NumPy would first copy the
    # overlapping transpose.  Addition commutes, so H is exactly symmetric.
    H = np.add(S, S.swapaxes(1, 2), out=None if out is None else out[1])
    H *= 0.5
    return sq, H


def _conserved_vector(roll: RollSolution) -> np.ndarray:
    """Unit right eigenvector ``(N,)`` of the exact zero at ``sigma = 0``: the even ``v`` with ``S0 v = e_0``.

    ``S0`` commutes with ``m -> -m`` and its kernel, the translation mode
    ``m c_m``, is odd, so folded onto the even vectors (``v_{-m} = v_m``,
    unknowns ``v_0 .. v_M``) it is non-singular for ``eps > 0``.  At the
    threshold state it is exactly singular, and the solve is shifted by
    ``1e-10 I``.  The solution is ``1 / eps`` times the cosine mode of
    ``m = +-1`` (the amplitude mode, whose eigenvalue is of order ``eps^2``
    and its ``m = 0`` entry of order ``eps``), plus a part of order one: its
    direction lies within about ``eps`` of that mode.  Below about eps =
    1e-154 its norm overflows, below about 1e-308 its entries do.  Where the
    solution's largest entry reaches ``2^500`` (eps below about 1e-150),
    ``v`` is that mode, exact to working precision.
    """
    S0 = _symmetric_factors(_operator(roll), np.zeros(1))[1][0]
    M = S0.shape[0] // 2
    E = S0[M:, M:].copy()
    E[:, 1:] += S0[M:, M - 1 :: -1]
    e0, e1 = np.eye(M + 1)[:2]
    try:
        a = np.linalg.solve(E, e0)
    except np.linalg.LinAlgError:
        a = np.linalg.solve(E + 1e-10 * np.eye(M + 1), e0)
    if not np.abs(a).max() < 2.0**500:
        a = e1
    v = np.concatenate([a[:0:-1], a])
    return v / np.linalg.norm(v)


def _lifted_ritz(H: np.ndarray, c: slice):
    """The five Ritz values ``theta`` ``(n, 5)``, ascending, the vectors ``Y``
    ``(n, N, 4)`` of the four largest, ``rho = theta[:, 1:]``, and two radii:
    ``r3``, over the top three pairs, and ``r4``, over all four.

    Rayleigh-Ritz on the lifted start block, the five rows ``c`` (the
    first-order reduction): unit vectors on ``c``, ``-H[i, c] / H[i, i]`` on
    every rest row ``i``.  Each of
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
    d = H.diagonal(0, 1, 2)
    Y = H[:, :, c].copy()
    for rest in (slice(None, c.start), slice(c.stop, None)):
        Y[:, rest] /= -d[:, rest, None]
    Y[:, c] = np.eye(c.stop - c.start)
    Q = _orthonormal(Y)
    _, R, _ = _rayleigh_ritz(H, Q)
    # The Ritz vectors as rows, so that H t is t H (H is symmetric) and each
    # reduction runs along a contiguous last axis, member by member.  T views
    # the four largest; V keeps the fifth beside them.
    V = R.swapaxes(1, 2) @ Q.swapaxes(1, 2)
    T = V[:, 1:]
    for _ in range(_CORRECTIONS):
        res = T @ H
        q = np.add.reduce(T * res, axis=2, keepdims=True) / np.add.reduce(T * T, axis=2, keepdims=True)
        res -= q * T
        res[:, :, c] = 0.0
        # A zero residual is no correction, also where H[i, i] = q (H diagonal).
        T -= np.divide(res, d[:, None, :] - q, out=res, where=res != 0.0)
    # V is not read again, so the kernel may overwrite it.
    Q = _orthonormal(V.swapaxes(1, 2))
    theta, R, HQ = _rayleigh_ritz(H, Q)
    rho, R = theta[:, 1:], R[:, :, 1:]
    Y = Q @ R
    resid = HQ @ R - Y * rho[:, None, :]
    floor = _ROUNDING_ULPS * _EPS * np.maximum.reduce(np.abs(theta), axis=1)
    r3, r4 = (np.sqrt(np.add.reduce(block * block, axis=(1, 2))) + floor for block in (resid[:, :, 1:], resid))
    return theta, Y, r3, r4


def _schur_certificate(A: np.ndarray, C: np.ndarray, d: np.ndarray, r: np.ndarray, block: slice) -> np.ndarray:
    """The members ``(n,)`` of a symmetric stack ``X`` proved positive definite from a ``k x k`` block.

    ``l`` is the block, the rows ``block``, and ``h`` the rest.  ``A``
    ``(n, k, k)``, C-contiguous and written over, is ``X_ll``; ``C`` is
    ``X_lh`` as the rows ``(n, k, N)`` zeroed on the columns ``block``, or
    one ``(k, N)`` for all; and ``X_hh >= diag(d_h) - E``, ``E`` symmetric
    with absolute row sums at most ``r_h`` (``d`` ``(n, N)``, ``r``
    ``(n, N)`` or ``(N,)``).  Gershgorin's theorem gives ``X_hh >= g I``,
    ``g = min_{i in h} (d_i - r_i)``, and when ``g > 0`` ``X`` is positive
    definite when ``A - C C^T / g`` is (the Schur-complement criterion;
    Horn & Johnson, Matrix Analysis): one stacked Cholesky, the only one in
    this module, every certificate's.  It carries ``_SCHUR_ULPS`` slack on
    ``r``, on the trace of ``P = C C^T`` and on the factored diagonal.
    """
    n, k, N = A.shape[0], A.shape[1], d.shape[-1]
    slack = 1.0 + _SCHUR_ULPS * N * _EPS
    disc = d - slack * r
    disc[:, block] = np.inf
    g = np.minimum.reduce(disc, axis=1)
    P = np.matmul(C, C.swapaxes(-1, -2))
    diag = P.reshape(-1, k * k)[:, :: k + 1]
    diag += (slack - 1.0) * np.add.reduce(diag, axis=1, keepdims=True)
    # A member with g <= 0 (or NaN) is not certified; its Schur term is
    # left out, so that nothing divides by zero.
    A -= P / np.where(g > 0.0, g, np.inf)[:, None, None]
    A.reshape(n, k * k)[:, :: k + 1] *= 1.0 - _SCHUR_ULPS * k * (k + 1) * _EPS
    L = _cholesky(A, out=A)
    return (g > 0.0) & np.isfinite(L.diagonal(0, 1, 2)).all(axis=1)


def _block_certificate(sq: np.ndarray, H: np.ndarray, outer: np.ndarray, Y: np.ndarray, c: np.ndarray, tau: np.ndarray, block: slice):
    """The members ``(n,)`` whose ``A = c Y Y^T + tau I - H`` :func:`_schur_certificate` proves positive definite.

    ``Y`` is ``(n, N, j)``, of any rank ``j``.  With ``c > 0``, checked,
    ``A_hh >= tau I - H_hh``, and ``|H_ij| <= sq_i sq_j |T_ij|``
    (:func:`_stacks`; ``sq`` ``(n, N)`` or one row for all) bounds its row
    sums by one ``(n, N) @ (N, N)`` product with ``outer``,
    :func:`_outer_abs` of ``T`` on ``block``.
    """
    Al = np.matmul(Y[:, block], Y.swapaxes(1, 2))
    Al *= c[:, None, None]
    Al -= H[:, block]
    A = Al[:, :, block].copy()
    k = A.shape[1]
    A.reshape(A.shape[0], k * k)[:, :: k + 1] += tau[:, None]
    Al[:, :, block] = 0.0
    return (c > 0.0) & _schur_certificate(A, Al, tau[:, None] - H.diagonal(0, 1, 2), sq * (sq @ outer), block)


def _certified_ritz(sq: np.ndarray, H: np.ndarray, outer: np.ndarray, start: slice, block: slice):
    """:func:`_lifted_ritz` from the rows ``start`` and :func:`_block_certificate` on the rows ``block``, with its ``outer``.

    Returns ``theta``, ``Y``, ``r3``, ``r4`` and the members ``(n,)`` whose
    four largest eigenvalues are certified, with ``tau`` and ``c`` placed as
    :func:`_lifted_sweep` says.
    """
    theta, Y, r3, r4 = _lifted_ritz(H, start)
    tau = 0.5 * (theta[:, 1] - r4 + theta[:, 0])
    certified = _block_certificate(sq, H, outer, Y, 2.0 * (theta[:, -1] - tau), tau, block) & (tau < theta[:, 1] - r4)
    return theta, Y, r3, r4, certified


def _parity_member(sq: np.ndarray, H: np.ndarray, T: np.ndarray):
    """The member at ``sigma = 0``, from its ``sq`` ``(N,)`` and ``H`` ``(N, N)``, as :func:`_certified_ritz` gives a member.

    ``H`` equals its own reversal in ``m`` bit for bit, and its ``m = 0`` row
    and column vanish (conservation law).  With ``P = H[M+1:, M+1:]`` and
    ``X = H[M+1:, M-1::-1]`` (modes ``1 .. M`` against ``1 .. M`` and
    ``-1 .. -M``), the even block ``E = P + X`` and the odd block
    ``O = P - X`` are exactly symmetric, and the spectrum of ``H`` is ``{0}``
    with theirs.  Both blocks are one ``(2, M, M)`` stack for
    :func:`_certified_ritz`, started on modes ``1 .. 5`` and certified on
    ``1 .. 4`` with ``|E_ij|, |O_ij| <= sq_i sq_j (|T_P| + |T_X|)_ij``.

    The member's ``theta`` ``(1, 5)`` holds the triple ``{0.0, top(E),
    top(O)}``, ascending, ``0.0`` first among ties, in its last three places
    and ``rho_4 = max(second(E), second(O))`` in its second; its first, the
    fifth Ritz value, is not solved and is NaN.  Its ``Y`` ``(1, N, 4)``
    holds ``e_0`` and each block's top Ritz vector ``y`` unfolded to
    ``(+-y[::-1], 0, y) / sqrt(2)``, in the triple's order, after a
    placeholder.  ``r3`` and ``r4`` are the larger of the blocks' (``0.0`` is
    exact, and the seconds, the cosine and sine modes of ``m = +-2``, may lie
    3e-11 apart, so either block's may be ``lambda_4``).  Raises
    :class:`InvariantViolation` unless both blocks are certified and the
    triple is nearest zero (``max`` of the triple ``+ r4 < -(rho_4 + r4)``).
    """
    M, start, block = sq.size // 2, slice(0, 2 * _START_MODES + 1), slice(0, _BLOCK_MODES)
    (P, X), (TP, TX) = ((A[M + 1 :, M + 1 :], A[M + 1 :, M - 1 :: -1]) for A in (H, T))
    blocks, outer = np.stack([P + X, P - X]), _outer_abs(np.abs(TP) + np.abs(TX), block)
    theta, Y, r3, r4, certified = _certified_ritz(sq[None, M + 1 :], blocks, outer, start, block)
    vals, rho4, r4 = np.array([0.0, *theta[:, -1]]), theta[:, -2].max(), r4.max()
    if not (certified.all() and vals.max() + r4 < -(rho4 + r4)):
        raise InvariantViolation(f"the parity blocks at sigma = 0 are not certified: Ritz values {theta.tolist()}")
    y = Y[:, :, -1].T / np.sqrt(2.0)
    y = np.column_stack([np.eye(sq.size)[M], np.vstack([y[::-1] * [1.0, -1.0], [0.0, 0.0], y])])
    order = np.argsort(vals, kind="stable")
    # C-contiguous, as the whole pass's Y is: critical_modes' product with the
    # vectors rounds by their layout.
    Y = np.ascontiguousarray(y[None, :, np.r_[0, order]])
    return np.array([[np.nan, rho4, *vals[order]]]), Y, r3.max(keepdims=True), np.array([r4]), np.ones(1, bool)


@dataclass(frozen=True)
class BlochSweep:
    """A Bloch sweep as solved: the critical triple and the gap below it at each of the checked ``sigmas`` ``(n,)``.

    The triples ``values`` ``(n, 3)``, ascending, which is the curve order
    (between two real triples the ascending assignment has the least total
    distance, so the ``i``-th least values trace curve ``i``), and the gaps
    ``gaps`` ``(n,)``, ``-lambda_4``, with their ``radius`` and ``gap_radius``
    ``(n,)``: every member is certified (one that is not raises; see
    :func:`_lifted_sweep`).  ``vectors`` ``(n, N, 3)`` are the triples' Ritz
    vectors of the symmetrized ``H = sqrt(p) S sqrt(p)``, not Bloch eigenvectors:
    :func:`critical_modes` gives those.  Nothing that can be rebuilt from
    the roll is kept: a reader needing a member's matrices or its rest
    rebuilds them with :func:`_stacks`.
    """

    sigmas: np.ndarray
    values: np.ndarray
    radius: np.ndarray
    gaps: np.ndarray
    gap_radius: np.ndarray
    vectors: np.ndarray


def _lifted_sweep(roll: RollSolution, sigmas) -> BlochSweep:
    """Critical triples, their vectors, gaps and radii over a sweep, every member certified, with no full eigensolve.

    :func:`_lifted_ritz` gives the four largest Ritz pairs ``(rho, Y)``, the
    fifth Ritz value ``theta_5`` and the radii ``r3`` and ``r4``.  With ``tau``
    halfway between ``rho_4 - r4`` and ``theta_5``, each member is certified
    by inertia when ``A = c Y Y^T + tau I - H``, ``c = 2 (max rho - tau)``,
    is positive definite, which :func:`_block_certificate` shows from the
    9 x 9 block of ``|m| <= 4`` alone.  When ``A`` is positive definite:

    - ``H - c Y Y^T < tau I``, so the fifth eigenvalue of ``H`` lies below
      ``tau`` (interlacing for a rank-4 update);
    - with ``tau < rho_4 - r4``, also checked, the four eigenvalues within
      ``||R||_2 <= r4`` of the ``rho`` (Parlett ch. 11) are the four largest,
      and the ``i``-th largest lies within ``r4`` of the ``i``-th largest ``rho``;
    - with ``max rho + r4 < -(rho_4 + r4)``, also checked, the top three are
      the eigenvalues nearest zero.

    A member certified so has its triple, the top three ``rho``, and its
    gap, ``-rho_4``, within ``r4``.  The three eigenvalues within ``r3`` of the
    triple (Kahan) lie above ``rho_4 + r4``, so are the top three, once the
    least of the triple less ``r3`` does; the triple's radius is then ``r3``,
    else ``r4``.

    Near ``sigma = 0`` ``lambda_4`` and ``lambda_5`` meet and ``tau`` is
    placed from the uncorrected ``theta_5``, so this rank-4 certificate may
    fail at ``0 < |sigma| < 1e-8`` (see the README).  Those members alone get
    a rank-3 one, which needs no ``lambda_5``: ``tau3 = rho_4 + 2 r4``, ``Y3``
    the top three vectors and ``c = 2 (max rho - tau3)``.  A positive
    definite ``c Y3 Y3^T + tau3 I - H`` puts ``lambda_4`` below ``tau3``
    (interlacing for a rank-3 update).  With ``tau3 < min(triple) - r3`` and
    ``max rho + r3 < -tau3``, both checked, the eigenvalues within ``r3`` of
    the triple (Kahan) are the top three and nearest zero, so its radius is
    ``r3``; the one within ``r4`` of ``rho_4`` lies below ``tau3``, so
    ``lambda_4`` lies in ``[rho_4 - r4, rho_4 + 2 r4]`` and the gap's radius
    is ``2 r4``.  A member that fails both certificates raises
    :class:`InvariantViolation`.  These are floating-point certificates, not
    interval arithmetic: the radii and :func:`_schur_certificate` carry a
    stated slack for their own rounding, the rest of the arithmetic none.

    At ``sigma = 0`` the conservation law and translation give two exact
    zeros, and ``lambda_4`` and ``lambda_5`` (the cosine and sine modes of
    ``m = +-2``) are split by as little as 3e-11, inside the radius the
    certificate would need.  That member, if any, is solved on its even and
    odd blocks by :func:`_parity_member`, with the rank-4 steps, and is
    certified or raises :class:`InvariantViolation`.

    ``H`` at ``-sigma`` is ``H`` at ``sigma`` reversed in ``m``, bit for bit
    (the roll is even): each distinct ``|sigma|`` (zero within
    ``_SIGMA_ZERO_TOL``) is solved once; a member at ``-sigma`` takes its
    twin's values and radii, its vectors reversed.

    The whole pass runs on the members off zero, with the roll's ``T`` and
    masked ``|T|`` (:func:`_operator`).  The zero member is solved once per
    roll, in a stack of its own, by the first sweep through zero, and kept,
    read-only, until the roll is dropped; ``H`` is built elementwise, so it
    has the bits it would have in this sweep's stack.
    """
    sigmas = _checked_sigmas(sigmas, "sigma")
    mags = np.where(np.abs(sigmas) < _SIGMA_ZERO_TOL, 0.0, np.abs(sigmas))
    # Distinct and ascending already (one member, the classifier's grid), they are what np.unique would return.
    mags, twin = (mags, np.arange(mags.size)) if (mags[1:] > mags[:-1]).all() else np.unique(mags, return_inverse=True)
    op, N = _operator(roll), 2 * roll.profile.grid.n_modes + 1
    block = _rows(N, _BLOCK_MODES)
    # A zero member is the first.  The others are solved whole, in one
    # pass, which a sweep of zero alone skips; the zero member is the
    # roll's, solved on its parity blocks by the first sweep through zero.
    z = np.count_nonzero(mags[:1] == 0.0)
    parts = []
    if mags.size > z or not z:
        sq, H = _stacks(roll, mags[z:], _workspace_stacks(mags.size - z, N))
        parts.append(_certified_ritz(sq, H, op.outer, _rows(N, _START_MODES), block))
    if z:
        parts.insert(0, _zero_member(roll, op))
    theta, Y, r3, r4, certified = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
    vals, rho4, top = theta[:, 2:], theta[:, 1], theta[:, -1]
    certified = certified & (top + r4 < -(rho4 + r4))
    radius = np.where(certified, np.where(vals[:, 0] - r3 > rho4 + r4, r3, r4), r3)
    gap_radius = np.where(certified, r4, 2.0 * r4)
    # The zero member is certified or has raised, so every miss lies in H.
    miss = (~certified).nonzero()[0]
    if miss.size:
        tau3, h = rho4[miss] + 2.0 * r4[miss], miss - z
        rank3 = _block_certificate(sq[h], H[h], op.outer, Y[miss, :, 1:], 2.0 * (top[miss] - tau3), tau3, block)
        bad = miss[~(rank3 & (tau3 < vals[miss, 0] - r3[miss]) & (top[miss] + r3[miss] < -tau3))]
        if bad.size:
            raise InvariantViolation(f"neither certificate holds for the triple {vals[bad[0]]} at |sigma| = {mags[bad[0]]}")
    solved = vals, radius, -rho4, gap_radius, Y[:, :, 1:]
    *solved, vecs = (a[twin] for a in solved)
    neg = (sigmas <= -_SIGMA_ZERO_TOL).nonzero()[0]
    vecs[neg] = vecs[neg, ::-1]
    return BlochSweep(sigmas, *solved, vecs)


def check_delta(delta: float) -> None:
    """Raise :class:`OutOfRange` unless the required gap ``delta`` is positive and finite."""
    if not 0.0 < delta < np.inf:
        raise OutOfRange(f"delta must be positive and finite, got {delta}", param="delta")


def _settled_members(roll: RollSolution, sigmas: np.ndarray, delta: float, level: float | np.ndarray = 0.0) -> np.ndarray:
    """The members ``(n,)`` of a checked sweep whose ``H`` is proved to have ``lambda_1 < level`` and ``lambda_4 < -delta``.

    ``level`` is one value for every member or one per member, ``(n,)``.

    Built from ``T`` and the diagonal ``d = diag(T) + sh(p)`` of ``S`` alone;
    no ``N x N`` matrix is formed.  A member is settled when all three hold:

    - ``sigma`` is not zero (within ``_SIGMA_ZERO_TOL``).  Then ``p > 0``, so
      ``H - level I = diag(sq) (S - level diag(1/p)) diag(sq)`` is congruent
      to ``S - level diag(1/p)`` and has its inertia (Sylvester's law):
      ``lambda_1(H) < level`` when ``-(S - level diag(1/p))`` is positive
      definite.  At zero ``p_0 = 0`` and the congruence fails; a zero member
      is never settled, at any level, and its ``1/p`` is never formed.
    - ``-(S - level diag(1/p))`` is certified positive definite from its
      block ``l`` of modes ``|m| <= 4`` by :func:`_schur_certificate`: on the
      outer rows ``h`` it has the diagonal ``level / p - d`` and off-diagonal
      row sums ``sum_{j in h, j != i} |T_ij|``, and the coupling rows are
      ``T_lh``, whose ``P = T_lh T_hl`` does not depend on ``sigma`` or the
      level and is formed once.  At ``level = 0.0`` the shift is zero, and
      ``d - 0.0`` is ``d``: the certificate is ``-S``'s, bit for bit.
    - ``lambda_4(H) <= lambda_max(H_hh)`` over the rows ``hh`` of
      ``|m| >= 2`` (Cauchy interlacing), whose Gershgorin bound
      ``max_i (H_ii + sum_{j != i} sq_i sq_j |T_ij|)``, ``i`` and ``j`` in
      ``hh``, lies below ``-delta``.  ``H_ii = (d_i sq_i) sq_i`` has the
      bits :func:`_stacks` gives it.

    Like :func:`_lifted_sweep`'s certificate this is a floating-point proof
    with stated slack, not interval arithmetic: the row sums, ``P`` and the
    factorization carry :func:`_schur_certificate`'s, the rest of the
    arithmetic none, the forming of ``S``, ``1/p`` and ``H`` among it: the
    congruence holds for ``S`` as built and ``diag(sq) S diag(sq)`` exactly,
    each ``H_ij`` lying within three roundings of it, and ``sq^2 / p``
    within two of one.  Raises :class:`OutOfRange` unless ``delta`` is
    positive and finite.
    """
    check_delta(delta)
    op = _operator(roll)
    p, sh = _symbols(op, sigmas)
    T, (n, N) = op.T, p.shape
    d, sq = T.diagonal() + sh, np.sqrt(p)
    off = np.abs(sigmas) >= _SIGMA_ZERO_TOL
    # The diagonal of S - level diag(1/p), on the members off zero alone.
    dl = d - np.divide(np.reshape(level, (-1, 1)), p, out=np.zeros_like(p), where=off[:, None])
    block, crit = _rows(N, _BLOCK_MODES), _rows(N, 1)
    Tl = T[block].copy()
    Tl[:, block] = 0.0
    k = Tl.shape[0]
    A = np.empty((n, k, k))
    A[...] = -T[block, block]
    A.reshape(n, k * k)[:, :: k + 1] = -dl[:, block]
    # |T| off the diagonal with its block rows zeroed: the outer rows' Gershgorin sums are its column sums.
    definite = _schur_certificate(A, Tl, -dl, np.add.reduce(op.outer, axis=0), block)
    top = (d * sq) * sq + (1.0 + _SCHUR_ULPS * N * _EPS) * sq * (sq @ _outer_abs(T, crit))
    top[:, crit] = -np.inf
    return off & definite & (np.maximum.reduce(top, axis=1) < -delta)


def _ritz_margin(roll: RollSolution, sigmas: np.ndarray):
    """An a priori bound ``m(L)`` on how far the computed top Ritz value of a member of a checked sweep off zero, settled
    at level ``L``, can exceed ``L``: ``m(L) = (N + 1) eps (5 h + 12 |L|)`` (``_MARGIN_ULPS``, ``_LEVEL_ULPS``), ``h`` the
    largest Gershgorin row sum of ``|H|`` over the sweep, from ``|H_ii| = |d_i| p_i`` and ``|H_ij| <= sq_i sq_j |T_ij|``
    (:func:`_stacks`), so ``||H||_2 <= h``.  Returns ``m``, which takes one level or an array of them.

    Exact Rayleigh-Ritz on orthonormal columns gives no value above
    ``lambda_1`` (Courant-Fischer; Parlett, The Symmetric Eigenvalue
    Problem, ch. 10-11), so only rounding enters ``m``: that of the final
    step of :func:`_lifted_ritz` and of ``H`` as built, against the
    ``diag(sq) S diag(sq)`` of which :func:`_settled_members` proves
    ``lambda_1 < L`` (``_MARGIN_ULPS`` states each term).  All of it is
    proportional to ``eps h`` but the departure of ``Q`` from orthonormality,
    which scales the top value itself, so ``|L|``: a classifier member's
    ``lambda_1`` is of order ``eps^2 sigma^2``, far below ``h``.  So a member
    settled at ``L`` has a computed top Ritz value below ``L + m(L)``, and
    ``m`` grows with ``|L|``.  Known before any member is solved; ``h`` grows
    with ``M^6``.
    """
    op = _operator(roll)
    p, sh = _symbols(op, sigmas)
    sq, N = np.sqrt(p), p.shape[1]
    rows = np.abs((op.T.diagonal() + sh) * p) + sq * (sq @ _outer_abs(op.T, slice(0, 0)))
    h = float(np.maximum.reduce(rows, axis=None, initial=0.0))
    return lambda level: (N + 1) * _EPS * (_MARGIN_ULPS * h + _LEVEL_ULPS * np.abs(level))


def critical_sweep(roll: RollSolution, sigmas, delta: float = 1.0) -> BlochSweep:
    """The critical triples and the gaps below them over a sigma sweep, as one :class:`BlochSweep`.

    The record of :func:`_lifted_sweep`, which solves and certifies every
    member with no full eigensolve, checked for ``lambda_4 < -delta``: a
    member passes when its gap less its ``gap_radius`` exceeds ``delta``.
    The first member in sweep order that does not pass raises
    :class:`GapViolation` with its gap.  Raises :class:`OutOfRange` unless
    ``delta`` is positive and finite and every Bloch number lies in
    ``[-1/2, 1/2]``.
    """
    check_delta(delta)
    # At M = 32 the products of the lifted block underflow (H @ Q).
    with np.errstate(under="ignore"):
        sweep = _lifted_sweep(roll, sigmas)
    failed = (~(sweep.gaps - sweep.gap_radius > delta)).nonzero()[0]
    if failed.size:
        raise GapViolation(float(sweep.gaps[failed[0]]), delta)
    return sweep


def critical_modes(roll: RollSolution, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Critical eigenvalues (ascending) and real unit eigenvectors in the shifted basis.

    Column ``j`` of the vector array holds coefficients ``V_m`` of the Bloch
    eigenfunction ``e^{i sigma xi} sum_m V_m e^{i m xi}``.  The triple is
    the one :func:`critical_sweep` returns at ``sigma`` (its ``values``).
    Each vector is ``sqrt(p)`` times its lifted Ritz vector ``y`` (the
    sweep's ``vectors``) after one more Davidson correction on the rest rows,
    but for the conserved mode at ``sigma = 0``, which ``sqrt(p)`` maps to
    zero (:func:`_conserved_vector`).  The member is assembled twice, bitwise
    the same: once in the sweep, at ``|sigma|``, and once at ``sigma`` for
    the correction, whose ``sqrt(p)`` and ``H`` are then the sweep's mirrored
    as its vectors are.  Both, and the conserved vector, read the roll's
    ``T``, built once per roll; at ``sigma = 0`` the sweep's member is the
    one the roll's first sweep through zero solved (:func:`_operator`).
    Both are dropped with the roll.  No gap is certified.
    """
    # The underflows of critical_sweep, and those of the correction.
    with np.errstate(under="ignore"):
        sweep = _lifted_sweep(roll, [sigma])
        (sq,), (H,) = _stacks(roll, sweep.sigmas)
        vals, y = sweep.values[0], sweep.vectors[0]
        # The orthonormalized y carries a rounding of eps on every entry, which
        # the rest diagonal of diag(p) S, of order M^6, would turn into residuals
        # of up to 4.4e-6 at M = 32; the correction rebuilds the rest entries.
        rest = np.abs(_layout(sq.size)[1]) > _START_MODES
        y[rest] -= (H[rest] @ y - y[rest] * vals) / (np.diagonal(H)[rest, None] - vals)
        vecs = sq[:, None] * y
        norms = np.linalg.norm(vecs, axis=0)
        for j in np.flatnonzero(norms == 0.0):
            vecs[:, j], norms[j] = _conserved_vector(roll), 1.0
    return vals, vecs / norms


def critical_curves(roll: RollSolution, sigmas, delta: float = 1.0) -> list[BlochSpectrum]:
    """:func:`critical_sweep` as one :class:`BlochSpectrum` per member, with its ``sigma``, ``gap`` and triple.

    Kept only for the benchmark (``bench/workloads.py``), which reads
    ``eigenvalues`` and ``critical`` at ``sigma = 0``; no module here calls
    it.  Its other callers are the tests of this adapter and three
    one-line entry-point checks (a gap violation, a Bloch number out of
    range, an empty sweep) in ``tests/test_bloch.py``.  It goes, with
    :class:`BlochSpectrum` and those tests, at the next change to the
    benchmark (ROADMAP item 2).
    """
    sweep = critical_sweep(roll, sigmas, delta)
    return [BlochSpectrum(float(s), float(g), triple, roll) for s, g, triple in zip(sweep.sigmas, sweep.gaps, sweep.values)]
