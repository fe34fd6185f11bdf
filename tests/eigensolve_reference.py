"""Independent references for the lifted engine's critical triples and its certificate.

:func:`reference_triples`: a full ``eigh`` of each ``H = sqrt(p) S
sqrt(p)``, then two inverse-iteration steps and a Rayleigh-Ritz step on the
eigenvectors of the three values nearest zero.  At ``sigma = 0`` the ``m = 0``
row and column of ``H`` vanish, so they are dropped first and the exact zero
is set beside the two values nearest zero of the rest.  Its accuracy is about
``eps ||G||`` off the zone edge; at ``sigma = +-1/2``, where the third and
fourth eigenvalues nearly meet, it may be off by up to about 1e-12 and the
40-digit oracle decides.

:func:`full_certificate`: the inertia certificate on the whole ``N x N``
matrix, one stacked Cholesky of ``A = c Y Y^T + tau I - H``, against which
the engine's block certificate is checked.
"""

import numpy as np

from conslaw import bloch


def _solve(A, B):
    """Stacked ``A^{-1} B``; a singular member gets the solve shifted by ``1e-10 I``."""
    try:
        return np.linalg.solve(A, B)
    except np.linalg.LinAlgError:
        X = np.empty(B.shape)
    for i, (a, b) in enumerate(zip(A, B)):
        try:
            X[i] = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            X[i] = np.linalg.solve(a + 1e-10 * np.eye(len(a)), b)
    return X


def _near_zero(H, k):
    """The ``k`` Ritz values nearest zero of each ``H``, ascending, after inverse iteration."""
    w, V = np.linalg.eigh(H)
    crit = np.argsort(np.abs(w), axis=1)[:, :k]
    Y = np.take_along_axis(V, crit[:, None, :], axis=2)
    for _ in range(2):
        Y, _ = np.linalg.qr(_solve(H, Y))
    return bloch._rayleigh_ritz(H, Y)[0]


def reference_triples(roll, sigmas):
    """Critical triples ``(n, 3)``, ascending, of a sweep by eigensolve and inverse iteration."""
    sigmas = np.asarray(sigmas, dtype=float).reshape(-1)
    sq, H = bloch._stacks(roll, sigmas)
    N = H.shape[1]
    zero = sq[:, N // 2] == 0.0
    vals = np.empty((sigmas.size, 3))
    if (~zero).any():
        vals[~zero] = _near_zero(H[~zero], 3)
    if zero.any():
        keep = np.arange(N) != N // 2
        deflated = np.ascontiguousarray(H[zero][:, keep][:, :, keep])
        pair = _near_zero(deflated, 2)
        vals[zero] = np.sort(np.concatenate([np.zeros((len(pair), 1)), pair], axis=1), axis=1)
    return vals


def certificate_inputs(roll, sigmas):
    """``sq, H, outer, Y, c, tau, rows`` of the engine's inertia certificate over a sweep built at ``sigmas``.

    ``outer`` is the roll's masked ``|T|``; ``tau`` lies halfway between
    ``rho_4 - r4`` and the fifth Ritz value, and ``c = 2 (max rho - tau)``,
    as in ``bloch._lifted_sweep``; ``rows`` are the block's, the Bloch modes
    ``|m| <= 4``.
    """
    sq, H = bloch._stacks(roll, np.asarray(sigmas, dtype=float).reshape(-1))
    N = H.shape[1]
    theta, Y, _, r4 = bloch._lifted_ritz(H, bloch._rows(N, bloch._START_MODES))
    tau = 0.5 * (theta[:, 1] - r4 + theta[:, 0])
    return sq, H, bloch._operator(roll).outer, Y, 2.0 * (theta[:, -1] - tau), tau, bloch._rows(N, bloch._BLOCK_MODES)


def full_certificate(H, Y, c, tau):
    """Whether each ``A = c Y Y^T + tau I - H`` ``(n, N, N)`` is positive definite, by one stacked Cholesky of ``A``."""
    n, N, _ = H.shape
    A = np.matmul(Y, Y.swapaxes(1, 2))
    A *= c[:, None, None]
    A -= H
    A.reshape(n, N * N)[:, :: N + 1] += tau[:, None]
    L = bloch._cholesky(A, out=A)
    return np.isfinite(np.diagonal(L, axis1=1, axis2=2)).all(axis=1)
