"""The one comparison of a pinned record, and the spies on ``bloch``'s linear algebra.

:func:`assert_pinned` holds arrays to an ``np.savez_compressed`` file under
``data/``: the same key set, then key by key the same dtype, shape and bytes.
:func:`linalg_calls` and :func:`cholesky_calls` record the stacks that
``bloch``'s eigensolves and Cholesky see.
"""

from pathlib import Path

import numpy as np

from conslaw import bloch

DATA = Path(__file__).parent / "data"


def assert_pinned(fixture, got, row=None):
    """Hold ``got``, arrays by key, to ``data/<fixture>`` bit for bit; with ``row``, to that row of each pinned array."""
    with np.load(DATA / fixture) as pinned:
        assert sorted(got) == sorted(pinned.files), fixture
        for key, a in got.items():
            a, want = np.asarray(a), pinned[key] if row is None else pinned[key][row]
            assert (a.dtype, a.shape) == (want.dtype, want.shape), key
            assert a.tobytes() == want.tobytes(), key


def cholesky_calls(monkeypatch):
    """The shapes of the stacks ``bloch._cholesky`` factors from here on, in call order."""
    calls = []
    kernel = bloch.cholesky_lo

    def spy(A, **kwargs):
        calls.append(A.shape)
        return kernel(A, **kwargs)

    monkeypatch.setattr(bloch, "cholesky_lo", spy)
    return calls


def linalg_calls(monkeypatch, *names):
    """``(name, shape)`` of each call, from here on, of the ``np.linalg`` functions named and of ``bloch``'s binding of their stacked kernels."""
    calls = []

    def spy(name, f):
        def wrapped(a, *args, **kwargs):
            calls.append((name, np.shape(a)))
            return f(a, *args, **kwargs)

        return wrapped

    for name in names:
        monkeypatch.setattr(bloch.np.linalg, name, spy(name, getattr(np.linalg, name)))
        if hasattr(bloch, f"{name}_lo"):
            monkeypatch.setattr(bloch, f"{name}_lo", spy(name, getattr(bloch, f"{name}_lo")))
    return calls
