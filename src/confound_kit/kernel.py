"""Campaign kernel backend selection.

The compiled extension (_ckernel.c, built by setup.py when a C compiler is
available) is used when it imports, and the pure-Python reference kernel
otherwise.  Both backends implement the same stream and arithmetic, so
campaign reports do not depend on which one ran; ``available_backends``
reaches both for parity tests and benchmarks.
"""

from . import _pykernel

try:
    from . import _ckernel as _impl

    BACKEND = "compiled"
except ImportError:
    _impl = _pykernel
    BACKEND = "pure"

EQ_NONE = _pykernel.EQ_NONE
EQ_H1 = _pykernel.EQ_H1
EQ_H5 = _pykernel.EQ_H5
IRRELEVANT = _pykernel.IRRELEVANT
NO_CONFOUNDING = _pykernel.NO_CONFOUNDING


def run_campaign(model, rep, eq, conclusion, start, count, seed, tol, budget):
    """Dispatch one campaign chunk to the selected backend.

    Both backends reduce the seed modulo 2**64 themselves.
    """
    return _impl.run_campaign(model, rep, eq, conclusion, start, count, seed, tol, budget)


def available_backends() -> dict:
    """Importable kernel modules by name, for benchmarks and parity tests."""
    backends = {"pure": _pykernel}
    try:
        from . import _ckernel

        backends["compiled"] = _ckernel
    except ImportError:
        pass
    return backends
