"""Campaign kernel backend selection.

The compiled extension (_ckernel.c, built by setup.py when a C compiler is
available) is used when it imports, and the pure-Python reference kernel
otherwise.  Both backends implement the same stream and arithmetic, so
campaign reports do not depend on which one ran; ``available_backends``
reaches both for parity tests and benchmarks.

Importing this module loads the selected backend alone: ``_pykernel`` loads
only when ``_ckernel`` does not import, or when ``available_backends`` is
called.  The kernel argument codes are defined here, before the backend
import, and ``_pykernel`` reads them from here, so either module may be
imported first.
"""

# equational-constraint codes
EQ_NONE, EQ_H1, EQ_H5 = 0, 1, 2
# conclusion codes
IRRELEVANT, NO_CONFOUNDING = 0, 1

try:
    from . import _ckernel as _impl

    BACKEND = "compiled"
except ImportError:
    from . import _pykernel as _impl

    BACKEND = "pure"


def run_campaign(model, rep, eq, conclusion, start, count, seed, tol, budget):
    """Run one float campaign, samples [start, start+count), on the selected
    backend.

    ``theorems.verify_clause`` calls the backend, ``_impl``, directly; this
    entry is kept for callers outside the package, such as perfbench, which
    call it positionally.  Both backends read start, count and seed alike
    (see ``_pykernel.run_campaign``).
    """
    return _impl.run_campaign(model, rep, eq, conclusion, start, count, seed, tol, budget)


def available_backends() -> dict:
    """Importable kernel modules by name, for benchmarks and parity tests."""
    from . import _pykernel

    backends = {"pure": _pykernel}
    try:
        from . import _ckernel

        backends["compiled"] = _ckernel
    except ImportError:
        pass
    return backends
