import importlib.util
import itertools
import os
import re
import shlex
import shutil
import subprocess
import sys
import sysconfig
from fractions import Fraction
from pathlib import Path

import pytest

from confound_kit import ParameterError, build_joint, params_type
from confound_kit.kernel import available_backends

ROOT = Path(__file__).resolve().parent.parent


def _build_ckernel(out: Path, root: Path = ROOT):
    """Build the extension the way setup.py does and load it from ``out``.

    ``root`` holds setup.py and src/confound_kit/_ckernel.c.  Fails when the
    compiler warns about _ckernel.c (at Python's own CFLAGS, which include
    -Wall), so dead code such as an unused variable is caught.
    """
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    if shutil.which(shlex.split(cc)[0]) is None:
        pytest.skip(f"no C compiler ({cc}) to build the compiled kernel")
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--build-lib", str(out), "--build-temp", str(out / "tmp")],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=300,
    )
    built = out / "confound_kit" / ("_ckernel" + sysconfig.get_config_var("EXT_SUFFIX"))
    assert proc.returncode == 0 and built.is_file(), proc.stdout + proc.stderr
    warnings = re.findall(r"^.*_ckernel\.c:\d+:\d+: warning: .*$", proc.stdout + proc.stderr, re.M)
    assert not warnings, "\n".join(warnings)
    spec = importlib.util.spec_from_file_location("confound_kit._ckernel", built)
    installed = sys.modules.get(spec.name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # loading a single-phase extension module puts it in sys.modules; put
    # back what was there, so that available_backends() never returns a
    # build of this session, such as the default clone, as the installed one
    if installed is None:
        sys.modules.pop(spec.name, None)
    else:
        sys.modules[spec.name] = installed
    return module


@pytest.fixture(scope="session")
def backends(tmp_path_factory):
    """The pure and compiled kernel modules by name.

    When the compiled kernel is not installed (a source checkout on
    PYTHONPATH), _ckernel.c is built with setup.py into a temporary directory.
    """
    found = available_backends()
    if "compiled" not in found:
        found["compiled"] = _build_ckernel(tmp_path_factory.mktemp("ckernel"))
    return found


@pytest.fixture(scope="session")
def default_clone(tmp_path_factory):
    """The compiled kernel built for the default target, running the H1/H5
    loop that the installed build does not.

    On an AVX-512 host the loader always picks the x86-64-v4 clone of the
    free campaign loop and runs H1/H5 campaigns in lanes; elsewhere it runs
    them in the pool.  This builds a copy of _ckernel.c with its
    target_clones attribute removed, the lanes built for the default target
    and the CPU check that picks between lanes and pool negated, with
    setup.py as it is.  So on every host both H1/H5 loops are checked, and
    on an AVX-512 host both clones of the free loop too.
    """
    root = tmp_path_factory.mktemp("default_clone")
    source = (ROOT / "src" / "confound_kit" / "_ckernel.c").read_text()
    source, found = re.subn(r"__attribute__\(\(target_clones\([^()]*\)\)\)", "", source)
    assert found == 1, "_ckernel.c no longer names its clones in one target_clones attribute"
    source, found = re.subn(r"(#define LANES_TARGET) __attribute__\(\(target\([^()]*\)\)\)", r"\1", source)
    assert found == 1, "_ckernel.c no longer builds its lanes for one target"
    source, found = re.subn(r"\bLANES_CPU\(\)(\s*\?)", r"!LANES_CPU()\1", source)
    assert found == 1, "_ckernel.c no longer picks the H1/H5 loop with one CPU check"
    (root / "src" / "confound_kit").mkdir(parents=True)
    (root / "src" / "confound_kit" / "_ckernel.c").write_text(source)
    shutil.copy(ROOT / "setup.py", root)
    return _build_ckernel(root / "build", root)


@pytest.fixture(scope="session")
def boundary_grid():
    """(model, params, joint) for every valid exact parameter set whose slots
    all lie in {0, 1/3, 1/2, 1}: 11,264 + 8,192 + 2,048 = 21,504 sets.

    The grid holds every boundary a slot can take, so tests over it reach the
    zero-mass strata that interior draws never do.
    """
    values = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1))
    grid = []
    for model in (1, 2, 3):
        cls = params_type(model)
        for slots in itertools.product(values, repeat=len(cls._fields)):
            try:
                params = cls(*slots)
            except ParameterError:  # a = 0 or 1, or a Model 1 exposure arm empty
                continue
            grid.append((model, params, build_joint(params)))
    assert len(grid) == 21_504
    return grid


def pytest_terminal_summary(terminalreporter):
    """Print one line per acceptance criterion after capture ends."""
    module = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    if module is None or not getattr(module, "RESULTS", None):
        return
    terminalreporter.section("acceptance criteria")
    for number, status, description in sorted(module.RESULTS):
        terminalreporter.write_line(f"{status}: criterion {number}: {description}")
