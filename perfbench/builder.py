"""Build confound_kit the way setup.py does, into a tree the benchmark owns.

setup.py, pyproject.toml and src/ are copied to .bench_build/<key>/stage and
built there, because setup.py's egg_info step writes next to the sources:
nothing is written into src/.  Whatever setup.py builds (the pure package
today, a compiled kernel once setup.py compiles one) is what gets measured.

The built tree is byte-compiled.  With PYTHONDONTWRITEBYTECODE=1 no .pyc
files would otherwise exist, and every cold CLI start would pay for
compiling the sources.  A finished build is reused while its inputs and the
interpreter are unchanged; its key is a hash of both.
"""

import compileall
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import sysconfig
import time
from pathlib import Path

BUILD_DIR = ".bench_build"
_TOP_FILES = ("setup.py", "pyproject.toml", "setup.cfg", "MANIFEST.in", "README.md", "LICENSE")


class BuildError(Exception):
    pass


def _sources(root: Path) -> list:
    files = [root / name for name in _TOP_FILES if (root / name).is_file()]
    files += sorted(
        p
        for p in (root / "src").rglob("*")
        if p.is_file() and not any(part == "__pycache__" or part.endswith(".egg-info") for part in p.parts)
    )
    return files


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def build(root: Path) -> dict:
    """Build (or reuse) the package; return the run facts, including ``lib``."""
    if not (root / "setup.py").is_file() or not (root / "src").is_dir():
        raise BuildError(f"{root} has no setup.py and src/; run from a checkout of the repository")
    files = _sources(root)
    digest = hashlib.sha256(sys.version.encode())
    for path in files:
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes() + b"\0")
    out = root / BUILD_DIR / digest.hexdigest()[:16]
    stamp = out / "build.json"
    if stamp.is_file():
        facts = json.loads(stamp.read_text())
        facts["build_cached"] = True
        return facts

    shutil.rmtree(out, ignore_errors=True)
    stage = out / "stage"
    for path in files:
        dest = stage / path.relative_to(root)
        dest.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(path, dest)
    lib = out / "lib"
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "setup.py", "build", "--build-base", str(out / "build"), "--build-lib", str(lib)],
        cwd=stage,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        raise BuildError(f"setup.py build exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    if not compileall.compile_dir(str(lib), quiet=1):
        raise BuildError(f"byte-compiling {lib} failed")
    build_s = time.perf_counter() - start

    facts = {
        "lib": str(lib),
        "build_s": build_s,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "cc": sysconfig.get_config_var("CC"),
        "cflags": sysconfig.get_config_var("CFLAGS"),
        # The compile commands setup.py ran (none when no extension is built).
        "compile_commands": [line for line in proc.stdout.splitlines() if " -c " in line and " -o " in line],
    }
    stamp.write_text(json.dumps(facts, indent=1))
    facts["build_cached"] = False
    return facts
