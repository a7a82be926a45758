"""Build and load the native replay core (``_replay.c``).

The library is compiled on first use with the compiler Python was built
with (``sysconfig``'s ``CC``) and the fixed :data:`FLAGS`, and cached
beside its source, in ``__pycache__/_replay-<hash>.so``, the hash
covering the source and the compile command.  A build writes a temporary file and publishes
it with an atomic rename, so concurrent builders never see a partial
library.  The library is loaded once per process; forked workers
inherit it.  When no compiler works, :func:`load` issues one
``RuntimeWarning`` and returns None, and every run takes the reference
loop (``Simulator.can_replay`` reads False).

:func:`main` builds and loads it and prints the compiler, the flags and
the library path, raising when the build fails (CI's first step).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import subprocess
import sysconfig
import tempfile
import warnings
from pathlib import Path

SOURCE = Path(__file__).with_name("_replay.c")
#: Where built libraries are cached (not a package directory, so the
#: library is never mistaken for a Python module).
CACHE_DIR = SOURCE.parent / "__pycache__"
#: Compile flags.  ``-ffp-contract=off`` keeps every multiply and add
#: separately rounded, as in Python; no ``-march``, so a cached library
#: runs on any host of the architecture.
FLAGS = ("-O2", "-std=c99", "-fPIC", "-shared", "-ffp-contract=off")
LIBS = ("-lm",)

_UNSET = object()
_lib = _UNSET


def compiler():
    """The compiler command Python was built with."""
    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def _command(cc, output):
    return [*cc, *FLAGS, "-o", str(output), str(SOURCE), *LIBS]


def _library_path(cc):
    """Cache path of the library built from the current source by ``cc``."""
    key = hashlib.sha256(SOURCE.read_bytes())
    key.update(" ".join(_command(cc, "")).encode())
    return Path(CACHE_DIR) / f"_replay-{key.hexdigest()[:16]}.so"


def build(cc=None):
    """Compile the library unless it is cached; returns its path.

    Raises ``OSError`` or ``subprocess.CalledProcessError`` when the
    compiler is missing or fails.
    """
    cc = compiler() if cc is None else cc
    path = _library_path(cc)
    if path.exists():
        return path
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=path.stem + ".", suffix=".tmp",
                               dir=path.parent)
    os.close(fd)
    try:
        subprocess.run(_command(cc, tmp), check=True, capture_output=True)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def _bind(lib):
    lib.piuma_replay.argtypes = [ctypes.c_void_p]
    lib.piuma_replay.restype = ctypes.c_int
    lib.piuma_backfill.argtypes = [
        ctypes.c_void_p, ctypes.c_void_p, ctypes.POINTER(ctypes.c_int64),
        ctypes.c_int64, ctypes.c_double, ctypes.c_double,
    ]
    lib.piuma_backfill.restype = ctypes.c_double
    return lib


def load():
    """The loaded library, built on first use; None when no compiler
    works (one ``RuntimeWarning`` per process)."""
    global _lib
    if _lib is _UNSET:
        try:
            _lib = _bind(ctypes.CDLL(str(build())))
        except (OSError, subprocess.CalledProcessError) as error:
            _lib = None
            reason = str(error)
            stderr = getattr(error, "stderr", None)
            if stderr:
                reason += ": " + stderr.decode(errors="replace").strip()
            warnings.warn(
                f"native replay core unavailable ({reason}); runs take "
                "the reference loop", RuntimeWarning, stacklevel=2,
            )
    return _lib


def main():
    """Build and load the library, printing how; raises on failure."""
    cc = compiler()
    print("compiler:", " ".join(cc))
    print("flags:", " ".join(FLAGS + LIBS))
    path = build(cc)
    _bind(ctypes.CDLL(str(path)))
    print("library:", path)
