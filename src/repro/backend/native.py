"""The native OC removal-count kernel, built on first use and loaded via ctypes.

``_oc_kernel.c`` fuses the two steps of Algorithm 2's count-only kernel
that the NumPy backend otherwise runs as array passes plus a Python-level
patience loop: the clean-class screen and the LNDS of every dirty class.
The backend hands it one candidate's class-sorted ``B`` projection at a
time (see ``NumpyBackend._native_counts``).

The first :func:`oc_kernel` call in a process compiles the source with
``gcc -O2 -shared -fPIC`` into ``~/.cache/repro/`` and loads it with
:mod:`ctypes`.  The library's file name carries a hash of the source, the
build command and the machine type, so an edited source never loads a
stale build.  The compiler writes a temporary file that is renamed into
place, so processes doing first use at once (pool workers, test runners,
benchmark probes) each load a complete library.  A SHA-256 trailer is
appended to the library (the dynamic loader ignores trailing bytes); a
file whose trailer does not match, such as a truncated one, is rebuilt and
never loaded.  A cache directory owned by another user, or writable by
group or others, is refused: loading from it would run code someone else
could have written.

Without a compiler, after a failed build or with a refused cache, one INFO
line goes to the ``repro`` logger and :func:`oc_kernel` returns ``None``;
the NumPy backend then keeps its pure-NumPy kernels.  Results are identical
either way.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import os
import platform
import subprocess
import tempfile
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from repro.obs import get_logger

log = get_logger("backend")

SOURCE = Path(__file__).with_name("_oc_kernel.c")
BUILD_COMMAND = ("gcc", "-O2", "-shared", "-fPIC")
#: Marks the SHA-256 trailer :func:`_build` appends to the library.
_TRAILER_MAGIC = b"repro-oc"
_TRAILER_SIZE = len(_TRAILER_MAGIC) + hashlib.sha256().digest_size
#: The C ``limit`` that stands for "no removal budget".
_NO_LIMIT = int(np.iinfo(np.int64).max)

#: ``removal_count(values, offsets, tails, limit) -> count``; see
#: :func:`_bind`.
OcKernel = Callable[[np.ndarray, np.ndarray, np.ndarray, Optional[int]], int]


def default_cache_dir() -> Path:
    """The per-user build cache, ``~/.cache/repro``."""
    return Path.home() / ".cache" / "repro"


def library_path(cache_dir: Path) -> Path:
    """Where the library built from the current source lives in ``cache_dir``."""
    key = hashlib.sha256(SOURCE.read_bytes())
    key.update(" ".join((*BUILD_COMMAND, platform.machine())).encode())
    return Path(cache_dir) / f"oc_kernel-{key.hexdigest()[:16]}.so"


def _refusal(cache_dir: Path) -> Optional[str]:
    """Why code must not be loaded from ``cache_dir``, or ``None``."""
    getuid = getattr(os, "getuid", None)
    if getuid is None:
        return "file ownership cannot be checked on this platform"
    info = os.stat(cache_dir)
    if info.st_uid != getuid():
        return f"{cache_dir} is owned by uid {info.st_uid}"
    if info.st_mode & 0o022:
        return f"{cache_dir} is group- or world-writable"
    return None


def _sealed(body: bytes) -> bytes:
    return body + _TRAILER_MAGIC + hashlib.sha256(body).digest()


def _intact(path: Path) -> bool:
    """Whether ``path`` is a complete library sealed by :func:`_build`."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return False
    return len(data) > _TRAILER_SIZE and data == _sealed(data[:-_TRAILER_SIZE])


def _build(path: Path) -> None:
    """Compile into a temporary file, seal it and rename it into place."""
    fd, temporary = tempfile.mkstemp(
        prefix=path.stem + ".", suffix=".tmp", dir=path.parent
    )
    os.close(fd)
    try:
        subprocess.run(
            [*BUILD_COMMAND, "-o", temporary, str(SOURCE)],
            check=True, capture_output=True, timeout=120,
        )
        built = Path(temporary)
        built.write_bytes(_sealed(built.read_bytes()))
        os.replace(temporary, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temporary)


def _bind(path: Path) -> OcKernel:
    """Load the library and wrap its typed entry point."""
    function = ctypes.CDLL(str(path)).oc_removal_count
    array = np.ctypeslib.ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS")
    scratch = np.ctypeslib.ndpointer(
        np.int64, ndim=1, flags="C_CONTIGUOUS,WRITEABLE"
    )
    size = ctypes.c_int64
    function.argtypes = [array, size, array, size, scratch, size, size]
    function.restype = ctypes.c_int64

    def removal_count(values, offsets, tails, limit):
        """Algorithm 2's removal count over the classes ``offsets`` cuts
        ``values`` into (each ``[A ASC, B ASC]``-ordered), stopping after
        the first class that takes it above ``limit``.  ``tails`` is
        scratch at least as long as the longest class."""
        count = function(
            values, values.size, offsets, offsets.size - 1, tails, tails.size,
            _NO_LIMIT if limit is None else int(limit),
        )
        if count < 0:
            raise ValueError(
                "class offsets do not fit the value or scratch arrays"
            )
        return count

    return removal_count


def load_oc_kernel(cache_dir: Optional[Path] = None) -> Optional[OcKernel]:
    """Load the kernel from ``cache_dir`` (default: :func:`default_cache_dir`),
    building it first when it is missing or damaged.

    Returns ``None``, after one INFO log line saying why, when there is no
    compiler, the build fails or the cache directory is refused.
    """
    try:
        cache_dir = default_cache_dir() if cache_dir is None else Path(cache_dir)
        cache_dir.mkdir(mode=0o700, parents=True, exist_ok=True)
        reason = _refusal(cache_dir)
        if reason is None:
            path = library_path(cache_dir)
            if not _intact(path):
                _build(path)
            return _bind(path)
    except subprocess.CalledProcessError as error:
        reason = f"gcc failed: {error.stderr.decode(errors='replace').strip()}"
    except (OSError, RuntimeError, subprocess.SubprocessError) as error:
        reason = str(error)
    log.info("native OC kernel unavailable (%s); using the numpy kernels", reason)
    return None


@functools.lru_cache(maxsize=None)
def oc_kernel() -> Optional[OcKernel]:
    """This process's kernel, loaded (and built if needed) on the first
    call; ``None`` when it is unavailable."""
    return load_oc_kernel()
