"""The native kernels, built on first use and loaded via ctypes.

``_kernels.c`` holds the two count-only kernels of the discovery loop, one
per validator, and the scatter of sorted partitions:

* ``oc_removal_count`` fuses the two steps of Algorithm 2's AOC count that
  the NumPy backend otherwise runs as array passes plus a Python-level
  patience loop: the clean-class screen and the LNDS of every dirty class.
  The backend hands it one candidate's class-sorted ``B`` projection at a
  time (see ``NumpyBackend._native_counts``).
* ``ofd_removal_count`` is TANE's ``g3`` AOFD count: one frequency pass per
  class over one RHS rank column, through a reusable scratch of counters
  (see ``NumpyBackend.ofd_removal_batch``).
* ``scatter_classes`` walks a cached row order of the whole table (see
  ``EncodedRelation.row_order_by_index`` and ``pair_order``) and appends
  each grouped row, or its value, to its class's bucket: every class comes
  out sorted in O(n).  Partition refinement takes the buckets of rows; an
  OC batch takes each pair's buckets of ``B`` values and counts them in the
  same call, as ``oc_removal_count`` would.

The first :func:`kernels` call in a process compiles the source with
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
line goes to the ``repro`` logger and :func:`kernels` returns ``None``;
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
from typing import Callable, List, NamedTuple, Optional

import numpy as np

from repro.obs import get_logger

log = get_logger("backend")

SOURCE = Path(__file__).with_name("_kernels.c")
BUILD_COMMAND = ("gcc", "-O2", "-shared", "-fPIC")
#: Marks the SHA-256 trailer :func:`_build` appends to the library.
_TRAILER_MAGIC = b"repro-kernels"
_TRAILER_SIZE = len(_TRAILER_MAGIC) + hashlib.sha256().digest_size
#: The C ``limit`` that stands for "no removal budget".
_NO_LIMIT = int(np.iinfo(np.int64).max)


class Kernels(NamedTuple):
    """The typed entry points of one loaded library; see :func:`_bind`."""

    #: ``(values, offsets, tails, limit) -> count``
    oc_removal_count: Callable[..., int]
    #: ``(ranks, rows, offsets, freq, limit) -> count``
    ofd_removal_count: Callable[..., int]
    #: ``(class_of, offsets, out, orders, values=None, tails=None,
    #: limit=None) -> [count per order]``
    scatter_classes: Callable[..., List[int]]


def default_cache_dir() -> Path:
    """The per-user build cache, ``~/.cache/repro``."""
    return Path.home() / ".cache" / "repro"


def library_path(cache_dir: Path) -> Path:
    """Where the library built from the current source lives in ``cache_dir``."""
    key = hashlib.sha256(SOURCE.read_bytes())
    key.update(" ".join((*BUILD_COMMAND, platform.machine())).encode())
    return Path(cache_dir) / f"kernels-{key.hexdigest()[:16]}.so"


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


def _bind(path: Path) -> Kernels:
    """Load the library and wrap its typed entry points."""
    library = ctypes.CDLL(str(path))
    int64s = np.ctypeslib.ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS")
    int32s = np.ctypeslib.ndpointer(np.int32, ndim=1, flags="C_CONTIGUOUS")
    scratch = np.ctypeslib.ndpointer(
        np.int64, ndim=1, flags="C_CONTIGUOUS,WRITEABLE"
    )
    size = ctypes.c_int64
    oc = library.oc_removal_count
    oc.argtypes = [int64s, size, int64s, size, scratch, size, size]
    ofd = library.ofd_removal_count
    ofd.argtypes = [int32s, size, int64s, size, int64s, size, scratch, size, size]
    # The scatter runs once per OC candidate, so its arrays are checked in
    # Python and passed as bare addresses: with ndpointer conversion a call
    # cost ~45 us before any work, half as much as walking a 16k-row order.
    scatter = library.scatter_classes
    address = ctypes.c_void_p
    scatter.argtypes = [address, size] * 7 + [size]
    oc.restype = ofd.restype = scatter.restype = ctypes.c_int64

    def checked(count):
        if count < 0:
            raise ValueError("kernel inputs do not fit their arrays")
        return count

    def budget(limit):
        return _NO_LIMIT if limit is None else int(limit)

    def oc_removal_count(values, offsets, tails, limit):
        """Algorithm 2's removal count over the classes ``offsets`` cuts
        ``values`` into (each ``[A ASC, B ASC]``-ordered), stopping after
        the first class that takes it above ``limit``.  ``tails`` is
        scratch at least as long as the longest class."""
        return checked(oc(
            values, values.size, offsets, offsets.size - 1, tails, tails.size,
            budget(limit),
        ))

    def ofd_removal_count(ranks, rows, offsets, freq, limit):
        """The ``g3`` removal count of the ``int32`` column ``ranks`` over
        the classes ``offsets`` cuts ``rows`` into, stopping after the
        first class that takes it above ``limit``.  ``freq`` is zeroed
        scratch with one counter per rank; it is zeroed again on return."""
        return checked(ofd(
            ranks, ranks.size, rows, rows.size, offsets, offsets.size - 1,
            freq, freq.size, budget(limit),
        ))

    def pointer(array, dtype, writable=False):
        """The address of a C-contiguous 1-d ``dtype`` array."""
        if not (
            isinstance(array, np.ndarray) and array.dtype == dtype
            and array.ndim == 1 and array.flags.c_contiguous
            and (array.flags.writeable or not writable)
        ):
            raise ValueError(
                f"expected a C-contiguous 1-d {np.dtype(dtype)} array"
                + (", writable" if writable else "")
            )
        return array.ctypes.data

    def scatter_classes(class_of, offsets, out, orders, values=None,
                        tails=None, limit=None):
        """Per ``int32`` row permutation in ``orders``, append each grouped
        row to its class's bucket in ``out``, walking the permutation.

        ``class_of`` (``int32``) maps every row to its class, ``-1`` for
        rows in no class, and is left as it was; ``offsets`` cuts ``out``
        into one bucket per class.  With ``values`` (one ``int32`` column
        per order) a bucket gets ``values[i][row]`` instead of the row.
        With ``tails`` each scatter is then counted as in
        :func:`oc_removal_count`.  Returns one count per order (0 without
        ``tails``).  A wrong dtype or layout raises ``ValueError`` like any
        other input that does not fit."""
        cursor = np.empty(max(offsets.size, 1), dtype=np.int64)
        shared = (
            pointer(class_of, np.int32, True), class_of.size,
            pointer(offsets, np.int64), offsets.size - 1,
            cursor.ctypes.data, cursor.size,
        )
        sink = (
            pointer(out, np.int64, True), out.size,
            *((None, -1) if tails is None
              else (pointer(tails, np.int64, True), tails.size)),
            budget(limit),
        )
        counts = []
        for i, order in enumerate(orders):
            column = (None, -1) if values is None else (
                pointer(values[i], np.int32), values[i].size
            )
            counts.append(checked(scatter(
                pointer(order, np.int32), order.size, *shared, *column, *sink
            )))
        return counts

    return Kernels(oc_removal_count, ofd_removal_count, scatter_classes)


def load_kernels(cache_dir: Optional[Path] = None) -> Optional[Kernels]:
    """Load the kernels from ``cache_dir`` (default: :func:`default_cache_dir`),
    building the library first when it is missing or damaged.

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
    log.info("native kernels unavailable (%s); using the numpy kernels", reason)
    return None


@functools.lru_cache(maxsize=None)
def kernels() -> Optional[Kernels]:
    """This process's kernels, loaded (and built if needed) on the first
    call; ``None`` when they are unavailable."""
    return load_kernels()
