"""The native kernels, built on first use and loaded via ctypes.

``_kernels.c`` holds the two count-only kernels of the discovery loop, one
per validator, and partition refinement over sorted partitions:

* ``oc_removal_batch`` is Algorithm 2's AOC count for a whole context
  batch in one call.  Per pair and per class, in order, it gathers the
  ``(A, B)`` ranks of the class's rows into one packed key each, sorts the
  keys (insertion sort up to 32 rows, 8-bit LSD radix above), screens the
  class and runs a galloping patience LNDS over ``B`` if it is dirty.  A
  pair stops after the class that takes it over the removal budget, so it
  pays only for the classes it inspects (see
  ``NumpyBackend._native_counts``).
* ``ofd_removal_count`` is TANE's ``g3`` AOFD count: one frequency pass per
  class and RHS rank column, every column of a batch in one call, through
  a reusable scratch of counters (see ``NumpyBackend.ofd_removal_batch``).
* ``refine_partition`` refines a partition by one rank column in a single
  call: it walks the column's cached ``(rank, row)`` order (see
  ``EncodedRelation.row_order_by_index``), buckets each parent class's rows
  in that order, cuts every bucket where the rank changes, drops the
  singletons and writes the child classes in canonical order, by first
  row, through a row-indexed mark array: O(n) and no sort (see
  ``NumpyBackend.partition_refine``; level-1 partitions are the unit
  partition refined the same way).

Each entry runs once per batch or refinement, so the bindings check dtype
and layout in Python and pass bare addresses rather than paying for
``ndpointer`` conversion on every call.

The library is loaded with ``ctypes.CDLL``, which releases the GIL for the
duration of each call.  Discovery relies on that: its OC plane
(``repro.validation.distributed``) counts OC groups on threads while the
coordinator keeps working, so do not switch to ``ctypes.PyDLL``,
which holds the GIL and would serialise them again.

The first :func:`kernels` call in a process compiles the source with
``gcc -O2 -shared -fPIC`` into ``~/.cache/repro/`` and loads it with
:mod:`ctypes`.  The library's file name carries a hash of the source, the
build command and the machine type, so an edited source never loads a
stale build.  The compiler writes a temporary file that is renamed into
place, so processes doing first use at once (test runners, benchmark
probes) each load a complete library.  A SHA-256 trailer is
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
from itertools import chain
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

    #: ``(rows, offsets, pairs, scratch, limit) -> [count per pair]``
    oc_removal_batch: Callable[..., List[int]]
    #: ``(columns, rows, offsets, freq, limit) -> [count per column]``
    ofd_removal_count: Callable[..., List[int]]
    #: ``(rows, offsets, ranks, order, mark, out_rows, out_offsets)
    #: -> number of child classes``
    refine_partition: Callable[..., int]


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
    """Load the library and wrap its typed entry points.

    Every entry runs once per context batch or refinement, so its arrays
    are checked here and passed as bare addresses: ``ndpointer`` conversion
    cost ~30-45 us per call before any work.
    """
    library = ctypes.CDLL(str(path))
    size, address = ctypes.c_int64, ctypes.c_void_p
    oc = library.oc_removal_batch
    oc.argtypes = [address, size] * 2 + [address, size, size, address, size,
                                         address, size, size, address]
    ofd = library.ofd_removal_count
    ofd.argtypes = [address, size] * 2 + [address, size, size, address, size,
                                          size, address]
    refine = library.refine_partition
    refine.argtypes = [address, size] * 8
    oc.restype = ofd.restype = refine.restype = ctypes.c_int64

    def checked(status):
        if status < 0:
            raise ValueError("kernel inputs do not fit their arrays")

    def budget(limit):
        return _NO_LIMIT if limit is None else int(limit)

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

    def classes(rows, offsets):
        """The ``(rows, offsets)`` CSR arguments: ``offsets`` cuts the
        ``int64`` ``rows`` into one class each."""
        return (
            pointer(rows, np.int64), rows.size,
            pointer(offsets, np.int64), offsets.size - 1,
        )

    def table(columns):
        """The address array and common length of ``int32`` columns."""
        addresses = np.array(
            [pointer(column, np.int32) for column in columns], dtype=np.uintp
        )
        lengths = {column.size for column in columns}
        if len(lengths) > 1:
            raise ValueError("rank columns differ in length")
        return addresses, addresses.size, lengths.pop() if lengths else 0

    def oc_removal_batch(rows, offsets, pairs, scratch, limit):
        """Algorithm 2's removal count of each ``(A, B)`` pair of ``int32``
        rank columns over the classes ``offsets`` cuts ``rows`` into, each
        class sorted by ``[A ASC, B ASC]`` on demand, stopping after the
        first class that takes it above ``limit``.  ``scratch`` (``int64``)
        holds two slots per row of the longest class."""
        # Pairs share columns: each distinct one is checked once.
        ends = list(chain.from_iterable(pairs))
        distinct = list({id(column): column for column in ends}.values())
        position = {id(column): i for i, column in enumerate(distinct)}
        addresses, num_columns, length = table(distinct)
        ends = np.array([position[id(column)] for column in ends], dtype=np.int64)
        counts = np.empty(len(pairs), dtype=np.int64)
        checked(oc(
            *classes(rows, offsets), addresses.ctypes.data, num_columns,
            length, ends.ctypes.data, len(pairs),
            pointer(scratch, np.int64, True), scratch.size, budget(limit),
            counts.ctypes.data,
        ))
        return counts.tolist()

    def ofd_removal_count(columns, rows, offsets, freq, limit):
        """The ``g3`` removal count of each ``int32`` rank column in
        ``columns`` over the classes ``offsets`` cuts ``rows`` into,
        stopping after the first class that takes it above ``limit``.
        ``freq`` is zeroed ``int64`` scratch with one counter per rank; it
        is zeroed again on return."""
        addresses, num_columns, length = table(columns)
        counts = np.empty(num_columns, dtype=np.int64)
        checked(ofd(
            *classes(rows, offsets), addresses.ctypes.data, num_columns,
            length, pointer(freq, np.int64, True), freq.size, budget(limit),
            counts.ctypes.data,
        ))
        return counts.tolist()

    def refine_partition(rows, offsets, ranks, order, mark, out_rows,
                         out_offsets):
        """Refine the classes ``offsets`` cuts ``rows`` into by the
        ``int32`` rank column ``ranks``, walking ``order``, the ``int32``
        permutation of every row in ``(rank, row)`` order.

        The child classes, in canonical form (ascending, ordered by first
        row, no singletons), go to the ``int64`` arrays ``out_rows`` and
        ``out_offsets``; returns their number.  ``mark`` is ``int32``
        scratch with one slot per row.  Parent classes that share a row
        raise ``ValueError``."""
        work = np.empty(rows.size + max(offsets.size - 1, rows.size),
                        dtype=np.int32)
        num_classes = refine(
            *classes(rows, offsets), pointer(ranks, np.int32), ranks.size,
            pointer(order, np.int32), order.size,
            pointer(mark, np.int32, True), mark.size,
            work.ctypes.data, work.size,
            pointer(out_rows, np.int64, True), out_rows.size,
            pointer(out_offsets, np.int64, True), out_offsets.size,
        )
        checked(num_classes)
        return num_classes

    return Kernels(oc_removal_batch, ofd_removal_count, refine_partition)


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
