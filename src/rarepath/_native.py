"""Build and load ``_lanes.c``: the passage and inverse-Bessel lane steps,
and numpy's standard normal sampler that ``rng`` draws all normals with.

The source is compiled with the system C compiler (``cc``) on first use
and cached in the package's ``__pycache__`` directory, under a name keyed
by the sha256 of the source and the compiler flags; it is written under a
temporary name and moved into place, so concurrent builds never expose a
partial file, and builds of other keys left there are then removed.
Where that directory is not writable the library is built in a private
temporary directory, loaded, and removed.  A build that fails raises
:class:`KernelUnavailable`.  Calls go through :mod:`ctypes`, which
releases the interpreter lock for their duration, so lane batches and
their draws on worker threads run in parallel.
"""

import ctypes
import hashlib
import os
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

from .errors import InvalidArgument, KernelUnavailable

SOURCE = Path(__file__).with_name("_lanes.c")
# no -ffast-math or -march=native, which may reorder or fuse operations:
# every step must round exactly as the pinned engine outputs record
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

_I64, _F64, _INT, _PTR = ctypes.c_int64, ctypes.c_double, ctypes.c_int, ctypes.c_void_p
_SIGNATURES = {  # name: (return type, argument types)
    # n, step, N, h, sq, L, track_occ, bridge, then 3 draw, 10 state and
    # 2 record buffers
    "is_step": (_I64, [_I64, _I64, _F64, _F64, _F64, _F64, _INT, _INT] + [_PTR] * 15),
    # n, step, N, h, sq, a_coef, L, track_occ, bridge, then 2 draw and 6
    # state buffers
    "rej_step": (_I64, [_I64, _I64, _F64, _F64, _F64, _F64, _F64, _INT, _INT] + [_PTR] * 8),
    # members, size, h, sq, then eps, 2 draw and 3 state buffers
    "family_step": (None, [_I64, _I64, _F64, _F64] + [_PTR] * 6),
    # a numpy bitgen_t, n, then the output buffer
    "normal_fill": (None, [_PTR, _I64, _PTR]),
}

_lock = threading.Lock()
_lib = None
_NO_BYTES = ctypes.c_char * 0


def _compile(source, target):
    """Compile ``source`` into the shared library ``target``."""
    try:
        proc = subprocess.run(["cc", *FLAGS, "-o", str(target), str(source), "-lm"],
                              capture_output=True, text=True)
    except OSError as exc:
        raise KernelUnavailable(f"cannot run the C compiler: {exc}") from exc
    if proc.returncode:
        lines = proc.stderr.strip().splitlines() or [f"exit status {proc.returncode}"]
        raise KernelUnavailable(f"cannot build {Path(source).name}: {lines[-1]}")


def _open(path):
    try:
        return ctypes.CDLL(str(path))
    except OSError as exc:
        raise KernelUnavailable(f"cannot load {path}: {exc}") from exc


def _load():
    """The compiled library, built unless a cached copy exists."""
    try:
        text = SOURCE.read_bytes()
    except OSError as exc:
        raise KernelUnavailable(f"cannot read the kernel source: {exc}") from exc
    key = hashlib.sha256(text + " ".join(FLAGS).encode()).hexdigest()[:16]
    name = f"_lanes.{key}.so"
    cache = SOURCE.parent / "__pycache__"
    if (cache / name).is_file():
        return _open(cache / name)
    try:
        cache.mkdir(exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
    except OSError:
        # not writable: build privately, load, and remove the build (a
        # loaded library outlives its file)
        with tempfile.TemporaryDirectory(prefix="rarepath-") as private:
            _compile(SOURCE, Path(private) / name)
            return _open(Path(private) / name)
    os.close(fd)
    try:
        _compile(SOURCE, tmp)
        # readable by whoever can read the source, as bytecode is
        os.chmod(tmp, SOURCE.stat().st_mode & 0o777)
        os.replace(tmp, cache / name)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    for stale in cache.glob("_lanes.*.so"):
        if stale.name != name:
            try:
                stale.unlink()
            except OSError:
                pass
    return _open(cache / name)


def kernels():
    """The compiled library, with ``is_step``, ``rej_step``,
    ``family_step`` and ``normal_fill`` typed."""
    global _lib
    if _lib is None:  # the lock is taken only while the library is unbuilt
        with _lock:
            if _lib is None:
                lib = _load()
                for name, (restype, argtypes) in _SIGNATURES.items():
                    fn = getattr(lib, name)
                    fn.argtypes, fn.restype = argtypes, restype
                _lib = lib
    return _lib


def address(a):
    """Address of the data of ``a``, a writable contiguous array, handed to
    a compiled call (None for no array); cheaper than ``a.ctypes.data``."""
    return None if a is None else ctypes.addressof(_NO_BYTES.from_buffer(a))


def draws(a, shape):
    """A step's draws as a contiguous float64 array of ``shape``."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    if a.shape != shape:
        raise InvalidArgument(f"draws of shape {a.shape}, expected {shape}")
    return a
