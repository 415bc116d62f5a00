import ctypes
import re
import shutil
import subprocess
import tempfile

import numpy as np

from rarepath import RngStream, _native
from rarepath.passage import _P_IS, _is_batch
from rarepath.paths import HORIZON_CAP


def test_kernel_builds_privately_where_the_package_is_not_writable(monkeypatch, tmp_path):
    pkg, scratch = tmp_path / "pkg", tmp_path / "tmp"
    pkg.mkdir()
    scratch.mkdir()
    shutil.copy(_native.SOURCE, pkg / "_lanes.c")
    (pkg / "__pycache__").write_text("a file where the cache directory would go")
    monkeypatch.setattr(_native, "SOURCE", pkg / "_lanes.c")
    monkeypatch.setattr(_native, "_lib", None)
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    h = 4e-3
    args = (16, 2, h, 1.5, "bridge", int(HORIZON_CAP / h))
    private = _is_batch(RngStream(1).generator(_P_IS, 0), *args)
    assert _native._lib is not None
    assert list(scratch.iterdir()) == []   # the private build is removed
    monkeypatch.undo()
    cached = _is_batch(RngStream(1).generator(_P_IS, 0), *args)
    for a, b in zip(private, cached):
        assert np.array_equal(a, b)


def test_kernel_build_removes_stale_builds(monkeypatch, tmp_path):
    cache = tmp_path / "__pycache__"
    cache.mkdir()
    shutil.copy(_native.SOURCE, tmp_path / "_lanes.c")
    for name in ("_lanes.0123456789abcdef.so", "_lanes.fedcba9876543210.so",
                 "paths.cpython-310.pyc"):
        (cache / name).write_bytes(b"")
    monkeypatch.setattr(_native, "SOURCE", tmp_path / "_lanes.c")
    lib = _native._load()
    assert hasattr(lib, "is_step")
    built = [p.name for p in cache.glob("_lanes.*.so")]
    assert len(built) == 1 and built[0] not in ("_lanes.0123456789abcdef.so",
                                                "_lanes.fedcba9876543210.so")
    assert (cache / "paths.cpython-310.pyc").exists()


# a function _lanes.c exports: defined at the start of a line, not static
_DEFINITION = re.compile(r"^(?!static\b)(\w+)\s+(\w+)\(([^)]*)\)\s*\{", re.M)
_C_TYPES = {"void": None, "int": ctypes.c_int, "int64_t": ctypes.c_int64,
            "double": ctypes.c_double}


def _c_type(declaration):
    """The ctypes type of a C parameter or return type declaration."""
    if "*" in declaration:
        return ctypes.c_void_p
    return _C_TYPES[declaration.split()[0]]


def test_every_exported_kernel_is_typed_as_defined():
    # ctypes trusts argtypes: a parameter miscounted or mistyped there
    # corrupts memory without an error
    defined = {name: (_c_type(restype), [_c_type(p) for p in params.split(",")])
               for restype, name, params in _DEFINITION.findall(_native.SOURCE.read_text())}
    assert "drift_step" in defined
    assert defined.keys() == _native._SIGNATURES.keys()
    for name, (restype, argtypes) in _native._SIGNATURES.items():
        assert (restype, argtypes) == defined[name], name


def test_kernel_compiles_without_warnings(tmp_path):
    # warnings fail only this check: the package's own build keeps FLAGS,
    # so a newer compiler's warning never makes the kernel unavailable
    strict = [*_native.FLAGS, "-Wall", "-Wextra", "-Werror"]
    proc = subprocess.run(["cc", *strict, "-o", str(tmp_path / "_lanes.so"),
                           str(_native.SOURCE), "-lm"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
