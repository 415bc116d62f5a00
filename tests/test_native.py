import shutil
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
