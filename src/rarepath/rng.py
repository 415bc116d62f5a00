"""Counter-based random streams for reproducible parallel Monte Carlo.

A stream is addressed by ``(master_seed, stream_id)``.  Streams are backed
by the Philox counter-based bit generator keyed through
``numpy.random.SeedSequence``, so the same address yields the same draw
sequence on every run and platform, and distinct addresses give
statistically independent streams.  A generator's arrays of standard
normals are made by one compiled sampler, numpy's ziggurat over the same
words (:class:`_Generator`), built at the first normal draw: the values
and the state they leave are numpy's, at about half its cost per value.

Every parallel engine runs through one driver here.  :func:`map_batches`
runs work units on a thread pool and returns their parts in unit order:
the passage engines split their lanes into batches by the total alone,
each batch deriving its own stream.  :func:`map_lanes` splits one
stream's lanes into ranges, each making every draw of the stream whole
from its own generator and reading its own rows: the diagnostics families
run so.  Either way every estimate is independent of the worker count.
"""

import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument

__all__ = ["RngStream", "map_batches", "map_lanes"]


_native = None  # imported at the first normal draw, so start-up does not pay for it


class _Generator(np.random.Generator):
    """numpy's Generator, with its float64 ``standard_normal(size)`` drawn
    by the compiled ``normal_fill``: numpy's ziggurat over the same Philox
    words, so the values and the state afterwards are numpy's.  The fill
    holds the bit generator's lock and runs without the interpreter lock,
    as numpy's own fill does.  Every other form and method is numpy's."""

    def standard_normal(self, size=None, dtype=np.float64, out=None):
        if size is None or out is not None or np.dtype(dtype) != np.float64:
            return super().standard_normal(size, dtype, out)
        global _native
        if _native is None:
            from . import _native
        fill = _native.kernels().normal_fill
        out = np.empty(size)
        bit_generator = self.bit_generator
        with bit_generator.lock:
            fill(bit_generator.ctypes.bit_generator, out.size, _native.address(out))
        return out


def map_batches(batch, args, workers):
    """``[batch(i, a) for i, a in enumerate(args)]`` (``a`` is usually a
    batch size), run on up to ``workers`` threads; the parts come back in
    batch order whatever the worker count, and an exception raised by a
    batch is raised here."""
    if workers <= 1 or len(args) <= 1:
        return [batch(i, a) for i, a in enumerate(args)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(batch, range(len(args)), args))


def map_lanes(run, stream, total, workers):
    """The lanes of ``run(stream, total)`` split into up to ``workers``
    contiguous ranges, run on that many threads, returned in lane order.

    ``run(s, m)`` simulates ``m`` independent lanes, drawing from
    ``s.generator()`` only by ``standard_normal`` and ``random`` with the
    lanes on the first axis, in the same sequence of calls for every
    ``m``.  Each range gets a :class:`_LaneRange` whose generator makes
    every draw whole, as ``run(stream, total)`` does, and returns that
    range's rows, so its lanes see the same numbers at any worker count
    and the parts, joined along the lanes, are that call's output.  Ranges
    that draw differently raise ``ValueError``.
    """
    k = max(1, min(workers, total))
    if k == 1:
        return [run(stream, total)]
    bounds = np.cumsum([0] + [total // k + (i < total % k) for i in range(k)]).tolist()
    ranges = [_LaneRange(stream, total, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    # the first range runs here, on the memory this thread already holds
    with ThreadPoolExecutor(max_workers=k - 1) as pool:
        rest = [pool.submit(run, r, r.size) for r in ranges[1:]]
        parts = [run(ranges[0], ranges[0].size), *(f.result() for f in rest)]
    if any(r.calls != ranges[0].calls for r in ranges):
        raise ValueError("the lane ranges of a family made different draws")
    return parts


class _LaneRange:
    """Stream and generator of lanes ``lo`` to ``hi`` of :func:`map_lanes`:
    each draw is made whole, at ``total`` lanes, by the range's own
    ``stream.generator()``, which is the serial run's, and rows ``lo:hi``
    of it are returned.  ``calls`` records each draw's method and trailing
    shape."""

    def __init__(self, stream, total, lo, hi):
        self._stream, self._total, self._rows = stream, total, slice(lo, hi)
        self._gen = None
        self.size = hi - lo
        self.calls = []

    def generator(self):
        # the draws follow the serial run's in call order: one generator
        if self._gen is not None:
            raise ValueError("a lane range may open its generator only once")
        self._gen = self._stream.generator()
        return self

    def _draw(self, method, size):
        shape = (size,) if np.ndim(size) == 0 else tuple(size)
        if shape[:1] != (self.size,):
            raise ValueError(f"a lane range of {self.size} lanes drew {shape}")
        self.calls.append((method, shape[1:]))
        return getattr(self._gen, method)((self._total, *shape[1:]))[self._rows]

    def standard_normal(self, size):
        return self._draw("standard_normal", size)

    def random(self, size):
        return self._draw("random", size)


@dataclass(frozen=True)
class RngStream:
    """Address of a reproducible random stream.

    Parameters
    ----------
    master_seed : int
        Nonnegative experiment seed.
    stream_id : int
        Nonnegative substream index (replica, batch, or grid-cell index).
    """

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("master_seed", "stream_id"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < 0:
                raise InvalidArgument(f"{name} must be a nonnegative integer, not {value!r}")

    def generator(self, *sub: int) -> np.random.Generator:
        """Instantiate the Philox generator for this stream.

        Extra ``sub`` indices address nested substreams (e.g. a batch
        within a grid cell) without advancing or sharing any state.
        """
        return _Generator(self.bit_generator(*sub))

    def bit_generator(self, *sub: int) -> np.random.Philox:
        """The Philox bit generator behind :meth:`generator`."""
        seq = np.random.SeedSequence(
            self.master_seed, spawn_key=(self.stream_id, *sub)
        )
        return np.random.Philox(seq)
