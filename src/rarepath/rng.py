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
stream's lanes into ranges that share each of its draws, made whole once,
each range reading its own rows: the diagnostics families run so.  Either
way every estimate is independent of the worker count.
"""

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

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
    ``m``.  Each range gets a stream whose generator returns that range's
    rows of the draws the whole ``run(stream, total)`` makes, so its lanes
    see the same numbers at any worker count and the parts, joined along
    the lanes, are that call's output.  Each draw is made whole once, from
    ``stream.generator()`` opened at the first draw, and shared by the
    ranges (:class:`_SharedDraws`); ranges that draw differently raise
    ``ValueError``.
    """
    k = max(1, min(workers, total))
    if k == 1:
        return [run(stream, total)]
    sizes = [total // k + (i < total % k) for i in range(k)]
    draws = _SharedDraws(stream, sizes)
    lanes = [_LaneRange(draws, j) for j in range(k)]

    def part(j):
        try:
            out = run(lanes[j], sizes[j])
        except BaseException as exc:
            draws.abort(exc)
            raise
        draws.finish(j)
        return out

    try:
        # the first range runs here, on the memory this thread already holds
        with ThreadPoolExecutor(max_workers=k - 1) as pool:
            rest = [pool.submit(part, j) for j in range(1, k)]
            parts = [part(0), *(f.result() for f in rest)]
    except _Aborted:
        # a range stopped because another one failed: raise the cause
        raise draws.error from None
    if len({r.count for r in lanes}) > 1:
        raise _mismatch()
    return parts


class _Aborted(Exception):
    """A lane range stopped because another one failed."""


def _mismatch():
    return ValueError("the lane ranges of a family made different draws")


class _SharedDraws:
    """The draws of one stream, shared by the lane ranges of
    :func:`map_lanes`: the first range to ask for draw ``i`` makes it
    whole, at the whole run's lane count, from the stream's one generator,
    and every range reads its rows of it as views.  Rows ``[lo:hi]`` of a
    whole draw are what lanes ``lo`` to ``hi`` of the serial run read, so
    the numbers do not depend on how the lanes are split.

    Draw ``i`` is made only once every range has read draw ``i - 1``, and
    dropped once every range has read it, so at most two whole draws are
    held: the one being read and the one whose rows a range may still use.
    The generator is opened at the first draw, inside a range's ``run``.
    """

    def __init__(self, stream, sizes):
        self._stream = stream
        self._gen = None
        self._bounds = np.cumsum([0, *sizes]).tolist()
        self._cond = threading.Condition()
        self._read = [0] * len(sizes)  # draws each range has read
        self._done = [False] * len(sizes)
        self._held = None  # (index, method, shape[1:], whole draw)
        self.error = None

    def take(self, j, i, method, shape):
        """Range ``j``'s rows of draw ``i``, asked for as a ``method`` draw
        of ``shape``."""
        lo, hi = self._bounds[j], self._bounds[j + 1]
        if shape[0] != hi - lo:
            raise _mismatch()
        with self._cond:
            while self._held is None or self._held[0] != i:
                if self.error is not None:
                    raise _Aborted()
                if any(self._done):
                    # a finished range would never read this draw
                    raise _mismatch()
                if self._held is None:
                    if self._gen is None:
                        self._gen = self._stream.generator()
                    whole = getattr(self._gen, method)((self._bounds[-1], *shape[1:]))
                    self._held = (i, method, shape[1:], whole)
                else:
                    self._cond.wait()  # until every range has read draw i - 1
            _, kind, cols, whole = self._held
            if (kind, cols) != (method, shape[1:]):
                raise _mismatch()
            self._read[j] += 1
            if min(self._read) > i:
                self._held = None
                self._cond.notify_all()
        return whole[lo:hi]

    def finish(self, j):
        with self._cond:
            self._done[j] = True
            self._cond.notify_all()

    def abort(self, exc):
        with self._cond:
            if self.error is None and not isinstance(exc, _Aborted):
                self.error = exc
            self._cond.notify_all()


class _LaneRange:
    """Stream and generator of lane range ``j`` of :func:`map_lanes`: its
    rows of each draw of the shared stream, in call order."""

    def __init__(self, draws, j):
        self._draws = draws
        self._j = j
        self._opened = False
        self.count = 0

    def generator(self):
        # the draws are shared in call order, so one generator per range
        if self._opened:
            raise ValueError("a lane range may open its generator only once")
        self._opened = True
        return self

    def _take(self, method, size):
        i, self.count = self.count, self.count + 1
        shape = (size,) if np.ndim(size) == 0 else tuple(size)
        return self._draws.take(self._j, i, method, shape)

    def standard_normal(self, size):
        return self._take("standard_normal", size)

    def random(self, size):
        return self._take("random", size)


@dataclass(frozen=True)
class RngStream:
    """Address of a reproducible random stream.

    Parameters
    ----------
    master_seed : int
        64-bit experiment seed.
    stream_id : int
        Nonnegative substream index (replica, batch, or grid-cell index).
    """

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        if self.stream_id < 0:
            raise ValueError("stream_id must be nonnegative")

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
