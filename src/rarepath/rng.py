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
stream's lanes into ranges, each reading its own rows of every draw: the
diagnostics families run so.  Either way every estimate is independent
of the worker count.
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
    the lanes, are that call's output.  The ranges make their own rows of
    every draw, at once (:class:`_SplitDraws`).
    """
    k = max(1, min(workers, total))
    if k == 1:
        return [run(stream, total)]
    sizes = [total // k + (i < total % k) for i in range(k)]
    draws = _SplitDraws(stream, sizes)
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


def _word(bit_generator):
    """Index of the next 64-bit word a Philox bit generator returns."""
    state = bit_generator.state
    counter = state["state"]["counter"]
    return 4 * sum(int(c) << (64 * i) for i, c in enumerate(counter)) \
        + state["buffer_pos"]


def _place(gen, key, word):
    """``gen`` (a Philox generator) set to ``key``, its next word
    ``word``; returned."""
    block, skip = divmod(word - 4, 4)
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.array([(block >> (64 * i)) & (2**64 - 1) for i in range(4)],
                                      dtype=np.uint64), "key": key},
        "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0}
    if skip:
        gen.bit_generator.random_raw(skip)
    return gen


class _SplitDraws:
    """Every lane range makes its own rows of each draw of one Philox
    stream, starting at the word where the rows before it end.

    A ``random`` value takes one word, so every range knows where its rows
    start.  A ``standard_normal`` value takes one word, or more after a
    rejection, so range ``j`` starts where its rows would start without
    rejections, which is never later than the right word.  A value is a
    function of the words from its first one on, so from the first start
    word the two parses share they agree: once range ``j - 1`` knows where
    its rows end, :meth:`_join` finds where the parses meet by matching a
    run of 8 values (each carries 52 random bits, so two different start
    words do not give the same run), splices them, and draws the few
    values still missing.  Where no meeting point is found, the rows are
    drawn again from the right word.
    """

    def __init__(self, stream, sizes):
        bit_generator = stream.bit_generator()
        self._key = bit_generator.state["state"]["key"]
        self._bounds = np.cumsum([0, *sizes]).tolist()
        self._cond = threading.Condition()
        self._start = {0: _word(bit_generator)}  # draw -> its first word
        self._end = {}  # (draw, range) -> the word after the range's normals
        self._kind = {}  # draw -> (method, shape[1:])
        self._done = [False] * len(sizes)
        # per range: the generator of its rows and one to probe with
        self._gens = [[_Generator(np.random.Philox(0)) for _ in range(2)]
                      for _ in sizes]
        self.error = None

    def _await(self, table, key, maker):
        """``table[key]`` once range ``maker`` has set it (lock held)."""
        while key not in table:
            if self.error is not None:
                raise _Aborted()
            if self._done[maker]:
                raise _mismatch()
            self._cond.wait()
        return table[key]

    def take(self, j, i, method, shape):
        """Range ``j``'s rows of draw ``i``, asked for as a ``method`` draw
        of ``shape``."""
        lo, hi = self._bounds[j], self._bounds[j + 1]
        last = len(self._bounds) - 2
        cols = int(np.prod(shape[1:]))
        if shape[0] != hi - lo:
            raise _mismatch()
        with self._cond:
            if self._kind.setdefault(i, (method, shape[1:])) != (method, shape[1:]):
                raise _mismatch()
            start = self._await(self._start, i, last)
            if method == "random":
                self._start[i + 1] = start + self._bounds[-1] * cols
                self._cond.notify_all()
        first = start + lo * cols
        gen, probe = self._gens[j]
        rows = getattr(_place(gen, self._key, first), method)((hi - lo) * cols)
        if method == "standard_normal":
            if j:
                with self._cond:
                    end = self._await(self._end, (i, j - 1), j - 1)
                rows, gen = self._join(end, first, rows, gen, probe)
            with self._cond:
                self._end[(i, j)] = _word(gen.bit_generator)
                if j == last:
                    self._start[i + 1] = self._end[(i, j)]
                self._cond.notify_all()
        return rows.reshape(hi - lo, *shape[1:])

    def _join(self, end, first, guess, gen, probe, run=8):
        """The normals from word ``end`` on, as many as ``guess`` holds, and
        the generator after them, given ``guess`` parsed from word
        ``first <= end`` by ``gen``."""
        exact = _place(probe, self._key, end).standard_normal(2 * run)
        # the guess's value that starts at word ``end`` or after has an
        # index of at most ``end - first`` plus the values between
        reach = guess[:end - first + 4 * run]
        for k in range(run):
            for at in np.flatnonzero(reach == exact[k]):
                if at >= k and np.array_equal(guess[at:at + run], exact[k:k + run]):
                    return np.concatenate([exact[:k], guess[at:],
                                           gen.standard_normal(at - k)]), gen
        return _place(probe, self._key, end).standard_normal(len(guess)), probe

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

    def substream(self, index: int) -> "RngStream":
        """Stream for work unit ``index`` under the same master seed.

        Only valid on a root stream (``stream_id == 0``); nested
        derivation should use ``generator(*sub)`` instead so that
        addresses never collide.
        """
        if self.stream_id != 0:
            raise ValueError("substream() is reserved for root streams")
        return RngStream(self.master_seed, index)
