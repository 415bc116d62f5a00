import threading
import time
import weakref

import numpy as np
import pytest

from rarepath import RngStream
from rarepath.rng import map_lanes


def test_same_address_same_sequence():
    a = RngStream(12345, 7).generator().standard_normal(64)
    b = RngStream(12345, 7).generator().standard_normal(64)
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    a = RngStream(12345, 0).generator().standard_normal(64)
    b = RngStream(12345, 1).generator().standard_normal(64)
    assert not np.array_equal(a, b)


def test_nested_substreams_differ_from_root():
    root = RngStream(9, 4)
    a = root.generator().standard_normal(8)
    b = root.generator(0).standard_normal(8)
    c = root.generator(1).standard_normal(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(b, c)


def test_negative_stream_id_rejected():
    with pytest.raises(ValueError):
        RngStream(1, -1)


def _same_state(p, q):
    if isinstance(p, dict):
        return p.keys() == q.keys() and all(_same_state(p[k], q[k]) for k in p)
    return np.array_equal(p, q)


@pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
def test_normals_are_numpys_bit_for_bit(seed):
    # the compiled sampler against numpy's own on the same Philox stream
    tails = 0
    for words in range(4):
        for shape in [0, 1, (1, 3), (7, 3), 2**21]:
            ours = RngStream(seed, 2).generator(5)
            theirs = np.random.Generator(RngStream(seed, 2).bit_generator(5))
            assert np.array_equal(ours.random(words), theirs.random(words))
            a, b = ours.standard_normal(shape), theirs.standard_normal(shape)
            assert type(a) is np.ndarray and a.dtype == b.dtype and a.shape == b.shape
            assert np.array_equal(a, b)
            assert _same_state(ours.bit_generator.state, theirs.bit_generator.state)
            assert np.array_equal(ours.standard_normal(9), theirs.standard_normal(9))
            assert np.array_equal(ours.random(2), theirs.random(2))
            if shape == 2**21:
                # only the ziggurat's tail path makes these
                tails += np.count_nonzero(np.abs(a) > 3.6541528853610088)
    assert tails > 0
    # numpy's own forms
    ours = RngStream(seed).generator()
    theirs = np.random.Generator(RngStream(seed).bit_generator())
    assert ours.standard_normal() == theirs.standard_normal()
    a = ours.standard_normal((4, 2), dtype=np.float32)
    b = theirs.standard_normal((4, 2), dtype=np.float32)
    assert a.dtype == np.float32 and np.array_equal(a, b)
    buf_a, buf_b = np.empty(6), np.empty(6)
    assert ours.standard_normal(out=buf_a) is buf_a
    theirs.standard_normal(out=buf_b)
    assert np.array_equal(buf_a, buf_b)
    assert _same_state(ours.bit_generator.state, theirs.bit_generator.state)


def _walk(stream, m, steps=6):
    # a toy lane simulation: every lane reads only its own rows
    gen = stream.generator()
    x = np.zeros((m, 3))
    for _ in range(steps):
        x += gen.standard_normal((m, 3))
        x[:, 0] *= gen.random(m)
    return x


def _within(seconds, fn):
    """``fn()``, failing the test instead of hanging if it takes longer."""
    box = {}

    def target():
        try:
            box["out"] = fn()
        except BaseException as exc:
            box["exc"] = exc

    th = threading.Thread(target=target, daemon=True)
    th.start()
    th.join(seconds)
    assert not th.is_alive(), "map_lanes did not return"
    if "exc" in box:
        raise box["exc"]
    return box["out"]


@pytest.mark.parametrize("total,workers", [
    (1, 1), (1, 4), (2, 3), (5, 2), (7, 3), (1000, 2), (1000, 4), (40000, 3)])
def test_lane_ranges_read_their_rows_of_one_draw(total, workers):
    whole = _walk(RngStream(8, 3), total)
    parts = _within(60, lambda: map_lanes(_walk, RngStream(8, 3), total, workers))
    assert len(parts) == min(workers, total)
    assert [len(p) for p in parts] == sorted((len(p) for p in parts), reverse=True)
    assert np.array_equal(np.concatenate(parts), whole)


def test_lane_ranges_hold_at_most_two_whole_draws():
    # the first range (13 334 lanes) sleeps before every draw, so the two
    # others would run ahead of it if they did not wait for it to read
    gen = RngStream(8, 3).generator()
    made, held = [], []

    class Counting:
        def __getattr__(self, method):
            def draw(size):
                # whole draws still alive when the next one is made
                held.append(sum(ref() is not None for ref in made))
                out = getattr(gen, method)(size)
                made.append(weakref.ref(out))
                return out
            return draw

    stream = type("Stream", (), {"generator": lambda self: Counting()})()

    def slowed(s, m):
        g = s.generator()
        x = np.zeros((m, 3))
        for _ in range(6):
            if m == 13334:
                time.sleep(0.02)
            x += g.standard_normal((m, 3))
            x[:, 0] *= g.random(m)
        return x

    parts = _within(60, lambda: map_lanes(slowed, stream, 40000, 3))
    assert np.array_equal(np.concatenate(parts), _walk(RngStream(8, 3), 40000))
    assert len(held) == 12
    assert max(held) <= 1


def test_lane_ranges_that_draw_differently_are_refused():
    def uneven(stream, m):  # a range of 5 lanes makes one more draw
        return _walk(stream, m, steps=m)

    def one_more_normal(stream, m):  # only the first range makes it
        gen = stream.generator()
        return [gen.standard_normal(m) for _ in range(2 + (m == 5))]

    def not_by_lane(stream, m):
        return stream.generator().random(3)

    for run in (uneven, one_more_normal, not_by_lane):
        with pytest.raises(ValueError):
            _within(60, lambda: map_lanes(run, RngStream(8), 9, 2))


def test_lane_range_error_reaches_the_caller():
    # the 4-lane range fails after two draws while the 5-lane range runs
    # far ahead and must be woken, not left waiting for it
    def fails(stream, m):
        gen = stream.generator()
        for k in range(50):
            gen.standard_normal(m)
            if m == 4 and k == 1:
                raise ArithmeticError("range failed")

    with pytest.raises(ArithmeticError, match="range failed"):
        _within(60, lambda: map_lanes(fails, RngStream(8), 9, 2))
