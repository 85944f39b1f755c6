import weakref

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from tailfolio.rng import NormalStream, UniformStream, erfinv

from helpers import traced_peak


def test_erfinv_matches_reference_grid():
    # the Newton fixed point inherits erf's rounding, which the inverse
    # derivative amplifies as |z| -> 1, so the bound widens with the range
    z = np.linspace(-0.9999, 0.9999, 20001)
    assert np.max(np.abs(erfinv(z) - scipy.special.erfinv(z))) < 2e-13
    z = np.linspace(-0.999999, 0.999999, 20001)
    assert np.max(np.abs(erfinv(z) - scipy.special.erfinv(z))) < 5e-12


def test_erfinv_round_trip_tracks_erf_conditioning():
    # erf(y) quantizes to ulp(z) steps, so no inverse can recover y more
    # tightly than ulp(z)/erf'(y); hold the round trip to 4x that bound
    y = np.linspace(0.1, 5.0, 400)
    z = scipy.special.erf(y)
    err = np.abs(erfinv(z) - y)
    cond = np.spacing(z) / (2.0 / np.sqrt(np.pi) * np.exp(-y * y))
    assert np.all(err <= 4.0 * cond)
    tight = y <= 3.0
    assert np.max(err[tight] / y[tight]) < 5e-13


def test_erfinv_backward_error_in_ulps():
    z = np.concatenate([np.linspace(-0.999999, 0.999999, 40001),
                        1.0 - np.geomspace(1e-12, 1e-6, 500),
                        -(1.0 - np.geomspace(1e-12, 1e-6, 500))])
    back = scipy.special.erf(erfinv(z))
    assert np.max(np.abs(back - z) / np.spacing(np.abs(z))) <= 8.0


def test_erfinv_edges():
    assert erfinv(1.0) == np.inf
    assert erfinv(-1.0) == -np.inf
    assert erfinv(0.0) == 0.0
    with pytest.raises(ValueError):
        erfinv(1.0000001)
    with pytest.raises(ValueError):
        erfinv(np.array([0.5, -2.0]))


def test_uniform_stream_deterministic_and_open():
    a = UniformStream(123, stream=4).take(5000)
    b = UniformStream(123, stream=4).take(5000)
    assert np.array_equal(a, b)
    assert np.all(a > 0.0) and np.all(a < 1.0)
    c = UniformStream(123, stream=5).take(5000)
    assert not np.array_equal(a, c)


def test_uniform_stream_chunking_invariant():
    whole = UniformStream(9).take(300)
    s = UniformStream(9)
    parts = np.concatenate([s.take(7) for _ in range(30)] + [s.take(90)])
    assert np.array_equal(whole, parts)


def test_uniform_stream_one_matches_take():
    s1 = UniformStream(77)
    s2 = UniformStream(77)
    singles = np.array([s1.one() for _ in range(50)])
    assert np.array_equal(singles, s2.take(50))


def test_normal_stream_moments_and_determinism():
    z = NormalStream(5).draw(100000)
    assert abs(float(np.mean(z))) < 0.02
    assert abs(float(np.std(z)) - 1.0) < 0.02
    assert abs(float(np.mean(z ** 3))) < 0.05
    again = NormalStream(5).draw(100000)
    assert np.array_equal(z, again)


def test_normal_stream_is_inverse_cdf_of_uniforms():
    u = UniformStream(11, stream=2).take(1000)
    z = NormalStream(11, stream=2).draw(1000)
    assert np.allclose(z, scipy.special.ndtri(u), rtol=0, atol=0)


def _philox_uniforms(seed, stream, n):
    """The UniformStream docstring formula on numpy's raw Philox words."""
    key = np.array([seed, stream], dtype=np.uint64)
    words = np.random.Philox(key=key).random_raw(n)
    # the same words as a full-range Generator.integers draw
    same = np.random.Generator(np.random.Philox(key=key)).integers(
        0, np.iinfo(np.uint64).max, size=n, dtype=np.uint64, endpoint=True)
    assert np.array_equal(words, same)
    return ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53


@pytest.mark.parametrize("sizes", [
    (5000, 5000, 1, 8191, 3),            # takes across the 8 192-value block
    (100, 20000, 7),                     # a large take after a partial buffer
    (0, 8192, 8192, 1, 16384, 2, 30000), # whole blocks from an empty buffer
    (65535, 65537, 131077),              # takes across the 65 536-word raw block
])
def test_uniform_stream_matches_philox_formula(sizes):
    s = UniformStream(2024, stream=3)
    parts = []
    for n in sizes:
        parts.append(s.take(n))
        parts.append(np.array([s.one()]))
    got = np.concatenate(parts)
    assert np.array_equal(got, _philox_uniforms(2024, 3, got.size))


def test_normal_draw_peak_memory_near_its_result():
    # the raw words are converted a bounded block at a time, so the draw
    # holds its result and little more
    n = 2_000_000
    assert traced_peak(lambda: NormalStream(1).draw(n)) < 1.15 * 8 * n


# request sizes: small, around the 8 192-value block, and over a block
_SIZES = st.one_of(st.integers(0, 40), st.integers(8150, 8250),
                   st.integers(16000, 20000))
_OPS = st.lists(st.tuples(st.sampled_from(["take", "one"]), _SIZES), max_size=12)


def _draw(s, ops):
    """Run ops on s; the bytes of what each op returned."""
    return [s.take(n).tobytes() if op == "take" else np.float64(s.one()).tobytes()
            for op, n in ops]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32), ops=_OPS)
def test_takes_and_ones_interleave_as_one_large_take(seed, ops):
    ref = UniformStream(seed, stream=1).take(12 * 20000 + 3)
    s = UniformStream(seed, stream=1)
    pos = 0
    for got, (op, n) in zip(_draw(s, ops), ops):
        n = n if op == "take" else 1
        assert got == ref[pos:pos + n].tobytes()
        pos += n
    assert s.take(3).tobytes() == ref[pos:pos + 3].tobytes()


def test_a_refill_keeps_the_unread_tail_and_one_block():
    s = UniformStream(3)
    s.take(8000)
    old = weakref.ref(s._buf)
    s.take(500)
    assert old() is None
    # the unread tail of the old block and one fresh block
    assert s._buf.size == 192 + 8192
    s.take(192 + 8192 - 500)
    s.one()     # from an empty tail: one fresh block
    assert s._buf.size == 8192


@pytest.mark.parametrize("n", [1, 40, 8191, 8192 + 100, 20000])
def test_a_taken_array_is_the_callers_own(n):
    ref = UniformStream(4).take(7 + 20000 + 50)
    s = UniformStream(4)
    s.take(7)
    mark = s.tell()
    out = s.take(n)
    out[:] = -1.0
    # neither the next draws nor a replay from before the take see the write
    assert s.take(50).tobytes() == ref[7 + n:57 + n].tobytes()
    s.seek(mark)
    assert s.take(n).tobytes() == ref[7:7 + n].tobytes()


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32), before=_OPS, between=_OPS, after=_OPS)
def test_seek_returns_to_the_told_position_across_refills(seed, before, between,
                                                          after):
    s, twin = UniformStream(seed, stream=1), UniformStream(seed, stream=1)
    _draw(s, before)
    _draw(twin, before)
    mark = s.tell()
    drawn = _draw(s, between)
    s.seek(mark)
    # the same draws again, and then those of a stream that never left
    assert _draw(s, between) == drawn
    s.seek(mark)
    assert _draw(s, after) == _draw(twin, after)
    assert s.take(3).tobytes() == twin.take(3).tobytes()
    assert s.one() == twin.one()


# a start k across the 4-word Philox counter step, the 8 192-value buffer
# block and the 65 536-word raw block, and anywhere below 3 raw blocks
_STARTS = st.one_of(st.integers(0, 9), st.integers(8186, 8198),
                    st.integers(65530, 65542), st.integers(0, 3 * 65536))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), k=_STARTS,
       m=st.one_of(_SIZES, st.integers(65530, 65542)))
def test_a_stream_started_at_k_is_a_stream_past_its_first_k(seed, k, m):
    ref = UniformStream(seed, stream=2).take(k + m)
    assert UniformStream(seed, stream=2, start=k).take(m).tobytes() == ref[k:].tobytes()
    normals = NormalStream(seed, stream=2, start=k).draw(m)
    assert normals.tobytes() == scipy.special.ndtri(ref[k:]).tobytes()


@pytest.mark.parametrize("before, n", [(0, 5), (0, 20000), (7, 40), (7, 20000),
                                       (8000, 500)])
def test_a_take_into_an_array_fills_it(before, n):
    ref = UniformStream(6).take(before + n + 3)
    s = UniformStream(6)
    s.take(before)
    out = np.full(n, -1.0)
    assert s.take(n, out=out) is out
    assert out.tobytes() == ref[before:before + n].tobytes()
    assert s.take(3).tobytes() == ref[before + n:].tobytes()
    normals = np.empty(n)
    assert NormalStream(6).draw(n, out=normals) is normals
    assert normals.tobytes() == NormalStream(6).draw(n).tobytes()
