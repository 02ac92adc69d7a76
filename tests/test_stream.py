"""The PCG64 stream against numpy's Generator, the reference it replaces."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewrank.stream import Stream

SRC = Path(__file__).resolve().parents[1] / "src" / "skewrank"

# the first outputs of numpy's pcg64-testset-2.csv (seed 0) and
# pcg64-testset-1.csv (seed 0xdeadbeaf)
FIRST_OUTPUTS = {
    0: [0xA30FEBCFD9C2825F, 0x4510BDF882D9D721, 0x0A7D3DA94ECDE8B8, 0x043B27B61342F01D],
    0xDEADBEAF: [0x60D24054E17A0698, 0xD5E79D89856E4F12, 0xD254972FE64BD782, 0xF1E3072A53C72571],
}

# Lemire's rule rejects a word with probability (2^32 mod span) / 2^32: about
# 1/3 for 1431655766, 0 for a power of two
SPANS = (3, 5, 1000003, 2**31 - 1, 1431655766)


def outputs(words: np.ndarray) -> list[int]:
    """64-bit outputs from their uint32 words, low half first."""
    return [int(lo) | int(hi) << 32 for lo, hi in zip(words[0::2], words[1::2])]


@pytest.mark.parametrize("seed", sorted(FIRST_OUTPUTS))
def test_first_outputs_match_numpys_test_sets(seed):
    # a range of 2^32 maps every word to itself: the raw uint32 sequence
    assert outputs(Stream(seed).integers(0, 2**32, size=8)) == FIRST_OUTPUTS[seed]


def test_first_rows_of_a_sampled_draw():
    stream = Stream(0)
    assert stream.integers(0, 3, size=(2, 16)).tolist() == [
        [2, 1, 1, 0, 0, 0, 0, 0, 0, 2, 1, 2, 1, 1, 2, 2],
        [1, 1, 1, 2, 0, 2, 2, 0, 1, 2, 1, 0, 2, 2, 2, 0],
    ]
    # a Section-6 block: its numerators, then its denominators
    assert stream.integers(-99, 100, size=(2, 4)).tolist() == [[-82, 72, -95, 8], [-84, -40, -4, -15]]
    assert stream.integers(1, 21, size=(2, 4)).tolist() == [[9, 1, 1, 3], [1, 14, 11, 13]]


@pytest.mark.parametrize("name", ["pcg64-testset-1.csv", "pcg64-testset-2.csv"])
def test_whole_numpy_test_sets(name):
    path = Path(np.__file__).parent / "random" / "tests" / "data" / name
    if not path.exists():
        pytest.skip(f"numpy's {name} is not installed")
    lines = path.read_text().split()
    seed = int(lines[1], 16)  # "seed, 0x..." then "i, 0x..." per output
    want = [int(v, 16) for v in lines[3::2]]
    assert len(want) == 1000
    assert outputs(Stream(seed).integers(0, 2**32, size=2 * len(want))) == want


@st.composite
def calls(draw):
    """One integers() call: one range for every element, of a shape with
    no, an odd or an even number of elements."""
    low = draw(st.integers(-(2**31), 2**31))
    high = low + draw(st.sampled_from(SPANS))
    shapes = st.tuples(st.integers(0, 40), st.integers(1, 4))
    size = draw(st.one_of(st.integers(0, 9), st.integers(1, 4000), shapes))
    return low, high, size


@settings(max_examples=60, deadline=None)
@given(seed=st.one_of(st.integers(0, 2**32), st.integers(0, 2**130)), data=st.data())
def test_stream_matches_numpys_generator_call_by_call(seed, data):
    """One shared stream: an odd number of words leaves a half buffered
    for the next call, and a rejected word shifts every later element."""
    stream = Stream(seed)
    reference = np.random.Generator(np.random.PCG64(seed))
    for _ in range(data.draw(st.integers(1, 5))):
        low, high, size = data.draw(calls())
        got = stream.integers(low, high, size=size)
        want = reference.integers(low, high, size=size)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want), (low, high, size)
    assert stream.integers(0, 2**32, size=3).tolist() == reference.integers(0, 2**32, size=3).tolist()


def test_a_range_of_one_value_or_no_elements_draws_no_word():
    stream, reference = Stream(7), np.random.Generator(np.random.PCG64(7))
    assert stream.integers(0, 10, size=3).tolist() == reference.integers(0, 10, size=3).tolist()
    # three words leave a half buffered; neither call below may take it
    assert stream.integers(5, 6, size=4).tolist() == reference.integers(5, 6, size=4).tolist() == [5] * 4
    assert stream.integers(0, 10, size=(0, 3)).shape == reference.integers(0, 10, size=(0, 3)).shape == (0, 3)
    assert stream.integers(0, 10, size=6).tolist() == reference.integers(0, 10, size=6).tolist()


@pytest.mark.parametrize("low,high", [(0, 0), (3, 2), (0, 2**32 + 1)])
def test_ranges_outside_one_to_2_32_are_rejected(low, high):
    with pytest.raises(ValueError, match="range"):
        Stream(0).integers(low, high, size=(3, 2))


@pytest.mark.parametrize("size", [-1, (-5, 4), (0, -1), (3, -2)])
def test_negative_dimensions_are_rejected_as_numpys_generator_rejects_them(size):
    stream, reference = Stream(0), np.random.Generator(np.random.PCG64(0))
    for draw in (stream, reference):
        with pytest.raises(ValueError, match="negative dimensions are not allowed"):
            draw.integers(0, 3, size=size)
    # and the rejected call draws no word
    assert stream.integers(0, 3, size=5).tolist() == reference.integers(0, 3, size=5).tolist()


def test_negative_seed_is_rejected():
    with pytest.raises(ValueError, match="seed"):
        Stream(-1)


def test_no_runtime_module_names_numpy_random():
    # the tests keep numpy's generator as the reference; the runtime draws from skewrank.stream
    named = [p.name for p in sorted(SRC.glob("*.py"))
             if "numpy.random" in p.read_text() or "np.random" in p.read_text()]
    assert named == []
    assert (SRC / "stream.py").exists()
