"""Unit tests for base-pair sequence encoding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.genomics.sequences import (
    BASES,
    N_CODE,
    complement,
    decode_base,
    decode_sequence,
    encode_base,
    encode_sequence,
    gc_content,
    random_sequence,
    reverse_complement,
)


def test_alphabet_order():
    assert BASES == "ACGT"
    assert [encode_base(b) for b in "ACGT"] == [0, 1, 2, 3]


def test_encode_decode_roundtrip():
    assert decode_sequence(encode_sequence("ACGTACGT")) == "ACGTACGT"


def test_encode_lowercase():
    assert encode_base("a") == 0
    assert decode_sequence(encode_sequence("acgt")) == "ACGT"


def test_n_base():
    assert encode_base("N") == N_CODE
    assert decode_base(N_CODE) == "N"


def test_encode_invalid_base():
    with pytest.raises(ValueError):
        encode_base("Z")


def test_decode_invalid_code():
    with pytest.raises(ValueError):
        decode_base(9)


def test_complement_pairs():
    seq = encode_sequence("ACGTN")
    assert decode_sequence(complement(seq)) == "TGCAN"


def test_reverse_complement():
    seq = encode_sequence("AACGT")
    assert decode_sequence(reverse_complement(seq)) == "ACGTT"


def test_reverse_complement_involution():
    rng = np.random.default_rng(1)
    seq = random_sequence(97, rng)
    assert np.array_equal(reverse_complement(reverse_complement(seq)), seq)


def test_random_sequence_range():
    rng = np.random.default_rng(2)
    seq = random_sequence(1000, rng)
    assert seq.dtype == np.uint8
    assert seq.min() >= 0 and seq.max() <= 3


def test_random_sequence_negative_length():
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError):
        random_sequence(-1, rng)


def test_gc_content_all_gc():
    assert gc_content(encode_sequence("GCGC")) == 1.0


def test_gc_content_none():
    assert gc_content(encode_sequence("ATAT")) == 0.0


def test_gc_content_ignores_n():
    assert gc_content(encode_sequence("GCNN")) == 1.0


def test_gc_content_empty():
    assert gc_content(np.array([], dtype=np.uint8)) == 0.0


# -- the table codec is the per-base fold -------------------------------------------


def _fold(convert, items):
    """``convert`` over ``items`` one at a time: the values, or the
    message of the first refusal."""
    try:
        return [convert(item) for item in items], None
    except ValueError as error:
        return None, str(error)


def _outcome(convert, value):
    try:
        return convert(value), None
    except ValueError as error:
        return None, str(error)


#: Bases of either case and ``N`` mostly, then invalid ASCII, non-ASCII
#: and a lone surrogate.
_TEXT = st.text(
    st.one_of(
        st.sampled_from("ACGTNacgtn"),
        st.characters(max_codepoint=127),
        st.characters(min_codepoint=128),
        st.sampled_from("\udc80Kıßé"),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(text=_TEXT)
def test_encode_sequence_is_the_fold_of_encode_base(text):
    codes, error = _fold(encode_base, text)
    got, got_error = _outcome(encode_sequence, text)
    assert got_error == error
    if error is None:
        assert got.dtype == np.uint8 and got.tolist() == codes


@settings(max_examples=200, deadline=None)
@given(
    codes=st.lists(
        st.one_of(st.integers(0, 4), st.integers(-2, 8),
                  st.integers(-300, 300)),
        max_size=60,
    ),
    as_array=st.sampled_from((None, np.int64, np.uint8)),
)
def test_decode_sequence_is_the_fold_of_decode_base(codes, as_array):
    if as_array is np.uint8:
        codes = [code % 256 for code in codes]
    given_codes = codes if as_array is None else np.array(codes, dtype=as_array)
    chars, error = _fold(decode_base, [int(code) for code in codes])
    got, got_error = _outcome(decode_sequence, given_codes)
    assert got_error == error
    if error is None:
        assert got == "".join(chars)
