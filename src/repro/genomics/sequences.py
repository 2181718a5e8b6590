"""Base-pair sequences and encodings.

The Genesis paper (Section II) represents every base pair as one character
from the DNA alphabet ``A, C, G, T``.  This module provides the canonical
encoding used throughout the reproduction: bases are stored as small unsigned
integers (``uint8``) so they can flow through the relational tables
(:mod:`repro.tables`) and the hardware dataflow simulator (:mod:`repro.hw`)
as fixed-width flits, exactly like the hardware in the paper streams them.
"""

from __future__ import annotations

import numpy as np

#: The DNA alphabet in canonical order.  Index == encoded value.
BASES = "ACGT"

#: Sentinel encoding for an unknown/ambiguous base ("N" in FASTA parlance).
N_CODE = 4

#: Characters for decoding, index N_CODE maps back to ``N``.
_DECODE = BASES + "N"

_ENCODE = {base: code for code, base in enumerate(_DECODE)}
_ENCODE["N"] = N_CODE

#: Byte -> base code, either case; :data:`_NOT_A_CODE` marks every byte
#: that is no base.
_NOT_A_CODE = 0xFF
_ENCODE_TABLE = np.full(256, _NOT_A_CODE, dtype=np.uint8)
for _base, _code in _ENCODE.items():
    _ENCODE_TABLE[[ord(_base), ord(_base.lower())]] = _code

#: Base code -> its character's byte; 0 marks every byte that is no code.
_DECODE_TABLE = np.zeros(256, dtype=np.uint8)
_DECODE_TABLE[:len(_DECODE)] = np.frombuffer(_DECODE.encode("ascii"), np.uint8)

#: Complement lookup: A<->T, C<->G, N->N.
_COMPLEMENT_CODE = np.array([3, 2, 1, 0, 4], dtype=np.uint8)


def encode_base(base: str) -> int:
    """Encode a single base character to its ``uint8`` code.

    >>> encode_base("A"), encode_base("T")
    (0, 3)
    """
    try:
        return _ENCODE[base.upper()]
    except KeyError:
        raise ValueError(f"not a DNA base: {base!r}") from None


def decode_base(code: int) -> str:
    """Decode a ``uint8`` base code back to its character."""
    if not 0 <= code <= N_CODE:
        raise ValueError(f"not a base code: {code!r}")
    return _DECODE[code]


def encode_sequence(seq: str) -> np.ndarray:
    """Encode a base-pair string into a ``uint8`` numpy array, one table
    lookup over its bytes; the first character that is no base is
    refused as :func:`encode_base` refuses it.

    >>> encode_sequence("ACGTN").tolist()
    [0, 1, 2, 3, 4]
    """
    # one byte per character: anything outside ASCII becomes "?", no base
    raw = np.frombuffer(seq.encode("ascii", errors="replace"), np.uint8)
    codes = _ENCODE_TABLE[raw]
    bad = codes == _NOT_A_CODE
    if bad.any():  # refused in encode_base's words
        encode_base(seq[int(bad.argmax())])
    return codes


def decode_sequence(codes) -> str:
    """Decode a sequence of base codes into a base-pair string, one table
    lookup; the first code that is no base is refused as
    :func:`decode_base` refuses it."""
    codes = np.asarray(codes)
    bad = (codes < 0) | (codes > N_CODE)
    if bad.any():  # refused in decode_base's words
        decode_base(int(codes[bad.argmax()]))
    return _DECODE_TABLE[codes.astype(np.uint8)].tobytes().decode("ascii")


def complement(codes: np.ndarray) -> np.ndarray:
    """Complement an encoded sequence element-wise (A<->T, C<->G)."""
    return _COMPLEMENT_CODE[np.asarray(codes, dtype=np.uint8)]


def reverse_complement(codes: np.ndarray) -> np.ndarray:
    """Reverse-complement an encoded sequence.

    Used to derive the reverse-strand mate of a paired-end read in the
    read simulator.
    """
    return complement(codes)[::-1]


def random_sequence(length: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a uniformly random encoded DNA sequence of ``length`` bases."""
    if length < 0:
        raise ValueError("length must be non-negative")
    return rng.integers(0, 4, size=length, dtype=np.uint8)


def gc_content(codes: np.ndarray) -> float:
    """Fraction of G/C bases in an encoded sequence (N bases excluded)."""
    codes = np.asarray(codes)
    known = codes[codes != N_CODE]
    if known.size == 0:
        return 0.0
    is_gc = (known == encode_base("G")) | (known == encode_base("C"))
    return float(np.count_nonzero(is_gc)) / known.size
