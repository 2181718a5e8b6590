"""The Genesis hardware module library (Figure 6 and Section III-C)."""

from .alu import BINARY_OPS, UNARY_OPS, Fork, StreamAlu
from .binidgen import BinIdGen
from .filterm import COMPARATORS, Filter
from .joiner import Joiner
from .mdgen import MdGen, join_md_tokens
from .memreader import MemoryReader
from .memwriter import MemoryWriter
from .readtobases import ReadToBases
from .reducer import Reducer
from .spm_access import SpmReader, SpmUpdater

__all__ = [
    "BINARY_OPS",
    "BinIdGen",
    "COMPARATORS",
    "Filter",
    "Fork",
    "Joiner",
    "MdGen",
    "MemoryReader",
    "MemoryWriter",
    "ReadToBases",
    "Reducer",
    "SpmReader",
    "SpmUpdater",
    "StreamAlu",
    "UNARY_OPS",
    "join_md_tokens",
]
