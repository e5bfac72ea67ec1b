"""Generator engines, distributions, and stream adapters."""

from .base import RandomStream, SeedableStream
from .bits import BitReader
from .distributions import (
    uniform01,
    uniform01_block,
    uniform01_map,
    uniform_int,
    uniform_int_block,
)
from .engines import (
    Ecuyer1988,
    LaggedFibonacci1279,
    Minstd,
    Mt19937,
    Randu,
    ShuffledStream,
)
from .adapters import (
    BitExtractStream,
    ExternalStream,
    FileStream,
    bit_extract,
    external_stream,
    file_stream,
)

__all__ = [
    "RandomStream",
    "SeedableStream",
    "BitReader",
    "uniform01",
    "uniform01_block",
    "uniform01_map",
    "uniform_int",
    "uniform_int_block",
    "Ecuyer1988",
    "LaggedFibonacci1279",
    "Minstd",
    "Mt19937",
    "Randu",
    "ShuffledStream",
    "BitExtractStream",
    "ExternalStream",
    "FileStream",
    "bit_extract",
    "external_stream",
    "file_stream",
]
