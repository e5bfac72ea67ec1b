"""Generator engines, distributions, bit reads and stream adapters.

Every read of a stream's words goes through `RandomStream.next_block`,
or through `base.scan` when a test needs a data-dependent number of them.
"""

from .base import RandomStream, SeedableStream
from .bits import read_bits, read_fields
from .distributions import (
    uniform01_block,
    uniform01_map,
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
    ExternalStream,
    FileStream,
    external_stream,
    file_stream,
)

__all__ = [
    "RandomStream",
    "SeedableStream",
    "read_bits",
    "read_fields",
    "uniform01_block",
    "uniform01_map",
    "uniform_int_block",
    "Ecuyer1988",
    "LaggedFibonacci1279",
    "Minstd",
    "Mt19937",
    "Randu",
    "ShuffledStream",
    "ExternalStream",
    "FileStream",
    "external_stream",
    "file_stream",
]
