"""Stream adapters: bit extraction, file and child-process sources."""

from __future__ import annotations

import os
import subprocess
from typing import Sequence

import numpy as np

from ..errors import ConfigurationError, StreamExhausted
from .base import RandomStream


class BitExtractStream(RandomStream):
    """Emits bits [lo..hi] of each raw output of the inner stream."""

    def __init__(self, inner: RandomStream, hi: int, lo: int):
        if not (0 <= lo <= hi < inner.bit_width):
            raise ConfigurationError(
                f"bit range [{lo}..{hi}] outside source width {inner.bit_width}"
            )
        super().__init__()
        self._inner = inner
        self._hi = hi
        self._lo = lo
        self._mask = (1 << (hi - lo + 1)) - 1
        self.min_value = 0
        self.max_value = self._mask
        self.name = f"bits[{lo}..{hi}]({inner.name})"

    def _generate(self, n: int) -> np.ndarray:
        try:
            raw = self._inner.next_block(min(n, 65536))
        except StreamExhausted as exc:
            # a finite inner stream serves the words it still holds
            if not exc.available:
                raise
            raw = self._inner.next_block(exc.available)
        return (raw >> np.uint64(self._lo)) & np.uint64(self._mask)


def bit_extract(inner: RandomStream, hi: int, lo: int) -> RandomStream:
    return BitExtractStream(inner, hi, lo)


class FileStream(RandomStream):
    """Reads little-endian unsigned 32-bit words from a binary file."""

    def __init__(self, path: str):
        try:
            size = os.path.getsize(path)
            fh = open(path, "rb")
        except OSError as exc:
            raise ConfigurationError(f"cannot read {path}: {exc}") from exc
        if size % 4 != 0:
            fh.close()
            raise ConfigurationError(
                f"{path}: length {size} is not a multiple of 4 bytes"
            )
        super().__init__()
        self._path = path
        self._fh = fh
        self.min_value = 0
        self.max_value = 2**32 - 1
        self.name = f"file({os.path.basename(path)})"

    def _generate(self, n: int) -> np.ndarray:
        data = self._fh.read(4 * min(n, 65536))
        return np.frombuffer(data, dtype="<u4").astype(np.uint64)

    def close(self) -> None:
        self._fh.close()


def file_stream(path: str) -> RandomStream:
    return FileStream(path)


class ExternalStream(RandomStream):
    """Reads little-endian u32 words from a child process's standard output."""

    def __init__(self, command: Sequence[str]):
        if isinstance(command, str):
            command = [command]
        if not command:
            raise ConfigurationError("external stream needs a command")
        super().__init__()
        try:
            self._proc = subprocess.Popen(
                list(command), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL
            )
        except OSError as exc:
            raise ConfigurationError(f"cannot spawn {command[0]}: {exc}") from exc
        self.min_value = 0
        self.max_value = 2**32 - 1
        self.name = f"external({os.path.basename(command[0])})"

    def _generate(self, n: int) -> np.ndarray:
        want = 4 * min(n, 65536)
        data = self._proc.stdout.read(want)
        if data is None:
            data = b""
        usable = len(data) - len(data) % 4
        return np.frombuffer(data[:usable], dtype="<u4").astype(np.uint64)

    def close(self) -> None:
        if self._proc.poll() is None:
            self._proc.terminate()
            try:
                self._proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self._proc.kill()
        if self._proc.stdout:
            self._proc.stdout.close()

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass


def external_stream(command: Sequence[str]) -> RandomStream:
    return ExternalStream(command)
