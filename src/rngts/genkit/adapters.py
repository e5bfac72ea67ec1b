"""Stream adapters: words read from a file or a child process."""

from __future__ import annotations

import os
import subprocess
from typing import Sequence

import numpy as np

from ..errors import ConfigurationError
from .base import RandomStream


class _WordReader(RandomStream):
    """Little-endian unsigned 32-bit words read from the binary file
    object `_fh`; a partial trailing word is dropped."""

    min_value = 0
    max_value = 2**32 - 1

    def _generate(self, n: int) -> np.ndarray:
        data = self._fh.read(4 * min(n, 65536)) or b""
        usable = len(data) - len(data) % 4
        return np.frombuffer(data[:usable], dtype="<u4")


class FileStream(_WordReader):
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
        self._fh = fh
        self.name = f"file({os.path.basename(path)})"

    def close(self) -> None:
        self._fh.close()


def file_stream(path: str) -> RandomStream:
    return FileStream(path)


class ExternalStream(_WordReader):
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
        self._fh = self._proc.stdout
        self.name = f"external({os.path.basename(command[0])})"

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
