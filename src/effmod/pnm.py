"""Minimal binary PNM support: P5 (grayscale) in/out, P6 (RGB) in.

Header parsing tolerates comments and arbitrary whitespace; maxval up to 255
(one byte per sample). That is all the context-map pipeline needs.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError


def _read_tokens(data: bytes, count: int, i: int):
    """Header tokens from data[i:], skipping '#' comments; returns (tokens, offset past header)."""
    tokens = []
    while len(tokens) < count:
        if i >= len(data):
            raise ConfigError("truncated PNM header")
        c = data[i : i + 1]
        if c == b"#":
            while i < len(data) and data[i : i + 1] != b"\n":
                i += 1
        elif c.isspace():
            i += 1
        else:
            j = i
            while j < len(data) and not data[j : j + 1].isspace() and data[j : j + 1] != b"#":
                j += 1
            tokens.append(data[i:j])
            i = j
    # exactly one whitespace byte separates header from raster
    return tokens, i + 1


def read_pnm(path: str) -> np.ndarray:
    """Read binary P5 -> [h, w] uint8 or P6 -> [h, w, 3] uint8 (scaled to maxval 255)."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:2] not in (b"P5", b"P6"):
        raise ConfigError(f"{path}: not a binary PGM/PPM (magic {data[:2]!r})")
    tokens, off = _read_tokens(data, 3, 2)
    try:
        w, h, maxval = (int(t) for t in tokens)
    except ValueError:
        raise ConfigError(f"{path}: malformed PNM header {tokens}")
    if w < 1 or h < 1 or not 1 <= maxval <= 255:
        raise ConfigError(
            f"{path}: need width and height >= 1 and an 8-bit maxval, got {w}x{h}, maxval {maxval}"
        )
    channels = 1 if data[:2] == b"P5" else 3
    need = w * h * channels
    if len(data) < off + need:
        got = max(0, len(data) - off)
        raise ConfigError(f"{path}: raster truncated, expected {need} bytes got {got}")
    arr = np.frombuffer(data, np.uint8, count=need, offset=off)  # in place: no copy of the file
    if maxval != 255:
        arr = (arr.astype(np.uint16) * 255 // maxval).astype(np.uint8)
    if channels == 1:
        return arr.reshape(h, w)
    return arr.reshape(h, w, 3)


def write_pgm(path: str, grid: np.ndarray) -> None:
    """Write a [h, w] uint8 array as binary P5."""
    if grid.ndim != 2:
        raise ConfigError(f"PGM output must be 2-D, got {grid.shape}")
    g = np.ascontiguousarray(grid, dtype=np.uint8)
    h, w = g.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode())
        f.write(g.tobytes())
