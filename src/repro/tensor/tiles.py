"""AMX tile geometry (Section 3.2).

Each AMX tile register holds a 16-row by 64-byte submatrix; a single
instruction loads or stores a full tile.  All KTransformers weight layouts
are expressed in units of these tiles, and every tile row is aligned to a
64-byte cache line.
"""

from __future__ import annotations

import math

from ..errors import LayoutError
from .dtypes import DType

TILE_ROWS = 16
TILE_ROW_BYTES = 64
CACHE_LINE_BYTES = 64


def tile_cols(dt: DType) -> int:
    """Number of elements per tile row for a payload dtype.

    Int4 packs two elements per byte, so a 64-byte row holds 128 of them.
    """
    bits = dt.bits
    cols = TILE_ROW_BYTES * 8 // bits
    if cols * bits != TILE_ROW_BYTES * 8:
        raise LayoutError(f"dtype {dt.name} does not evenly fill a tile row")
    return cols


def padded_rows(rows: int) -> int:
    """Rows rounded up to a whole number of 16-row tiles."""
    if rows <= 0:
        raise LayoutError(f"rows must be positive, got {rows}")
    return math.ceil(rows / TILE_ROWS) * TILE_ROWS


def padded_cols(cols: int, dt: DType) -> int:
    """Columns rounded up to a whole number of tile rows (64 bytes)."""
    if cols <= 0:
        raise LayoutError(f"cols must be positive, got {cols}")
    tc = tile_cols(dt)
    return math.ceil(cols / tc) * tc


def tile_grid(rows: int, cols: int, dt: DType) -> tuple[int, int]:
    """Number of (row-tiles, col-tiles) covering a rows x cols matrix."""
    return padded_rows(rows) // TILE_ROWS, padded_cols(cols, dt) // tile_cols(dt)


def tiles_in_matrix(rows: int, cols: int, dt: DType) -> int:
    """Total tile count covering a rows x cols matrix."""
    tr, tc = tile_grid(rows, cols, dt)
    return tr * tc


def tile_bytes() -> int:
    """Storage footprint of one tile (payload only)."""
    return TILE_ROWS * TILE_ROW_BYTES
