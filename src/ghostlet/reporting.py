"""Artifact writers: CSV, JSON, and P5 PGM heatmaps.

All writes are atomic (temp file in the target directory, then rename) and
byte-deterministic for identical inputs: floats are emitted with repr
(shortest round-trip form) and JSON keys are sorted.
"""
from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np


def _atomic_write(path: Path, data: bytes):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, complex):
        return f"{_fmt(x.real)}{'+' if x.imag >= 0 else '-'}{_fmt(abs(x.imag))}j"
    return repr(float(x))


def write_csv(path, header: list[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _atomic_write(Path(path), ("\n".join(lines) + "\n").encode())
    return str(path)


def write_matrix_csv(path, matrix: np.ndarray, row_axis: np.ndarray,
                     col_axis: np.ndarray, corner: str = "axis") -> str:
    """Row-major matrix with leading header row/column of axis values."""
    header = [corner] + [_fmt(v) for v in col_axis]
    rows = []
    for r, row in zip(row_axis, np.asarray(matrix)):
        rows.append([r] + list(row))
    return write_csv(path, header, rows)


def write_json(path, payload: dict) -> str:
    def default(obj):
        if isinstance(obj, (np.floating, np.integer)):
            return obj.item()
        if isinstance(obj, complex):
            return {"re": obj.real, "im": obj.imag}
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        raise TypeError(f"not JSON-serializable: {type(obj)}")

    data = json.dumps(payload, sort_keys=True, indent=2, default=default)
    _atomic_write(Path(path), (data + "\n").encode())
    return str(path)


def write_pgm(path, matrix: np.ndarray) -> tuple[str, float, float]:
    """P5 heatmap, linearly scaled to 0..255; returns (path, lo, hi) so the
    CSV values are recoverable up to quantization."""
    mat = np.asarray(matrix, dtype=float)
    lo = float(np.min(mat))
    hi = float(np.max(mat))
    span = hi - lo if hi > lo else 1.0
    scaled = np.round((mat - lo) / span * 255.0).astype(np.uint8)
    header = f"P5\n{mat.shape[1]} {mat.shape[0]}\n255\n".encode()
    _atomic_write(Path(path), header + scaled.tobytes())
    return str(path), lo, hi

