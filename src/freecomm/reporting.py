"""Canonical report emission.

Floats are rounded to 12 significant digits before serialization so that
report bytes do not depend on BLAS reduction order (thread count); all
mathematical tolerances in the library are checked on full-precision
values before anything is serialized.  Files are written atomically
(temporary file, then rename); without a file a report goes to stdout.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Any

FLOAT_SIG_DIGITS = 12


def round_floats(obj: Any):
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return float(f"{obj:.{FLOAT_SIG_DIGITS}g}")
    if isinstance(obj, complex):
        return [round_floats(obj.real), round_floats(obj.imag)]
    if isinstance(obj, dict):
        return {str(k): round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        if set(map(type, obj)) <= {str, int}:  # nothing to round: no walk in Python
            return list(obj)
        return [round_floats(v) for v in obj]
    return obj


def canonical_json_bytes(payload: dict) -> bytes:
    return (json.dumps(round_floats(payload), indent=2, sort_keys=True) + "\n").encode()


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def emit_json(payload: dict, out: str | Path | None) -> bytes:
    return emit_text(canonical_json_bytes(payload).decode(), out)


def emit_text(text: str, out: str | Path | None) -> bytes:
    data = text.encode()
    if out is None:
        sys.stdout.write(text)
    else:
        atomic_write_bytes(out, data)
    return data
