"""Deterministic file output helpers.

Every file the package writes goes through these functions so that
identical inputs produce byte-identical files: floats are rendered with 17
significant digits (full round-trip precision), dict keys are sorted,
column orders are frozen by the callers (CSV is built from columns,
each formatted in one pass), and writes land via an atomic rename. Each
file carries a leading manifest comment (CSV) or a ``_manifest`` entry
(JSON) holding a hash of the run configuration so outputs can be traced
back to their inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile

import numpy as np


def format_float(x) -> str:
    """Fixed 17-significant-digit rendering; exact for round-tripping.

    ``%.17g`` spells the non-finite values nan, inf and -inf (a negative
    NaN prints as nan).
    """
    return "%.17g" % float(x)


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return format_float(v)
    return str(v)


def _manifest(meta: dict) -> tuple:
    """(short sha256, canonical text) of the run configuration, keys sorted."""
    canonical = "; ".join(
        "%s=%s" % (k, format_value(meta[k])) for k in sorted(meta)
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:16], canonical


def manifest_line(meta: dict) -> str:
    """Comment line with a short hash of the (sorted) run configuration."""
    return "# manifest %s %s" % _manifest(meta)


def atomic_write_text(path: str, text: str) -> None:
    """Write text then atomically rename into place."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=directory)
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _format_column(column) -> list:
    """One column's cells: float arrays in one pass, anything else per entry."""
    if isinstance(column, np.ndarray):
        if column.dtype.kind == "f":
            return list(map(format_float, column.tolist()))
        column = column.tolist()
    return list(map(format_value, column))


def render_csv(header, columns, meta: dict | None = None) -> str:
    """CSV text from equal-length columns, each formatted once."""
    cells = [_format_column(c) for c in columns]
    if len({len(c) for c in cells}) > 1:
        raise ValueError("CSV columns differ in length")
    lines = [] if meta is None else [manifest_line(meta)]
    lines.append(",".join(str(h) for h in header))
    lines.extend(map(",".join, zip(*cells)))
    return "\n".join(lines) + "\n"


def write_csv(path: str, header, columns, meta: dict | None = None) -> None:
    """CSV with a manifest comment line, frozen column order, LF endings."""
    atomic_write_text(path, render_csv(header, columns, meta=meta))


def _json_safe(obj):
    """Replace non-finite floats (JSON has no spelling for them)."""
    if isinstance(obj, dict):
        return {k: _json_safe(obj[k]) for k in obj}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return format_float(obj)
    return obj


def render_json(obj: dict, meta: dict | None = None) -> str:
    payload = dict(obj)
    if meta is not None:
        digest, canonical = _manifest(meta)
        payload["_manifest"] = {"sha256_16": digest, "config": canonical}
    return json.dumps(_json_safe(payload), sort_keys=True, indent=2) + "\n"


def write_json(path: str, obj: dict, meta: dict | None = None) -> None:
    """JSON with sorted keys and an embedded manifest record."""
    atomic_write_text(path, render_json(obj, meta=meta))
