"""Deterministic CSV and JSON emission for the command-line tool.

CSV uses '.' decimals, '\\n' line endings and a header row; JSON emits
every float with 17 significant digits.  Identical inputs produce
byte-identical files, so outputs diff cleanly in CI.
"""

import io
import math


def fmt_float(x) -> str:
    """Shortest exact decimal for CSV cells; a float subclass (numpy's
    float64) prints as the plain float it equals."""
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


def fmt_float_json(x: float) -> str:
    """17-significant-digit decimal (round-trips every double)."""
    if math.isnan(x) or math.isinf(x):
        raise ValueError("JSON output cannot carry non-finite numbers")
    return f"{x:.17g}"


def write_csv(stream, header, rows) -> None:
    stream.write(",".join(header) + "\n")
    for row in rows:
        stream.write(
            ",".join("" if v is None else fmt_float(v) for v in row) + "\n"
        )


def dumps_json(obj, indent: int = 0) -> str:
    """Serialize dicts/lists/scalars with controlled float formatting."""
    out = io.StringIO()
    _write_json(out, obj, indent, 0)
    out.write("\n")
    return out.getvalue()


def _write_json(out, obj, indent, depth):
    pad = " " * (indent * (depth + 1)) if indent else ""
    close_pad = " " * (indent * depth) if indent else ""
    sep = ",\n" if indent else ","
    if isinstance(obj, dict):
        if not obj:
            out.write("{}")
            return
        out.write("{\n" if indent else "{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.write(sep)
            out.write(f'{pad}"{k}":' + (" " if indent else ""))
            _write_json(out, v, indent, depth + 1)
        out.write(("\n" + close_pad if indent else "") + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.write("[]")
            return
        out.write("[\n" if indent else "[")
        for i, v in enumerate(obj):
            if i:
                out.write(sep)
            out.write(pad)
            _write_json(out, v, indent, depth + 1)
        out.write(("\n" + close_pad if indent else "") + "]")
    elif isinstance(obj, bool):
        out.write("true" if obj else "false")
    elif obj is None:
        out.write("null")
    elif isinstance(obj, float):
        out.write(fmt_float_json(obj))
    elif isinstance(obj, int):
        out.write(str(obj))
    elif isinstance(obj, str):
        escaped = (
            obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        )
        out.write(f'"{escaped}"')
    else:
        out.write(f'"{obj}"')
