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


def dumps_json(obj) -> str:
    """Serialize dicts/lists/scalars with controlled float formatting, one
    member per line, indented by two spaces per level."""
    out = io.StringIO()
    _write_json(out, obj, 0)
    out.write("\n")
    return out.getvalue()


def _write_json(out, obj, depth):
    pad = "  " * (depth + 1)
    if isinstance(obj, dict):
        if not obj:
            out.write("{}")
            return
        out.write("{\n")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.write(",\n")
            out.write(f'{pad}"{k}": ')
            _write_json(out, v, depth + 1)
        out.write("\n" + "  " * depth + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.write("[]")
            return
        out.write("[\n")
        for i, v in enumerate(obj):
            if i:
                out.write(",\n")
            out.write(pad)
            _write_json(out, v, depth + 1)
        out.write("\n" + "  " * depth + "]")
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
