"""Records and their text, JSON and CSV renderers.

A record is an ordered list of :class:`Field` values, at most one of which
holds a :class:`Table`.  A field's ``kind`` selects its formatting in every
renderer, and every number is checked before it is printed: a non-finite
one raises ``DomainError`` naming its field, unless the kind allows it.
CSV floats carry 17 significant digits, so they round-trip to the exact
double.  An exact zero prints without a sign in every format: its sign
says how a value was computed, not what it is.

The JSON renderer writes the document itself, byte for byte what
``json.dumps(doc, indent=2)`` writes, since with an indent the standard
encoder runs in pure Python and a coefficient table took most of its
time.  A table's rows are filled into one ``%`` template built from its
columns, with no per-row dict; scalars go through ``json.dumps``.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
from itertools import repeat
from operator import add, attrgetter, itemgetter
from typing import Callable, NamedTuple

from .errors import DomainError


class Field(NamedTuple):
    """One output field of a kind in ``KINDS``, or a ``table`` (a :class:`Table`),
    ``group`` (a list of fields: a text block, a JSON object) or text ``line``."""

    key: str | None  # JSON key; None keeps the field out of JSON, "" makes it the document
    value: object
    kind: str
    label: str | None = ""  # text label; "" repeats the key, None keeps the field out of text
    csv: bool = False  # a column of the one-row CSV of a record without a table


class Table(NamedTuple):
    """Rows under columns ``(JSON key, kind)`` or ``(JSON key, kind, CSV header)``.

    An unnamed complex column is flattened to ``re`` and ``im``; the JSON
    keys of a row are distinct.  ``line`` formats a row as text; without it
    the text is the CSV spaced by two blanks.
    """

    columns: tuple
    rows: list
    line: Callable[..., str] | None = None


def _unsigned(x) -> float:
    """``x`` as a float, an exact zero unsigned: ``-0.0 + 0.0`` is ``+0.0``."""
    return float(x) + 0.0


def format_float(x: float) -> str:
    """17 significant digits: the shortest form that always round-trips."""
    return format(_unsigned(x), ".17g")


def format_complex(z: complex, space: str = " ") -> str:
    """``a + bi`` with both parts by :func:`format_float`; ``space=""`` gives a literal."""
    sign = "-" if z.imag < 0 else "+"
    return f"{format_float(z.real)}{space}{sign}{space}{format_float(abs(z.imag))}i"


def _complex_json(z: complex) -> dict:
    return {"re": _unsigned(z.real), "im": _unsigned(z.imag)}


# kind -> (text form, JSON form, test that its numbers are finite, or None)
KINDS = {
    "str": (lambda v: "" if v is None else v, lambda v: v, None),
    "int": (str, int, None),
    "bool": (lambda v: "true" if v else "false", bool, None),
    "float": (format_float, _unsigned, math.isfinite),
    # a float that may be infinite or absent: only x_region_halfwidth
    "inf": (
        lambda v: "none" if v is None else format_float(v),
        lambda v: "inf" if v == math.inf else v if v is None else _unsigned(v),
        lambda v: v is None or v == math.inf or math.isfinite(v),
    ),
    "complex": (format_complex, _complex_json, cmath.isfinite),
    "lit": (lambda z: format_complex(z, ""), _complex_json, cmath.isfinite),
    "vector": (
        lambda v: ",".join(map(format_float, v)),
        lambda v: [_unsigned(x) for x in v],
        lambda v: all(map(math.isfinite, v)),
    ),
    "index": (lambda v: " ".join(map(str, v)), list, None),
    # (passed, tolerance) of a check
    "check": (
        lambda v: f"{'pass' if v[0] else 'fail'} (tol {format_float(v[1])})",
        lambda v: {"tolerance": _unsigned(v[1]), "passed": v[0]},
        None,
    ),
}


def _cell(name: str, value, kind: str, form: int):
    """``value`` as text (form 0) or JSON (form 1); a non-finite number raises ``DomainError``."""
    forms = KINDS[kind]
    if forms[2] is not None and not forms[2](value):
        raise DomainError(f"non-finite value in {name}")
    return forms[form](value)


def _columns(table: Table, name: str) -> list[tuple[str, str, tuple]]:
    """``(JSON key, kind, KINDS entry)`` per column, once every number in the table is checked."""
    columns = []
    for i, (key, kind, *_) in enumerate(table.columns):
        forms = KINDS[kind]
        if forms[2] is not None and not all(map(forms[2], map(itemgetter(i), table.rows))):
            raise DomainError(f"non-finite value in {key or name}")
        columns.append((key, kind, forms))
    return columns


def _csv_rows(table: Table, name: str):
    header = []
    for key, kind, *csv_name in table.columns:
        head = csv_name[0] if csv_name else key
        prefix = f"{head}_" if head else ""
        header += [prefix + "re", prefix + "im"] if kind == "complex" else [head]
    yield header
    columns = _columns(table, name)
    for row in table.rows:
        cells = []
        for (_, kind, forms), v in zip(columns, row):
            cells += [format_float(v.real), format_float(v.imag)] if kind == "complex" else [forms[0](v)]
        yield cells


def _label(f: Field) -> str | None:
    return f.key if f.label == "" else f.label


def _block(fields: list[Field]) -> list[str]:
    texts = [(_label(f), _cell(_label(f), f.value, f.kind, 0)) for f in fields]
    width = max((len(label) for label, _ in texts), default=0)
    return [f"{label:<{width}} = {text}" for label, text in texts]


def _render_text(record: list[Field]) -> str:
    lines: list[str] = []
    block: list[Field] = []
    for f in record:
        if _label(f) is None:
            continue
        if f.kind not in ("table", "group", "line"):
            block.append(f)
            continue
        lines += _block(block)
        block = []
        if f.kind == "table" and f.value.line is None:
            lines += ["  ".join(cells) for cells in _csv_rows(f.value, f.key)]
        elif f.kind == "table":
            _columns(f.value, f.key)
            lines += [f.value.line(*row) for row in f.value.rows]
        elif f.kind == "group":
            lines += _block(f.value)
        else:
            lines.append(f.value)
    return "\n".join(lines + _block(block)) + "\n"


def _json_text(value, pad: str) -> str:
    """``json.dumps(value, indent=2)`` for a value whose first line sits at indent ``pad``."""
    inner = pad + "  "
    if isinstance(value, (list, tuple)) and value:
        items = [inner + _json_text(v, inner) for v in value]
    elif isinstance(value, dict) and value:
        items = [f"{inner}{json.dumps(k)}: {_json_text(v, inner)}" for k, v in value.items()]
    else:
        return json.dumps(value)
    opening, closing = "[]" if isinstance(value, (list, tuple)) else "{}"
    return opening + "\n" + ",\n".join(items) + "\n" + pad + closing


_JSON_BOOL = ("false", "true")


def _unsigned_all(values):
    """:func:`_unsigned` of each value, without a Python call per value."""
    return map(add, map(float, values), repeat(0.0))


def _json_table(table: Table, name: str, pad: str) -> str:
    """The rows of ``table`` as a JSON array, each row filled into one ``%`` template.

    The template holds the row's JSON text with a slot per number: ``%d``
    for an int, ``%r`` (``float.__repr__``, json's own form) for a float,
    and ``%s`` for a piece already written as JSON text.  A complex fills
    ``re`` and ``im`` (of the row itself when its column is unnamed), and
    an ``index`` column of one length one ``%d`` per entry.  Other cells
    are written by :func:`_json_text`.
    """
    columns = _columns(table, name)
    rows = table.rows
    if not rows:
        return "[]"
    row_pad, key_pad = pad + "  ", pad + "    "
    slots, args = [], []
    for i, (key, kind, forms) in enumerate(columns):
        cells = list(map(itemgetter(i), rows))
        head = json.dumps(key).replace("%", "%%") + ": "
        if not key or kind in ("complex", "lit"):
            args += [_unsigned_all(map(attrgetter(part), cells)) for part in ("real", "imag")]
            if key:
                slots.append(f'{head}{{\n{key_pad}  "re": %r,\n{key_pad}  "im": %r\n{key_pad}}}')
            else:
                slots += ['"re": %r', '"im": %r']
        elif kind == "int":
            slots.append(head + "%d")
            args.append(cells)
        elif kind == "float":
            slots.append(head + "%r")
            args.append(_unsigned_all(cells))
        elif kind == "str":
            slots.append(head + "%s")
            args.append(map(json.dumps, cells))
        elif kind == "bool":
            slots.append(head + "%s")
            args.append(map(_JSON_BOOL.__getitem__, map(bool, cells)))
        elif kind == "index" and len(set(map(len, cells))) == 1 and cells[0]:
            item = f"\n{key_pad}  %d"
            slots.append(f"{head}[" + ",".join([item] * len(cells[0])) + f"\n{key_pad}]")
            args += zip(*cells)
        else:
            slots.append(head + "%s")
            args.append([_json_text(forms[1](v), key_pad) for v in cells])
    body = f",\n{key_pad}".join(slots)
    template = f"{row_pad}{{\n{key_pad}{body}\n{row_pad}}}" if slots else row_pad + "{}"
    cells = zip(*args) if args else [()] * len(rows)
    return "[\n" + ",\n".join(map(template.__mod__, cells)) + "\n" + pad + "]"


def _json_fields(fields: list[Field]) -> dict:
    # a later field of a key takes the place of an earlier one, as in a dict
    return {f.key: f for f in fields if f.key is not None}


def _json_field(f: Field, pad: str) -> str:
    if f.kind == "table":
        return _json_table(f.value, f.key, pad)
    if f.kind != "group":
        return _json_text(_cell(f.key, f.value, f.kind, 1), pad)
    fields = _json_fields(f.value)
    if not fields:
        return "{}"
    inner = pad + "  "
    items = [f"{inner}{json.dumps(key)}: {_json_field(g, inner)}" for key, g in fields.items()]
    return "{\n" + ",\n".join(items) + "\n" + pad + "}"


def _render_json(record: list[Field]) -> str:
    whole = _json_fields(record).get("", Field(None, record, "group"))
    return _json_field(whole, "") + "\n"


def _render_csv(record: list[Field]) -> str:
    field = next((f for f in record if f.kind == "table"), None)
    if field is None:
        row = [f for f in record if f.csv]
        table = Table(tuple((f.key, f.kind) for f in row), [tuple(f.value for f in row)])
        field = Field("", table, "table")
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(_csv_rows(field.value, field.key))
    return buf.getvalue()


RENDERERS = {"text": _render_text, "json": _render_json, "csv": _render_csv}
