"""Records and their text, JSON and CSV renderers.

A record is an ordered list of :class:`Field` values, at most one of which
holds a :class:`Table`.  A field's ``kind`` selects its formatting in every
renderer, and every number is checked before it is printed: a non-finite
one raises ``DomainError`` naming its field, unless the kind allows it.
CSV floats carry 17 significant digits, so they round-trip to the exact
double.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
from operator import itemgetter
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

    An unnamed complex column is flattened to ``re`` and ``im``.  ``line``
    formats a row as text; without it the text is the CSV spaced by two blanks.
    """

    columns: tuple
    rows: list
    line: Callable[..., str] | None = None


def format_float(x: float) -> str:
    """17 significant digits: the shortest form that always round-trips."""
    return format(float(x), ".17g")


def format_complex(z: complex, space: str = " ") -> str:
    """``a + bi`` with both parts by :func:`format_float`; ``space=""`` gives a literal."""
    sign = "-" if z.imag < 0 else "+"
    return f"{format_float(z.real)}{space}{sign}{space}{format_float(abs(z.imag))}i"


def _complex_json(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


# kind -> (text form, JSON form, test that its numbers are finite, or None)
KINDS = {
    "str": (lambda v: "" if v is None else v, lambda v: v, None),
    "int": (str, int, None),
    "bool": (lambda v: "true" if v else "false", bool, None),
    "float": (format_float, float, math.isfinite),
    # a float that may be infinite or absent: only x_region_halfwidth
    "inf": (
        lambda v: "none" if v is None else format_float(v),
        lambda v: "inf" if v == math.inf else v if v is None else float(v),
        lambda v: v is None or v == math.inf or math.isfinite(v),
    ),
    "complex": (format_complex, _complex_json, cmath.isfinite),
    "lit": (lambda z: format_complex(z, ""), _complex_json, cmath.isfinite),
    "vector": (
        lambda v: ",".join(map(format_float, v)),
        lambda v: [float(x) for x in v],
        lambda v: all(map(math.isfinite, v)),
    ),
    "index": (lambda v: " ".join(map(str, v)), list, None),
    # (passed, tolerance) of a check
    "check": (
        lambda v: f"{'pass' if v[0] else 'fail'} (tol {format_float(v[1])})",
        lambda v: {"tolerance": float(v[1]), "passed": v[0]},
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


def _json_value(f: Field):
    if f.kind == "group":
        return {g.key: _json_value(g) for g in f.value}
    if f.kind != "table":
        return _cell(f.key, f.value, f.kind, 1)
    columns = _columns(f.value, f.key)
    rows = []
    for row in f.value.rows:
        obj = {}
        for (key, _, forms), v in zip(columns, row):
            if key:
                obj[key] = forms[1](v)
            else:
                obj.update(forms[1](v))
        rows.append(obj)
    return rows


def _render_json(record: list[Field]) -> str:
    doc = {f.key: _json_value(f) for f in record if f.key is not None}
    return json.dumps(doc.get("", doc), indent=2) + "\n"


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
