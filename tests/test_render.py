"""The JSON renderer writes what ``json.dumps(doc, indent=2)`` writes, byte for byte."""

import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exptaylor import cli, render
from exptaylor.render import KINDS, Field, Table

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def json_doc(record):
    """The document as dicts and lists, built as the renderer once built it for ``json.dumps``."""

    def value(f):
        if f.kind == "group":
            return {g.key: value(g) for g in f.value if g.key is not None}
        if f.kind != "table":
            return render._cell(f.key, f.value, f.kind, 1)
        rows = []
        for row in f.value.rows:
            obj = {}
            for (key, kind, *_), v in zip(f.value.columns, row):
                if key:
                    obj[key] = KINDS[kind][1](v)
                else:
                    obj.update(KINDS[kind][1](v))
            rows.append(obj)
        return rows

    doc = {f.key: value(f) for f in record if f.key is not None}
    return doc.get("", doc)


def as_json(argv):
    argv = list(argv)
    if "--format" in argv:
        argv[argv.index("--format") + 1] = "json"
    else:
        argv += ["--format", "json"]
    return argv


@pytest.mark.parametrize("case", [c for c in CASES if c["exit"] == 0], ids=lambda c: c["name"])
def test_json_of_every_readme_example_is_json_dumps(case):
    args = cli.build_parser().parse_args(cli._attach_values(as_json(case["argv"])))
    record, _code = args.handler(args)
    assert render._render_json(record) == json.dumps(json_doc(record), indent=2) + "\n"


# ---- random records ----------------------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False)
complexes = st.builds(complex, finite, finite)
# escapes, control characters, non-ASCII and astral characters, and `%`, which the row template must escape
text = st.text(st.characters(blacklist_categories=("Cs",)) | st.sampled_from('"\\%\n\t\x00é€😀'), max_size=8)
keys = text.filter(lambda k: k not in ("", "re", "im"))

VALUES = {
    "str": st.none() | text,
    "int": st.integers(-(10**20), 10**20),
    "bool": st.booleans(),
    "float": finite,
    "inf": st.none() | st.just(math.inf) | finite,
    "complex": complexes,
    "lit": complexes,
    "vector": st.lists(finite, max_size=4).map(tuple),
    "index": st.lists(st.integers(0, 16), min_size=1, max_size=4).map(tuple),
    "check": st.tuples(st.booleans(), finite),
}
assert VALUES.keys() == KINDS.keys()


@st.composite
def tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(KINDS)), min_size=1, max_size=5))
    names = draw(st.lists(keys, min_size=len(kinds), max_size=len(kinds), unique=True))
    columns = [(name, kind) for name, kind in zip(names, kinds)]
    if draw(st.booleans()):  # one unnamed complex column, written as "re" and "im"
        columns.insert(draw(st.integers(0, len(columns))), ("", "complex"))
    width = draw(st.integers(1, 4))  # the multi-indices of one table share a length
    index = st.lists(st.integers(0, 16), min_size=width, max_size=width).map(tuple)
    cells = [index if kind == "index" else VALUES[kind] for _, kind in columns]
    rows = draw(st.lists(st.tuples(*cells), max_size=6))
    return Table(tuple(columns), rows)


def fields(depth):
    scalar = st.sampled_from(sorted(KINDS)).flatmap(lambda kind: st.builds(Field, keys, VALUES[kind], st.just(kind)))
    table = st.builds(Field, keys, tables(), st.just("table"))
    if depth == 0:
        return scalar | table
    group = st.builds(Field, keys, st.lists(fields(depth - 1), max_size=4), st.just("group"))
    return scalar | table | group


records = st.lists(fields(2) | st.builds(Field, st.none(), text, st.just("str")), max_size=6) | st.builds(
    lambda table, rest: [Field("", table, "table")] + rest,
    tables(),
    st.lists(st.builds(Field, st.none(), text, st.just("line")), max_size=1),
)


@settings(max_examples=300, deadline=None)
@given(records)
def test_json_writer_is_json_dumps_of_the_record(record):
    assert render._render_json(record) == json.dumps(json_doc(record), indent=2) + "\n"


def test_json_writer_on_edge_tables():
    cases = [
        [],
        [Field("g", [], "group")],
        [Field("t", Table((("a", "int"),), []), "table")],
        [Field("", Table((("", "complex"),), [(1j,), (-0.0 - 2j,)]), "table")],
        [Field("t", Table((("index", "index"),), [((1, 2),), ((3,),)]), "table")],  # lengths mixed
        [Field("a", 1, "int"), Field("a", 2.5, "float"), Field("b", None, "str")],  # a repeated key
    ]
    for record in cases:
        assert render._render_json(record) == json.dumps(json_doc(record), indent=2) + "\n"


# ---- exact zeros ---------------------------------------------------------------

ZEROS = [0.0, -0.0]
SIGNED_ZERO_TOKEN = re.compile(r"(?<![\w.])-0(\.0)?(?![\w.])")


def zero_record():
    """Every kind that holds a float, each with +0.0 and -0.0, in fields and in table cells."""
    complexes = [complex(a, b) for a in ZEROS for b in ZEROS]
    group = [Field(f"f{i}", x, "float") for i, x in enumerate(ZEROS)]
    group += [Field(f"{kind}{i}", z, kind) for i, z in enumerate(complexes) for kind in ("complex", "lit")]
    group += [Field("v", tuple(ZEROS), "vector"), Field("h", -0.0, "inf"), Field("c", (True, -0.0), "check")]
    columns = (("i", "int"), ("", "complex"), ("named", "complex"), ("x", "float"))
    rows = [(i, z, z, z.real) for i, z in enumerate(complexes)]
    return [Field("g", group, "group"), Field("t", Table(columns, rows), "table")]


def floats_in(value):
    if isinstance(value, float):
        return [value]
    items = value.values() if isinstance(value, dict) else value if isinstance(value, list) else []
    return [x for item in items for x in floats_in(item)]


def test_an_exact_zero_prints_without_a_sign_in_json():
    text = render._render_json(zero_record())
    numbers = floats_in(json.loads(text))
    # group: 2 floats, 8 complex of 2 parts, 2 vector entries, inf, check; table: 4 rows of 5 floats
    assert len(numbers) == 2 + 16 + 2 + 1 + 1 + 4 * 5
    assert all(x == 0 and math.copysign(1.0, x) == 1.0 for x in numbers)
    assert not SIGNED_ZERO_TOKEN.search(text)


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_no_format_writes_a_signed_zero(fmt):
    table_only = [f for f in zero_record() if f.kind == "table"]
    one_row = [Field(f"f{i}", x, "float", csv=True) for i, x in enumerate(ZEROS)]
    one_row += [Field(f"z{i}", complex(a, b), "complex", csv=True) for i, (a, b) in enumerate([(-0.0, -0.0), (0.0, -0.0)])]
    for record in (zero_record(), table_only, one_row):
        out = render.RENDERERS[fmt](record)
        assert "0" in out and not SIGNED_ZERO_TOKEN.search(out), out
        if fmt == "csv":
            cells = [c for line in out.splitlines()[1:] for c in line.split(",")]
            assert set(cells) <= {"0", "1", "2", "3"}, cells
