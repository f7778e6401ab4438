import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exptaylor.errors import DomainError, ParseError, ValidationError
from exptaylor.expr import (
    FUNCTIONS,
    BinOp,
    Call,
    Const,
    NamedConst,
    Neg,
    Var,
    eval_complex,
    int_exponent,
    parse,
    to_source,
)


def test_parse_cosine_structure():
    ast = parse("cos(2*pi*x)", 1)
    assert ast.dims == 1
    root = ast.root
    assert isinstance(root, Call) and root.func == "cos"
    arg = root.arg
    assert isinstance(arg, BinOp) and arg.op == "*"
    assert arg.left == BinOp("*", Const(2 + 0j), NamedConst("pi"))
    assert arg.right == Var(0, "x")


def test_power_binds_tighter_than_mul():
    ast = parse("x1*x2^2", 2)
    root = ast.root
    assert root == BinOp("*", Var(0, "x1"), BinOp("^", Var(1, "x2"), Const(2 + 0j)))


def test_power_right_associative():
    root = parse("2^3^2").root
    assert root == BinOp("^", Const(2 + 0j), BinOp("^", Const(3 + 0j), Const(2 + 0j)))
    assert eval_complex(parse("2^3^2"), 0.0) == pytest.approx(512)


def test_unary_minus_and_negative_exponent():
    assert eval_complex(parse("-x"), 0.25) == pytest.approx(-0.25)
    assert eval_complex(parse("2^-2"), 0.0) == pytest.approx(0.25)
    assert eval_complex(parse("-2^2"), 0.0) == pytest.approx(-4)  # -(2^2)


def test_whitespace_insensitive():
    assert parse("  cos( 2 * pi*x )  ") == parse("cos(2*pi*x)")


@pytest.mark.parametrize(
    "src, offset",
    [
        ("cos(", 4),
        ("", 0),
        ("2x", 1),
        ("x +", 3),
        ("foo(x)", 0),
        ("(x", 2),
        ("x$", 1),
        ("y", 0),
    ],
)
def test_parse_error_offsets(src, offset):
    with pytest.raises(ParseError) as exc:
        parse(src, 1)
    assert exc.value.offset == offset


def test_variable_names_follow_dims():
    with pytest.raises(ParseError):
        parse("x1", 1)  # dims=1 expression uses plain 'x'
    with pytest.raises(ParseError):
        parse("x", 2)
    with pytest.raises(ParseError):
        parse("x3", 2)
    assert parse("x2", 2).root == Var(1, "x2")
    with pytest.raises(ParseError):
        parse("x", 5)  # dims cap


@pytest.mark.parametrize(
    "src",
    [
        "cos(2*pi*x)",
        "x^2 - 3*x + 1",
        "sin(x)+x^3",
        "-x^2",
        "x1*x2^2 + exp(x1+x2)",
        "1/(1+x)",
        "2^3^2",
        "x/(2-x)/3",
        "sqrt(x+1)*log(x+2)",
        "x - (1 - x)",
    ],
)
def test_to_source_round_trips(src):
    dims = 2 if "x1" in src else 1
    ast = parse(src, dims)
    again = parse(to_source(ast), dims)
    assert again == ast


def _source(variables):
    """Hypothesis strategy for expression text over the whole grammar: the
    four binary operators and ``^``, unary minus, every function, ``pi``,
    ``e`` and literals, with operands parenthesised or not at random."""
    leaves = st.sampled_from(["pi", "e", "1e-3", "1e300", "(1/3)", "2", "0.5", "10", *variables])

    def grow(children):
        binary = st.tuples(children, st.sampled_from("+-*/^"), children, st.booleans(), st.booleans()).map(
            lambda t: ("({})" if t[3] else "{}").format(t[0]) + t[1] + ("({})" if t[4] else "{}").format(t[2])
        )
        call = st.tuples(st.sampled_from(sorted(FUNCTIONS)), children).map(lambda t: f"{t[0]}({t[1]})")
        # binary nodes three times as often: they carry the precedence cases
        return st.one_of(binary, binary, binary, call, children.map(lambda c: f"-{c}"))

    return st.recursive(leaves, grow, max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_to_source_round_trips_any_expression(data):
    dims = data.draw(st.sampled_from([1, 2]))
    ast = parse(data.draw(_source(["x"] if dims == 1 else ["x1", "x2"])), dims)
    assert parse(to_source(ast), dims) == ast


def test_eval_basics():
    assert eval_complex(parse("x"), 0.25) == 0.25
    assert eval_complex(parse("cos(2*pi*x)"), 0.5) == pytest.approx(-1)
    assert eval_complex(parse("exp(x1+x2)", 2), (0.0, 0.0)) == pytest.approx(1)
    assert eval_complex(parse("e"), 0.0) == pytest.approx(math.e)
    assert eval_complex(parse("tan(x)"), 0.3) == pytest.approx(math.tan(0.3))
    assert eval_complex(parse("sinh(x)*cosh(x)"), 0.7) == pytest.approx(
        math.sinh(0.7) * math.cosh(0.7)
    )


def test_eval_principal_branch():
    assert eval_complex(parse("log(x)"), -1.0) == pytest.approx(1j * math.pi)
    assert eval_complex(parse("sqrt(x)"), complex(-4.0, 0.0)) == pytest.approx(2j)


@pytest.mark.parametrize(
    "src, x",
    [
        ("1/x", 0.0),
        ("log(x)", 0.0),
        ("sqrt(x)", 0.0),
        ("x^x", 0.0),     # 0^0
        ("0^-1", 1.0),
        ("0^0.5", 1.0),   # non-integer power of 0
    ],
)
def test_eval_domain_errors(src, x):
    with pytest.raises(DomainError):
        eval_complex(parse(src), x)


def test_point_arity_checked():
    with pytest.raises(ValidationError):
        eval_complex(parse("x1+x2", 2), (1.0,))


@pytest.mark.parametrize("z", [0.3 + 0.4j, -0.2 + 1.1j, 2.0 - 0.7j])
def test_conjugation_symmetry(z):
    # real-coefficient expressions commute with conjugation off the cuts
    ast = parse("cos(2*pi*x) + sin(x)*exp(x) - x^3/(2+x)")
    left = eval_complex(ast, z.conjugate())
    right = eval_complex(ast, z).conjugate()
    assert left == pytest.approx(right, rel=1e-13)


def test_int_exponent_recognition():
    assert int_exponent(Const(3 + 0j)) == 3
    assert int_exponent(Neg(Const(2 + 0j))) == -2
    assert int_exponent(Const(2.5 + 0j)) is None
    assert int_exponent(Var(0, "x")) is None


def test_parse_is_deterministic():
    a = parse("sin(x)+x^3")
    b = parse("sin(x)+x^3")
    assert a == b
    assert to_source(a) == to_source(b)
