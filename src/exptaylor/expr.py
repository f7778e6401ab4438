"""Expression strings: parsing, serialization, complex evaluation.

The accepted language is deliberately small.  Binary ``+ - * / ^`` with
``^`` right-associative and binding tighter than unary minus, which binds
tighter than ``* /``, which bind tighter than ``+ -``.  Calls have arity
one and the callee must be one of sin, cos, tan, exp, log, sqrt, sinh,
cosh.  Variables are ``x`` in one dimension and ``x1 .. xn`` otherwise.
Named constants ``pi`` and ``e`` are kept as distinct nodes so that
serialization round-trips structurally.  No implicit multiplication.

Evaluation is complex throughout; ``log`` is the principal branch.
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass
from typing import Sequence, Union

from .errors import DomainError, ParseError, ValidationError

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh")
CONSTANTS = {"pi": complex(cmath.pi), "e": complex(cmath.e)}

MAX_DIMS = 4


# ---- AST nodes -------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: complex


@dataclass(frozen=True)
class NamedConst:
    name: str  # 'pi' or 'e'

    @property
    def value(self) -> complex:
        return CONSTANTS[self.name]


@dataclass(frozen=True)
class Var:
    index: int  # 0-based axis
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Node"


Node = Union[Const, NamedConst, Var, Neg, BinOp, Call]


@dataclass(frozen=True)
class ExprAst:
    """A parsed expression together with the dimension it was parsed for."""

    root: Node
    dims: int


# ---- tokenizer -------------------------------------------------------------

_NUMBER_RE = re.compile(r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class _Tokenizer:
    def __init__(self, src: str):
        self.src = src
        self.pos = 0
        self.tok: str | None = None  # kind: 'num', 'ident', operator char, 'end'
        self.text = ""
        self.tok_pos = 0
        self.advance()

    def advance(self) -> None:
        src, n = self.src, len(self.src)
        i = self.pos
        while i < n and src[i].isspace():
            i += 1
        self.tok_pos = i
        if i >= n:
            self.tok, self.text, self.pos = "end", "", i
            return
        ch = src[i]
        if ch.isdigit() or ch == ".":
            m = _NUMBER_RE.match(src, i)
            if not m:
                raise ParseError(i, f"malformed number starting at {src[i:i+8]!r}")
            self.tok, self.text, self.pos = "num", m.group(0), m.end()
            return
        if ch.isalpha() or ch == "_":
            m = _IDENT_RE.match(src, i)
            self.tok, self.text, self.pos = "ident", m.group(0), m.end()
            return
        if ch in "+-*/^()":
            self.tok, self.text, self.pos = ch, ch, i + 1
            return
        raise ParseError(i, f"unexpected character {ch!r}")


# ---- parser ----------------------------------------------------------------


class _Parser:
    def __init__(self, src: str, dims: int):
        self.tz = _Tokenizer(src)
        self.dims = dims

    def parse(self) -> Node:
        node = self.expr()
        if self.tz.tok != "end":
            raise ParseError(
                self.tz.tok_pos,
                f"trailing input {self.tz.text!r}",
                expected="operator or end of input",
            )
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.tz.tok in ("+", "-"):
            op = self.tz.tok
            self.tz.advance()
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.tz.tok in ("*", "/"):
            op = self.tz.tok
            self.tz.advance()
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> Node:
        if self.tz.tok == "-":
            self.tz.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        if self.tz.tok == "^":
            self.tz.advance()
            # exponent re-enters unary so '^' is right-associative and
            # 'x^-2' parses without parentheses
            return BinOp("^", base, self.unary())
        return base

    def atom(self) -> Node:
        tz = self.tz
        if tz.tok == "num":
            node = Const(complex(float(tz.text)))
            tz.advance()
            return node
        if tz.tok == "(":
            tz.advance()
            node = self.expr()
            if tz.tok != ")":
                raise ParseError(tz.tok_pos, "unbalanced parenthesis", expected="')'")
            tz.advance()
            return node
        if tz.tok == "ident":
            name = tz.text
            pos = tz.tok_pos
            tz.advance()
            if tz.tok == "(":
                if name not in FUNCTIONS:
                    raise ParseError(
                        pos,
                        f"unknown function {name!r}",
                        expected="one of " + ", ".join(FUNCTIONS),
                    )
                tz.advance()
                arg = self.expr()
                if tz.tok != ")":
                    raise ParseError(tz.tok_pos, f"unterminated call to {name!r}", expected="')'")
                tz.advance()
                return Call(name, arg)
            if name in CONSTANTS:
                return NamedConst(name)
            idx = self._var_index(name)
            if idx is None:
                raise ParseError(pos, f"unknown identifier {name!r}", expected=self._var_hint())
            return Var(idx, name)
        raise ParseError(tz.tok_pos, f"unexpected token {tz.text or 'end of input'!r}",
                         expected="number, name, or '('")

    def _var_index(self, name: str) -> int | None:
        if self.dims == 1:
            return 0 if name == "x" else None
        m = re.fullmatch(r"x([1-9]\d*)", name)
        if m:
            i = int(m.group(1))
            if 1 <= i <= self.dims:
                return i - 1
        return None

    def _var_hint(self) -> str:
        if self.dims == 1:
            return "'x'"
        return f"'x1'..'x{self.dims}'"


def parse(src: str, dims: int = 1) -> ExprAst:
    """Parse ``src`` into an AST for an expression in ``dims`` variables.

    Raises :class:`~exptaylor.errors.ParseError` with the byte offset of the
    first problem.  ``dims`` must be in ``1..4``.
    """
    if not isinstance(dims, int) or dims < 1 or dims > MAX_DIMS:
        raise ParseError(0, f"dims must be an integer in [1, {MAX_DIMS}], got {dims!r}")
    return ExprAst(root=_Parser(src, dims).parse(), dims=dims)


# ---- serialization ---------------------------------------------------------

# precedence levels used when deciding where parentheses are required
_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(node: Node) -> int:
    if isinstance(node, BinOp):
        return _PREC_POW if node.op == "^" else (_PREC_MUL if node.op in "*/" else _PREC_ADD)
    if isinstance(node, Neg):
        return _PREC_NEG
    if isinstance(node, Const) and (node.value.real < 0 or node.value.imag != 0):
        return _PREC_NEG  # would need wrapping in operand position
    return _PREC_ATOM


def _fmt_const(value: complex) -> str:
    if value.imag != 0:
        # the source language has no imaginary literal; such nodes can only
        # be built programmatically
        raise ValueError(f"constant {value!r} has no source form")
    r = value.real
    if r >= 0 and r == int(r) and abs(r) < 1e16:
        return str(int(r))
    return repr(r)


def _emit(node: Node) -> str:
    if isinstance(node, Const):
        s = _fmt_const(node.value)
        return s if not s.startswith("-") else f"({s})"
    if isinstance(node, NamedConst):
        return node.name
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        inner = _emit(node.operand)
        if _prec(node.operand) < _PREC_NEG:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Call):
        return f"{node.func}({_emit(node.arg)})"
    if isinstance(node, BinOp):
        lhs, rhs = _emit(node.left), _emit(node.right)
        if node.op in "+-":
            if _prec(node.left) < _PREC_ADD:
                lhs = f"({lhs})"
            # subtraction and trailing additions need the right side tighter
            if _prec(node.right) < _PREC_MUL:
                rhs = f"({rhs})"
            return f"{lhs} {node.op} {rhs}"
        if node.op in "*/":
            if _prec(node.left) < _PREC_MUL:
                lhs = f"({lhs})"
            if _prec(node.right) < _PREC_NEG:
                rhs = f"({rhs})"
            return f"{lhs}{node.op}{rhs}"
        # '^': left operand must be an atom-level item; right re-enters unary
        if _prec(node.left) < _PREC_ATOM:
            lhs = f"({lhs})"
        if _prec(node.right) < _PREC_NEG:
            rhs = f"({rhs})"
        return f"{lhs}^{rhs}"
    raise TypeError(f"not an AST node: {node!r}")


def to_source(ast: ExprAst) -> str:
    """Serialize an AST back to parseable text.

    Parenthesization is minimal; re-parsing the output yields a structurally
    identical tree.
    """
    return _emit(ast.root)


# ---- evaluation ------------------------------------------------------------


def _call_value(func: str, z: complex) -> complex:
    if func == "log":
        if z == 0:
            raise DomainError("log of zero")
        return cmath.log(z)
    if func == "sqrt":
        if z == 0:
            raise DomainError("sqrt of zero")
        return cmath.sqrt(z)
    return getattr(cmath, func)(z)


def _pow_value(base: complex, exp: complex) -> complex:
    if exp.imag == 0 and float(exp.real).is_integer():
        n = int(exp.real)
        if base == 0 and n <= 0:
            raise DomainError(f"zero raised to non-positive power {n}")
        return base ** n
    if base == 0:
        raise DomainError("zero raised to a non-integer power")
    return cmath.exp(exp * cmath.log(base))


def eval_complex(ast: ExprAst, point: Sequence[complex] | complex) -> complex:
    """Evaluate the expression at ``point`` using complex arithmetic.

    ``point`` is a sequence of length ``ast.dims`` (a bare scalar is accepted
    when ``dims == 1``).  Raises :class:`~exptaylor.errors.DomainError` on
    division by zero, ``log``/``sqrt`` of zero, ill-defined powers, and a
    function or power that overflows, naming it and the point.
    """
    if isinstance(point, (int, float, complex)):
        point = (complex(point),)
    vals = tuple(complex(p) for p in point)
    if len(vals) != ast.dims:
        raise ValidationError(f"point has {len(vals)} coordinates, expression has {ast.dims}")

    def rec(node: Node) -> complex:
        if isinstance(node, Const):
            return node.value
        if isinstance(node, NamedConst):
            return node.value
        if isinstance(node, Var):
            return vals[node.index]
        if isinstance(node, Neg):
            return -rec(node.operand)
        try:
            if isinstance(node, Call):
                return _call_value(node.func, rec(node.arg))
            if isinstance(node, BinOp) and node.op == "^":
                return _pow_value(rec(node.left), rec(node.right))
        except OverflowError:
            what = node.func if isinstance(node, Call) else "power"
            where = ", ".join(map(repr, (z.real if z.imag == 0 else z for z in vals)))
            raise DomainError(f"{what} overflows at the point ({where})") from None
        if isinstance(node, BinOp):
            a = rec(node.left)
            b = rec(node.right)
            if node.op == "+":
                return a + b
            if node.op == "-":
                return a - b
            if node.op == "*":
                return a * b
            if b == 0:
                raise DomainError("division by zero")
            return a / b
        raise TypeError(f"not an AST node: {node!r}")

    return rec(ast.root)


def int_exponent(node: Node) -> int | None:
    """Return the literal integer value of an exponent node, if it is one.

    Recognizes ``Const`` with real integral value and a ``Neg`` of such a
    constant; anything else returns None and takes the exp/log power path.
    """
    if isinstance(node, Neg):
        inner = int_exponent(node.operand)
        return None if inner is None else -inner
    if isinstance(node, Const) and node.value.imag == 0:
        r = node.value.real
        if float(r).is_integer() and abs(r) < 2**31:
            return int(r)
    return None
