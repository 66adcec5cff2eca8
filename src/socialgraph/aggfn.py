"""Aggregate and composition function evaluation.

Three small expression languages share this module:

* set aggregates (``SafExpr``) extract the distinct values of one
  attribute across a link collection;
* numerical aggregates (``NafExpr``) are trees of 0/1 constants,
  attribute references, arithmetic, and sum/product over the collection
  in scope, with COUNT/SUM/AVG/MIN/MAX provided as builtins;
* composition functions (``CompositionFn``) map a pair of links (plus
  their endpoint nodes) to the attribute map of a freshly minted link.

Evaluation rows are either plain links or bound pattern chains (tuples
of links); attribute references may carry the chain position they read
from, and default to the first link in the chain carrying the attribute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .errors import AggEvalError, CompositionFnError, DivideByZeroError
from .graph import Link, Node, attr_values

Row = Union[Link, tuple]


# ---------------------------------------------------------------------------
# Expression trees


@dataclass(frozen=True)
class SafExpr:
    """Set aggregate: collect the values of one attribute."""

    attr: str
    step: int | None = None


@dataclass(frozen=True)
class Const:
    """Constant function; only 0 and 1 are in the class."""

    value: float

    def __post_init__(self):
        if self.value not in (0.0, 1.0):
            raise ValueError("constant functions are limited to 0 and 1")


ZERO = Const(0.0)
ONE = Const(1.0)


@dataclass(frozen=True)
class AttrRef:
    """A single numeric attribute value of the current row."""

    attr: str
    step: int | None = None


@dataclass(frozen=True)
class Arith:
    op: str  # one of + - * /
    left: "NafExpr"
    right: "NafExpr"

    def __post_init__(self):
        if self.op not in ("+", "-", "*", "/"):
            raise ValueError(f"unknown arithmetic operator: {self.op!r}")


@dataclass(frozen=True)
class SumOver:
    body: "NafExpr"


@dataclass(frozen=True)
class ProdOver:
    body: "NafExpr"


@dataclass(frozen=True)
class Builtin:
    """COUNT, or SUM/AVG/MIN/MAX of an attribute, over the collection."""

    fn: str
    attr: str | None = None
    step: int | None = None

    def __post_init__(self):
        if self.fn not in ("COUNT", "SUM", "AVG", "MIN", "MAX"):
            raise ValueError(f"unknown builtin aggregate: {self.fn!r}")
        if self.fn == "COUNT":
            if self.attr is not None:
                raise ValueError("COUNT takes no attribute")
        elif self.attr is None:
            raise ValueError(f"{self.fn} needs an attribute")


NafExpr = Union[Const, AttrRef, Arith, SumOver, ProdOver, Builtin]

COUNT = Builtin("COUNT")


def sum_of(attr: str, step: int | None = None) -> Builtin:
    return Builtin("SUM", attr, step)


def avg_of(attr: str, step: int | None = None) -> Builtin:
    return Builtin("AVG", attr, step)


def min_of(attr: str, step: int | None = None) -> Builtin:
    return Builtin("MIN", attr, step)


def max_of(attr: str, step: int | None = None) -> Builtin:
    return Builtin("MAX", attr, step)


@dataclass(frozen=True)
class ConstString:
    """Assign a constant string value, e.g. type='match'."""

    value: str


@dataclass(frozen=True)
class CopyAny:
    """Retain the attribute value shared by the whole collection;
    it is an error for the copied values to disagree."""

    attr: str
    step: int | None = None


AggSpec = Union[SafExpr, NafExpr, ConstString, CopyAny]


# ---------------------------------------------------------------------------
# Row access


def _row_link(row: Row, attr: str, step: int | None) -> Link | None:
    """Pick the link of a row an attribute reference reads from."""
    if isinstance(row, Link):
        return row
    if step is not None:
        if not 0 <= step < len(row):
            raise AggEvalError(f"chain has no step {step}", attr=attr)
        return row[step]
    for l in row:
        if attr_values(l, attr) is not None:
            return l
    return None


def _numeric_value(row: Row, attr: str, step: int | None) -> float:
    l = _row_link(row, attr, step)
    values = attr_values(l, attr) if l is not None else None
    if values is None:
        rid = l.id if l is not None else None
        raise AggEvalError("missing attribute", element_id=rid, attr=attr)
    if len(values) != 1:
        raise AggEvalError("attribute is multi-valued", element_id=l.id, attr=attr)
    (value,) = values
    if not isinstance(value, float):
        raise AggEvalError("attribute is not numeric", element_id=l.id, attr=attr)
    return value


def _arith(op: str, a: float, b: float) -> float:
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if b == 0.0:
        raise DivideByZeroError()
    return a / b


def _nesting_depth(expr: NafExpr) -> int:
    if isinstance(expr, (SumOver, ProdOver)):
        return 1 + _nesting_depth(expr.body)
    if isinstance(expr, Arith):
        return max(_nesting_depth(expr.left), _nesting_depth(expr.right))
    return 0


# ---------------------------------------------------------------------------
# Evaluation


def eval_saf(expr: SafExpr, rows) -> frozenset:
    """Union of the attribute's value sets across rows; duplicate-free.

    Rows lacking the attribute contribute nothing; the result may be
    empty, in which case callers skip attaching the attribute.
    """
    out = set()
    for row in rows:
        l = _row_link(row, expr.attr, expr.step)
        if l is None:
            continue
        values = attr_values(l, expr.attr)
        if values is not None:
            out.update(values)
    return frozenset(out)


def eval_naf(expr: NafExpr, rows, *, max_depth: int = 3) -> float:
    """Evaluate a numerical aggregate over a collection of rows."""
    depth = _nesting_depth(expr)
    if depth > max_depth:
        raise ValueError(f"Sum/Prod nesting depth {depth} exceeds limit {max_depth}")
    return _eval(expr, list(rows), None)


def _eval(expr: NafExpr, rows: list, row: Row | None) -> float:
    """``expr`` over the collection ``rows``, with ``row`` the row in
    scope inside a Sum/Prod body (None outside one). Nested aggregates
    re-iterate the same collection."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, AttrRef):
        if row is None:
            raise AggEvalError("attribute reference outside Sum/Prod scope", attr=expr.attr)
        return _numeric_value(row, expr.attr, expr.step)
    if isinstance(expr, Arith):
        return _arith(expr.op, _eval(expr.left, rows, row), _eval(expr.right, rows, row))
    if isinstance(expr, SumOver):
        return sum(_eval(expr.body, rows, r) for r in rows)
    if isinstance(expr, ProdOver):
        out = 1.0
        for r in rows:
            out *= _eval(expr.body, rows, r)
        return out
    if isinstance(expr, Builtin):
        return _eval_builtin(expr, rows)
    raise TypeError(f"not a numerical aggregate expression: {expr!r}")


def _eval_builtin(expr: Builtin, rows: list) -> float:
    if expr.fn == "COUNT":
        return float(len(rows))
    if expr.fn == "SUM":
        return sum(_numeric_value(row, expr.attr, expr.step) for row in rows)
    if expr.fn == "AVG":
        if not rows:
            raise DivideByZeroError()
        return sum(_numeric_value(row, expr.attr, expr.step) for row in rows) / len(rows)
    values = [_numeric_value(row, expr.attr, expr.step) for row in rows]
    if not values:
        raise AggEvalError(f"{expr.fn} over an empty collection", attr=expr.attr)
    return min(values) if expr.fn == "MIN" else max(values)


def apply_agg(spec: AggSpec, rows) -> frozenset | None:
    """Evaluate an aggregate spec into an attribute value set.

    Returns None when there is nothing to attach (empty set extraction,
    or CopyAny with no carrier row).
    """
    rows = list(rows)
    if isinstance(spec, SafExpr):
        values = eval_saf(spec, rows)
        return values or None
    if isinstance(spec, ConstString):
        return frozenset({spec.value})
    if isinstance(spec, CopyAny):
        seen = None
        for row in rows:
            l = _row_link(row, spec.attr, spec.step)
            values = attr_values(l, spec.attr) if l is not None else None
            if values is None:
                continue
            if seen is None:
                seen = values
            elif seen != values:
                raise AggEvalError("copied values disagree across the collection", attr=spec.attr)
        return seen
    if isinstance(spec, (Const, AttrRef, Arith, SumOver, ProdOver, Builtin)):
        return frozenset({eval_naf(spec, rows)})
    raise TypeError(f"not an aggregate spec: {spec!r}")


# ---------------------------------------------------------------------------
# Composition functions


SIDES = ("left-link", "right-link", "left-src", "left-tgt", "right-src", "right-tgt")


@dataclass(frozen=True)
class CopyFrom:
    """Copy an attribute from one side of the composed pair."""

    side: str
    attr: str

    def __post_init__(self):
        if self.side not in SIDES:
            raise ValueError(f"unknown composition side: {self.side!r}")


@dataclass(frozen=True)
class JaccardOf:
    """Jaccard similarity of two side attributes' value sets."""

    left_side: str
    left_attr: str
    right_side: str
    right_attr: str

    def __post_init__(self):
        for side in (self.left_side, self.right_side):
            if side not in SIDES:
                raise ValueError(f"unknown composition side: {side!r}")


CompOutput = Union[SafExpr, ConstString, CopyFrom, JaccardOf, Const, AttrRef, Arith, SumOver, ProdOver, Builtin]

_RESERVED_OUTPUTS = ("id", "src", "tgt")


@dataclass(frozen=True)
class CompositionFn:
    """Named outputs computed from two links and their endpoint nodes."""

    outputs: tuple  # of (attr name, CompOutput), in declaration order

    def __post_init__(self):
        outputs = tuple(self.outputs.items()) if isinstance(self.outputs, dict) else tuple(self.outputs)
        if not outputs:
            raise CompositionFnError("composition function declares no outputs")
        for name, _ in outputs:
            if name in _RESERVED_OUTPUTS:
                raise CompositionFnError("composition may not write a reserved attribute", attr=name)
        object.__setattr__(self, "outputs", outputs)


@dataclass(frozen=True)
class LinkCtx:
    """A link together with its endpoint nodes, as handed to a CF."""

    link: Link
    src: Node
    tgt: Node


def _side_element(side: str, left: LinkCtx, right: LinkCtx):
    ctx = left if side.startswith("left") else right
    kind = side.split("-", 1)[1]
    if kind == "link":
        return ctx.link
    return ctx.src if kind == "src" else ctx.tgt


def _side_values(side: str, attr: str, left: LinkCtx, right: LinkCtx, out_attr: str) -> frozenset:
    element = _side_element(side, left, right)
    values = attr_values(element, attr)
    if values is None:
        raise CompositionFnError(
            f"{side} element {element.id!r} lacks attribute {attr!r}", attr=out_attr
        )
    return values


def jaccard(a, b) -> float:
    """|a ∩ b| / |a ∪ b|, with 0 for two empty sets."""
    a = frozenset(a)
    b = frozenset(b)
    union = a | b
    if not union:
        return 0.0
    return len(a & b) / len(union)


def apply_composition(f: CompositionFn, left: LinkCtx, right: LinkCtx) -> dict:
    """Evaluate a composition function into the new link's attribute map.
    Aggregate outputs are evaluated over the pair (left link, right link)
    exactly as ``apply_agg`` evaluates them over any collection."""
    out: dict = {}
    for name, expr in f.outputs:
        if isinstance(expr, CopyFrom):
            values = _side_values(expr.side, expr.attr, left, right, name)
        elif isinstance(expr, JaccardOf):
            a = _side_values(expr.left_side, expr.left_attr, left, right, name)
            b = _side_values(expr.right_side, expr.right_attr, left, right, name)
            values = frozenset({jaccard(a, b)})
        else:
            try:
                values = apply_agg(expr, (left.link, right.link))
            except AggEvalError as e:
                raise CompositionFnError(str(e), attr=name) from e
        if values is not None:
            out[name] = values
    if not out:
        raise CompositionFnError("composition function produced no attributes")
    return out
