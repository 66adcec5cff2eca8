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
of links), and a plain link is a one-step chain: attribute references
may carry the chain position they read from (only 0 on a link), and
default to the first link in the chain carrying the attribute.

Each language has one evaluator, compiled once per operator call:
``compile_agg`` turns an aggregate spec into a closure over a collection
of rows, ``compile_composition`` a composition function into a closure
over a pair of links and their endpoint nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from operator import add, mul, sub
from typing import Callable, Union

from .errors import AggEvalError, CompositionFnError, DivideByZeroError

MAX_NESTING_DEPTH = 3  # of Sum/Prod in a numerical aggregate
_IDENTITY_FIELDS = ("id", "src", "tgt")  # graph.IDENTITY_FIELDS; aggfn loads no graph code


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


sum_of = partial(Builtin, "SUM")  # sum_of(attr, step=None), and so on
avg_of = partial(Builtin, "AVG")
min_of = partial(Builtin, "MIN")
max_of = partial(Builtin, "MAX")


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
# Evaluation, compiled once per operator call


def _values(attr: str) -> Callable:
    """``element -> its value set of attr``, or None; an identity field
    (``id``, a link's ``src``/``tgt``) reads as a one-element tuple, which
    a caller that keeps the value makes a frozenset."""
    if attr not in _IDENTITY_FIELDS:
        return lambda e: e.attrs.get(attr)
    return lambda e: None if (field := getattr(e, attr, None)) is None else (field,)


def _reader(attr: str, step: int | None, chains: bool) -> tuple:
    """``row -> the link a reference reads`` (None when no link of a chain
    carries the attribute) and ``row -> that link's value set``, or None."""

    def pick(row):  # a link row is a one-step chain
        if not 0 <= step < (len(row) if chains else 1):
            raise AggEvalError(f"chain has no step {step}", attr=attr)
        return row[step] if chains else row

    values = _values(attr)
    if step is None:
        if not chains:
            return (lambda row: row), values
        pick = lambda row: next((l for l in row if values(l) is not None), None)
    return pick, lambda row: None if (l := pick(row)) is None else values(l)


def _number_reader(attr: str, step: int | None, chains: bool) -> Callable:
    """``row -> the single float a reference reads``."""
    pick, read = _reader(attr, step, chains)

    def number(row):
        v = read(row)
        if v is not None and len(v) == 1:
            (value,) = v
            if isinstance(value, float):
                return value
        l = pick(row)
        problem = "missing attribute" if v is None else "attribute is not numeric" if len(v) == 1 else "attribute is multi-valued"
        raise AggEvalError(problem, element_id=None if l is None else l.id, attr=attr)

    return number


def _raising(error: type, *args, **kwargs) -> Callable:
    """A closure raising ``error(*args, **kwargs)`` once evaluation reaches it."""

    def fail(*_):
        raise error(*args, **kwargs)

    return fail


def _divide(a: float, b: float) -> float:
    if b == 0.0:
        raise DivideByZeroError()
    return a / b


_ARITH = {"+": add, "-": sub, "*": mul, "/": _divide}


def _nesting_depth(expr: NafExpr) -> int:
    if isinstance(expr, (SumOver, ProdOver)):
        return 1 + _nesting_depth(expr.body)
    if isinstance(expr, Arith):
        return max(_nesting_depth(expr.left), _nesting_depth(expr.right))
    return 0


def _compile_naf(expr: NafExpr, chains: bool, scoped: bool) -> Callable:
    """``expr`` as ``fn(rows, row)``: over the collection ``rows``, with
    ``row`` in scope when ``scoped`` (inside a Sum/Prod body). Nested
    aggregates re-iterate the same collection."""
    if isinstance(expr, Const):
        value = expr.value
        return lambda rows, row: value
    if isinstance(expr, AttrRef):
        if not scoped:
            return _raising(AggEvalError, "attribute reference outside Sum/Prod scope", attr=expr.attr)
        number = _number_reader(expr.attr, expr.step, chains)
        return lambda rows, row: number(row)
    if isinstance(expr, Arith):
        op = _ARITH[expr.op]
        left, right = _compile_naf(expr.left, chains, scoped), _compile_naf(expr.right, chains, scoped)
        return lambda rows, row: op(left(rows, row), right(rows, row))
    if isinstance(expr, (SumOver, ProdOver)):
        body = _compile_naf(expr.body, chains, True)
        total = sum if isinstance(expr, SumOver) else partial(math.prod, start=1.0)
        return lambda rows, row: total(body(rows, r) for r in rows)
    if not isinstance(expr, Builtin):
        return _raising(TypeError, f"not a numerical aggregate expression: {expr!r}")
    if expr.fn == "COUNT":
        return lambda rows, row: float(len(rows))
    number = _number_reader(expr.attr, expr.step, chains)
    if expr.fn == "SUM":
        return lambda rows, row: sum(map(number, rows))
    if expr.fn == "AVG":  # an empty collection divides 0 by 0
        return lambda rows, row: _divide(sum(map(number, rows)), len(rows))
    pick = min if expr.fn == "MIN" else max
    empty = _raising(AggEvalError, f"{expr.fn} over an empty collection", attr=expr.attr)
    return lambda rows, row: pick(map(number, rows)) if rows else empty()


def compile_agg(spec: AggSpec, chains: bool = False) -> Callable:
    """``spec`` as one closure from a list of rows (links, or chains when
    ``chains`` is set) to the value set it attaches, or None when there is
    nothing to attach (empty set extraction, or CopyAny with no carrier)."""
    if isinstance(spec, SafExpr):
        read = _reader(spec.attr, spec.step, chains)[1]
        return lambda rows: frozenset().union(*filter(None, map(read, rows))) or None
    if isinstance(spec, ConstString):
        value = frozenset({spec.value})
        return lambda rows: value
    if isinstance(spec, CopyAny):
        read, attr = _reader(spec.attr, spec.step, chains)[1], spec.attr

        def copy(rows):
            seen = None
            for v in map(read, rows):
                if v is None:
                    continue
                if seen is None:
                    seen = frozenset(v)
                elif seen != frozenset(v):
                    raise AggEvalError("copied values disagree across the collection", attr=attr)
            return seen

        return copy
    if not isinstance(spec, (Const, AttrRef, Arith, SumOver, ProdOver, Builtin)):
        return _raising(TypeError, f"not an aggregate spec: {spec!r}")
    depth = _nesting_depth(spec)
    if depth > MAX_NESTING_DEPTH:
        return _raising(ValueError, f"Sum/Prod nesting depth {depth} exceeds limit {MAX_NESTING_DEPTH}")
    number = _compile_naf(spec, chains, False)
    return lambda rows: frozenset({number(rows, None)})


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


@dataclass(frozen=True)
class CompositionFn:
    """Named outputs computed from two links and their endpoint nodes."""

    outputs: tuple  # of (attr name, CompOutput), in declaration order

    def __post_init__(self):
        outputs = tuple(self.outputs.items()) if isinstance(self.outputs, dict) else tuple(self.outputs)
        if not outputs:
            raise CompositionFnError("composition function declares no outputs")
        for name, _ in outputs:
            if name in _IDENTITY_FIELDS:
                raise CompositionFnError("composition may not write a reserved attribute", attr=name)
        object.__setattr__(self, "outputs", outputs)


def jaccard(a, b) -> float:
    """|a ∩ b| / |a ∪ b|, with 0 for two empty sets."""
    a = frozenset(a)
    b = frozenset(b)
    union = a | b
    if not union:
        return 0.0
    return len(a & b) / len(union)


_SIDE_ELEMENTS = {  # side -> (l1, l2, nodes1, nodes2) -> the side's element
    "left-link": lambda l1, l2, n1, n2: l1,
    "right-link": lambda l1, l2, n1, n2: l2,
    "left-src": lambda l1, l2, n1, n2: n1[l1.src],
    "left-tgt": lambda l1, l2, n1, n2: n1[l1.tgt],
    "right-src": lambda l1, l2, n1, n2: n2[l2.src],
    "right-tgt": lambda l1, l2, n1, n2: n2[l2.tgt],
}


def _side_values(side: str, attr: str, out_attr: str) -> Callable:
    """``(l1, l2, nodes1, nodes2) -> the side's value set of attr``."""
    element, values = _SIDE_ELEMENTS[side], _values(attr)

    def read(l1, l2, n1, n2):
        e = element(l1, l2, n1, n2)
        v = values(e)
        if v is None:
            raise CompositionFnError(f"{side} element {e.id!r} lacks attribute {attr!r}", attr=out_attr)
        return v

    return read


def _compile_output(name: str, expr) -> Callable:
    """One output as ``(l1, l2, nodes1, nodes2) -> value set or None``;
    one that reads only nodes is evaluated once per tuple of their ids."""
    if not isinstance(expr, (CopyFrom, JaccardOf)):
        agg = compile_agg(expr)

        def aggregate(l1, l2, n1, n2):
            try:
                return agg([l1, l2])
            except AggEvalError as e:
                raise CompositionFnError(str(e), attr=name) from e

        return aggregate
    if isinstance(expr, CopyFrom):
        sides, fn = (expr.side,), _side_values(expr.side, expr.attr, name)
        if expr.attr in _IDENTITY_FIELDS:  # the field's one-element tuple is kept as a value set
            read = fn
            fn = lambda l1, l2, n1, n2: frozenset(read(l1, l2, n1, n2))
    else:
        sides = (expr.left_side, expr.right_side)
        a, b = _side_values(expr.left_side, expr.left_attr, name), _side_values(expr.right_side, expr.right_attr, name)
        # ``jaccard`` is looked up at each call, so a rebinding of it is seen
        fn = lambda l1, l2, n1, n2: frozenset({jaccard(a(l1, l2, n1, n2), b(l1, l2, n1, n2))})
    if any(side.endswith("link") for side in sides):
        return fn
    nodes, memo = [_SIDE_ELEMENTS[side] for side in sides], {}

    def once(l1, l2, n1, n2):
        key = tuple([node(l1, l2, n1, n2).id for node in nodes])
        if key not in memo:
            memo[key] = fn(l1, l2, n1, n2)
        return memo[key]

    return once


def compile_composition(f: CompositionFn) -> Callable:
    """``f`` as one closure ``(l1, l2, nodes1, nodes2) -> the new link's
    attributes``, ``nodes1``/``nodes2`` holding the links' endpoints. Aggregate
    outputs see the pair (l1, l2) as a collection of links. Outputs reading only
    nodes are kept per node id tuple: compile once per ``compose`` call."""
    outputs = [(name, _compile_output(name, expr)) for name, expr in f.outputs]

    def attributes(l1, l2, nodes1, nodes2):
        out = {name: v for name, fn in outputs if (v := fn(l1, l2, nodes1, nodes2)) is not None}
        if not out:
            raise CompositionFnError("composition function produced no attributes")
        return out

    return attributes
