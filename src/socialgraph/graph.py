"""The attributed social content graph model.

Nodes and directed links carry schema-less, multi-valued attributes; the
only mandatory attribute is ``type``. Attribute values are non-empty,
duplicate-free sets of scalars (UTF-8 strings or finite floats). Graphs
are immutable values: nothing in this package mutates a graph in place,
so any number of readers may share one.

A graph with nodes but no links is a legal "null graph"; selection
operators produce them routinely.
"""

from __future__ import annotations

import math
import re
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Union

from .errors import (
    DanglingEndpointError,
    DuplicateIdError,
    EmptyKeywordsError,
    MissingTypeError,
)

Scalar = Union[str, float]
AttrValue = frozenset  # of Scalar

_TOKEN_SPLIT = re.compile(r"[\W_]+", re.UNICODE)

COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")
CONTAINS_ALL = "contains-all"


def as_scalar(value) -> Scalar:
    """Coerce a raw value into a scalar, widening ints to floats."""
    if isinstance(value, bool):
        raise ValueError(f"booleans are not attribute scalars: {value!r}")
    if isinstance(value, str):
        return value
    if isinstance(value, (int, float)):
        try:
            out = float(value)
        except OverflowError:  # an int beyond float range
            raise ValueError("attribute numbers must be within float range") from None
        if not math.isfinite(out):
            raise ValueError(f"attribute floats must be finite, got {value!r}")
        return out
    raise ValueError(f"unsupported attribute scalar: {value!r}")


def as_attr_value(value) -> AttrValue:
    """Normalize a scalar or an iterable of scalars into a value set."""
    if isinstance(value, (str, int, float, bool)):
        values = frozenset({as_scalar(value)})
    elif isinstance(value, Mapping):
        raise ValueError(f"attribute values may not be objects: {value!r}")
    else:
        values = frozenset(as_scalar(v) for v in value)
    if not values:
        raise ValueError("attribute value sets must be non-empty")
    return values


def scalar_sort_key(value: Scalar) -> tuple:
    """Total order over mixed scalar sets: strings first, then floats."""
    if isinstance(value, str):
        return (0, value)
    return (1, value)


def sorted_values(values: AttrValue) -> list:
    return sorted(values, key=scalar_sort_key)


@dataclass(frozen=True)
class Node:
    """A graph node: opaque string id plus attribute map."""

    id: str
    attrs: dict


@dataclass(frozen=True)
class Link:
    """A directed link between two node ids, with its own attributes."""

    id: str
    src: str
    tgt: str
    attrs: dict

    def endpoint(self, direction: str) -> str:
        return self.src if direction == "src" else self.tgt


Element = Union[Node, Link]


def node(node_id, **attrs) -> Node:
    """Build a node, normalizing attribute values (ids are stringified)."""
    return Node(id=str(node_id), attrs={k: as_attr_value(v) for k, v in attrs.items()})


def link(link_id, src, tgt, **attrs) -> Link:
    """Build a directed link, normalizing attribute values."""
    return Link(
        id=str(link_id),
        src=str(src),
        tgt=str(tgt),
        attrs={k: as_attr_value(v) for k, v in attrs.items()},
    )


@dataclass(frozen=True)
class SocialContentGraph:
    """An id-keyed collection of nodes and links, always well-formed."""

    nodes: dict  # id -> Node
    links: dict  # id -> Link

    @property
    def is_null(self) -> bool:
        """True when the graph has no links (a null graph of nodes)."""
        return not self.links

    @cached_property
    def out_links(self) -> dict:
        """node id -> list of the links leaving it, in ``links`` order;
        nodes without outgoing links are absent. Built on first use and
        kept, which is sound only because graphs are never mutated."""
        out: dict = {}
        for l in self.links.values():
            out.setdefault(l.src, []).append(l)
        return out


def build_graph(nodes: Iterable[Node], links: Iterable[Link]) -> SocialContentGraph:
    """Assemble and validate a graph.

    Rejects duplicate ids (node ids, link ids, and overlap between the
    two spaces), links whose endpoints are not among the nodes, and
    elements without a ``type`` attribute.
    """
    node_map: dict = {}
    for n in nodes:
        if n.id in node_map:
            raise DuplicateIdError(n.id)
        if "type" not in n.attrs:
            raise MissingTypeError(n.id)
        node_map[n.id] = n
    link_map: dict = {}
    for l in links:
        if l.id in link_map or l.id in node_map:
            raise DuplicateIdError(l.id)
        if "type" not in l.attrs:
            raise MissingTypeError(l.id)
        for endpoint in (l.src, l.tgt):
            if endpoint not in node_map:
                raise DanglingEndpointError(l.id, endpoint)
        link_map[l.id] = l
    return SocialContentGraph(nodes=node_map, links=link_map)


def attr_values(element: Element, name: str):
    """Look up an attribute value set, or None when absent.

    The identity fields double as pseudo-attributes: ``id`` on any
    element, ``src``/``tgt`` on links. This is what lets conditions say
    id=101 and set aggregates collect visited destinations via ``tgt``.
    """
    values = element.attrs.get(name)
    if values is not None:
        return values
    if name == "id":
        return frozenset({element.id})
    if isinstance(element, Link):
        if name == "src":
            return frozenset({element.src})
        if name == "tgt":
            return frozenset({element.tgt})
    return None


# ---------------------------------------------------------------------------
# Conditions


@dataclass(frozen=True)
class StructPredicate:
    """One structural predicate: contains-all or a scalar comparison."""

    attr: str
    op: str
    operands: tuple

    def __post_init__(self):
        if self.op not in COMPARISON_OPS and self.op != CONTAINS_ALL:
            raise ValueError(f"unknown predicate operator: {self.op!r}")
        operands = tuple(as_scalar(v) for v in self.operands)
        if self.op == CONTAINS_ALL:
            if not operands:
                raise ValueError("contains-all needs at least one operand")
        elif len(operands) != 1:
            raise ValueError(f"{self.op!r} takes exactly one operand")
        object.__setattr__(self, "operands", operands)


def has_all(attr: str, *values) -> StructPredicate:
    return StructPredicate(attr, CONTAINS_ALL, tuple(values))


def attr_eq(attr: str, value) -> StructPredicate:
    return StructPredicate(attr, "=", (value,))


def attr_ne(attr: str, value) -> StructPredicate:
    return StructPredicate(attr, "!=", (value,))


def attr_lt(attr: str, value) -> StructPredicate:
    return StructPredicate(attr, "<", (value,))


def attr_le(attr: str, value) -> StructPredicate:
    return StructPredicate(attr, "<=", (value,))


def attr_gt(attr: str, value) -> StructPredicate:
    return StructPredicate(attr, ">", (value,))


def attr_ge(attr: str, value) -> StructPredicate:
    return StructPredicate(attr, ">=", (value,))


@dataclass(frozen=True)
class Condition:
    """A conjunctive list of structural predicates plus a keyword set.

    Empty predicates and empty keywords mean the condition is satisfied
    by every element. A non-empty keyword list both filters (at least
    one keyword must match) and drives relevance scoring.
    """

    preds: tuple = ()
    keywords: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "preds", tuple(self.preds))
        object.__setattr__(self, "keywords", tuple(k.lower() for k in self.keywords))

    @property
    def is_empty(self) -> bool:
        return not self.preds and not self.keywords


def _compare(value: Scalar, op: str, operand: Scalar) -> bool:
    if isinstance(value, str) != isinstance(operand, str):
        return False
    if op == "=":
        return value == operand
    if op == "!=":
        return value != operand
    if op == "<":
        return value < operand
    if op == "<=":
        return value <= operand
    if op == ">":
        return value > operand
    return value >= operand


def pred_holds(element: Element, pred: StructPredicate) -> bool:
    """Evaluate one predicate; an absent attribute is false, never an error."""
    values = attr_values(element, pred.attr)
    if values is None:
        return False
    if pred.op == CONTAINS_ALL:
        return values.issuperset(pred.operands)
    operand = pred.operands[0]
    return any(_compare(v, pred.op, operand) for v in values)


def element_tokens(element: Element) -> frozenset:
    """Lowercase tokens of every string attribute value, split on
    non-alphanumeric characters."""
    toks = set()
    for values in element.attrs.values():
        for v in values:
            if isinstance(v, str):
                toks.update(t for t in _TOKEN_SPLIT.split(v.lower()) if t)
    return frozenset(toks)


def satisfies(element: Element, condition: Condition) -> bool:
    """True iff every structural predicate holds and, when keywords are
    present, at least one keyword matches a token of the element."""
    if not all(pred_holds(element, p) for p in condition.preds):
        return False
    if condition.keywords:
        toks = element_tokens(element)
        return any(k in toks for k in condition.keywords)
    return True


_PSEUDO_ATTRS = ("id", "src", "tgt")


def compile_condition(condition: Condition) -> Callable[[Element], bool]:
    """A one-argument predicate equal to ``satisfies(·, condition)``,
    built once so a scan does not re-dispatch on every predicate per
    element. An ``=`` on a stored attribute is a set-membership test; a
    condition with keywords or a pseudo-attribute predicate defers to
    ``satisfies``."""
    if condition.keywords or any(p.attr in _PSEUDO_ATTRS for p in condition.preds):
        return lambda e: satisfies(e, condition)
    tests = [_compile_pred(p) for p in condition.preds]
    return tests[0] if len(tests) == 1 else lambda e: all(t(e) for t in tests)


def _compile_pred(pred: StructPredicate) -> Callable[[Element], bool]:
    attr = pred.attr
    if pred.op == "=":
        # values are str or float sets; a str never equals a float, as in _compare
        operand = pred.operands[0]
        return lambda e: operand in e.attrs.get(attr, ())
    return lambda e: pred_holds(e, pred)


def default_keyword_score(element: Element, keywords) -> float:
    """Fraction of the keywords that match a token of the element."""
    keywords = tuple(keywords)
    if not keywords:
        raise EmptyKeywordsError()
    toks = element_tokens(element)
    matched = sum(1 for k in keywords if k.lower() in toks)
    return matched / len(keywords)


ScoringFn = Callable[[Element], float]


# ---------------------------------------------------------------------------
# Directions


DIRECTIONS = ("src", "tgt")


def opposite(direction: str) -> str:
    return "tgt" if direction == "src" else "src"


@dataclass(frozen=True)
class DirectionalCondition:
    """The join directions (d1, d2) of composition and semi-join."""

    d1: str
    d2: str

    def __post_init__(self):
        for d in (self.d1, self.d2):
            if d not in DIRECTIONS:
                raise ValueError(f"direction must be 'src' or 'tgt', got {d!r}")
