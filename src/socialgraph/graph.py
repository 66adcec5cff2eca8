"""The attributed social content graph model.

Nodes and directed links carry schema-less, multi-valued attributes; the
only mandatory attribute is ``type``. Attribute values are non-empty,
duplicate-free sets of scalars (UTF-8 strings or finite floats). Graphs
are immutable values: nothing in this package mutates a graph in place,
so any number of readers may share one.

A graph with nodes but no links is a legal "null graph"; selection
operators produce them routinely. ``id``, ``src`` and ``tgt`` are
identity fields (``id`` on any element, ``src``/``tgt`` on links), never
attribute names: conditions and aggregates read them as one-value
attributes, and ``node``, ``link`` and ``io.load_graph`` reject an
attribute map that holds one. ``build_graph`` does not check this, as it
does not check value types: directly constructed ``Node``/``Link``
objects are trusted.
"""

from __future__ import annotations

import math
import re
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter, ge, gt, le, lt, ne
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
    if value is None or isinstance(value, (str, int, float, bool)):
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


Element = Union[Node, Link]


IDENTITY_FIELDS = ("id", "src", "tgt")


def attr_map(attrs: Mapping) -> dict:
    """Normalize raw attribute values into an attribute map; an identity
    field name raises ValueError."""
    for name in IDENTITY_FIELDS:
        if name in attrs:
            raise ValueError(f"{name!r} is an identity field, not an attribute name")
    return {k: as_attr_value(v) for k, v in attrs.items()}


def node(node_id, /, **attrs) -> Node:
    """Build a node, normalizing attribute values (ids are stringified)."""
    return Node(id=str(node_id), attrs=attr_map(attrs))


def link(link_id, src, tgt, /, **attrs) -> Link:
    """Build a directed link, normalizing attribute values."""
    return Link(id=str(link_id), src=str(src), tgt=str(tgt), attrs=attr_map(attrs))


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
        return links_by(self.links.values(), "src")

    @cached_property
    def in_links(self) -> dict:
        """node id -> list of the links entering it, in ``links`` order;
        nodes without incoming links are absent. Built on first use and
        kept, like ``out_links``."""
        return links_by(self.links.values(), "tgt")


def links_by(links: Iterable[Link], direction: str, holds: Callable | None = None) -> dict:
    """Endpoint id -> list of the links at that ``direction`` ("src" or
    "tgt") endpoint, in input order, skipping links that fail ``holds``.
    The one group-by and hash-join bucketing of the algebra."""
    endpoint = attrgetter(direction)
    out: dict = {}
    for l in links:
        if holds is None or holds(l):
            out.setdefault(endpoint(l), []).append(l)
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


def _comparison(op: str) -> Callable:
    return lambda attr, value: StructPredicate(attr, op, (value,))


# attr_eq(attr, value) is StructPredicate(attr, "=", (value,)), and so on
attr_eq, attr_ne, attr_lt, attr_le, attr_gt, attr_ge = map(_comparison, COMPARISON_OPS)


@dataclass(frozen=True)
class Condition:
    """A conjunctive list of structural predicates plus a keyword set.

    Empty predicates and empty keywords mean the condition is satisfied
    by every element. A non-empty keyword list both filters (at least
    one keyword must match) and drives relevance scoring. Each keyword
    must be one token (see ``is_token``): no other keyword could match.
    """

    preds: tuple = ()
    keywords: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "preds", tuple(self.preds))
        for k in self.keywords:
            if not is_token(k):
                raise ValueError(f"a keyword must be exactly one token, got {k!r}")
        object.__setattr__(self, "keywords", tuple(k.lower() for k in self.keywords))

    @property
    def is_empty(self) -> bool:
        return not self.preds and not self.keywords

    @cached_property
    def token(self) -> str:
        """The text generated ids hash for this condition, built once per
        object. Equal conditions may differ here: ``0.0 == -0.0``, but
        ``[w > 0]`` and ``[w > -0]`` give different tokens."""
        preds = ";".join(f"{p.attr}{p.op}{'|'.join(map(_scalar_token, p.operands))}" for p in self.preds)
        return f"{preds}#kw:{','.join(self.keywords)}"


def _scalar_token(v: Scalar) -> str:
    return f"s:{v}" if isinstance(v, str) else f"f:{v!r}"


def element_tokens(element: Element) -> frozenset:
    """Lowercase tokens of every string attribute value, split on
    non-alphanumeric characters."""
    toks = set()
    for values in element.attrs.values():
        for v in values:
            if isinstance(v, str):
                toks.update(t for t in _TOKEN_SPLIT.split(v.lower()) if t)
    return frozenset(toks)


def is_token(word: str) -> bool:
    """True iff ``word`` is a whole token of ``element_tokens``, after
    lowercasing: non-empty, letters and digits only."""
    return bool(word) and not _TOKEN_SPLIT.search(word.lower())


def satisfies(element: Element, condition: Condition) -> bool:
    """True iff ``element`` satisfies ``condition``. It compiles the
    condition at each call: a scan calls ``compile_condition`` once."""
    return compile_condition(condition)(element)


_COMPARISONS = {"!=": ne, "<": lt, "<=": le, ">": gt, ">=": ge}


def compile_condition(condition: Condition) -> Callable[[Element], bool]:
    """The predicate "``element`` satisfies ``condition``", built once so a
    scan does not re-dispatch on every predicate per element. Every
    structural predicate must hold and, when there are keywords, at least
    one keyword must be a token of the element; the empty condition
    always holds."""
    tests = [_compile_pred(p) for p in condition.preds]
    if condition.keywords:
        keywords = condition.keywords
        tests.append(lambda e: not element_tokens(e).isdisjoint(keywords))
    if len(tests) == 1:
        return tests[0]
    return lambda e: all(t(e) for t in tests)


def _compile_pred(pred: StructPredicate) -> Callable[[Element], bool]:
    """One predicate; an absent attribute is false, never an error. A
    comparison holds when any value of the set matches, and a string
    never compares to a number."""
    attr, op = pred.attr, pred.op
    if op == CONTAINS_ALL:
        test = frozenset(pred.operands).issubset
    elif op == "=":  # a str never equals a float
        operand = pred.operands[0]
        test = lambda values: operand in values
    else:
        operand, compare, is_str = pred.operands[0], _COMPARISONS[op], isinstance(pred.operands[0], str)
        test = lambda values: any(isinstance(v, str) == is_str and compare(v, operand) for v in values)
    if attr not in IDENTITY_FIELDS:
        return lambda e: test(e.attrs.get(attr, ()))
    # the identity field itself; a node has no src/tgt
    return lambda e: (field := getattr(e, attr, None)) is not None and test((field,))


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


def check_direction(d: str) -> None:
    if d not in ("src", "tgt"):
        raise ValueError(f"direction must be 'src' or 'tgt', got {d!r}")


def opposite(direction: str) -> str:
    return "tgt" if direction == "src" else "src"


@dataclass(frozen=True)
class DirectionalCondition:
    """The join directions (d1, d2) of composition and semi-join."""

    d1: str
    d2: str

    def __post_init__(self):
        check_direction(self.d1)
        check_direction(self.d2)
