"""A small textual language of let-bound algebra expressions.

Scripts are UTF-8, one ``NAME = expr`` statement per line, with ``#``
line comments. The grammar (normative, versioned with this module):

    program   := stmt*
    stmt      := NAME '=' expr
    expr      := NAME | op '(' args ')'
    op        := 'nsel'|'lsel'|'union'|'intersect'|'nminus'|'lminus'
               | 'compose'|'semijoin'|'naggr'|'laggr'|'paggr'
    condition := bracketed | '$' NAME
    bracketed := '[' (pred (',' pred)*)? (';' 'kw' ':' STRING)? ']'
    pred      := NAME ('='|'!='|'<'|'<='|'>'|'>=') literal
               | NAME 'has' '{' literal (',' literal)* '}'
    direction := 'src' | 'tgt'
    delta     := '(' direction ',' direction ')'
    aggspec   := 'count' | 'sum' '(' aref ')' | 'avg' '(' aref ')'
               | 'min' '(' aref ')' | 'max' '(' aref ')'
               | 'set' '(' aref ')' | 'any' '(' aref ')'
               | 'const' '(' STRING ')'
    aref      := NAME ('@' INT)?
    specmap   := '{' NAME ':' aggspec (',' NAME ':' aggspec)* '}'
    cexpr     := 'copy' '(' side '.' NAME ')'
               | 'jaccard' '(' side '.' NAME ',' side '.' NAME ')'
               | aggspec
    side      := 'l' | 'r' | 'lsrc' | 'ltgt' | 'rsrc' | 'rtgt'
    compfn    := '{' NAME ':' cexpr (',' NAME ':' cexpr)* '}'
    pattern   := 'path' '(' bracketed '@' direction
                          (',' bracketed '@' direction)* ')'

Operator argument shapes:

    nsel(e, condition)                lsel(e, condition)
    union(e, e)  intersect(e, e)  nminus(e, e)  lminus(e, e)
    semijoin(e, e, delta)             compose(e, e, delta, compfn)
    naggr(e, condition, direction, NAME, aggspec)
    laggr(e, condition, specmap)      paggr(e, pattern, specmap)

An expression nests at most ``MAX_NESTING_DEPTH`` operator calls.

The ``kw`` STRING holds one or more space-separated keywords, each one
token of letters and digits (``graph.is_token``), since a keyword with
any other character could never match.

A ``$NAME`` condition is a parameter: the parser keeps it as a ``Param``
and ``execute`` substitutes the Condition ``params[NAME]`` when its node
runs (unbound: UnboundReferenceError). Pattern steps and standalone
conditions (``parse_condition``) are bracketed only.

A reference names an earlier binding or an input graph; ``compile``
rejects one to a later binding or its own (UnboundReferenceError).

``parse`` builds a Program, and ``compile`` folds it into a shared
operator DAG in two steps. It interns the program on structural keys,
so structurally equal subexpressions are merged, pushing every
selection over a semi-join below it as it interns (select pushdown);
then it schedules the result: for each binding, the nodes it evaluates
first, children before parents. ``execute`` is one loop over that
schedule, which is bit-identical to running the corresponding algebra
calls by hand. The built-in search and CF pipelines of ``discovery``
are such plans.

Since every selection over a semi-join is pushed below it, a value has
one form, and a plan node's key (``PlanNode.key``) is its structure. So
a script that writes a selection over a semi-join reads the result of
a plan that wrote it pushed down, and the other way round.

``execute`` keys each node by its kind, its children's keys in the run
and its parameters' values, and keeps results with the input graph
they were computed from: every parameter-free result of a plan with
parameters, and the latest such run's parameterised results. Every plan
reads them, taking the key a result was kept under, so keys compare one
level deep and a binding served twice in a row runs its plan once.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from decimal import Decimal

from . import algebra
from .aggfn import (
    COUNT,
    AggSpec,
    CompositionFn,
    ConstString,
    CopyAny,
    CopyFrom,
    JaccardOf,
    SafExpr,
    avg_of,
    max_of,
    min_of,
    sum_of,
)
from .algebra import GraphPattern, SetOpKind
from .errors import (
    DslSyntaxError,
    DuplicateBindingError,
    ExecutionError,
    SocialGraphError,
    UnboundReferenceError,
    UnknownOperatorError,
)
from .graph import (
    COMPARISON_OPS,
    CONTAINS_ALL,
    Condition,
    DirectionalCondition,
    StructPredicate,
    is_token,
)

MAX_NESTING_DEPTH = 100  # of operator calls in one expression

# Every operator of the language: the ``algebra`` function it runs (looked
# up by name at call time), the constant arguments passed before its
# operands, and its argument shapes in order. Shape "e" is a
# sub-expression; any other shape names a ``_Parser.parse_<shape>`` method.
OPS = {
    "nsel": ("node_select", (), ("e", "condition")),
    "lsel": ("link_select", (), ("e", "condition")),
    "union": ("set_op", (SetOpKind.UNION,), ("e", "e")),
    "intersect": ("set_op", (SetOpKind.INTERSECT,), ("e", "e")),
    "nminus": ("set_op", (SetOpKind.NODE_MINUS,), ("e", "e")),
    "lminus": ("link_minus", (), ("e", "e")),
    "compose": ("compose", (), ("e", "e", "delta", "compfn")),
    "semijoin": ("semi_join", (), ("e", "e", "delta")),
    "naggr": ("node_aggregate", (), ("e", "condition", "direction", "attr", "aggspec")),
    "laggr": ("link_aggregate", (), ("e", "condition", "specmap")),
    "paggr": ("pattern_aggregate", (), ("e", "pattern", "specmap")),
}

# Aggregates written ``name(aref)`` (``const`` takes a string instead).
_AGGREGATES = {
    "sum": sum_of,
    "avg": avg_of,
    "min": min_of,
    "max": max_of,
    "set": SafExpr,
    "any": CopyAny,
    "const": ConstString,
}

_SIDES = {
    "l": "left-link",
    "r": "right-link",
    "lsrc": "left-src",
    "ltgt": "left-tgt",
    "rsrc": "right-src",
    "rtgt": "right-tgt",
}

# One token per match, after optional whitespace. A ``#`` outside a string
# ends the line; OPEN is a quote that never closes and BAD any other
# character that starts no token.
_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<END>\#.*|\Z)
      | (?P<STRING>'[^']*')
      | (?P<OPEN>')
      | (?P<NAME>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<NUMBER>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
      | (?P<PUNCT>!=|<=|>=|[()\[\]{},;:@.<>=$-])
      | (?P<BAD>.)
    )""",
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # NAME | NUMBER | STRING | PUNCT | EOL
    value: str
    line: int
    col: int


def _tokenize_line(text: str, line_no: int) -> list:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        value = m[kind]
        col = m.start(kind) + 1
        if kind == "END":
            break
        if kind == "OPEN":
            raise DslSyntaxError(line_no, col, "closing quote")
        if kind == "BAD":
            raise DslSyntaxError(line_no, col, f"a token (found {value!r})")
        tokens.append(Token(kind, value[1:-1] if kind == "STRING" else value, line_no, col))
    tokens.append(Token("EOL", "", line_no, len(text) + 1))
    return tokens


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Ref:
    name: str


@dataclass(frozen=True)
class OpCall:
    op: str
    args: tuple  # sub-expressions first, then operator parameters


@dataclass(frozen=True)
class Param:
    name: str  # a ``$NAME`` condition, bound by ``execute``'s params


@dataclass(frozen=True)
class Program:
    stmts: tuple  # of (name, Ref | OpCall)


def _whole_number(text: str):
    """The value of a NUMBER token if it is exactly a whole number within
    float range, else None: 1e3 gives 1000; 1.5, 1e-400 and 1e400 give None."""
    if not math.isfinite(float(text)):
        return None
    try:
        value = Decimal(text)
    except ArithmeticError:  # an exponent beyond Decimal's range
        return None
    return int(value) if value == value.to_integral_value() else None


class _Parser:
    def __init__(self, tokens: list):
        self.tokens = tokens
        self.pos = 0

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def fail(self, expected: str):
        raise DslSyntaxError(self.cur.line, self.cur.col, expected)

    def take(self) -> Token:
        tok = self.cur
        self.pos += 1
        return tok

    def accept(self, value: str) -> bool:
        """Take the current token if it is the punctuation or word ``value``."""
        if self.cur.kind in ("PUNCT", "NAME") and self.cur.value == value:
            self.pos += 1
            return True
        return False

    def expect(self, value: str) -> None:
        if not self.accept(value):
            self.fail(f"{value!r}")

    def expect_kind(self, kind: str, what: str) -> Token:
        if self.cur.kind == kind:
            return self.take()
        self.fail(what)

    def expect_name(self, what: str) -> Token:
        return self.expect_kind("NAME", what)

    def expect_choice(self, choices, what: str) -> str:
        tok = self.expect_name(what)
        if tok.value not in choices:
            raise DslSyntaxError(tok.line, tok.col, what)
        return tok.value

    def parse_list(self, parse_item) -> tuple:
        """item (',' item)*"""
        items = [parse_item()]
        while self.accept(","):
            items.append(parse_item())
        return tuple(items)

    # -- expressions --------------------------------------------------------

    def parse_stmt(self):
        name = self.expect_name("a binding name")
        self.expect("=")
        expr = self.parse_expr()
        if self.cur.kind != "EOL":
            self.fail("end of statement")
        return name.value, expr

    def parse_expr(self, depth: int = 1):
        tok = self.expect_name("a graph reference or operator")
        if not self.accept("("):
            return Ref(tok.value)
        if tok.value not in OPS:
            raise UnknownOperatorError(tok.value, tok.line, tok.col)
        if depth > MAX_NESTING_DEPTH:
            raise DslSyntaxError(tok.line, tok.col, f"at most {MAX_NESTING_DEPTH} nested operator calls")
        _, _, shapes = OPS[tok.value]
        args = []
        for i, shape in enumerate(shapes):
            if i:
                self.expect(",")
            args.append(self.parse_expr(depth + 1) if shape == "e" else getattr(self, f"parse_{shape}")())
        self.expect(")")
        return OpCall(tok.value, tuple(args))

    # -- parameter forms ----------------------------------------------------

    def parse_literal(self):
        if self.cur.kind == "STRING":
            return self.take().value
        negate = self.accept("-")
        tok = self.expect_kind("NUMBER", "a string or number literal")
        value = float(tok.value)
        if math.isinf(value):
            raise DslSyntaxError(tok.line, tok.col, "a number within float range")
        return -value if negate else value

    def parse_condition(self):
        if self.accept("$"):
            return Param(self.expect_name("a parameter name").value)
        return self.parse_bracketed()

    def parse_bracketed(self) -> Condition:
        self.expect("[")
        preds = []
        while self.cur.kind == "NAME":
            attr = self.take().value
            if self.accept("has"):
                self.expect("{")
                preds.append(StructPredicate(attr, CONTAINS_ALL, self.parse_list(self.parse_literal)))
                self.expect("}")
            elif self.cur.kind == "PUNCT" and self.cur.value in COMPARISON_OPS:
                op = self.take().value
                preds.append(StructPredicate(attr, op, (self.parse_literal(),)))
            else:
                self.fail("a comparison operator or 'has'")
            if not self.accept(","):
                break
        keywords = ()
        if self.accept(";"):
            self.expect("kw")
            self.expect(":")
            tok = self.expect_kind("STRING", "a quoted keyword string")
            keywords = tuple(tok.value.split())
            for word in keywords or ("",):
                if not is_token(word):
                    raise DslSyntaxError(tok.line, tok.col, f"keywords of one token each (found {word!r})")
        self.expect("]")
        return Condition(preds=tuple(preds), keywords=keywords)

    def parse_direction(self) -> str:
        return self.expect_choice(("src", "tgt"), "'src' or 'tgt'")

    def parse_delta(self) -> DirectionalCondition:
        self.expect("(")
        d1 = self.parse_direction()
        self.expect(",")
        d2 = self.parse_direction()
        self.expect(")")
        return DirectionalCondition(d1, d2)

    def parse_attr(self) -> str:
        return self.expect_name("a destination attribute").value

    def parse_aref(self):
        attr = self.expect_name("an attribute name").value
        step = None
        if self.accept("@"):
            tok = self.expect_kind("NUMBER", "a chain position")
            step = _whole_number(tok.value)
            if step is None:
                raise DslSyntaxError(tok.line, tok.col, "a chain position")
        return attr, step

    def parse_aggspec(self) -> AggSpec:
        what = "an aggregate (count/sum/avg/min/max/set/any/const)"
        kind = self.expect_choice(("count", *_AGGREGATES), what)
        if kind == "count":
            return COUNT
        self.expect("(")
        args = (self.expect_kind("STRING", "a quoted string").value,) if kind == "const" else self.parse_aref()
        self.expect(")")
        return _AGGREGATES[kind](*args)

    def parse_map(self, key_what: str, parse_value) -> tuple:
        """'{' NAME ':' value (',' NAME ':' value)* '}'"""

        def entry():
            key = self.expect_name(key_what).value
            self.expect(":")
            return key, parse_value()

        self.expect("{")
        entries = self.parse_list(entry)
        self.expect("}")
        return entries

    def parse_specmap(self) -> tuple:
        return self.parse_map("a destination attribute", self.parse_aggspec)

    def parse_operand(self):
        """side '.' NAME, with the side spelled out for aggfn."""
        side = _SIDES[self.expect_choice(_SIDES, "a side (l/r/lsrc/ltgt/rsrc/rtgt)")]
        self.expect(".")
        return side, self.expect_name("an attribute name").value

    def parse_cexpr(self):
        if self.accept("copy"):
            self.expect("(")
            operand = self.parse_operand()
            self.expect(")")
            return CopyFrom(*operand)
        if self.accept("jaccard"):
            self.expect("(")
            left = self.parse_operand()
            self.expect(",")
            right = self.parse_operand()
            self.expect(")")
            return JaccardOf(*left, *right)
        return self.parse_aggspec()

    def parse_compfn(self) -> CompositionFn:
        return CompositionFn(self.parse_map("an output attribute", self.parse_cexpr))

    def parse_pattern(self) -> GraphPattern:
        self.expect("path")
        self.expect("(")
        steps = self.parse_list(self.parse_pattern_step)
        self.expect(")")
        return GraphPattern(steps)

    def parse_pattern_step(self):
        cond = self.parse_bracketed()
        self.expect("@")
        return cond, self.parse_direction()


def parse(text: str) -> Program:
    """Parse a script into a Program; errors carry line and column. Names
    are resolved by ``compile``."""
    stmts = []
    defined: set = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize_line(raw, line_no)
        if tokens[0].kind == "EOL":
            continue
        name, expr = _Parser(tokens).parse_stmt()
        if name in defined:
            raise DuplicateBindingError(name, line_no)
        defined.add(name)
        stmts.append((name, expr))
    return Program(stmts=tuple(stmts))


# ---------------------------------------------------------------------------
# Plans


class _Key(tuple):
    """A plan node's structural key, (hash, kind, children's keys, param
    keys), hashed once when built by ``_key``: a plain nested tuple would
    re-hash the node's whole subtree, parameters included, at every
    interning probe and every ``plan_results`` lookup."""

    __slots__ = ()

    def __hash__(self):
        return self[0]


def _key(*items) -> _Key:
    return _Key((hash(items), *items))


@dataclass(frozen=True, eq=False)
class PlanNode:
    """One operator (or input leaf) in the compiled DAG; compile builds
    each node once, so nodes compare by identity.

    ``key`` names the value the node computes: its kind, its children's
    keys and the ``_param_key`` of each parameter, after their hash
    (``_Key``). No lsel node reads a semi-join (``compile`` pushes it
    below), so a value has one form, and the key holds no ids: it names
    the same value in every plan, and no other value. ``graph`` is the
    one input graph the node reads, or None when it reads more than one;
    ``parametric`` is True when a ``$NAME`` is at or below it."""

    kind: str
    inputs: tuple  # of PlanNode
    params: tuple
    key: tuple = field(repr=False)
    graph: str | None = field(repr=False)
    parametric: bool = field(repr=False)

    @property
    def source(self) -> str | None:
        """The input graph whose ``plan_results`` may keep this node's
        result: its one input graph, if no ``$NAME`` is below it."""
        return None if self.parametric else self.graph


@dataclass(frozen=True)
class Plan:
    bindings: tuple  # of (name, PlanNode), in program order
    schedule: tuple  # per binding, the PlanNodes it evaluates first, children before parents
    leaves: tuple  # input graph names, in first-use order
    params: tuple = ()  # ``$NAME`` parameter names, in first-use order

    def node_count(self) -> int:
        return sum(map(len, self.schedule))


def _param_key(p):
    """A parameter together with the tokens its generated ids hash:
    ``0.0 == -0.0``, but ``[w > 0]`` and ``[w > -0]`` give different ids."""
    if isinstance(p, Condition):
        return p, p.token
    if isinstance(p, GraphPattern):
        return p, tuple(c.token for c, _ in p.steps)
    return p


def compile(program: Program, inputs=None) -> Plan:
    """Fold a Program into a Plan, one binding after another. First intern
    the binding's expression on structural keys (``_key``), so that
    structurally equal subexpressions are one key, pushing each selection
    over a semi-join below it as it is interned (``select``). Then walk
    the binding's key in post-order, building the PlanNode of each key
    the walk reaches once and scheduling it the first time, children
    before parents. A key that no walk reaches, such as the semi-join a
    selection was pushed below, is never built or run.

    A reference names an earlier binding or an input: a later binding or
    its own raises UnboundReferenceError, and any other name becomes an
    input leaf. When ``inputs`` (a collection of permitted input names) is
    given, any other input name raises it too, at compile time instead of
    at execution.
    """
    keys: dict = {}  # key -> the one object of that key
    params_of: dict = {}  # key -> its operator call's parameters (an input's name)
    env: dict = {}  # binding name -> its key
    unbound = {name for name, _ in program.stmts}  # bindings not built yet
    leaves: dict = {}  # input name -> its leaf's key, in first-use order
    param_names: list = []

    def intern(kind: str, children: tuple, params: tuple) -> _Key:
        """The one key object of this structure, so that keys built from
        interned children compare by identity below their top level."""
        key = _key(kind, children, tuple(map(_param_key, params)))
        key = keys.setdefault(key, key)
        params_of.setdefault(key, params)
        return key

    def select(g: _Key, params: tuple) -> _Key:
        """The key of lsel(g, c) with the selection pushed below g's
        semi-joins (select pushdown): lsel(semijoin(G, X, δ), c) ->
        semijoin(lsel(G, c), X, δ), level by level through nested
        semi-joins. It fires also where a binding names the semi-join or
        another node reads it; the semi-join then still runs for those.

        Both sides keep the links of G that satisfy c and whose δ
        endpoint matches X, in G order, with the endpoint nodes in
        first-link order: the semi-join tests only a link's endpoint and
        the selection only the link, so the order of the two filters does
        not matter. A keyword c scores the same link objects on both
        sides. A link-less G gives the empty graph on both sides (the
        semi-join's null-graph result has no links to select, and lsel of
        G is empty), and so does a G with no link satisfying c; a
        link-less X is matched by node id on both sides. So each value
        has one form and one key, and ``lsel(G, c)`` no longer depends
        on X: plans that select from the same G share it (and keep it,
        see ``execute``)."""
        levels = []  # the semi-joins above G, outermost first
        while g[1] == "semijoin":
            levels.append(g)
            g = g[2][0]
        key = intern("lsel", (g,), params)
        for sj in reversed(levels):
            key = intern("semijoin", (key, sj[2][1]), params_of[sj])
        return key

    def build(expr) -> _Key:
        if isinstance(expr, Ref):
            if expr.name in env:
                return env[expr.name]
            if expr.name in unbound:
                raise UnboundReferenceError(expr.name)
            if expr.name not in leaves:
                if inputs is not None and expr.name not in inputs:
                    raise UnboundReferenceError(expr.name)
                leaves[expr.name] = intern("input", (), (expr.name,))
            return leaves[expr.name]
        split = OPS[expr.op][2].count("e")  # sub-expressions come first
        children, params = tuple(map(build, expr.args[:split])), expr.args[split:]
        for p in params:
            if isinstance(p, Param) and p.name not in param_names:
                param_names.append(p.name)
        return select(children[0], params) if expr.op == "lsel" else intern(expr.op, children, params)

    nodes: dict = {}  # key -> its PlanNode
    out: list = []  # the current binding's schedule

    def walk(root: _Key) -> PlanNode:
        """Build and schedule each key below root, children first, in
        the order a recursive post-order walk would: a key on top of the
        stack is built once every child is, else its unbuilt children
        are stacked above it, leftmost on top."""
        stack = [root]
        while stack:
            key = stack[-1]
            if key in nodes:
                stack.pop()
                continue
            _, kind, children, _ = key
            unbuilt = [c for c in children if c not in nodes]
            if unbuilt:
                stack.extend(reversed(unbuilt))
                continue
            stack.pop()
            node_inputs, params = tuple(nodes[c] for c in children), params_of[key]
            if kind == "input":
                graph, parametric = params[0], False
            else:
                graphs = {c.graph for c in node_inputs}
                graph = graphs.pop() if len(graphs) == 1 else None
                parametric = any(c.parametric for c in node_inputs) or any(isinstance(p, Param) for p in params)
            node = nodes[key] = PlanNode(kind, node_inputs, params, key, graph, parametric)
            out.append(node)
        return nodes[root]

    bindings, schedule = [], []
    for name, expr in program.stmts:
        env[name] = build(expr)
        unbound.discard(name)
        bindings.append((name, walk(env[name])))
        schedule.append(tuple(out))
        out.clear()
    return Plan(bindings=tuple(bindings), schedule=tuple(schedule), leaves=tuple(leaves), params=tuple(param_names))


def execute(plan: Plan, inputs: dict, params: dict | None = None) -> dict:
    """Evaluate every binding in one loop over ``plan.schedule``, each
    ``$NAME`` condition being ``params[NAME]``. A failure, including the
    ValueError of an operator's argument check, is wrapped in an
    ExecutionError naming the binding being evaluated.

    A node that reads one input ``graph`` gives the same result every
    time it runs on it with the same parameter values, since graphs are
    never mutated. Its key in a run is its kind, its children's keys in
    that run and the ``_param_key`` of each parameter's value: the key a
    script writing those values in place gets. Every plan reads the
    node's ``(key, result)`` entry from the graph's instance dict (next
    to ``out_links``), or from the bound results this run has made so
    far, before running it; on a hit the node takes the kept
    key, so its parents' keys compare with kept ones one level deep. A
    plan with parameters, run again and again on one graph, writes two
    sets there: ``plan_results`` gathers its parameter-free results, and
    ``bound_results`` holds the others from its latest successful run
    only, which replaces the set with the ones it ran or read. So a graph
    keeps one run's bound results however many users it serves, and a
    repeated binding (one user's CF plan run twice) runs no operator
    twice. A plan without parameters writes nothing, so one-off scripts
    never pile up on a graph.
    """
    params = params or {}
    keep = bool(plan.params)
    done: dict = {}  # PlanNode -> its (key, result) entry in this run
    fresh: dict = {}  # input graph name -> its bound results in this run
    results: dict = {}
    for (name, root), nodes in zip(plan.bindings, plan.schedule):
        try:
            for node in nodes:
                if node.kind == "input":
                    if node.graph not in inputs:
                        raise UnboundReferenceError(node.graph)
                    done[node] = node.key, inputs[node.graph]
                    continue
                try:
                    values = [params[p.name] if isinstance(p, Param) else p for p in node.params]
                except KeyError as e:
                    raise UnboundReferenceError(f"${e.args[0]}", "parameter") from None
                keys, args = zip(*[done[c] for c in node.inputs])
                key = _key(node.kind, keys, tuple(map(_param_key, values)))
                # a node's graph is bound: its input leaf ran before it
                kept = vars(inputs[node.graph]) if node.graph else {}
                entry = (
                    kept.get("plan_results", {}).get(key)
                    or fresh.get(node.graph, {}).get(key)
                    or kept.get("bound_results", {}).get(key)
                )
                if entry is None:
                    fn, lead, _ = OPS[node.kind]
                    entry = key, getattr(algebra, fn)(*lead, *args, *values)
                if keep and node.source:
                    kept.setdefault("plan_results", {})[entry[0]] = entry
                elif keep and node.graph:
                    fresh.setdefault(node.graph, {})[entry[0]] = entry
                done[node] = entry
        except (SocialGraphError, ValueError) as e:
            raise ExecutionError(name, e) from e
        results[name] = done[root][1]
    for graph, bound in fresh.items():
        vars(inputs[graph])["bound_results"] = bound
    return results


def run_script(text: str, inputs: dict) -> dict:
    """parse + compile + execute in one call."""
    return execute(compile(parse(text)), inputs)


def parse_condition(text: str) -> Condition:
    """Parse a standalone condition in the script grammar, e.g.
    "[type='destination'; kw:'near denver']"."""
    tokens = _tokenize_line(text, 1)
    parser = _Parser(tokens)
    cond = parser.parse_bracketed()
    if parser.cur.kind != "EOL":
        parser.fail("end of condition")
    return cond
