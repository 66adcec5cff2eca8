import re
import string
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from script_corpus import CORPUS, read_script
from socialgraph import algebra, dsl
from socialgraph.algebra import SetOpKind
from socialgraph.discovery import CF_SCRIPT, SEARCH_SCRIPT
from socialgraph.dsl import OpCall, Param, Program, Ref, compile, execute, parse, parse_condition
from socialgraph.errors import (
    DslSyntaxError,
    DuplicateBindingError,
    ExecutionError,
    SocialGraphError,
    UnboundReferenceError,
    UnknownOperatorError,
)
from socialgraph.fixtures import cf_fixture, random_travel_graph, rng_from
from socialgraph.aggfn import COUNT
from socialgraph.graph import Condition, StructPredicate, attr_eq, attr_gt, build_graph, link, node


def test_parse_single_statement():
    program = parse("G1 = nsel(G, [id='101'])")
    assert len(program.stmts) == 1
    name, expr = program.stmts[0]
    assert name == "G1"
    assert isinstance(expr, OpCall) and expr.op == "nsel"
    assert expr.args[0] == Ref("G")
    cond = expr.args[1]
    assert cond.preds == (StructPredicate("id", "=", ("101",)),)


def test_parse_empty_program():
    assert parse("").stmts == ()
    assert parse("\n# only a comment\n\n").stmts == ()


def test_parse_error_position():
    with pytest.raises(DslSyntaxError) as err:
        parse("G1 = nsel(G,")
    assert err.value.line == 1
    assert err.value.col == 13


def test_parse_reports_expected_token():
    with pytest.raises(DslSyntaxError) as err:
        parse("G1 = nsel(G [id='1'])")
    assert err.value.line == 1 and "','" in str(err.value)


@pytest.mark.parametrize("kw", ["skiing,", "", "   ", "denver new-york", "a_b"])
def test_keyword_string_must_hold_one_token_keywords(kw):
    text = f"[type='destination'; kw:'{kw}']"
    with pytest.raises(DslSyntaxError) as err:
        parse_condition(text)
    bad = next((w for w in kw.split() if not w.isalnum()), "")
    assert (err.value.line, err.value.col) == (1, text.index("'", text.index("kw:")) + 1)
    assert err.value.expected == f"keywords of one token each (found {bad!r})"


def test_duplicate_binding():
    with pytest.raises(DuplicateBindingError) as err:
        parse("A = nsel(G, [])\nA = nsel(G, [])")
    assert err.value.name == "A" and err.value.line == 2


def test_unknown_operator():
    with pytest.raises(UnknownOperatorError) as err:
        parse("A = frobnicate(G, [])")
    assert err.value.name == "frobnicate"


def test_forward_reference_rejected():
    program = parse("A = union(B, B)\nB = nsel(G, [])")
    assert program.stmts[0] == ("A", OpCall("union", (Ref("B"), Ref("B"))))
    with pytest.raises(UnboundReferenceError) as err:
        compile(program)
    assert err.value.name == "B"


USERS = parse_condition("[type='user']")


@pytest.mark.parametrize(
    "stmts, name",
    [
        ((("A", Ref("B")), ("B", OpCall("nsel", (Ref("G"), USERS)))), "B"),
        ((("A", OpCall("nsel", (Ref("A"), USERS))),), "A"),
    ],
    ids=["later binding", "own binding"],
)
def test_hand_built_program_reads_no_later_binding_as_an_input(stmts, name):
    """A binding of the program is never an input leaf, even where an
    input of that name is given."""
    with pytest.raises(UnboundReferenceError) as err:
        compile(Program(stmts))
    assert err.value.name == name
    with pytest.raises(UnboundReferenceError):
        compile(Program(stmts), inputs={"A", "B", "G"})


def test_forward_reference_fails_before_any_binding_runs():
    """A would fail at execution (no input H), but the later reference
    in B is rejected first."""
    with pytest.raises(UnboundReferenceError) as err:
        dsl.run_script("A = nsel(H, [])\nB = union(C, C)\nC = nsel(G, [])", {"G": cf_fixture()})
    assert err.value.name == "C" and str(err.value) == "unbound graph reference: 'C'"


def test_parse_condition_forms():
    cond = parse_condition("[type='destination', rating>=0.5; kw:'near denver']")
    assert cond.preds == (
        StructPredicate("type", "=", ("destination",)),
        StructPredicate("rating", ">=", (0.5,)),
    )
    assert cond.keywords == ("near", "denver")
    assert parse_condition("[]").is_empty
    has = parse_condition("[type has {'a','b'}, n=-2]")
    assert has.preds[0] == StructPredicate("type", "contains-all", ("a", "b"))
    assert has.preds[1] == StructPredicate("n", "=", (-2.0,))


def test_parse_is_total_on_fuzz():
    rng = rng_from(13)
    alphabet = string.ascii_letters + string.digits + "=()[]{},;:@.'<>!- \t#"
    for _ in range(500):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
        try:
            parse(text)
        except SocialGraphError:
            pass  # positioned syntax error is the contract


def test_compile_merges_shared_subexpressions():
    program = parse("A = nsel(G, [])\nB = union(A, A)\nC = union(nsel(G, []), A)")
    plan = compile(program)
    # leaf G + nsel + union(A,A) + union(nsel,A): nsel dedupes, and the
    # two unions are structurally identical, so they merge too
    assert plan.node_count() == 3
    assert plan.leaves == ("G",)


def test_compile_keeps_negative_zero_apart():
    """0.0 == -0.0, but the two conditions hash to different link ids, so
    interning must not merge them: B gets the id it gets on its own and
    through the API."""
    g = build_graph([node("a", type="user"), node("b", type="user")], [link("l", "a", "b", type="friend", w=1.0)])
    both = dsl.run_script("A = laggr(G, [w > 0], {n: count})\nB = laggr(G, [w > -0], {n: count})", {"G": g})
    alone = dsl.run_script("B = laggr(G, [w > -0], {n: count})", {"G": g})
    api = algebra.link_aggregate(g, Condition(preds=(attr_gt("w", -0.0),)), [("n", COUNT)])
    assert list(both["B"].links) == list(alone["B"].links) == list(api.links)
    assert list(both["A"].links) != list(both["B"].links)


def test_compile_sharing_does_not_change_results():
    g = cf_fixture()
    text = read_script("shared_reuse.sgs")
    plan = compile(parse(text))
    results = execute(plan, {"G": g})
    # re-execute expression by expression without any sharing
    for name, graph in dsl.run_script(text, {"G": g}).items():
        assert results[name] == graph


def test_compile_unbound_reference_with_declared_inputs():
    program = parse("A = nsel(H, [])")
    with pytest.raises(UnboundReferenceError) as err:
        compile(program, inputs={"G"})
    assert err.value.name == "H"
    # without a declaration H is a leaf
    assert compile(program).leaves == ("H",)


def test_execute_empty_plan():
    assert execute(compile(parse("")), {}) == {}


def test_execute_missing_input():
    plan = compile(parse("A = nsel(H, [])"))
    with pytest.raises(ExecutionError) as err:
        execute(plan, {})
    assert err.value.binding == "A"
    assert isinstance(err.value.cause, UnboundReferenceError)


def test_execute_wraps_runtime_errors():
    plan = compile(parse("A = naggr(G, [], src, n, sum(missing))"))
    with pytest.raises(ExecutionError) as err:
        execute(plan, {"G": cf_fixture()})
    assert err.value.binding == "A"


@pytest.mark.parametrize("script,inputs,hand", CORPUS, ids=[s for s, _, _ in CORPUS])
def test_corpus_scripts_match_hand_pipelines(script, inputs, hand):
    env = inputs()
    results = dsl.run_script(read_script(script), env)
    expected = hand(env)
    assert set(results) == set(expected)
    for name, graph in expected.items():
        assert results[name] == graph, f"binding {name} differs"


# One well-formed call per operator; '|' marks where it is cut short: at
# the start of each argument and before the closing parenthesis. The
# expected text names what the argument's shape parser looks for first.
E = "a graph reference or operator"
CLOSE = "')'"
CUT_CALLS = [
    ("nsel(|G, |[]|)", [E, "'['", CLOSE]),
    ("lsel(|G, |[]|)", [E, "'['", CLOSE]),
    ("union(|G, |G|)", [E, E, CLOSE]),
    ("intersect(|G, |G|)", [E, E, CLOSE]),
    ("nminus(|G, |G|)", [E, E, CLOSE]),
    ("lminus(|G, |G|)", [E, E, CLOSE]),
    ("semijoin(|G, |G, |(src,tgt)|)", [E, E, "'('", CLOSE]),
    ("compose(|G, |G, |(tgt,src), |{s: jaccard(l.a, r.a)}|)", [E, E, "'('", "'{'", CLOSE]),
    (
        "naggr(|G, |[], |src, |n, |sum(w@1)|)",
        [E, "'['", "'src' or 'tgt'", "a destination attribute",
         "an aggregate (count/sum/avg/min/max/set/any/const)", CLOSE],
    ),
    ("laggr(|G, |[type='a'], |{n: count, t: const('x')}|)", [E, "'['", "'{'", CLOSE]),
    ("paggr(|G, |path([]@tgt, [x>1]@src), |{n: avg(w)}|)", [E, "'path'", "'{'", CLOSE]),
]


def _cuts(call: str) -> list:
    """The call's text (without markers) up to each '|'."""
    parts = call.split("|")
    return ["".join(parts[: i + 1]) for i in range(len(parts) - 1)]


CUT_CASES = [
    case for call, expecteds in CUT_CALLS for case in zip(_cuts(call), expecteds, strict=True)
]


def test_cut_calls_parse_whole():
    parse("\n".join(f"A{i} = {call.replace('|', '')}" for i, (call, _) in enumerate(CUT_CALLS)))
    assert {call.split("(")[0] for call, _ in CUT_CALLS} == set(dsl.OPS)


@pytest.mark.parametrize("prefix,expected", CUT_CASES, ids=[p for p, _ in CUT_CASES])
def test_cut_short_at_each_argument(prefix, expected):
    with pytest.raises(DslSyntaxError) as err:
        parse(f"B = nsel(G, [])\nA = {prefix}")
    assert (err.value.line, err.value.col, err.value.expected) == (2, len(prefix) + 5, expected)


@pytest.mark.parametrize(
    "script, at, expected",
    [
        ("A = naggr(G, [], up, n, count)", "up", "'src' or 'tgt'"),
        ("A = naggr(G, [], src, n, median(w))", "median", "an aggregate (count/sum/avg/min/max/set/any/const)"),
        ("A = compose(G, G, (tgt,src), {s: copy(m.a)})", "m.a", "a side (l/r/lsrc/ltgt/rsrc/rtgt)"),
        ("A = nsel(G, [type 'user'])", "'user'", "a comparison operator or 'has'"),
    ],
    ids=["direction", "aggregate", "side", "predicate"],
)
def test_a_token_outside_its_choices_is_a_syntax_error(script, at, expected):
    with pytest.raises(DslSyntaxError) as err:
        parse(script)
    assert (err.value.line, err.value.col, err.value.expected) == (1, script.index(at) + 1, expected)


def test_execute_calls_algebra_functions_as_bound_at_call_time(monkeypatch):
    calls = []
    real = algebra.set_op

    def spy(kind, g1, g2):
        calls.append(kind)
        return real(kind, g1, g2)

    monkeypatch.setattr(algebra, "set_op", spy)
    g = cf_fixture()
    results = dsl.run_script("A = nminus(G, nsel(G, [type='user']))", {"G": g})
    assert calls == [SetOpKind.NODE_MINUS]
    assert results["A"] == real(SetOpKind.NODE_MINUS, g, algebra.node_select(g, parse_condition("[type='user']")))


@pytest.mark.parametrize("position", ["1e400", "1.5", "1e-400", "25e-1", "1e-9999999999999999999"])
def test_chain_position_must_be_a_finite_whole_number(position):
    script = f"X = laggr(G, [], {{s: sum(w@{position})}})"
    with pytest.raises(DslSyntaxError) as err:
        parse(script)
    assert (err.value.line, err.value.col, err.value.expected) == (1, script.index(position) + 1, "a chain position")


@pytest.mark.parametrize("position, step", [("1e3", 1000), ("2.0", 2), ("0", 0), ("30e-1", 3)])
def test_chain_position_whole_number_forms(position, step):
    script = f"X = laggr(G, [], {{s: sum(w@{position})}})"
    ((_, expr),) = parse(script).stmts
    ((_, spec),) = expr.args[-1]
    assert spec.step == step


def test_param_condition_is_kept_until_execute():
    program = parse("A = nsel(G, $who)\nB = lsel(A, $who)")
    assert program.stmts[0][1].args[1] == Param("who")
    plan = compile(program)
    g = cf_fixture()
    who = Condition(preds=(attr_eq("id", "101"),))
    results = execute(plan, {"G": g}, {"who": who})
    assert results == {"A": algebra.node_select(g, who), "B": algebra.link_select(results["A"], who)}
    other = Condition(preds=(attr_eq("id", "102"),))
    assert execute(plan, {"G": g}, {"who": other})["A"] == algebra.node_select(g, other)


def test_unbound_param_is_wrapped_with_its_binding():
    plan = compile(parse("A = nsel(G, [])\nB = laggr(A, $over, {n: count})"))
    for params in (None, {"under": Condition()}):
        with pytest.raises(ExecutionError) as err:
            execute(plan, {"G": cf_fixture()}, params)
        assert err.value.binding == "B"
        assert isinstance(err.value.cause, UnboundReferenceError)
        assert err.value.cause.name == "$over"
        assert str(err.value) == "while evaluating 'B': unbound parameter: '$over'"


@pytest.mark.parametrize(
    "text",
    ["A = paggr(G, path($x@src), {n: count})", "A = nsel(G, $)", "A = nsel(G, $'x')", "A = nsel(G, $ [])"],
)
def test_param_only_stands_for_a_whole_operator_condition(text):
    with pytest.raises(DslSyntaxError):
        parse(text)


@pytest.mark.parametrize("text", ["$x", "$", "[type='user']$x"])
def test_standalone_condition_takes_no_param(text):
    with pytest.raises(DslSyntaxError):
        parse_condition(text)


@pytest.mark.parametrize("builtin, corpus", [(SEARCH_SCRIPT, "ex4_search.sgs"), (CF_SCRIPT, "ex5_cf.sgs")])
def test_builtin_plans_keep_the_corpus_statement_names(builtin, corpus):
    names = [name for name, _ in parse(builtin).stmts]
    assert names == [name for name, _ in parse(read_script(corpus)).stmts]


@pytest.mark.parametrize(
    "dest, agg, message",
    [
        ("id", "count", "aggregation may not overwrite 'id'"),
        ("type", "count", "aggregation may not overwrite 'type'"),
        ("x", "const('a')", "node aggregation takes a set or numerical aggregate"),
        ("x", "any(rating)", "node aggregation takes a set or numerical aggregate"),
    ],
)
def test_operator_argument_checks_are_wrapped_with_their_binding(dest, agg, message):
    text = f"V = lsel(G, [type='visit'])\nA = naggr(V, [type='visit'], src, {dest}, {agg})"
    with pytest.raises(ExecutionError) as err:
        dsl.run_script(text, {"G": cf_fixture()})
    assert err.value.binding == "A" and isinstance(err.value.cause, ValueError)
    assert str(err.value) == f"while evaluating 'A': {message}"


@pytest.mark.parametrize("att", ["id", "src", "tgt"])
@pytest.mark.parametrize(
    "expr",
    ["naggr(G, [type='visit'], src, {att}, count)", "laggr(G, [type='visit'], {{n: count, {att}: count}})",
     "paggr(G, path([type='visit'] @ src), {{{att}: count}})"],
    ids=["naggr", "laggr", "paggr"],
)
def test_aggregations_may_not_write_an_identity_field(expr, att):
    with pytest.raises(ExecutionError) as err:
        dsl.run_script("A = " + expr.format(att=att), {"G": cf_fixture()})
    assert str(err.value) == f"while evaluating 'A': aggregation may not overwrite '{att}'"


def nested(op: str, depth: int) -> str:
    """``A = op(op(…G…, tail), tail)``, with ``depth`` calls of ``op``."""
    tail = {"lsel": ", []", "union": ", G"}[op]
    return "A = " + f"{op}(" * depth + "G" + f"{tail})" * depth


@pytest.mark.parametrize("op", ["lsel", "union"])
def test_expressions_nest_up_to_the_cap(op):
    g = cf_fixture()
    assert dsl.run_script(nested(op, dsl.MAX_NESTING_DEPTH), {"G": g})["A"] == g
    with pytest.raises(DslSyntaxError) as err:
        parse(nested(op, dsl.MAX_NESTING_DEPTH + 1))
    col = len("A = ") + dsl.MAX_NESTING_DEPTH * len(f"{op}(") + 1
    assert (err.value.line, err.value.col) == (1, col)
    assert err.value.expected == f"at most {dsl.MAX_NESTING_DEPTH} nested operator calls"


@pytest.mark.parametrize("literal", ["1e400", "-1e400", "2e308"])
def test_number_literal_must_be_within_float_range(literal):
    for parse_it, text in ((parse, f"A = nsel(G, [w > {literal}])"), (parse_condition, f"[w > {literal}]")):
        with pytest.raises(DslSyntaxError) as err:
            parse_it(text)
        col = text.index(literal.lstrip("-")) + 1
        assert (err.value.col, err.value.expected) == (col, "a number within float range")
    assert parse_condition("[w > 1e-400]").preds == (StructPredicate("w", ">", (0.0,)),)


@st.composite
def naggr_scripts(draw):
    """(script text, inputs): a corpus script followed by a node aggregate
    over a drawn binding, with a drawn condition, destination and
    aggregate."""
    script, make_inputs, _ = draw(st.sampled_from(CORPUS))
    text = read_script(script)
    program = parse(text)
    operand = draw(st.sampled_from([*compile(program).leaves, *(name for name, _ in program.stmts)]))
    attr = draw(st.sampled_from(("type", "id", "rating", "w", "name")))
    literal = draw(st.sampled_from(("1e400", "-1e400", "0", "-0", "1e-400", "0.5", "3", "'visit'", "'user'")))
    cond = draw(
        st.sampled_from(
            (
                "[]",
                f"[{attr} {draw(st.sampled_from(('=', '!=', '<', '>=')))} {literal}]",
                f"[{attr} has {{{literal}}}]",
                f"[type='visit'; kw:'{draw(st.sampled_from(('denver', 'act visit')))}']",
            )
        )
    )
    direction = draw(st.sampled_from(("src", "tgt")))
    dest = draw(st.sampled_from(("id", "type", "fresh")))
    agg = draw(
        st.sampled_from(
            ("count", "set(tgt)", "set(type)", "const('a')", "any(rating)", "sum(rating)", "avg(w)", "max(rating@1)")
        )
    )
    return f"{text}\nFUZZ = naggr({operand}, {cond}, {direction}, {dest}, {agg})\n", make_inputs()


@given(naggr_scripts())
def test_drawn_node_aggregates_give_results_or_a_typed_error(case):
    text, inputs = case
    try:
        results = dsl.run_script(text, inputs)
    except SocialGraphError:
        return
    assert "FUZZ" in results


@pytest.mark.parametrize(
    "stmt, attr",
    [
        ("A = laggr(G, [type='visit'], {x: set(tgt@7)})", "tgt"),
        ("A = naggr(G, [type='visit'], src, x, set(tgt@1))", "tgt"),
        ("A = laggr(G, [], {n: count, s: max(w@2)})", "w"),
        ("A = compose(G, G, (tgt,tgt), {x: any(type@1)})", "type"),
    ],
    ids=["laggr set", "naggr set", "laggr max", "compose any"],
)
def test_a_chain_position_on_link_rows_is_an_error(stmt, attr):
    """A link row is a one-step chain: only position 0 reads it."""
    step = stmt.split("@")[1][0]
    with pytest.raises(ExecutionError) as err:
        dsl.run_script(stmt, {"G": cf_fixture()})
    suffix = " (attribute 'x')" if stmt.startswith("A = compose") else ""
    assert str(err.value) == f"while evaluating 'A': chain has no step {step} (attribute {attr!r}){suffix}"

    def outcome(text):
        try:
            return dsl.run_script(text, {"G": cf_fixture()})
        except ExecutionError as e:  # max(w) fails alike: cf_fixture has no w
            return str(e)

    assert outcome(stmt.replace(f"@{step}", "@0")) == outcome(stmt.replace(f"@{step}", ""))


def test_a_chain_position_on_a_one_step_path_matches_link_rows():
    g = cf_fixture()
    with pytest.raises(ExecutionError) as err:
        dsl.run_script("P = paggr(G, path([type='visit']@src), {x: set(tgt@3)})", {"G": g})
    assert str(err.value) == "while evaluating 'P': chain has no step 3 (attribute 'tgt')"


# ---------------------------------------------------------------------------
# Boundary fuzz: corpus scripts with spans inserted, deleted or copied.
# A span copied ahead of its own line reads a later binding, which
# ``compile`` must reject.

FRAGMENTS = ("(", ")", ",", "\n", " = ", "G", "X", "[]", "[type='visit']", "$x", "nsel(", "union(", "'", "#")
# A name, number, string or other character, with the blanks around it
# up to the end of its line.
PIECE = re.compile(r"\s*(?:[\w.@]+|'[^'\n]*'|\S)[^\S\n]*\n?")


def edited(rng, text: str) -> str:
    """``text`` after one or two edits of its pieces (``PIECE``): a
    fragment inserted, a span of one to three pieces deleted, or such a
    span copied over as many pieces elsewhere. A name copied over one
    that comes before its binding reads a later binding."""
    pieces = PIECE.findall(text)
    for _ in range(rng.randint(1, 2)):
        i, at, n = rng.randint(0, len(pieces)), rng.randint(0, len(pieces)), rng.choice((1, 1, 1, 2, 3))
        kind = rng.choice(("insert", "delete", "copy"))
        if kind == "insert":
            pieces[at:at] = [rng.choice(FRAGMENTS)]
        elif kind == "delete":
            del pieces[i : i + n]
        else:
            span = pieces[i : i + n]
            pieces[at : at + len(span)] = span
    return "".join(pieces)


def read_names(expr) -> list:
    """The names an expression reads, in reading order."""
    if isinstance(expr, Ref):
        return [expr.name]
    return [name for arg in expr.args if isinstance(arg, (Ref, OpCall)) for name in read_names(arg)]


def first_forward_reference(program):
    """The first name, statement by statement in reading order, that a
    statement reads and that it or a later statement binds, or None."""
    bound_at = {name: i for i, (name, _) in enumerate(program.stmts)}
    for i, (_, expr) in enumerate(program.stmts):
        for name in read_names(expr):
            if bound_at.get(name, -1) >= i:
                return name
    return None


def outcome(run, *args) -> tuple:
    """The results of a run, or the SocialGraphError it raised; any other
    error fails the test."""
    try:
        return "ok", run(*args)
    except SocialGraphError as e:
        return "error", type(e).__name__, str(e)


def staged(text: str, inputs: dict) -> tuple:
    """``text`` run through parse, compile and execute, one at a time,
    with a forward reference checked against ``first_forward_reference``."""
    parsed = outcome(parse, text)
    if parsed[0] != "ok":
        return parsed
    program = parsed[1]
    forward = first_forward_reference(program)
    got = outcome(lambda: execute(compile(program), inputs))
    if forward is not None:
        assert got == ("error", "UnboundReferenceError", str(UnboundReferenceError(forward))), text
    return got


def test_edited_corpus_scripts_give_results_or_a_typed_error():
    """10,000 edited corpus scripts, each run in stages and by
    ``run_script`` on 6 x 8 travel graphs: both give the same results or
    the same SocialGraphError, and every kind of outcome occurs."""
    g1, g2 = (random_travel_graph(rng_from(seed), 6, 8) for seed in (5, 6))
    inputs = {"G": g1, "G1": g1, "G2": g2}
    texts = [read_script(name) for name, _, _ in CORPUS]
    rng = rng_from(31)
    kinds = Counter()
    for _ in range(10_000):
        text = edited(rng, rng.choice(texts))
        got = staged(text, inputs)
        assert got == outcome(dsl.run_script, text, inputs), text
        kinds[got[0] if got[0] == "ok" else got[1]] += 1
    assert min(kinds[kind] for kind in ("ok", "DslSyntaxError", "UnboundReferenceError", "ExecutionError")) >= 10, kinds
