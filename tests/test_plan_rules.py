"""The plan optimiser and executor: compiled plans against the program
run as written (``run_as_written``) and against naive scans, the
compiled schedules of the built-in and corpus scripts, the per-graph
keeping of parameter-free subplan results and of the latest parameter
binding's results, selections pushed below every semi-join (named and
shared ones too) and read by plans that write them pushed down, and the
loop over a plan's schedule against the recursive executor of
``reference.py``.

Plans are the corpus scripts of ``script_corpus.py`` with drawn
selections over semi-joins appended. Their graphs use the ids and
attributes the corpus names, any link may point into a user node (the
visit link v->u of the aggregate-pushdown counterexample), and a few
visits to shared places let users match in CF in most drawn graphs.
"""

from __future__ import annotations

import contextlib
import gc
import os
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from reference import (
    cf_pipeline_wired,
    exact,
    execute_recursive,
    link_select_scan,
    network_search_wired,
    push_selections,
    run_as_written,
    semi_join_scan,
)
from script_corpus import COMBINED_SCRIPT, CORPUS, FORMS, SCRIPT_DIR, read_script
from socialgraph import algebra, dsl
from socialgraph.discovery import (
    CF_SCRIPT,
    SEARCH_SCRIPT,
    VISIT,
    DiscoveryConfig,
    cf_pipeline,
    cf_recommend,
    discover,
    network_search,
)
from socialgraph.fixtures import cf_fixture, random_travel_graph, rng_from
from socialgraph.graph import Condition, Link, Node, attr_eq, attr_gt, attr_ne, build_graph, node

USERS = ("101", "102", "u00", "u01")
PLACES = ("201", "202", "p0")
WORDS = ("denver", "skiing", "act", "visit")
LINK_KINDS = (("connect", "friend"), ("act", "visit"), ("visit",), ("act", "tag"), ("act",), ("edge",))
VISIT_KINDS = (("act", "visit"), ("visit",))
DELTAS = ("(src,src)", "(src,tgt)", "(tgt,src)", "(tgt,tgt)")
NODE_CONDITIONS = ("[type='user']", "[type='destination']", "[id='101']", "[id!='u00']")
LINK_CONDITIONS = (
    "[]",
    "[type='visit']",
    "[rating>0.5]",
    "[type='visit'; kw:'denver act']",
    "[; kw:'skiing visit']",
    "[; kw:'act friend denver']",
)
DESTINATION = Condition(preds=(attr_eq("type", "destination"),))


@st.composite
def corpus_graphs(draw):
    words = st.frozensets(st.sampled_from(WORDS), min_size=1, max_size=2)
    nodes = [node(u, type="user", name=u) for u in USERS]
    for p in PLACES:
        kind = draw(st.sampled_from((("item", "destination"), ("destination",), ("item",))))
        attrs = {"type": frozenset(kind), "name": frozenset({draw(st.sampled_from(("P", "Q")))})}
        if draw(st.booleans()):
            attrs["keywords"] = draw(words)
        nodes.append(Node(p, attrs))
    ids = USERS + PLACES
    links = []
    for j in range(draw(st.integers(0, 12))):
        attrs = {"type": frozenset(draw(st.sampled_from(LINK_KINDS)))}
        if draw(st.booleans()):
            attrs["note"] = draw(words)
        if draw(st.booleans()):
            attrs["rating"] = frozenset({draw(st.sampled_from((0.0, 0.5, 1.0)))})
        links.append(Link(f"l{j}", draw(st.sampled_from(USERS)), draw(st.sampled_from(ids)), attrs))
    # visits to a few shared places, so that users often match in CF
    pairs = st.tuples(st.sampled_from(USERS), st.sampled_from(PLACES))
    visits = draw(st.lists(pairs, min_size=2, max_size=8, unique=True))
    for j, (u, p) in enumerate(visits):
        links.append(Link(f"v{j}", u, p, {"type": frozenset(draw(st.sampled_from(VISIT_KINDS)))}))
    return build_graph(nodes, links)


@st.composite
def plans(draw):
    """(script text, inputs, params): a corpus script followed by a null
    graph N, a semi-join SJ and two selections over semi-joins, PUSH and
    PUSH2, over drawn operands (each of N and the first input graph a
    third of the time, a corpus binding otherwise)."""
    script, _, _ = draw(st.sampled_from(CORPUS))
    text = read_script(script)
    g = draw(corpus_graphs())
    leaves = dsl.compile(dsl.parse(text)).leaves
    inputs = {"G": g} if leaves == ("G",) else {"G1": g, "G2": _sub_graph(g, draw)}
    names = [*leaves, *(name for name, _ in dsl.parse(text).stmts)]
    operand = st.one_of(st.just("N"), st.just(leaves[0]), st.sampled_from(names))
    a, b, c = (draw(operand) for _ in range(3))
    d1, d2 = (draw(st.sampled_from(DELTAS)) for _ in range(2))
    cond = draw(st.sampled_from((*LINK_CONDITIONS, "$c")))
    extra = (
        f"N = nsel({draw(st.sampled_from(names))}, {draw(st.sampled_from(NODE_CONDITIONS))})\n"
        f"SJ = semijoin({a}, {b}, {d1})\n"
        f"PUSH = lsel(semijoin({a}, {b}, {d1}), {cond})\n"
        f"PUSH2 = lsel(semijoin(semijoin({c}, {a}, {d2}), {b}, {d1}), {draw(st.sampled_from(LINK_CONDITIONS))})\n"
    )
    params = {"c": dsl.parse_condition(draw(st.sampled_from(LINK_CONDITIONS)))}
    return text + extra, inputs, params


def _sub_graph(g, draw):
    """The graph of a drawn part of g's links and their endpoints."""
    links = [l for l in g.links.values() if draw(st.booleans())]
    return algebra.link_minus(g, build_graph(g.nodes.values(), links))


def fresh(inputs) -> dict:
    """Equal copies of the inputs, with nothing kept on them."""
    return {name: build_graph(g.nodes.values(), g.links.values()) for name, g in inputs.items()}


def run(plan, inputs, params, execute=dsl.execute):
    try:
        results = execute(plan, inputs, params)
    except Exception as e:  # both sides must fail alike
        return ("error", type(e).__name__, str(e)), None
    return {name: exact(g) for name, g in results.items()}, results


def distinct_subexpressions(program) -> int:
    """The operator calls and input names of ``program`` as written,
    those equal as ``PlanNode.key`` sees them counted once."""
    env, seen = {}, set()

    def key(expr):
        if isinstance(expr, dsl.Ref):
            if expr.name in env:
                return env[expr.name]
            k = ("input", expr.name)
        else:
            split = dsl.OPS[expr.op][2].count("e")
            k = (expr.op, tuple(map(key, expr.args[:split])), tuple(map(dsl._param_key, expr.args[split:])))
        seen.add(k)
        return k

    for name, expr in program.stmts:
        env[name] = key(expr)
    return len(seen)


@given(plans())
def test_select_pushdown_keeps_every_binding_exact(case):
    text, inputs, params = case
    program = dsl.parse(text)
    pushed = dsl.compile(program)
    want, _ = run(program, fresh(inputs), params, run_as_written)
    env = fresh(inputs)
    got, results = run(pushed, env, params)
    assert got == want
    # again on the same graphs: now from the kept results
    assert run(pushed, env, params)[0] == want
    if results is None:
        return
    operand = {**env, **results}.__getitem__
    ((_, sj), (_, push)) = [dsl.parse(line).stmts[0] for line in text.splitlines()[-3:-1]]
    a, b = (operand(r.name) for r in sj.args[:2])
    cond = params["c"] if isinstance(push.args[1], dsl.Param) else push.args[1]
    assert exact(results["SJ"]) == exact(semi_join_scan(a, b, sj.args[2]))
    assert exact(results["PUSH"]) == exact(link_select_scan(semi_join_scan(a, b, sj.args[2]), cond))


@given(plans())
def test_a_plan_has_no_more_nodes_than_distinct_subexpressions(case):
    """As many nodes as the program with its selections pushed below
    their semi-joins (``push_selections``) has distinct subexpressions:
    equal ones are one node, and a semi-join a selection was pushed
    below is built only where something else reads it."""
    program = dsl.parse(case[0])
    assert dsl.compile(program).node_count() == distinct_subexpressions(push_selections(program))


def compile_counting_nodes(program) -> tuple:
    """``dsl.compile(program)`` and the number of PlanNodes it built."""
    built = 0
    init = dsl.PlanNode.__init__

    def counting(self, *args):
        nonlocal built
        built += 1
        init(self, *args)

    with mock.patch.object(dsl.PlanNode, "__init__", counting):
        plan = dsl.compile(program)
    return plan, built


@given(plans())
def test_compile_builds_only_the_nodes_the_plan_runs(case):
    """Every node built is scheduled, and no selection is left over a
    semi-join."""
    plan, built = compile_counting_nodes(dsl.parse(case[0]))
    assert built == plan.node_count()
    assert not any(n.kind == "lsel" and n.inputs[0].kind == "semijoin" for nodes in plan.schedule for n in nodes)


@pytest.mark.parametrize("script, nodes", [(CF_SCRIPT, 17), (SEARCH_SCRIPT, 13)])
def test_compile_builds_each_node_of_a_builtin_plan_once(script, nodes):
    assert compile_counting_nodes(dsl.parse(script))[1] == nodes


def test_pushdown_runs_below_a_bound_semi_join():
    """A selection over a semi-join that a binding names is pushed below
    it, and the named semi-join still runs for its binding."""
    extra = "SJ = semijoin(N, N, (src,src))\nPUSH = lsel(semijoin(N, N, (src,src)), [])\n"
    program = dsl.parse(read_script("ex4_search.sgs") + extra)
    plan = dsl.compile(program)
    assert plan.node_count() == distinct_subexpressions(push_selections(program)) == 17
    b = dict(plan.bindings)
    push, (n, sj) = b["PUSH"], plan.schedule[-2]
    assert n.kind == "input" and sj is b["SJ"] and sj.inputs == (n, n)
    assert push.kind == "semijoin" and push.inputs[1] is n
    assert push.inputs[0].kind == "lsel" and push.inputs[0].inputs == (n,)
    assert plan.schedule[-1] == (push.inputs[0], push)


def test_pushdown_runs_below_a_shared_semi_join():
    """A selection over a semi-join that another node reads too is pushed
    below it, and the semi-join still runs for that other reader."""
    text = "A = lsel(semijoin(G, X, (src,src)), [type='visit'])\nB = union(semijoin(G, X, (src,src)), G)\n"
    plan = dsl.compile(dsl.parse(text))
    (_, a), (_, b) = plan.bindings
    g, x = plan.schedule[0][0], plan.schedule[0][2]
    assert a.kind == "semijoin" and a.inputs[0].kind == "lsel" and a.inputs == (a.inputs[0], x)
    assert a.inputs[0].inputs == (g,)
    assert b.inputs[0].kind == "semijoin" and b.inputs == (b.inputs[0], g) and b.inputs[0].inputs == (g, x)
    assert [[n.kind for n in nodes] for nodes in plan.schedule] == [
        ["input", "lsel", "input", "semijoin"],
        ["semijoin", "union"],
    ]


# Scripts that write a value again in another form: C is A's value
# pushed down by hand, and H and M are A's and A2's written as
# selections over nested semi-joins.
SECOND_FORMS = [
    (
        "A = lsel(semijoin(G, X, (src,src)), [type='visit'])\n"
        "B = union(semijoin(G, X, (src,src)), G)\n"
        "C = semijoin(lsel(G, [type='visit']), X, (src,src))\n",
        {"C": "A"},
        6,
    ),
    (
        "A = semijoin(semijoin(lsel(G, [type='visit']), X, (src,src)), Y, (tgt,src))\n"
        "A2 = semijoin(semijoin(lsel(G, [type='visit']), X, (src,src)), Y, (tgt,tgt))\n"
        "H = lsel(semijoin(semijoin(G, X, (src,src)), Y, (tgt,src)), [type='visit'])\n"
        "M = lsel(semijoin(semijoin(G, X, (src,src)), Y, (tgt,tgt)), [type='visit'])\n",
        {"H": "A", "M": "A2"},
        7,
    ),
]


@pytest.mark.parametrize("text, same, nodes", SECOND_FORMS, ids=["pushed-down form", "selection over a shared semi-join"])
def test_a_second_form_of_a_value_builds_nothing(text, same, nodes):
    """A binding whose value an earlier node computes is that node, and
    compile builds nothing for it, such as an lsel(G, [type='visit'])
    or a semijoin(G, X) that nothing would read."""
    program = dsl.parse(text)
    plan, built = compile_counting_nodes(program)
    b = dict(plan.bindings)
    position = {name: pos for pos, (name, _) in enumerate(plan.bindings)}
    for later, earlier in same.items():
        assert b[later] is b[earlier] and plan.schedule[position[later]] == ()
    assert built == plan.node_count() == nodes
    g = travel()
    inputs = {"G": g, "X": algebra.node_select(g, Condition(preds=(attr_eq("type", "user"),))), "Y": g}
    assert run(plan, fresh(inputs), {})[0] == run(program, fresh(inputs), {}, run_as_written)[0]


def test_pushdown_shares_one_visit_selection_in_the_cf_plan():
    plan = dsl.compile(dsl.parse(CF_SCRIPT))
    assert plan.node_count() < distinct_subexpressions(dsl.parse(CF_SCRIPT))
    b = dict(plan.bindings)
    for name in ("G1", "G2", "G5"):
        assert b[name].kind == "semijoin"
    shared = b["G1"].inputs[0]
    assert shared.kind == "lsel" and shared.params == (VISIT,)
    assert b["G2"].inputs[0] is shared and b["G5"].inputs[0] is shared


def test_pushdown_runs_through_nested_semi_joins():
    plan = dsl.compile(dsl.parse("A = lsel(semijoin(semijoin(G, X, (src,src)), Y, (tgt,src)), [type='visit'])"))
    outer = plan.bindings[0][1]
    assert outer.kind == "semijoin" and outer.inputs[0].kind == "semijoin"
    assert outer.inputs[0].inputs[0].kind == "lsel"
    assert outer.inputs[0].inputs[0].inputs[0].params == ("G",)
    assert plan.node_count() == 6


def test_pushdown_runs_through_a_bound_inner_semi_join():
    """A selection is pushed through a named semi-join nested under the
    one it selects from, and the named one still runs for its binding."""
    plan = dsl.compile(dsl.parse("S = semijoin(G, X, (src,src))\nA = lsel(semijoin(S, Y, (tgt,src)), [type='visit'])"))
    (_, s), (_, outer) = plan.bindings
    g, x = s.inputs
    assert plan.schedule[0] == (g, x, s)
    assert outer.kind == "semijoin" and outer.params == (dsl.DirectionalCondition("tgt", "src"),)
    inner = outer.inputs[0]
    assert inner.kind == "semijoin" and inner.inputs[1] is x and inner is not s
    assert inner.inputs[0].kind == "lsel" and inner.inputs[0].inputs == (g,)
    assert [n.kind for n in plan.schedule[1]] == ["lsel", "semijoin", "input", "semijoin"]


# ---------------------------------------------------------------------------
# Results kept per graph


def kept(g) -> dict:
    """A graph's parameter-free results: (key, result) entries, by key."""
    return vars(g).get("plan_results", {})


def travel():
    return random_travel_graph(rng_from(5), n_users=12, n_places=20)


def test_a_plan_with_params_keeps_its_parameter_free_subplans():
    g = travel()
    u = sorted(n for n in g.nodes if n.startswith("u"))[0]
    assert dsl.compile(dsl.parse(CF_SCRIPT)).params == ("user", "others", "over")
    stages = cf_pipeline(g, u, 0.1)
    # lsel(G, visit), nsel(G, destination) and G5 = semijoin of the two
    assert len(kept(g)) == 3
    assert any(v is stages["visits"] for _, v in kept(g).values())
    assert algebra.link_select(g, VISIT) in [v for _, v in kept(g).values()]
    network_search(g, u, DESTINATION)
    assert len(kept(g)) == 5  # and lsel(G, friend), lsel(G, act); lsel(G, visit) is shared
    for v in sorted(g.nodes):
        for theta in (0.0, 0.5):
            assert cf_pipeline(g, v, theta) == cf_pipeline_wired(g, v, theta)
        assert network_search(g, v, DESTINATION) == network_search_wired(g, v, DESTINATION)
    assert len(kept(g)) == 5


def test_scripts_without_params_keep_nothing():
    g = travel()
    users = sorted(n for n in g.nodes if n.startswith("u"))
    cf_pipeline(g, users[0], 0.1)
    before = dict(kept(g))
    untouched = travel()
    cf = read_script("ex5_cf.sgs")
    thetas = ("0.1", "0.2", "0.3", "0.4", "0.5")
    texts = sorted({cf.replace("'101'", f"'{u}'").replace("0.5", t) for u in users for t in thetas})[:50]
    assert len(texts) == 50 and dsl.compile(dsl.parse(texts[0])).params == ()
    for text in texts:
        results = dsl.run_script(text, {"G": g})
        assert dsl.run_script(text, {"G": untouched}) == results
    assert kept(g).keys() == before.keys()
    assert all(kept(g)[k] is v for k, v in before.items())
    assert "plan_results" not in vars(untouched)


def test_a_recompiled_plan_never_reads_a_dropped_plans_results():
    """Keys are structural, so a plan compiled into the memory of a
    dropped one (and its node ids) reads only its own results."""
    g = travel()
    who = {"who": Condition(preds=(attr_eq("type", "user"),))}
    for i in range(20):
        kind = ("visit", "friend", "act")[i % 3]
        plan = dsl.compile(dsl.parse(f"V = lsel(G, [type='{kind}'])\nX = nsel(V, $who)"))
        results = dsl.execute(plan, {"G": g}, who)
        assert results["V"] == algebra.link_select(g, Condition(preds=(attr_eq("type", kind),)))
        del plan, results
        gc.collect()
    assert len(kept(g)) == 3


def test_a_derived_graph_keeps_its_own_results():
    g = travel()
    h = algebra.link_select(g, Condition(preds=(attr_eq("type", "visit"),)))
    users = sorted(n for n in h.nodes if n.startswith("u"))
    for u in users:
        assert cf_pipeline(h, u, 0.1) == cf_pipeline_wired(h, u, 0.1)
    assert "plan_results" not in vars(g)
    for u in users:
        assert cf_pipeline(g, u, 0.1) == cf_pipeline_wired(g, u, 0.1)
    assert kept(g) is not kept(h)
    assert kept(g).keys() == kept(h).keys()
    assert algebra.link_select(h, VISIT) in [v for _, v in kept(h).values()]
    assert algebra.link_select(g, VISIT) in [v for _, v in kept(g).values()]


# ---------------------------------------------------------------------------
# Results of the latest parameter binding, kept per graph


def bound(g) -> dict:
    """A graph's bound results: (key, result) entries, by key."""
    return vars(g).get("bound_results", {})


CF_CONFIG = DiscoveryConfig(sim_threshold=0.1)


def cf_params(user, theta) -> dict:
    return {
        "user": Condition(preds=(attr_eq("id", user),)),
        "others": Condition(preds=(attr_ne("id", user),)),
        "over": Condition(preds=(attr_gt("sim", theta),)),
    }


def literal_cf(user, theta) -> str:
    """ex5_cf.sgs with its user and threshold written in: a script
    without parameters whose plan is the CF plan's with those values."""
    return read_script("ex5_cf.sgs").replace("'101'", f"'{user}'").replace("0.5", repr(theta))


def parametric_calls(script, names=None) -> Counter:
    """The algebra calls of a built-in plan's nodes with a $NAME below
    them (one of ``names``, if given)."""

    def below(node) -> bool:
        return any(isinstance(p, dsl.Param) and p.name in names for p in node.params) or any(map(below, node.inputs))

    plan = dsl.compile(dsl.parse(script))
    nodes = [n for nodes in plan.schedule for n in nodes if n.parametric and (names is None or below(n))]
    return Counter(dsl.OPS[n.kind][0] for n in nodes)


@st.composite
def served_runs(draw):
    """A graph (Example 5's, where 101 and 102 match, or a drawn one) and
    the runs served on it, one after another: the CF plan, the search
    plan, or ex5_cf.sgs with the user and threshold written in. A run
    often repeats the one before, with the same or another threshold
    (0.0 and -0.0 among them), and a run of a built-in plan may leave a
    $NAME unbound."""
    g = draw(st.one_of(st.builds(cf_fixture), corpus_graphs()))
    thetas = st.sampled_from((0.0, -0.0, 0.5))
    steps = []
    for _ in range(draw(st.integers(1, 6))):
        if steps and draw(st.booleans()):
            kind, user, _, places, drop = steps[-1]
        else:
            kind, user = draw(st.sampled_from(("cf", "search", "literal"))), draw(st.sampled_from(USERS))
            places = dsl.parse_condition(draw(st.sampled_from(NODE_CONDITIONS)))
            drop = draw(st.sampled_from((None, "user", "others", "over", "places", *[None] * 6)))
        steps.append((kind, user, draw(thetas), places, drop))
    runs = []
    for kind, user, theta, places, drop in steps:
        if kind == "literal":
            runs.append((literal_cf(user, theta), {}))
            continue
        params = cf_params(user, theta)
        text = CF_SCRIPT if kind == "cf" else SEARCH_SCRIPT
        if kind == "search":
            params = {"user": params["user"], "places": places}
        params.pop(drop, None)
        runs.append((text, params))
    return g, runs


@given(served_runs())
def test_runs_served_on_one_graph_match_the_program_as_written(case):
    """Each run, reading what earlier runs kept, is exact-equal to the
    program as written on a fresh copy (or fails alike), and the graph's
    ``plan_results`` hold what the recursive executor keeps."""
    g, runs = case
    env, ref = fresh({"G": g}), fresh({"G": g})
    for text, params in runs:
        program = dsl.parse(text)
        plan = dsl.compile(program)
        assert run(plan, env, params)[0] == run(program, fresh({"G": g}), params, run_as_written)[0]
        run(plan, ref, params, execute_recursive)
        assert set(kept(env["G"])) == set(kept(ref["G"]))


def test_discover_reads_the_cf_plan_cf_recommend_ran():
    g = travel()
    u, v = sorted(n for n in g.nodes if n.startswith("u"))[:2]
    cf_recommend(g, u, CF_CONFIG)
    held = bound(g)
    # a script without params reads what is kept but writes nothing
    dsl.run_script(literal_cf(v, 0.3), {"G": g})
    assert bound(g) is held
    with counted_operators() as calls:
        msg = discover(g, u, DESTINATION, CF_CONFIG)
        script = dsl.run_script(literal_cf(u, CF_CONFIG.sim_threshold), {"G": g})
    assert calls == Counter()
    assert msg == discover(fresh({"G": g})["G"], u, DESTINATION, CF_CONFIG)
    assert script["G7"] == cf_pipeline_wired(g, u, CF_CONFIG.sim_threshold)["scored"]
    # another user runs every parameterised node again; another threshold
    # token, those below $over
    for theta, names in ((0.1, None), (0.0, ("over",)), (-0.0, ("over",))):
        with counted_operators() as calls:
            stages = cf_pipeline(g, v, theta)
        assert calls == parametric_calls(CF_SCRIPT, names)
        assert stages == cf_pipeline_wired(g, v, theta)


def test_a_graph_keeps_one_runs_parameterised_results():
    g = travel()
    users = sorted(n for n in g.nodes if n.startswith("u"))
    for u in users:
        cf_recommend(g, u, CF_CONFIG)
        discover(g, u, DESTINATION, CF_CONFIG)
    last = fresh({"G": g})["G"]
    cf_recommend(last, users[-1], CF_CONFIG)
    assert len(bound(g)) == sum(parametric_calls(CF_SCRIPT).values())
    assert bound(g).keys() == bound(last).keys()
    assert all(exact(bound(g)[k][1]) == exact(bound(last)[k][1]) for k in bound(g))
    network_search(g, users[0], DESTINATION)
    assert len(bound(g)) == sum(parametric_calls(SEARCH_SCRIPT).values())


def test_parameterised_results_are_kept_with_the_graph_they_read():
    g = travel()
    h = algebra.link_select(g, VISIT)
    u = sorted(n for n in h.nodes if n.startswith("u"))[0]
    plan = dsl.compile(dsl.parse("A = nsel(G1, $who)\nB = nsel(G2, $who)\nC = union(A, B)"))
    results = dsl.execute(plan, {"G1": g, "G2": h}, {"who": cf_params(u, 0.1)["user"]})
    ((_, a),), ((_, b),) = bound(g).values(), bound(h).values()
    assert a is results["A"] and b is results["B"]
    # a derived graph keeps its own, which a run on its parent leaves alone
    cf_recommend(h, u, CF_CONFIG)
    held = dict(bound(h))
    cf_recommend(g, u, CF_CONFIG)
    assert bound(g).keys() == held.keys()
    assert all(bound(h)[k] is v and bound(g)[k][1] is not v[1] for k, v in held.items())
    want = discover(fresh({"G": h})["G"], u, DESTINATION, CF_CONFIG)
    with counted_operators() as calls:
        assert discover(h, u, DESTINATION, CF_CONFIG) == want
    assert calls == Counter()


# ---------------------------------------------------------------------------
# A selection over a semi-join is read from plans that wrote it pushed down


def test_the_combined_script_reads_the_cf_plan_cf_recommend_ran():
    """As in a travel-serve round: a network search ran on the graph
    before (perfbench's check of an earlier round), then cf_recommend and
    discover for the user, then the combined script."""
    g = random_travel_graph(rng_from(1), 60, 120)
    users = sorted(n for n in g.nodes if n.startswith("u"))
    u = next(u for u in users if cf_pipeline(fresh({"G": g})["G"], u, 0.1)["match"].links)
    network_search(g, u, DESTINATION)
    cf_recommend(g, u, CF_CONFIG)
    discover(g, u, DESTINATION, CF_CONFIG)
    held = bound(g)
    before = dict(held)
    text = COMBINED_SCRIPT.replace("USER", u)
    operands = []
    with counted_operators() as calls:
        counting = algebra.semi_join
        with mock.patch.object(algebra, "semi_join", lambda g1, *rest: operands.append(g1) or counting(g1, *rest)):
            got = run(dsl.compile(dsl.parse(text)), {"G": g}, {})[0]
    # G1 to G7 are the CF plan's results, and S1 reads the kept
    # lsel(G, [type='friend']): only S1, S3, S4 and S6 and the two unions run
    assert calls == Counter(semi_join=4, set_op=2)
    assert not any(g1 is g for g1 in operands)
    assert got == run(dsl.parse(text), fresh({"G": g}), {}, run_as_written)[0]
    assert bound(g) is held and held.keys() == before.keys()
    assert all(held[k] is v for k, v in before.items())


# FORMS' values with every selection pushed below its semi-joins by
# hand.
PUSHED = """\
ME  = nsel(G, {user})
OTH = nsel(G, {others})
P   = nsel(G, {places})
LV  = lsel(G, [type='visit'])
LF  = lsel(G, [type='friend'])
SJ  = semijoin(G, ME, (src,src))
V1  = semijoin(LV, ME, (src,src))
F1  = semijoin(LF, ME, (src,src))
V1t = semijoin(LV, ME, (tgt,src))
F1t = semijoin(LF, ME, (tgt,src))
V2  = semijoin(LV, OTH, (src,src))
F2  = semijoin(LF, OTH, (src,src))
SP  = semijoin(G, P, (tgt,src))
V5  = semijoin(LV, P, (tgt,src))
NJ  = semijoin(SP, OTH, (src,src))
V6  = semijoin(V5, OTH, (src,src))
U   = lsel(union(SJ, P), [type='visit'])
W   = union(V1, P)
"""

AS_PARAMS = {"user": "$user", "others": "$others", "places": "$places"}


@given(
    st.one_of(st.builds(cf_fixture), corpus_graphs()),
    st.sampled_from(("cf", "search")),
    st.sampled_from(USERS),
    st.sampled_from((0.0, -0.0, 0.5)),
    st.sampled_from(NODE_CONDITIONS),
)
def test_selections_over_semi_joins_read_their_pushed_down_form(g, kind, user, theta, places):
    """After a built-in plan, FORMS runs with that plan's values written
    in. Then FORMS and PUSHED, each run after the other has run with
    parameters, read every value the other kept and run no operator.
    Every binding of every run is exact-equal to its program as written
    on a fresh copy."""
    places = "[type='destination']" if kind == "cf" else places
    literal = {"user": f"[id='{user}']", "others": f"[id!='{user}']", "places": places}
    values = {name: dsl.parse_condition(text) for name, text in literal.items()}
    env = fresh({"G": g})

    def check(text, params) -> Counter:
        """Run ``text`` on env, check it, and give its algebra calls."""
        program = dsl.parse(text)
        plan = dsl.compile(program)
        with counted_operators() as calls:
            got = run(plan, env, params)[0]
        assert got == run(program, fresh({"G": g}), params, run_as_written)[0]
        return calls

    if kind == "cf":
        check(CF_SCRIPT, cf_params(user, theta))
    else:
        check(SEARCH_SCRIPT, {"user": values["user"], "places": values["places"]})
    check(FORMS.format(**literal), {})
    for first, then in ((FORMS, PUSHED), (PUSHED, FORMS)):
        check(first.format(**AS_PARAMS), values)
        assert check(then.format(**literal), {}) == Counter()


def test_aggregate_pushdown_is_not_a_rule():
    """naggr(semijoin(V, X, (src,src)), ...) differs from
    semijoin(naggr(V, ...), X, (src,src)): the aggregate also lands on
    nodes that the semi-join keeps only as link targets."""
    g = build_graph(
        [node("u", type="user"), node("v", type="user"), node("d", type="destination")],
        [Link("l1", "u", "d", {"type": frozenset({"visit"})}), Link("l2", "v", "u", {"type": frozenset({"visit"})})],
    )
    text = (
        "X = nsel(G, [id!='u'])\n"
        "A = naggr(semijoin(G, X, (src,src)), [type='visit'], src, vst, set(tgt))\n"
        "B = semijoin(naggr(G, [type='visit'], src, vst, set(tgt)), X, (src,src))\n"
    )
    results = dsl.run_script(text, {"G": g})
    assert "vst" not in results["A"].nodes["u"].attrs
    assert results["B"].nodes["u"].attrs["vst"] == frozenset({"d"})
    assert dsl.compile(dsl.parse(text)).bindings[1][1].kind == "naggr"


# ---------------------------------------------------------------------------
# The executor: one loop over the schedule


def twice(execute, plan, inputs, params) -> list:
    """``execute`` on fresh copies of the inputs and then again on the
    same copies: each run's exact results (or failure), and the keys then
    kept on each input graph."""
    env = fresh(inputs)
    return [(run(plan, env, params, execute)[0], {name: set(kept(g)) for name, g in env.items()}) for _ in range(2)]


@given(plans())
def test_the_schedule_loop_matches_the_recursive_executor(case):
    text, inputs, params = case
    plan = dsl.compile(dsl.parse(text))
    assert twice(dsl.execute, plan, inputs, params) == twice(execute_recursive, plan, inputs, params)


@pytest.mark.parametrize("script, make_inputs", [(script, make) for script, make, _ in CORPUS])
def test_corpus_scripts_match_the_recursive_executor(script, make_inputs):
    plan = dsl.compile(dsl.parse(read_script(script)))
    inputs = make_inputs()
    assert twice(dsl.execute, plan, inputs, {}) == twice(execute_recursive, plan, inputs, {})


def test_builtin_plans_match_the_recursive_executor():
    """The built-in plans keep results, some below others, on one graph
    served user after user."""
    g = travel()
    envs = {execute: fresh({"G": g}) for execute in (dsl.execute, execute_recursive)}
    search, cf = (dsl.compile(dsl.parse(text)) for text in (SEARCH_SCRIPT, CF_SCRIPT))
    over = dsl.parse_condition("[sim > 0.1]")
    for u in sorted(g.nodes):
        user = Condition(preds=(attr_eq("id", u),))
        others = Condition(preds=(attr_ne("id", u),))
        for plan, params in (
            (cf, {"user": user, "others": others, "over": over}),
            (search, {"user": user, "places": DESTINATION}),
        ):
            got, want = ((run(plan, env, params, ex)[0], set(kept(env["G"]))) for ex, env in envs.items())
            assert got == want


@pytest.mark.parametrize("script, make_inputs", [(script, make) for script, make, _ in CORPUS])
def test_corpus_scripts_match_the_program_as_written(script, make_inputs):
    program = dsl.parse(read_script(script))
    inputs = make_inputs()
    want, _ = run(program, inputs, {}, run_as_written)
    assert [got for got, _ in twice(dsl.execute, dsl.compile(program), inputs, {})] == [want, want]


def test_builtin_plans_match_the_program_as_written():
    """User after user on one graph, so later runs read kept results."""
    g = travel()
    env = fresh({"G": g})
    over = dsl.parse_condition("[sim > 0.1]")
    for u in sorted(g.nodes):
        user = Condition(preds=(attr_eq("id", u),))
        others = Condition(preds=(attr_ne("id", u),))
        for text, params in (
            (CF_SCRIPT, {"user": user, "others": others, "over": over}),
            (SEARCH_SCRIPT, {"user": user, "places": DESTINATION}),
        ):
            program = dsl.parse(text)
            assert run(dsl.compile(program), env, params)[0] == run(program, {"G": g}, params, run_as_written)[0]
    assert kept(env["G"]) and not kept(g)


@contextlib.contextmanager
def counted_operators():
    """Count the calls of each algebra function a plan runs, by name."""
    calls = Counter()

    def counting(fn, real):
        def call(*args):
            calls[fn] += 1
            return real(*args)

        return call

    with contextlib.ExitStack() as stack:
        for fn in {fn for fn, _, _ in dsl.OPS.values()}:
            stack.enter_context(mock.patch.object(algebra, fn, counting(fn, getattr(algebra, fn))))
        yield calls


def bound_key(node, params):
    """``node.key`` with each ``$NAME`` at or below it replaced by the
    ``_param_key`` of its value in ``params``."""
    if not node.parametric:
        return node.key
    values = (params[p.name] if isinstance(p, dsl.Param) else p for p in node.params)
    children = tuple(bound_key(c, params) for c in node.inputs)
    return dsl._key(node.kind, children, tuple(map(dsl._param_key, values)))


@given(plans())
@example(("B = lsel(G, [type='visit'])\nA = lsel(G, $c)\n", {"G": cf_fixture()}, {"c": VISIT}))
@example(("A = lsel(G, $c)\nB = lsel(G, [type='visit'])\n", {"G": cf_fixture()}, {"c": VISIT}))
@example(("A = lsel(G, $c)\nB = lsel(G, $d)\n", {"G": cf_fixture()}, {"c": VISIT, "d": VISIT}))
def test_each_scheduled_operator_runs_at_most_once_per_execute(case):
    text, inputs, params = case
    plan = dsl.compile(dsl.parse(text))
    ops = [n for nodes in plan.schedule for n in nodes if n.kind != "input"]
    env = fresh(inputs)
    # On fresh graphs every operator runs, but a node whose bound key an
    # earlier node on one graph kept in the same run (lsel(G, $c) after
    # lsel(G, [type='visit']) or the other way round, c being
    # [type='visit']) reads that result. On the same graphs with the same
    # params, a plan with params runs only the nodes that read more than
    # one input graph.
    first, kept_keys = [], set()
    for n in ops:
        if bound_key(n, params) not in kept_keys:
            first.append(n)
        if plan.params and n.graph:
            kept_keys.add(bound_key(n, params))
    for runs in (first, [n for n in ops if not (plan.params and n.graph)]):
        want = Counter(dsl.OPS[n.kind][0] for n in runs)
        with counted_operators() as calls:
            failed = run(plan, env, params)[1] is None
        if failed:
            assert not calls - want
            return
        assert calls == want


@pytest.mark.parametrize(
    "text",
    ["A = lsel(G, $c)\nB = lsel(G, [type='visit'])\n", "A = lsel(G, $c)\nB = lsel(G, $d)\n"],
    ids=["then-parameter-free", "then-another-parameter"],
)
def test_a_run_reads_the_bound_results_it_made(text):
    """A parameterised result waits in its run until the run ends, and a
    later node of the same value in that run reads it there."""
    plan = dsl.compile(dsl.parse(text))
    with counted_operators() as calls:
        results = dsl.execute(plan, {"G": cf_fixture()}, {"c": VISIT, "d": VISIT})
    assert calls == Counter(link_select=1)
    assert results["A"] is results["B"]


def test_the_semi_join_a_pushdown_replaces_never_runs():
    plan = dsl.compile(dsl.parse("A = lsel(semijoin(G, X, (src,src)), [type='visit'])"))
    assert [n.kind for n in plan.schedule[0]] == ["input", "lsel", "input", "semijoin"]
    g = cf_fixture()
    x = algebra.node_select(g, Condition(preds=(attr_eq("id", "101"),)))
    with counted_operators() as calls:
        result = dsl.execute(plan, {"G": g, "X": x})["A"]
    assert calls == Counter(link_select=1, semi_join=1)
    assert exact(result) == exact(link_select_scan(semi_join_scan(g, x, plan.bindings[0][1].params[0]), VISIT))


def test_a_plan_with_params_runs_only_what_it_could_not_keep():
    g = travel()
    ops = [n for nodes in dsl.compile(dsl.parse(CF_SCRIPT)).schedule for n in nodes if n.kind != "input"]
    for i, u in enumerate(sorted(n for n in g.nodes if n.startswith("u"))[:3]):
        with counted_operators() as calls:
            cf_pipeline(g, u, 0.1)
        assert calls == Counter(dsl.OPS[n.kind][0] for n in ops if not (i and n.source))


# ---------------------------------------------------------------------------
# Compiled plans, pinned


@pytest.mark.parametrize("name", ["SEARCH_SCRIPT", "CF_SCRIPT", *sorted(os.listdir(SCRIPT_DIR))])
def test_compiled_schedules_are_pinned(name):
    """Each binding's schedule as (kind, repr of params): any change of
    the compiler that changes one of these plans shows here."""
    text = {"SEARCH_SCRIPT": SEARCH_SCRIPT, "CF_SCRIPT": CF_SCRIPT}.get(name) or read_script(name)
    plan = dsl.compile(dsl.parse(text))
    got = {b: [(n.kind, repr(n.params)) for n in nodes] for (b, _), nodes in zip(plan.bindings, plan.schedule)}
    assert got == GOLDEN_SCHEDULES[name]


GOLDEN_SCHEDULES = {'SEARCH_SCRIPT': {'U': [('input', "('G',)"), ('nsel', "(Param(name='user'),)")],
                   'G1': [('lsel',
                           "(Condition(preds=(StructPredicate(attr='type', op='=', operands=('friend',)),), "
                           'keywords=()),)'),
                          ('semijoin', "(DirectionalCondition(d1='src', d2='src'),)")],
                   'P': [('nsel', "(Param(name='places'),)")],
                   'G2': [('lsel',
                           "(Condition(preds=(StructPredicate(attr='type', op='=', operands=('visit',)),), "
                           'keywords=()),)'),
                          ('semijoin', "(DirectionalCondition(d1='tgt', d2='src'),)")],
                   'G3': [('semijoin', "(DirectionalCondition(d1='tgt', d2='src'),)")],
                   'G4': [('semijoin', "(DirectionalCondition(d1='src', d2='tgt'),)")],
                   'G5': [('union', '()')],
                   'G6': [('lsel',
                           "(Condition(preds=(StructPredicate(attr='type', op='=', operands=('act',)),), "
                           'keywords=()),)'),
                          ('semijoin', "(DirectionalCondition(d1='src', d2='tgt'),)")],
                   'G7': [('union', '()')]},
 'CF_SCRIPT': {'ME': [('input', "('G',)"), ('nsel', "(Param(name='user'),)")],
               'G1': [('lsel',
                       "(Condition(preds=(StructPredicate(attr='type', op='=', operands=('visit',)),), "
                       'keywords=()),)'),
                      ('semijoin', "(DirectionalCondition(d1='src', d2='src'),)")],
               'G1v': [('naggr',
                        "(Condition(preds=(StructPredicate(attr='type', op='=', operands=('visit',)),), "
                        "keywords=()), 'src', 'vst', SafExpr(attr='tgt', step=None))")],
               'OTH': [('nsel', "(Param(name='others'),)")],
               'G2': [('semijoin', "(DirectionalCondition(d1='src', d2='src'),)")],
               'G2v': [('naggr',
                        "(Condition(preds=(StructPredicate(attr='type', op='=', operands=('visit',)),), "
                        "keywords=()), 'src', 'vst', SafExpr(attr='tgt', step=None))")],
               'G3': [('compose',
                       "(DirectionalCondition(d1='tgt', d2='tgt'), CompositionFn(outputs=(('sim', "
                       "JaccardOf(left_side='left-src', left_attr='vst', right_side='right-src', "
                       "right_attr='vst')),)))")],
               'G4': [('laggr',
                       "(Param(name='over'), (('type', ConstString(value='match')), ('sim', CopyAny(attr='sim', "
                       'step=None))))')],
               'G4m': [('lsel',
                        "(Condition(preds=(StructPredicate(attr='type', op='=', operands=('match',)),), "
                        'keywords=()),)')],
               'G5': [('nsel',
                       "(Condition(preds=(StructPredicate(attr='type', op='=', operands=('destination',)),), "
                       'keywords=()),)'),
                      ('semijoin', "(DirectionalCondition(d1='tgt', d2='src'),)")],
               'G6': [('semijoin', "(DirectionalCondition(d1='tgt', d2='src'),)"),
                      ('semijoin', "(DirectionalCondition(d1='src', d2='tgt'),)"),
                      ('compose',
                       "(DirectionalCondition(d1='tgt', d2='src'), CompositionFn(outputs=(('sim_sc', "
                       "CopyFrom(side='left-link', attr='sim')),)))")],
               'G7': [('laggr',
                       "(Condition(preds=(), keywords=()), (('score', Builtin(fn='AVG', attr='sim_sc', "
                       'step=None)),))')]},
 'compose_pairs.sgs': {'V': [('input', "('G',)"),
                             ('lsel',
                              "(Condition(preds=(StructPredicate(attr='type', op='=', operands=('visit',)),), "
                              'keywords=()),)')],
                       'C': [('compose',
                              "(DirectionalCondition(d1='tgt', d2='tgt'), CompositionFn(outputs=(('type', "
                              "ConstString(value='peer')), ('place', CopyFrom(side='left-tgt', attr='id')), "
                              "('pair', Builtin(fn='COUNT', attr=None, step=None)))))")]},
 'ex4_search.sgs': {'U': [('input', "('G',)"),
                          ('nsel',
                           "(Condition(preds=(StructPredicate(attr='id', op='=', operands=('u00',)),), "
                           'keywords=()),)')],
                    'G1': [('lsel',
                            "(Condition(preds=(StructPredicate(attr='type', op='=', operands=('friend',)),), "
                            'keywords=()),)'),
                           ('semijoin', "(DirectionalCondition(d1='src', d2='src'),)")],
                    'P': [('nsel',
                           "(Condition(preds=(StructPredicate(attr='type', op='=', operands=('destination',)),), "
                           'keywords=()),)')],
                    'G2': [('lsel',
                            "(Condition(preds=(StructPredicate(attr='type', op='=', operands=('visit',)),), "
                            'keywords=()),)'),
                           ('semijoin', "(DirectionalCondition(d1='tgt', d2='src'),)")],
                    'G3': [('semijoin', "(DirectionalCondition(d1='tgt', d2='src'),)")],
                    'G4': [('semijoin', "(DirectionalCondition(d1='src', d2='tgt'),)")],
                    'G5': [('union', '()')],
                    'G6': [('lsel',
                            "(Condition(preds=(StructPredicate(attr='type', op='=', operands=('act',)),), "
                            'keywords=()),)'),
                           ('semijoin', "(DirectionalCondition(d1='src', d2='tgt'),)")],
                    'G7': [('union', '()')]},
 'ex5_cf.sgs': {'ME': [('input', "('G',)"),
                       ('nsel',
                        "(Condition(preds=(StructPredicate(attr='id', op='=', operands=('101',)),), "
                        'keywords=()),)')],
                'G1': [('lsel',
                        "(Condition(preds=(StructPredicate(attr='type', op='=', operands=('visit',)),), "
                        'keywords=()),)'),
                       ('semijoin', "(DirectionalCondition(d1='src', d2='src'),)")],
                'G1v': [('naggr',
                         "(Condition(preds=(StructPredicate(attr='type', op='=', operands=('visit',)),), "
                         "keywords=()), 'src', 'vst', SafExpr(attr='tgt', step=None))")],
                'OTH': [('nsel',
                         "(Condition(preds=(StructPredicate(attr='id', op='!=', operands=('101',)),), "
                         'keywords=()),)')],
                'G2': [('semijoin', "(DirectionalCondition(d1='src', d2='src'),)")],
                'G2v': [('naggr',
                         "(Condition(preds=(StructPredicate(attr='type', op='=', operands=('visit',)),), "
                         "keywords=()), 'src', 'vst', SafExpr(attr='tgt', step=None))")],
                'G3': [('compose',
                        "(DirectionalCondition(d1='tgt', d2='tgt'), CompositionFn(outputs=(('sim', "
                        "JaccardOf(left_side='left-src', left_attr='vst', right_side='right-src', "
                        "right_attr='vst')),)))")],
                'G4': [('laggr',
                        "(Condition(preds=(StructPredicate(attr='sim', op='>', operands=(0.5,)),), keywords=()), "
                        "(('type', ConstString(value='match')), ('sim', CopyAny(attr='sim', step=None))))")],
                'G4m': [('lsel',
                         "(Condition(preds=(StructPredicate(attr='type', op='=', operands=('match',)),), "
                         'keywords=()),)')],
                'G5': [('nsel',
                        "(Condition(preds=(StructPredicate(attr='type', op='=', operands=('destination',)),), "
                        'keywords=()),)'),
                       ('semijoin', "(DirectionalCondition(d1='tgt', d2='src'),)")],
                'G6': [('semijoin', "(DirectionalCondition(d1='tgt', d2='src'),)"),
                       ('semijoin', "(DirectionalCondition(d1='src', d2='tgt'),)"),
                       ('compose',
                        "(DirectionalCondition(d1='tgt', d2='src'), CompositionFn(outputs=(('sim_sc', "
                        "CopyFrom(side='left-link', attr='sim')),)))")],
                'G7': [('laggr',
                        "(Condition(preds=(), keywords=()), (('score', Builtin(fn='AVG', attr='sim_sc', "
                        'step=None)),))')]},
 'laggr_multi.sgs': {'A': [('input', "('G',)"),
                           ('laggr',
                            "(Condition(preds=(StructPredicate(attr='type', op='=', operands=('visit',)),), "
                            "keywords=()), (('vcnt', Builtin(fn='COUNT', attr=None, step=None)), ('dests', "
                            "SafExpr(attr='tgt', step=None))))")]},
 'lminus.sgs': {'LD': [('input', "('G1',)"), ('input', "('G2',)"), ('lminus', '()')],
                'SELF': [('lminus', '()')],
                'ALL': [('lminus', '()')]},
 'naggr_stats.sgs': {'FC': [('input', "('G',)"),
                            ('naggr',
                             "(Condition(preds=(StructPredicate(attr='type', op='=', operands=('friend',)),), "
                             "keywords=()), 'src', 'fnd_cnt', Builtin(fn='COUNT', attr=None, step=None))")],
                     'VS': [('naggr',
                             "(Condition(preds=(StructPredicate(attr='type', op='=', operands=('visit',)),), "
                             "keywords=()), 'src', 'vst', SafExpr(attr='tgt', step=None))")],
                     'RB': [('naggr',
                             "(Condition(preds=(StructPredicate(attr='type', op='=', operands=('tag',)),), "
                             "keywords=()), 'tgt', 'best', Builtin(fn='MAX', attr='rating', step=None))")]},
 'paggr_chain.sgs': {'P': [('input', "('G',)"),
                           ('paggr',
                            "(GraphPattern(steps=((Condition(preds=(StructPredicate(attr='type', op='=', "
                            "operands=('friend',)),), keywords=()), 'src'), "
                            "(Condition(preds=(StructPredicate(attr='type', op='=', operands=('visit',)),), "
                            "keywords=()), 'src'))), (('cnt', Builtin(fn='COUNT', attr=None, step=None)),))")]},
 'select_links.sgs': {'L1': [('input', "('G',)"),
                             ('lsel',
                              "(Condition(preds=(StructPredicate(attr='type', op='=', operands=('visit',)),), "
                              'keywords=()),)')],
                      'L2': [('lsel',
                              "(Condition(preds=(StructPredicate(attr='src', op='=', operands=('101',)),), "
                              'keywords=()),)')],
                      'L3': [('lsel',
                              "(Condition(preds=(StructPredicate(attr='type', op='=', operands=('visit',)),), "
                              "keywords=('act', 'visit')),)")]},
 'select_nodes.sgs': {'S1': [('input', "('G',)"),
                             ('nsel',
                              "(Condition(preds=(StructPredicate(attr='type', op='=', operands=('user',)),), "
                              'keywords=()),)')],
                      'S2': [('nsel', "(Condition(preds=(), keywords=('denver', 'skiing')),)")],
                      'S3': [('nsel',
                              "(Condition(preds=(StructPredicate(attr='type', op='contains-all', "
                              "operands=('item', 'destination')), StructPredicate(attr='name', op='=', "
                              "operands=('P',))), keywords=()),)")]},
 'setops.sgs': {'U': [('input', "('G1',)"), ('input', "('G2',)"), ('union', '()')],
                'I': [('intersect', '()')],
                'D': [('nminus', '()')],
                'E': [('nminus', '()')]},
 'shared_reuse.sgs': {'B': [('input', "('G',)"),
                            ('lsel',
                             "(Condition(preds=(StructPredicate(attr='type', op='=', operands=('visit',)),), "
                             'keywords=()),)')],
                      'U': [('union', '()')],
                      'W': [],
                      'X': [('intersect', '()')]}}
