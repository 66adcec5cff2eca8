"""Differential tests: the adjacency view, the hash-join ``compose``,
the step-wise pattern matcher, compiled conditions, compiled aggregate
and composition functions, the k-bounded ``topk_query``, the streamed
``build_index`` and its nested-bucket fold, the shared greedy-leader
loop and its inverted index of leaders, item similarity and ordered
group-by, the per-graph social sets, the search and CF query plans and the one-pattern script
tokenizer against the naive references in ``reference.py``; the
operators closed by construction against ``build_graph``; and the
agreement of content recommendation with its explanation.

Graphs come from the seeded fixtures and from Hypothesis (small graphs
with multi-valued types, float and string values, and stored attributes
named like the ``id``/``src``/``tgt`` pseudo-attributes; small seeded
plain and travel graphs for patterns; lists of links and of chains
with single, multi-valued, string and absent values for aggregates;
small social sets with tied scores, repeated keywords and tags without
a list).
"""

from __future__ import annotations

import dataclasses
import os
from collections import Counter
from functools import cache
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import apply_agg as ref_apply_agg
from reference import apply_composition as ref_apply_composition
from reference import (
    DESTINATION,
    FRIEND,
    LinkCtx,
    acted_items_scan,
    aggregate_explanations_two_paths,
    all_taggers_scan,
    build_index_fold,
    cf_pipeline_wired,
    cluster_users_scan,
    compose_nested,
    content_recommend_scan,
    exact,
    exact_tag_scores_dict,
    explain_item_two_paths,
    interpreted_agg,
    interpreted_composition,
    match_chains_recursive,
    network_search_wired,
    pattern_aggregate_recursive,
    provenance_scan,
    rating_scan,
    satisfies,
    satisfies_predicate,
    set_op_merging,
    social_groups_scan,
    structural_groups_scan,
    tagger_sets_scan,
    tokenize_line_loop,
    topical_groups_scan,
    topk_resort,
    topk_strict,
    visited_items_scan,
)
from script_corpus import SCRIPT_DIR, read_script
from socialgraph import algebra, dsl, index
from socialgraph.aggfn import (
    COUNT,
    ONE,
    SIDES,
    ZERO,
    Arith,
    AttrRef,
    Builtin,
    CompositionFn,
    ConstString,
    CopyAny,
    CopyFrom,
    JaccardOf,
    ProdOver,
    SafExpr,
    SumOver,
    avg_of,
    compile_agg,
    compile_composition,
    jaccard,
    min_of,
    sum_of,
)
from socialgraph.algebra import (
    GraphPattern,
    SetOpKind,
    compose,
    link_aggregate,
    link_minus,
    link_select,
    node_aggregate,
    node_select,
    pattern_aggregate,
    semi_join,
    set_op,
)
from socialgraph.discovery import (
    VISIT,
    DiscoveryConfig,
    acted_items,
    cf_pipeline,
    cf_recommend,
    content_recommend,
    discover,
    network_search,
    rating,
    visited_items,
)
from socialgraph.errors import DslSyntaxError
from socialgraph.fixtures import cf_fixture, random_plain_graph, random_tagging_graph, random_travel_graph, rng_from
from socialgraph.graph import (
    COMPARISON_OPS,
    CONTAINS_ALL,
    Condition,
    DirectionalCondition,
    Link,
    Node,
    SocialContentGraph,
    StructPredicate,
    attr_eq,
    build_graph,
    compile_condition,
    link,
    node,
)
from socialgraph.index import (
    STRATEGIES,
    ClusteredIndex,
    ClusteringStrategy,
    ClusterModel,
    SocialSets,
    build_index,
    cluster_users,
    exhaustive_topk,
    social_sets,
    topk_query,
)
from socialgraph.io import save_index_snapshot
from socialgraph.presentation import (
    ItemGroup,
    SocialGrouping,
    StructuralGrouping,
    TopicalGrouping,
    aggregate_explanations,
    explain_item,
    group_items,
)

STRINGS = ("visit", "tag", "user", "item", "n0", "n1", "l0", "jazz")
FLOATS = (-1.5, 0.0, 0.5, 1.0, 2.0)
NODE_TYPES = (("user",), ("item",), ("user", "item"), ("item", "destination"), ("topic", 1.0))
LINK_TYPES = (("visit",), ("act", "visit"), ("connect", "friend"), ("act", "tag"), ("belong",), ("tag", 0.5))

values = st.frozensets(st.sampled_from(STRINGS + FLOATS), min_size=1, max_size=3)


def _attrs(draw, types, names) -> dict:
    attrs = {"type": frozenset(draw(st.sampled_from(types)))}
    attrs.update(draw(st.dictionaries(st.sampled_from(names), values, max_size=3)))
    return attrs


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 5))
    ids = [f"n{i}" for i in range(n)]
    nodes = [Node(nid, _attrs(draw, NODE_TYPES, ("w", "name", "score"))) for nid in ids]
    links = []
    for j in range(draw(st.integers(0, 8))):
        src, tgt = draw(st.sampled_from(ids)), draw(st.sampled_from(ids))
        links.append(Link(f"l{j}", src, tgt, _attrs(draw, LINK_TYPES, ("rating", "tags", "w", "score"))))
    return build_graph(nodes, links)


preds = st.builds(
    lambda attr, op, operands: StructPredicate(attr, op, operands if op == CONTAINS_ALL else operands[:1]),
    st.sampled_from(("type", "w", "rating", "name", "id", "src", "tgt", "missing")),
    st.sampled_from(COMPARISON_OPS + (CONTAINS_ALL,)),
    st.lists(st.sampled_from(STRINGS + FLOATS), min_size=1, max_size=2).map(tuple),
)
conditions = st.builds(
    Condition,
    st.lists(preds, max_size=3).map(tuple),
    st.lists(st.sampled_from(("jazz", "visit", "n0", "nothing")), max_size=2).map(tuple),
)

DELTAS = [DirectionalCondition(a, b) for a in ("src", "tgt") for b in ("src", "tgt")]
COMPOSITION_FNS = [
    CompositionFn((("sim", JaccardOf("left-src", "type", "right-tgt", "type")),)),
    CompositionFn((("kind", ConstString("c")), ("via", CopyFrom("left-link", "id")))),
    CompositionFn((("type", SafExpr("type")),)),
]


def outcome(fn, *args):
    """The graph a call returns with its node and link order, any other
    result as it is, or the error it raises."""
    try:
        result = fn(*args)
    except Exception as e:  # both sides must fail alike
        return ("error", type(e).__name__, str(e))
    if isinstance(result, SocialContentGraph):
        return result, list(result.nodes), list(result.links)
    return result


def fixture_graphs():
    return [random_travel_graph(rng_from(seed), 8, 12) for seed in (1, 2, 3)] + [
        random_tagging_graph(rng_from(seed), 12, 30, n_tags=6, n_communities=3) for seed in (4, 5)
    ]


# ---------------------------------------------------------------------------
# Compiled conditions


def _condition_ops(g, c):
    return [
        (node_select, g, c),
        (link_select, g, c),
        (node_aggregate, g, c, "src", "agg", SafExpr("tgt")),
        (link_aggregate, g, c, (("n", COUNT),)),
    ]


def check_condition(g, c):
    holds = compile_condition(c)
    for e in [*g.nodes.values(), *g.links.values()]:
        assert holds(e) == satisfies(e, c), (e, c)
    fast = [outcome(*op) for op in _condition_ops(g, c)]
    with mock.patch.object(algebra, "compile_condition", satisfies_predicate):
        slow = [outcome(*op) for op in _condition_ops(g, c)]
    assert fast == slow


@given(graphs(), conditions)
def test_compiled_conditions_match_satisfies(g, c):
    check_condition(g, c)


@pytest.mark.parametrize("g", fixture_graphs())
@given(c=conditions)
def test_compiled_conditions_match_satisfies_on_fixtures(g, c):
    check_condition(g, c)


def test_equality_on_floats_and_multivalued_types():
    g = build_graph(
        [Node("a", {"type": frozenset({"user", "item"}), "w": frozenset({1.0, "1.0"})})],
        [Link("l", "a", "a", {"type": frozenset({"act", "visit"}), "w": frozenset({0.5})})],
    )
    cases = (("type", "item"), ("type", "visit"), ("w", 1.0), ("w", "1.0"), ("w", 0.5), ("w", "0.5"))
    # a float against string values, and an attribute no element has
    cases += (("type", 1.0), ("type", 0.5), ("missing", "item"), ("missing", 1.0))
    for attr, operand in cases:
        check_condition(g, Condition(preds=(StructPredicate(attr, "=", (operand,)),)))


MIXED = build_graph(
    [
        Node("a", {"type": frozenset({"user", "item"}), "w": frozenset({1.0, "1.0", 2.0}),
                   "name": frozenset({"Jazz club"})}),
        Node("b", {"type": frozenset({"item"}), "w": frozenset({0.5})}),
        Node("c", {"type": frozenset({"topic", 1.0})}),
    ],
    [
        Link("l", "a", "b", {"type": frozenset({"act", "visit"}), "rating": frozenset({0.5, 2.0})}),
        Link("m", "b", "c", {"type": frozenset({"tag"}), "tags": frozenset({"jazz", "blues"})}),
        Link("k", "c", "a", {"type": frozenset({"visit"})}),
    ],
)


@pytest.mark.parametrize("op", COMPARISON_OPS + (CONTAINS_ALL,))
def test_every_predicate_form_on_mixed_values(op):
    """Every operator on multi-valued sets of strings and floats, on the
    identity fields (``src`` and ``tgt`` on a node too), and on a missing
    attribute; then once next to a keyword."""
    operands = ("item", "visit", "user", "x", "a", "b", "zz", "1.0", 1.0, 0.5, 2.0, 1.5)
    for attr in ("type", "w", "rating", "id", "src", "tgt", "missing"):
        for operand in operands:
            check_condition(MIXED, Condition(preds=(StructPredicate(attr, op, (operand,)),)))
    check_condition(MIXED, Condition(preds=(StructPredicate("type", op, ("item",)),), keywords=("jazz",)))


@pytest.mark.parametrize("attr", ["type", "id", "src", "tgt", "w"])
def test_contains_all_needs_every_operand(attr):
    """Two operands, one held and one not; and both held (an identity
    field holds one value only)."""
    for operands in (("item", "nothing"), ("a", "x"), ("a", "b"), ("user", "item"), ("zz", "a"), ("b", "c"), (1.0, "1.0")):
        check_condition(MIXED, Condition(preds=(StructPredicate(attr, CONTAINS_ALL, operands),)))


@pytest.mark.parametrize("keywords", [("jazz",), ("jazz", "nothing"), ("nothing", "blues"), ("club",), ("nothing",)])
def test_keyword_conditions_need_one_matching_keyword(keywords):
    check_condition(MIXED, Condition(keywords=keywords))


@pytest.mark.parametrize("g", [MIXED, *fixture_graphs()])
def test_the_empty_condition_holds_for_every_element(g):
    """``[]`` under every scan, ``laggr`` included, where the drawn
    conditions reach it only by chance."""
    check_condition(g, Condition())


# ---------------------------------------------------------------------------
# Hash-join composition


@given(graphs(), graphs(), st.sampled_from(DELTAS), st.sampled_from(COMPOSITION_FNS))
def test_compose_matches_nested_loop(g1, g2, delta, f):
    """Also pins the merged endpoints' attribute key order; the operands
    share ids n0..n4 with differing attributes and mixed-type scores."""
    for a, b in ((g1, g2), (g2, g1), (g1, g1)):
        fast, slow = outcome(compose, a, b, delta, f), outcome(compose_nested, a, b, delta, f)
        assert fast == slow
        if fast[0] != "error":
            assert attribute_order(fast[0]) == attribute_order(slow[0])


def attribute_order(g) -> list:
    return [(nid, list(n.attrs)) for nid, n in g.nodes.items()]


def test_compose_merges_again_when_the_side_changes():
    """n0 is a far endpoint from g1, g1, g1, g2, g1 in turn. Two merges of
    g1's n0 collapse its float scores to 0.5; the string score from g2
    stops the collapse, so the last g1 merge brings 0.3 back. k comes
    from g2 alone and keeps only its highest score."""
    g1 = build_graph(
        [node("n0", type="user", score=(0.3, 0.5)), node("h", type="user"), node("k", type="user")],
        [link(i, src, "n0", type="e") for i, src in (("a", "h"), ("b", "h"), ("c", "k"), ("z", "h"))],
    )
    g2 = build_graph(
        [node("n0", type="user", score="x"), node("h", type="user"), node("k", type="user", score=(0.1, 0.2))],
        [link("d", "h", "k", type="e"), link("e", "k", "n0", type="e")],
    )
    args = (g1, g2, DirectionalCondition("src", "src"), COMPOSITION_FNS[1])
    got = compose(*args)
    assert got.nodes["n0"].attrs["score"] == frozenset({0.3, 0.5, "x"})
    assert got.nodes["k"].attrs["score"] == frozenset({0.2})
    assert outcome(compose, *args) == outcome(compose_nested, *args)


@pytest.mark.parametrize("g", fixture_graphs())
@pytest.mark.parametrize("delta", DELTAS, ids=lambda d: f"{d.d1}-{d.d2}")
def test_self_compose_matches_nested_loop_on_fixtures(g, delta):
    for f in COMPOSITION_FNS:
        assert outcome(compose, g, g, delta, f) == outcome(compose_nested, g, g, delta, f)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cf_plan_matches_nested_loop_compose(seed):
    g = random_travel_graph(rng_from(seed), 15, 25)
    cfg = DiscoveryConfig(sim_threshold=0.1)
    users = sorted(nid for nid, n in g.nodes.items() if "user" in n.attrs["type"])
    fast = [cf_recommend(g, u, cfg) for u in users]
    with mock.patch.object(algebra, "compose", compose_nested):
        slow = [cf_recommend(g, u, cfg) for u in users]
    assert fast == slow
    for (scored, _), (ref, _) in zip(fast, slow):
        assert list(scored.links) == list(ref.links)


# ---------------------------------------------------------------------------
# Set operators against the always-merging reference


@given(graphs(), graphs(), conditions)
def test_set_ops_match_the_always_merging_reference(g1, g2, c):
    """The operand pairs share elements by id with differing attributes
    (g1, g2), by object (g1, g1), and both ways (g1 with a selection of
    it, whose keyword scores are new objects); scores are mixed-type and
    may hold several floats, which a merge collapses to their maximum.
    ``exact`` also compares each element's attribute key order."""
    check_set_ops(((g1, g2), (g2, g1), (g1, g1), (g1, link_select(g1, c))))


def check_set_ops(operand_pairs):
    for a, b in operand_pairs:
        for kind in (SetOpKind.UNION, SetOpKind.INTERSECT):
            fast, slow = outcome(set_op, kind, a, b), outcome(set_op_merging, kind, a, b)
            assert fast == slow
            if fast[0] != "error":
                assert exact(fast[0]) == exact(slow[0])


def test_set_ops_merge_a_shared_element_whose_score_holds_two_floats():
    """One object on both sides is still merged when its ``score`` holds
    two floats, which merging collapses to their maximum; with one score
    it is kept as it is."""
    two, one = frozenset({0.5, 1.0}), frozenset({0.5})
    g = build_graph(
        [Node("a", {"type": frozenset({"user"}), "score": two}), Node("b", {"type": frozenset({"item"}), "score": one})],
        [Link("l", "a", "b", {"type": frozenset({"visit"}), "score": frozenset({2.0, -1.5})})],
    )
    check_set_ops(((g, g),))
    union = set_op(SetOpKind.UNION, g, g)
    assert union.nodes["a"].attrs["score"] == frozenset({1.0}) and union.links["l"].attrs["score"] == frozenset({2.0})
    assert union.nodes["b"] is g.nodes["b"]


# One id pool for nodes and links, so that a node id of one graph may be
# a link id of another.
ID_POOL = ("a", "b", "c", "d", "e")


@st.composite
def pooled_graphs(draw):
    ids = draw(st.permutations(ID_POOL))
    n = draw(st.integers(1, 3))
    node_ids, link_ids = ids[:n], ids[n : n + draw(st.integers(0, len(ID_POOL) - n))]
    nodes = [Node(nid, _attrs(draw, NODE_TYPES, ("w", "score"))) for nid in node_ids]
    ends = st.sampled_from(node_ids)
    links = [Link(lid, draw(ends), draw(ends), _attrs(draw, LINK_TYPES, ("w", "score"))) for lid in link_ids]
    return build_graph(nodes, links)


@given(pooled_graphs(), pooled_graphs())
def test_set_ops_fail_like_the_always_merging_reference(g1, g2):
    """Operands whose ids clash: a union where a node id of one is a link
    id of the other, and an intersection keeping a link but not both its
    endpoints, must raise what ``build_graph`` raises; the rest must give
    the same graph."""
    check_set_ops(((g1, g2), (g2, g1)))


# ---------------------------------------------------------------------------
# Compiled aggregate and composition functions against the interpreters

# Mostly single floats, so that numeric aggregates also succeed; then a
# multi-valued set, a string (not numeric) and absence.
AGG_VALUES = [frozenset({v}) for v in (0.5, 2.0, -1.5, 0.0, 0.5, 2.0)] + [frozenset({0.5, 2.0}), frozenset({"a"})]
AGG_ATTRS = ("w", "w", "w", "type", "id", "src", "tgt", "missing")
STEPS = (None, None, None, 0, 1, 2, 7, -1)


@st.composite
def agg_links(draw):
    attrs = {"type": frozenset(draw(st.sampled_from(LINK_TYPES)))}
    for name in ("w", "w"):  # w twice: present more often
        if draw(st.booleans()):
            attrs[name] = draw(st.sampled_from(AGG_VALUES))
    return Link(f"l{draw(st.integers(0, 3))}", draw(st.sampled_from(("n0", "n1"))), "n2", attrs)


@st.composite
def agg_rows(draw):
    """A list of link rows, or of chain rows of one to three links."""
    if draw(st.booleans()):
        return draw(st.lists(agg_links(), max_size=4))
    return draw(st.lists(st.lists(agg_links(), min_size=1, max_size=3).map(tuple), max_size=4))


refs = st.tuples(st.sampled_from(AGG_ATTRS), st.sampled_from(STEPS))
naf_exprs = st.recursive(
    st.one_of(
        st.sampled_from((ZERO, ONE, COUNT)),
        refs.map(lambda r: AttrRef(*r)),
        st.builds(lambda fn, r: Builtin(fn, *r), st.sampled_from(("SUM", "AVG", "MIN", "MAX")), refs),
    ),
    lambda inner: st.one_of(
        st.builds(Arith, st.sampled_from(("+", "-", "*", "/")), inner, inner),
        st.builds(SumOver, inner),
        st.builds(ProdOver, inner),
    ),
    max_leaves=5,
)
agg_specs = st.one_of(
    naf_exprs,
    naf_exprs,
    refs.map(lambda r: SafExpr(*r)),
    refs.map(lambda r: CopyAny(*r)),
    st.just(ConstString("c")),
    st.sampled_from((SumOver(ConstString("x")), Arith("+", ONE, CopyAny("w")), "not a spec")),
)
W = {"type": frozenset({"w"}), "w": frozenset({0.5})}


def value_outcome(fn, *args):
    """A value set as sorted reprs (so 0 and 0.0 differ), None, an attribute map,
    or the error raised as (type, message)."""
    try:
        value = fn(*args)
    except Exception as e:  # both sides must fail alike
        return ("error", type(e).__name__, str(e))
    if isinstance(value, dict):
        return [(name, value_outcome(lambda: v)) for name, v in value.items()]
    return sorted(map(repr, value)) if isinstance(value, frozenset) else repr(value)


@settings(max_examples=400)
@given(agg_specs, agg_rows())
@example(avg_of("w"), [])
@example(min_of("w"), [])
@example(CopyAny("w"), [Link("a", "n0", "n1", W), Link("b", "n0", "n1", {"type": W["type"]})])
@example(SafExpr("w"), [(Link("a", "n0", "n1", {"type": W["type"]}), Link("b", "n1", "n2", W))])
@example(CopyAny("tgt"), [Link("a", "n0", "n2", W), Link("b", "n1", "n2", W)])
@example(CopyAny("src"), [Link("b", "n1", "n2", W), Link("a", "n0", "n2", W)])
@example(SumOver(ProdOver(Arith("+", ONE, SumOver(SumOver(ONE))))), [Link("a", "n0", "n2", W)])
@example(avg_of("w"), [Link("a", "n0", "n2", W), Link("b", "n0", "n2", {**W, "w": frozenset({0.5, 2.0})})])
@example(avg_of("w"), [Link("a", "n0", "n2", W), Link("b", "n0", "n2", {**W, "w": frozenset({"a"})})])
@example(avg_of("w"), [Link("a", "n0", "n2", W), Link("b", "n0", "n2", {"type": W["type"]})])
@example(sum_of("w"), [Link("b", "n0", "n2", {**W, "w": frozenset({0.5, 2.0})})])
@example(sum_of("w"), [Link("b", "n0", "n2", {**W, "w": frozenset({"a"})})])
@example(sum_of("w"), [Link("b", "n0", "n2", {"type": W["type"]})])
def test_compiled_aggregates_match_the_interpreter(spec, rows):
    """Every spec form on link and chain rows: missing, multi-valued and
    non-numeric attributes, identity fields, empty
    collections, disagreeing ``any``, positions past a chain's end, and
    specs too deep or ill-formed."""
    check_agg(spec, rows)


def check_agg(spec, rows):
    chains = bool(rows) and isinstance(rows[0], tuple)
    assert value_outcome(compile_agg(spec, chains), rows) == value_outcome(ref_apply_agg, spec, rows)


@st.composite
def identity_reads(draw):
    """A set or ``any`` read of ``id``, ``src`` or ``tgt`` at step None or 0,
    on a non-empty collection of links or chains."""
    field = draw(st.sampled_from(("id", "src", "tgt")))
    spec = draw(st.sampled_from((SafExpr, CopyAny)))(field, draw(st.sampled_from((None, 0))))

    def one_link():
        return Link(f"l{draw(st.integers(0, 2))}", draw(st.sampled_from(("n0", "n1"))), "n2", W)

    size = st.integers(1, 3)
    if draw(st.booleans()):
        return spec, [one_link() for _ in range(draw(size))]
    return spec, [tuple(one_link() for _ in range(draw(size))) for _ in range(draw(size))]


@settings(max_examples=200)
@given(identity_reads())
def test_compiled_identity_reads_match_the_interpreter(case):
    """Identity fields read for their value, where the other test's draws
    mostly end in a position error or an empty collection."""
    check_agg(*case)


comp_attrs = st.sampled_from(("type", "w", "id", "src", "tgt", "name", "score", "missing"))
comp_outputs = st.one_of(
    st.builds(CopyFrom, st.sampled_from(SIDES), comp_attrs),
    st.builds(JaccardOf, st.sampled_from(SIDES), comp_attrs, st.sampled_from(SIDES), comp_attrs),
    agg_specs,
)
comp_fns = st.lists(
    st.tuples(st.sampled_from(("a", "b", "type", "score")), comp_outputs), min_size=1, max_size=3,
    unique_by=lambda out: out[0],
).map(CompositionFn)


def check_composition(g1, g2, f):
    """Over every pair of links, with one compiled closure for all the
    pairs, as ``compose`` uses it."""
    attributes = compile_composition(f)
    for l1 in g1.links.values():
        for l2 in g2.links.values():
            left = LinkCtx(l1, g1.nodes[l1.src], g1.nodes[l1.tgt])
            right = LinkCtx(l2, g2.nodes[l2.src], g2.nodes[l2.tgt])
            expected = value_outcome(ref_apply_composition, f, left, right)
            assert value_outcome(attributes, l1, l2, g1.nodes, g2.nodes) == expected


@settings(max_examples=200)
@given(graphs(), graphs(), comp_fns)
def test_compiled_composition_matches_the_interpreter(g1, g2, f):
    """Every output form on all six sides."""
    check_composition(g1, g2, f)


@pytest.mark.parametrize(
    "f",
    [
        CompositionFn((("a", CopyFrom("left-link", "rating")),)),
        CompositionFn((("a", CopyFrom("right-link", "rating")),)),
        CompositionFn((("a", CopyFrom("left-link", "tags")), ("b", CopyFrom("right-tgt", "w")))),
        CompositionFn((("a", SafExpr("missing")),)),
        CompositionFn((("a", SafExpr("missing")), ("b", SafExpr("tags")))),
    ],
)
def test_link_reads_and_single_outputs_match_the_interpreter(f):
    """A link side's attribute that some links lack, and one output or
    several that may produce nothing, on every pair of ``MIXED``'s links."""
    check_composition(MIXED, MIXED, f)


NODE_SIDES = ("left-src", "left-tgt", "right-src", "right-tgt")
node_side_fns = st.lists(
    st.tuples(
        st.sampled_from(("a", "b")),
        st.one_of(
            st.builds(CopyFrom, st.sampled_from(NODE_SIDES), st.sampled_from(("type", "id"))),
            st.builds(JaccardOf, st.sampled_from(NODE_SIDES), st.sampled_from(("type", "id")),
                      st.sampled_from(NODE_SIDES), st.sampled_from(("type", "id"))),
        ),
    ),
    min_size=1, max_size=2, unique_by=lambda out: out[0],
).map(CompositionFn)


@given(graphs(), graphs(), node_side_fns)
def test_node_side_outputs_kept_per_node_tuple_match_the_interpreter(g1, g2, f):
    """Outputs reading only nodes, which the compiled closure keeps per
    tuple of node ids, on attributes every node has."""
    check_composition(g1, g2, f)


@given(graphs(), graphs(), st.sampled_from(DELTAS), comp_fns)
def test_compose_with_drawn_functions_matches_nested_loop(g1, g2, delta, f):
    for a, b in ((g1, g2), (g1, g1)):
        assert outcome(compose, a, b, delta, f) == outcome(compose_nested, a, b, delta, f)


agg_spec_lists = st.lists(st.tuples(st.sampled_from(("a", "b", "type")), agg_specs), min_size=1, max_size=3)


@given(graphs(), conditions, agg_spec_lists, st.sampled_from(("src", "tgt")))
def test_aggregation_operators_match_the_interpreter(g, c, specs, d):
    pattern = GraphPattern(((c, d), (Condition(), "src")))
    ops = [
        (link_aggregate, g, c, specs),
        (node_aggregate, g, c, d, "agg", specs[0][1]),
        (pattern_aggregate, g, pattern, specs),
        (pattern_aggregate, g, GraphPattern(((c, d),)), specs),
    ]
    fast = [outcome(*op) for op in ops]
    with mock.patch.object(algebra, "compile_agg", interpreted_agg):
        slow = [outcome(*op) for op in ops]
    assert fast == slow


@given(graphs(), graphs(), st.sampled_from(DELTAS), comp_fns)
def test_compose_with_the_interpreter_plugged_in(g1, g2, delta, f):
    fast = outcome(compose, g1, g2, delta, f)
    with mock.patch.object(algebra, "compile_composition", interpreted_composition):
        assert outcome(compose, g1, g2, delta, f) == fast


# ---------------------------------------------------------------------------
# Operators closed by construction


@given(graphs(), graphs(), conditions, st.sampled_from(DELTAS))
def test_unchecked_operators_give_what_build_graph_accepts(g1, g2, c, delta):
    """The operators that build their result without ``build_graph`` give
    the graph it would build from their elements, in the same order."""
    outputs = [
        node_select(g1, c),
        link_select(g1, c),
        semi_join(g1, g2, delta),
        semi_join(g1, build_graph(g2.nodes.values(), []), delta),
        semi_join(build_graph(g1.nodes.values(), []), g2, delta),
        link_minus(g1, g2),
        set_op(SetOpKind.NODE_MINUS, g1, g2),
        node_aggregate(g1, c, delta.d1, "agg", SafExpr("tgt")),
        node_aggregate(g1, c, delta.d2, "w", COUNT),
    ]
    for out in outputs:
        checked = build_graph(out.nodes.values(), out.links.values())
        assert checked == out
        assert (list(checked.nodes), list(checked.links)) == (list(out.nodes), list(out.links))


# ---------------------------------------------------------------------------
# Step-wise pattern matching

# Patterns some of whose steps can match the same link, so that only the
# no-repeated-link rule keeps a chain from reusing one.
REUSE_PATTERNS = [
    GraphPattern(((FRIEND, "src"), (FRIEND, "tgt"))),
    GraphPattern(((FRIEND, "tgt"), (FRIEND, "src"), (FRIEND, "tgt"))),
    GraphPattern(((Condition(), "src"), (Condition(), "tgt"), (Condition(), "src"))),
]
PATTERN_SPECS = [
    (("cnt", COUNT),),
    (("cnt", COUNT), ("types", SafExpr("type")), ("via", SafExpr("tgt", 0))),
    (("w", sum_of("w")), ("r", avg_of("rating", 1))),  # fails where a chain lacks them, alike on both sides
]

pattern_steps = st.tuples(
    st.one_of(
        st.just(Condition()),
        st.sampled_from(("friend", "visit", "act", "tag", "edge")).map(lambda t: Condition(preds=(attr_eq("type", t),))),
    ),
    st.sampled_from(("src", "tgt")),
)
patterns = st.one_of(
    st.sampled_from(REUSE_PATTERNS),
    st.lists(pattern_steps, min_size=1, max_size=3).map(lambda steps: GraphPattern(tuple(steps))),
)


@st.composite
def pattern_graphs(draw):
    """Small seeded plain and travel graphs: few nodes, so chains loop back."""
    rng = rng_from(draw(st.integers(0, 10_000)))
    if draw(st.booleans()):
        return random_plain_graph(rng, draw(st.integers(1, 6)), draw(st.integers(0, 16)))
    return random_travel_graph(rng, draw(st.integers(2, 5)), draw(st.integers(1, 6)))


def check_pattern(g, gp, specs):
    assert algebra._match_chains(g, gp) == match_chains_recursive(g, gp)
    fast = outcome(algebra.pattern_aggregate, g, gp, specs)
    slow = outcome(pattern_aggregate_recursive, g, gp, specs)
    assert fast == slow
    if fast[0] != "error":
        assert [list(l.attrs) for l in fast[0].links.values()] == [list(l.attrs) for l in slow[0].links.values()]


@given(pattern_graphs(), patterns, st.sampled_from(PATTERN_SPECS))
def test_pattern_matcher_matches_recursive_reference(g, gp, specs):
    check_pattern(g, gp, specs)


@pytest.mark.parametrize("gp", [*REUSE_PATTERNS, GraphPattern(((FRIEND, "src"), (VISIT, "src")))])
def test_pattern_matcher_matches_recursive_reference_on_fixtures(gp):
    for g in fixture_graphs():
        for specs in PATTERN_SPECS:
            check_pattern(g, gp, specs)


# ---------------------------------------------------------------------------
# Reads through the adjacency view


def check_adjacency_reads(g):
    ids = list(g.nodes) + ["absent"]
    for u in ids:
        assert visited_items(g, u) == visited_items_scan(g, u)
        assert acted_items(g, u) == acted_items_scan(g, u)
        for i in ids:
            assert rating(g, u, i) == rating_scan(g, u, i)
    sets = social_sets(g)
    for item in ids:
        assert sets.all_taggers(item) == all_taggers_scan(sets, item)


@given(graphs())
def test_adjacency_reads_match_full_scans(g):
    check_adjacency_reads(g)


@pytest.mark.parametrize("g", fixture_graphs())
def test_adjacency_reads_match_full_scans_on_fixtures(g):
    check_adjacency_reads(g)


@given(graphs())
def test_out_links_view_groups_links_in_order(g):
    by_src = {}
    for l in g.links.values():
        by_src.setdefault(l.src, []).append(l)
    assert g.out_links == by_src
    assert g.out_links is g.out_links  # built once
    assert g == build_graph(g.nodes.values(), g.links.values())  # the view is not part of equality


@given(graphs())
def test_in_links_view_groups_links_in_order(g):
    by_tgt = {}
    for l in g.links.values():
        by_tgt.setdefault(l.tgt, []).append(l)
    assert g.in_links == by_tgt
    assert g.in_links is g.in_links  # built once
    assert g == build_graph(g.nodes.values(), g.links.values())  # the view is not part of equality


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_discover_provenance_matches_full_scan(seed):
    g = random_travel_graph(rng_from(seed), 15, 25)
    cfg = DiscoveryConfig(sim_threshold=0.1, k=8)
    query = Condition(preds=DESTINATION.preds, keywords=("food", "beach"))
    for u in sorted(nid for nid, n in g.nodes.items() if "user" in n.attrs["type"]):
        msg = discover(g, u, query, cfg)
        match = cf_pipeline(g, u, cfg.sim_threshold)["match"]
        assert outcome(lambda: msg.graph) == outcome(provenance_scan, g, u, msg.ranking, match)


# ---------------------------------------------------------------------------
# k-bounded top-k and the streamed index build


def counted(query, idx, user, keywords, k):
    """The answer of a top-k query, or the error it raises, with the
    number of ``exact_score`` calls (random accesses) it made."""
    calls = 0
    real = index.exact_score

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    with mock.patch.object(index, "exact_score", counting):
        try:
            got = query(idx, user, keywords, k)
        except Exception as e:
            got = ("error", type(e).__name__, str(e))
    return got, calls


class _Reads(tuple):
    """An inverted list that records how far it was read: one past the
    furthest position indexed, 0 if none was."""

    depth = 0

    def __getitem__(self, i):
        self.depth = max(self.depth, i + 1)
        return tuple.__getitem__(self, i)


def list_depths(query, idx, user, keywords, k):
    """How far a top-k query read into each of the index's lists; its
    answer, or the error it raised, is dropped."""
    lists = {key: _Reads(entries) for key, entries in idx.lists.items()}
    counted(query, dataclasses.replace(idx, lists=lists), user, keywords, k)
    return [entries.depth for entries in lists.values()]


def check_topk(idx, user, keywords, k):
    """The answer, or error, of the strict reference, of the re-sorting
    one and of the exhaustive ranking, whether or not every keyword was
    indexed, with no more random accesses than the strict reference and
    no list read further."""
    fast, strict = counted(topk_query, idx, user, keywords, k), counted(topk_strict, idx, user, keywords, k)
    assert strict == counted(topk_resort, idx, user, keywords, k), (user, keywords, k)
    assert fast[0] == strict[0], (user, keywords, k)
    assert fast[1] <= strict[1], (user, keywords, k)
    depths = zip(list_depths(topk_query, idx, user, keywords, k), list_depths(topk_strict, idx, user, keywords, k))
    assert all(a <= b for a, b in depths), (user, keywords, k)
    if isinstance(fast[0], list):
        assert fast[0] == exhaustive_topk(idx.sets, user, keywords, k)


def check_build(sets, model, tags, tmp_path):
    assert list(index._exact_tag_scores(sets)) == list(exact_tag_scores_dict(sets).items())
    fast = build_index(sets, model, tags)
    with mock.patch.object(index, "_exact_tag_scores", lambda s: exact_tag_scores_dict(s).items()):
        slow = build_index(sets, model, tags)
    assert list(fast.lists.items()) == list(slow.lists.items())
    save_index_snapshot(fast, tmp_path / "fast.snap")
    save_index_snapshot(slow, tmp_path / "slow.snap")
    assert (tmp_path / "fast.snap").read_bytes() == (tmp_path / "slow.snap").read_bytes()


USERS = [f"u{i}" for i in range(5)]
TAGS = ("jazz", "rock", "pop")


@st.composite
def social_sets_st(draw):
    """Small social sets: a few friends and taggers per user, so exact
    and stored scores are 0-3 and ties at the k-th score and with the
    frontier are common."""
    users = st.frozensets(st.sampled_from(USERS), max_size=3)
    network = draw(st.dictionaries(st.sampled_from(USERS), users, max_size=5))
    keys = st.tuples(st.sampled_from([f"i{i}" for i in range(5)]), st.sampled_from(TAGS))
    taggers = draw(st.dictionaries(keys, users.filter(bool), max_size=10))
    items: dict = {}
    for (item, _), tagger_set in taggers.items():
        for u in tagger_set:
            items.setdefault(u, set()).add(item)
    return SocialSets(
        network=network, items={u: frozenset(v) for u, v in items.items()}, taggers=taggers
    )


strategies_st = st.builds(
    ClusteringStrategy, st.sampled_from(STRATEGIES), st.sampled_from((0.0, 0.3, 0.5, 1.0))
)


@given(
    social_sets_st(),
    strategies_st,
    # "pop" may be left out of the vocabulary and "ghost" never has a list
    st.sampled_from((TAGS, TAGS[:2])),
    st.lists(st.lists(st.sampled_from(TAGS + ("ghost",)), max_size=3), min_size=1, max_size=4),
    st.integers(1, 7),
)
def test_topk_matches_resort_and_exhaustive(sets, strategy, vocabulary, queries, k):
    idx = build_index(sets, cluster_users(sets, strategy), vocabulary)
    for user in USERS + ["ghost"]:
        for keywords in queries:
            check_topk(idx, user, keywords, k)


@given(sets=social_sets_st(), strategy=strategies_st)
def test_build_index_matches_materialised_scores(tmp_path_factory, sets, strategy):
    check_build(sets, cluster_users(sets, strategy), TAGS[:2], tmp_path_factory.mktemp("snap"))


def _tie_sets():
    """u0 and u1 share a cluster under network theta=0. u0's friend f1
    tagged a, b and c with jazz; u1 also has f2, who tagged b, so b's
    stored bound is 2 while u0 scores 1 on every item."""
    return SocialSets(
        network={"u0": frozenset({"f1"}), "u1": frozenset({"f1", "f2"})},
        items={"f1": frozenset("abc"), "f2": frozenset("b")},
        taggers={
            ("a", "jazz"): frozenset({"f1"}),
            ("b", "jazz"): frozenset({"f1", "f2"}),
            ("c", "jazz"): frozenset({"f1"}),
        },
    )


# want is what topk_query gives under counted: the answer and its random
# accesses. calls is the strict reference's random accesses for the same
# answer; the frontier saves the last one (c) in each row where it ties
# at a head that follows the k-th item.
@pytest.mark.parametrize(
    "keywords, k, want, calls",
    [
        # the k-th score 1 ties the frontier 1 after round one, but the
        # head a precedes b, so the scan goes on and a wins b's tie on its
        # id; the frontier then ties at c, which follows a, so it stops
        (["jazz"], 1, ([("a", 1)], 2), 3),
        # ties at the k-th score: a, b and c all score 1, and c follows b
        (["jazz"], 2, ([("a", 1), ("b", 1)], 2), 3),
        # k beyond the number of candidates
        (["jazz"], 10, ([("a", 1), ("b", 1), ("c", 1)], 3), 3),
        # a repeated keyword doubles every score and scores each item once
        (["jazz", "jazz"], 2, ([("a", 2), ("b", 2)], 2), 3),
        ([], 3, ([], 0), 0),
        # a tag with no list adds nothing
        (["ghost"], 3, ([], 0), 0),
        (["jazz", "ghost"], 1, ([("a", 1)], 2), 3),
    ],
)
def test_topk_edge_cases(keywords, k, want, calls):
    sets = _tie_sets()
    idx = build_index(sets, cluster_users(sets, ClusteringStrategy("network", 0.0)), ["jazz"])
    assert idx.lists[("jazz", idx.model.assignment["u0"])][0] == ("b", 2)
    assert counted(topk_query, idx, "u0", keywords, k) == want
    assert counted(topk_strict, idx, "u0", keywords, k) == (want[0], calls)
    check_topk(idx, "u0", keywords, k)


def test_topk_ignores_the_ids_of_zero_score_heads():
    """A snapshot may list an item at score 0, a safe bound for an item no
    member scores. After round one the frontier 0 + 1 ties the k-th score
    of c, and the zero-score head z follows c, but bb, unread behind the
    jazz head, ties c and precedes it: only the positive head bounds
    which ids can still tie."""
    sets = SocialSets(
        network={"u0": frozenset({"f"}), "u1": frozenset({"g"})},
        items={"f": frozenset({"c", "bb"}), "g": frozenset({"a"})},
        taggers={
            ("c", "rock"): frozenset({"f"}),
            ("bb", "jazz"): frozenset({"f"}),
            ("a", "jazz"): frozenset({"g"}),
        },
    )
    idx = ClusteredIndex(
        lists={("rock", "c0"): (("c", 1), ("z", 0)), ("jazz", "c0"): (("a", 1), ("bb", 1))},
        model=ClusterModel(assignment={"u0": "c0", "u1": "c0"}, leaders={"c0": "u0"}),
        sets=sets,
        vocabulary=frozenset({"rock", "jazz"}),
    )
    assert counted(topk_query, idx, "u0", ["rock", "jazz"], 1) == ([("bb", 1)], 3)
    check_topk(idx, "u0", ["rock", "jazz"], 1)


def test_topk_stops_once_the_greatest_head_id_follows_the_kth():
    """After round one m holds k=1 with score 2, the frontier 1 + 1 ties
    it, and the heads are a (jazz) and z (rock). An unread item ties the
    frontier only from both heads on, so at or after z, which follows m:
    the scan stops after two random accesses (m and b), where the strict
    test makes four. Reading only a's id would score a as well."""
    sets = SocialSets(
        network={"u0": frozenset({"f1", "f3"}), "u1": frozenset({"f2"})},
        items={"f1": frozenset("mb"), "f2": frozenset("az"), "f3": frozenset("m")},
        taggers={
            ("m", "jazz"): frozenset({"f1", "f3"}),
            ("a", "jazz"): frozenset({"f2"}),
            ("b", "rock"): frozenset({"f1"}),
            ("z", "rock"): frozenset({"f2"}),
        },
    )
    idx = build_index(sets, cluster_users(sets, ClusteringStrategy("network", 0.0)), ["jazz", "rock"])
    cluster = idx.model.assignment["u0"]
    assert idx.lists["jazz", cluster] == (("m", 2), ("a", 1))
    assert idx.lists["rock", cluster] == (("b", 1), ("z", 1))
    assert counted(topk_query, idx, "u0", ["jazz", "rock"], 1) == ([("m", 2)], 2)
    assert counted(topk_strict, idx, "u0", ["jazz", "rock"], 1) == ([("m", 2)], 4)
    check_topk(idx, "u0", ["jazz", "rock"], 1)


def test_topk_random_accesses_stay_below_the_strict_stop():
    """Counted work, not time: over a fixed query list on a coarse network
    index, the random accesses of ``topk_query`` stay at or under a pinned
    share of the strict reference's (0.69 when pinned), with every answer
    exhaustive. A return to the strict stop and to scoring every newly
    seen item reads 1.0."""
    sets = social_sets(random_tagging_graph(rng_from(1), 300, 1500))
    idx = build_index(sets, cluster_users(sets, ClusteringStrategy("network", 0.05)), sorted(sets.tags))
    own: dict = {}
    for (_, tag), users in sets.taggers.items():
        for u in users:
            own.setdefault(u, set()).add(tag)
    queries = []
    for i, u in enumerate(sets.users[::5]):
        tags = sorted(own.get(u, ()))
        queries.append((u, tags[i % 3 : i % 3 + 1 + i % 3], (1, 5, 10, 20)[i % 4]))
    fast = strict = 0
    for query in queries:
        got, calls = counted(topk_query, idx, *query)
        assert got == exhaustive_topk(sets, *query), query
        fast += calls
        strict += counted(topk_strict, idx, *query)[1]
    assert fast <= 0.8 * strict, (fast, strict)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_topk_matches_resort_on_fixtures(seed):
    sets = social_sets(random_tagging_graph(rng_from(seed), 40, 80, n_tags=6, n_communities=3))
    tags = sorted({tag for _, tag in sets.taggers})
    for theta in (0.05, 0.3):
        idx = build_index(sets, cluster_users(sets, ClusteringStrategy("network", theta)), tags)
        for user in sets.users[::3]:
            for keywords in ([tags[0]], tags[1:3], [tags[2], tags[2]], tags[:4]):
                for k in (1, 5, 20):
                    check_topk(idx, user, keywords, k)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("kind", STRATEGIES)
def test_build_index_matches_materialised_scores_on_fixtures(seed, kind, tmp_path):
    sets = social_sets(random_tagging_graph(rng_from(seed), 30, 60, n_tags=6, n_communities=3))
    tags = sorted({tag for _, tag in sets.taggers})
    check_build(sets, cluster_users(sets, ClusteringStrategy(kind, 0.3)), tags, tmp_path)


def check_fold(sets, model, tags, tmp_path):
    """The nested-bucket fold gives the per-pair fold's lists, in the
    same key order and entry order, and the same snapshot bytes."""
    new, old = build_index(sets, model, tags), build_index_fold(sets, model, tags)
    assert list(new.lists.items()) == list(old.lists.items())
    assert new.vocabulary == old.vocabulary
    save_index_snapshot(new, tmp_path / "new.snap")
    save_index_snapshot(old, tmp_path / "old.snap")
    assert (tmp_path / "new.snap").read_bytes() == (tmp_path / "old.snap").read_bytes()


@st.composite
def cluster_models(draw):
    """Hand-built models: some users (and one with no sets) assigned to
    clusters named out of founding order, each led by its first member,
    so users go missing, members of one cluster score an item
    differently, and clusters are met in other than sorted order."""
    assigned = draw(st.lists(st.sampled_from(USERS + ["ghost"]), unique=True))
    assignment = {u: draw(st.sampled_from(("c2", "c0", "c1"))) for u in assigned}
    leaders: dict = {}
    for u, cluster in assignment.items():
        leaders.setdefault(cluster, u)
    return ClusterModel(assignment=assignment, leaders=leaders)


def _fold_sets():
    """u0 (friends f1, f2) and u1 (friend f1) share cluster c1 of
    ``FOLD_MODEL``, so i0's bound is u0's 2 though u1 comes after u0; u2
    (friend f1) founds c0 after c1; i1 is met before i0 and ties it at 1
    in c0; u3 is in no cluster."""
    friends = {"u0": {"f1", "f2"}, "u1": {"f1"}, "u2": {"f1"}, "u3": {"f1"}}
    return SocialSets(
        network={u: frozenset(f) for u, f in friends.items()},
        items={"f1": frozenset({"i0", "i1"}), "f2": frozenset({"i0"})},
        taggers={("i1", "jazz"): frozenset({"f1"}), ("i0", "jazz"): frozenset({"f1", "f2"})},
    )


FOLD_MODEL = ClusterModel({"u0": "c1", "u1": "c1", "u2": "c0"}, {"c1": "u0", "c0": "u2"})


@given(
    social_sets_st(),
    cluster_models(),
    # tags left out of the vocabulary, and no vocabulary at all
    st.sampled_from((TAGS, TAGS[:2], TAGS[2:], ())),
)
@example(_fold_sets(), FOLD_MODEL, ("jazz",))
def test_build_index_matches_the_pair_fold(tmp_path_factory, sets, model, vocabulary):
    check_fold(sets, model, vocabulary, tmp_path_factory.mktemp("fold"))


def test_fold_keeps_the_best_member_and_ranks_ties_by_item():
    idx = build_index(_fold_sets(), FOLD_MODEL, ["jazz"])
    assert list(idx.lists.items()) == [
        (("jazz", "c0"), (("i0", 1), ("i1", 1))),
        (("jazz", "c1"), (("i0", 2), ("i1", 1))),
    ]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize(
    "strategy",
    [("network", 0.05), ("network", 0.3), ("behavior", 0.1), ("hybrid", 0.1)],
    ids=lambda s: f"{s[0]}-{s[1]}",
)
def test_build_index_matches_the_pair_fold_on_fixtures(seed, strategy, tmp_path):
    sets = social_sets(random_tagging_graph(rng_from(seed), 40, 80, n_tags=6, n_communities=3))
    model = cluster_users(sets, ClusteringStrategy(*strategy))
    check_fold(sets, model, sorted(sets.tags), tmp_path)


# ---------------------------------------------------------------------------
# One greedy-leader loop


def check_clustering(sets, strategy):
    fast, slow = cluster_users(sets, strategy), cluster_users_scan(sets, strategy)
    assert list(fast.assignment.items()) == list(slow.assignment.items())
    assert list(fast.leaders.items()) == list(slow.leaders.items())  # founding order


def check_clustering_snapshots(sets, strategy, tmp_path):
    """The same models, so the same snapshot bytes."""
    check_clustering(sets, strategy)
    tags = sorted({tag for _, tag in sets.taggers})
    save_index_snapshot(build_index(sets, cluster_users(sets, strategy), tags), tmp_path / "fast")
    save_index_snapshot(build_index(sets, cluster_users_scan(sets, strategy), tags), tmp_path / "slow")
    assert (tmp_path / "fast").read_bytes() == (tmp_path / "slow").read_bytes()


# 0.1, 0.25, 1/3 and 0.5 are met exactly by small overlap ratios c / (a + b - c)
THETAS = (0.0, 0.1, 0.25, 1 / 3, 0.3, 0.5, 1.0)


@given(social_sets_st(), st.sampled_from(STRATEGIES), st.sampled_from(THETAS))
def test_cluster_users_matches_leader_loop(sets, kind, theta):
    """The sets have users with empty networks and users with no items."""
    check_clustering(sets, ClusteringStrategy(kind, theta))


@pytest.mark.parametrize("kind", STRATEGIES)
def test_cluster_users_matches_leader_loop_on_fixtures(kind, tmp_path):
    """Same models, so the same snapshot bytes, under every strategy."""
    for seed in (1, 2):
        sets = social_sets(random_tagging_graph(rng_from(seed), 30, 60, n_tags=6, n_communities=3))
        for theta in THETAS:
            check_clustering_snapshots(sets, ClusteringStrategy(kind, theta), tmp_path)


@pytest.mark.parametrize("kind", STRATEGIES)
def test_cluster_users_matches_leader_loop_at_size(kind, tmp_path):
    """A 200 x 1000 tagging graph, where the inverted index skips most
    leaders: the same models and snapshot bytes as the scan."""
    sets = social_sets(random_tagging_graph(rng_from(4), 200, 1000))
    for theta in (0.1, 0.3):
        check_clustering_snapshots(sets, ClusteringStrategy(kind, theta), tmp_path)


# scored item lists over graphs() ids, with repeats and items nobody tagged
item_lists = st.lists(
    st.tuples(st.sampled_from([f"n{i}" for i in range(5)]), st.sampled_from(FLOATS)), min_size=1, max_size=8
)


def check_grouping(g, items):
    items = [(item, score) for item, score in items if item in g.nodes]
    if not items:
        return
    first = {}
    for item, score in items:
        first.setdefault(item, score)
    if len(first) < len(items):
        for criterion in (SocialGrouping(0.5), TopicalGrouping(), StructuralGrouping("w")):
            with pytest.raises(ValueError, match="duplicate item id"):
                group_items(items, g, criterion)
        items = list(first.items())
    for theta in THETAS:
        assert group_items(items, g, SocialGrouping(theta)) == social_groups_scan(items, g, theta)
    assert group_items(items, g, TopicalGrouping()) == topical_groups_scan(items, g)
    for attr in ("w", "name", "type"):
        if any(attr in g.nodes[item].attrs for item, _ in items):
            assert group_items(items, g, StructuralGrouping(attr)) == structural_groups_scan(items, g, attr)


@given(graphs(), item_lists)
def test_grouping_matches_leader_loop_and_scans(g, items):
    check_grouping(g, items)


def test_untagged_items_found_separate_social_groups():
    """Jaccard of two empty tagger sets is 0, so above theta 0 an item
    nobody tagged does not join another such item's group."""
    g = build_graph([node("i", type="item"), node("j", type="item")], [])
    items = [("i", 1.0), ("j", 3.0)]
    assert [grp.members for grp in group_items(items, g, SocialGrouping(0.3))] == [("i",), ("j",)]
    assert [grp.members for grp in group_items(items, g, SocialGrouping(0.0))] == [("i", "j")]
    for theta in THETAS:
        assert group_items(items, g, SocialGrouping(theta)) == social_groups_scan(items, g, theta)


# ---------------------------------------------------------------------------
# One item similarity, shared by content recommendation and explanation


RATINGS = (-1.5, -0.0, 0.0, 0.5, 1.0, 2.0)


@st.composite
def tagging_graphs(draw):
    """Users u0-u2, each with 'tag' links to two to five of items i0-i3
    and user u0, that carry a string tag, only a float, or no tags at
    all, and maybe a rating (zero of either sign and negative ones too).
    User u0 has taggers but is never recommended, and one item may have
    exactly another's tag links, so that the two tie and the id decides,
    whichever of the two was tagged first."""
    users, items = ("u0", "u1", "u2"), ("i0", "i1", "i2", "i3")
    nodes = [node(u, type="user") for u in users] + [node(i, type="item") for i in items]
    links = []
    for u in users:
        for tgt in draw(st.lists(st.sampled_from(items + users[:1]), min_size=2, max_size=5, unique=True)):
            attrs = {"type": frozenset({"tag"})}
            tags = draw(st.sampled_from(("jazz", "jazz", "jazz", None, 0.5)))
            if tags is not None:
                attrs["tags"] = frozenset({tags})
            if draw(st.booleans()):
                attrs["rating"] = frozenset({draw(st.sampled_from(RATINGS))})
            links.append(Link(f"l{len(links)}", u, tgt, attrs))
    twin = draw(st.one_of(st.none(), st.permutations(items).map(lambda p: p[:2])))
    if twin is not None:
        a, b = twin
        links = [l for l in links if l.tgt != b]
        links += [Link(f"t{l.id}", l.src, b, l.attrs) for l in links if l.tgt == a]
    return build_graph(nodes, links)


def string_taggers(g):
    sets = social_sets(g)
    return {item: all_taggers_scan(sets, item) for item in g.nodes}


def hexed(ranking) -> list:
    """(item, score) pairs with each score's exact bits."""
    return [(item, score.hex()) for item, score in ranking]


# u0 rates i0 0.0, so i3 (sharing u1 with it) weighs 0.0 for u0 and is
# not recommended; for u2, i3 and i2 tie at 1/3 with i3 tagged first,
# and the user u0, whom u1 tagged, has taggers but is no item.
TIES_AND_ZERO_RATINGS = build_graph(
    [node(u, type="user") for u in ("u0", "u1", "u2")] + [node(i, type="item") for i in ("i0", "i1", "i2", "i3")],
    [
        link("a", "u0", "i0", type="tag", tags="jazz", rating=0.0),
        link("b", "u1", "i0", type="tag", tags="jazz"),
        link("c", "u1", "i3", type="tag", tags="jazz"),
        link("d", "u1", "i2", type="tag", tags="jazz"),
        link("e", "u2", "i0", type="tag", tags="jazz", rating=1.0),
        link("f", "u2", "i1", type="tag", tags="jazz", rating=-0.0),
        link("g", "u1", "u0", type="tag", tags="jazz"),
    ],
)


@given(st.one_of(tagging_graphs(), graphs()), st.integers(1, 3))
@example(TIES_AND_ZERO_RATINGS, 1)
@example(TIES_AND_ZERO_RATINGS, 5)
def test_item_similarity_and_content_recommend_match_scans(g, k):
    """Item similarities themselves are checked bit for bit by
    ``test_item_similarities_count_through_an_exact_inverse``."""
    taggers = string_taggers(g)
    for u in g.nodes:
        assert hexed(content_recommend(g, u, k)) == hexed(content_recommend_scan(g, u, k, taggers))


@given(st.one_of(tagging_graphs(), graphs()))
def test_item_similarities_count_through_an_exact_inverse(g):
    """The posting map behind ``item_similarities`` lists each (tagger,
    item) pair of ``_item_taggers`` exactly once, and the similarities
    it gives are the Jaccard of the two tagger sets, bit for bit, for
    exactly the items that share a tagger."""
    sets, taggers = social_sets(g), string_taggers(g)
    posted = Counter((u, i) for u, items in sets._tagged_items.items() for i in items)
    assert posted == Counter((u, i) for i, users in sets._item_taggers.items() for u in users)
    for a in g.nodes:
        shared = sorted(b for b in g.nodes if taggers[a] & taggers[b])
        want = [(b, jaccard(taggers[a], taggers[b])) for b in shared]
        assert hexed(sorted(sets.item_similarities(a).items())) == hexed(want)


def test_content_recommend_computes_no_pairwise_similarity():
    """Scores, content explanations and their sentences all come from
    the posting counts, with no Jaccard per (item, acted item) pair."""
    g = random_tagging_graph(rng_from(3), 12, 20)
    users = [u for u in g.nodes if "user" in g.nodes[u].attrs["type"]]
    pairwise = AssertionError("pairwise")
    with mock.patch("socialgraph.aggfn.jaccard", side_effect=pairwise), \
            mock.patch("socialgraph.presentation.jaccard", side_effect=pairwise):
        served = {u: content_recommend(g, u, 10) for u in users}
        assert any(served.values())
        u, ((item, score), *_) = next((u, r) for u, r in served.items() if r)
        evidence = explain_item(g, u, item, "content").evidence
        assert aggregate_explanations(g, u, item, "content")[1] > 0
    assert max(w for _, w in evidence) == score


@pytest.mark.parametrize("g", fixture_graphs())
def test_content_recommend_unchanged_on_fixtures(g):
    """Every fixture 'tag' link carries a string tag, so counting only
    those changes no fixture output."""
    tag_links = [l for l in g.links.values() if "tag" in l.attrs["type"]]
    assert all(any(isinstance(t, str) for t in l.attrs["tags"]) for l in tag_links)
    everyone = tagger_sets_scan(g)
    for u in g.nodes:
        assert content_recommend(g, u, 50) == content_recommend_scan(g, u, 50, everyone)


def check_content_agrees(g):
    for u in g.nodes:
        for item, score in content_recommend(g, u, 10):
            evidence = explain_item(g, u, item, "content").evidence
            assert evidence and max(w for _, w in evidence) == score, (u, item)
            assert aggregate_explanations(g, u, item, "content")[1] > 0, (u, item)


@given(st.one_of(tagging_graphs(), graphs()))
def test_content_recommendation_agrees_with_its_explanation(g):
    check_content_agrees(g)


def test_tag_links_without_a_tag_give_no_content_evidence():
    g = build_graph(
        [node("u1", type="user"), node("u2", type="user"), node("i1", type="item"), node("i2", type="item")],
        [link("t1", "u1", "i1", type="tag"), link("t2", "u2", "i1", type="tag"), link("t3", "u2", "i2", type="tag")],
    )
    assert content_recommend(g, "u1", 10) == []
    assert explain_item(g, "u1", "i2", "content").evidence == ()
    check_content_agrees(g)


# ---------------------------------------------------------------------------
# Explanations: an item is explained as a group of one

EXPLAIN_CRITERIA = (SocialGrouping(0.3), TopicalGrouping(), StructuralGrouping("type"))
EXPLAIN_STRATEGIES = ("content", "collaborative", "neither")


@cache
def small_travel_graph(seed):
    return random_travel_graph(rng_from(seed), 6, 10)


@st.composite
def explanation_cases(draw):
    """A user and an item (either absent or of the other type at times),
    the groups ``group_items`` makes of drawn nodes, a group of the user,
    the item and an absent id, and a strategy that may be unknown."""
    g = small_travel_graph(draw(st.integers(1, 4)))
    ids = [*g.nodes, "absent"]
    user, item = draw(st.sampled_from(ids)), draw(st.sampled_from(ids))
    scored = draw(st.lists(st.tuples(st.sampled_from(list(g.nodes)), st.sampled_from(FLOATS)),
                           min_size=1, max_size=6, unique_by=lambda e: e[0]))
    groups = group_items(scored, g, draw(st.sampled_from(EXPLAIN_CRITERIA)))
    odd = tuple(draw(st.lists(st.sampled_from((user, item, "absent")), min_size=1, max_size=3)))
    groups.append(ItemGroup(id="odd", members=odd, label="odd", quality=0.0, size=len(odd)))
    return g, user, item, groups, draw(st.sampled_from(EXPLAIN_STRATEGIES))


def check_explanations(g, user, item, groups, strategy):
    """Explanations and (summary, ratio) pairs equal the two-path
    reference's, errors included."""
    assert outcome(explain_item, g, user, item, strategy) == outcome(
        explain_item_two_paths, g, user, item, strategy
    ), (user, item, strategy)
    for target in (item, *groups):
        assert outcome(aggregate_explanations, g, user, target, strategy) == outcome(
            aggregate_explanations_two_paths, g, user, target, strategy
        ), (user, target, strategy)


def check_every_explanation(g):
    """``check_explanations`` for every user, item and strategy of g."""
    for user in g.nodes:
        for item in g.nodes:
            for strategy in ("content", "collaborative"):
                check_explanations(g, user, item, [], strategy)


@given(explanation_cases())
def test_explanations_match_the_two_path_reference(case):
    check_explanations(*case)


@given(graphs())
def test_explanations_match_the_two_path_reference_on_generic_graphs(g):
    """Every user and item of a graph whose ratings may be 0.0 or
    negative, which the travel graphs never hold."""
    check_every_explanation(g)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_explanations_match_the_two_path_reference_on_fixtures(seed):
    g = random_travel_graph(rng_from(seed), 8, 12)
    users = [nid for nid, n in g.nodes.items() if "user" in n.attrs["type"]]
    items = [(nid, 1.0) for nid, n in g.nodes.items() if "item" in n.attrs["type"]]
    groups = [grp for c in EXPLAIN_CRITERIA for grp in group_items(items, g, c)]
    for user in users:
        for item, _ in items:
            for strategy in ("content", "collaborative"):
                check_explanations(g, user, item, groups, strategy)


# Links into i0 from a non-user (t0), from u1 twice (a visit and a rated
# tag) and from u0 itself; friend links into the user u2; no link into
# i2. u1 also tags i3, which u0 never acted on.
COLLABORATIVE_EDGES = build_graph(
    [node(u, type="user") for u in ("u0", "u1", "u2")]
    + [node(i, type="item") for i in ("i0", "i1", "i2", "i3")]
    + [node("t0", type="topic")],
    [
        link("a", "u0", "i0", type="visit"),
        link("b", "u0", "i1", type="visit"),
        link("c", "t0", "i0", type="act"),
        link("d", "t0", "i1", type="act"),
        link("e", "u1", "i0", type="visit"),
        link("f", "u1", "i0", type="tag", tags="jazz", rating=2.0),
        link("g", "u1", "i3", type="tag", tags="jazz"),
        link("h", "u0", "u2", type=("connect", "friend")),
        link("i", "u1", "u2", type=("connect", "friend")),
    ],
)


def test_explanations_match_the_two_path_reference_on_collaborative_edges():
    g = COLLABORATIVE_EDGES
    check_every_explanation(g)
    assert [peer for peer, _ in explain_item(g, "u0", "i0", "collaborative").evidence] == ["u1"]
    assert explain_item(g, "u0", "u2", "collaborative").evidence == ()
    assert explain_item(g, "u0", "i2", "collaborative").evidence == ()
    assert aggregate_explanations(g, "u0", "i0", "content")[1] == 0.5


# u1 alone tags i0-i3, so each of them is fully similar to i2. u0 rates
# i0 0.0 and i1 -1.0 on its own links; peers u2 and u3 rate i4 0.0 and
# -1.0 on theirs.
ZERO_AND_NEGATIVE_RATINGS = build_graph(
    [node(u, type="user") for u in ("u0", "u1", "u2", "u3")]
    + [node(i, type="item") for i in ("i0", "i1", "i2", "i3", "i4")],
    [link(f"t{i}", "u1", f"i{i}", type="tag", tags="jazz") for i in range(4)]
    + [
        link("a0", "u0", "i0", type="visit", rating=0.0),
        link("a1", "u0", "i1", type="visit", rating=-1.0),
        link("a3", "u0", "i3", type="visit", rating=2.0),
        link("b1", "u1", "i4", type="visit", rating=1.0),
        link("b2", "u2", "i0", type="visit"),
        link("c2", "u2", "i4", type="visit", rating=0.0),
        link("b3", "u3", "i1", type="visit"),
        link("c3", "u3", "i4", type="visit", rating=-1.0),
    ],
)


def test_explanations_drop_zero_and_negative_ratings():
    """A rating of 0.0 or below gives no evidence, on the user's own
    link (content) and on a peer's link (collaborative)."""
    g = ZERO_AND_NEGATIVE_RATINGS
    check_every_explanation(g)
    assert explain_item(g, "u0", "i2", "content").evidence == (("i3", 2.0),)
    # u1 shares 3 of 5 items with u0; u2 and u3 one of 4 each
    assert explain_item(g, "u0", "i4", "collaborative").evidence == (("u1", 3 / 5),)


# ---------------------------------------------------------------------------
# Social sets kept per graph


@given(graphs())
def test_social_sets_are_kept_per_graph(g):
    sets = social_sets(g)
    assert social_sets(g) is sets
    assert sets == social_sets(build_graph(g.nodes.values(), g.links.values()))
    assert g == build_graph(g.nodes.values(), g.links.values())  # not part of equality
    friends = link_select(g, FRIEND)
    assert social_sets(friends) is not sets
    assert social_sets(friends) == social_sets(build_graph(friends.nodes.values(), friends.links.values()))


# ---------------------------------------------------------------------------
# The search and CF pipelines as compiled query plans


@st.composite
def travel_graphs(draw):
    """Users u0-u3 and places p0-p4 (destinations or plain items, with
    keywords) joined by friend, visit, act and tag links."""
    users, places = ("u0", "u1", "u2", "u3"), ("p0", "p1", "p2", "p3", "p4")
    words = st.frozensets(st.sampled_from(("food", "beach", "jazz")), max_size=2)
    nodes = [node(u, type="user") for u in users]
    for p in places:
        kind = draw(st.sampled_from((("item", "destination"), ("destination",), ("item",))))
        nodes.append(Node(p, {"type": frozenset(kind), "keywords": draw(words)}))
    link_kinds = st.sampled_from((("connect", "friend"), ("act", "visit"), ("visit",), ("act", "tag"), ("act",)))
    links = []
    for j in range(draw(st.integers(0, 14))):
        kind = draw(link_kinds)
        tgt = draw(st.sampled_from(users if "friend" in kind else users + places))
        attrs = {"type": frozenset(kind)}
        if draw(st.booleans()):
            attrs["rating"] = frozenset({draw(st.sampled_from(FLOATS))})
        links.append(Link(f"l{j}", draw(st.sampled_from(users)), tgt, attrs))
    return build_graph(nodes, links)


THRESHOLDS = (0.0, 0.1, 0.5, 1.0)
PLACE_CONDITIONS = (
    DESTINATION,
    Condition(preds=DESTINATION.preds, keywords=("food", "beach")),
    Condition(keywords=("jazz",)),
)


def exact_outcome(fn, *args):
    try:
        result = fn(*args)
    except Exception as e:  # both sides must fail alike
        return ("error", type(e).__name__, str(e))
    if isinstance(result, dict):
        return {stage: exact(g) for stage, g in result.items()}
    return exact(result)


def check_plans(g):
    for u in [*g.nodes, "absent"]:
        for places in PLACE_CONDITIONS:
            plan = exact_outcome(network_search, g, u, places)
            assert plan == exact_outcome(network_search_wired, g, u, places), (u, places)
        for theta in THRESHOLDS:
            plan = exact_outcome(cf_pipeline, g, u, theta)
            assert plan == exact_outcome(cf_pipeline_wired, g, u, theta), (u, theta)


@given(st.one_of(travel_graphs(), graphs()))
def test_plans_match_hand_wired_pipelines(g):
    check_plans(g)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_plans_match_hand_wired_pipelines_on_fixtures(seed):
    check_plans(random_travel_graph(rng_from(seed), 12, 20))


def test_plans_match_hand_wired_pipelines_on_cf_fixture():
    check_plans(cf_fixture())


FRAGMENTS = (
    "nsel", "x_1", "G4m", "'a b'", "'# $x'", "'", "''", "#", "# c", "1", "0.5", "1e3", "2E-4", ".", "e", "+",
    "-", "!=", "!", "<=", ">=", "<", ">", "=", "(", ")", "[", "]", "{", "}", ",", ";", ":", "@",
    "$", "$x", " ", "\t", "\x0b", "\x0c", "\r", "\n", "\x1c", "\x85", "\xa0", "\u2028", "\u3000",
    "\u0663", "\xb2", "\xe9", "\u212a",
)
lines = st.lists(st.one_of(st.sampled_from(FRAGMENTS), st.characters()), max_size=12).map("".join)


def token_outcome(tokenize, text):
    try:
        return tokenize(text, 3)
    except DslSyntaxError as e:
        return ("error", e.line, e.col, e.expected)


@given(lines)
@example("A = nsel(G, [kw: '# $x']) # c")
@example("x\u3000y\x1c'")
def test_tokenizer_matches_character_loop(text):
    assert token_outcome(dsl._tokenize_line, text) == token_outcome(tokenize_line_loop, text)


def test_tokenizer_matches_character_loop_on_the_corpus():
    for name in sorted(os.listdir(SCRIPT_DIR)):
        for text in read_script(name).splitlines():
            assert token_outcome(dsl._tokenize_line, text) == token_outcome(tokenize_line_loop, text)
