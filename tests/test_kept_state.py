"""A model-based test of the state that calls keep on graphs.

A call's result is read in part from what earlier calls left on the
same graph: ``plan_results`` gathers parameter-free plan results,
``bound_results`` holds the latest parameterised run's, and the social
sets and adjacency views are kept too. None of this may change an
output. The state machine below serves calls in drawn order on a pool
of two travel graphs and one graph derived by a script, and checks
each result, errors included, against the same call on a fresh copy of
its graphs. After each step, every graph's ``bound_results`` must be
what a fresh run of its latest successful parameterised plan leaves.
Each element keeps its keyword tokens too, which must be what a fresh
tokenization of that element gives.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from reference import exact, run_as_written, tokens_scan
from script_corpus import COMBINED_SCRIPT, CORPUS, FORMS, read_script
from socialgraph import algebra, dsl
from socialgraph.discovery import (
    CF_SCRIPT,
    SEARCH_SCRIPT,
    DiscoveryConfig,
    MeaningfulSocialGraph,
    cf_recommend,
    content_recommend,
    discover,
    network_search,
)
from socialgraph.fixtures import random_travel_graph, rng_from
from socialgraph.graph import (
    Condition,
    Node,
    SocialContentGraph,
    attr_eq,
    attr_gt,
    attr_ne,
    build_graph,
)
from socialgraph.presentation import (
    ItemGroup,
    SocialGrouping,
    StructuralGrouping,
    TopicalGrouping,
    aggregate_explanations,
    explain_item,
    group_items,
)

USERS = ("u00", "u01", "u02", "u09")  # u09 is in no graph
ITEMS = ("p00", "p01", "p03")
THETAS = (0.0, -0.0, 0.5)
CRITERIA = (
    SocialGrouping(0.0),
    SocialGrouping(0.5),
    TopicalGrouping(),
    StructuralGrouping("keywords"),
    StructuralGrouping("ghost"),
)
SCORED = st.lists(st.tuples(st.sampled_from(ITEMS), st.sampled_from((0.0, 0.5, 1.0))), max_size=3)
PLACES = ("[type='destination']", "[type='destination'; kw:'food']", "[id='p01']", "[id!='p00']")
PARAM_SCRIPTS = {"cf": CF_SCRIPT, "search": SEARCH_SCRIPT, "forms": FORMS.format(user="$user", others="$others", places="$places")}
DERIVE = "V = lsel(G, [type='visit'])\nF = lsel(G, [type='friend'])\nH = union(V, F)\n"
# Corpus scripts and the combined script, with the user and threshold
# written in where they name them; setops and lminus read G1 and G2.
LITERAL = {
    "ex4_search.sgs": lambda text, user, theta: text.replace("'u00'", f"'{user}'"),
    "ex5_cf.sgs": lambda text, user, theta: text.replace("'101'", f"'{user}'").replace("0.5", repr(theta)),
    "combined": lambda text, user, theta: text.replace("USER", user).replace("0.1", repr(theta)),
}
SCRIPTS = {**{name: read_script(name) for name, _, _ in CORPUS}, "combined": COMBINED_SCRIPT}
PROGRAMS = {name: dsl.parse(text) for name, text in PARAM_SCRIPTS.items()}
PLANS = {name: dsl.compile(program) for name, program in PROGRAMS.items()}


def travel_graphs() -> list:
    """Two small travel graphs on which most users match in CF, and a
    script's output over the first: its visit and friend links."""
    g0, g1 = (
        random_travel_graph(rng_from(seed), n_users=5, n_places=4, friend_prob=0.4, visit_prob=0.4, tag_prob=0.4)
        for seed in (2, 4)
    )
    return [g0, g1, dsl.run_script(DERIVE, {"G": g0})["H"]]


def copy(g):
    """An equal graph with nothing kept on it."""
    return build_graph(g.nodes.values(), g.links.values())


def bound(g) -> dict:
    """A graph's bound results: (key, result) entries, by key."""
    return vars(g).get("bound_results", {})


def normal(value):
    """A result in a form that compares graphs exactly."""
    if isinstance(value, SocialContentGraph):
        return exact(value)
    if isinstance(value, MeaningfulSocialGraph):
        return exact(value.graph), value.ranking
    if isinstance(value, dict):
        return {k: normal(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [normal(v) for v in value]
    return value


def outcome(call, *args) -> tuple:
    try:
        return "ok", normal(call(*args))
    except Exception as e:  # a call on the fresh copy must fail alike
        return "error", type(e).__name__, str(e)


def cf_params(user, theta) -> dict:
    return {
        "user": Condition(preds=(attr_eq("id", user),)),
        "others": Condition(preds=(attr_ne("id", user),)),
        "over": Condition(preds=(attr_gt("sim", theta),)),
    }


class KeptState(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.graphs = travel_graphs()
        # graph index -> the bound results a fresh run of its latest
        # successful parameterised plan leaves
        self.want = [{} for _ in self.graphs]

    def serve(self, i, call, *args):
        """``call(graph i, *args)``, checked against a fresh copy."""
        got = outcome(call, self.graphs[i], *args)
        assert got == outcome(call, copy(self.graphs[i]), *args)
        return got

    def ran(self, i, plan, params):
        g = copy(self.graphs[i])
        dsl.execute(plan, {"G": g}, params)
        self.want[i] = bound(g)

    @rule(i=st.integers(0, 2), user=st.sampled_from(USERS), theta=st.sampled_from(THETAS))
    def cf_recommend(self, i, user, theta):
        got = self.serve(i, cf_recommend, user, DiscoveryConfig(sim_threshold=theta))
        if got[0] == "ok":
            self.ran(i, PLANS["cf"], cf_params(user, theta))

    @rule(i=st.integers(0, 2), user=st.sampled_from(USERS), theta=st.sampled_from(THETAS), query=st.sampled_from(PLACES))
    def discover(self, i, user, theta, query):
        got = self.serve(i, discover, user, dsl.parse_condition(query), DiscoveryConfig(sim_threshold=theta))
        if got[0] == "ok":
            self.ran(i, PLANS["cf"], cf_params(user, theta))

    @rule(i=st.integers(0, 2), user=st.sampled_from(USERS), places=st.sampled_from(PLACES))
    def network_search(self, i, user, places):
        places = dsl.parse_condition(places)
        got = self.serve(i, network_search, user, places)
        if got[0] == "ok":
            self.ran(i, PLANS["search"], {"user": Condition(preds=(attr_eq("id", user),)), "places": places})

    @rule(i=st.integers(0, 2), user=st.sampled_from(USERS))
    def content_recommend(self, i, user):
        self.serve(i, content_recommend, user, 3)

    @rule(
        i=st.integers(0, 2),
        user=st.sampled_from(USERS),
        item=st.sampled_from(ITEMS),
        strategy=st.sampled_from(("content", "collaborative")),
    )
    def explain_item(self, i, user, item, strategy):
        self.serve(i, explain_item, user, item, strategy)

    @rule(
        i=st.integers(0, 2),
        user=st.sampled_from(USERS),
        item=st.sampled_from(ITEMS),
        strategy=st.sampled_from(("content", "collaborative")),
    )
    def aggregate_explanations_of_an_item(self, i, user, item, strategy):
        self.serve(i, aggregate_explanations, user, item, strategy)

    @rule(
        i=st.integers(0, 2),
        user=st.sampled_from(USERS),
        members=st.lists(st.sampled_from(ITEMS), min_size=1, max_size=3, unique=True),
        strategy=st.sampled_from(("content", "collaborative")),
    )
    def aggregate_explanations_of_a_group(self, i, user, members, strategy):
        group = ItemGroup("social:" + members[0], tuple(members), members[0], 0.5, len(members))
        self.serve(i, aggregate_explanations, user, group, strategy)

    @rule(i=st.integers(0, 2), items=SCORED, criterion=st.sampled_from(CRITERIA))
    def group_items(self, i, items, criterion):
        self.serve(i, lambda g: group_items(items, g, criterion))

    @rule(
        i=st.integers(0, 2),
        j=st.integers(0, 2),
        name=st.sampled_from(sorted(SCRIPTS)),
        user=st.sampled_from(USERS),
        theta=st.sampled_from(THETAS),
    )
    def run_script(self, i, j, name, user, theta):
        text = LITERAL.get(name, lambda text, *_: text)(SCRIPTS[name], user, theta)
        inputs = {"G": self.graphs[i], "G1": self.graphs[i], "G2": self.graphs[j]}
        got = outcome(dsl.run_script, text, inputs)
        assert got == outcome(dsl.run_script, text, {k: copy(g) for k, g in inputs.items()})

    @rule(
        i=st.integers(0, 2),
        name=st.sampled_from(sorted(PLANS)),
        user=st.sampled_from(USERS),
        theta=st.sampled_from(THETAS),
        places=st.sampled_from(PLACES),
        drop=st.sampled_from((None, None, None, "user", "over", "places")),
    )
    def execute(self, i, name, user, theta, places, drop):
        params = {**cf_params(user, theta), "places": dsl.parse_condition(places)}
        params.pop(drop, None)
        got = self.serve(i, lambda g: dsl.execute(PLANS[name], {"G": g}, params))
        if got[0] == "ok":
            self.ran(i, PLANS[name], params)

    @invariant()
    def bound_results_are_the_latest_runs(self):
        for g, want in zip(self.graphs, self.want):
            assert bound(g).keys() == want.keys()
            assert all(entry[0] is k for k, entry in bound(g).items())
            assert all(exact(bound(g)[k][1]) == exact(v) for k, (_, v) in want.items())


TestKeptState = KeptState.TestCase
TestKeptState.settings = settings(max_examples=40, stateful_step_count=12)


def test_parameterised_runs_match_their_programs_as_written():
    """A run reads the results it made itself, and a later run on the
    same graph those an earlier one kept. A wrong key agrees with itself
    on a fresh copy, so every run here is checked against its program as
    written, which shares nothing between bindings."""
    for g in travel_graphs():
        for name, plan in PLANS.items():
            for user in USERS:
                for theta in THETAS:
                    params = {**cf_params(user, theta), "places": dsl.parse_condition(PLACES[1])}
                    want = outcome(run_as_written, PROGRAMS[name], {"G": copy(g)}, params)
                    assert outcome(dsl.execute, plan, {"G": g}, params) == want, (name, user, theta)


def test_a_run_replaces_the_bound_results_of_the_one_before():
    """CF served to two users on one graph leaves the second run's bound
    results only, as on a graph that served the second user alone."""
    g = travel_graphs()[0]
    alone = copy(g)
    cfg = DiscoveryConfig(sim_threshold=0.0)
    cf_recommend(g, "u00", cfg)
    first = set(bound(g))
    cf_recommend(g, "u01", cfg)
    cf_recommend(alone, "u01", cfg)
    assert first - bound(g).keys() and bound(g).keys() == bound(alone).keys()


def test_elements_keep_their_own_tokens():
    """Each element's kept tokens are a fresh tokenization of it, kept on
    that element and read again from there; an element rebuilt with a
    score (``_scored``) or merged attributes (``_merge``) keeps nothing of
    its parent's and tokenizes its own attributes."""
    for g in travel_graphs():
        elements = [*g.nodes.values(), *g.links.values()]
        for e in elements:
            assert e.tokens == tokens_scan(e)
            assert vars(e)["tokens"] is e.tokens
        for e in elements:
            scored = algebra._scored(e, 0.5)
            assert "tokens" not in vars(scored) and scored.tokens == tokens_scan(scored)
    parent = Node("n", {"type": frozenset({"place"}), "name": frozenset({"Old Town"})})
    parent.tokens  # kept on the parent before the merge
    merged = algebra._merge(parent, Node("n", {"type": frozenset({"museum"})}))
    assert "tokens" not in vars(merged)
    assert merged.tokens == tokens_scan(merged) == {"place", "old", "town", "museum"}
