import pytest

from socialgraph.errors import (
    DanglingEndpointError,
    DuplicateIdError,
    EmptyKeywordsError,
    MissingTypeError,
)
from socialgraph.fixtures import random_plain_graph, rng_from
from socialgraph.graph import (
    CONTAINS_ALL,
    Condition,
    StructPredicate,
    attr_eq,
    attr_ge,
    attr_ne,
    build_graph,
    default_keyword_score,
    has_all,
    link,
    node,
    satisfies,
)


@pytest.mark.parametrize("name", ["id", "src", "tgt"])
def test_node_and_link_reject_an_identity_field_as_an_attribute(name):
    message = f"^'{name}' is an identity field, not an attribute name$"
    with pytest.raises(ValueError, match=message):
        node("n", type="user", **{name: "x"})
    with pytest.raises(ValueError, match=message):
        link("l", "a", "b", type="visit", **{name: "x"})


def test_build_empty_graph():
    g = build_graph([], [])
    assert g.nodes == {} and g.links == {}
    assert g.is_null


def test_build_travel_pair(travel_graph):
    assert set(travel_graph.nodes) == {"1", "2"}
    assert set(travel_graph.links) == {"12"}
    l12 = travel_graph.links["12"]
    assert l12.src == "1" and l12.tgt == "2"
    assert l12.attrs["tags"] == frozenset({"rockies", "baseball"})


def test_build_rejects_dangling_endpoint():
    n1 = node(1, type="user")
    l12 = link(12, 1, 2, type="act")
    with pytest.raises(DanglingEndpointError) as err:
        build_graph([n1], [l12])
    assert err.value.link_id == "12" and err.value.node_id == "2"


def test_build_rejects_duplicate_ids():
    with pytest.raises(DuplicateIdError):
        build_graph([node(1, type="user"), node(1, type="item")], [])
    # link ids share the id space with node ids
    with pytest.raises(DuplicateIdError):
        build_graph(
            [node(1, type="user"), node(2, type="user")],
            [link(1, 1, 2, type="edge")],
        )


def test_build_rejects_missing_type():
    with pytest.raises(MissingTypeError, match="^element '1' has no 'type' attribute$"):
        build_graph([node(1, name="untyped")], [])
    with pytest.raises(MissingTypeError, match="^element '2' has no 'type' attribute$"):
        build_graph([node(1, type="user")], [link(2, 1, 1, name="untyped")])


def test_attr_value_normalization():
    n = node(1, type="user", rating=3)
    assert n.attrs["rating"] == frozenset({3.0})
    with pytest.raises(ValueError):
        node(1, type="user", bad=float("nan"))
    with pytest.raises(ValueError):
        node(1, type="user", empty=())
    with pytest.raises(ValueError, match="^booleans are not attribute scalars: True$"):
        node(1, type="user", flag=True)
    with pytest.raises(ValueError, match="^unsupported attribute scalar: None$"):
        node(1, type="user", missing=[None])


@pytest.mark.parametrize(
    "op, operands, message",
    [
        ("~", (1,), "unknown predicate operator: '~'"),
        (CONTAINS_ALL, (), "contains-all needs at least one operand"),
        ("=", (1, 2), "'=' takes exactly one operand"),
    ],
)
def test_a_predicate_needs_a_known_operator_and_its_operands(op, operands, message):
    with pytest.raises(ValueError) as err:
        StructPredicate("w", op, operands)
    assert str(err.value) == message


def test_contains_all_semantics(travel_graph):
    n1, n2 = travel_graph.nodes["1"], travel_graph.nodes["2"]
    assert satisfies(n1, Condition(preds=(has_all("type", "user"),)))
    assert not satisfies(n2, Condition(preds=(has_all("type", "user"),)))
    assert satisfies(n1, Condition(preds=(has_all("type", "user", "traveler"),)))
    assert not satisfies(n1, Condition(preds=(has_all("type", "user", "admin"),)))


def test_comparison_predicates(travel_graph):
    n1 = travel_graph.nodes["1"]
    assert satisfies(n1, Condition(preds=(attr_eq("id", "1"),)))
    assert satisfies(n1, Condition(preds=(attr_ne("id", "2"),)))
    assert not satisfies(n1, Condition(preds=(attr_eq("id", "2"),)))
    n = node(9, type="item", rating=0.7)
    assert satisfies(n, Condition(preds=(attr_ge("rating", 0.5),)))
    assert not satisfies(n, Condition(preds=(attr_ge("rating", 0.8),)))
    # absent attribute: false, not an error
    assert not satisfies(n, Condition(preds=(attr_ge("missing", 0.0),)))
    # type-mismatched comparison is false
    assert not satisfies(n, Condition(preds=(attr_eq("rating", "0.7"),)))


def test_empty_condition_matches_everything(travel_graph):
    for element in list(travel_graph.nodes.values()) + list(travel_graph.links.values()):
        assert satisfies(element, Condition())


def test_keyword_match_tokenizes_string_attrs(travel_graph):
    n2 = travel_graph.nodes["2"]
    assert satisfies(n2, Condition(keywords=("skiing", "denver")))
    assert not satisfies(n2, Condition(keywords=("paris",)))
    # keywords also hit link attributes ('rockies baseball' tags)
    l12 = travel_graph.links["12"]
    assert satisfies(l12, Condition(keywords=("baseball",)))


def test_default_keyword_score(travel_graph):
    n1, n2 = travel_graph.nodes["1"], travel_graph.nodes["2"]
    assert default_keyword_score(n2, ["skiing"]) == 1.0
    assert default_keyword_score(n2, ["skiing", "paris"]) == 0.5
    assert default_keyword_score(n1, ["zzz"]) == 0.0
    with pytest.raises(EmptyKeywordsError):
        default_keyword_score(n1, [])


def test_keyword_score_bounds_random():
    rng = rng_from(5)
    g = random_plain_graph(rng, 15, 10)
    keywords = ["node", "user", "zzz", "beach"]
    for n in g.nodes.values():
        score = default_keyword_score(n, keywords)
        assert 0.0 <= score <= 1.0


def test_satisfies_monotone_under_pred_removal():
    rng = rng_from(11)
    g = random_plain_graph(rng, 20, 20)
    preds = (attr_eq("type", "user"), attr_eq("name", "node 3"), attr_ge("weight", 1.0))
    full = Condition(preds=preds)
    for n in g.nodes.values():
        if satisfies(n, full):
            for drop in range(len(preds)):
                weaker = Condition(preds=preds[:drop] + preds[drop + 1 :])
                assert satisfies(n, weaker)


@pytest.mark.parametrize("keyword", ["skiing,", "new york", "", "rock-climbing", "a_b", " skiing"])
def test_keyword_that_is_not_one_token_is_rejected(keyword):
    # element tokens split on every non-alphanumeric, so such a keyword could never match
    with pytest.raises(ValueError) as err:
        Condition(keywords=("skiing", keyword))
    assert repr(keyword) in str(err.value)


def test_one_token_keywords_are_lowercased(travel_graph):
    cond = Condition(keywords=("Skiing", "DENVER", "42", "café"))
    assert cond.keywords == ("skiing", "denver", "42", "café")
    assert satisfies(travel_graph.nodes["2"], cond)
