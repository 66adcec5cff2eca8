import io
import json
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given

from reference import load_graph_unshared
from socialgraph.cli import run_command
from socialgraph.errors import DanglingEndpointError, GraphFileError
from socialgraph.fixtures import (
    cf_fixture,
    jazz_fixture,
    random_plain_graph,
    random_tagging_graph,
    random_travel_graph,
    rng_from,
)
from socialgraph.graph import build_graph, link, node
from socialgraph.index import (
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
from socialgraph.io import (
    load_graph,
    load_index_snapshot,
    load_scored_items,
    save_graph,
    save_index_snapshot,
)
from test_plan_rules import corpus_graphs


def paths(tmp_path, stem="g"):
    return str(tmp_path / f"{stem}.nodes.jsonl"), str(tmp_path / f"{stem}.links.jsonl")


def test_round_trip_random_graphs(tmp_path):
    rng = rng_from(71)
    for i in range(20):
        g = random_plain_graph(rng, 12, 18)
        np, lp = paths(tmp_path, f"g{i}")
        save_graph(g, np, lp)
        assert load_graph(np, lp) == g


def test_save_bytes_stable(tmp_path):
    g = random_plain_graph(rng_from(72), 12, 18)
    np1, lp1 = paths(tmp_path, "a")
    np2, lp2 = paths(tmp_path, "b")
    save_graph(g, np1, lp1)
    save_graph(g, np2, lp2)
    assert Path(np1).read_bytes() == Path(np2).read_bytes()
    assert Path(lp1).read_bytes() == Path(lp2).read_bytes()


def test_empty_graph_round_trip(tmp_path):
    np, lp = paths(tmp_path)
    save_graph(build_graph([], []), np, lp)
    assert Path(np).read_text() == "" and Path(lp).read_text() == ""
    assert load_graph(np, lp) == build_graph([], [])


def test_load_is_two_pass(tmp_path):
    # a link may appear in its file regardless of node file order
    np, lp = paths(tmp_path)
    with open(np, "w") as fh:
        fh.write(json.dumps({"id": "b", "attrs": {"type": "user"}}) + "\n")
        fh.write(json.dumps({"id": "a", "attrs": {"type": "user"}}) + "\n")
    with open(lp, "w") as fh:
        fh.write(json.dumps({"id": "l", "src": "a", "tgt": "b", "attrs": {"type": "e"}}) + "\n")
    g = load_graph(np, lp)
    assert set(g.nodes) == {"a", "b"} and set(g.links) == {"l"}


def test_numeric_ids_stringified(tmp_path):
    np, lp = paths(tmp_path)
    with open(np, "w") as fh:
        fh.write(json.dumps({"id": 1, "attrs": {"type": "user"}}) + "\n")
        fh.write(json.dumps({"id": 2, "attrs": {"type": "item"}}) + "\n")
    with open(lp, "w") as fh:
        fh.write(json.dumps({"id": 12, "src": 1, "tgt": 2, "attrs": {"type": "act"}}) + "\n")
    g = load_graph(np, lp)
    assert set(g.nodes) == {"1", "2"}
    assert g.links["12"].src == "1"


NON_FINITE = ["NaN", "Infinity", "-Infinity", "1e400"]  # JSON numbers Python reads as nan/inf


@pytest.mark.parametrize("number", NON_FINITE)
@pytest.mark.parametrize("which, field", [("nodes", "id"), ("links", "id"), ("links", "src"), ("links", "tgt")])
def test_non_finite_numeric_ids_rejected(tmp_path, which, field, number):
    records = {
        "nodes": [{"id": "a", "attrs": {"type": "user"}}, {"id": "b", "attrs": {"type": "user"}}],
        "links": [
            {"id": "k", "src": "a", "tgt": "b", "attrs": {"type": "e"}},
            {"id": "l", "src": "b", "tgt": "a", "attrs": {"type": "e"}},
        ],
    }
    records[which][1][field] = "@"
    files = dict(zip(("nodes", "links"), paths(tmp_path)))
    for name, path in files.items():
        with open(path, "w") as fh:
            fh.writelines(json.dumps(r).replace('"@"', number) + "\n" for r in records[name])
    with pytest.raises(GraphFileError) as err:
        load_graph(files["nodes"], files["links"])
    assert (err.value.path, err.value.line) == (files[which], 2)
    assert "finite" in str(err.value)


def test_parse_error_carries_location(tmp_path):
    np, lp = paths(tmp_path)
    with open(np, "w") as fh:
        fh.write(json.dumps({"id": "a", "attrs": {"type": "user"}}) + "\n")
        fh.write("{not json\n")
    open(lp, "w").close()
    with pytest.raises(GraphFileError) as err:
        load_graph(np, lp)
    assert err.value.line == 2


def test_build_errors_propagate(tmp_path):
    np, lp = paths(tmp_path)
    with open(np, "w") as fh:
        fh.write(json.dumps({"id": "a", "attrs": {"type": "user"}}) + "\n")
    with open(lp, "w") as fh:
        fh.write(json.dumps({"id": "l", "src": "a", "tgt": "zz", "attrs": {"type": "e"}}) + "\n")
    with pytest.raises(DanglingEndpointError):
        load_graph(np, lp)


def test_scalar_vs_array_values_equivalent(tmp_path):
    np, lp = paths(tmp_path)
    with open(np, "w") as fh:
        fh.write(json.dumps({"id": "a", "attrs": {"type": ["user"], "w": 2}}) + "\n")
    open(lp, "w").close()
    g = load_graph(np, lp)
    assert g.nodes["a"] == node("a", type="user", w=2.0)


def test_float_values_exact_round_trip(tmp_path):
    g = build_graph([node("a", type="user", score=2 / 3, w=(0.1, 1e-9))], [])
    np, lp = paths(tmp_path)
    save_graph(g, np, lp)
    assert load_graph(np, lp) == g


def test_index_snapshot_round_trip(tmp_path):
    g = random_tagging_graph(rng_from(73), n_users=20, n_items=40, n_tags=6)
    sets = social_sets(g)
    model = cluster_users(sets, ClusteringStrategy("network", 0.5))
    index = build_index(sets, model, {t for (_, t) in sets.taggers})
    path = str(tmp_path / "index.snap")
    save_index_snapshot(index, path)
    loaded = load_index_snapshot(path)
    assert loaded == index
    path2 = str(tmp_path / "index2.snap")
    save_index_snapshot(loaded, path2)
    assert Path(path).read_bytes() == Path(path2).read_bytes()


def test_index_snapshot_rejects_other_files(tmp_path):
    path = str(tmp_path / "bogus.snap")
    with open(path, "w") as fh:
        fh.write('{"format":"other"}\n{}\n{}\n')
    with pytest.raises(GraphFileError):
        load_index_snapshot(path)


def _jazz_snapshot_lines(tmp_path) -> list:
    sets = social_sets(jazz_fixture())
    model = cluster_users(sets, ClusteringStrategy("network", 0.5))
    path = str(tmp_path / "jazz.snap")
    save_index_snapshot(build_index(sets, model, ["jazz"]), path)
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _write_lines(tmp_path, records) -> str:
    path = str(tmp_path / "edited.snap")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in records)
    return path


def test_index_snapshot_keeps_score_types(tmp_path):
    records = _jazz_snapshot_lines(tmp_path)
    loaded = load_index_snapshot(_write_lines(tmp_path, records))
    scores = [score for entries in loaded.lists.values() for _, score in entries]
    assert scores and all(type(s) is int for s in scores)  # stored as 2, printed as "2"


def test_index_snapshot_missing_model_line(tmp_path):
    records = [r for r in _jazz_snapshot_lines(tmp_path) if "model" not in r]
    with pytest.raises(GraphFileError) as err:
        load_index_snapshot(_write_lines(tmp_path, records))
    assert err.value.line == 2 and "model" in str(err.value)


@pytest.mark.parametrize(
    "edit",
    [
        lambda rs: rs[1]["model"].pop("leaders"),
        lambda rs: rs[1]["model"]["assignment"].update(u1=7),
        lambda rs: rs[2]["sets"].update(network=[]),
        lambda rs: rs[2]["sets"]["items"].update(u2="i1"),
        lambda rs: rs[2]["sets"]["taggers"][0].pop("tag"),
    ],
    ids=["no-leaders", "numeric-cluster", "network-array", "items-string", "tagger-no-tag"],
)
def test_index_snapshot_mistyped_section(tmp_path, edit):
    records = _jazz_snapshot_lines(tmp_path)
    edit(records)
    with pytest.raises(GraphFileError) as err:
        load_index_snapshot(_write_lines(tmp_path, records))
    assert err.value.line in (2, 3)


@pytest.mark.parametrize(
    "entry",
    [["i1", "x"], ["i1", True], ["i1"], [3, 2], ["i1", 2, 0], "i1"],
    ids=["string-score", "bool-score", "short", "numeric-item", "long", "not-array"],
)
def test_index_snapshot_rejects_bad_list_entry(tmp_path, entry):
    records = _jazz_snapshot_lines(tmp_path)
    records[-1]["entries"].append(entry)
    with pytest.raises(GraphFileError) as err:
        load_index_snapshot(_write_lines(tmp_path, records))
    assert err.value.line == len(records)


@pytest.mark.parametrize("number", [*NON_FINITE, "1" + "0" * 400], ids=[*NON_FINITE, "huge-int"])
def test_index_snapshot_rejects_a_score_that_is_not_finite(tmp_path, number):
    records = _jazz_snapshot_lines(tmp_path)
    records[-1]["entries"][-1][1] = "@"
    path = _write_lines(tmp_path, records)
    text = Path(path).read_text(encoding="utf-8").replace('"@"', number)
    Path(path).write_text(text, encoding="utf-8")
    with pytest.raises(GraphFileError) as err:
        load_index_snapshot(path)
    assert err.value.line == len(records) and "finite" in str(err.value)


@pytest.mark.parametrize("number", ["-1", "-0.5", "-1e-300"])
def test_index_snapshot_rejects_a_negative_score(tmp_path, number):
    records = _jazz_snapshot_lines(tmp_path)
    records[-1]["entries"].append(["i9", "@"])
    path = _write_lines(tmp_path, records)
    text = Path(path).read_text(encoding="utf-8").replace('"@"', number)
    Path(path).write_text(text, encoding="utf-8")
    with pytest.raises(GraphFileError) as err:
        load_index_snapshot(path)
    assert err.value.line == len(records) and "negative" in str(err.value)


def test_index_snapshot_rejects_the_negative_score_that_misranked_a_query(tmp_path):
    """A negative score bounds nothing, since an item missing from a list
    scores 0 there: loaded, this index answered u0's rock-and-jazz query
    with c, while b is ranked first over the sets, so it must not load."""
    sets = SocialSets(
        network={"u0": frozenset({"f"}), "f": frozenset({"u0"})},
        items={"f": frozenset({"b", "c"})},
        taggers={("c", "rock"): frozenset({"f"}), ("b", "jazz"): frozenset({"f"})},
    )
    lists = {("rock", "c0"): (("c", 1), ("y", -5)), ("jazz", "c0"): (("a", 1), ("b", 1))}
    model = ClusterModel(assignment={"u0": "c0", "f": "c0"}, leaders={"c0": "u0"})
    path = str(tmp_path / "negative.snap")
    save_index_snapshot(ClusteredIndex(lists=lists, model=model, sets=sets, vocabulary=sets.tags), path)
    assert exhaustive_topk(sets, "u0", ["rock", "jazz"], 1) == [("b", 1)]
    with pytest.raises(GraphFileError) as err:
        load_index_snapshot(path)
    assert (err.value.line, str(err.value)) == (5, f"{path}:5: list scores must not be negative")
    out, err = io.StringIO(), io.StringIO()
    argv = ["topk", "--index", path, "--user", "u0", "--keywords", "rock,jazz", "--k", "1"]
    assert run_command(argv, out=out, err=err) == 1
    assert (out.getvalue(), err.getvalue()) == ("", f"error: {path}:5: list scores must not be negative\n")


def test_object_valued_attribute_rejected(tmp_path):
    np, lp = paths(tmp_path)
    with open(np, "w") as fh:
        fh.write(json.dumps({"id": "a", "attrs": {"type": "user"}}) + "\n")
        fh.write(json.dumps({"id": "b", "attrs": {"type": "user", "x": {"a": 1}}}) + "\n")
    open(lp, "w").close()
    with pytest.raises(GraphFileError) as err:
        load_graph(np, lp)
    assert err.value.line == 2


@pytest.mark.parametrize("value", [None, [None], ["x", None]], ids=["null", "null-in-array", "null-beside-a-string"])
def test_null_attribute_value_rejected(tmp_path, value):
    """Found by the graph loader fuzz: a null value was iterated as a set
    and raised TypeError."""
    np, lp = paths(tmp_path)
    with open(np, "w") as fh:
        fh.write(json.dumps({"id": "a", "attrs": {"type": "user"}}) + "\n")
        fh.write(json.dumps({"id": "b", "attrs": {"type": "user", "x": value}}) + "\n")
    open(lp, "w").close()
    with pytest.raises(GraphFileError) as err:
        load_graph(np, lp)
    assert str(err.value) == f"{np}:2: unsupported attribute scalar: None"


@pytest.mark.parametrize("which", ["nodes", "links"])
@pytest.mark.parametrize("name", ["id", "src", "tgt"])
def test_identity_field_as_an_attribute_rejected(tmp_path, which, name):
    np, lp = paths(tmp_path)
    nodes = [{"id": "a", "attrs": {"type": "user"}}, {"id": "b", "attrs": {"type": "user"}}]
    links = [{"id": lid, "src": src, "tgt": tgt, "attrs": {"type": "friend"}} for lid, src, tgt in ("lab", "mba")]
    (nodes if which == "nodes" else links)[1]["attrs"][name] = "a"
    for path, records in ((np, nodes), (lp, links)):
        Path(path).write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    with pytest.raises(GraphFileError) as err:
        load_graph(np, lp)
    path = np if which == "nodes" else lp
    assert str(err.value) == f"{path}:2: '{name}' is an identity field, not an attribute name"


DEEP_JSON = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("which", ["nodes", "links", "items", "snapshot"])
def test_json_nested_too_deeply_rejected(tmp_path, which):
    np, lp = paths(tmp_path)
    save_graph(jazz_fixture(), np, lp)
    path = str(tmp_path / "deep.jsonl")
    # fits every file kind: a graph record, a scored item and a snapshot header
    first = {"id": "x", "src": "u1", "tgt": "u1", "attrs": {"type": "e"}, "format": "socialgraph-index", "version": 1}
    Path(path).write_text(json.dumps(first) + "\n" + DEEP_JSON + "\n", encoding="utf-8")
    load = {
        "nodes": lambda: load_graph(path, lp),
        "links": lambda: load_graph(np, path),
        "items": lambda: load_scored_items(path),
        "snapshot": lambda: load_index_snapshot(path),
    }[which]
    with pytest.raises(GraphFileError) as err:
        load()
    assert str(err.value) == f"{path}:2: invalid JSON: nested too deeply"


def test_attribute_integer_beyond_float_range_rejected(tmp_path):
    np, lp = paths(tmp_path)
    with open(np, "w") as fh:
        fh.write(json.dumps({"id": "a", "attrs": {"type": "user"}}) + "\n")
        fh.write('{"id": "b", "attrs": {"type": "user", "w": 1' + "0" * 400 + "}}\n")
    open(lp, "w").close()
    with pytest.raises(GraphFileError) as err:
        load_graph(np, lp)
    assert err.value.line == 2
    assert "within float range" in str(err.value)


@pytest.mark.parametrize(
    "edit",
    [
        lambda entries: entries.append(["i0", entries[-1][1] + 1]),
        lambda entries: entries.append(["", entries[-1][1]]),
    ],
    ids=["score-rises", "tie-out-of-id-order"],
)
def test_index_snapshot_rejects_unsorted_list(tmp_path, edit):
    records = _jazz_snapshot_lines(tmp_path)
    edit(records[-1]["entries"])
    with pytest.raises(GraphFileError) as err:
        load_index_snapshot(_write_lines(tmp_path, records))
    assert err.value.line == len(records) and "sorted" in str(err.value)


def test_index_snapshot_accepts_ties_in_id_order(tmp_path):
    records = _jazz_snapshot_lines(tmp_path)
    records[-1]["entries"].append(["zz", records[-1]["entries"][-1][1]])
    loaded = load_index_snapshot(_write_lines(tmp_path, records))
    assert loaded.lists[(records[-1]["tag"], records[-1]["cluster"])][-1] == ("zz", 2)


def test_index_snapshot_rejects_cluster_without_leader(tmp_path):
    records = _jazz_snapshot_lines(tmp_path)
    records[-1]["cluster"] = "nobody"
    with pytest.raises(GraphFileError) as err:
        load_index_snapshot(_write_lines(tmp_path, records))
    assert err.value.line == len(records) and "nobody" in str(err.value)


def test_index_snapshot_rejects_a_user_in_a_cluster_without_leader(tmp_path):
    records = _jazz_snapshot_lines(tmp_path)
    records[1]["model"]["assignment"]["u1"] = "ghost"
    path = _write_lines(tmp_path, records)
    with pytest.raises(GraphFileError) as err:
        load_index_snapshot(path)
    assert str(err.value) == f"{path}:2: cluster 'ghost' has no leader"


def _leaderless_model_then_a_malformed_list(records):
    records[1]["model"]["assignment"]["u1"] = "ghost"
    records[-1]["entries"].append("i1")
    return records


@pytest.mark.parametrize(
    "edit, line, message",
    [
        (lambda rs: [{**rs[0], "format": "other"}, rs[1], "@", *rs[3:]], 1, "not a recognized index snapshot"),
        (_leaderless_model_then_a_malformed_list, 2, "cluster 'ghost' has no leader"),
        (lambda rs: [{**rs[0], "format": "other"}], 1, "not a recognized index snapshot"),
    ],
    ids=["bad-header-then-invalid-json", "leaderless-model-then-malformed-list", "one-line-bad-header"],
)
def test_index_snapshot_reports_its_first_faulty_line(tmp_path, edit, line, message):
    """In a file with several faults, the first faulty line as read wins;
    a file too short to hold its sets line is judged by the lines it has."""
    path = _write_lines(tmp_path, edit(_jazz_snapshot_lines(tmp_path)))
    text = Path(path).read_text(encoding="utf-8").replace('"@"\n', '{"sets":\n')
    Path(path).write_text(text, encoding="utf-8")
    with pytest.raises(GraphFileError) as err:
        load_index_snapshot(path)
    assert str(err.value) == f"{path}:{line}: {message}"


def test_topk_reports_the_first_faulty_line_of_its_index(tmp_path):
    path = _write_lines(tmp_path, _leaderless_model_then_a_malformed_list(_jazz_snapshot_lines(tmp_path)))
    out, err = io.StringIO(), io.StringIO()
    argv = ["topk", "--index", path, "--user", "u1", "--keywords", "jazz", "--k", "1"]
    assert run_command(argv, out=out, err=err) == 1
    assert (out.getvalue(), err.getvalue()) == ("", f"error: {path}:2: cluster 'ghost' has no leader\n")


def test_scored_items_load(tmp_path):
    path = tmp_path / "items.jsonl"
    path.write_text('{"id": "a", "score": 2}\n\n{"id": 7}\n', encoding="utf-8")
    assert load_scored_items(str(path)) == [("a", 2.0), ("7", 1.0)]


@pytest.mark.parametrize(
    "line",
    ['{"score": 1.0}', "[1]", '{"id": "a", "score": null}', '{"id": "a", "score": true}',
     '{"id": "a", "score": "0.5"}', '{"id": null}', '{"id": "a", "score": NaN}',
     '{"id": "a", "score": 1' + "0" * 400 + "}", *('{"id": %s}' % number for number in NON_FINITE)],
    ids=["no-id", "array", "null-score", "bool-score", "string-score", "null-id", "nan-score", "huge-int",
         *(f"{number}-id" for number in NON_FINITE)],
)
def test_scored_items_reject_malformed_lines(tmp_path, line):
    path = tmp_path / "items.jsonl"
    path.write_text('{"id": "a"}\n' + line + "\n", encoding="utf-8")
    with pytest.raises(GraphFileError) as err:
        load_scored_items(str(path))
    assert err.value.line == 2


def test_index_snapshot_keeps_a_partial_vocabulary(tmp_path):
    """An index of some tags only: after a round trip, a query on a tag
    it lacks is still exact-scored rather than taken to score 0."""
    g = random_tagging_graph(rng_from(1), 40, 80, n_tags=6, n_communities=3)
    sets = social_sets(g)
    model = cluster_users(sets, ClusteringStrategy("network", 0.3))
    tags = sorted({t for (_, t) in sets.taggers})
    index = build_index(sets, model, tags[:2])
    path = str(tmp_path / "partial.snap")
    save_index_snapshot(index, path)
    loaded = load_index_snapshot(path)
    assert loaded.vocabulary == frozenset(tags[:2])
    assert loaded == index
    for u in sets.users:
        for tag in tags:
            assert topk_query(loaded, u, [tag], 5) == exhaustive_topk(sets, u, [tag], 5), (u, tag)
    path2 = str(tmp_path / "partial2.snap")
    save_index_snapshot(loaded, path2)
    assert Path(path).read_bytes() == Path(path2).read_bytes()


def test_loaded_lists_share_one_string_per_item_id(tmp_path):
    g = random_tagging_graph(rng_from(2), 30, 60, n_tags=4, n_communities=2)
    sets = social_sets(g)
    model = cluster_users(sets, ClusteringStrategy("network", 0.3))
    index = build_index(sets, model, {t for _, t in sets.taggers})
    path = str(tmp_path / "shared.snap")
    save_index_snapshot(index, path)
    items = [item for entries in load_index_snapshot(path).lists.values() for item, _ in entries]
    assert len({id(item) for item in items}) == len(set(items)) < len(items)


def test_loaded_index_holds_one_string_per_id(tmp_path):
    """The model, the sets line and the lists share one str per id, so a
    loaded index holds no more id strings than it has distinct ids."""
    g = random_tagging_graph(rng_from(2), 30, 60, n_tags=4, n_communities=2)
    sets = social_sets(g)
    index = build_index(sets, cluster_users(sets, ClusteringStrategy("network", 0.3)), sets.tags)
    path = str(tmp_path / "shared.snap")
    save_index_snapshot(index, path)
    loaded = load_index_snapshot(path)
    model, sets = loaded.model, loaded.sets
    ids = [
        *chain.from_iterable(model.assignment.items()),
        *chain.from_iterable(model.leaders.items()),
        *chain.from_iterable((u, *v) for u, v in sets.network.items()),
        *chain.from_iterable((u, *v) for u, v in sets.items.items()),
        *chain.from_iterable((item, tag, *v) for (item, tag), v in sets.taggers.items()),
        *chain.from_iterable(loaded.lists),
        *(item for entries in loaded.lists.values() for item, _ in entries),
    ]
    assert len({id(i) for i in ids}) == len(set(ids)) < len(ids)


def test_index_snapshot_of_every_tag_lists_no_vocabulary(tmp_path):
    records = _jazz_snapshot_lines(tmp_path)
    assert records[0] == {"format": "socialgraph-index", "version": 1}


@pytest.mark.parametrize("vocabulary", ["jazz", [1], None, [["jazz"]]], ids=["string", "number", "null", "nested"])
def test_index_snapshot_rejects_a_malformed_vocabulary(tmp_path, vocabulary):
    records = _jazz_snapshot_lines(tmp_path)
    records[0]["vocabulary"] = vocabulary
    with pytest.raises(GraphFileError) as err:
        load_index_snapshot(_write_lines(tmp_path, records))
    assert err.value.line == 1 and "vocabulary" in str(err.value)


def _signed_zero_graph(first: float, second: float):
    """Records whose value sets are equal but save differently: ``first``
    and ``second`` are 0.0 and -0.0 in either order."""
    return build_graph(
        [node("a", type="user", w=first), node("b", type="user", w=second), node("c", type="user", w=(first, "x"))],
        [
            link("k", "a", "b", type="e", w=second),
            link("l", "b", "c", type="e", w=(second, "x")),
            link("m", "c", "a", type="e", w=first),
        ],
    )


@pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0)], ids=["zero-first", "minus-zero-first"])
def test_graph_round_trip_keeps_the_sign_of_zero(tmp_path, first, second):
    np, lp = paths(tmp_path)
    save_graph(_signed_zero_graph(first, second), np, lp)
    np2, lp2 = paths(tmp_path, "again")
    save_graph(load_graph(np, lp), np2, lp2)
    assert Path(np2).read_bytes() == Path(np).read_bytes()
    assert Path(lp2).read_bytes() == Path(lp).read_bytes()
    assert '"w":-0.0' in Path(np).read_text() and '"w":0.0' in Path(np).read_text()


def test_snapshot_round_trip_keeps_score_types_and_the_sign_of_zero(tmp_path):
    """One item scores 0, 0.0, -0.0, 1 and 1.0 in five lists: equal
    numbers, but each saves as it was read."""
    scores = (0, 0.0, -0.0, 1, 1.0, 0.0, -0.0)
    sets = SocialSets(network={"u0": frozenset()}, items={"u0": frozenset()}, taggers={})
    model = ClusterModel(assignment={"u0": "u0"}, leaders={"u0": "u0"})
    lists = {(f"t{j}", "u0"): (("zz", score),) for j, score in enumerate(scores)}
    path = str(tmp_path / "zeros.snap")
    save_index_snapshot(ClusteredIndex(lists=lists, model=model, sets=sets, vocabulary=frozenset()), path)
    loaded = load_index_snapshot(path)
    assert [repr(entries[0][1]) for entries in loaded.lists.values()] == list(map(repr, scores))
    path2 = str(tmp_path / "zeros2.snap")
    save_index_snapshot(loaded, path2)
    assert Path(path2).read_bytes() == Path(path).read_bytes()


def _save_and_load_both(g, tmp_path, stem):
    np, lp = paths(tmp_path, stem)
    save_graph(g, np, lp)
    shared, fresh = load_graph(np, lp), load_graph_unshared(np, lp)
    assert shared == fresh == g
    again = paths(tmp_path, stem + ".shared"), paths(tmp_path, stem + ".fresh")
    save_graph(shared, *again[0])
    save_graph(fresh, *again[1])
    for path, shared_path, fresh_path in zip((np, lp), *again):
        assert Path(shared_path).read_bytes() == Path(fresh_path).read_bytes() == Path(path).read_bytes()


@pytest.mark.parametrize(
    "make",
    [
        jazz_fixture,
        cf_fixture,
        lambda: random_travel_graph(rng_from(5), 12, 24),
        lambda: random_tagging_graph(rng_from(6), 20, 40, n_tags=4, n_communities=2),
        lambda: random_plain_graph(rng_from(7), 12, 18),
        lambda: _signed_zero_graph(0.0, -0.0),
    ],
    ids=["jazz", "cf", "travel", "tagging", "plain", "signed-zero"],
)
def test_shared_loader_matches_the_unshared_one_on_fixtures(tmp_path, make):
    _save_and_load_both(make(), tmp_path, "fixture")


@given(corpus_graphs())
def test_shared_loader_matches_the_unshared_one_on_corpus_graphs(tmp_path_factory, g):
    _save_and_load_both(g, tmp_path_factory.getbasetemp(), "corpus")


def test_loaded_files_keep_one_object_per_distinct_value(tmp_path):
    """A loaded tagging graph holds one str per node id across its nodes
    and the links' ends, and one object per attribute name and per
    string value set; its loaded network index holds one tuple per
    distinct (item, score) pair across its lists."""
    g = random_tagging_graph(rng_from(2), 30, 60, n_tags=4, n_communities=2)
    np, lp = paths(tmp_path)
    save_graph(g, np, lp)
    loaded = load_graph(np, lp)
    nodes, links = loaded.nodes.values(), loaded.links.values()
    ids = [*loaded.nodes, *(n.id for n in nodes), *chain.from_iterable((l.src, l.tgt) for l in links)]
    assert len({id(i) for i in ids}) == len(set(ids)) == len(loaded.nodes) < len(ids)
    attrs = [e.attrs for e in chain(nodes, links)]
    names = list(chain.from_iterable(attrs))
    assert len({id(name) for name in names}) == len(set(names)) < len(names)
    value_sets = [v for a in attrs for v in a.values()]
    assert all(type(v) is str for s in value_sets for v in s)
    assert len({id(v) for v in value_sets}) == len(set(value_sets)) < len(value_sets)

    sets = social_sets(loaded)
    index = build_index(sets, cluster_users(sets, ClusteringStrategy("network", 0.3)), sets.tags)
    path = str(tmp_path / "shared.snap")
    save_index_snapshot(index, path)
    pairs = [pair for entries in load_index_snapshot(path).lists.values() for pair in entries]
    exact = {(item, score, type(score)) for item, score in pairs}
    assert len({id(pair) for pair in pairs}) == len(exact) < len(pairs)
