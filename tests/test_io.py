import json
from pathlib import Path

import pytest

from socialgraph.errors import DanglingEndpointError, GraphFileError
from socialgraph.fixtures import jazz_fixture, random_plain_graph, random_tagging_graph, rng_from
from socialgraph.graph import build_graph, node
from socialgraph.index import ClusteringStrategy, build_index, cluster_users, social_sets
from socialgraph.io import (
    load_graph,
    load_index_snapshot,
    load_scored_items,
    save_graph,
    save_index_snapshot,
)


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


def test_object_valued_attribute_rejected(tmp_path):
    np, lp = paths(tmp_path)
    with open(np, "w") as fh:
        fh.write(json.dumps({"id": "a", "attrs": {"type": "user"}}) + "\n")
        fh.write(json.dumps({"id": "b", "attrs": {"type": "user", "x": {"a": 1}}}) + "\n")
    open(lp, "w").close()
    with pytest.raises(GraphFileError) as err:
        load_graph(np, lp)
    assert err.value.line == 2


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


def test_scored_items_load(tmp_path):
    path = tmp_path / "items.jsonl"
    path.write_text('{"id": "a", "score": 2}\n\n{"id": 7}\n', encoding="utf-8")
    assert load_scored_items(str(path)) == [("a", 2.0), ("7", 1.0)]


@pytest.mark.parametrize(
    "line",
    ['{"score": 1.0}', "[1]", '{"id": "a", "score": null}', '{"id": "a", "score": true}',
     '{"id": "a", "score": "0.5"}', '{"id": null}', '{"id": "a", "score": NaN}',
     '{"id": "a", "score": 1' + "0" * 400 + "}"],
    ids=["no-id", "array", "null-score", "bool-score", "string-score", "null-id", "nan-score", "huge-int"],
)
def test_scored_items_reject_malformed_lines(tmp_path, line):
    path = tmp_path / "items.jsonl"
    path.write_text('{"id": "a"}\n' + line + "\n", encoding="utf-8")
    with pytest.raises(GraphFileError) as err:
        load_scored_items(str(path))
    assert err.value.line == 2
