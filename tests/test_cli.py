import io
import json
import os

import pytest

from conftest import cli_modules_loaded, expected_cli_modules
from socialgraph.algebra import link_select, semi_join
from socialgraph.cli import run_command
from socialgraph.discovery import DiscoveryConfig, cf_recommend, content_recommend, discover
from socialgraph.dsl import parse_condition
from socialgraph.fixtures import cf_fixture, jazz_fixture, random_tagging_graph, rng_from
from socialgraph.index import ClusteringStrategy, build_index, cluster_users, social_sets, topk_query
from socialgraph.graph import DirectionalCondition
from socialgraph.io import load_graph, save_graph, save_index_snapshot
from socialgraph.presentation import SocialGrouping, explain_item, group_items, select_groups


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_command(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def cf_files(tmp_path):
    np, lp = str(tmp_path / "n.jsonl"), str(tmp_path / "l.jsonl")
    save_graph(cf_fixture(), np, lp)
    return np, lp


@pytest.fixture
def jazz_files(tmp_path):
    np, lp = str(tmp_path / "jn.jsonl"), str(tmp_path / "jl.jsonl")
    save_graph(jazz_fixture(), np, lp)
    return np, lp


def test_estimate_index_golden():
    code, out, _ = run(
        "estimate-index",
        "--users", "100000",
        "--items", "1000000",
        "--tags-per-item", "20",
        "--tagger-fraction", "0.05",
        "--bytes", "10",
    )
    assert code == 0
    assert out == "1000000000000\n"


def test_recommend_cf_golden(cf_files):
    np, lp = cf_files
    code, out, _ = run(
        "recommend", "--nodes", np, "--links", lp, "--user", "101", "--k", "1", "--threshold", "0.5"
    )
    assert code == 0
    assert out == "203\t0.666667\n"


def test_recommend_equals_api(cf_files):
    np, lp = cf_files
    code, out, _ = run(
        "recommend", "--nodes", np, "--links", lp, "--user", "101", "--json"
    )
    assert code == 0
    got = [(json.loads(line)["item"], json.loads(line)["score"]) for line in out.splitlines()]
    _, want = cf_recommend(cf_fixture(), "101", DiscoveryConfig())
    assert got == want[:10]


def test_recommend_content_equals_api(cf_files):
    np, lp = cf_files
    code, out, _ = run(
        "recommend", "--nodes", np, "--links", lp, "--user", "101", "--method", "content", "--json"
    )
    assert code == 0
    got = [json.loads(line) for line in out.splitlines()]
    want = content_recommend(cf_fixture(), "101", 10)
    assert [(r["item"], r["score"]) for r in got] == want


def test_recommend_unknown_user_exit_1(cf_files):
    np, lp = cf_files
    code, out, err = run("recommend", "--nodes", np, "--links", lp, "--user", "ghost")
    assert code == 1
    assert "unknown user" in err


def test_usage_error_exit_2():
    code, _, _ = run("recommend")  # missing required args
    assert code == 2
    code, _, _ = run("no-such-command")
    assert code == 2


def test_query_runs_script(tmp_path, cf_files):
    np, lp = cf_files
    script = tmp_path / "s.sgs"
    script.write_text("A = nsel(G, [type='user'])\nB = lsel(G, [type='visit'])\n")
    out_dir = tmp_path / "out"
    code, out, _ = run(
        "query", "--nodes", np, "--links", lp, "--script", str(script), "--out-dir", str(out_dir)
    )
    assert code == 0
    assert "A\tnodes=3\tlinks=0" in out
    assert "B\tnodes=6\tlinks=6" in out
    from socialgraph.io import load_graph

    a = load_graph(str(out_dir / "A.nodes.jsonl"), str(out_dir / "A.links.jsonl"))
    assert set(a.nodes) == {"101", "102", "103"}


def test_query_syntax_error_exit_1(tmp_path, cf_files):
    np, lp = cf_files
    script = tmp_path / "bad.sgs"
    script.write_text("A = nsel(G,")
    code, _, err = run("query", "--nodes", np, "--links", lp, "--script", str(script))
    assert code == 1
    assert "syntax error" in err


def test_query_runs_a_long_chain_of_named_semi_joins(tmp_path, cf_files):
    """compile recurses neither per semi-join level a selection is pushed
    below nor per key its schedule walk builds, and the second selection
    finds the first one's keys without comparing them level by level: a
    selection over the last of 3,000 chained bindings runs, twice, and
    gives what the bindings give evaluated one at a time."""
    np, lp = cf_files
    n, delta, visit = 3000, DirectionalCondition("src", "src"), "[type='visit']"
    script = tmp_path / "chain.sgs"
    chain = [f"S{i} = semijoin(S{i - 1}, G, (src,src))" for i in range(1, n)]
    selections = [f"{name} = lsel(S{n - 1}, {visit})" for name in "AB"]
    script.write_text("\n".join(["S0 = semijoin(G, G, (src,src))", *chain, *selections, ""]))
    out_dir = tmp_path / "out"
    code, out, err = run("query", "--nodes", np, "--links", lp, "--script", str(script), "--out-dir", str(out_dir))
    assert (code, err) == (0, "")
    g = load_graph(np, lp)
    s = semi_join(g, g, delta)
    for _ in range(1, n):
        s = semi_join(s, g, delta)
    want = link_select(s, parse_condition(visit))
    assert out.splitlines()[-2:] == [f"{name}\tnodes={len(want.nodes)}\tlinks={len(want.links)}" for name in "AB"]
    save_graph(want, str(tmp_path / "want.nodes.jsonl"), str(tmp_path / "want.links.jsonl"))
    for part in ("nodes", "links"):
        assert (out_dir / f"A.{part}.jsonl").read_bytes() == (tmp_path / f"want.{part}.jsonl").read_bytes()


def test_discover_equals_api(cf_files):
    np, lp = cf_files
    code, out, _ = run(
        "discover", "--nodes", np, "--links", lp, "--user", "101",
        "--query", "[name='R']", "--json",
    )
    assert code == 0
    got = [json.loads(line) for line in out.splitlines()]
    msg = discover(cf_fixture(), "101", parse_condition("[name='R']"), DiscoveryConfig())
    assert [(r["item"], r["combined"], r["semantic"], r["social"]) for r in got] == list(
        msg.ranking
    )


def test_build_index_and_topk_roundtrip(tmp_path):
    g = random_tagging_graph(rng_from(81), n_users=20, n_items=40, n_tags=6)
    np, lp = str(tmp_path / "n.jsonl"), str(tmp_path / "l.jsonl")
    save_graph(g, np, lp)
    snap = str(tmp_path / "idx.snap")
    code, out, _ = run(
        "build-index", "--nodes", np, "--links", lp, "--strategy", "network",
        "--theta", "0.5", "--out", snap,
    )
    assert code == 0 and "clusters=" in out
    sets = social_sets(g)
    model = cluster_users(sets, ClusteringStrategy("network", 0.5))
    index = build_index(sets, model, {t for (_, t) in sets.taggers})
    user = sorted(sets.network)[0]
    tag = sorted({t for (_, t) in sets.taggers})[0]
    code, out, _ = run("topk", "--index", snap, "--user", user, "--keywords", tag, "--k", "3")
    assert code == 0
    got = [tuple(line.split("\t")) for line in out.splitlines()]
    want = [(i, str(s)) for i, s in topk_query(index, user, [tag], 3)]
    assert got == want


def test_topk_jazz(jazz_files):
    np, lp = jazz_files
    code, out, _ = run(
        "topk", "--nodes", np, "--links", lp, "--strategy", "network", "--theta", "0.5",
        "--user", "u1", "--keywords", "jazz", "--k", "1",
    )
    assert code == 0
    assert out == "i1\t2\n"


def test_group_equals_api(tmp_path, cf_files):
    np, lp = cf_files
    items = tmp_path / "items.jsonl"
    items.write_text(
        "\n".join(
            json.dumps({"id": i, "score": s})
            for i, s in (("201", 0.9), ("202", 0.7), ("203", 0.5))
        )
        + "\n"
    )
    code, out, _ = run(
        "group", "--nodes", np, "--links", lp, "--items", str(items),
        "--criterion", "social:0.5", "--max-groups", "2", "--json",
    )
    assert code == 0
    got = [json.loads(line) for line in out.splitlines()]
    groups = group_items(
        [("201", 0.9), ("202", 0.7), ("203", 0.5)], cf_fixture(), SocialGrouping(theta=0.5)
    )
    want = select_groups(groups, 2)
    assert [(r["id"], r["members"]) for r in got] == [(w.id, list(w.members)) for w in want]


def test_explain_equals_api(cf_files):
    np, lp = cf_files
    code, out, _ = run(
        "explain", "--nodes", np, "--links", lp, "--user", "101", "--item", "203",
        "--strategy", "collaborative", "--json",
    )
    assert code == 0
    record = json.loads(out)
    want = explain_item(cf_fixture(), "101", "203", "collaborative")
    assert record["summary"] == want.summary
    assert [(e[0], e[1]) for e in record["evidence"]] == list(want.evidence)


def test_query_compose_any_keeps_the_shared_value(tmp_path, jazz_files):
    np, lp = jazz_files
    script = tmp_path / "any.sgs"
    script.write_text("A = compose(G, G, (tgt,tgt), {x: any(type)})\n")
    code, out, err = run("query", "--nodes", np, "--links", lp, "--script", str(script), "--out-dir", str(tmp_path))
    assert (code, out, err) == (0, "A\tnodes=3\tlinks=6\n", "")
    from socialgraph.io import load_graph

    a = load_graph(str(tmp_path / "A.nodes.jsonl"), str(tmp_path / "A.links.jsonl"))
    assert a.links["gen:compose:t2:t3"].attrs["x"] == frozenset({"act", "tag"})


def test_failed_out_dir_save_prints_nothing(tmp_path, cf_files):
    np, lp = cf_files
    script = tmp_path / "s.sgs"
    script.write_text("A = nsel(G, [type='user'])\nB = lsel(G, [type='visit'])\n")
    (tmp_path / "out" / "B.nodes.jsonl").mkdir(parents=True)  # saving binding B fails
    code, out, err = run("query", "--nodes", np, "--links", lp, "--script", str(script),
                         "--out-dir", str(tmp_path / "out"))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_score_formatting_is_six_places(cf_files):
    np, lp = cf_files
    _, out, _ = run("recommend", "--nodes", np, "--links", lp, "--user", "101")
    score = out.split("\t")[1].strip()
    assert score == "0.666667"


@pytest.fixture
def malformed_inputs(tmp_path):
    return write_malformed_inputs(tmp_path)


def write_malformed_inputs(directory) -> dict:
    """Jazz graph files, its index snapshot, and broken variants of each."""
    p = lambda name: str(directory / name)  # noqa: E731
    np, lp = p("jn.jsonl"), p("jl.jsonl")
    save_graph(jazz_fixture(), np, lp)
    sets = social_sets(jazz_fixture())
    model = cluster_users(sets, ClusteringStrategy("network", 0.5))
    save_index_snapshot(build_index(sets, model, ["jazz"]), p("jazz.snap"))
    records = [json.loads(line) for line in (directory / "jazz.snap").read_text("utf-8").splitlines()]
    with open(p("nomodel.snap"), "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in records if "model" not in r)
    assignment = {**records[1]["model"]["assignment"], "u1": "ghost"}
    with open(p("ghost.snap"), "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in (
            records[0], {"model": {**records[1]["model"], "assignment": assignment}}, *records[2:]))
    records[3]["entries"][0][1] = "x"
    with open(p("badscore.snap"), "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in records)
    records[3]["entries"][0][1] = float("nan")
    with open(p("nanscore.snap"), "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in records)
    with open(np, encoding="utf-8") as fh:
        nodes = [json.loads(line) for line in fh]
    with open(lp, encoding="utf-8") as fh:
        links = [json.loads(line) for line in fh]
    # A non-finite numeric id would read as the string id "nan" or "inf".
    extra = {
        "strids.nodes": [*nodes, {"id": "nan", "attrs": {"type": "item"}},
                         {"id": "inf", "attrs": {"type": "user"}}],
        "nanid.nodes": [*nodes, {"id": float("nan"), "attrs": {"type": "user"}}],
        "infsrc.links": [*links, {**links[0], "id": "x", "src": float("inf")}],
    }
    for name, rows in extra.items():
        with open(p(name), "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(r) + "\n" for r in rows)
    nodes[0]["attrs"]["x"] = {"a": 1}
    with open(p("objattr.nodes"), "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in nodes)
    with open(p("jazz.items"), "w", encoding="utf-8") as fh:
        fh.write('{"id": "i1", "score": 1.0}\n')
    open(p("empty.items"), "w", encoding="utf-8").close()
    bad_items = {
        "noid.items": '{"score": 0.5}',
        "array.items": "[1]",
        "nullscore.items": '{"id": "i1", "score": null}',
        "boolscore.items": '{"id": "i1", "score": true}',
        "unknown.items": '{"id": "i1"}\n{"id": "nope"}',
        "nanid.items": '{"id": NaN}',
        "infid.items": '{"id": 1e400}',
        "dup.items": '{"id": "i1", "score": 1.0}\n{"id": "i1", "score": 0.5}',
    }
    for name, text in bad_items.items():
        with open(p(name), "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    with open(p("overflow.sgs"), "w", encoding="utf-8") as fh:
        fh.write("X = laggr(G, [], {s: sum(w@1e400)})\n")
    with open(p("anydiff.sgs"), "w", encoding="utf-8") as fh:
        fh.write("A = compose(G, G, (src,tgt), {x: any(type)})\n")
    with open(p("chainpos.sgs"), "w", encoding="utf-8") as fh:
        fh.write("A = laggr(G, [], {x: set(tgt@7)})\n")
    with open(p("users.sgs"), "w", encoding="utf-8") as fh:
        fh.write("A = nsel(G, [type='user'])\n")
    with open(p("param.sgs"), "w", encoding="utf-8") as fh:
        fh.write("A = nsel(G, $x)\n")
    with open(p("naggr_id.sgs"), "w", encoding="utf-8") as fh:
        fh.write("A = naggr(G, [type='visit'], src, id, count)\n")
    with open(p("hugeint.nodes"), "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in nodes[1:])
        fh.write('{"id": "u1", "attrs": {"type": "user", "w": 1' + "0" * 400 + "}}\n")
    with open(p("longint.nodes"), "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in nodes[1:])
        fh.write('{"id": "u1", "attrs": {"type": "user", "w": ' + TOO_LONG + "}}\n")
    # node x stores user u's id as an attribute, which no graph file may hold
    found = {
        "found.nodes": [{"id": "u", "attrs": {"type": "user"}}, {"id": "x", "attrs": {"type": "user", "id": "u"}},
                        *({"id": d, "attrs": {"type": "item"}} for d in ("d1", "d2", "d3"))],
        "found.links": [{"id": f"v{i}", "src": s, "tgt": t, "attrs": {"type": "visit"}}
                        for i, (s, t) in enumerate((("u", "d1"), ("x", "d1"), ("x", "d2"), ("x", "d3")))],
        "src.links": [*links[:1], {**links[1], "attrs": {**links[1]["attrs"], "src": links[1]["src"]}}, *links[2:]],
    }
    for name, rows in found.items():
        with open(p(name), "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(r) + "\n" for r in rows)
    with open(p("listattrs.nodes"), "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in nodes[1:])
        fh.write('{"id": "z", "attrs": ["user"]}\n')
    with open(p("short.snap"), "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in records[:2])
    deep_json = "[" * 100_000 + "]" * 100_000 + "\n"
    with open(p("deep.nodes"), "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in nodes[1:])
        fh.write(deep_json)
    with open(p("deep.items"), "w", encoding="utf-8") as fh:
        fh.write('{"id": "i1"}\n' + deep_json)
    with open(p("deep.snap"), "w", encoding="utf-8") as fh:
        fh.write((directory / "jazz.snap").read_text("utf-8") + deep_json)
    scripts = {"laggr_src.sgs": "A = laggr(G, [], {src: count})", "deep.sgs": "A = " + "lsel(" * 5000 + "G" + ", [])" * 5000}
    for name, text in scripts.items():
        with open(p(name), "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return {"nodes": np, "links": lp, **{name: p(name) for name in (
        "jazz.snap", "nomodel.snap", "ghost.snap", "badscore.snap", "nanscore.snap", *extra, "objattr.nodes", "jazz.items",
        "empty.items", "longint.nodes",
        "never.snap",
        "overflow.sgs", "anydiff.sgs", "chainpos.sgs", "users.sgs", "param.sgs", "naggr_id.sgs", "hugeint.nodes", *bad_items,
        *found, "listattrs.nodes", "short.snap", "deep.nodes", "deep.items", "deep.snap", *scripts,
    )}}


ESTIMATE_ARGS = ["--users", "10", "--items", "10", "--tags-per-item", "1", "--tagger-fraction", "0.5", "--bytes", "1"]
HUGE = "1" + "0" * 400  # an int beyond float range
TOO_LONG = "1" + "0" * 5000  # more digits than int() converts from a string
MALFORMED = [
    ("object-valued attribute", ["recommend", "--nodes", "objattr.nodes", "--links", "links", "--user", "u1"]),
    ("snapshot without model", ["topk", "--index", "nomodel.snap", "--user", "u1", "--keywords", "jazz"]),
    ("snapshot user in a leaderless cluster", ["topk", "--index", "ghost.snap", "--user", "u1", "--keywords", "jazz"]),
    ("non-numeric snapshot score", ["topk", "--index", "badscore.snap", "--user", "u1", "--keywords", "jazz"]),
    ("topk --k 0", ["topk", "--index", "jazz.snap", "--user", "u1", "--keywords", "jazz", "--k", "0"]),
    ("discover --alpha 2", ["discover", "--nodes", "nodes", "--links", "links", "--user", "u1", "--alpha", "2"]),
    ("build-index --theta 1.5", ["build-index", "--nodes", "nodes", "--links", "links",
                                 "--strategy", "network", "--theta", "1.5", "--out", "never.snap"]),
    ("group --criterion social:x", ["group", "--nodes", "nodes", "--links", "links",
                                    "--items", "jazz.items", "--criterion", "social:x"]),
    ("group --criterion social:1.5", ["group", "--nodes", "nodes", "--links", "links",
                                      "--items", "jazz.items", "--criterion", "social:1.5"]),
    ("group --criterion bogus", ["group", "--nodes", "nodes", "--links", "links",
                                 "--items", "jazz.items", "--criterion", "bogus"]),
    ("group --max-groups 0", ["group", "--nodes", "nodes", "--links", "links",
                              "--items", "jazz.items", "--criterion", "topical", "--max-groups", "0"]),
    ("group --items empty.items", ["group", "--nodes", "nodes", "--links", "links",
                                   "--items", "empty.items", "--criterion", "topical"]),
    *(
        (f"group --items {name}", ["group", "--nodes", "nodes", "--links", "links",
                                   "--items", name, "--criterion", "topical"])
        for name in ("noid.items", "array.items", "nullscore.items", "boolscore.items")
    ),
    *(
        (f"group --items {name}", ["group", "--nodes", "strids.nodes", "--links", "links",
                                   "--items", name, "--criterion", "topical"])
        for name in ("nanid.items", "infid.items")
    ),
    *(
        (f"topk --keywords {kw!r}", ["topk", "--index", "jazz.snap", "--user", "u1", "--keywords", kw])
        for kw in (",", "")
    ),
    ("group --items with a repeated id", ["group", "--nodes", "nodes", "--links", "links",
                                          "--items", "dup.items", "--criterion", "topical"]),
    ("snapshot score NaN", ["topk", "--index", "nanscore.snap", "--user", "u1", "--keywords", "jazz"]),
    ("node id NaN", ["query", "--nodes", "nanid.nodes", "--links", "links", "--script", "users.sgs"]),
    ("link src Infinity", ["recommend", "--nodes", "strids.nodes", "--links", "infsrc.links", "--user", "u1"]),
    *(
        (f"group unknown item {criterion}", ["group", "--nodes", "nodes", "--links", "links",
                                             "--items", "unknown.items", "--criterion", criterion])
        for criterion in ("social:0.5", "topical", "structural:name")
    ),
    ("query chain position 1e400", ["query", "--nodes", "nodes", "--links", "links", "--script", "overflow.sgs"]),
    ("query compose any() disagreeing", ["query", "--nodes", "nodes", "--links", "links", "--script", "anydiff.sgs"]),
    ("query chain position on a link row", ["query", "--nodes", "nodes", "--links", "links",
                                            "--script", "chainpos.sgs"]),
    ("query unbound $x", ["query", "--nodes", "nodes", "--links", "links", "--script", "param.sgs"]),
    ("discover --query $x", ["discover", "--nodes", "nodes", "--links", "links", "--user", "u1", "--query", "$x"]),
    *(
        (f"discover --query kw:'{kw}'", ["discover", "--nodes", "nodes", "--links", "links", "--user", "u1",
                                         "--query", f"[type='item'; kw:'{kw}']"])
        for kw in ("jazz,", "")
    ),
    ("integer attribute beyond float range", ["recommend", "--nodes", "hugeint.nodes", "--links", "links",
                                              "--user", "u1"]),
    ("integer attribute of 5,001 digits", ["query", "--nodes", "longint.nodes", "--links", "links",
                                           "--script", "users.sgs"]),
    *(
        (f"{' '.join(argv)} --k {k}", [argv[0], "--nodes", "nodes", "--links", "links",
                                       "--user", "u1", *argv[1:], "--k", k])
        for argv in (["recommend", "--method", "cf"], ["recommend", "--method", "content"], ["discover"])
        for k in ("0", "-1")
    ),
    ("recommend --method content --alpha 2", ["recommend", "--nodes", "nodes", "--links", "links",
                                              "--user", "u1", "--method", "content", "--alpha", "2"]),
    *(
        (f"{' '.join(argv)} --threshold {t}", [argv[0], "--nodes", "nodes", "--links", "links",
                                               "--user", "u1", *argv[1:], "--threshold", t])
        for argv in (["recommend", "--method", "cf"], ["recommend", "--method", "content"], ["discover"])
        for t in ("nan", "inf", "-5")
    ),
    ("recommend on a node storing 'id'", ["recommend", "--nodes", "found.nodes", "--links", "found.links",
                                          "--user", "u", "--threshold", "0"]),
    ("discover on a node storing 'id'", ["discover", "--nodes", "found.nodes", "--links", "found.links", "--user", "u"]),
    ("link storing 'src'", ["recommend", "--nodes", "nodes", "--links", "src.links", "--user", "u1"]),
    ("query laggr into src", ["query", "--nodes", "nodes", "--links", "links", "--script", "laggr_src.sgs"]),
    ("node file nested too deeply", ["recommend", "--nodes", "deep.nodes", "--links", "links", "--user", "u1"]),
    ("group --items nested too deeply", ["group", "--nodes", "nodes", "--links", "links",
                                         "--items", "deep.items", "--criterion", "topical"]),
    ("snapshot nested too deeply", ["topk", "--index", "deep.snap", "--user", "u1", "--keywords", "jazz"]),
    ("query nested 5000 deep", ["query", "--nodes", "nodes", "--links", "links", "--script", "deep.sgs"]),
    ("topk without --index or a graph", ["topk", "--user", "u1", "--keywords", "jazz"]),
    ("topk with --nodes only", ["topk", "--nodes", "nodes", "--user", "u1", "--keywords", "jazz"]),
    ("node attrs not an object", ["recommend", "--nodes", "listattrs.nodes", "--links", "links", "--user", "u1"]),
    ("snapshot of two lines", ["topk", "--index", "short.snap", "--user", "u1", "--keywords", "jazz"]),
    *(
        (f"estimate-index {option} {value[:8]}", ["estimate-index", *ESTIMATE_ARGS, option, value])
        for option, value in (("--tagger-fraction", "inf"), ("--tagger-fraction", "1e308"),
                              ("--tagger-fraction", "nan"), ("--tagger-fraction", "2"),
                              ("--users", HUGE))
    ),
]


OPTION_ERRORS = [
    (["recommend", "--method", "content", "--alpha", "2"], "alpha must be in [0, 1], got 2.0"),
    *(
        ([*argv, "--threshold", t], f"threshold must be in [0, 1], got {float(t)!r}")
        for argv in (["recommend", "--method", "cf"], ["recommend", "--method", "content"], ["discover"])
        for t in ("nan", "inf", "-5")
    ),
]


@pytest.mark.parametrize("argv, message", OPTION_ERRORS, ids=[" ".join(argv) for argv, _ in OPTION_ERRORS])
def test_discovery_options_are_checked_for_every_method(cf_files, argv, message):
    np, lp = cf_files
    assert run(argv[0], "--nodes", np, "--links", lp, "--user", "101", *argv[1:]) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, line",
    [
        (["query", "--script", "naggr_id.sgs"], "error: while evaluating 'A': aggregation may not overwrite 'id'"),
        (["query", "--script", "laggr_src.sgs"], "error: while evaluating 'A': aggregation may not overwrite 'src'"),
        (["query", "--script", "deep.sgs"],
         "error: syntax error at line 1, column 505: expected at most 100 nested operator calls"),
        (["query", "--script", "chainpos.sgs"],
         "error: while evaluating 'A': chain has no step 7 (attribute 'tgt')"),
        (["discover", "--user", "u1", "--query", "[w > 1e400]"],
         "error: syntax error at line 1, column 6: expected a number within float range"),
        (["discover", "--user", "u1", "--query", "[type='item'; kw:'jazz,']"],
         "error: syntax error at line 1, column 18: expected keywords of one token each (found 'jazz,')"),
        (["discover", "--user", "u1", "--query", "[; kw:'']"],
         "error: syntax error at line 1, column 7: expected keywords of one token each (found '')"),
    ],
    ids=["query naggr into id", "query laggr into src", "query nested 5000 deep", "query chain position on a link row", "discover --query 1e400", "discover --query kw:'jazz,'", "discover --query kw:''"],
)
def test_dsl_errors_name_the_binding_or_position(malformed_inputs, argv, line):
    graph = ["--nodes", malformed_inputs["nodes"], "--links", malformed_inputs["links"]]
    assert run(argv[0], *graph, *(malformed_inputs.get(a, a) for a in argv[1:])) == (1, "", line + "\n")


@pytest.mark.parametrize(
    "option, value, line",
    [
        *(("--tagger-fraction", v, f"error: tagger fraction must be in [0, 1], got {float(v)!r}")
          for v in ("nan", "inf", "1e308", "2")),
        ("--users", HUGE, "error: index size is beyond float range"),
    ],
    ids=["nan", "inf", "1e308", "2", "huge users"],
)
def test_estimate_index_names_a_bad_size_input(option, value, line):
    assert run("estimate-index", *ESTIMATE_ARGS, option, value) == (1, "", line + "\n")


@pytest.mark.parametrize("argv", [argv for _, argv in MALFORMED], ids=[name for name, _ in MALFORMED])
def test_malformed_input_gives_one_error_line(malformed_inputs, argv):
    code, out, err = run(*(malformed_inputs.get(a, a) for a in argv))
    assert code in (1, 2)
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    assert not os.path.exists(malformed_inputs["never.snap"])


# The exact error line of malformed calls that once exited 0, and of
# the group argument checks.
ERROR_LINES = {
    "topk --keywords ','": "error: topk needs at least one keyword",
    "topk --keywords ''": "error: topk needs at least one keyword",
    "group --items with a repeated id": "error: duplicate item id: 'i1'",
    "group --criterion social:1.5": "error: theta must be in [0, 1], got 1.5",
    "group --criterion bogus": "error: bad --criterion: 'bogus'",
    "group --max-groups 0": "error: max_n must be at least 1",
    "group --items empty.items": "error: group_items needs a non-empty item list",
    "topk without --index or a graph": "error: topk needs --index or both --nodes and --links",
    "topk with --nodes only": "error: topk needs --index or both --nodes and --links",
}


def _too_long_message() -> str | None:
    """The message of int()'s limit on the digits it converts from a
    string, which names the limit and the number's digits."""
    try:
        int(TOO_LONG)
    except ValueError as e:
        return str(e)
    return None  # a Python without the limit


# Malformed files: the file, its line and the message of each error line.
FILE_ERROR_LINES = {
    "recommend on a node storing 'id'": ("found.nodes", 2, "'id' is an identity field, not an attribute name"),
    "discover on a node storing 'id'": ("found.nodes", 2, "'id' is an identity field, not an attribute name"),
    "link storing 'src'": ("src.links", 2, "'src' is an identity field, not an attribute name"),
    "node file nested too deeply": ("deep.nodes", 4, "invalid JSON: nested too deeply"),
    "group --items nested too deeply": ("deep.items", 2, "invalid JSON: nested too deeply"),
    "snapshot nested too deeply": ("deep.snap", 5, "invalid JSON: nested too deeply"),
    "node attrs not an object": ("listattrs.nodes", 4, "'attrs' must be an object"),
    "snapshot of two lines": ("short.snap", 1, "truncated index snapshot"),
    "integer attribute of 5,001 digits": ("longint.nodes", 4, _too_long_message()),
}


@pytest.mark.parametrize("name", FILE_ERROR_LINES)
def test_malformed_file_error_line(malformed_inputs, name):
    argv = dict(MALFORMED)[name]
    file, line, message = FILE_ERROR_LINES[name]
    expected = f"error: {malformed_inputs[file]}:{line}: {message}\n"
    assert run(*(malformed_inputs.get(a, a) for a in argv)) == (1, "", expected)


@pytest.mark.parametrize("name", ERROR_LINES)
def test_malformed_input_error_line(malformed_inputs, name):
    argv = dict(MALFORMED)[name]
    assert run(*(malformed_inputs.get(a, a) for a in argv)) == (1, "", ERROR_LINES[name] + "\n")


@pytest.fixture(scope="module")
def malformed_modules(tmp_path_factory):
    """Each malformed call's exit code and loaded modules, by its argv;
    one child interpreter runs them all."""
    directory = tmp_path_factory.mktemp("malformed")
    inputs = write_malformed_inputs(directory)
    calls = [[inputs.get(a, a) for a in argv] for _, argv in MALFORMED]
    return dict(zip((tuple(argv) for _, argv in MALFORMED), cli_modules_loaded(calls, directory)))


@pytest.mark.parametrize("argv", [argv for _, argv in MALFORMED], ids=[name for name, _ in MALFORMED])
def test_malformed_call_loads_only_its_subcommands_modules(malformed_modules, argv):
    code, modules = malformed_modules[tuple(argv)]
    assert code in (1, 2)
    # a call can fail before it reaches the code of every module listed
    assert {"cli", "errors"} <= modules <= expected_cli_modules(argv, code)
