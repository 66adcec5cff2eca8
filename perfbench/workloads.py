"""The four benchmark workloads.

Each workload is a closed loop with one client in this process. A
round is the workload's unit of work (one user served, a batch of
queries, one write-path pass, one CLI session); ``run_round`` times each
operation through ``meter.op`` and returns a key plus the outputs to
check. ``verify`` runs after every round, outside the timed operations:
by default the first outputs of each key are kept and checked against
``oracles`` after the timed phase, and later rounds with the same key
must repeat them exactly.

Inputs come only from ``socialgraph.fixtures`` with explicit seeds, so
``SOCIALSCOPE_SEED`` cannot change them.
"""

from __future__ import annotations

import io as stdio
import json
import os
import random
import subprocess
import sys

from socialgraph import discovery, dsl, fixtures, index, io, presentation
from socialgraph.cli import run_command
from socialgraph.graph import Condition, attr_eq

import oracles
from oracles import Raw, TagSets, require

# The CF similarity threshold. At the CLI default of 0.5 sampled users
# got no recommendation at all, so the second half of the CF plan did no
# work; at 0.1 every sampled user gets a full ranking.
CF_THRESHOLD = 0.1
ALPHA = 0.5
DISCOVER_K = 30
CONTENT_K = 10
GROUP_THETA = 0.3
# Coarse clusters give loose bounds, so top-k makes many random accesses;
# at this threshold each community becomes about one cluster, so the
# index's shape (and a query's cost) varies little from seed to seed.
TOPK_STRATEGY = index.ClusteringStrategy("network", 0.05)
TOPK_POOL = 2000
TOPK_BATCH = 20
TOPK_KS = (1, 5, 10, 20)
BUILD_STRATEGIES = (
    index.ClusteringStrategy("network", 0.3),
    index.ClusteringStrategy("behavior", 0.1),
    index.ClusteringStrategy("hybrid", 0.1),
)
DESTINATION = Condition(preds=(attr_eq("type", "destination"),))
TRAVEL_GRAPHS = 3
TRAVEL_CONFIG = discovery.DiscoveryConfig(alpha=ALPHA, sim_threshold=CF_THRESHOLD, k=DISCOVER_K)

SCRIPT = """\
ME  = nsel(G, [id='{user}'])
G1  = lsel(semijoin(G, ME, (src,src)), [type='visit'])
G1v = naggr(G1, [type='visit'], src, vst, set(tgt))
OTH = nsel(G, [id!='{user}'])
G2  = lsel(semijoin(G, OTH, (src,src)), [type='visit'])
G2v = naggr(G2, [type='visit'], src, vst, set(tgt))
G3  = compose(G1v, G2v, (tgt,tgt), {{sim: jaccard(lsrc.vst, rsrc.vst)}})
G4  = laggr(G3, [sim>{theta!r}], {{type: const('match'), sim: any(sim)}})
G4m = lsel(G4, [type='match'])
G5  = lsel(semijoin(G, nsel(G, [type='destination']), (tgt,src)), [type='visit'])
G6  = compose(semijoin(G4m, G5, (tgt,src)), semijoin(G5, G4m, (src,tgt)), (tgt,src), {{sim_sc: copy(l.sim)}})
G7  = laggr(G6, [], {{score: avg(sim_sc)}})
S1  = lsel(semijoin(G, ME, (src,src)), [type='friend'])
S2  = lsel(semijoin(G, nsel(G, [type='destination']), (tgt,src)), [type='visit'])
S3  = semijoin(S1, S2, (tgt,src))
S4  = semijoin(S2, S1, (src,tgt))
S5  = union(S3, S4)
S6  = lsel(semijoin(G, S3, (src,tgt)), [type='act'])
S7  = union(S5, S6)
"""


def cf_search_script(user: str) -> str:
    """The CF plan and the network-search plan for one user in one
    script, so their shared subexpressions merge in the compiled DAG."""
    return SCRIPT.format(user=user, theta=CF_THRESHOLD)


def _users(g) -> list:
    return sorted(nid for nid, n in g.nodes.items() if "user" in n.attrs["type"])


def _own_tags(g) -> dict:
    """user -> sorted tags of the user's own 'tag' links."""
    out: dict = {}
    for l in g.links.values():
        if "tag" in l.attrs["type"]:
            out.setdefault(l.src, set()).update(t for t in l.attrs.get("tags", ()) if isinstance(t, str))
    return {u: sorted(tags) for u, tags in out.items()}


def _pick_keywords(rng, own: list, vocab: list, n: int) -> tuple:
    """n distinct keywords, mostly from the user's own vocabulary."""
    out: list = []
    while len(out) < n:
        kw = rng.choice(own if own and rng.random() < 0.8 else vocab)
        if kw not in out:
            out.append(kw)
    return tuple(out)


class Workload:
    name = ""
    ops_per_round = 0

    def setup(self, seed: int, scale: int, workdir: str):
        raise NotImplementedError

    def run_round(self, state, i: int, meter):
        """Run one round; returns (key, outputs, failed operations)."""
        raise NotImplementedError

    def prepare_checks(self, state) -> None:
        """Compute references the per-round checks need; runs after
        set-up and before the timed phase."""

    def check_setup(self, state) -> None:
        """Check what set-up built (indexes the loop reads)."""

    def verify(self, state, key, outputs, first: dict) -> None:
        """Called after each round, outside the timed operations. The
        first outputs of a key are kept for ``check`` after the timed
        phase; later ones must equal them."""
        if key not in first:
            first[key] = outputs
        else:
            require(outputs == first[key], f"outputs for {key!r} changed between rounds")

    def check(self, state, key, outputs) -> None:
        raise NotImplementedError


# ---------------------------------------------------------------------------


class TravelServe(Workload):
    """Serve one travel user per round: CF, discovery, content
    recommendation, two explanations, three groupings and one script.

    Rounds cycle over TRAVEL_GRAPHS graphs generated from the seed, so a
    run's cost is an average over several graphs rather than the
    accident of one."""

    name = "travel-serve"
    ops_per_round = 6

    def setup(self, seed, scale, workdir):
        return {"graphs": [self._graph_state(seed, j, scale) for j in range(TRAVEL_GRAPHS)]}

    def _graph_state(self, seed, j, scale) -> dict:
        g = fixtures.random_travel_graph(
            fixtures.rng_from(TRAVEL_GRAPHS * seed + j), 60 * scale, 120 * scale
        )
        rng = random.Random(f"{seed}:{self.name}:{j}")
        # Light and heavy users alternate (by their number of links), so
        # that every stretch of the loop costs about the same and a run's
        # figures do not depend on how many users it reached.
        degree = {}
        for l in g.links.values():
            degree[l.src] = degree.get(l.src, 0) + 1
        by_degree = sorted(_users(g), key=lambda u: (degree.get(u, 0), u))
        users = [u for pair in zip(by_degree, reversed(by_degree)) for u in pair][: len(by_degree)]
        vocab = sorted(
            {kw for n in g.nodes.values() if "destination" in n.attrs["type"] for kw in n.attrs.get("keywords", ())}
        )
        return {
            "g": g,
            "users": users,
            "queries": {
                u: Condition(preds=DESTINATION.preds, keywords=tuple(rng.sample(vocab, 2))) for u in users
            },
            "scripts": {u: cf_search_script(u) for u in users},
            "items": sorted(nid for nid, n in g.nodes.items() if "item" in n.attrs["type"]),
        }

    def run_round(self, state, i, meter):
        j = i % TRAVEL_GRAPHS
        gs = state["graphs"][j]
        g, cfg = gs["g"], TRAVEL_CONFIG
        u = gs["users"][(i // TRAVEL_GRAPHS) % len(gs["users"])]
        with meter.op("cf_recommend"):
            scored, cf_rank = discovery.cf_recommend(g, u, cfg)
        with meter.op("discover"):
            msg = discovery.discover(g, u, gs["queries"][u], cfg)
        with meter.op("content_recommend"):
            content = discovery.content_recommend(g, u, CONTENT_K)
        target = (cf_rank or content or [(gs["items"][0], 0.0)])[0][0]
        with meter.op("explain"):
            explained = tuple(
                presentation.explain_item(g, u, target, s) for s in ("content", "collaborative")
            )
        items = [(item, combined) for item, combined, *_ in msg.ranking] or [
            (item, 1.0) for item in gs["items"][:DISCOVER_K]
        ]
        criteria = (
            presentation.SocialGrouping(GROUP_THETA),
            presentation.TopicalGrouping(),
            presentation.StructuralGrouping("keywords"),
        )
        with meter.op("group"):
            groups = tuple(presentation.group_items(items, g, c) for c in criteria)
        with meter.op("query_script"):
            results = dsl.run_script(gs["scripts"][u], {"G": g})
        outputs = {
            "cf": (scored, cf_rank),
            "discover": msg.ranking,
            "content": content,
            "target": target,
            "explained": explained,
            "items": items,
            "groups": groups,
            "script": (list(results), results["G7"], results["S7"]),
        }
        return (j, u), outputs, 0

    def prepare_checks(self, state) -> None:
        """The references for every user, computed before the timed phase
        so that memory does not depend on how many users a run reaches."""
        for gs in state["graphs"]:
            raw = gs["raw"] = Raw(gs["g"])
            gs["expected"] = {
                u: {
                    "cf": oracles.cf_ranking_scores(raw, u, CF_THRESHOLD),
                    "scored": oracles.cf_scores(raw, u, CF_THRESHOLD),
                    "discover": oracles.discover_entries(
                        raw, u, "destination", gs["queries"][u].keywords, ALPHA, CF_THRESHOLD
                    ),
                    "content": oracles.content_scores(raw, u),
                    "search": oracles.search_subgraph(raw, u),
                }
                for u in gs["users"]
            }

    def verify(self, state, key, outputs, first):
        # Every round is checked at once and nothing is kept.
        self.check(state, key, outputs)

    def check(self, state, key, out):
        j, u = key
        gs = state["graphs"][j]
        g, raw, want = gs["g"], gs["raw"], gs["expected"][u]
        scored, cf_rank = out["cf"]
        oracles.check_ranking(f"cf_recommend({u})", cf_rank, want["cf"])
        check_scored(u, scored, want["scored"])
        oracles.check_ranking(f"discover({u})", out["discover"], want["discover"], DISCOVER_K)
        oracles.check_ranking(f"content_recommend({u})", out["content"], want["content"], CONTENT_K)
        for exp in out["explained"]:
            ref = oracles.explanation(raw, u, out["target"], exp.strategy)
            oracles.check_explanation(f"explain_item({u}, {exp.strategy})", exp.evidence, exp.summary, ref)
        for grp, (kind, arg) in zip(out["groups"], (("social", GROUP_THETA), ("topical", None), ("structural", "keywords"))):
            oracles.check_groups(f"group_items({u}, {kind})", grp, out["items"], kind, raw, arg)
        names, cf_graph, search_graph = out["script"]
        require(names == [name for name, _ in dsl.parse(gs["scripts"][u]).stmts], "script bindings")
        require(cf_graph == scored, f"query_script({u}): CF result differs from cf_recommend")
        require(
            search_graph == discovery.network_search(g, u, DESTINATION),
            f"query_script({u}): search result differs from network_search",
        )
        oracles.check_search(f"query_script({u})", search_graph, raw, want["search"])


def check_scored(u, scored, want: dict) -> None:
    """The CF graph holds one u -> destination link per scored
    destination, carrying the reference score."""
    got = {l.tgt: l.attrs["score"] for l in scored.links.values() if l.src == u}
    require(
        len(got) == len(scored.links) == len(want)
        and all(len(v) == 1 and oracles.close(min(v), want.get(d, -1)) for d, v in got.items()),
        f"cf_recommend({u}): scored graph differs from reference",
    )


# ---------------------------------------------------------------------------


class TagSearch(Workload):
    """A batch of top-k tag queries per round against a coarse clustered
    index built during set-up. Query costs are heavy-tailed, so a round
    sums a batch: its median is then steady from one seed to the next,
    while the per-query p50 and p90 are still reported."""

    name = "tag-search"
    ops_per_round = TOPK_BATCH

    def setup(self, seed, scale, workdir):
        g = fixtures.random_tagging_graph(fixtures.rng_from(seed), 600 * scale, 3000 * scale)
        sets = index.social_sets(g)
        model = index.cluster_users(sets, TOPK_STRATEGY)
        tags = sorted({tag for _, tag in sets.taggers})
        idx = index.build_index(sets, model, tags)
        rng = random.Random(f"{seed}:{self.name}")
        own = _own_tags(g)
        # Every user asks equally often and the keyword counts and k
        # values come in fixed proportions, so that pools drawn for
        # different seeds cost about the same.
        users = sorted(sets.users) * (TOPK_POOL // len(sets.users) + 1)
        rng.shuffle(users)
        pool = []
        for j, u in enumerate(users[:TOPK_POOL]):
            keywords = _pick_keywords(rng, own.get(u, []), tags, 1 + j % 3)
            pool.append((u, keywords, TOPK_KS[j // 3 % len(TOPK_KS)]))
        return {"g": g, "index": idx, "tags": tags, "pool": pool}

    def run_round(self, state, i, meter):
        key = i % (len(state["pool"]) // TOPK_BATCH)
        results = []
        for u, keywords, k in state["pool"][key * TOPK_BATCH : (key + 1) * TOPK_BATCH]:
            with meter.op("topk"):
                results.append(index.topk_query(state["index"], u, keywords, k))
        return key, results, 0

    def _ref(self, state) -> TagSets:
        if "ref" not in state:
            state["ref"] = TagSets(state["g"])
        return state["ref"]

    def check_setup(self, state):
        ref, idx = self._ref(state), state["index"]
        oracles.check_clustering(
            "cluster_users", idx.model.assignment, idx.model.leaders, ref, TOPK_STRATEGY.kind, TOPK_STRATEGY.theta
        )
        oracles.check_bounds("build_index", idx.lists, idx.model.assignment, ref.exact_scores(), state["tags"])

    def check(self, state, key, results):
        queries = state["pool"][key * TOPK_BATCH : (key + 1) * TOPK_BATCH]
        for (u, keywords, k), result in zip(queries, results):
            want = self._ref(state).topk(u, keywords, k)
            require(list(result) == want, f"topk_query({u}, {keywords}, {k}): {result!r} != {want!r}")


# ---------------------------------------------------------------------------


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class IndexBuild(Workload):
    """The write path: save and load the graph, derive the social sets,
    cluster and build an index per strategy, save and load a snapshot."""

    name = "index-build"
    ops_per_round = 3  # graph_io, index_build, snapshot_io

    def setup(self, seed, scale, workdir):
        g = fixtures.random_tagging_graph(fixtures.rng_from(seed), 600 * scale, 3000 * scale)
        paths = {k: os.path.join(workdir, f"graph.{k}.jsonl") for k in ("nodes", "links")}
        return {"g": g, "paths": paths, "snapshot": os.path.join(workdir, "index.snapshot.jsonl")}

    def run_round(self, state, i, meter):
        # Each step is timed on its own so that the host-speed probes
        # fall between steps; an operation's time is the sum of its steps.
        nodes, links = state["paths"]["nodes"], state["paths"]["links"]
        with meter.op("graph_io"):
            io.save_graph(state["g"], nodes, links)
        with meter.op("graph_io"):
            loaded = io.load_graph(nodes, links)
        graph_bytes = (_read(nodes), _read(links))
        with meter.op("index_build"):
            sets = index.social_sets(loaded)
            tags = {tag for _, tag in sets.taggers}
        built = []
        for strategy in BUILD_STRATEGIES:
            with meter.op("index_build"):
                model = index.cluster_users(sets, strategy)
            with meter.op("index_build"):
                built.append(index.build_index(sets, model, tags))
        with meter.op("snapshot_io"):
            io.save_index_snapshot(built[0], state["snapshot"])
        with meter.op("snapshot_io"):
            reloaded = io.load_index_snapshot(state["snapshot"])
        outputs = {
            "graph": loaded,
            "graph_bytes": graph_bytes,
            "indexes": [(ix.model.assignment, ix.model.leaders, ix.lists) for ix in built],
            "snapshot": (_read(state["snapshot"]), reloaded),
        }
        return "write-path", outputs, 0

    def check(self, state, key, out):
        g, work = state["g"], os.path.dirname(state["snapshot"])
        require(out["graph"] == g, "load_graph(save_graph(g)) != g")
        again = [os.path.join(work, f"again.{k}.jsonl") for k in ("nodes", "links")]
        io.save_graph(out["graph"], *again)
        require(tuple(_read(p) for p in again) == out["graph_bytes"], "graph round trip is not byte-stable")
        ref = TagSets(g)
        exact = ref.exact_scores()
        for strategy, (assignment, leaders, lists) in zip(BUILD_STRATEGIES, out["indexes"]):
            what = f"{strategy.kind} θ={strategy.theta}"
            oracles.check_clustering(what, assignment, leaders, ref, strategy.kind, strategy.theta)
            oracles.check_bounds(what, lists, assignment, exact, ref.tags)
        data, reloaded = out["snapshot"]
        assignment, leaders, lists = out["indexes"][0]
        require(
            (reloaded.model.assignment, reloaded.model.leaders, reloaded.lists) == (assignment, leaders, lists)
            and reloaded.sets.network == {u: frozenset(v) for u, v in ref.network.items()}
            and reloaded.sets.items == {u: frozenset(v) for u, v in ref.items.items()}
            and reloaded.sets.taggers == {key: frozenset(v) for key, v in ref.taggers.items()},
            "load_index_snapshot(save_index_snapshot(ix)) != ix",
        )
        again = os.path.join(work, "again.snapshot.jsonl")
        io.save_index_snapshot(reloaded, again)
        require(_read(again) == data, "snapshot round trip is not byte-stable")


# ---------------------------------------------------------------------------


def _jsonl(text: str) -> list:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def parse_snapshot(path: str):
    """(assignment, leaders, lists) read straight from the JSON lines."""
    records = _jsonl(_read(path).decode("utf-8"))
    model = records[1]["model"]
    lists = {(r["tag"], r["cluster"]): [tuple(e) for e in r["entries"]] for r in records[3:]}
    return model["assignment"], model["leaders"], lists


class _Row:
    """A group as printed by ``group --json``."""

    def __init__(self, rec):
        self.id, self.label, self.quality = rec["id"], rec["label"], rec["quality"]
        self.size, self.members = rec["size"], tuple(rec["members"])


class Cli(Workload):
    """One CLI session per round: every result-printing subcommand as
    its own process on small files written at set-up, then a fixed set
    of malformed-input invocations outside the session time."""

    name = "cli"
    SESSION = ("query", "recommend-cf", "recommend-content", "discover", "build-index", "topk", "group", "explain")
    ops_per_round = len(SESSION) + 7

    def __init__(self, src_dir: str):
        self.env = {k: v for k, v in os.environ.items() if k != "SOCIALSCOPE_SEED"}
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, (src_dir, os.environ.get("PYTHONPATH"))))
        self.in_process = False  # the traced run calls run_command instead

    def setup(self, seed, scale, workdir):
        p = lambda name: os.path.join(workdir, name)  # noqa: E731
        travel = fixtures.random_travel_graph(fixtures.rng_from(seed), 50 * scale, 100 * scale)
        tagging = fixtures.random_tagging_graph(fixtures.rng_from(seed), 300 * scale, 1500 * scale)
        io.save_graph(travel, p("travel.nodes"), p("travel.links"))
        io.save_graph(tagging, p("tag.nodes"), p("tag.links"))
        sets = index.social_sets(tagging)
        model = index.cluster_users(sets, TOPK_STRATEGY)
        tags = sorted({tag for _, tag in sets.taggers})
        io.save_index_snapshot(index.build_index(sets, model, tags), p("tag.snapshot"))

        rng = random.Random(f"{seed}:{self.name}")
        user = rng.choice(_users(travel))
        dests = sorted(n for n, node in travel.nodes.items() if "destination" in node.attrs["type"])
        tagged = sorted({l.tgt for l in travel.links.values() if "tag" in l.attrs["type"]})
        item = rng.choice(tagged or dests)
        vocab = sorted({kw for d in dests for kw in travel.nodes[d].attrs.get("keywords", ())})
        keywords = rng.sample(vocab, 2)
        tag_user = rng.choice(sorted(sets.users))
        tag_keywords = _pick_keywords(rng, _own_tags(tagging).get(tag_user, []), tags, 2)
        items = [(d, round(rng.uniform(0.1, 1.0), 3)) for d in rng.sample(dests, min(30, len(dests)))]
        with open(p("items.jsonl"), "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps({"id": d, "score": s}) + "\n" for d, s in items)
        with open(p("script.sgs"), "w", encoding="utf-8") as fh:
            fh.write(cf_search_script(user))
        query = f"[type='destination'; kw:'{' '.join(keywords)}']"

        tg = ["--nodes", p("travel.nodes"), "--links", p("travel.links")]
        session = [
            ["query", *tg, "--script", p("script.sgs"), "--json"],
            ["recommend", *tg, "--user", user, "--method", "cf", "--threshold", str(CF_THRESHOLD), "--k", "10", "--json"],
            ["recommend", *tg, "--user", user, "--method", "content", "--k", "10", "--json"],
            ["discover", *tg, "--user", user, "--query", query, "--threshold", str(CF_THRESHOLD),
             "--alpha", str(ALPHA), "--k", "10", "--json"],
            ["build-index", "--nodes", p("tag.nodes"), "--links", p("tag.links"), "--strategy",
             TOPK_STRATEGY.kind, "--theta", str(TOPK_STRATEGY.theta), "--out", p("session.snapshot"), "--json"],
            ["topk", "--index", p("tag.snapshot"), "--user", tag_user, "--keywords", ",".join(tag_keywords),
             "--k", "10", "--json"],
            ["group", *tg, "--items", p("items.jsonl"), "--criterion", f"social:{GROUP_THETA}",
             "--max-groups", "1000", "--json"],
            ["explain", *tg, "--user", user, "--item", item, "--strategy", "collaborative", "--json"],
        ]
        return {
            "travel": travel,
            "tagging": tagging,
            "session": session,
            "malformed": self._malformed(workdir),
            "user": user,
            "item": item,
            "keywords": keywords,
            "tag_user": tag_user,
            "tag_keywords": tag_keywords,
            "items": items,
            "paths": {"session": p("session.snapshot"), "setup": p("tag.snapshot")},
        }

    @staticmethod
    def _malformed(workdir) -> list:
        """Invocations on fixed (seed-independent) inputs that must each
        end in exit 1 or 2 with one 'error:' line and no output."""
        p = lambda name: os.path.join(workdir, name)  # noqa: E731
        jazz = fixtures.jazz_fixture()
        io.save_graph(jazz, p("jazz.nodes"), p("jazz.links"))
        sets = index.social_sets(jazz)
        model = index.cluster_users(sets, index.ClusteringStrategy("network", 0.5))
        io.save_index_snapshot(index.build_index(sets, model, ["jazz"]), p("jazz.snapshot"))
        lines = _read(p("jazz.snapshot")).decode("utf-8").splitlines(keepends=True)
        with open(p("nomodel.snapshot"), "w", encoding="utf-8") as fh:
            fh.writelines(line for line in lines if not line.startswith('{"model"'))
        with open(p("badscore.snapshot"), "w", encoding="utf-8") as fh:
            fh.writelines(line.replace('["i1",2]', '["i1","x"]') for line in lines)
        records = _jsonl(_read(p("jazz.nodes")).decode("utf-8"))
        records[0]["attrs"]["x"] = {"a": 1}
        with open(p("objattr.nodes"), "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(r) + "\n" for r in records)
        with open(p("jazz.items"), "w", encoding="utf-8") as fh:
            fh.write('{"id": "i1", "score": 1.0}\n')
        jz = ["--nodes", p("jazz.nodes"), "--links", p("jazz.links")]
        return [
            ("object-valued attribute", ["recommend", "--nodes", p("objattr.nodes"), "--links",
                                         p("jazz.links"), "--user", "u1"]),
            ("snapshot without model", ["topk", "--index", p("nomodel.snapshot"), "--user", "u1", "--keywords", "jazz"]),
            ("non-numeric snapshot score", ["topk", "--index", p("badscore.snapshot"), "--user", "u1",
                                            "--keywords", "jazz"]),
            ("topk --k 0", ["topk", "--index", p("jazz.snapshot"), "--user", "u1", "--keywords", "jazz", "--k", "0"]),
            ("discover --alpha 2", ["discover", *jz, "--user", "u1", "--alpha", "2"]),
            ("build-index --theta 1.5", ["build-index", *jz, "--strategy", "network", "--theta", "1.5",
                                         "--out", p("never.snapshot")]),
            ("group --criterion social:x", ["group", *jz, "--items", p("jazz.items"), "--criterion", "social:x"]),
        ]

    def _spawn(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "socialgraph.cli", *argv],
            env=self.env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def _in_process(self, argv):
        out, err = stdio.StringIO(), stdio.StringIO()
        code = run_command(argv, out=out, err=err)
        return code, out.getvalue(), err.getvalue()

    def preflight(self, src_dir: str) -> None:
        """The subprocesses must run the package under test."""
        code, out, _ = self._spawn(["--help"])
        found = subprocess.run(
            [sys.executable, "-c", "import socialgraph; print(socialgraph.__file__)"],
            env=self.env, capture_output=True, text=True, timeout=60,
        ).stdout.strip()
        require(code == 0 and found.startswith(src_dir), f"subprocesses import {found!r}")

    def run_round(self, state, i, meter):
        outputs = []
        for name, argv in zip(self.SESSION, state["session"]):
            with meter.op(name, span=f"cli.{argv[0]}"):
                result = self._in_process(argv) if self.in_process else self._spawn(argv)
            outputs.append(result)
        failed = 0
        for name, argv in state["malformed"]:
            with meter.op("malformed", in_round=False):
                code, out, err = self._spawn(argv)
            lines = err.strip().splitlines()
            ok = code in (1, 2) and out == "" and len(lines) == 1 and lines[0].startswith("error:")
            failed += not ok
        return "session", outputs, failed

    def check(self, state, key, outputs):
        raw = Raw(state["travel"])
        ref = TagSets(state["tagging"])
        for name, (code, out, err) in zip(self.SESSION, outputs):
            require(code == 0 and err == "", f"cli {name}: exit {code}, stderr {err[-300:]!r}")
        text = dict(zip(self.SESSION, (out for _, out, _ in outputs)))
        u = state["user"]

        rows = _jsonl(text["query"])
        script_names = [name for name, _ in dsl.parse(cf_search_script(u)).stmts]
        require([r["binding"] for r in rows] == script_names, "cli query: bindings")
        counts = {r["binding"]: (r["nodes"], r["links"]) for r in rows}
        scores = oracles.cf_scores(raw, u, CF_THRESHOLD)
        require(counts["G7"] == ((1 + len(scores)) if scores else 0, len(scores)), "cli query: CF counts")
        nodes, links = oracles.search_subgraph(raw, u)
        require(counts["S7"] == (len(nodes), len(links)), "cli query: search counts")

        cf_rows = [(r["item"], r["score"]) for r in _jsonl(text["recommend-cf"])]
        oracles.check_ranking("cli recommend cf", cf_rows, oracles.cf_ranking_scores(raw, u, CF_THRESHOLD), 10)
        content_rows = [(r["item"], r["score"]) for r in _jsonl(text["recommend-content"])]
        oracles.check_ranking("cli recommend content", content_rows, oracles.content_scores(raw, u), 10)
        disc = [(r["item"], r["combined"], r["semantic"], r["social"]) for r in _jsonl(text["discover"])]
        want = oracles.discover_entries(raw, u, "destination", state["keywords"], ALPHA, CF_THRESHOLD)
        oracles.check_ranking("cli discover", disc, want, 10)

        (record,) = _jsonl(text["build-index"])
        exact = ref.exact_scores()
        for which in ("setup", "session"):
            assignment, leaders, lists = parse_snapshot(state["paths"][which])
            what = f"cli build-index ({which} snapshot)"
            oracles.check_clustering(what, assignment, leaders, ref, TOPK_STRATEGY.kind, TOPK_STRATEGY.theta)
            oracles.check_bounds(what, lists, assignment, exact, ref.tags)
        require(
            record == {"clusters": len(leaders), "lists": len(lists), "users": len(assignment)},
            "cli build-index: printed counts",
        )
        require(
            _read(state["paths"]["session"]) == _read(state["paths"]["setup"]),
            "cli build-index: snapshot differs from the API's",
        )

        top = [(r["item"], r["score"]) for r in _jsonl(text["topk"])]
        want_top = ref.topk(state["tag_user"], state["tag_keywords"], 10)
        require(top == want_top, f"cli topk: {top!r} != {want_top!r}")

        groups = [_Row(r) for r in _jsonl(text["group"])]
        oracles.check_groups("cli group", groups, state["items"], "social", raw, GROUP_THETA)

        (exp,) = _jsonl(text["explain"])
        oracles.check_explanation(
            "cli explain",
            [tuple(e) for e in exp["evidence"]],
            exp["summary"],
            oracles.explanation(raw, u, state["item"], "collaborative"),
        )


WORKLOADS = {w.name: w for w in (TravelServe, TagSearch, IndexBuild, Cli)}
