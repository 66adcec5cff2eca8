"""The DSL script corpus: every script paired with the hand-built
operator pipeline it must match, binding for binding; and two scripts
of selections over semi-joins that the plan tests share."""

from __future__ import annotations

import os

from socialgraph.aggfn import (
    COUNT,
    CompositionFn,
    ConstString,
    CopyAny,
    CopyFrom,
    JaccardOf,
    SafExpr,
    avg_of,
    max_of,
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
from socialgraph.fixtures import cf_fixture, minus_pair, random_travel_graph, rng_from
from socialgraph.graph import Condition, DirectionalCondition as D, attr_eq, attr_gt, attr_ne, has_all

SCRIPT_DIR = os.path.join(os.path.dirname(__file__), "scripts")


def read_script(name: str) -> str:
    with open(os.path.join(SCRIPT_DIR, name), "r", encoding="utf-8") as fh:
        return fh.read()


# perfbench's combined CF and network-search script, with its threshold
# written in and USER for the user's id. G1 and S1 select from one
# semijoin(G, ME); each is pushed below it, so G1 is the CF plan's G1,
# semijoin(lsel(G, visit), ME), and S1 the search plan's.
COMBINED_SCRIPT = """\
ME  = nsel(G, [id='USER'])
G1  = lsel(semijoin(G, ME, (src,src)), [type='visit'])
G1v = naggr(G1, [type='visit'], src, vst, set(tgt))
OTH = nsel(G, [id!='USER'])
G2  = lsel(semijoin(G, OTH, (src,src)), [type='visit'])
G2v = naggr(G2, [type='visit'], src, vst, set(tgt))
G3  = compose(G1v, G2v, (tgt,tgt), {sim: jaccard(lsrc.vst, rsrc.vst)})
G4  = laggr(G3, [sim>0.1], {type: const('match'), sim: any(sim)})
G4m = lsel(G4, [type='match'])
G5  = lsel(semijoin(G, nsel(G, [type='destination']), (tgt,src)), [type='visit'])
G6  = compose(semijoin(G4m, G5, (tgt,src)), semijoin(G5, G4m, (src,tgt)), (tgt,src), {sim_sc: copy(l.sim)})
G7  = laggr(G6, [], {score: avg(sim_sc)})
S1  = lsel(semijoin(G, ME, (src,src)), [type='friend'])
S2  = lsel(semijoin(G, nsel(G, [type='destination']), (tgt,src)), [type='visit'])
S3  = semijoin(S1, S2, (tgt,src))
S4  = semijoin(S2, S1, (src,tgt))
S5  = union(S3, S4)
S6  = lsel(semijoin(G, S3, (src,tgt)), [type='act'])
S7  = union(S5, S6)
"""


# Selections over semi-joins: over a semi-join a binding names (V1, F1,
# V5), over a shared one (V1t, F1t, V2, F2) and over nested ones (V6);
# V1 and V1t differ only in δ. U selects from a union, which is no
# semi-join, so it must not be pushed or keyed as W.
FORMS = """\
ME  = nsel(G, {user})
OTH = nsel(G, {others})
P   = nsel(G, {places})
LV  = lsel(G, [type='visit'])
LF  = lsel(G, [type='friend'])
SJ  = semijoin(G, ME, (src,src))
V1  = lsel(SJ, [type='visit'])
F1  = lsel(SJ, [type='friend'])
V1t = lsel(semijoin(G, ME, (tgt,src)), [type='visit'])
F1t = lsel(semijoin(G, ME, (tgt,src)), [type='friend'])
V2  = lsel(semijoin(G, OTH, (src,src)), [type='visit'])
F2  = lsel(semijoin(G, OTH, (src,src)), [type='friend'])
SP  = semijoin(G, P, (tgt,src))
V5  = lsel(SP, [type='visit'])
NJ  = semijoin(SP, OTH, (src,src))
V6  = lsel(NJ, [type='visit'])
U   = lsel(union(SJ, P), [type='visit'])
W   = union(V1, P)
"""


def c(*preds, kw=()):
    return Condition(preds=preds, keywords=kw)


def _travel():
    return {"G": random_travel_graph(rng_from(77), n_users=8, n_places=12)}


def _cf():
    return {"G": cf_fixture()}


def _pair():
    g1, g2 = minus_pair()
    return {"G1": g1, "G2": g2}


def _hand_ex4(env):
    g = env["G"]
    out = {}
    out["U"] = node_select(g, c(attr_eq("id", "u00")))
    out["G1"] = link_select(semi_join(g, out["U"], D("src", "src")), c(attr_eq("type", "friend")))
    out["P"] = node_select(g, c(attr_eq("type", "destination")))
    out["G2"] = link_select(semi_join(g, out["P"], D("tgt", "src")), c(attr_eq("type", "visit")))
    out["G3"] = semi_join(out["G1"], out["G2"], D("tgt", "src"))
    out["G4"] = semi_join(out["G2"], out["G1"], D("src", "tgt"))
    out["G5"] = set_op(SetOpKind.UNION, out["G3"], out["G4"])
    out["G6"] = link_select(semi_join(g, out["G3"], D("src", "tgt")), c(attr_eq("type", "act")))
    out["G7"] = set_op(SetOpKind.UNION, out["G5"], out["G6"])
    return out


def _hand_ex5(env):
    g = env["G"]
    visit = c(attr_eq("type", "visit"))
    out = {}
    out["ME"] = node_select(g, c(attr_eq("id", "101")))
    out["G1"] = link_select(semi_join(g, out["ME"], D("src", "src")), visit)
    out["G1v"] = node_aggregate(out["G1"], visit, "src", "vst", SafExpr("tgt"))
    out["OTH"] = node_select(g, c(attr_ne("id", "101")))
    out["G2"] = link_select(semi_join(g, out["OTH"], D("src", "src")), visit)
    out["G2v"] = node_aggregate(out["G2"], visit, "src", "vst", SafExpr("tgt"))
    out["G3"] = compose(
        out["G1v"],
        out["G2v"],
        D("tgt", "tgt"),
        CompositionFn((("sim", JaccardOf("left-src", "vst", "right-src", "vst")),)),
    )
    out["G4"] = link_aggregate(
        out["G3"], c(attr_gt("sim", 0.5)), (("type", ConstString("match")), ("sim", CopyAny("sim")))
    )
    out["G4m"] = link_select(out["G4"], c(attr_eq("type", "match")))
    out["G5"] = link_select(
        semi_join(g, node_select(g, c(attr_eq("type", "destination"))), D("tgt", "src")), visit
    )
    out["G6"] = compose(
        semi_join(out["G4m"], out["G5"], D("tgt", "src")),
        semi_join(out["G5"], out["G4m"], D("src", "tgt")),
        D("tgt", "src"),
        CompositionFn((("sim_sc", CopyFrom("left-link", "sim")),)),
    )
    out["G7"] = link_aggregate(out["G6"], Condition(), (("score", avg_of("sim_sc")),))
    return out


def _hand_select_nodes(env):
    g = env["G"]
    return {
        "S1": node_select(g, c(attr_eq("type", "user"))),
        "S2": node_select(g, c(kw=("denver", "skiing"))),
        "S3": node_select(g, c(has_all("type", "item", "destination"), attr_eq("name", "P"))),
    }


def _hand_select_links(env):
    g = env["G"]
    out = {}
    out["L1"] = link_select(g, c(attr_eq("type", "visit")))
    out["L2"] = link_select(out["L1"], c(attr_eq("src", "101")))
    out["L3"] = link_select(g, c(attr_eq("type", "visit"), kw=("act", "visit")))
    return out


def _hand_setops(env):
    g1, g2 = env["G1"], env["G2"]
    return {
        "U": set_op(SetOpKind.UNION, g1, g2),
        "I": set_op(SetOpKind.INTERSECT, g1, g2),
        "D": set_op(SetOpKind.NODE_MINUS, g1, g2),
        "E": set_op(SetOpKind.NODE_MINUS, g1, g1),
    }


def _hand_lminus(env):
    g1, g2 = env["G1"], env["G2"]
    out = {}
    out["LD"] = link_minus(g1, g2)
    out["SELF"] = link_minus(g1, g1)
    out["ALL"] = link_minus(g1, out["SELF"])
    return out


def _hand_compose_pairs(env):
    g = env["G"]
    out = {}
    out["V"] = link_select(g, c(attr_eq("type", "visit")))
    out["C"] = compose(
        out["V"],
        out["V"],
        D("tgt", "tgt"),
        CompositionFn(
            (
                ("type", ConstString("peer")),
                ("place", CopyFrom("left-tgt", "id")),
                ("pair", COUNT),
            )
        ),
    )
    return out


def _hand_naggr(env):
    g = env["G"]
    out = {}
    out["FC"] = node_aggregate(g, c(attr_eq("type", "friend")), "src", "fnd_cnt", COUNT)
    out["VS"] = node_aggregate(out["FC"], c(attr_eq("type", "visit")), "src", "vst", SafExpr("tgt"))
    out["RB"] = node_aggregate(g, c(attr_eq("type", "tag")), "tgt", "best", max_of("rating"))
    return out


def _hand_laggr(env):
    g = env["G"]
    return {
        "A": link_aggregate(
            g, c(attr_eq("type", "visit")), (("vcnt", COUNT), ("dests", SafExpr("tgt")))
        )
    }


def _hand_paggr(env):
    g = env["G"]
    gp = GraphPattern(
        ((c(attr_eq("type", "friend")), "src"), (c(attr_eq("type", "visit")), "src"))
    )
    return {"P": pattern_aggregate(g, gp, (("cnt", COUNT),))}


def _hand_shared(env):
    g = env["G"]
    out = {}
    out["B"] = link_select(g, c(attr_eq("type", "visit")))
    out["U"] = set_op(SetOpKind.UNION, out["B"], out["B"])
    out["W"] = set_op(SetOpKind.UNION, link_select(g, c(attr_eq("type", "visit"))), out["B"])
    out["X"] = set_op(SetOpKind.INTERSECT, out["U"], out["W"])
    return out


# (script file, inputs builder, hand pipeline builder)
CORPUS = (
    ("ex4_search.sgs", _travel, _hand_ex4),
    ("ex5_cf.sgs", _cf, _hand_ex5),
    ("select_nodes.sgs", _cf, _hand_select_nodes),
    ("select_links.sgs", _cf, _hand_select_links),
    ("setops.sgs", _pair, _hand_setops),
    ("lminus.sgs", _pair, _hand_lminus),
    ("compose_pairs.sgs", _cf, _hand_compose_pairs),
    ("naggr_stats.sgs", _travel, _hand_naggr),
    ("laggr_multi.sgs", _cf, _hand_laggr),
    ("paggr_chain.sgs", _travel, _hand_paggr),
    ("shared_reuse.sgs", _cf, _hand_shared),
)
