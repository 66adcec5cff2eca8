"""socialgraph: an engine for social content graphs.

A property-graph algebra over attributed nodes and links, a small query
language compiling to shared operator DAGs, collaborative and
content-based recommendation expressed as algebraic plans, a
network-aware clustered tag index with safe top-k pruning, and grouped,
explained result presentation.

The namespace is lazy (PEP 562): ``socialgraph.X`` imports the module
that defines ``X`` on first access and reads ``X`` from it on every
access, so a program loads only the modules it uses and always sees the
module's current binding.
"""

from importlib import import_module

__version__ = "0.1.0"

_SUBMODULES = (
    "aggfn", "algebra", "discovery", "dsl", "errors", "fixtures", "graph", "index", "io", "presentation",
)

# defining module -> the names it exports here
_EXPORTS = {
    "aggfn": """COUNT AttrRef Arith Builtin CompositionFn Const ConstString CopyAny CopyFrom
        JaccardOf ProdOver SafExpr SumOver avg_of jaccard max_of min_of sum_of""",
    "algebra": """GraphPattern SetOpKind compose link_aggregate link_minus link_select
        node_aggregate node_select pattern_aggregate semi_join set_op""",
    "discovery": """DiscoveryConfig MeaningfulSocialGraph cf_recommend content_recommend discover
        network_search""",
    "errors": "SocialGraphError",
    "graph": """Condition DirectionalCondition Link Node SocialContentGraph StructPredicate attr_eq
        attr_ge attr_gt attr_le attr_lt attr_ne build_graph default_keyword_score has_all link node
        satisfies""",
    "index": """ClusteredIndex ClusteringStrategy ClusterModel SocialSets build_index cluster_users
        estimate_index_size exact_score social_sets topk_query""",
    "io": "load_graph save_graph",
    "presentation": """Explanation ItemGroup SocialGrouping StructuralGrouping TopicalGrouping
        aggregate_explanations explain_item group_items select_groups""",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted([*_SUBMODULES, *_MODULE_OF])


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")  # the import binds it here
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__() -> list:
    return sorted({*globals(), *__all__})
