"""
Exact resolution of closed braid diagrams into unlink patterns.

A braid word on n strands closes to a link diagram.  This package expands
that diagram, by flipping and deleting crossings met on the wrong strand,
into an integer-coefficient combination of descending diagrams, one per
partition of n.  On top of that single computation sit consistency checks
(parity of the distinguished exponent, sensitivity to crossing changes),
a bridge to the framed-link polynomial in l and m with its Jones
specialization, a braid index bound, and move templates whose two sides
can be compared exactly.

Names load on first use: ``import braidskein`` imports no submodule, and
reading one of the names below imports the module that defines it.
"""

import importlib

# home module -> the public names it defines
_EXPORTS = {
    "analysis": (
        "BadCount", "CrossingChange", "MalformedVectorError", "NugatoryScanReport",
        "OddChangeReport", "ParityReport", "bad_counts", "bfree_exponent",
        "nugatory_scan", "odd_change_check", "parity_consistency",
    ),
    "homfly": (
        "BraidIndexCertificate", "HomflyPoly", "JonesPoly", "certify_braid_index_3",
        "homfly_oracle", "jones", "mfw_lower_bound", "to_homfly",
    ),
    "resolution": (
        "Label", "ResolutionNode", "compare_basepoints", "label_only", "leaf_count",
        "resolution_tree", "resolve", "tree_vector",
    ),
    "skein": (
        "A", "A_INV", "B", "NEG_A_INV_B", "DimensionError", "LaurentAB",
        "RingDomainError", "SkeinVector", "partition_str",
    ),
    "templates": (
        "DivergencePair", "enumerate_exchange_instances", "enumerate_flype_instances",
        "exchange_pair", "flype_pair", "search_exchange_divergence",
    ),
    "words": (
        "BraidWord", "Letter", "MoveError", "WordError", "basis_braid", "cycle_type",
        "parse_word", "partitions_of", "permutation",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
