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
"""

from __future__ import annotations

from .analysis import (
    BadCount,
    CrossingChange,
    MalformedVectorError,
    NugatoryScanReport,
    OddChangeReport,
    ParityReport,
    bad_counts,
    bfree_exponent,
    nugatory_scan,
    odd_change_check,
    parity_consistency,
)
from .homfly import (
    BraidIndexCertificate,
    HomflyPoly,
    JonesPoly,
    certify_braid_index_3,
    homfly_oracle,
    jones,
    mfw_lower_bound,
    to_homfly,
)
from .resolution import (
    Label,
    ResolutionNode,
    compare_basepoints,
    label_only,
    leaf_count,
    resolution_tree,
    resolve,
    tree_vector,
)
from .skein import (
    A,
    A_INV,
    B,
    NEG_A_INV_B,
    DimensionError,
    LaurentAB,
    RingDomainError,
    SkeinVector,
    partition_str,
)
from .templates import (
    DivergencePair,
    enumerate_exchange_instances,
    enumerate_flype_instances,
    exchange_pair,
    flype_pair,
    search_exchange_divergence,
)
from .words import (
    BraidWord,
    Letter,
    MoveError,
    WordError,
    basis_braid,
    cycle_type,
    is_partition_of,
    parse_word,
    partitions_of,
    permutation,
)

__all__ = [
    "A",
    "A_INV",
    "B",
    "NEG_A_INV_B",
    "BadCount",
    "BraidIndexCertificate",
    "BraidWord",
    "CrossingChange",
    "DimensionError",
    "DivergencePair",
    "HomflyPoly",
    "JonesPoly",
    "Label",
    "LaurentAB",
    "Letter",
    "MalformedVectorError",
    "MoveError",
    "NugatoryScanReport",
    "OddChangeReport",
    "ParityReport",
    "ResolutionNode",
    "RingDomainError",
    "SkeinVector",
    "WordError",
    "bad_counts",
    "basis_braid",
    "bfree_exponent",
    "certify_braid_index_3",
    "compare_basepoints",
    "cycle_type",
    "enumerate_exchange_instances",
    "enumerate_flype_instances",
    "exchange_pair",
    "flype_pair",
    "homfly_oracle",
    "is_partition_of",
    "jones",
    "label_only",
    "leaf_count",
    "mfw_lower_bound",
    "nugatory_scan",
    "odd_change_check",
    "parity_consistency",
    "parse_word",
    "partition_str",
    "partitions_of",
    "permutation",
    "resolution_tree",
    "resolve",
    "search_exchange_divergence",
    "to_homfly",
    "tree_vector",
]
