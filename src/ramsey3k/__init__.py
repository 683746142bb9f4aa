"""Triangle-free graphs with bounded independence number: exhaustive
generation engines, edge-minimum bound propagation, and Ramsey upper bounds."""

__version__ = "0.1.0"

from .graphs import (
    CapacityError,
    ClassParams,
    Graph,
    GraphFormatError,
    MembershipError,
    circulant,
    decode_graph6,
    encode_graph6,
    independence_number,
    is_triangle_free,
    local_subgraph,
    validate_member,
    z_value,
)
from .canon import canonical_form, canonical_graph, canonical_labeling

__all__ = [
    "CapacityError",
    "ClassParams",
    "Graph",
    "GraphFormatError",
    "MembershipError",
    "canonical_form",
    "canonical_graph",
    "canonical_labeling",
    "circulant",
    "decode_graph6",
    "encode_graph6",
    "independence_number",
    "is_triangle_free",
    "local_subgraph",
    "validate_member",
    "z_value",
]
