"""Exact enumeration of labelled hypergraph classes with separated vertices.

Hypergraphs are binary incidence matrices (rows = edges, columns = vertices);
the package counts classes of them exactly, with every catalog formula
certified against a brute-force oracle on small grids.
"""

from . import catalog, exactmath, hypercore, oracle, transforms
from .hypercore import ClassSpec
from .oracle import OracleBudget

__all__ = [
    "ClassSpec",
    "OracleBudget",
    "catalog",
    "exactmath",
    "hypercore",
    "oracle",
    "transforms",
]
