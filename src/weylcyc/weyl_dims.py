"""Dimension bookkeeping for local Weyl modules.

The dimension of the local Weyl module attached to a Drinfeld tuple is the
product over nodes of dim(W(omega_i))^{m_i}, and the ordered factorization
into fundamental modules forces the a-priori upper bound to be attained, so
the bound and the exact dimension coincide for the classical types.
"""

from __future__ import annotations

from typing import Mapping

from .drinfeld import DrinfeldTuple, read_object, type_from_json
from .rootsys import LieType, Record, require_int


class FundamentalDimTable(Record):
    """Dimensions of the fundamental modules, per node.

    Built in knowledge covers type A only (dim V(omega_i) = C(l+1, i), which
    includes rank 1); other families must be supplied by the caller.
    """

    __slots__ = ("type", "dims", "source")
    type: LieType
    dims: Mapping[int, int]
    source: str  # "builtin" or "user"

    def _check(self):
        for node, value in self.dims.items():
            require_int(node, "table node")
            require_int(value, f"'dims' entry for node {node}")
            if not (1 <= node <= self.type.rank):
                raise ValueError(f"table node {node} out of range 1..{self.type.rank}")
            if value < 1:
                raise ValueError(f"'dims' entry for node {node} must be positive")


def builtin_table(lt: LieType) -> FundamentalDimTable:
    """Type A: dims[i] = C(l+1, i), each from the one before,
    C(l+1, i) = C(l+1, i-1) (l+2-i) / i, so O(l) multiplications in all."""
    if lt.family != "A":
        raise ValueError(
            f"no built-in fundamental dimensions for {lt}; supply a user table"
        )
    l = lt.rank
    dims, binomial = {}, 1
    for i in range(1, l + 1):
        binomial = binomial * (l + 2 - i) // i
        dims[i] = binomial
    return FundamentalDimTable(lt, dims, "builtin")


def table_from_dict(data: dict) -> FundamentalDimTable:
    """Parse {"type": "C3", "dims": {"1": 6, "2": 14, "3": 14}}."""
    lie_type, entries = read_object(data, ("type", "dims"), "table JSON")
    lt = type_from_json(lie_type)
    if not isinstance(entries, dict):
        raise ValueError("'dims' must map node strings to integers")
    dims = {}
    for key, value in entries.items():
        if not (isinstance(key, str) and key.isdecimal() and str(int(key)) == key):
            raise ValueError(f"bad node key {key!r}: must be a decimal integer such as '1'")
        dims[int(key)] = value
    return FundamentalDimTable(lt, dims, "user")


def dim_local_weyl(t: DrinfeldTuple, table: FundamentalDimTable) -> int:
    """prod over nodes of dims[i]^{deg pi_i}."""
    if table.type != t.type:
        raise ValueError(f"table is for {table.type}, tuple is for {t.type}")
    out = 1
    for node, poly in enumerate(t.polys, start=1):
        if poly.degree:
            if node not in table.dims:
                raise ValueError(f"dimension table has no entry for node {node}")
            out *= table.dims[node] ** poly.degree
    return out

