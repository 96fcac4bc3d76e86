"""Hash-plus-prefix-tree forwarding table and its batch lookup kernels."""

from minet.hpt.fib import (
    EntryState,
    Hpt,
    LookupResult,
    FibError,
    UnknownContent,
    DuplicateBinding,
)
from minet.hpt.packed import PackedFib, pack_fib, pack_queries

__all__ = [
    "EntryState",
    "Hpt",
    "LookupResult",
    "FibError",
    "UnknownContent",
    "DuplicateBinding",
    "PackedFib",
    "pack_fib",
    "pack_queries",
]
