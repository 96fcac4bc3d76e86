"""Hash-plus-prefix-tree forwarding table and its batch lookup kernels."""

from minet.hpt.fib import (
    EntryState,
    Hpt,
    LookupResult,
    FibError,
    UnknownContent,
    DuplicateBinding,
    LoadError,
)
from minet.hpt.packed import PackedFib, pack_fib, pack_queries

__all__ = [
    "EntryState",
    "Hpt",
    "LookupResult",
    "FibError",
    "UnknownContent",
    "DuplicateBinding",
    "LoadError",
    "PackedFib",
    "pack_fib",
    "pack_queries",
]
