"""Stable content fingerprints for cache keys.

A fingerprint must change whenever anything that could influence a
profile changes (a block's instruction count, a loop's trip count, an
input's scale, ...) and must be identical across processes and Python
versions for equal values. Python's built-in ``hash`` is salted per
process, and ``pickle`` output is not canonical, so neither is usable.
Instead every supported object is lowered to a canonical JSON document
(dataclasses by field, mappings and sets sorted, floats by exact hex
representation) and hashed with SHA-256.

Each frozen-dataclass instance (a ``Binary``, a marker table, a
config) is encoded once per process and its text kept in an
identity-keyed LRU memo; a key's document is spliced from those
fragments. With fixed separators the JSON of a list is its brackets
around the join of its elements' JSON, so the splice is byte-identical
to a one-pass encoding and no digest depends on the memo. Contract: a
frozen dataclass is never mutated after it is first fingerprinted (the
trace memo relies on the same for ``Binary``).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from collections import OrderedDict
from typing import Any, Mapping, Tuple

from repro.errors import ReproError
from repro.observability import metrics

#: Bump when the canonical encoding (or any cached value's schema)
#: changes, so stale cache entries from older code can never be loaded.
FORMAT_VERSION = 1

#: Fits one benchmark's binaries and a sweep's marker tables, but not
#: a whole suite's binaries.
_MEMO_CAPACITY = 32
_memo: "OrderedDict[int, Tuple[Any, str]]" = OrderedDict()


class FingerprintError(ReproError):
    """An object cannot be canonically encoded for fingerprinting."""


def _canonical(obj: Any) -> Any:
    """Lower ``obj`` to a JSON-serializable canonical form."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # hex() is exact and canonical; repr() round-trips but its
        # shortest-form guarantee is an implementation detail.
        return {"__float__": obj.hex()}
    if isinstance(obj, enum.Enum):
        return {
            "__enum__": type(obj).__name__,
            "value": _canonical(obj.value),
        }
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__dataclass__": type(obj).__name__,
            "fields": {
                f.name: _canonical(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            },
        }
    if isinstance(obj, Mapping):
        items = [[_canonical(k), _canonical(v)] for k, v in obj.items()]
        items.sort(key=lambda kv: json.dumps(kv[0], sort_keys=True))
        return {"__mapping__": items}
    if isinstance(obj, (list, tuple)):
        return {"__sequence__": [_canonical(item) for item in obj]}
    if isinstance(obj, (set, frozenset)):
        items = [_canonical(item) for item in obj]
        items.sort(key=lambda item: json.dumps(item, sort_keys=True))
        return {"__set__": items}
    raise FingerprintError(
        f"cannot fingerprint {type(obj).__name__!r} objects"
    )


def _dumps(canonical: Any) -> str:
    return json.dumps(canonical, sort_keys=True, separators=(",", ":"))


def _memoized(obj: Any) -> str:
    """The encoded text of a frozen dataclass, once per process."""
    key = id(obj)
    entry = _memo.get(key)
    if entry is not None and entry[0] is obj:
        _memo.move_to_end(key)
        metrics.counter("fingerprint.memo_hits").inc()
        return entry[1]
    metrics.counter("fingerprint.memo_misses").inc()
    text = _dumps(_canonical(obj))
    _memo[key] = (obj, text)
    if len(_memo) > _MEMO_CAPACITY:
        _memo.popitem(last=False)
    return text


def _fragment(obj: Any) -> str:
    """``_dumps(_canonical(obj))``; checks run in ``_canonical``'s
    order, so only what it encodes as a sequence is walked."""
    if obj is None or isinstance(
        obj, (bool, int, str, float, enum.Enum, Mapping)
    ):
        return _dumps(_canonical(obj))
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        if type(obj).__dataclass_params__.frozen:
            return _memoized(obj)
    elif isinstance(obj, (list, tuple)):
        return '{"__sequence__":[' + ",".join(map(_fragment, obj)) + "]}"
    return _dumps(_canonical(obj))


def fingerprint(*objects: Any) -> str:
    """SHA-256 hex digest of the objects' canonical encoding."""
    document = (
        f"[{FORMAT_VERSION},[" + ",".join(map(_fragment, objects)) + "]]"
    )
    return hashlib.sha256(document.encode("utf-8")).hexdigest()
