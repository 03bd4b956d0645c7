"""Serialization: JSON round-trips for trees and rendezvous instances.

Lets users save adversarial instances (the lower-bound constructions are
expensive to recompute for large agents), exchange labeled trees between
runs, and pin down regression cases.  The JSON schema is versioned and
deliberately dumb: the full ``port_to_nbr`` table.
"""

from __future__ import annotations

import json
from typing import Any, NamedTuple, Optional

from ..errors import InvalidTreeError
from .tree import Tree

__all__ = ["tree_to_json", "tree_from_json", "Instance", "instance_to_json", "instance_from_json"]

_SCHEMA = "repro.tree.v1"
_INSTANCE_SCHEMA = "repro.instance.v1"


def tree_to_json(tree: Tree, indent: Optional[int] = None) -> str:
    """Serialize a port-labeled tree to a JSON string."""
    payload = {
        "schema": _SCHEMA,
        "n": tree.n,
        "port_to_nbr": [list(tree.neighbors(u)) for u in range(tree.n)],
    }
    return json.dumps(payload, indent=indent)


def tree_from_json(text: str) -> Tree:
    """Parse a tree serialized by :func:`tree_to_json` (validating)."""
    payload = json.loads(text)
    if payload.get("schema") != _SCHEMA:
        raise InvalidTreeError(f"unknown tree schema {payload.get('schema')!r}")
    rows = payload["port_to_nbr"]
    if len(rows) != payload["n"]:
        raise InvalidTreeError("node count mismatch in serialized tree")
    return Tree(rows)


class Instance(NamedTuple):
    """A rendezvous instance: tree + starts + delay regime."""

    tree: Tree
    start1: int
    start2: int
    delay: int = 0
    delayed: int = 2
    note: str = ""

    def validate(self) -> None:
        if not (0 <= self.start1 < self.tree.n and 0 <= self.start2 < self.tree.n):
            raise InvalidTreeError("instance starts outside the tree")
        if self.delay < 0 or self.delayed not in (1, 2):
            raise InvalidTreeError("bad delay specification")


def instance_to_json(instance: Instance, indent: Optional[int] = None) -> str:
    instance.validate()
    payload: dict[str, Any] = {
        "schema": _INSTANCE_SCHEMA,
        "tree": json.loads(tree_to_json(instance.tree)),
        "start1": instance.start1,
        "start2": instance.start2,
        "delay": instance.delay,
        "delayed": instance.delayed,
        "note": instance.note,
    }
    return json.dumps(payload, indent=indent)


def instance_from_json(text: str) -> Instance:
    payload = json.loads(text)
    if payload.get("schema") != _INSTANCE_SCHEMA:
        raise InvalidTreeError(f"unknown instance schema {payload.get('schema')!r}")
    tree = tree_from_json(json.dumps(payload["tree"]))
    instance = Instance(
        tree=tree,
        start1=payload["start1"],
        start2=payload["start2"],
        delay=payload.get("delay", 0),
        delayed=payload.get("delayed", 2),
        note=payload.get("note", ""),
    )
    instance.validate()
    return instance
