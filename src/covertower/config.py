"""Run configuration: budgets and caps for searches and constructions.

A config document sets any of ``RunConfig``'s fields, and ``from_json``
refuses every other key.  So a file that still sets a retired field fails
loudly instead of being ignored.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class RunConfig:
    # Subgroup enumeration.
    max_index: int = 6
    max_search_nodes: int = 10_000_000
    # Cap on the index of any constructed subgroup (intersections, homology
    # kernels, cores).
    max_result_index: int = 10_000
    # Seed recorded in manifests; all operations are deterministic, the seed
    # only feeds test-style sampling helpers.
    seed: int = 0

    def __post_init__(self) -> None:
        # Every field but the seed is a cap.
        for name, value in asdict(self).items():
            if name != "seed" and (type(value) is not int or value < 1):
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, doc: dict) -> "RunConfig":
        allowed = {f for f in cls.__dataclass_fields__}
        bad = set(doc) - allowed
        if bad:
            raise ValueError(f"unknown config fields: {sorted(bad)}")
        return cls(**doc)

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


DEFAULT_CONFIG = RunConfig()
