"""Seeded random graded posets.

Gradedness holds by construction: edges connect consecutive layers only
and every vertex above layer 1 gets at least one parent (one forced
uniformly, the rest Bernoulli), so the derived ranks equal the layer
index and no rejection sampling is needed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import InvalidParameter
from .posets import GradedPoset, Poset


@dataclass(frozen=True)
class RandomPosetSpec:
    widths: tuple[int, ...]
    edge_probability: float
    seed: int

    def __post_init__(self):
        if not self.widths or any(w < 1 for w in self.widths):
            raise InvalidParameter("widths must be positive")
        if not 0.0 <= self.edge_probability <= 1.0:
            raise InvalidParameter("edge probability outside [0, 1]")


def random_graded_poset(spec: RandomPosetSpec) -> GradedPoset:
    rng = random.Random(spec.seed)
    layers = [[f"p{i + 1}_{k + 1}" for k in range(w)]
              for i, w in enumerate(spec.widths)]
    elements = [e for layer in layers for e in layer]
    covers = []
    for i in range(1, len(layers)):
        below = layers[i - 1]
        for v in layers[i]:
            forced = rng.randrange(len(below))
            parents = {forced}
            for k in range(len(below)):
                if k != forced and rng.random() < spec.edge_probability:
                    parents.add(k)
            for k in sorted(parents):
                covers.append((below[k], v))
    return GradedPoset(Poset(elements, covers))
