import importlib.util
import itertools
import pathlib
import random
import sys

import pytest

import flagposet as fp
from flagposet.generate import RandomPosetSpec, random_graded_poset

BOTTOMS = ("x1", "x2", "x3")
TOPS = ("y1", "y2", "y3")
ALL_EDGES = [(b, t) for b in BOTTOMS for t in TOPS]


def corpus_poset(seed: int) -> fp.GradedPoset:
    """Deterministic corpus member: rank 2..4, at most 12 elements."""
    rng = random.Random(10_000 + seed)
    r = 2 + seed % 3
    total = rng.randint(max(r, 4), 12)
    widths = [1] * r
    for _ in range(total - r):
        widths[rng.randrange(r)] += 1
    q = (0.15, 0.3, 0.5, 0.75)[seed % 4]
    return random_graded_poset(RandomPosetSpec(tuple(widths), q, seed))


def sweep_edges(bits: int) -> list[tuple[str, str]]:
    return [e for k, e in enumerate(ALL_EDGES) if (bits >> k) & 1]


def sweep_poset(bits: int, include_isolated: bool) -> fp.GradedPoset:
    edges = sweep_edges(bits)
    if include_isolated:
        bottom, top = BOTTOMS, TOPS
    else:
        bottom = tuple(b for b in BOTTOMS if any(e[0] == b for e in edges))
        top = tuple(t for t in TOPS if any(e[1] == t for e in edges))
    return fp.GradedPoset(fp.bipartite_poset(bottom, top, edges))


def downward_closure(facet_masks, nverts):
    """The faces of the complex with these facets on ``nverts`` vertices,
    ascending: every subset of some facet."""
    return [s for s in range(1 << nverts)
            if any(s & ~f == 0 for f in facet_masks)]


RP2_FACETS = ["125", "126", "134", "136", "145", "234", "235", "246",
              "356", "456"]


def rp2_flag_poset() -> fp.GradedPoset:
    """The rank-2 poset of the six-vertex projective plane: its ten
    facets below its six vertices, facet f below vertex v exactly when
    v is not in f.  The layer's Y-complex is the plane itself, so the
    flag ideal carries the plane's 2-torsion."""
    edges = [(f"f{x}", f"v{v}") for x in RP2_FACETS for v in "123456"
             if v not in x]
    return fp.GradedPoset(fp.bipartite_poset(
        tuple(f"f{x}" for x in RP2_FACETS),
        tuple(f"v{v}" for v in "123456"), edges))


def sweep_layer(bits: int) -> fp.BipartiteLayer:
    edges = sweep_edges(bits)
    bottom = tuple(b for b in BOTTOMS if any(e[0] == b for e in edges))
    top = tuple(t for t in TOPS if any(e[1] == t for e in edges))
    return fp.BipartiteLayer(bottom, top, frozenset(edges))


def generated_chain_posets(count):
    """Seeded posets of 2-4 disjoint chains of 1-4 elements joined by
    random covers that keep the chains a decomposition, kept when
    impure or with an isolated rank-1 maximum."""
    rng = random.Random(20261018)
    out = []
    while len(out) < count:
        lengths = [rng.randint(1, 4) for _ in range(rng.randint(2, 4))]
        chains = [[f"c{u}_{r}" for r in range(1, n + 1)]
                  for u, n in enumerate(lengths, 1)]
        q = rng.choice((0.2, 0.4, 0.6))
        covers = [(c[r], c[r + 1]) for c in chains for r in range(len(c) - 1)]
        covers += [(a[r], b[r + 1]) for a in chains for b in chains
                   if a is not b for r in range(min(len(a), len(b)) - 1)
                   if rng.random() < q]
        g = fp.GradedPoset(fp.Poset(
            [e for c in chains for e in c], covers))
        if not g.is_pure() or 1 in lengths:
            out.append(g)
    return out


def impure_chain_posets(count):
    """Seeded posets of 3-5 disjoint chains of 1-5 elements, of at least
    three lengths, so their maximal elements lie on three ranks or more,
    joined by sparse random covers that keep the chains a decomposition.
    Condition 4 fails on more of them than on ``generated_chain_posets``,
    whose covers are denser and break condition 3 first."""
    rng = random.Random(20261020)
    out = []
    while len(out) < count:
        lengths = [rng.randint(1, 5) for _ in range(rng.randint(3, 5))]
        if len(set(lengths)) < 3:
            continue
        chains = [[f"c{u}_{r}" for r in range(1, n + 1)]
                  for u, n in enumerate(lengths, 1)]
        q = rng.choice((0.1, 0.2, 0.3))
        covers = [(c[r], c[r + 1]) for c in chains for r in range(len(c) - 1)]
        covers += [(a[r], b[r + 1]) for a in chains for b in chains
                   if a is not b for r in range(min(len(a), len(b)) - 1)
                   if rng.random() < q]
        out.append(fp.GradedPoset(fp.Poset(
            [e for c in chains for e in c], covers)))
    return out


def compositions(n):
    if n == 0:
        yield ()
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def census(n):
    """Each graded poset on n elements, with the layer of each element."""
    for widths in compositions(n):
        layers = [[f"p{i}_{k}" for k in range(1, w + 1)]
                  for i, w in enumerate(widths, 1)]
        options = [[[(below[k], e) for k in range(len(below)) if m >> k & 1]
                    for m in range(1, 1 << len(below))]
                   for below, layer in zip(layers, layers[1:])
                   for e in layer]
        layer_of = {e: i for i, layer in enumerate(layers, 1) for e in layer}
        for pick in itertools.product(*options):
            poset = fp.Poset(list(layer_of), [c for cs in pick for c in cs])
            yield fp.GradedPoset(poset), layer_of


def perfbench_module(name):
    """The benchmark's module ``perfbench/<name>.py``, loaded as a file
    (``perfbench`` is not a package)."""
    path = pathlib.Path(__file__).parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def structural_grids_posets(seed):
    """The posets of the benchmark's ``structural_grids`` workload."""
    workloads = perfbench_module("workloads")
    return [g for g, _ in workloads.build_structural_grids(seed)]


@pytest.fixture(scope="session")
def corpus_b():
    return [corpus_poset(seed) for seed in range(200)]


@pytest.fixture(scope="session")
def named_graded():
    """Bundled graded posets with interesting classifications."""
    out = {
        "3.4": fp.example_3_4(),
        "3.6": fp.example_3_6(),
        "4.9": fp.example_4_9(),
        "chain4": fp.chain(4),
        "antichain3": fp.antichain(3),
        "lp_2_v11": fp.letterplace_poset(2, fp.v_poset(1, 1)),
    }
    for r in (1, 2, 3):
        for t in (1, 2, 3):
            out[f"hom{r}{t}"] = fp.hom_rt_poset(r, t)
    return out
