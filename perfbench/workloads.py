"""The benchmark's four workloads.

Each workload builds its inputs from a seed and exposes a list of ops.
An op is one unit of work a user asks the library for; ``run_op``
performs it and checks the answer, returning False on a wrong answer.
Raising (including ``BudgetExceeded``) also counts as a failed op; the
worker catches it.

The library only ever receives generated posets (or, for ``paper_4_9``,
command-line arguments); the checks compare against independent answers
(the other exact path, the paper's theory, or a golden digest), never
against values the benchmark computed with the same code path.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import random
from dataclasses import dataclass
from typing import Callable

import flagposet as fp
from flagposet.generate import RandomPosetSpec, random_graded_poset

GF_BIG = fp.GF(32003)

# ``flagposet betti --example 4.9 --format csv`` at the commit that added
# this benchmark: 4228 bytes, totals 17, 52, 65, 37, 8 for j = 0..4.
PAPER_4_9_ARGV = ("betti", "--example", "4.9", "--format", "csv")
PAPER_4_9_SHA256 = (
    "27e0653d4988a7d1ee17e7e274660e8913bd09ebb7cc39ec86f41551248b4074")


@dataclass(frozen=True)
class Workload:
    name: str
    recipe: str
    build: Callable[[int], list]
    run_op: Callable[[object], bool]
    trace_ops: int
    """Fixed op count of a traced pass, so per-layer counts repeat."""


def corpus_member(stream: str, seed: int, k: int) -> fp.GradedPoset:
    """Member k of a seeded corpus, with the test suite's recipe: rank
    2-4 cycling with k, at most 12 elements, edge probability cycling
    over 0.15, 0.3, 0.5 and 0.75.

    The layer widths depend on k alone and the seed draws the covers, so
    every seed's corpus has the same mix of sizes.  Op cost grows
    steeply with size; a size mix that moved with the seed would move
    every timing with it.
    """
    shape = random.Random(f"corpus-shape/{k}")
    r = 2 + k % 3
    total = shape.randint(max(r, 4), 12)
    widths = [1] * r
    for _ in range(total - r):
        widths[shape.randrange(r)] += 1
    q = (0.15, 0.3, 0.5, 0.75)[k % 4]
    covers_seed = random.Random(f"{stream}/{seed}/{k}").randrange(2**32)
    return random_graded_poset(RandomPosetSpec(tuple(widths), q, covers_seed))


# -- classify_corpus --------------------------------------------------------

def build_classify_corpus(seed: int) -> list:
    return [corpus_member("classify_corpus", seed, k) for k in range(200)]


def run_classify(g: fp.GradedPoset) -> bool:
    report = fp.classification_report(g, fp.GF2)
    return all(report[key]["structural"] == report[key]["oracle"]
               for key in ("unmixed", "cm", "linear_resolution"))


# -- betti_sweep ------------------------------------------------------------

def build_betti_sweep(seed: int) -> list:
    ops = []
    for k in range(12):
        g = corpus_member("betti_sweep", seed, k)
        ideal = fp.flag_ideal(g)
        for size in range(min(len(g.elements), 10) + 1):
            ops.extend((g, ideal, a)
                       for a in itertools.combinations(g.elements, size))
    # Shuffled so that the traced prefix is a uniform sample of the pool.
    random.Random(f"betti_sweep/{seed}/order").shuffle(ops)
    return ops


def run_betti(op) -> bool:
    g, ideal, a = op
    fast = fp.betti_polynomial_fast(g, a, GF_BIG)
    return fast == fp.betti_polynomial_bruteforce(ideal, a, GF_BIG)


# -- paper_4_9 --------------------------------------------------------------

def build_paper_4_9(seed: int) -> list:
    return [PAPER_4_9_ARGV]


def run_paper_4_9(argv) -> bool:
    from flagposet import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    return code == 0 and digest == PAPER_4_9_SHA256


# -- structural_grids -------------------------------------------------------

# Most ops of the pool are letterplace posets of a few milliseconds; the
# median and 90th-percentile ops are among them, and those only hold
# still across seeds when there are thousands to take them from.
LETTERPLACE_POSETS = 1920


def build_structural_grids(seed: int) -> list:
    ops = [(fp.hom_rt_poset(r, t), (r, t))
           for r in range(2, 8) for t in range(2, 8)]
    for k in range(LETTERPLACE_POSETS):
        # As in corpus_member: the shape of Q depends on k alone.
        shape = random.Random(f"letterplace-shape/{k}")
        widths = tuple(shape.randint(1, 3) for _ in range(shape.randint(1, 3)))
        covers_seed = random.Random(
            f"structural_grids/{seed}/{k}").randrange(2**32)
        q = random_graded_poset(RandomPosetSpec(
            widths, (0.15, 0.3, 0.5, 0.75)[k % 4], covers_seed))
        ops.append((fp.letterplace_poset(2 + k % 3, q.poset), None))
    return ops


def run_structural(op) -> bool:
    """Grids carry their (r, t); letterplace posets carry None.

    Every input is Cohen-Macaulay, hence unmixed, and the recombination
    conditions imply their weakened forms.  Letterplace ideals L(n, Q)
    are Cohen-Macaulay for every finite Q; hom(r, t) is moreover bi-CM
    and isomorphic to its own two-chain grid.
    """
    g, grid = op
    unmixed = fp.check_unmixed_structural(g)
    cm = fp.check_cm_structural(g)
    linear = fp.has_linear_resolution_structural(g)
    weak = fp.check_weak_conditions(g)
    bi = fp.is_bi_cm(g, iso_budget=max(fp.posets.DEFAULT_ISO_BUDGET,
                                       len(g.elements)))
    ok = unmixed.value and cm.value and weak == (True, True)
    if grid is None:
        return ok
    return (ok and linear.value and bi.value
            and bi.certificate["hom_parameters"] == grid
            and bi.certificate["isomorphism"] is not None)


WORKLOADS = {w.name: w for w in (
    Workload(
        "classify_corpus",
        "200 random_graded_poset, rank 2-4, <=12 elements, edge prob "
        "cycling 0.15/0.3/0.5/0.75; op = classification_report over GF(2)",
        build_classify_corpus, run_classify, trace_ops=60),
    Workload(
        "betti_sweep",
        "12 corpus-recipe posets, every multidegree |A| <= 10, seeded "
        "order; op = fast vs brute Betti polynomial over GF(32003)",
        build_betti_sweep, run_betti, trace_ops=4000),
    Workload(
        "paper_4_9",
        "example 4.9 (no seeded input); op = `flagposet betti --example "
        "4.9 --format csv` in-process, checked against a golden digest",
        build_paper_4_9, run_paper_4_9, trace_ops=1),
    Workload(
        "structural_grids",
        "hom_rt_poset(r, t) for 2 <= r, t <= 7 plus 1920 letterplace_poset"
        "(n, Q), n = 2-4, random Q of widths 1-3 and rank <= 3",
        build_structural_grids, run_structural, trace_ops=156),
)}
