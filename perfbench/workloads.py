"""Model universes and the seeded draws that make each workload.

The library only ever sees the model strings drawn here.  Draws are
stratified so that every seed gives a workload of about the same cost:
the runs of one workload under different seeds must agree within the
benchmark's bounds, and a plain random draw of a few models from a
universe whose members differ fivefold in cost would not.
"""

from __future__ import annotations

import random
from itertools import combinations

EDGE_RULES = ("se", "me")
LOOP_RULES = ("ll", "la", "lh")
RULES = tuple((e, l) for e in EDGE_RULES for l in LOOP_RULES)

WORKLOADS = ("derive-k5", "enumerate")


def model_string(edges, loops, degrees):
    return f"{edges},{loops},{{{','.join(str(d) for d in sorted(degrees))}}}"


def degree_sets(k):
    """All degree sets whose largest member is exactly k."""
    lower = range(1, k)
    return [tuple(s) + (k,) for r in range(k) for s in combinations(lower, r)]


def k5_models():
    """The 96 models with max degree exactly 5."""
    return [model_string(e, l, d) for e, l in RULES for d in degree_sets(5)]


# The 96 degree-5 models in six bins of 16, ranked by derivation time of
# the seed code (one run each, 2-core x86-64, CPython 3.11).  The first
# bin is exactly the parity-homogeneous class (no half-loops, odd degrees
# only: about 1.2 s); the others take 4.2-7.8 s.  derive-k5 takes one
# model from each bin, so every seed costs about the same.
K5_BINS = (
    (
        "se,la,{3,5}", "me,la,{5}", "se,ll,{5}", "me,la,{1,5}", "se,la,{5}", "me,ll,{5}",
        "se,ll,{1,5}", "se,la,{1,5}", "se,ll,{1,3,5}", "me,ll,{1,5}", "se,ll,{3,5}",
        "me,la,{1,3,5}", "me,la,{3,5}", "me,ll,{1,3,5}", "me,ll,{3,5}", "se,la,{1,3,5}",
    ),
    (
        "me,lh,{5}", "se,lh,{3,5}", "se,la,{4,5}", "se,lh,{1,3,5}", "me,lh,{1,5}", "se,la,{1,4,5}",
        "me,la,{4,5}", "se,la,{1,2,5}", "se,ll,{1,2,5}", "me,la,{2,5}", "me,ll,{1,2,3,4,5}",
        "se,la,{3,4,5}", "se,lh,{5}", "se,ll,{2,3,4,5}", "me,la,{2,4,5}", "se,ll,{1,2,3,4,5}",
    ),
    (
        "se,la,{2,5}", "me,la,{3,4,5}", "se,la,{1,2,3,4,5}", "me,lh,{1,3,5}", "se,ll,{4,5}",
        "se,lh,{1,5}", "me,ll,{4,5}", "se,ll,{1,4,5}", "me,la,{1,2,3,4,5}", "se,ll,{3,4,5}",
        "se,ll,{2,3,5}", "se,la,{2,3,5}", "me,ll,{2,5}", "se,la,{2,3,4,5}", "me,la,{1,2,4,5}",
        "me,la,{1,4,5}",
    ),
    (
        "me,ll,{1,4,5}", "me,lh,{2,5}", "me,lh,{3,5}", "me,ll,{3,4,5}", "me,lh,{4,5}",
        "me,lh,{1,2,3,4,5}", "me,ll,{1,2,4,5}", "se,ll,{1,2,3,5}", "me,ll,{1,2,3,5}",
        "me,la,{2,3,4,5}", "se,la,{1,2,3,5}", "me,ll,{1,2,5}", "se,ll,{1,3,4,5}", "me,lh,{1,2,3,5}",
        "me,la,{1,2,5}", "se,la,{1,3,4,5}",
    ),
    (
        "me,ll,{2,3,4,5}", "me,ll,{1,3,4,5}", "me,lh,{3,4,5}", "se,lh,{2,3,5}", "me,la,{2,3,5}",
        "me,lh,{2,3,4,5}", "se,lh,{4,5}", "se,lh,{1,2,5}", "se,lh,{3,4,5}", "me,ll,{2,3,5}",
        "se,lh,{1,2,3,5}", "se,la,{1,2,4,5}", "me,la,{1,2,3,5}", "me,la,{1,3,4,5}",
        "se,lh,{1,2,3,4,5}", "se,lh,{1,3,4,5}",
    ),
    (
        "se,lh,{2,5}", "se,ll,{1,2,4,5}", "se,lh,{1,4,5}", "se,ll,{2,5}", "me,ll,{2,4,5}",
        "se,lh,{2,3,4,5}", "se,la,{2,4,5}", "me,lh,{1,3,4,5}", "me,lh,{1,2,4,5}", "me,lh,{1,4,5}",
        "se,ll,{2,4,5}", "me,lh,{2,3,5}", "me,lh,{2,4,5}", "me,lh,{1,2,5}", "se,lh,{1,2,4,5}",
        "se,lh,{2,4,5}",
    ),
)

# enumerate pairs a model with degree set {5} and one with {4}, none with
# half-loops.  The degree-5 model is parity-homogeneous, so set-up derives
# it in about 1.2 s, and has multi-edges, so graph_count_dp has real work;
# the two such models cost the same within a few per cent, and so do the
# four degree-4 ones.  Wider degree sets would change the oracles' cost
# several-fold from seed to seed.
ENUM_RULES = {5: (("me", "ll"), ("me", "la")), 4: tuple((e, l) for e in EDGE_RULES for l in ("ll", "la"))}


def enumerate_population():
    """Every model enumerate can draw."""
    return {model_string(e, l, (k,)) for k, rules in ENUM_RULES.items() for e, l in rules}


def draw(workload, seed):
    """The ordered model list of a workload for a seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "derive-k5":
        models = [rng.choice(b) for b in K5_BINS]
        rng.shuffle(models)
        return models
    if workload == "enumerate":
        return [model_string(*rng.choice(ENUM_RULES[k]), (k,)) for k in (5, 4)]
    raise ValueError(f"unknown workload {workload!r}")
