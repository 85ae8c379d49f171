"""Shared helpers: cached pipeline runs and random algebra generators."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

import pytest

from regenum.exactnum import RatFunc, UniPoly
from regenum.models import parse_model
from regenum.oracle import scalar_series
from regenum.polyring import MPoly
from regenum.telescope import run_pipeline
from regenum.weyl import WeylOp, parse_op


def up(*cs) -> UniPoly:
    return UniPoly(cs)


def poly(text, k) -> MPoly:
    """The polynomial part of an operator written as text."""
    return parse_op(text, k).poly_part()


@lru_cache(maxsize=None)
def pipeline(model_str: str):
    return run_pipeline(parse_model(model_str), want_trace=True)


@lru_cache(maxsize=None)
def series(model_str: str, order: int):
    return scalar_series(parse_model(model_str), order)


def rand_rat(rng, size=6) -> Fraction:
    return Fraction(rng.randint(-size, size), rng.randint(1, size))


def rand_unipoly(rng, deg=3, size=5) -> UniPoly:
    return UniPoly([rng.randint(-size, size) for _ in range(rng.randint(0, deg) + 1)])


def rand_ratfunc(rng, deg=3, size=5) -> RatFunc:
    num = rand_unipoly(rng, deg, size)
    den = UniPoly()
    while den.is_zero():
        den = rand_unipoly(rng, deg, size)
    return RatFunc.of(num, den)


def rand_exponent(rng, k, maxdeg=2):
    return tuple(rng.randint(0, maxdeg) for _ in range(k))


def rand_mpoly(rng, k, nterms=3, maxdeg=2, t_free=False) -> MPoly:
    out = MPoly(k)
    for _ in range(rng.randint(1, nterms)):
        c = rand_rat(rng) if t_free else rand_ratfunc(rng, deg=1, size=3)
        out = out + MPoly.term(k, rand_exponent(rng, k, maxdeg), c)
    return out


def rand_weylop(rng, k, nterms=3, maxdeg=2, t_free=False) -> WeylOp:
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        key = (rand_exponent(rng, k, maxdeg), rand_exponent(rng, k, maxdeg))
        c = rand_rat(rng) if t_free else rand_ratfunc(rng, deg=1, size=3)
        if c:
            terms[key] = RatFunc.from_rat(c) if isinstance(c, Fraction) else c
    op = WeylOp(k, terms)
    if op.is_zero():
        return WeylOp.const(k, 1)
    return op


@pytest.fixture
def rng():
    return random.Random(20240817)
