"""Reduction-based telescoping: iterate reduced derivatives of the pairing
and assemble the annihilating ODE from the first linear dependency.

The reduction rewrites a polynomial s modulo the span of G_i . Q(t)[p]
without changing the pairing <exp(f), s exp(tg)>: the largest monomial
divisible by some leading monomial m_j is cancelled by subtracting the
reducer's full action on the matching term, and dominance guarantees the
cancellation is exact.  Termination confines results to the stairs.

Successive reduced forms g-check_i of d_t^i applied to the pairing are
produced incrementally (g-check * g + d_t g-check), and an incremental
fraction-free elimination over Z[t] detects the first Q(t)-linear
dependency, whose cofactors are the ODE coefficients.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from math import gcd as _igcd

from .exactnum import RatFunc, UniPoly, zcontent, zdivexact, zgcd, zgcd_split, zmul, zneg, zscale, zsub
from .models import ModelSpec, build_g, build_generators
from .modgb import eta_embed, extract_reducers, is_dominant, module_buchberger
from .polyring import MPoly, add_term, exp_div, exp_divides, grevlex_key, stairs_and_dim
from .seqtools import ODE
from .weyl import apply_op


class PipelineFailure(Exception):
    """Derivation aborted with a machine-readable reason code."""

    code = "FAIL"


class FailPositiveDim(PipelineFailure):
    code = "FAIL"

    def __init__(self):
        super().__init__("the leading-monomial ideal has positive dimension")


class FailDominance(PipelineFailure):
    code = "FAIL-DOMINANCE"

    def __init__(self, index):
        super().__init__(f"reducer {index} is not dominant; reductions would not certify")
        self.index = index


@dataclass
class ReductionBasis:
    reducers: list
    stairs: list


def reduction_basis(reducers) -> ReductionBasis:
    """Check dominance, compute the stairs; raises the pipeline failures."""
    for i, r in enumerate(reducers):
        if not is_dominant(r):
            raise FailDominance(i)
    stairs = stairs_and_dim([r.m for r in reducers])
    if stairs is None:
        raise FailPositiveDim()
    return ReductionBasis(reducers, stairs)


def red(s: MPoly, basis: ReductionBasis, want_trace: bool = False):
    """Reduce s to its normal form under the stairs.

    Each step cancels the largest monomial that some m_j divides, using the
    largest such m_j (ties by index).  One descending sweep does this: a
    heap hands out the monomials of one mutable term map in decreasing
    ``grevlex_key`` order, each step's subtrahend G_j . (c p^shift) is
    folded into the map in place, and a monomial found irreducible is never
    tested again.  Dominance (checked by ``reduction_basis``) puts every
    term a step subtracts below its target, so the next reducible monomial
    is always the next one popped.

    Returns (s-check, trace); the trace lists (j, coeff, exponent) per
    elimination step so that s == s-check + sum_j G_j . sigma_j exactly,
    with sigma_j the sum of the traced terms for reducer j.
    """
    reducers = basis.reducers
    # reducer indices by decreasing m; the stable sort keeps ties by index
    order = sorted(range(len(reducers)), key=lambda j: grevlex_key(reducers[j].m), reverse=True)
    trace = [] if want_trace else None
    terms = dict(s.terms)
    seen = set(terms)
    heap = [(-sum(e), e) for e in terms]
    heapify(heap)
    while heap:
        e = heappop(heap)[1]
        c = terms.get(e)
        if c is None:
            continue
        for j in order:
            if exp_divides(reducers[j].m, e):
                break
        else:
            continue
        r = reducers[j]
        c = c / r.c
        shift = exp_div(e, r.m)
        for m, x in apply_op(r.g, MPoly.term(s.k, shift, c)).terms.items():
            if m not in seen:
                seen.add(m)
                heappush(heap, (-sum(m), m))
            add_term(terms, m, -x)
        if want_trace:
            trace.append((j, c, shift))
    return MPoly._of(s.k, terms), trace


def replay(s: MPoly, shat: MPoly, trace, basis: ReductionBasis) -> bool:
    """Exact verification of a reduction certificate."""
    acc = shat
    sigmas = {}
    for j, c, shift in trace:
        cur = sigmas.get(j)
        term = MPoly.term(s.k, shift, c)
        sigmas[j] = term if cur is None else cur + term
    for j, sigma in sigmas.items():
        acc = acc + apply_op(basis.reducers[j].g, sigma)
    return acc == s


class KernelAccumulator:
    """Incremental left-kernel detection over Q(t) by single-step Bareiss
    elimination on integer polynomials, with exact cofactor tracking.

    Rows are cleared of denominators on entry.  Each elimination step
    cross-multiplies with a stored pivot row and divides exactly by the
    previous pivot entry (Sylvester's identity keeps every entry, cofactor
    columns included, a minor of the denominator-cleared input), so growth
    stays determinant-sized without any gcd work in the loop; the full
    content is stripped once from the final dependency vector.
    """

    def __init__(self, width: int):
        self.width = width
        # stored pivot rows: (pivot_col, coords, cofs, pivot_entry)
        self.rows = []
        self.count = 0

    def add_row(self, coords):
        """coords: RatFunc coordinates.  Returns None while independent, or
        the dependency cofactors as integer UniPolys (index = row)."""
        idx = self.count
        self.count += 1
        den = [1]
        for c in coords:
            if not c.is_zero():
                extra = zscale(list(c.dp), c.c.denominator)
                _, _, extra = zgcd_split(den, extra)
                den = zmul(den, extra)
        row = []
        for c in coords:
            if c.is_zero():
                row.append([])
            else:
                q = zdivexact(den, zscale(list(c.dp), c.c.denominator))
                row.append(zscale(zmul(list(c.np), q), c.c.numerator))
        cofs = {idx: den}
        # pre-elimination scaling is free: strip the integer content now
        g = zcontent(den)
        for cs in row:
            g = _igcd(g, zcontent(cs))
            if g == 1:
                break
        if g > 1:
            row = [[x // g for x in cs] for cs in row]
            cofs = {idx: [x // g for x in den]}

        prev = [1]
        for pcol, pcoords, pcofs, plead in self.rows:
            m = row[pcol]

            def step(rc, pc):
                v = zsub(zmul(rc, plead), zmul(pc, m)) if m else zmul(rc, plead)
                return zdivexact(v, prev) if prev != [1] else v

            row = [step(rc, pc) for rc, pc in zip(row, pcoords)]
            ncofs = {}
            for key in set(cofs) | set(pcofs):
                v = step(cofs.get(key, []), pcofs.get(key, []))
                if v:
                    ncofs[key] = v
            cofs = ncofs
            prev = plead
        for col in range(self.width):
            if row[col]:
                self.rows.append((col, row, cofs, row[col]))
                return None
        # dependent: strip the full content once, then normalize the sign
        # on the first non-zero cofactor
        g = []
        for cs in cofs.values():
            g = zgcd(g, cs) if g else list(cs)
            if g == [1]:
                break
        out = [cofs.get(i, []) for i in range(idx + 1)]
        if g and g != [1]:
            out = [zdivexact(cs, g) if cs else [] for cs in out]
        for cs in out:
            if cs:
                if cs[-1] < 0:
                    out = [zneg(c) for c in out]
                break
        return [UniPoly(cs) for cs in out]


def left_kernel_step(rows):
    """First linear dependency among the given coordinate rows, with exact
    cofactors, or None if the rows are independent."""
    if not rows:
        return None
    acc = KernelAccumulator(len(rows[0]))
    for row in rows:
        dep = acc.add_row([c if isinstance(c, RatFunc) else RatFunc.from_rat(c) for c in row])
        if dep is not None:
            return dep
    return None


@dataclass
class PipelineResult:
    model: ModelSpec
    generators: list
    gb: list
    reducers: list
    basis: ReductionBasis
    ghat: list
    kernel: list
    ode: ODE
    traces: list = None
    timings: dict = field(default_factory=dict)


def run_pipeline(model: ModelSpec, want_trace: bool = False) -> PipelineResult:
    """Full derivation; raises PipelineFailure on FAIL / FAIL-DOMINANCE."""
    k = model.k
    timings = {}
    t0 = time.perf_counter()
    gens = build_generators(model)
    timings["generators"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    gb = module_buchberger([eta_embed(p) for p in gens])
    reducers = extract_reducers(gb)
    basis = reduction_basis(reducers)
    timings["groebner"] = time.perf_counter() - t0

    g = build_g(model)
    stairs = basis.stairs
    ghat = [MPoly.const(k, 1)]
    traces = [] if want_trace else None
    acc = KernelAccumulator(len(stairs))
    reduction_time = 0.0
    kernel_time = 0.0

    t0 = time.perf_counter()
    dep = acc.add_row([ghat[0].coeff(e) for e in stairs])
    kernel_time += time.perf_counter() - t0
    while dep is None:
        if len(ghat) > len(stairs) + 1:
            raise RuntimeError("no dependency within the stairs dimension; bug")
        t0 = time.perf_counter()
        nxt = g * ghat[-1] + ghat[-1].map_coeffs(lambda c: c.derivative())
        shat, trace = red(nxt, basis, want_trace)
        reduction_time += time.perf_counter() - t0
        if want_trace:
            traces.append((nxt, shat, trace))
        ghat.append(shat)
        t0 = time.perf_counter()
        dep = acc.add_row([shat.coeff(e) for e in stairs])
        kernel_time += time.perf_counter() - t0
    timings["reduction"] = reduction_time
    timings["kernel"] = kernel_time

    ode = ODE.from_kernel(dep)
    return PipelineResult(
        model=model,
        generators=gens,
        gb=gb,
        reducers=reducers,
        basis=basis,
        ghat=ghat,
        kernel=dep,
        ode=ode,
        traces=traces,
        timings=timings,
    )
