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

from .exactnum import RatFunc, UniPoly, zcontent, zdivexact, zgcd, zgcd_split, zkron, zmul, zneg, zscale, zunkron, zval
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


def _even_part(a):
    """``(v, a[v::2])`` when the non-zero polynomial a is t^v * A(t^2),
    else None."""
    v = zval(a)
    return None if any(a[v + 1::2]) else (v, a[v::2])


def _bits(a):
    return max(map(abs, a)).bit_length()


class _BareissStep:
    """One elimination step against a stored pivot row: the map
    (rc, pc) -> (rc*plead - pc*m) / prev, the two products and their
    difference formed by one Kronecker evaluation at t = 2^(8*nb).

    The width is rigorous: a product x*y has coefficients below
    2^(bits(x) + bits(y) + bitlen(min(len x, len y))), and one bit more
    holds the difference, one the sign.  When every operand is
    t^v * A(t^2) and the two products' shifts have equal parity, the
    products are formed in T = t^2, with half the packed length, and
    inflated back.  plead and m are packed once per step and width.
    """

    def __init__(self, plead, m, prev):
        self.fixed = (plead, m)
        self.even = (_even_part(plead), _even_part(m) if m else None)
        self.prev = prev
        self.images = {}

    def __call__(self, rc, pc):
        # the non-zero products, as (x, k): x times fixed[k]
        ops = [(x, k) for k, x in enumerate((rc, pc)) if x and self.fixed[k]]
        if not ops:
            return []
        evens = [(_even_part(x), self.even[k]) for x, k in ops]
        s0 = None
        if all(ex and ey for ex, ey in evens) and len({(ex[0] + ey[0]) & 1 for ex, ey in evens}) == 1:
            s0 = min(ex[0] + ey[0] for ex, ey in evens)
            # (shift in T above t^s0, x, y, image key)
            terms = [((ex[0] + ey[0] - s0) >> 1, ex[1], ey[1], (k, True)) for (ex, ey), (_, k) in zip(evens, ops)]
        else:
            terms = [(0, x, self.fixed[k], (k, False)) for x, k in ops]
        # bits of the largest product bound plus two, in whole bytes
        nb = (max(_bits(x) + _bits(y) + min(len(x), len(y)).bit_length() for _, x, y, _ in terms) + 9) // 8
        acc = 0
        n = 0
        for shift, x, y, key in terms:
            img = self.images.get((key, nb))
            if img is None:
                img = self.images[(key, nb)] = zkron(y, nb)
            p = zkron(x, nb) * img << (8 * nb * shift)
            acc = acc - p if key[0] else acc + p  # pc*m (k == 1) is subtracted
            n = max(n, shift + len(x) + len(y) - 1)
        v = zunkron(acc, nb, n)
        if s0 is not None and v:
            w = [0] * (s0 + 2 * len(v) - 1)
            w[s0::2] = v
            v = w
        return zdivexact(v, self.prev) if self.prev != [1] else v


class KernelAccumulator:
    """Incremental left-kernel detection over Q(t) by single-step Bareiss
    elimination on integer polynomials, with exact cofactor tracking.

    Rows are cleared of denominators on entry.  Each elimination step
    cross-multiplies with a stored pivot row and divides exactly by the
    previous pivot entry (Sylvester's identity keeps every entry, cofactor
    columns included, a minor of the denominator-cleared input), so growth
    stays determinant-sized without any gcd work in the loop; the full
    content is stripped once from the final dependency vector.  Each
    entry's cross-multiplication rc*plead - pc*m is one Kronecker
    evaluation (``_BareissStep``): the operands are packed as integers at
    t = 2^W with W from their actual sizes, a bound that cannot overflow,
    the difference is formed by two big-integer products, and its digits
    are read back; operands in t^2 are packed at half length.  Entries are
    stored as polynomials, and the exact division stays polynomial.
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
        # common denominator t^s * den: the lcm of the t-free parts
        # cd*dp by gcds, the power of t as one shift
        den = [1]
        s = 0
        for c in coords:
            if c.cn:
                s = max(s, -c.e)
                if c.cd != 1 or c.dp != (1,):
                    extra = zscale(c.dp, c.cd)
                    if den == [1]:
                        den = extra
                    else:
                        _, _, extra = zgcd_split(den, extra)
                        den = zmul(den, extra)
        row = []
        for c in coords:
            if not c.cn:
                row.append([])
            else:
                q = den if c.cd == 1 and c.dp == (1,) else zdivexact(den, zscale(c.dp, c.cd))
                row.append([0] * (s + c.e) + zscale(q if c.np == (1,) else zmul(c.np, q), c.cn))
        den = [0] * s + den
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
            step = _BareissStep(plead, row[pcol], prev)
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
        # dependent: strip the full content once -- the power of t by the
        # least valuation, the rest by gcds of the t-free parts -- then
        # normalize the sign on the first non-zero cofactor
        v = min(map(zval, cofs.values()))
        g = []
        for cs in cofs.values():
            cs = cs[zval(cs):]
            g = zgcd(g, cs) if g else cs
            if g == [1]:
                break
        out = [cofs.get(i, [])[v:] for i in range(idx + 1)]
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
