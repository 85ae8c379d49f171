"""Reduction-based telescoping: iterate reduced derivatives of the pairing
and assemble the annihilating ODE from the first linear dependency.

The reduction rewrites a polynomial s modulo the span of G_i . Q(t)[p]
without changing the pairing <exp(f), s exp(tg)>: the largest monomial
divisible by some leading monomial m_j is cancelled by subtracting the
reducer's full action on the matching term, and dominance guarantees the
cancellation is exact.  Termination confines results to the stairs.

Successive reduced forms g-check_i of d_t^i applied to the pairing are
produced incrementally (g-check * g + d_t g-check) until the first
Q(t)-linear dependency among them, whose cofactors are the ODE
coefficients.  Each new row is proved independent, when it is, by its
image at one point t0 modulo a prime; only a row that image cannot
separate starts a fraction-free elimination over Z[t], whose back
substitution gives the cofactors.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import gcd as _igcd

from .exactnum import RF_ONE, RatFunc, UniPoly, zcontent, zdivexact, zdot, zgcd, zgcd_split, zmul, zneg, zscale, zval
from .models import ModelSpec, build_g, build_generators
from .modgb import eta_embed, extract_reducers, is_dominant, module_buchberger
from .polyring import MPoly, exp_div, exp_divides, grevlex_key, stairs_and_dim, sweep
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
    """Dominant reducers and their stairs.  ``images`` holds what ``red``
    has applied so far: (j, shift) maps to the terms of G_j . p^shift."""

    reducers: list
    stairs: list
    images: dict = field(default_factory=dict)


def reduction_basis(reducers) -> ReductionBasis:
    """Check dominance, compute the stairs; raises the pipeline failures."""
    for i, r in enumerate(reducers):
        if not is_dominant(r):
            raise FailDominance(i)
    stairs = stairs_and_dim([r.m for r in reducers])
    if stairs is None:
        raise FailPositiveDim()
    return ReductionBasis(reducers, stairs)


def _neg_degree(e):
    """Heap key of an exponent in ``red``'s sweep: with ties broken by the
    exponent itself, ascending keys are descending ``grevlex_key``."""
    return -sum(e)


def red(s: MPoly, basis: ReductionBasis, want_trace: bool = False):
    """Reduce s to its normal form under the stairs, by ``polyring.sweep``.

    Each step cancels the largest monomial that some m_j divides, using the
    largest such m_j (ties by index), by subtracting G_j . (c p^shift).
    Dominance (checked by ``reduction_basis``) puts every term a step
    subtracts below its target.  G_j acts Q(t)-linearly, so each image
    G_j . p^shift is formed once per basis (``basis.images``) and every
    step scales it by -c.

    Returns (s-check, trace); the trace lists (j, coeff, exponent) per
    elimination step so that s == s-check + sum_j G_j . sigma_j exactly,
    with sigma_j the sum of the traced terms for reducer j.
    """
    reducers, images = basis.reducers, basis.images
    # reducer indices by decreasing m; the stable sort keeps ties by index
    order = sorted(range(len(reducers)), key=lambda j: grevlex_key(reducers[j].m), reverse=True)
    trace = [] if want_trace else None

    def step(e, c):
        for j in order:
            if exp_divides(reducers[j].m, e):
                break
        else:
            return None
        shift = exp_div(e, reducers[j].m)
        if want_trace:
            trace.append((j, c, shift))
        img = images.get((j, shift))
        if img is None:
            img = images[(j, shift)] = apply_op(reducers[j].g, MPoly.term(s.k, shift, RF_ONE)).terms
        c = -c
        return {m: x * c for m, x in img.items()}

    terms = dict(s.terms)
    sweep(terms, _neg_degree, step)
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


#: The rank test's modulus, the Mersenne prime 2^61 - 1, and the fixed
#: point t0 != 0 at which it specializes t.
_P = (1 << 61) - 1
_T0 = 1234567890123456789

_independent_solves = 0


def independent_solves() -> int:
    """How many exact solves in this process found their rows independent:
    rows whose image at t0 could not prove it, and each later row of the
    same accumulator, which has dropped its images."""
    return _independent_solves


def _mod_image(a):
    """The integer polynomial a at t0, mod p."""
    x = 0
    for c in reversed(a):
        x = (x * _T0 + c) % _P
    return x


def _row_image(coords):
    """The RatFunc coordinates at t0, mod p, or None when a denominator
    cd * dp(t0) vanishes there."""
    out = []
    for c in coords:
        if not c.cn:
            out.append(0)
            continue
        d = c.cd * _mod_image(c.dp) % _P
        if not d:
            return None
        out.append(c.cn * pow(_T0, c.e, _P) * _mod_image(c.np) * pow(d, -1, _P) % _P)
    return out


class KernelAccumulator:
    """Incremental left-kernel detection over Q(t), output-sensitive: rows
    are proved independent by an image mod p, and only a row that may be
    dependent starts one exact solve, whose cofactors are the dependency.

    Each row is cleared of denominators on entry (the power of t by one
    shift, the rest by gcds) and of its integer content; the cleared row
    is stored with its seed, the factor den/g it was multiplied by.  Its
    coordinates at t = t0 mod p are then reduced against an echelon of the
    earlier rows' images: specialization never raises rank, so a non-zero
    remainder proves the rows independent over Q(t), and ``add_row``
    returns None with no exact work.  A zero remainder, or a coordinate
    with no image (its denominator vanishes at t0), leads to one
    fraction-free elimination of the transposed matrix (``_solve``).  If
    that finds the rows independent after all, t0 was unlucky for them:
    the images are dropped, and every later row is solved exactly.
    """

    def __init__(self, width: int):
        self.width = width
        # cleared rows and the factors they were multiplied by
        self.rows = []
        self.seeds = []
        # (pivot column, image row scaled to 1 there), or None once dropped
        self.echelon = []

    def add_row(self, coords):
        """coords: RatFunc coordinates.  Returns None while independent, or
        the dependency cofactors as integer UniPolys (index = row)."""
        global _independent_solves
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
        # pre-elimination scaling is free: strip the integer content now
        g = zcontent(den)
        for cs in row:
            g = _igcd(g, zcontent(cs))
            if g == 1:
                break
        if g > 1:
            row = [[x // g for x in cs] for cs in row]
            den = [x // g for x in den]
        self.rows.append(row)
        self.seeds.append(den)

        if self.echelon is not None:
            img = _row_image(coords)
            if img is not None and self._extends(img):
                return None
        dep = self._solve()
        if dep is None:
            _independent_solves += 1
            self.echelon = None
        return dep

    def _extends(self, img):
        """Reduce the image against the echelon; a non-zero remainder joins
        it, and True says the row is independent."""
        for col, vec in self.echelon:
            a = img[col]
            if a:
                img = [(x - a * y) % _P for x, y in zip(img, vec)]
        for col, a in enumerate(img):
            if a:
                inv = pow(a, -1, _P)
                self.echelon.append((col, [x * inv % _P for x in img]))
                return True
        return False

    def _solve(self):
        """The dependency of the newest row on the earlier ones, or None.

        Single-step Bareiss elimination runs on the transposed matrix, whose
        column i is row i; each column's pivot row is the first remaining
        row with a non-zero entry there, swapped into place.  The earlier
        rows are independent, so the first column without a pivot is the
        newest row's.  Fraction-free back substitution then gives c_f = the
        last pivot and c_k = -(sum over j > k of U_kj*c_j) / U_kk, each
        division exact (Cramer: every c_k is a minor); each step of both is
        one ``zdot``.  Multiplied by the rows' seeds, the c_k annihilate the
        given coordinates; the full content is stripped once -- the power
        of t by the least valuation, the rest by gcds of the t-free parts --
        and the sign is normalized on the first non-zero cofactor.
        """
        n = len(self.rows)
        u = [list(col) for col in zip(*self.rows)]
        prev = [1]
        for f in range(n):
            piv = next((i for i in range(f, self.width) if u[i][f]), None)
            if piv is None:
                break
            u[f], u[piv] = u[piv], u[f]
            top = u[f]
            for cur in u[f + 1:]:
                m = zneg(cur[f])
                for j in range(f + 1, n):
                    cur[j] = zdot([(cur[j], top[f]), (top[j], m)], prev)
            prev = top[f]
        else:
            return None
        cofs = [[] for _ in range(n)]
        cofs[f] = prev
        for k in range(f - 1, -1, -1):
            uk = u[k]
            cofs[k] = zneg(zdot([(uk[j], cofs[j]) for j in range(k + 1, f + 1)], uk[k]))
        cofs = [zdot([(c, seed)]) for c, seed in zip(cofs, self.seeds)]
        v = min(zval(cs) for cs in cofs if cs)
        g = []
        for cs in cofs:
            if cs:
                cs = cs[zval(cs):]
                if not g:
                    g = cs
                else:
                    try:
                        zdivexact(cs, g)  # g stays the gcd, up to sign
                    except ArithmeticError:
                        g = zgcd(g, cs)
                if g == [1]:
                    break
        out = [cs[v:] for cs in cofs]
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
