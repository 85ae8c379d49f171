"""Module Groebner engine.

The twisted generators are embedded into a free Q(t)[p]-module with basis
{eta1} union {d^beta eta0}: the coefficient of eta1 is the derivation-free
part, the d^beta eta0 coordinates carry the rest.  The module action is
coefficient-wise multiplication by polynomials in p (right multiplication
of operators by p-polynomials is commutative on d-left coefficients), so
no new positions ever appear and a commutative Buchberger computation
applies, with S-pairs only between elements whose leading monomials sit in
the same position.

From the reduced basis, the elements involving eta1 are reassembled into
Weyl operators G = Q + R; these are the reducers driving the telescoping
reduction, provided each is dominant: every monomial p^a d^b of the monic
G - m must raise degree by strictly less than deg m when applied to a
polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .exactnum import RF_ONE, RatFunc
from .polyring import (
    exp_mul,
    MPoly,
    add_term,
    exp_div,
    exp_divides,
    grevlex_key,
    leading_term,
    module_key,
)
from .weyl import WeylOp, from_dleft, to_dleft


class ModuleElem:
    """Element of the free module: eta1 coefficient plus a map from
    non-zero d-exponents (the d^beta eta0 positions) to coefficients."""

    __slots__ = ("k", "eta1", "eta0")

    def __init__(self, k: int, eta1: MPoly, eta0=None):
        self.k = k
        self.eta1 = eta1
        self.eta0 = {b: m for b, m in (eta0 or {}).items() if not m.is_zero()}

    @classmethod
    def _of(cls, k: int, eta1: MPoly, eta0: dict) -> "ModuleElem":
        """Wrap coordinates with no zero eta0 entry, without the filter."""
        self = cls.__new__(cls)
        self.k = k
        self.eta1 = eta1
        self.eta0 = eta0
        return self

    def is_zero(self) -> bool:
        return self.eta1.is_zero() and not self.eta0

    def __eq__(self, other):
        if isinstance(other, ModuleElem):
            return self.k == other.k and self.eta1 == other.eta1 and self.eta0 == other.eta0
        return NotImplemented

    def monomials(self):
        """All ((position, exponent), coeff) with position None for eta1."""
        for e, c in self.eta1.terms.items():
            yield (None, e), c
        for b, m in self.eta0.items():
            for e, c in m.terms.items():
                yield (b, e), c

    def lead(self):
        """Largest module monomial with coefficient, or None when zero."""
        best = None
        bk = None
        bc = None
        for mon, c in self.monomials():
            key = module_key(mon)
            if bk is None or key > bk:
                best, bk, bc = mon, key, c
        if best is None:
            return None
        return best, bc

    def coeff(self, mon) -> RatFunc:
        pos, e = mon
        if pos is None:
            return self.eta1.coeff(e)
        part = self.eta0.get(pos)
        from .exactnum import RF_ZERO

        return part.coeff(e) if part is not None else RF_ZERO

    def mul_term(self, exp, c: RatFunc) -> "ModuleElem":
        if not c:
            return ModuleElem(self.k, MPoly(self.k))
        return ModuleElem._of(
            self.k,
            self.eta1.mul_term(exp, c),
            {b: m.mul_term(exp, c) for b, m in self.eta0.items()},
        )

    def scale(self, c: RatFunc) -> "ModuleElem":
        if not c:
            return ModuleElem(self.k, MPoly(self.k))
        return ModuleElem._of(self.k, self.eta1.scale(c), {b: m.scale(c) for b, m in self.eta0.items()})

    def __sub__(self, other):
        eta0 = dict(self.eta0)
        for b, m in other.eta0.items():
            add_term(eta0, b, -m)
        return ModuleElem._of(self.k, self.eta1 - other.eta1, eta0)

    def __repr__(self):
        parts = []
        if not self.eta1.is_zero():
            parts.append(f"eta1*({self.eta1})")
        for b in sorted(self.eta0, key=grevlex_key, reverse=True):
            ds = "*".join(
                f"d{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(b) if e
            )
            parts.append(f"{ds}.eta0*({self.eta0[b]})")
        return " + ".join(parts) if parts else "0"


def eta_embed(a: WeylOp) -> ModuleElem:
    """Split the d-left form of an operator into eta1 / eta0 coordinates."""
    dl = to_dleft(a)
    z = (0,) * a.k
    eta1 = dl.get(z, MPoly(a.k))
    eta0 = {b: m for b, m in dl.items() if b != z}
    return ModuleElem(a.k, eta1, eta0)


def module_to_weyl(elem: ModuleElem) -> WeylOp:
    """Set eta1 = eta0 = 1: back to the operator sum Q + sum d^beta c_beta."""
    out = WeylOp.from_mpoly(elem.eta1)
    if elem.eta0:
        out = out + from_dleft(elem.k, elem.eta0)
    return out


def _sweep_key(mon):
    """Heap key of a module monomial: smaller for larger ``module_key``."""
    pos, e = mon
    return ((-1,) if pos is None else (0, -sum(pos), pos)), -sum(e), e


def _normal_form(elem, basis, leads, cof=None, basis_cofs=None):
    """Full normal form of elem against monic basis elements.

    Each step cancels the largest reducible monomial with the first basis
    element whose leading monomial divides it.  One descending sweep does
    this: a heap hands out the monomials of one mutable term map from the
    largest down, each step's subtrahend is folded into the map in place,
    and a monomial found irreducible is never tested again.  Because the
    basis is monic, every term a step subtracts lies below its target, so
    the next reducible monomial is always the next one popped.

    When cofactor lists are given, cof must hold a generator expression of
    elem on entry; it is updated in place and expresses the result on exit.
    """
    k = elem.k
    terms = dict(elem.monomials())
    seen = set(terms)
    heap = [(_sweep_key(mon), mon) for mon in terms]
    heapify(heap)
    cof_terms = None if cof is None else [dict(c.terms) for c in cof]
    while heap:
        mon = heappop(heap)[1]
        c = terms.get(mon)
        if c is None:
            continue
        pos, e = mon
        for bi, (bpos, bexp) in enumerate(leads):
            if bpos == pos and exp_divides(bexp, e):
                break
        else:
            continue
        shift = exp_div(e, bexp)
        for m, x in basis[bi].mul_term(shift, c).monomials():
            if m not in seen:
                seen.add(m)
                heappush(heap, (_sweep_key(m), m))
            add_term(terms, m, -x)
        if cof is not None:
            for out, bc in zip(cof_terms, basis_cofs[bi]):
                for be, x in bc.terms.items():
                    add_term(out, exp_mul(be, shift), -(x * c))
    if cof is not None:
        cof[:] = [MPoly._of(k, t) for t in cof_terms]
    eta1 = {}
    eta0 = {}
    for (pos, e), c in terms.items():
        if pos is None:
            eta1[e] = c
        else:
            eta0.setdefault(pos, {})[e] = c
    return ModuleElem._of(k, MPoly._of(k, eta1), {b: MPoly._of(k, m) for b, m in eta0.items()})


def module_buchberger(gens, with_cofactors=False):
    """Reduced monic Groebner basis of the right Q(t)[p]-module generated
    by gens under the module ordering.

    With ``with_cofactors`` the result is (basis, cofactors) where each
    basis element equals sum_i cofactors[i] * gens[i] coefficient-wise.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("no generators")
    k = gens[0].k
    ngens = len(gens)

    basis = []
    leads = []
    cofs = []

    def add_element(elem, cof):
        lm, lc = elem.lead()
        elem = elem.scale(lc.inverse())
        if cof is not None:
            inv = lc.inverse()
            cof = [c.scale(inv) for c in cof]
        basis.append(elem)
        leads.append(lm)
        cofs.append(cof)
        return len(basis) - 1

    # pair bookkeeping: (i, j) -> lcm exponent; Gebauer-Moeller chain pruning
    pairs = {}

    def lcm_exp(a, b):
        return tuple(max(x, y) for x, y in zip(a, b))

    def update_pairs(s):
        pos_s, a_s = leads[s]
        fresh = {}
        for i in range(s):
            pos_i, a_i = leads[i]
            if pos_i == pos_s:
                fresh[(i, s)] = lcm_exp(a_i, a_s)
        # prune old pairs by the chain criterion
        for (i, j), l in list(pairs.items()):
            pos_ij = leads[i][0]
            if pos_ij == pos_s and exp_divides(a_s, l):
                if lcm_exp(leads[i][1], a_s) != l and lcm_exp(leads[j][1], a_s) != l:
                    del pairs[(i, j)]
        # prune fresh pairs among themselves: keep minimal lcms, one per lcm
        items = sorted(fresh.items(), key=lambda t: grevlex_key(t[1]))
        kept = []
        for (i, s2), l in items:
            drop = False
            for (_, l2) in kept:
                if exp_divides(l2, l):
                    drop = True
                    break
            if not drop:
                kept.append(((i, s2), l))
        for key, l in kept:
            pairs[key] = l

    for gi, g in enumerate(gens):
        cof = None
        if with_cofactors:
            cof = [MPoly(k) for _ in range(ngens)]
            cof[gi] = MPoly.const(k, 1)
        red = _normal_form(g, basis, leads, cof, cofs)
        if red.is_zero():
            continue
        s = add_element(red, cof)
        update_pairs(s)

    while pairs:
        key = min(pairs, key=lambda ij: (grevlex_key(pairs[ij]), ij))
        i, j = key
        del pairs[key]
        (pos, a_i), (_, a_j) = leads[i], leads[j]
        l = lcm_exp(a_i, a_j)
        si = basis[i].mul_term(exp_div(l, a_i), RF_ONE)
        sj = basis[j].mul_term(exp_div(l, a_j), RF_ONE)
        s_elem = si - sj
        cof = None
        if with_cofactors:
            qi = MPoly.term(k, exp_div(l, a_i), RF_ONE)
            qj = MPoly.term(k, exp_div(l, a_j), RF_ONE)
            cof = [cofs[i][g] * qi - cofs[j][g] * qj for g in range(ngens)]
        red = _normal_form(s_elem, basis, leads, cof, cofs)
        if red.is_zero():
            continue
        s = add_element(red, cof)
        update_pairs(s)

    return _autoreduce(basis, leads, cofs, ngens, k, with_cofactors)


def _autoreduce(basis, leads, cofs, ngens, k, with_cofactors):
    # drop elements whose lead is divisible by another's lead
    keep = []
    for i, (pos, e) in enumerate(leads):
        dominated = False
        for j, (pos2, e2) in enumerate(leads):
            if i == j or pos2 != pos:
                continue
            if exp_divides(e2, e) and (e2 != e or j < i):
                dominated = True
                break
        if not dominated:
            keep.append(i)
    basis = [basis[i] for i in keep]
    leads = [leads[i] for i in keep]
    cofs = [cofs[i] for i in keep]

    changed = True
    while changed:
        changed = False
        for i in range(len(basis)):
            others = basis[:i] + basis[i + 1 :]
            other_leads = leads[:i] + leads[i + 1 :]
            if with_cofactors:
                cof = list(cofs[i])
                red = _normal_form(basis[i], others, other_leads, cof, cofs[:i] + cofs[i + 1 :])
            else:
                red = _normal_form(basis[i], others, other_leads)
                cof = None
            if not (red == basis[i]):
                changed = True
                lm, lc = red.lead()
                inv = lc.inverse()
                basis[i] = red.scale(inv)
                leads[i] = lm
                if with_cofactors:
                    cofs[i] = [c.scale(inv) for c in cof]

    order = sorted(range(len(basis)), key=lambda i: module_key(leads[i]))
    basis = [basis[i] for i in order]
    cofs = [cofs[i] for i in order]
    if with_cofactors:
        return basis, cofs
    return basis


@dataclass
class Reducer:
    """A dominant operator G = Q + R with Q the eta1 (derivation-free)
    part, m its leading monomial and c the leading coefficient."""

    g: WeylOp
    q: MPoly
    m: tuple
    c: RatFunc

    def __repr__(self):
        return f"Reducer(m=p^{self.m}, G={self.g})"


def extract_reducers(gb) -> list:
    """Reassemble operators from the basis elements that involve eta1."""
    out = []
    for elem in gb:
        if elem.eta1.is_zero():
            continue
        m, c = leading_term(elem.eta1)
        out.append(Reducer(g=module_to_weyl(elem), q=elem.eta1, m=m, c=c))
    if not out:
        raise ValueError("no candidate reducers: no basis element involves eta1")
    return out


def is_dominant(red: Reducer) -> bool:
    """Certificate that reducing by G cancels leading terms exactly.

    Acting with a monomial p^a d^b on a polynomial shifts total degree by
    w = sum(a) - sum(b).  Every monomial of the monic G besides m itself
    must either shift by strictly less than deg m, or shift by exactly
    deg m while landing strictly below under the graded order: for u the
    leading monomial of s, the term contributes p^(a+u-b), which stays
    below m*u precisely when p^a < m*p^b.  Then the leading monomial of
    G.s is m times that of s for any non-zero s.
    """
    degm = sum(red.m)
    monic = red.g if red.c.is_one() else red.g.scale(red.c.inverse())
    zero = (0,) * red.g.k
    mkey = (red.m, zero)
    for (alpha, beta), c in monic.terms.items():
        if (alpha, beta) == mkey:
            if not (c - RF_ONE).is_zero():
                return False
            continue
        w = sum(alpha) - sum(beta)
        if w < degm:
            continue
        if w > degm:
            return False
        if grevlex_key(alpha) >= grevlex_key(exp_mul(red.m, beta)):
            return False
    return True
