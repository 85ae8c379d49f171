"""Module Groebner engine.

The twisted generators are embedded into a free Q(t)[p]-module with basis
{eta1} union {d^beta eta0}: the coefficient of eta1 is the derivation-free
part, the d^beta eta0 coordinates carry the rest.  The module action is
coefficient-wise multiplication by polynomials in p (right multiplication
of operators by p-polynomials is commutative on d-left coefficients), so
no new positions ever appear and a commutative Buchberger computation
applies, with S-pairs only between elements whose leading monomials sit in
the same position.  An element is one term map keyed by module monomials
(position, p-exponent), position None for eta1, and its normal form is a
``polyring.sweep`` over that map.

``module_buchberger`` is the one place that normalises the basis: every
element it adds is made monic, and one inter-reduction pass over the
minimal basis leaves it reduced (the leads do not change, so no element
needs a second pass or a new scale).  Since eta1 is the first position,
an element with an eta1 part leads there with coefficient 1.  These
elements are reassembled into Weyl operators G = Q + R; they are the
reducers driving the telescoping reduction, provided each is dominant:
G has coefficient 1 at its leading monomial m, and every other monomial
p^a d^b of G raises degree by strictly less than deg m when applied to
a polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactnum import RF_ONE, RatFunc
from .polyring import (
    exp_mul,
    MPoly,
    SparseTerms,
    add_term,
    exp_div,
    exp_divides,
    grevlex_key,
    module_key,
    sweep,
)
from .weyl import WeylOp, from_dleft, to_dleft


class ModuleElem(SparseTerms):
    """Element of the free module: ``terms`` maps module monomials
    (position, p-exponent) to coefficients, with position None for eta1
    and the non-zero d-exponent beta for d^beta eta0.

    ``eta1`` and ``eta0`` are read-only views of the coordinates for the
    boundaries (embedding, reassembly, printing); the algorithms work on
    ``terms``.
    """

    __slots__ = ()

    def __init__(self, k: int, eta1: MPoly | None = None, eta0=None):
        self.k = k
        self.terms = {} if eta1 is None else {(None, e): c for e, c in eta1.terms.items()}
        for b, m in (eta0 or {}).items():
            self.terms.update(((b, e), c) for e, c in m.terms.items())

    @property
    def eta1(self) -> MPoly:
        """The eta1 coordinate."""
        return MPoly._of(self.k, {e: c for (pos, e), c in self.terms.items() if pos is None})

    @property
    def eta0(self) -> dict:
        """The non-zero d^beta eta0 coordinates as {beta: MPoly}."""
        parts = {}
        for (pos, e), c in self.terms.items():
            if pos is not None:
                parts.setdefault(pos, {})[e] = c
        return {b: MPoly._of(self.k, m) for b, m in parts.items()}

    def lead(self):
        """Largest module monomial with coefficient, or None when zero."""
        if not self.terms:
            return None
        mon = max(self.terms, key=module_key)
        return mon, self.terms[mon]

    def mul_term(self, exp, c: RatFunc) -> "ModuleElem":
        if not c:
            return ModuleElem(self.k)
        return ModuleElem._of(self.k, {(pos, exp_mul(e, exp)): x * c for (pos, e), x in self.terms.items()})

    def __repr__(self):
        parts = []
        eta1, eta0 = self.eta1, self.eta0
        if not eta1.is_zero():
            parts.append(f"eta1*({eta1})")
        for b in sorted(eta0, key=grevlex_key, reverse=True):
            ds = "*".join(
                f"d{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(b) if e
            )
            parts.append(f"{ds}.eta0*({eta0[b]})")
        return " + ".join(parts) if parts else "0"


def eta_embed(a: WeylOp) -> ModuleElem:
    """Split the d-left form of an operator into eta1 / eta0 coordinates."""
    z = (0,) * a.k
    return ModuleElem._of(a.k, {(None if b == z else b, e): c
                                for b, m in to_dleft(a).items() for e, c in m.terms.items()})


def module_to_weyl(elem: ModuleElem) -> WeylOp:
    """Set eta1 = eta0 = 1: back to the operator sum Q + sum d^beta c_beta."""
    return from_dleft(elem.k, {(0,) * elem.k: elem.eta1, **elem.eta0})


def _sweep_key(mon):
    """Heap key of a module monomial: smaller for larger ``module_key``."""
    pos, e = mon
    return ((-1,) if pos is None else (0, -sum(pos), pos)), -sum(e), e


def _normal_form(elem, basis, leads, cof=None, basis_cofs=None):
    """Full normal form of elem against monic basis elements, by ``sweep``.

    Each step cancels the largest reducible monomial with the first basis
    element whose leading monomial divides it.  The basis is monic, so
    every term a step subtracts lies below its target.

    When cofactor lists are given, cof must hold a generator expression of
    elem on entry; it is updated in place and expresses the result on exit.
    """
    cof_terms = None if cof is None else [dict(c.terms) for c in cof]

    def step(mon, c):
        pos, e = mon
        for bi, (bpos, bexp) in enumerate(leads):
            if bpos == pos and exp_divides(bexp, e):
                break
        else:
            return None
        shift = exp_div(e, bexp)
        c = -c
        if cof_terms is not None:
            for out, bc in zip(cof_terms, basis_cofs[bi]):
                for be, x in bc.terms.items():
                    add_term(out, exp_mul(be, shift), x * c)
        return basis[bi].mul_term(shift, c).terms

    terms = dict(elem.terms)
    sweep(terms, _sweep_key, step)
    if cof is not None:
        cof[:] = [MPoly._of(elem.k, t) for t in cof_terms]
    return ModuleElem._of(elem.k, terms)


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
        # the only scaling of the basis: every element enters monic
        lm, lc = elem.lead()
        inv = lc.inverse()
        basis.append(elem.scale(inv))
        leads.append(lm)
        cofs.append(None if cof is None else [c.scale(inv) for c in cof])
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

    return _autoreduce(basis, leads, cofs, with_cofactors)


def _autoreduce(basis, leads, cofs, with_cofactors):
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

    # one pass: a normal form against the other leads keeps an element's
    # lead with coefficient 1, so the leads, and with them every element
    # already reduced, stay as they are
    for i in range(len(basis)):
        cof = list(cofs[i]) if with_cofactors else None
        basis[i] = _normal_form(basis[i], basis[:i] + basis[i + 1 :], leads[:i] + leads[i + 1 :],
                                cof, cofs[:i] + cofs[i + 1 :])
        cofs[i] = cof

    order = sorted(range(len(basis)), key=lambda i: module_key(leads[i]))
    basis = [basis[i] for i in order]
    cofs = [cofs[i] for i in order]
    if with_cofactors:
        return basis, cofs
    return basis


@dataclass
class Reducer:
    """A reducer (G, m): the operator G = Q + R reassembled from a monic
    basis element whose lead m lies in its eta1 part Q, so that G has
    coefficient 1 at m (``is_dominant`` checks this)."""

    g: WeylOp
    m: tuple

    def __repr__(self):
        return f"Reducer(m=p^{self.m}, G={self.g})"


def extract_reducers(gb) -> list:
    """Reassemble operators from the basis elements that involve eta1,
    which are those whose lead lies in eta1."""
    out = []
    for elem in gb:
        (pos, m), _ = elem.lead()
        if pos is None:
            out.append(Reducer(g=module_to_weyl(elem), m=m))
    if not out:
        raise ValueError("no candidate reducers: no basis element involves eta1")
    return out


def is_dominant(red: Reducer) -> bool:
    """Certificate that reducing by G cancels leading terms exactly.

    G must have coefficient 1 at m.  Acting with a monomial p^a d^b on a
    polynomial shifts total degree by w = sum(a) - sum(b).  Every other
    monomial of G must either shift by strictly less than deg m, or shift
    by exactly deg m while landing strictly below under the graded order:
    for u the leading monomial of s, the term contributes p^(a+u-b), which
    stays below m*u precisely when p^a < m*p^b.  Then the leading term of
    G.s is m times that of s for any non-zero s.
    """
    degm = sum(red.m)
    mkey = (red.m, (0,) * red.g.k)
    if red.g.terms.get(mkey) != RF_ONE:
        return False
    for alpha, beta in red.g.terms:
        w = sum(alpha) - sum(beta)
        if w < degm or (alpha, beta) == mkey:
            continue
        if w > degm or grevlex_key(alpha) >= grevlex_key(exp_mul(red.m, beta)):
            return False
    return True
