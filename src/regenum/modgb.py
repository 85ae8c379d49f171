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

The basis is computed by a signature-based Buchberger loop (the "RB"
algorithm of Eder and Roune, *Signature rewriting in Groebner basis
computation*, ISSAC 2013; signatures only, as in Roune and Stillman,
*Practical Groebner basis computation*, ISSAC 2012).  The signature of an
element is the leading term (i, p^a) of its expression sum_i q_i * gens[i],
ordered by the input index i and then by grevlex on a; input i enters with
(i, 0).  Pending signatures sit in a heap and each is handled once, the
smallest first: an S-pair is represented by the larger of its two
multiplied signatures.  The candidate at signature T is its rewriter, the
newest basis element whose signature divides T, times T/sig.  It is
reduced regularly, only by multiples b*m/lm(b) with sig(b)*m/lm(b) < T, so
the signature stays T.  A candidate whose lead is then divisible at
exactly T is singular, a multiple of an element already present, and is
dropped; a candidate that reduces to zero exhibits a syzygy of signature
T, and every later signature that T divides is skipped.  A regular
reduction reaches zero only at the signature of a syzygy.  The twisted
generators G_i = c_i*d_i + h_i(p) have none: the only eta0 coordinate of
G_i is its own d_i eta0, where it holds the non-zero constant c_i, so they
are linearly independent over Q(t)[p], and on them no reduction reaches
zero (``zero_reductions`` counts the reductions that do).

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
from heapq import heappop, heappush

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


def _sig_key(i, a):
    """Order key of the signature (i, p^a): by index, then grevlex."""
    return i, grevlex_key(a)


class _Singular(Exception):
    """A regular reduction stopped at a singular lead."""


def _normal_form(elem, basis, leads, cof=None, basis_cofs=None, sigs=None, bound=None):
    """Full normal form of elem against monic basis elements, by ``sweep``.

    Each step cancels the largest reducible monomial with the first basis
    element whose leading monomial divides it.  The basis is monic, so
    every term a step subtracts lies below its target.

    With the basis signatures ``sigs`` and a signature ``bound`` T the
    reduction is regular: element b may cancel m only if
    sig(b)*(m/lm b) < T.  The first monomial left is then the lead; if
    some lead divides it with multiplied signature equal to T, elem is
    singular and the result is None, without any tail reduction.

    When cofactor lists are given, cof must hold a generator expression of
    elem on entry; it is updated in place and expresses the result on exit.
    """
    cof_terms = None if cof is None else [dict(c.terms) for c in cof]
    if bound is not None:
        bound = _sig_key(*bound)
    lead_left = bound is not None

    def step(mon, c):
        nonlocal lead_left
        pos, e = mon
        singular = False
        for bi, (bpos, bexp) in enumerate(leads):
            if bpos == pos and exp_divides(bexp, e):
                if bound is None:
                    break
                si, sa = sigs[bi]
                key = _sig_key(si, exp_mul(sa, exp_div(e, bexp)))
                if key < bound:
                    break
                singular = singular or key == bound
        else:
            if lead_left and singular:
                raise _Singular
            lead_left = False
            return None
        shift = exp_div(e, bexp)
        c = -c
        if cof_terms is not None:
            for out, bc in zip(cof_terms, basis_cofs[bi]):
                for be, x in bc.terms.items():
                    add_term(out, exp_mul(be, shift), x * c)
        return basis[bi].mul_term(shift, c).terms

    terms = dict(elem.terms)
    try:
        sweep(terms, _sweep_key, step)
    except _Singular:
        return None
    if cof is not None:
        cof[:] = [MPoly._of(elem.k, t) for t in cof_terms]
    return ModuleElem._of(elem.k, terms)


_zero_reductions = 0


def zero_reductions() -> int:
    """How many reductions in ``module_buchberger`` reached zero in this
    process; each one is a syzygy of that call's inputs."""
    return _zero_reductions


def module_buchberger(gens, with_cofactors=False):
    """Reduced monic Groebner basis of the right Q(t)[p]-module generated
    by gens under the module ordering, by the signature-based loop that
    the module docstring describes.

    With ``with_cofactors`` the result is (basis, cofactors) where each
    basis element equals sum_i cofactors[i] * gens[i] coefficient-wise.
    """
    global _zero_reductions
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("no generators")
    k = gens[0].k
    ngens = len(gens)
    one = (0,) * k

    basis = []
    leads = []
    sigs = []
    cofs = []
    syzygies = []  # signatures whose regular reduction reached zero

    # pending signatures (i, a), smallest first: by i, then grevlex on a
    pending = [(_sig_key(i, one), i, one) for i in range(ngens)]
    seen = {(i, one) for i in range(ngens)}

    while pending:
        _, i, a = heappop(pending)
        if any(si == i and exp_divides(sa, a) for si, sa in syzygies):
            continue
        # the rewriter: the newest element whose signature divides (i, a)
        for r in range(len(basis) - 1, -1, -1):
            if sigs[r][0] == i and exp_divides(sigs[r][1], a):
                shift = exp_div(a, sigs[r][1])
                elem = basis[r].mul_term(shift, RF_ONE)
                cof = [c.mul_term(shift, RF_ONE) for c in cofs[r]] if with_cofactors else None
                break
        else:  # a == one: the input itself
            elem = gens[i]
            cof = None
            if with_cofactors:
                cof = [MPoly(k) for _ in range(ngens)]
                cof[i] = MPoly.const(k, 1)
        red = _normal_form(elem, basis, leads, cof, cofs, sigs, (i, a))
        if red is None:
            continue
        if red.is_zero():
            _zero_reductions += 1
            syzygies.append((i, a))
            continue
        (pos, lm), lc = red.lead()
        # each S-pair with an earlier element in the same position is
        # represented by the larger of the two multiplied signatures
        for j, (pos_j, lm_j) in enumerate(leads):
            if pos_j != pos:
                continue
            lcm = tuple(max(x, y) for x, y in zip(lm, lm_j))
            mine = (i, exp_mul(a, exp_div(lcm, lm)))
            theirs = (sigs[j][0], exp_mul(sigs[j][1], exp_div(lcm, lm_j)))
            sig = max(mine, theirs, key=lambda s: _sig_key(*s))
            if mine != theirs and sig not in seen:
                seen.add(sig)
                heappush(pending, (_sig_key(*sig), *sig))
        # the only scaling of the basis: every element enters monic
        inv = lc.inverse()
        basis.append(red.scale(inv))
        leads.append((pos, lm))
        sigs.append((i, a))
        cofs.append(None if cof is None else [c.scale(inv) for c in cof])

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
