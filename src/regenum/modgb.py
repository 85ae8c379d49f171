"""Module Groebner engine.

The twisted generators are embedded into a free Q(t)[p]-module with basis
{eta1} union {d^beta eta0}: the coefficient of eta1 is the derivation-free
part, the d^beta eta0 coordinates carry the rest.  The module action is
coefficient-wise multiplication by polynomials in p (right multiplication
of operators by p-polynomials is commutative on d-left coefficients), so
no new positions ever appear and a commutative Buchberger computation
applies, with S-pairs only between elements whose leading monomials sit in
the same position.  An element is one term map keyed by module monomials
(position, p-exponent), each packed into one non-negative int whose
integer order is ``polyring.module_key`` order (``_Packing``, after
Monagan and Pearce, *Polynomial division using dynamic arrays, heaps, and
packed exponent vectors*, CASC 2007): a shift by p^s adds one int to every
key, "lead divides monomial" is a position comparison and one guard-bit
mask test, the quotient is one subtraction and the lead is ``max`` of the
keys.  The normal form is a ``polyring.sweep`` over that map, keyed on the
negated int.  The format stays inside this module: the constructor,
``eta_embed``, ``eta1``/``eta0``, ``lead``, ``repr`` and
``module_to_weyl`` speak in exponent tuples.

The basis is computed by a signature-based Buchberger loop (the "RB"
algorithm of Eder and Roune, *Signature rewriting in Groebner basis
computation*, ISSAC 2013; signatures only, as in Roune and Stillman,
*Practical Groebner basis computation*, ISSAC 2012).  The signature of an
element is the leading term (i, p^a) of its expression sum_i q_i * gens[i],
ordered by the input index i and then by grevlex on a; input i enters with
(i, 0).  A signature is packed like a module monomial whose position rank
is i, so it too compares, divides and shifts as one int.  Pending
signatures sit in a heap and each is handled once, the
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
from functools import lru_cache
from heapq import heappop, heappush
from operator import neg

from .exactnum import RF_ONE, RatFunc
from .polyring import MPoly, SparseTerms, add_term, exp_mul, grevlex_key, sweep
from .weyl import WeylOp, from_dleft, to_dleft

_FIELD_BITS = 8  # bits per exponent field, its guard bit included
_MAX_EXP = (1 << (_FIELD_BITS - 1)) - 1  # the largest exponent a field holds


class _Packing:
    """The packed module monomials of ambient dimension k.

    A p-exponent e packs to ``sum(e) << k*W`` plus, for each i, the W-bit
    complement ``2^W - 1 - e_i`` at bit (k - 1 - i)*W, so p_1 is the most
    significant field; W is ``_FIELD_BITS``.  Integer order is then
    ``grevlex_key`` order: total degree first, then the smaller e_1, and so
    on.  The top bit of each field is its guard: it is set exactly when
    0 <= e_i <= ``_MAX_EXP``.  A module monomial (position, e) packs to
    ``rank << exp_bits | pack_exp(e)``, where d^beta eta0 ranks as
    ``pack_exp(beta)`` and eta1 as ``eta1``, above every packed beta; so
    integer order is ``module_key`` order.

    The shift by p^s is the int ``pack_exp(s) - fields``: adding it to a
    key adds s to e, one carry-free addition per field, and keeps the
    position.  A field whose exponent passes ``_MAX_EXP`` loses its guard
    bit, which ``check`` and ``shifted`` test.  Lead l divides monomial m
    exactly when they share the position and ``(l + guards - m) & guards
    == guards`` (field by field, e_i - l_i >= 0 keeps the guard); the
    quotient's shift is m - l.
    """

    __slots__ = ("k", "offsets", "fields", "guards", "exp_bits", "exp_mask", "eta1")

    def __init__(self, k):
        w = _FIELD_BITS
        self.k = k
        self.offsets = tuple((k - 1 - i) * w for i in range(k))
        self.fields = (1 << (k * w)) - 1  # every field all ones: pack_exp of 0
        self.guards = sum(1 << (off + w - 1) for off in self.offsets)
        self.exp_bits = k * w + (k * _MAX_EXP).bit_length()
        self.exp_mask = (1 << self.exp_bits) - 1
        self.eta1 = 1 << self.exp_bits

    def pack_exp(self, e) -> int:
        if len(e) != self.k:
            raise ValueError(f"exponent {tuple(e)} does not have length {self.k}")
        out = self.fields + (sum(e) << (self.k * _FIELD_BITS))
        for x, off in zip(e, self.offsets):
            if x < 0:
                raise ValueError(f"negative exponent in {tuple(e)}")
            if x > _MAX_EXP:
                raise OverflowError(f"exponent {x} exceeds {_MAX_EXP}")
            out -= x << off
        return out

    def unpack_exp(self, x: int) -> tuple:
        m = (1 << _FIELD_BITS) - 1
        return tuple(m - ((x >> off) & m) for off in self.offsets)

    def rank(self, pos) -> int:
        """The rank of position pos: None for eta1, else the d-exponent."""
        if pos is None:
            return self.eta1
        if not any(pos):
            raise ValueError("the d-exponent of an eta0 position is zero")
        return self.pack_exp(pos)

    def pack(self, pos, e) -> int:
        """The key of the module monomial (pos, e)."""
        return self.rank(pos) << self.exp_bits | self.pack_exp(e)

    def unpack(self, key: int) -> tuple:
        rank = key >> self.exp_bits
        pos = None if rank == self.eta1 else self.unpack_exp(rank)
        return pos, self.unpack_exp(key & self.exp_mask)

    def pack_shift(self, s) -> int:
        return self.pack_exp(s) - self.fields

    def unpack_shift(self, shift: int) -> tuple:
        return self.unpack_exp(shift + self.fields)

    def divides(self, lead: int, mon: int) -> bool:
        """Whether the packed monomial (or signature) lead divides mon."""
        g = self.guards
        return lead >> self.exp_bits == mon >> self.exp_bits and (lead + g - mon) & g == g

    def check(self, keys):
        g = self.guards
        for m in keys:
            if m & g != g:
                raise OverflowError(f"an exponent exceeds {_MAX_EXP}")

    def shifted(self, key: int, shift: int) -> int:
        self.check((key + shift,))
        return key + shift


_packing = lru_cache(maxsize=None)(_Packing)


class ModuleElem(SparseTerms):
    """Element of the free module: ``terms`` maps packed module monomials
    (see ``_Packing``) to coefficients.

    The constructor takes the coordinates: the eta1 part and the eta0
    parts {beta: MPoly} for non-zero d-exponents beta.  ``eta1``, ``eta0``
    and ``lead`` are read-only views in the same unpacked terms for the
    boundaries (embedding, reassembly, printing); the algorithms work on
    ``terms``.
    """

    __slots__ = ()

    def __init__(self, k: int, eta1: MPoly | None = None, eta0=None):
        pk = _packing(k)
        self.k = k
        self.terms = {} if eta1 is None else {pk.pack(None, e): c for e, c in eta1.terms.items()}
        for b, m in (eta0 or {}).items():
            rank = pk.rank(b) << pk.exp_bits
            self.terms.update((rank | pk.pack_exp(e), c) for e, c in m.terms.items())

    @property
    def eta1(self) -> MPoly:
        """The eta1 coordinate."""
        pk = _packing(self.k)
        return MPoly._of(self.k, {pk.unpack_exp(m & pk.exp_mask): c
                                  for m, c in self.terms.items() if m >> pk.exp_bits == pk.eta1})

    @property
    def eta0(self) -> dict:
        """The non-zero d^beta eta0 coordinates as {beta: MPoly}."""
        pk = _packing(self.k)
        parts = {}
        for m, c in self.terms.items():
            pos, e = pk.unpack(m)
            if pos is not None:
                parts.setdefault(pos, {})[e] = c
        return {b: MPoly._of(self.k, m) for b, m in parts.items()}

    def lead(self):
        """Largest module monomial (position, p-exponent) with its
        coefficient, or None when zero."""
        if not self.terms:
            return None
        mon = max(self.terms)
        return _packing(self.k).unpack(mon), self.terms[mon]

    def mul_term(self, shift: int, c: RatFunc) -> "ModuleElem":
        """The element times c*p^s, for the packed shift of s."""
        if not c:
            return ModuleElem(self.k)
        terms = {m + shift: x * c for m, x in self.terms.items()}
        _packing(self.k).check(terms)
        return ModuleElem._of(self.k, terms)

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
    pk = _packing(a.k)
    return ModuleElem._of(a.k, {pk.pack(None if b == z else b, e): c
                                for b, m in to_dleft(a).items() for e, c in m.terms.items()})


def module_to_weyl(elem: ModuleElem) -> WeylOp:
    """Set eta1 = eta0 = 1: back to the operator sum Q + sum d^beta c_beta."""
    return from_dleft(elem.k, {(0,) * elem.k: elem.eta1, **elem.eta0})


class _Singular(Exception):
    """A regular reduction stopped at a singular lead."""


def _normal_form(elem, basis, leads, cof=None, basis_cofs=None, sigs=None, bound=None):
    """Full normal form of elem against monic basis elements, by ``sweep``.

    ``leads`` holds the packed leading monomials of the basis.  Each step
    cancels the largest reducible monomial with the first basis element
    whose leading monomial divides it.  The basis is monic, so every term a
    step subtracts lies below its target.

    With the packed basis signatures ``sigs`` and a packed signature
    ``bound`` T the reduction is regular: element b may cancel m only if
    sig(b)*(m/lm b) < T.  The first monomial left is then the lead; if
    some lead divides it with multiplied signature equal to T, elem is
    singular and the result is None, without any tail reduction.

    When cofactor lists are given, cof must hold a generator expression of
    elem on entry; it is updated in place and expresses the result on exit.
    """
    pk = _packing(elem.k)
    eb, g = pk.exp_bits, pk.guards
    cof_terms = None if cof is None else [dict(c.terms) for c in cof]
    lead_left = bound is not None
    # the leads by position rank, each as (index, lead + guards) for the
    # mask test of ``_Packing.divides``, in index order
    by_pos = {}
    for bi, lead in enumerate(leads):
        by_pos.setdefault(lead >> eb, []).append((bi, lead + g))

    def step(mon, c):
        nonlocal lead_left
        singular = False
        for bi, lg in by_pos.get(mon >> eb, ()):
            if (lg - mon) & g == g:
                if bound is None:
                    break
                key = pk.shifted(sigs[bi], mon - leads[bi])
                if key < bound:
                    break
                singular = singular or key == bound
        else:
            if lead_left and singular:
                raise _Singular
            lead_left = False
            return None
        shift = mon - leads[bi]
        c = -c
        if cof_terms is not None:
            s = pk.unpack_shift(shift)
            for out, bc in zip(cof_terms, basis_cofs[bi]):
                for be, x in bc.terms.items():
                    add_term(out, exp_mul(be, s), x * c)
        return basis[bi].mul_term(shift, c).terms

    terms = dict(elem.terms)
    try:
        sweep(terms, neg, step)
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
    pk = _packing(k)
    eb = pk.exp_bits

    basis = []
    leads = []
    sigs = []
    cofs = []
    syzygies = []  # signatures whose regular reduction reached zero

    # a signature (i, p^a) packs like a module monomial at position rank i,
    # so ints order signatures by i, then grevlex on a; input i is (i, 0)
    pending = [i << eb | pk.fields for i in range(ngens)]  # ascending: a heap
    seen = set(pending)

    while pending:
        sig = heappop(pending)
        if any(pk.divides(s, sig) for s in syzygies):
            continue
        # the rewriter: the newest element whose signature divides (i, a)
        for r in range(len(basis) - 1, -1, -1):
            if pk.divides(sigs[r], sig):
                shift = sig - sigs[r]
                elem = basis[r].mul_term(shift, RF_ONE)
                cof = None
                if with_cofactors:
                    e = pk.unpack_shift(shift)
                    cof = [c.mul_term(e, RF_ONE) for c in cofs[r]]
                break
        else:  # a == 0: the input itself
            i = sig >> eb
            elem = gens[i]
            cof = None
            if with_cofactors:
                cof = [MPoly(k) for _ in range(ngens)]
                cof[i] = MPoly.const(k, 1)
        red = _normal_form(elem, basis, leads, cof, cofs, sigs, sig)
        if red is None:
            continue
        if red.is_zero():
            _zero_reductions += 1
            syzygies.append(sig)
            continue
        lm = max(red.terms)
        lc = red.terms[lm]
        pos = lm >> eb
        lm_exp = pk.unpack_exp(lm & pk.exp_mask)
        # each S-pair with an earlier element in the same position is
        # represented by the larger of the two multiplied signatures
        for j, lm_j in enumerate(leads):
            if lm_j >> eb != pos:
                continue
            lcm = pos << eb | pk.pack_exp(tuple(map(max, lm_exp, pk.unpack_exp(lm_j & pk.exp_mask))))
            mine = pk.shifted(sig, lcm - lm)
            theirs = pk.shifted(sigs[j], lcm - lm_j)
            pair = max(mine, theirs)
            if mine != theirs and pair not in seen:
                seen.add(pair)
                heappush(pending, pair)
        # the only scaling of the basis: every element enters monic
        inv = lc.inverse()
        basis.append(red.scale(inv))
        leads.append(lm)
        sigs.append(sig)
        cofs.append(None if cof is None else [c.scale(inv) for c in cof])

    return _autoreduce(basis, leads, cofs, with_cofactors)


def _autoreduce(basis, leads, cofs, with_cofactors):
    pk = _packing(basis[0].k)
    # drop elements whose lead is divisible by another's lead
    keep = [i for i, m in enumerate(leads)
            if not any(j != i and pk.divides(l, m) and (l != m or j < i) for j, l in enumerate(leads))]
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

    order = sorted(range(len(basis)), key=leads.__getitem__)
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
