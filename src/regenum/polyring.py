"""Sparse term maps over Q(t): multivariate polynomials in p_1..p_k, the
monomial orders as key functions, and the stairs machinery for
zero-dimensional monomial ideals.

Monomials are exponent tuples of fixed length k.  Three key functions
order them; larger keys are larger monomials:

* ``grevlex_key`` - on p-exponents: total degree, ties by grevlex with the
  precedence p_k > ... > p_1, so high-index variables are eliminated first
  and reduced normal forms concentrate on p_1, p_2, ...;
* ``pd_key`` - on pairs (alpha, beta) of p- and d-exponents: the p-part
  decides first (so every p_i sits lexicographically above every power
  product of the d_j), with the d-part compared by ``grevlex_key``;
* ``module_key`` - on module monomials (position, p-exponent) of the free
  module with basis eta1 and the d^beta eta0, position None standing for
  eta1: eta1 above everything, eta0 positions by ``grevlex_key`` on beta,
  ties within a position by ``grevlex_key``.  ``modgb`` keys its elements
  by module monomials packed into ints whose integer order is this order.

``SparseTerms`` is the term map shared by polynomials (keys p-exponents),
Weyl operators (keys (alpha, beta)) and module elements (keys packed
module monomials).  ``sweep`` is the one reduction loop: both normal
forms, the Groebner one (keyed on the negated packed int) and the
telescoping one (on the negated total degree), are a ``sweep`` with their
own order and divisor rule.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import product

from .exactnum import RF_ONE, RF_ZERO, Fraction, RatFunc, rf

Exponent = tuple  # tuple[int, ...] of fixed length k


def grevlex_key(e: Exponent):
    # grevlex over the variable list (p_k, ..., p_1): reversing the listed
    # order makes the key simply the negated exponent tuple
    return (sum(e), tuple(-x for x in e))


def pd_key(m):
    alpha, beta = m
    return (grevlex_key(alpha), grevlex_key(beta))


def module_key(m):
    pos, e = m
    if pos is None:  # the eta1 position eliminates everything else
        pk = (1, ())
    else:
        pk = (0, grevlex_key(pos))
    return (pk, grevlex_key(e))


def exp_mul(a: Exponent, b: Exponent) -> Exponent:
    return tuple(x + y for x, y in zip(a, b))


def exp_divides(a: Exponent, b: Exponent) -> bool:
    return all(x <= y for x, y in zip(a, b))


def exp_div(a: Exponent, b: Exponent) -> Exponent:
    return tuple(x - y for x, y in zip(a, b))


def add_term(out: dict, key, c):
    """Add c into out[key], dropping the key when the sum is zero."""
    s = out.get(key)
    s = c if s is None else s + c
    if s:
        out[key] = s
    elif key in out:
        del out[key]


def sweep(terms: dict, key, step):
    """Reduce the term map ``terms`` in place, from its largest monomial down.

    A heap hands out the monomials by ascending ``(key(m), m)``, so key
    must reverse the monomial order (the monomial itself breaks ties).
    ``step(m, c)`` returns None when m is irreducible, else the map of
    terms to add, the step's subtrahend already negated; these are added
    into ``terms`` in place, and their new monomials join the heap.  A
    monomial found irreducible is never tested again, which is right as
    long as every term a step adds lies below its target: then the next
    reducible monomial is always the next one popped.
    """
    seen = set(terms)
    heap = [(key(m), m) for m in terms]
    heapify(heap)
    while heap:
        mon = heappop(heap)[1]
        c = terms.get(mon)
        if c is None:
            continue
        sub = step(mon, c)
        if sub is None:
            continue
        for m, x in sub.items():
            if m not in seen:
                seen.add(m)
                heappush(heap, (key(m), m))
            add_term(terms, m, x)


class SparseTerms:
    """The linear part shared by MPoly, WeylOp and ModuleElem: a map from
    monomials to non-zero coefficients in ambient dimension k.

    Zero coefficients are never stored; zero is the empty map.  Instances
    are treated as immutable, and results keep the operand's class.  The
    constructor drops zero coefficients from its input; arithmetic results,
    built zero-free, are wrapped by ``_of`` without that pass.
    """

    __slots__ = ("k", "terms")

    def __init__(self, k: int, terms=None):
        self.k = k
        if terms is None:
            self.terms = {}
        else:
            self.terms = {m: c for m, c in terms.items() if c}

    @classmethod
    def _of(cls, k: int, terms: dict):
        """Wrap a map that holds no zero coefficient, without copying it."""
        self = cls.__new__(cls)
        self.k = k
        self.terms = terms
        return self

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, type(self)):
            return self.k == other.k and self.terms == other.terms
        return NotImplemented

    def _check(self, other):
        if self.k != other.k:
            raise ValueError("ambient dimension mismatch")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            add_term(out, m, c)
        return self._of(self.k, out)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            add_term(out, m, -c)
        return self._of(self.k, out)

    def __neg__(self):
        return self._of(self.k, {m: -c for m, c in self.terms.items()})

    def scale(self, c):
        c = rf(c)
        if not c:
            return type(self)(self.k)
        return self._of(self.k, {m: x * c for m, x in self.terms.items()})


class MPoly(SparseTerms):
    """Sparse polynomial in p_1..p_k over Q(t): a map exponent -> RatFunc.

    The weight convention (p_i carries weight i) is exposed for the series
    oracles.
    """

    __slots__ = ()

    # -- constructors -------------------------------------------------
    @classmethod
    def const(cls, k, c):
        c = rf(c)
        return cls(k, {(0,) * k: c} if c else {})

    @classmethod
    def gen(cls, k, i):
        """The variable p_{i+1} (0-based index i)."""
        e = [0] * k
        e[i] = 1
        return cls(k, {tuple(e): RF_ONE})

    @classmethod
    def term(cls, k, exp, c):
        c = rf(c)
        return cls(k, {tuple(exp): c} if c else {})

    # -- structure ----------------------------------------------------
    def coeff(self, exp) -> RatFunc:
        return self.terms.get(tuple(exp), RF_ZERO)

    # -- arithmetic ---------------------------------------------------
    def __mul__(self, other):
        self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                add_term(out, e, c1 * c2)
        return MPoly._of(self.k, out)

    def scale_rat(self, x) -> "MPoly":
        x = Fraction(x)
        if not x:
            return MPoly(self.k)
        return MPoly._of(self.k, {e: c.scale_rat(x) for e, c in self.terms.items()})

    def mul_term(self, exp, c: RatFunc) -> "MPoly":
        if not c:
            return MPoly(self.k)
        exp = tuple(exp)
        return MPoly._of(self.k, {exp_mul(e, exp): x * c for e, x in self.terms.items()})

    def derivative(self, i: int) -> "MPoly":
        """d/dp_{i+1} (0-based i)."""
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                e2 = list(e)
                e2[i] -= 1
                out[tuple(e2)] = c.scale_rat(e[i])
        return MPoly._of(self.k, out)

    def map_coeffs(self, fn) -> "MPoly":
        return MPoly._of(self.k, {e: v for e, c in self.terms.items() if (v := fn(c))})

    def __str__(self):
        from .weyl import mpoly_to_str

        return mpoly_to_str(self)

    def __repr__(self):
        return f"MPoly({self})"


def stairs_and_dim(lead_monomials):
    """Monomials under the stairs of the monomial ideal, or None.

    Returns the complete list, ascending under ``grevlex_key``, of monomials divisible
    by no input monomial when the ideal is zero-dimensional, and None when
    some variable has no pure power among the leading monomials (positive
    dimension).
    """
    leads = [tuple(m) for m in lead_monomials]
    if not leads:
        raise ValueError("empty leading-monomial list")
    k = len(leads[0])
    bounds = []
    for i in range(k):
        ds = [m[i] for m in leads if sum(m) == m[i]]
        if not ds:
            return None
        bounds.append(min(ds))
    stairs = []
    for e in product(*(range(b) for b in bounds)):
        if not any(exp_divides(m, e) for m in leads):
            stairs.append(e)
    stairs.sort(key=grevlex_key)
    return stairs
