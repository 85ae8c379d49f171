"""Exact scalar arithmetic: integers, rationals, dense univariate
polynomials, and normalized rational functions over Q.

Python's ``int`` supplies the arbitrary-precision integers and
``fractions.Fraction`` the rationals; ``RatFunc`` keeps its rational
scalar as a reduced pair of ints and does the scalar's arithmetic on them
directly.  The polynomial layer is our own
because the rest of the pipeline needs tight control over normalization
(primitive parts, canonical denominators) and over where gcds happen:
every gcd in the hot paths runs on primitive integer polynomials, never
on floating point.  Gcds use an evaluation heuristic whose result is
accepted only after it divides both operands exactly; when it gives up,
a primitive pseudo-remainder sequence computes the gcd.  ``zgcd``
returns the gcd with both cofactors, the heuristic's being the quotients
its certificate formed, so a split divides each operand once.  ``RatFunc``
keeps the power of t apart as an exponent, so its polynomials are prime
to t and a power-of-t denominator costs no gcd at all; the odd-degree
derivations measured so far (k = 3, 5 and the Groebner stage of k = 7)
had no other denominators, while even-degree ones run the heuristic for
their others.
``zkron`` and ``zunkron`` map a polynomial to its value at t = 2^(8*nb)
and back, so that a sum of polynomial products becomes one big-integer
expression at C speed (Kronecker substitution); ``zkrondiv`` divides such
an image exactly, and a bound on the quotient's digits certifies it.
``zdot`` is the one packed step built on them: a sum of products divided
exactly by a polynomial, in t^2 when its operands allow.

All values are immutable after construction; operations are pure.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _igcd

Rat = Fraction

#: Degree of the zero polynomial.
NEG_INF = float("-inf")


# ---------------------------------------------------------------------------
# Raw integer-coefficient polynomial helpers.
#
# Polynomials are tuples/lists of ints, ascending powers, no trailing zeros.
# These back UniPoly, RatFunc and the fraction-free elimination; they avoid
# object overhead in the inner loops.  Apart from the gcd and exact-division
# helpers they take rational coefficients as well.
# ---------------------------------------------------------------------------

def ztrim(cs: list) -> list:
    while cs and not cs[-1]:
        cs.pop()
    return cs


def zval(a) -> int:
    """The power of t that divides the non-zero polynomial a exactly."""
    v = 0
    while not a[v]:
        v += 1
    return v


def zadd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return ztrim(out)


def zsub(a, b):
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return ztrim(out)


def zneg(a):
    return [-c for c in a]


def zmul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
    return ztrim(out)


def zscale(a, c):
    if not c:
        return []
    return [x * c for x in a]


def zcontent(a) -> int:
    """Positive gcd of the coefficients; 0 for the zero polynomial."""
    g = 0
    for c in a:
        if c:
            g = _igcd(g, c)
            if g == 1:
                return 1
    return g


def zprim(a):
    """Primitive part with positive leading coefficient, plus the signed
    content, so that ``a == content * primitive``."""
    if not a:
        return 0, []
    g = zcontent(a)
    if g == 1:
        if a[-1] > 0:
            return 1, list(a)
        return -1, [-x for x in a]
    if a[-1] < 0:
        g = -g
    return g, [x // g for x in a]


def zprem(a, b):
    """Pseudo-remainder of a by b (b non-zero; a itself when deg a < deg b,
    the remainder when b is monic); the scaling power is whatever the
    elimination steps needed, which suffices for a content-stripping PRS."""
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    while len(r) - 1 >= db and r:
        dr = len(r) - 1
        lead = r[-1]
        r = [c * lb for c in r[:-1]]
        shift = dr - db
        for i, c in enumerate(b[:-1]):
            r[shift + i] -= lead * c
        ztrim(r)
    return r


#: Evaluation points tried by ``_heu_gcd`` before it gives up.
_HEU_TRIES = 6

_fallbacks = 0


def gcd_fallbacks() -> int:
    """How many ``zgcd`` calls in this process fell back to the PRS."""
    return _fallbacks


def zgcd(a, b):
    """``(g, a/g, b/g)``: the gcd g in Z[t] (contents included) with a
    positive leading coefficient, and the two cofactors.  When g is 1 the
    operands come back as given; ``zgcd([], b)`` is ``(|b|, [], [s])``,
    with s = +-1 the sign of b's leading coefficient and |b| = s*b.

    A constant primitive part makes the gcd the gcd of the contents.
    Other primitive parts go through a heuristic gcd (GCDHEU: Char, Geddes
    and Gonnet, J. Symbolic Comput. 7, 1989), whose certificate already
    divides both of them, and, only when that gives up, through a primitive
    pseudo-remainder sequence and one division of each.  The contents and
    signs are scaled back in: a/g = (ca/gc) * (pa/h).
    """
    global _fallbacks
    if not a or not b:
        c = a or b
        if not c:
            return [], [], []
        unit = [-1 if c[-1] < 0 else 1]
        g = zscale(c, unit[0])
        return (g, [], unit) if b else (g, unit, [])
    ca, pa = zprim(a)
    cb, pb = zprim(b)
    gc = _igcd(ca, cb)
    if len(pa) == 1 or len(pb) == 1:
        h, qa, qb = [1], pa, pb
    else:
        split = _heu_gcd(pa, pb)
        if split is None:
            _fallbacks += 1
            h = _prs_gcd(pa, pb)
            split = h, zdivexact(pa, h), zdivexact(pb, h)
        h, qa, qb = split
    if gc == 1 and h == [1]:
        return h, a, b
    fa, fb = ca // gc, cb // gc
    return (h if gc == 1 else zscale(h, gc), qa if fa == 1 else zscale(qa, fa),
            qb if fb == 1 else zscale(qb, fb))


def _heu_gcd(pa, pb):
    """``(h, pa/h, pb/h)`` for the gcd h of two non-constant primitive
    polynomials with positive leading coefficients, or None when no
    evaluation point certified one.

    gamma = igcd(pa(xi), pb(xi)) is lifted to a polynomial by its balanced
    base-xi digits, and the primitive part h of that lift is accepted only
    if it divides both pa and pb exactly, and the two quotients are
    returned with it.  That test proves h is the gcd only while
    xi >= 2*min(|pa|, |pb|) + 2 in the max norm (Geddes, Czapor and
    Labahn, Algorithms for Computer Algebra, Thm 7.7), so xi starts above
    that bound and only ever grows.  h == [1] divides everything and is
    accepted as it is, with pa and pb as its quotients.
    """
    xi = 2 * min(max(map(abs, pa)), max(map(abs, pb))) + 29
    for _ in range(_HEU_TRIES):
        gamma = _igcd(zeval(pa, xi), zeval(pb, xi))
        half = xi // 2
        h = []
        while gamma:
            gamma, d = divmod(gamma, xi)
            if d > half:
                d -= xi
                gamma += 1
            h.append(d)
        h = zprim(h)[1]
        if h == [1]:
            return h, pa, pb
        if (len(h) <= min(len(pa), len(pb))
                and not pa[-1] % h[-1] and not pb[-1] % h[-1]):
            try:
                return h, zdivexact(pa, h), zdivexact(pb, h)
            except ArithmeticError:
                pass
        xi = xi * 73794 // 27011
    return None


def _prs_gcd(pa, pb):
    """Gcd of two primitive polynomials with positive leading coefficients
    by a primitive PRS: content is stripped after every pseudo-remainder,
    which keeps intermediate coefficients minimal."""
    if len(pa) < len(pb):
        pa, pb = pb, pa
    while pb:
        r = zprem(pa, pb)
        pa, pb = pb, zprim(r)[1]
    return pa


_kron_div_fallbacks = 0


def kron_div_fallbacks() -> int:
    """How many packed divisions in this process could not certify their
    quotient and left it to the schoolbook loop; lanes too wide to pack
    go to the loop by choice and are not counted."""
    return _kron_div_fallbacks


def zbits(a) -> int:
    """Bits of the largest coefficient of the non-zero polynomial a."""
    return max(map(abs, a)).bit_length()


#: Widest lane, in bytes, at which one integer division of the Kronecker
#: images beats the schoolbook loop.  CPython's long division does about
#: (8*nb/30)^2 digit steps per pair of quotient and divisor coefficients,
#: the loop one product of their actual sizes plus interpreter overhead.
#: On the exact divisions of the degree-5 and degree-6 kernels the two met
#: at lanes of 32-40 bytes under CPython 3.11 (2-core x86-64 VM), and at
#: 100-byte lanes the loop was 4-8 times faster; under 3.12 and 3.13 the
#: division kept pace with the loop at every width measured.
_KRON_DIV_NB = 32


def zkrondiv(x, b, nb, n):
    """The quotient a / b, where x = zkron(a, nb) for a polynomial a of
    length at most n and b is non-zero; raises ArithmeticError when b does
    not divide a.  Lanes wider than ``_KRON_DIV_NB`` go to the schoolbook
    loop on the digits of x.

    Packing is a ring map, so a non-zero remainder of x by y = zkron(b, nb)
    proves that b does not divide a.  Otherwise the digits q of x / y
    satisfy q(2^(8*nb)) * y == x, and the product q*b has coefficients
    below 2^(bits(q) + bits(b) + bitlen(min(len q, len b))); when that
    bound leaves the sign bit and one more free, q*b lies in the lanes as
    a does, so the two agree coefficientwise.  A quotient that overflows
    its lanes or fails the bound is left to the schoolbook loop as well
    (``kron_div_fallbacks``).
    """
    global _kron_div_fallbacks
    if nb > _KRON_DIV_NB:
        return _zdiv_schoolbook(zunkron(x, nb, n), b)
    q, r = divmod(x, zkron(b, nb))
    if r:
        raise ArithmeticError("inexact polynomial division")
    if not q:
        return []
    try:
        q = zunkron(q, nb, n - len(b) + 1)
    except OverflowError:
        q = None
    if q and zbits(q) + zbits(b) + min(len(q), len(b)).bit_length() + 1 <= 8 * nb - 1:
        return q
    _kron_div_fallbacks += 1
    return _zdiv_schoolbook(zunkron(x, nb, n), b)


def zdivexact(a, b):
    """Quotient a // b assuming exact divisibility in Z[t]; raises
    ArithmeticError when b does not divide a.

    ``zkrondiv`` on lanes that hold a product q*b up to 2^7 times larger
    than a; operands that need wider lanes go to the schoolbook loop
    without being packed.
    """
    if not a:
        return []
    nb = (max(zbits(a), zbits(b)) + len(a).bit_length() + 16) // 8
    if nb > _KRON_DIV_NB:
        return _zdiv_schoolbook(a, b)
    return zkrondiv(zkron(a, nb), b, nb, len(a))


def _even_part(a):
    """``(v, a[v::2])`` when the non-zero polynomial a is t^v * A(t^2),
    else None."""
    v = zval(a)
    return None if any(a[v + 1::2]) else (v, a[v::2])


def _inflate(a, s):
    """t^s * a(t^2)."""
    out = [0] * (s + 2 * len(a) - 1)
    out[s::2] = a
    return out


def zdot(pairs, div=(1,)):
    """(sum of x*y over the pairs) / div, exactly; raises ArithmeticError
    when div does not divide the sum.  Pairs with an empty operand are
    skipped.

    The sum is one Kronecker evaluation at t = 2^(8*nb), on lanes that hold
    the sum of n products with coefficients below 2^(bits(x) + bits(y) +
    bitlen(min(len x, len y))) each, its sign, and div.  When every operand
    is t^v * A(t^2) and the products' powers t^(vx + vy) share a parity,
    the sum t^s * E(t^2) is formed in T = t^2 at half the length, and a
    divisor t^w * P(t^2) divides E there as T^h * P, h the least that
    leaves t^(s + 2h - w) a polynomial; other divisors go to ``zdivexact``.
    """
    ops = [(x, y) for x, y in pairs if x and y]
    if not ops:
        return []
    terms = []
    for x, y in ops:
        ex = _even_part(x)
        ey = ex and _even_part(y)
        if not ey:
            break
        terms.append((ex[0] + ey[0], ex[1], ey[1]))
    s = None
    if len(terms) == len(ops) and len({v & 1 for v, _, _ in terms}) == 1:
        s = min(v for v, _, _ in terms)
        terms = [((v - s) >> 1, x, y) for v, x, y in terms]
    else:
        terms = [(0, x, y) for x, y in ops]
    bound = max(zbits(x) + zbits(y) + min(len(x), len(y)).bit_length() for _, x, y in terms)
    nb = (max(bound + len(terms).bit_length(), zbits(div)) + 8) // 8
    acc = sum(zkron(x, nb) * zkron(y, nb) << (8 * nb * shift) for shift, x, y in terms)
    n = max(shift + len(x) + len(y) - 1 for shift, x, y in terms)
    if not acc:
        return []
    if len(div) == 1 and div[0] == 1:
        q = zunkron(acc, nb, n)
    elif s is None:
        return zkrondiv(acc, div, nb, n)
    elif (ev := _even_part(div)) is None:
        return zdivexact(_inflate(zunkron(acc, nb, n), s), div)
    else:
        w, p = ev
        h = max(0, (w - s + 1) >> 1)
        q = zkrondiv(acc, [0] * h + p, nb, n)
        s += 2 * h - w
    return q if s is None else _inflate(q, s)


def _zdiv_schoolbook(a, b):
    """a // b by long division from the top; raises ArithmeticError when b
    does not divide a.  Only the terms below the top are updated, and the
    remainder is what is left below deg b."""
    db = len(b) - 1
    lb, low = b[-1], b[:-1]
    r = list(a)
    q = [0] * (len(a) - db)
    for i in range(len(q) - 1, -1, -1):
        c = r[i + db]
        if c:
            if lb != 1:
                c, m = divmod(c, lb)
                if m:
                    raise ArithmeticError("inexact polynomial division")
            q[i] = c
            for j, cb in enumerate(low, i):
                r[j] -= c * cb
    if any(r[:db]):
        raise ArithmeticError("inexact polynomial division")
    return q


def zeval(a, x):
    out = 0
    for c in reversed(a):
        out = out * x + c
    return out


def zderiv(a):
    """Derivative in t."""
    return [i * a[i] for i in range(1, len(a))]


def zshift_arg(a, s):
    """Compose with a shifted argument: returns a(t + s) by Horner."""
    out = []
    for c in reversed(a):
        out = zadd(zmul(out, [s, 1]), [c] if c else [])
    return out


def zkron(a, nb):
    """a(2^(8*nb)): the Kronecker image of a non-zero polynomial whose
    coefficients lie strictly within +-2^(8*nb - 1).

    Each coefficient becomes one signed nb-byte chunk.  Read as one
    integer, every negative chunk below the top one leaves a borrow of
    one on the chunk above it, and those borrows are subtracted back.
    """
    x = int.from_bytes(b"".join([c.to_bytes(nb, "little", signed=True) for c in a]), "little", signed=True)
    neg = bytes(map((0).__gt__, a[:-1]))
    if any(neg):
        borrow = bytearray(nb * len(a))
        borrow[nb::nb] = neg
        x -= int.from_bytes(borrow, "little")
    return x


def zunkron(x, nb, n):
    """The polynomial of length at most n whose Kronecker image zkron(., nb)
    is x, given that its coefficients lie strictly within +-2^(8*nb - 1).

    Adding 2^(8*nb - 1) to every balanced digit makes each one a
    non-negative nb-byte chunk, so the bytes of the sum are the chunks.
    """
    half = 1 << (8 * nb - 1)
    off = bytearray(nb * n)
    off[nb - 1::nb] = b"\x80" * n
    bs = (x + int.from_bytes(off, "little")).to_bytes(nb * n, "little")
    return ztrim([int.from_bytes(bs[i:i + nb], "little") - half for i in range(0, nb * n, nb)])


class UniPoly:
    """Dense univariate polynomial, ascending coefficients (int or Rat).

    The variable is written ``t`` by convention; recurrence coefficients
    reuse the class with the variable read as ``n``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        norm = []
        for c in ztrim(list(coeffs)):
            if isinstance(c, Fraction):
                norm.append(int(c) if c.denominator == 1 else c)
            else:
                norm.append(c)
        self.coeffs = tuple(norm)

    # -- constructors -------------------------------------------------
    @classmethod
    def const(cls, c):
        return cls((c,))

    # -- structure ----------------------------------------------------
    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def lc(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, UniPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other):
        return UniPoly(zadd(self.coeffs, other.coeffs))

    def __sub__(self, other):
        return UniPoly(zsub(self.coeffs, other.coeffs))

    def __neg__(self):
        return UniPoly(zneg(self.coeffs))

    def __mul__(self, other):
        return UniPoly(zmul(self.coeffs, other.coeffs))

    def scale(self, c):
        return UniPoly(zscale(self.coeffs, c))

    def __pow__(self, n: int):
        out = UniPoly((1,))
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def derivative(self):
        return UniPoly(zderiv(self.coeffs))

    def evaluate(self, x):
        return zeval(self.coeffs, x)

    def shift_arg(self, s):
        """a(t + s)."""
        return UniPoly(zshift_arg(self.coeffs, s))

    # -- integer form -------------------------------------------------
    def as_integer_primitive(self):
        """Split into ``(content, primitive)`` with an integer primitive
        part of positive leading coefficient; content is a signed Rat."""
        if not self.coeffs:
            return Fraction(0), UniPoly()
        den = 1
        for c in self.coeffs:
            if isinstance(c, Fraction):
                den = den * c.denominator // _igcd(den, c.denominator)
        ints = [int(c * den) for c in self.coeffs]
        g, prim = zprim(ints)
        return Fraction(g, den), UniPoly(prim)

    def int_coeffs(self):
        if any(isinstance(c, Fraction) for c in self.coeffs):
            raise ValueError("polynomial has non-integer coefficients")
        return list(self.coeffs)

    # -- printing -----------------------------------------------------
    def __str__(self):
        return self.to_str("t")

    def __repr__(self):
        return f"UniPoly({self.to_str('t')!r})"

    def to_str(self, var: str) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for n in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[n]
            if not c:
                continue
            sign = "-" if c < 0 else "+"
            c = abs(c)
            if n == 0:
                body = _coef_str(c)
            else:
                v = var if n == 1 else f"{var}^{n}"
                body = v if c == 1 else f"{_coef_str(c)}*{v}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out


def _coef_str(c) -> str:
    if isinstance(c, Fraction) and c.denominator != 1:
        return f"{c.numerator}/{c.denominator}"
    return str(int(c))


UP_ONE = UniPoly((1,))


def unipoly_gcd_content(a: UniPoly, b: UniPoly) -> UniPoly:
    """Primitive gcd with positive leading coefficient.

    Rational coefficients are admitted; the gcd is computed on the integer
    primitive parts, so content is stripped from the result.
    """
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    ia = a.as_integer_primitive()[1].int_coeffs()
    ib = b.as_integer_primitive()[1].int_coeffs()
    return UniPoly(zgcd(ia, ib)[0])


def _qmul(a1, b1, a2, b2):
    """(a1/b1) * (a2/b2) as a reduced pair, from two reduced pairs with
    positive denominators: after the cross gcds nothing is left to cancel."""
    g = _igcd(a1, b2)
    if g != 1:
        a1 //= g
        b2 //= g
    g = _igcd(a2, b1)
    if g != 1:
        a2 //= g
        b1 //= g
    return a1 * a2, b1 * b2


def _zprod(a, b):
    """a*b as a tuple; no product is formed when either operand is 1."""
    if len(b) == 1 and b[0] == 1:
        return tuple(a)
    if len(a) == 1 and a[0] == 1:
        return tuple(b)
    return tuple(zmul(a, b))


def _tsum(s1, n1, e1, s2, n2, e2):
    """``(e, p)`` with s1*t^e1*n1 + s2*t^e2*n2 == t^e * p and p(0) != 0,
    or p == [] when the sum is zero.  n1 and n2 have non-zero constant
    terms, so only equal exponents can leave low zeros to strip."""
    if e1 > e2:
        s1, n1, e1, s2, n2, e2 = s2, n2, e2, s1, n1, e1
    k = e2 - e1
    out = [s1 * x for x in n1]
    if len(out) < k + len(n2):
        out += [0] * (k + len(n2) - len(out))
    for i, x in enumerate(n2, k):
        out[i] += s2 * x
    ztrim(out)
    if not out:
        return 0, out
    v = zval(out)
    return e1 + v, out[v:] if v else out


class RatFunc:
    """Element of Q(t) in canonical form.

    Stored as ``(cn/cd) * t^e * np/dp``: the rational scalar is a reduced
    pair of plain ints with ``cd > 0``, ``e`` is an int of either sign, and
    ``np``, ``dp`` are coprime primitive integer polynomials with positive
    leading coefficients and non-zero constant terms.  Zero is ``cn == 0``
    with ``e == 0`` and ``np == dp == (1,)``.  The split keeps rational
    rescaling O(1) and keeps every polynomial gcd on integer-primitive
    operands prime to t: a power of t costs an exponent, so products add
    exponents, sums shift one numerator, and power-of-t denominators are
    ``dp == (1,)`` and meet no gcd.  The scalar's arithmetic is the integer
    arithmetic a ``Fraction`` would do, without building one.  Equality is
    structural.
    """

    __slots__ = ("cn", "cd", "e", "np", "dp")

    def __init__(self, cn, cd, e, np, dp):
        # Trusted constructor: arguments must already be canonical.
        self.cn = cn
        self.cd = cd
        self.e = e
        self.np = np
        self.dp = dp

    # -- constructors -------------------------------------------------
    @classmethod
    def from_rat(cls, x) -> "RatFunc":
        x = Fraction(x)
        if not x:
            return RF_ZERO
        return cls(x.numerator, x.denominator, 0, (1,), (1,))

    @classmethod
    def of(cls, num, den=None) -> "RatFunc":
        """Build from UniPoly/int/Rat numerator and denominator."""
        if not isinstance(num, UniPoly):
            num = UniPoly.const(Fraction(num))
        if den is None:
            den = UP_ONE
        elif not isinstance(den, UniPoly):
            den = UniPoly.const(Fraction(den))
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        cn, pn = num.as_integer_primitive()
        cd, pd = den.as_integer_primitive()
        if not cn:
            return RF_ZERO
        q = cn / cd
        return cls._reduced(q.numerator, q.denominator, 0, pn.int_coeffs(), pd.int_coeffs())

    @classmethod
    def _reduced(cls, cn, cd, e, np, dp):
        """Canonicalize a reduced scalar pair, an exponent and two integer
        polys (np may share factors with dp and either may have low zeros;
        signs/contents may be off)."""
        if not cn or not np:
            return RF_ZERO
        v, w = zval(np), zval(dp)
        g, np = zprim(np[v:])
        h, dp = zprim(dp[w:])
        if h < 0:
            g, h = -g, -h
        q = _igcd(g, h)
        cn, cd = _qmul(cn, cd, g // q, h // q)
        # Gauss: quotients of primitives by their primitive gcd stay
        # primitive with positive leading coefficients.
        if len(np) > 1 and len(dp) > 1:
            _, np, dp = zgcd(np, dp)
        return cls(cn, cd, e + v - w, tuple(np), tuple(dp))

    # -- structure ----------------------------------------------------
    @property
    def c(self) -> Fraction:
        """The scalar as a Fraction, for printing and other cold readers."""
        return Fraction(self.cn, self.cd)

    @property
    def num(self) -> UniPoly:
        return UniPoly([0] * max(self.e, 0) + zscale(self.np, self.c))

    @property
    def den(self) -> UniPoly:
        return UniPoly((0,) * max(-self.e, 0) + self.dp)

    def is_zero(self) -> bool:
        return not self.cn

    def is_constant(self) -> bool:
        return not self.e and self.np == (1,) and self.dp == (1,)

    def as_rational(self) -> Fraction:
        if not self.cn:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return self.c

    def __bool__(self):
        return bool(self.cn)

    def __eq__(self, other):
        if isinstance(other, RatFunc):
            return (self.cn == other.cn and self.cd == other.cd and self.e == other.e
                    and self.np == other.np and self.dp == other.dp)
        return NotImplemented

    def __hash__(self):
        return hash((self.cn, self.cd, self.e, self.np, self.dp))

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other):
        a2 = other.cn
        if not a2:
            return self
        a1 = self.cn
        if not a1:
            return other
        n1, d1, n2, d2 = self.np, self.dp, other.np, other.dp
        # both scalars over the lcm bb of their denominators
        b1, b2 = self.cd, other.cd
        g = _igcd(b1, b2)
        bb = b1 // g * b2
        s1, s2 = a1 * (b2 // g), a2 * (b1 // g)
        # d1 = g*q1 and d2 = g*q2 with q1, q2 coprime: the sum is
        # (n1*q2 + n2*q1) / (g*q1*q2), and only g can share a factor with
        # its numerator.  When d1 == d2 or one of them is 1, the split
        # needs no gcd and the 1 factors enter no product.
        if d1 == d2:
            g, q = d1, (1,)
        elif d2 == (1,):
            g, q, n2 = (1,), d1, _zprod(n2, d1)
        elif d1 == (1,):
            g, q, n1 = (1,), d2, _zprod(n1, d2)
        else:
            g, q1, q2 = zgcd(d1, d2)
            q, n1, n2 = _zprod(q1, q2), _zprod(n1, q2), _zprod(n2, q1)
        e, nn = _tsum(s1, n1, self.e, s2, n2, other.e)
        if not nn:
            return RF_ZERO
        ct, nn = zprim(nn)
        if len(g) > 1 and len(nn) > 1:
            _, nn, g = zgcd(nn, g)
        h = _igcd(ct, bb)
        den = q if len(g) == 1 else tuple(g) if len(q) == 1 else _zprod(g, q)
        return RatFunc(ct // h, bb // h, e, tuple(nn), den)

    def __neg__(self):
        if not self.cn:
            return self
        return RatFunc(-self.cn, self.cd, self.e, self.np, self.dp)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a1, a2 = self.cn, other.cn
        if not a1 or not a2:
            return RF_ZERO
        cn, cd = _qmul(a1, self.cd, a2, other.cd)
        n1, d1, n2, d2 = self.np, self.dp, other.np, other.dp
        if d2 != (1,) and n1 != (1,):
            _, n1, d2 = zgcd(n1, d2)
        if d1 != (1,) and n2 != (1,):
            _, n2, d1 = zgcd(n2, d1)
        # a length-1 primitive is 1: the other factor is the product
        np = n2 if len(n1) == 1 else n1 if len(n2) == 1 else zmul(n1, n2)
        dp = d2 if len(d1) == 1 else d1 if len(d2) == 1 else zmul(d1, d2)
        return RatFunc(cn, cd, self.e + other.e, tuple(np), tuple(dp))

    def inverse(self):
        cn = self.cn
        if not cn:
            raise ZeroDivisionError("division by zero in Q(t)")
        if cn < 0:
            return RatFunc(-self.cd, -cn, -self.e, self.dp, self.np)
        return RatFunc(self.cd, cn, -self.e, self.dp, self.np)

    def __truediv__(self, other):
        return self * other.inverse()

    def scale_rat(self, x) -> "RatFunc":
        """Multiply by a rational scalar (int or Fraction); O(1)."""
        if not x or not self.cn:
            return RF_ZERO
        cn, cd = _qmul(self.cn, self.cd, x.numerator, x.denominator)
        return RatFunc(cn, cd, self.e, self.np, self.dp)

    def derivative(self) -> "RatFunc":
        e, n, d = self.e, self.np, self.dp
        if not self.cn or (not e and n == (1,) and d == (1,)):
            return RF_ZERO
        # (t^e n/d)' = t^(e-1) (e n d + t (n' d - n d')) / d^2
        if d == (1,):
            u = zadd(zscale(n, e), [0] + zderiv(n))
            return RatFunc._reduced(self.cn, self.cd, e - 1, u, d)
        w = zsub(zmul(zderiv(n), d), _zprod(n, zderiv(d)))
        u = zadd(zscale(_zprod(n, d), e), [0] + w)
        return RatFunc._reduced(self.cn, self.cd, e - 1, u, zmul(d, d))

    def evaluate(self, x):
        if not self.cn:
            return Fraction(0)
        d = zeval(self.dp, x)
        if not d or (self.e < 0 and not x):
            raise ZeroDivisionError("pole of rational function")
        return self.c * Fraction(x) ** self.e * zeval(self.np, x) / d

    # -- printing -----------------------------------------------------
    def _display_pair(self):
        """Numerator/denominator as integer polynomials for printing."""
        num = UniPoly([0] * max(self.e, 0) + zscale(self.np, self.cn))
        den = UniPoly([0] * max(-self.e, 0) + zscale(self.dp, self.cd))
        return num, den

    def __str__(self):
        if not self.cn:
            return "0"
        num, den = self._display_pair()
        if den == UP_ONE:
            return str(num)
        ns = str(num) if len([c for c in num.coeffs if c]) == 1 else f"({num})"
        ds = str(den) if len([c for c in den.coeffs if c]) == 1 and den.degree <= 0 else f"({den})"
        return f"{ns}/{ds}"

    def __repr__(self):
        return f"RatFunc({self})"


RF_ZERO = RatFunc(0, 1, 0, (1,), (1,))
RF_ONE = RatFunc(1, 1, 0, (1,), (1,))
RF_T = RatFunc(1, 1, 1, (1,), (1,))


def rf(x) -> RatFunc:
    """Coerce an int/Rat/UniPoly into RatFunc."""
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, UniPoly):
        return RatFunc.of(x)
    return RatFunc.from_rat(x)
