"""The Weyl algebra W_p(t): skew polynomials in p_1..p_k, d_1..d_k over Q(t)
with the single commutation rule d_i p_i = p_i d_i + 1.

Operators are stored in the coefficient-left normal form
``sum c_{alpha,beta}(t) p^alpha d^beta``; the d-left form (all derivations
moved to the left) is computed on demand for the module embedding.  The
adjoint is the anti-automorphism p_i -> i d_i, d_i -> p_i / i, and the
twist substitutes d_i -> d_i + t g_i after taking adjoints.

A plain-text syntax ("p3 - 3*d3 - t*p1") is provided for tests and for the
CLI dump flags.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .exactnum import RF_ONE, RF_T, RF_ZERO, rf
from .polyring import MPoly, SparseTerms, add_term, pd_key


def _ordkey(term):
    return pd_key(term[0])


class WeylOp(SparseTerms):
    """Skew polynomial in coefficient-left normal form.

    ``terms`` maps pairs (alpha, beta) of exponent tuples to RatFunc
    coefficients; zero coefficients are never stored.
    """

    __slots__ = ()

    # -- constructors -------------------------------------------------
    @classmethod
    def const(cls, k, c):
        c = rf(c)
        z = (0,) * k
        return cls(k, {(z, z): c} if c else {})

    @classmethod
    def p(cls, k, i):
        e = [0] * k
        e[i] = 1
        return cls(k, {(tuple(e), (0,) * k): RF_ONE})

    @classmethod
    def d(cls, k, i):
        e = [0] * k
        e[i] = 1
        return cls(k, {((0,) * k, tuple(e)): RF_ONE})

    @classmethod
    def from_mpoly(cls, m: MPoly):
        z = (0,) * m.k
        return cls(m.k, {(e, z): c for e, c in m.terms.items()})

    # -- multiplication -------------------------------------------------
    def __mul__(self, other):
        return weyl_mul(self, other)

    def __pow__(self, n: int):
        out = WeylOp.const(self.k, 1)
        base = self
        while n:
            if n & 1:
                out = weyl_mul(out, base)
            base = weyl_mul(base, base)
            n >>= 1
        return out

    # -- views -----------------------------------------------------------
    def poly_part(self) -> MPoly:
        """Terms with no derivation, as a polynomial."""
        z = (0,) * self.k
        return MPoly(self.k, {a: c for (a, b), c in self.terms.items() if b == z})

    def sorted_terms(self):
        return sorted(self.terms.items(), key=_ordkey, reverse=True)

    def __str__(self):
        return op_to_str(self)

    def __repr__(self):
        return f"WeylOp({op_to_str(self)})"


def _commute_weights(beta, gamma):
    """Expansion of d^beta p^gamma: yields (nu, integer weight) over all
    nu <= min(beta, gamma), weight = prod C(beta_i,nu_i) C(gamma_i,nu_i) nu_i!.
    """
    ranges = [range(min(b, g) + 1) for b, g in zip(beta, gamma)]
    idx = [0] * len(ranges)
    while True:
        w = 1
        for i, n in enumerate(idx):
            if n:
                w *= comb(beta[i], n) * comb(gamma[i], n) * factorial(n)
        yield tuple(idx), w
        for i in range(len(ranges)):
            idx[i] += 1
            if idx[i] < len(ranges[i]):
                break
            idx[i] = 0
        else:
            return


def weyl_mul(a: WeylOp, b: WeylOp) -> WeylOp:
    """Product in normal form, using d_i p_j = p_j d_i + delta_ij."""
    a._check(b)
    out = {}
    for (a1, b1), c1 in a.terms.items():
        for (a2, b2), c2 in b.terms.items():
            c = c1 * c2
            if not c:
                continue
            if not any(min(x, y) for x, y in zip(b1, a2)):
                # no variable overlap: plain exponent addition
                m = (tuple(x + y for x, y in zip(a1, a2)), tuple(x + y for x, y in zip(b1, b2)))
                add_term(out, m, c)
                continue
            for nu, w in _commute_weights(b1, a2):
                m = (
                    tuple(x + y - n for x, y, n in zip(a1, a2, nu)),
                    tuple(x + y - n for x, y, n in zip(b1, b2, nu)),
                )
                add_term(out, m, c.scale_rat(w))
    return WeylOp._of(a.k, out)


def adjoint(a: WeylOp) -> WeylOp:
    """Anti-automorphism p_i -> i d_i, d_i -> p_i/i.

    On a normal-form term c p^alpha d^beta the reversal lands already in
    normal form: c * prod i^(alpha_i - beta_i) * p^beta d^alpha.
    """
    out = {}
    for (alpha, beta), c in a.terms.items():
        w = Fraction(1)
        for i, (x, y) in enumerate(zip(alpha, beta), start=1):
            if x != y:
                w *= Fraction(i) ** (x - y)
        out[(beta, alpha)] = c.scale_rat(w)
    return WeylOp(a.k, out)


def apply_op(a: WeylOp, s: MPoly) -> MPoly:
    """Action on polynomials: d_i differentiates, p_i multiplies."""
    if a.k != s.k:
        raise ValueError("ambient dimension mismatch")
    out = {}
    for (alpha, beta), c in a.terms.items():
        for e, cs in s.terms.items():
            w = 1
            for x, y in zip(beta, e):
                if x > y:
                    w = 0
                    break
                for j in range(x):
                    w *= y - j
            if not w:
                continue
            m = tuple(x + y - z for x, y, z in zip(alpha, e, beta))
            add_term(out, m, (c * cs).scale_rat(w) if w != 1 else c * cs)
    return MPoly._of(a.k, out)


def from_dleft(k: int, parts) -> WeylOp:
    """The operator sum_beta d^beta parts[beta](p), back in
    coefficient-left normal form (round-trips ``to_dleft`` exactly)."""
    out = WeylOp(k)
    z = (0,) * k
    for beta, m in parts.items():
        out = out + weyl_mul(WeylOp(k, {(z, beta): RF_ONE}), WeylOp.from_mpoly(m))
    return out


def to_dleft(a: WeylOp) -> dict:
    """The d-left form {beta: c_beta} of a = sum_beta d^beta c_beta(p), by
    moving all derivations to the left using
    p^alpha d^beta = sum_nu (-1)^|nu| C(alpha,nu) C(beta,nu) nu! d^(beta-nu) p^(alpha-nu).
    Only non-zero c_beta are kept.
    """
    parts = {}
    for (alpha, beta), c in a.terms.items():
        for nu, w in _commute_weights(beta, alpha):
            if sum(nu) & 1:
                w = -w
            b2 = tuple(x - n for x, n in zip(beta, nu))
            a2 = tuple(x - n for x, n in zip(alpha, nu))
            add_term(parts.setdefault(b2, {}), a2, c.scale_rat(w))
    return {b: MPoly(a.k, m) for b, m in parts.items() if m}


def right_mul_poly(a: WeylOp, q: MPoly) -> WeylOp:
    """Right multiplication by a polynomial in p.

    In d-left form this is coefficient-wise commutative multiplication,
    which is the fast path the right-module structure relies on.
    """
    return from_dleft(a.k, {b: m * q for b, m in to_dleft(a).items()})


def twist(a: WeylOp, g: MPoly) -> WeylOp:
    """The twisted operator a* with d_i replaced by d_i + t g_i, g_i = d_i.g.

    The substitution is performed on the adjoint's normal form by
    non-commutative exponentiation of the substituted generators (which
    commute with one another, being conjugates of the d_i).
    """
    if a.k != g.k:
        raise ValueError("ambient dimension mismatch")
    k = a.k
    adj = adjoint(a)
    subs = []
    for i in range(k):
        gi = g.derivative(i)
        subs.append(WeylOp.d(k, i) + WeylOp.from_mpoly(gi.scale(RF_T)))
    powers = [{0: WeylOp.const(k, 1)} for _ in range(k)]

    def power(i, n):
        cache = powers[i]
        if n not in cache:
            cache[n] = weyl_mul(power(i, n - 1), subs[i])
        return cache[n]

    out = WeylOp(k)
    z = (0,) * k
    for (alpha, beta), c in adj.terms.items():
        op = WeylOp.const(k, 1)
        for i, b in enumerate(beta):
            if b:
                op = weyl_mul(op, power(i, b))
        if alpha != z:
            op = WeylOp(k, {(tuple(x + y for x, y in zip(alpha, am)), bm): cc
                            for (am, bm), cc in op.terms.items()})
        out = out + op.scale(c)
    return out


# ---------------------------------------------------------------------------
# Text syntax: "p3 - 3*d3 - t*p1", rational-function coefficients allowed.
# ---------------------------------------------------------------------------

def _ratfunc_str(s: str, need_parens: bool) -> str:
    if need_parens and (("+" in s[1:]) or ("-" in s[1:]) or "/" in s):
        return f"({s})" if not (s.startswith("(") and s.endswith(")")) else s
    return s


def op_to_str(a: WeylOp) -> str:
    if a.is_zero():
        return "0"
    parts = []
    for (alpha, beta), c in a.sorted_terms():
        vars_ = []
        for i, e in enumerate(alpha, start=1):
            if e:
                vars_.append(f"p{i}" + (f"^{e}" if e > 1 else ""))
        for i, e in enumerate(beta, start=1):
            if e:
                vars_.append(f"d{i}" + (f"^{e}" if e > 1 else ""))
        neg = c.cn < 0
        cs = str(-c) if neg else str(c)
        cs = _ratfunc_str(cs, need_parens=bool(vars_))
        if vars_:
            body = "*".join(vars_) if cs == "1" else cs + "*" + "*".join(vars_)
        else:
            body = cs
        parts.append(("-" if neg else "+", body))
    sign, body = parts[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def mpoly_to_str(m: MPoly) -> str:
    return op_to_str(WeylOp.from_mpoly(m))


class _Parser:
    """Recursive-descent parser for the operator syntax.

    Product terms multiply through weyl_mul, so expressions like
    "d1*p1" normalize on the way in.  Division is restricted to
    coefficient operators (no p or d in the divisor).
    """

    def __init__(self, text: str, k: int):
        self.text = text
        self.pos = 0
        self.k = k

    def error(self, msg):
        raise ValueError(f"parse error at {self.pos} in {self.text!r}: {msg}")

    def skip(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expr(self) -> WeylOp:
        ch = self.peek()
        neg = False
        if ch in "+-":
            self.pos += 1
            neg = ch == "-"
        out = self.term()
        if neg:
            out = -out
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                out = out + self.term()
            elif ch == "-":
                self.pos += 1
                out = out - self.term()
            else:
                return out

    def term(self) -> WeylOp:
        out = self.factor()
        while True:
            ch = self.peek()
            if ch == "*":
                self.pos += 1
                out = weyl_mul(out, self.factor())
            elif ch == "/":
                self.pos += 1
                divisor = self.factor()
                zz = (0,) * self.k
                if any(m != (zz, zz) for m in divisor.terms):
                    self.error("division by a non-coefficient operator")
                c = divisor.terms.get((zz, zz), RF_ZERO)
                out = out.scale(c.inverse())
            else:
                return out

    def factor(self) -> WeylOp:
        base = self.atom()
        if self.peek() == "^":
            self.pos += 1
            n = self.integer()
            base = base ** n
        return base

    def integer(self) -> int:
        self.skip()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            self.error("expected integer")
        return int(self.text[start:self.pos])

    def atom(self) -> WeylOp:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            out = self.expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            return out
        if ch == "-":
            self.pos += 1
            return -self.atom()
        if ch.isdigit():
            n = self.integer()
            return WeylOp.const(self.k, n)
        if ch == "t":
            self.pos += 1
            return WeylOp.const(self.k, RF_T)
        if ch in ("p", "d"):
            self.pos += 1
            i = self.integer()
            if not 1 <= i <= self.k:
                self.error(f"index {i} out of range for k={self.k}")
            return WeylOp.p(self.k, i - 1) if ch == "p" else WeylOp.d(self.k, i - 1)
        self.error("unexpected character")


def parse_op(text: str, k: int) -> WeylOp:
    p = _Parser(text, k)
    out = p.expr()
    p.skip()
    if p.pos != len(text):
        p.error("trailing input")
    return out
