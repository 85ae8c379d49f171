"""ODEs, P-recurrences, and exact sequence unrolling.

The ODE -> recurrence translation applies the standard rule: a term
t^a d_t^b sends the coefficient sequence to
(n-a+b)(n-a+b-1)...(n-a+1) c_{n-a+b}; collecting by the shift b-a and
renormalizing so the lowest shift is zero gives a recurrence annihilating
exactly the Taylor coefficient sequences of the ODE's series solutions.
Counts recurrences substitute c_n = r_n / n! and clear the factorials with
falling-factorial polynomials.

Unrolling forces c_0 = 1 and c_n = 0 for n < 0.  It peels the linear
factors (n+l) back off the coefficients and evaluates each instance in
Horner form over them, so a step multiplies the big terms only by small
integers and by values of the peeled (Taylor-size) coefficients; every
division in counts mode is still proved exact by divmod.  A vanishing
leading coefficient blocks an index; blocked terms become symbols that
later degenerate instances may pin down (an exact linear solve), and an
unresolved symbol in the requested range is an error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd as _igcd

from .exactnum import UP_ONE, UniPoly, zcontent, zderiv, zeval, zgcd_split


class SequenceError(Exception):
    pass


class UnderdeterminedError(SequenceError):
    def __init__(self, index):
        super().__init__(f"blocked index {index} is underdetermined")
        self.index = index


class InconsistentError(SequenceError):
    pass


class IndicialError(SequenceError):
    pass


def _normalize_family(polys):
    """Strip the common integer content; fix the sign so the last non-zero
    polynomial has a positive leading coefficient."""
    ints = [p.int_coeffs() for p in polys]
    g = 0
    for cs in ints:
        g = _igcd(g, zcontent(cs))
    if g > 1:
        ints = [[c // g for c in cs] for cs in ints]
    for cs in reversed(ints):
        if cs:
            if cs[-1] < 0:
                ints = [[-c for c in cs2] for cs2 in ints]
            break
    return tuple(UniPoly(cs) for cs in ints)


@dataclass(frozen=True)
class ODE:
    """Linear differential operator sum q_j(t) d_t^j with integer
    polynomial coefficients, content-free as a family."""

    coeffs: tuple

    def __post_init__(self):
        if not self.coeffs or self.coeffs[-1].is_zero():
            raise ValueError("leading ODE coefficient must be non-zero")

    @classmethod
    def from_kernel(cls, qs):
        qs = list(qs)
        while qs and qs[-1].is_zero():
            qs.pop()
        if not qs:
            raise ValueError("zero operator")
        return cls(_normalize_family(qs))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def degree(self) -> int:
        return max(int(q.degree) for q in self.coeffs if not q.is_zero())

    def apply_series(self, series):
        """Apply to a truncated Taylor series (list of Rats); returns the
        coefficient list of the image, trustworthy through
        len(series) - 1 - order."""
        n = len(series)
        out = [Fraction(0)] * n
        for b, q in enumerate(self.coeffs):
            for a, qc in enumerate(q.coeffs):
                if not qc:
                    continue
                # t^a d^b: c_m picks up series[m - a + b] * ff
                for m in range(n):
                    src = m - a + b
                    if 0 <= src < n and series[src]:
                        w = 1
                        for j in range(b):
                            w *= src - j
                        if w:
                            out[m] += qc * w * series[src]
        return out

    def __str__(self):
        return _operator_text(self.coeffs, "Dt", "t")

    def scalar_multiple_of(self, other: "ODE") -> bool:
        """Equality up to an overall Q(t) factor, by cross-multiplication."""
        if self.order != other.order:
            return False
        j0 = self.order
        for j in range(self.order):
            if self.coeffs[j] * other.coeffs[j0] != other.coeffs[j] * self.coeffs[j0]:
                return False
        return True


@dataclass(frozen=True)
class Recurrence:
    """sum over shifts s of a_s(n) c_{n+s} = 0, integer polynomials in n,
    mode 'taylor' for EGF coefficients or 'counts' for r_n = n! c_n."""

    coeffs: tuple
    mode: str

    def __post_init__(self):
        if self.mode not in ("taylor", "counts"):
            raise ValueError(f"bad mode {self.mode!r}")
        if not self.coeffs or self.coeffs[-1].is_zero() or self.coeffs[0].is_zero():
            raise ValueError("leading and trailing recurrence coefficients must be non-zero")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def degree(self) -> int:
        return max(int(q.degree) for q in self.coeffs if not q.is_zero())

    def __str__(self):
        return _operator_text(self.coeffs, "Sn", "n")


def _falling(shift: int, b: int) -> UniPoly:
    """(n+shift)(n+shift-1)...(n+shift-b+1) as a polynomial in n."""
    out = UP_ONE
    for i in range(b):
        out = out * UniPoly((shift - i, 1))
    return out


def ode_to_rec(ode: ODE) -> Recurrence:
    """Translate to the recurrence on Taylor coefficients."""
    by_shift = {}
    for b, q in enumerate(ode.coeffs):
        for a, qc in enumerate(q.coeffs):
            if not qc:
                continue
            s = b - a
            term = _falling(s, b).scale(qc)
            cur = by_shift.get(s)
            by_shift[s] = term if cur is None else cur + term
    by_shift = {s: p for s, p in by_shift.items() if not p.is_zero()}
    smin = min(by_shift)
    smax = max(by_shift)
    coeffs = []
    for s in range(smin, smax + 1):
        p = by_shift.get(s)
        if p is None:
            coeffs.append(UniPoly())
        else:
            coeffs.append(p.shift_arg(-smin))
    return Recurrence(_normalize_family(coeffs), "taylor")


def rec_counts(rec: Recurrence) -> Recurrence:
    """Substitute c_n = r_n/n!: shift-s coefficients gain the factor
    (n+order)(n+order-1)...(n+s+1)."""
    if rec.mode != "taylor":
        raise ValueError("rec_counts expects a taylor-mode recurrence")
    out = list(rec.coeffs)
    fall = UP_ONE
    for s in range(rec.order - 1, -1, -1):
        fall = fall * UniPoly((s + 1, 1))  # (n+order)...(n+s+1)
        out[s] = out[s] * fall
    return Recurrence(_normalize_family(out), "counts")


# ---------------------------------------------------------------------------
# Unrolling.
# ---------------------------------------------------------------------------

def _affine_add(a, b, scale=1):
    for k, v in b.items():
        nv = a.get(k, 0) + v * scale
        if nv:
            a[k] = nv
        else:
            a.pop(k, None)


def _divide_linear(cs, level):
    """cs / (n + level) by synthetic division, or None if the remainder is
    non-zero."""
    q = [0] * (len(cs) - 1)
    carry = 0
    for i in range(len(cs) - 1, 0, -1):
        carry = cs[i] - level * carry
        q[i - 1] = carry
    return q if not cs or cs[0] == level * carry else None


def _peel(polys):
    """Split b_s(n) = a_s(n) * prod (n+l) over the peeled levels l > s.

    Level l = order, ..., 1 is peeled when (n+l) divides each of
    b_0..b_{l-1} exactly; the factors that rec_counts multiplied in
    peel off completely.  Returns the quotients a_s and, per shift l,
    whether level l was peeled.
    """
    order = len(polys) - 1
    quots = list(polys)
    peeled = [False] * (order + 1)
    for level in range(order, 0, -1):
        qs = []
        for cs in quots[:level]:
            q = _divide_linear(cs, level)
            if q is None:
                break
            qs.append(q)
        else:
            quots[:level] = qs
            peeled[level] = True
    return quots, peeled


def unroll(rec: Recurrence, init, n_max: int):
    """Iterate the recurrence from the forced initial segment.

    Returns ints in counts mode and Rats in taylor mode.  Instances whose
    leading coefficient vanishes turn the new term into a symbol; later
    degenerate instances are solved for pending symbols, and a symbol
    surviving to the end raises UnderdeterminedError.

    The loop that checks the forced segment and solves unblocked
    instances evaluates sum_{s<order} b_s(n) c_{n+s} in Horner form over
    the linear factors peeled off the coefficients (_peel):
    acc = acc*(n+s) + a_s(n)*c_{n+s}, with multiplier 1 at a level that
    did not peel.  The sum is the same however far the coefficients
    peel, and in counts mode every new term is still proved exact by
    divmod.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    order = rec.order
    polys = [p.int_coeffs() for p in rec.coeffs]
    leadp = polys[order]
    init = [Fraction(v) for v in init]
    if len(init) < 1:
        raise ValueError("initial segment must force at least c_0")

    blocked = any(
        zeval(leadp, m - order) == 0 for m in range(len(init), n_max + 1)
    )
    counts = rec.mode == "counts"
    values = list(init)
    if counts and not blocked:
        # big-integer arithmetic; exactness of every division is verified
        for v in init:
            if v.denominator != 1:
                raise SequenceError(f"non-integer forced value {v} in counts mode")
        values = [v.numerator for v in init]
    zero = 0 if counts else Fraction(0)
    quots, peeled = _peel(polys)
    # instances inside the forced segment must hold; later ones are solved
    # for their newest term unless some leading coefficient vanishes
    for m in range(n_max + 1):
        n = m - order
        acc = zero
        for j in range(max(-n, 0), order):
            if peeled[j]:
                acc *= n + j
            v = values[n + j]
            if v:
                acc += zeval(quots[j], n) * v
        if peeled[order]:
            acc *= m
        if m < len(init):
            if acc + zeval(leadp, n) * values[m]:
                raise InconsistentError(
                    f"forced initial segment violates the recurrence at index {m}"
                )
        elif blocked:
            break
        elif counts:
            q, r = divmod(-acc, zeval(leadp, n))
            if r:
                raise SequenceError(f"non-integer count at n={m}")
            values.append(q)
        else:
            values.append(-acc / zeval(leadp, n))
    if not blocked:
        return values[: n_max + 1]

    # general path with symbolic blocked terms; instances are processed
    # past n_max up to the last degenerate index so that later constraints
    # can still pin blocked symbols inside the requested range
    psi = UniPoly(leadp).shift_arg(-order)
    horizon = n_max
    if not psi.is_zero():
        roots = nonneg_integer_roots(psi)
        if roots:
            horizon = max(horizon, max(roots))
    values = [{"#": v} for v in init]  # affine: key "#" is the constant
    nsym = 0
    resolved = {}

    def resolve(expr):
        out = {}
        stack = [(expr, Fraction(1))]
        while stack:
            e, sc = stack.pop()
            for k, v in e.items():
                if k != "#" and k in resolved:
                    stack.append((resolved[k], v * sc))
                else:
                    nv = out.get(k, 0) + v * sc
                    if nv:
                        out[k] = nv
                    else:
                        out.pop(k, None)
        return out

    def handle_constraint(expr, index):
        expr = resolve(expr)
        syms = [k for k in expr if k != "#"]
        if not syms:
            if expr:
                raise InconsistentError(
                    f"recurrence instance at index {index} is violated"
                )
            return
        s = max(syms)
        coef = expr.pop(s)
        resolved[s] = {k: -v / coef for k, v in expr.items()}

    for m in range(0, horizon + 1):
        n = m - order
        acc = {}
        for j in range(order):
            idx = n + j
            if 0 <= idx < len(values) and idx < m:
                c = zeval(polys[j], n)
                if c:
                    _affine_add(acc, values[idx], Fraction(c))
        lead = zeval(leadp, n)
        if m < len(values):
            # instance constrains the forced segment
            if lead:
                _affine_add(acc, values[m], Fraction(lead))
            handle_constraint(acc, m)
            continue
        if lead:
            values.append({k: -v / lead for k, v in acc.items()})
        else:
            nsym += 1
            sym = nsym
            handle_constraint(acc, m)
            values.append({sym: Fraction(1)})

    final = []
    for m, expr in enumerate(values[: n_max + 1]):
        expr = resolve(expr)
        if any(k != "#" for k in expr):
            raise UnderdeterminedError(m)
        final.append(expr.get("#", Fraction(0)))
    return _finalize(final, rec.mode)


def _finalize(values, mode):
    if mode != "counts":
        return values
    out = []
    for m, v in enumerate(values):
        if isinstance(v, Fraction):
            if v.denominator != 1:
                raise SequenceError(f"non-integer count at n={m}: {v}")
            v = v.numerator
        out.append(int(v))
    return out


# ---------------------------------------------------------------------------
# Indicial check at t = 0: integer exponents via exact Sturm isolation.
# ---------------------------------------------------------------------------

def _sturm_chain(cs):
    chain = [UniPoly(cs)]
    chain.append(chain[0].derivative())
    while not chain[-1].is_zero() and chain[-1].degree > 0:
        _, r = chain[-2].divmod(chain[-1])
        if r.is_zero():
            break
        chain.append(-r)
    return [c for c in chain if not c.is_zero()]


def _variations(chain, x):
    signs = []
    for p in chain:
        v = p.evaluate(x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _safe_point(chain, x):
    eps = Fraction(1, 4)
    while not chain[0].evaluate(x):
        x += eps
        eps /= 2
    return x


def nonneg_integer_roots(p: UniPoly):
    """All non-negative integer roots, exactly.

    The square-free part is isolated over half-integer brackets by Sturm
    counts; each width-one bracket holds one integer candidate, verified
    by direct evaluation.
    """
    cs = p.int_coeffs()
    if not cs:
        raise ValueError("zero polynomial")
    roots = set()
    v = 0
    while v < len(cs) and cs[v] == 0:
        v += 1
    if v:
        roots.add(0)
        cs = cs[v:]
    if len(cs) == 1:
        return sorted(roots)
    _, cs, _ = zgcd_split(cs, zderiv(cs))
    chain = _sturm_chain(cs)
    bound = 1 + max(abs(c) for c in cs) // abs(cs[-1]) + 1

    def search(lo, hi, ilo, ihi):
        # (lo, hi] brackets integers ilo..ihi
        a = _safe_point(chain, lo)
        b = _safe_point(chain, hi)
        if _variations(chain, a) - _variations(chain, b) <= 0:
            return
        if ilo == ihi:
            if not zeval(cs, ilo):
                roots.add(ilo)
            return
        mid = (ilo + ihi) // 2
        search(lo, Fraction(2 * mid + 1, 2), ilo, mid)
        search(Fraction(2 * mid + 1, 2), hi, mid + 1, ihi)

    search(Fraction(-1, 2), Fraction(2 * bound + 1, 2), 0, bound)
    return sorted(roots)


def indicial_check(ode: ODE):
    """Verify that 0 is the only non-negative integer exponent at t = 0,
    so forcing c_0 = 1 determines the series solution uniquely."""
    rec = ode_to_rec(ode)
    psi = rec.coeffs[rec.order].shift_arg(-rec.order)
    roots = nonneg_integer_roots(psi)
    if roots != [0]:
        raise IndicialError(
            f"exponents at t=0 include non-negative integers {roots}, expected [0]"
        )


# ---------------------------------------------------------------------------
# Emission formats.
# ---------------------------------------------------------------------------

def _operator_text(coeffs, opname: str, var: str) -> str:
    parts = []
    for j, q in enumerate(coeffs):
        if q.is_zero():
            continue
        if j == 0:
            # the order-zero part stands alone and keeps its own signs
            parts.append(("+", q.to_str(var)))
            continue
        neg = q.lc() < 0
        qs = (-q).to_str(var) if neg else q.to_str(var)
        multi = " " in qs
        op = opname if j == 1 else f"{opname}^{j}"
        if qs == "1":
            body = op
        else:
            body = (f"({qs})" if multi else qs) + f"*{op}"
        parts.append(("-" if neg else "+", body))
    if not parts:
        return "0"
    sign, body = parts[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def ode_to_json(ode: ODE) -> str:
    return json.dumps(
        {"ode": {"order": ode.order, "coeffs": [list(q.int_coeffs()) for q in ode.coeffs]}},
        separators=(",", ":"),
    )


def ode_from_json(text: str) -> ODE:
    data = json.loads(text)["ode"]
    coeffs = tuple(UniPoly(cs) for cs in data["coeffs"])
    ode = ODE(coeffs)
    if ode.order != data["order"]:
        raise ValueError("order field disagrees with coefficient list")
    return ode


def rec_to_json(rec: Recurrence) -> str:
    return json.dumps(
        {
            "rec": {
                "mode": rec.mode,
                "order": rec.order,
                "coeffs": [list(q.int_coeffs()) for q in rec.coeffs],
            }
        },
        separators=(",", ":"),
    )


def rec_from_json(text: str) -> Recurrence:
    data = json.loads(text)["rec"]
    rec = Recurrence(tuple(UniPoly(cs) for cs in data["coeffs"]), data["mode"])
    if rec.order != data["order"]:
        raise ValueError("order field disagrees with coefficient list")
    return rec
