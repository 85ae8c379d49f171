"""ODEs, P-recurrences, and exact sequence unrolling.

The ODE -> recurrence translation applies the standard rule: a term
t^a d_t^b sends the coefficient sequence to
(n-a+b)(n-a+b-1)...(n-a+1) c_{n-a+b}; collecting by the shift b-a and
renormalizing so the lowest shift is zero gives a recurrence annihilating
exactly the Taylor coefficient sequences of the ODE's series solutions.
Counts recurrences substitute c_n = r_n / n!, which clears the factorials
by multiplying the shift-s coefficient by the falling factor
(n+order)...(n+s+1).  A counts recurrence made by rec_counts keeps that
product implicit: it holds the Taylor coefficients, and its expanded
coefficients are built only when read (printing, JSON, ``coeffs``).

Unrolling forces c_0 = 1 and c_n = 0 for n < 0.  One instance loop
serves every unroll: it evaluates each instance in Horner form over the
linear factors (n+l), so a step multiplies the big terms only by small
integers and by values of Taylor-size coefficients.  A factored counts
recurrence hands the loop its Taylor coefficients with every level's
factor marked; a recurrence given in expanded form (from JSON or built
directly) first has the factors (n+l) peeled back off its coefficients.
A level's multiplier is applied only
when a term is added, folded with those of the levels before it into one
small integer, and a zero quotient is never evaluated, so the odd-degree
counts recurrences, which step by 2, pay nothing at their empty levels;
every division in counts mode is still proved exact by divmod.  A
vanishing leading coefficient blocks an index.  The recurrence is
linear, so every term is affine in the blocked terms, and one pass of the
loop per blocked term gives it by superposition; the blocked instances
then form a small exact linear system that may pin blocked terms down,
and a term in the requested range that still depends on a free one is an
error.  The blocked indices are the non-negative integer roots of the
leading coefficient, isolated on integers only by Descartes' rule of
signs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd as _igcd

from .exactnum import UniPoly, zadd, zcontent, zdivexact, zeval, zmul, zprem, zscale, zshift_arg, zval


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


def _normalize_family(ints):
    """Strip the common integer content of integer coefficient lists; fix
    the sign so the last non-zero polynomial has a positive leading
    coefficient."""
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
        return cls(_normalize_family([q.int_coeffs() for q in qs]))

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


class Recurrence:
    """sum over shifts s of a_s(n) c_{n+s} = 0, integer polynomials in n,
    mode 'taylor' for EGF coefficients or 'counts' for r_n = n! c_n.

    A counts recurrence made by rec_counts holds its Taylor coefficients
    t_s and stands for a_s = t_s * (n+order)...(n+s+1); ``coeffs`` and
    ``degree`` expand those products on first use.
    """

    __slots__ = ("mode", "_coeffs", "_taylor")

    def __init__(self, coeffs, mode: str):
        coeffs = tuple(coeffs)
        if mode not in ("taylor", "counts"):
            raise ValueError(f"bad mode {mode!r}")
        if not coeffs or coeffs[-1].is_zero() or coeffs[0].is_zero():
            raise ValueError("leading and trailing recurrence coefficients must be non-zero")
        self.mode = mode
        self._coeffs = coeffs
        self._taylor = None

    @classmethod
    def _factored(cls, taylor):
        """The counts recurrence of the Taylor coefficients ``taylor``, a
        valid family, with the falling factors left implicit."""
        rec = cls.__new__(cls)
        rec.mode = "counts"
        rec._coeffs = None
        rec._taylor = tuple(taylor)
        return rec

    @property
    def coeffs(self) -> tuple:
        if self._coeffs is None:
            out, fall = [], [1]
            for s in range(len(self._taylor) - 1, -1, -1):
                out.append(UniPoly(zmul(self._taylor[s].coeffs, fall)))
                fall = zmul(fall, [s, 1])  # (n+order)...(n+s)
            self._coeffs = tuple(reversed(out))
        return self._coeffs

    @property
    def order(self) -> int:
        return len(self._coeffs if self._taylor is None else self._taylor) - 1

    @property
    def degree(self) -> int:
        return max(int(q.degree) for q in self.coeffs if not q.is_zero())

    def __eq__(self, other):
        if isinstance(other, Recurrence):
            return self.mode == other.mode and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.coeffs, self.mode))

    def __repr__(self):
        return f"Recurrence(coeffs={self.coeffs!r}, mode={self.mode!r})"

    def __str__(self):
        return _operator_text(self.coeffs, "Sn", "n")


def ode_to_rec(ode: ODE) -> Recurrence:
    """Translate to the recurrence on Taylor coefficients.

    The term q_{b,a} t^a d^b lands at shift s = b - a; renormalized so the
    lowest shift smin is zero, shift i = s - smin gains q_{b,a} times the
    falling factor (n+i)(n+i-1)...(n+i-b+1), built once per (i, b) by one
    linear step from (i, b-1).  The factors have distinct degrees, so a
    shift's sum vanishes only when all of its terms do.
    """
    qs = [q.int_coeffs() for q in ode.coeffs]
    shifts = [b - a for b, q in enumerate(qs) for a, c in enumerate(q) if c]
    smin = min(shifts)
    coeffs = []
    for i in range(max(shifts) - smin + 1):
        s = i + smin
        p, fall = [], [1]
        for b, q in enumerate(qs):
            if 0 <= b - s < len(q) and q[b - s]:
                p = zadd(p, zscale(fall, q[b - s]))
            fall = zmul(fall, [i - b, 1])
        coeffs.append(p)
    return Recurrence(_normalize_family(coeffs), "taylor")


def rec_counts(rec: Recurrence) -> Recurrence:
    """Substitute c_n = r_n/n!: shift-s coefficients gain the factor
    (n+order)(n+order-1)...(n+s+1).

    The result keeps the factors implicit (see Recurrence).  They are
    monic, so by Gauss's lemma the expanded family has the content and
    sign of the Taylor family, and normalizing the Taylor family first
    normalizes the expanded one.
    """
    if rec.mode != "taylor":
        raise ValueError("rec_counts expects a taylor-mode recurrence")
    return Recurrence._factored(_normalize_family([p.int_coeffs() for p in rec.coeffs]))


# ---------------------------------------------------------------------------
# Unrolling.
# ---------------------------------------------------------------------------

def _peel(polys):
    """Split b_s(n) = a_s(n) * prod (n+l) over the peeled levels l > s,
    for a recurrence given in expanded form.

    Level l = order, ..., 1 is peeled when (n+l) divides each of
    b_0..b_{l-1}, that is, when they all vanish at n = -l; the factors are
    coprime, so no level depends on another.  The remainder of b_s by the
    monic (n+s+1)...(n+order) takes b_s's value at every such n = -l, and
    is zero when the recurrence is an expanded counts recurrence.  Returns
    the quotients a_s, one exact division each, and, per shift l, whether
    level l was peeled.
    """
    order = len(polys) - 1
    rems, fall = [None] * order, [1]
    for s in range(order - 1, -1, -1):
        fall = zmul(fall, [s + 1, 1])
        rems[s] = zprem(polys[s], fall)
    peeled = [False] + [all(not zeval(r, -l) for r in rems[:l] if r) for l in range(1, order + 1)]
    quots, fall = list(polys), [1]
    for s in range(order - 1, -1, -1):
        if peeled[s + 1]:
            fall = zmul(fall, [s + 1, 1])
        quots[s] = zdivexact(polys[s], fall)
    return quots, peeled


def _instances(quots, peeled, forced, given, upto, counts):
    """Run the instances m = 0..upto in order; returns the terms c_0..c_upto
    and the instance sums at the indices in ``given``.

    Instance m, at n = m - order, evaluates sum_{s<order} b_s(n) c_{n+s} in
    Horner form over the peeled factors: acc = acc*(n+s) + a_s(n)*c_{n+s},
    with multiplier 1 at a level that did not peel.  The multipliers met
    since the last term wait in a small-int product and reach the big
    accumulator only when a term is added, as acc*pend + a_s(n)*c_{n+s},
    and once after the last level; a term whose quotient a_s, value
    a_s(n) or c_{n+s} is zero is skipped, and a zero quotient is never
    evaluated.  The sum is the same however far the coefficients peel and
    whichever terms vanish.  An instance inside the ``forced``
    segment must hold; at an index in ``given``, where the leading
    coefficient vanishes, the term takes the given value and the sum is
    kept; any other instance is solved for its newest term, exactly by
    divmod when ``counts`` is set.
    """
    order = len(quots) - 1
    leadp = quots[order]
    values = list(forced)
    sums = []
    zero = 0 if counts else Fraction(0)
    for m in range(upto + 1):
        n = m - order
        acc, pend = zero, 1
        for j in range(max(-n, 0), order):
            if peeled[j] and acc:
                pend *= n + j
            v = values[n + j]
            if v and quots[j]:
                a = zeval(quots[j], n)
                if a:
                    acc = acc * pend + a * v if acc else a * v
                    pend = 1
        if acc:
            acc *= pend * m if peeled[order] else pend
        lead = zeval(leadp, n)
        if m < len(forced):
            if acc + lead * values[m]:
                raise InconsistentError(
                    f"forced initial segment violates the recurrence at index {m}"
                )
        elif m in given:
            values.append(given[m])
            sums.append(acc)
        elif counts:
            q, r = divmod(-acc, lead)
            if r:
                raise SequenceError(f"non-integer count at n={m}")
            values.append(q)
        else:
            values.append(-acc / lead)
    return values, sums


def unroll(rec: Recurrence, init, n_max: int):
    """Iterate the recurrence from the forced initial segment.

    Returns ints in counts mode and Rats in taylor mode.  An index m past
    the forced segment at which the leading coefficient vanishes (a root
    of psi(m) = a_order(m - order)) is blocked: its instance does not
    determine c_m.  With no blocked index up to n_max, one pass of
    _instances solves every term.

    Otherwise every term is affine in the blocked terms, since the
    recurrence is linear, and superposition reads it off: one rational
    pass with the forced values and every blocked term 0, and one per
    blocked index from a zero segment with that term 1, all up to the
    largest root of psi, so that blocked instances past n_max can still
    pin terms in range.  The blocked instance sums are affine
    constraints, solved in increasing index for their largest blocked
    term; a contradiction raises InconsistentError, and a term up to
    n_max that still depends on a free blocked term raises
    UnderdeterminedError.  Integrality in counts mode is checked last.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    order = rec.order
    if rec._taylor is None:
        quots, peeled = _peel([p.int_coeffs() for p in rec.coeffs])
    else:
        # rec_counts left every level's factor (n+l) implicit
        quots, peeled = [p.int_coeffs() for p in rec._taylor], [False] + [True] * order
    init = [Fraction(v) for v in init]
    if len(init) < 1:
        raise ValueError("initial segment must force at least c_0")
    roots = nonneg_integer_roots(UniPoly(quots[order]).shift_arg(-order))
    blocked = [m for m in roots if len(init) <= m]
    counts = rec.mode == "counts"
    if not blocked or blocked[0] > n_max:
        if counts:
            # big-integer arithmetic; exactness of every division is verified
            for v in init:
                if v.denominator != 1:
                    raise SequenceError(f"non-integer forced value {v} in counts mode")
            init = [v.numerator for v in init]
        return _instances(quots, peeled, init, {}, n_max, counts)[0][: n_max + 1]

    # run 0 carries the forced values with every blocked term 0; run i
    # starts from a zero segment and sets blocked term i to 1
    zero, one = Fraction(0), Fraction(1)
    runs = []
    for i in range(len(blocked) + 1):
        forced = [zero if i else v for v in init]
        given = {b: one if i == j else zero for j, b in enumerate(blocked, 1)}
        runs.append(_instances(quots, peeled, forced, given, max(n_max, roots[-1]), False))
    # a row [constant, coefficient of blocked term 1, 2, ...] is an affine
    # form; resolved[i] is the row that solved for term i, scaled to
    # coefficient -1 there, so adding c * resolved[i] eliminates c * term i.
    # It holds only terms below i, so one descending sweep substitutes all
    resolved = {}

    def reduce(row):
        for i in range(len(row) - 1, 0, -1):
            c = row[i]
            if c and i in resolved:
                row = [x + c * y for x, y in zip(row, resolved[i])]
        return row

    for k, index in enumerate(blocked):
        row = reduce([sums[k] for _, sums in runs])
        pivot = max((i for i in range(1, len(row)) if row[i]), default=0)
        if pivot:
            resolved[pivot] = [-x / row[pivot] for x in row]
        elif row[0]:
            raise InconsistentError(f"recurrence instance at index {index} is violated")
    values = []
    for m in range(n_max + 1):
        row = reduce([run[0][m] for run in runs])
        if any(row[1:]):
            raise UnderdeterminedError(m)
        values.append(row[0])
    if counts:
        for m, v in enumerate(values):
            if v.denominator != 1:
                raise SequenceError(f"non-integer count at n={m}: {v}")
        values = [v.numerator for v in values]
    return values


# ---------------------------------------------------------------------------
# Indicial check at t = 0: integer exponents by Descartes bisection.
# ---------------------------------------------------------------------------

def nonneg_integer_roots(p: UniPoly):
    """All non-negative integer roots, exactly.

    After the power of n is stripped, integer brackets (lo, hi) below a
    Cauchy-type bound are halved while Descartes' rule of signs admits a
    root strictly inside: the number of sign changes of
    (1+x)^d p((lo + hi*x)/(1+x)) bounds the roots in (lo, hi).  Every
    bracket's midpoint is tested by direct evaluation, so each integer
    root is met as a midpoint, on integers only.
    """
    cs = p.int_coeffs()
    if not cs:
        raise ValueError("zero polynomial")
    v = zval(cs)
    roots = [0] if v else []
    cs = cs[v:]
    brackets = [(0, 2 + max(map(abs, cs)) // abs(cs[-1]))]
    while brackets:
        lo, hi = brackets.pop()
        if hi - lo < 2:
            continue
        w = [c * (hi - lo) ** i for i, c in enumerate(zshift_arg(cs, lo))]
        signs = [c > 0 for c in zshift_arg(w[::-1], 1) if c]
        if all(a == b for a, b in zip(signs, signs[1:])):
            continue
        mid = (lo + hi) // 2
        if not zeval(cs, mid):
            roots.append(mid)
        brackets += [(lo, mid), (mid, hi)]
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
