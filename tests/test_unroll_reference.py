"""``seqtools.unroll``, ``seqtools.nonneg_integer_roots``,
``seqtools.rec_counts`` and ``seqtools.ode_to_rec`` against test-local
copies of the code they replaced: an unroll whose blocked indices become
symbols carried through a second, symbolic loop, a root finder that
isolates roots with a Sturm chain over the rationals, and the expanded
counts and Taylor recurrences built on UniPolys.  Same values, or the same
exception type, message and index; the same text and JSON."""

import random
from fractions import Fraction
from math import factorial, gcd

import pytest

from regenum import ode_to_rec, seqtools
from regenum.exactnum import UniPoly, zderiv, zeval, zgcd
from regenum.seqtools import (
    ODE,
    InconsistentError,
    Recurrence,
    SequenceError,
    UnderdeterminedError,
    _peel,
    nonneg_integer_roots,
    rec_counts,
    rec_to_json,
    unroll,
)

from conftest import pipeline, up


# ---------------------------------------------------------------------------
# Reference: Sturm isolation over Q.
# ---------------------------------------------------------------------------

def ref_divmod(a, b):
    """Field division with remainder of UniPolys (coefficients become Rat)."""
    q = [Fraction(0)] * max(len(a.coeffs) - len(b.coeffs) + 1, 0)
    r = [Fraction(c) for c in a.coeffs]
    db = len(b.coeffs) - 1
    while len(r) > db:
        c = r[-1] / b.coeffs[-1]
        i = len(r) - 1 - db
        q[i] = c
        for j, cb in enumerate(b.coeffs):
            r[i + j] -= c * cb
        while r and not r[-1]:
            r.pop()
    return UniPoly(q), UniPoly(r)


def sturm_chain(cs):
    chain = [UniPoly(cs)]
    chain.append(chain[0].derivative())
    while not chain[-1].is_zero() and chain[-1].degree > 0:
        _, r = ref_divmod(chain[-2], chain[-1])
        if r.is_zero():
            break
        chain.append(-r)
    return [c for c in chain if not c.is_zero()]


def variations(chain, x):
    signs = [1 if v > 0 else -1 for v in (p.evaluate(x) for p in chain) if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def safe_point(chain, x):
    eps = Fraction(1, 4)
    while not chain[0].evaluate(x):
        x += eps
        eps /= 2
    return x


def ref_roots(p):
    """Reference: the square-free part isolated over half-integer brackets
    by Sturm counts; each width-one bracket's integer is evaluated."""
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
    _, cs, _ = zgcd(cs, zderiv(cs))
    chain = sturm_chain(cs)
    bound = 1 + max(abs(c) for c in cs) // abs(cs[-1]) + 1

    def search(lo, hi, ilo, ihi):
        a = safe_point(chain, lo)
        b = safe_point(chain, hi)
        if variations(chain, a) - variations(chain, b) <= 0:
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


# ---------------------------------------------------------------------------
# Reference: level-by-level peel by synthetic division, an index pre-scan,
# the Horner loop, and a symbolic loop.
# ---------------------------------------------------------------------------

def divide_linear(cs, level):
    q = [0] * (len(cs) - 1)
    carry = 0
    for i in range(len(cs) - 1, 0, -1):
        carry = cs[i] - level * carry
        q[i - 1] = carry
    return q if not cs or cs[0] == level * carry else None


def ref_peel(polys):
    order = len(polys) - 1
    quots = list(polys)
    peeled = [False] * (order + 1)
    for level in range(order, 0, -1):
        qs = [divide_linear(cs, level) for cs in quots[:level]]
        if None not in qs:
            quots[:level] = qs
            peeled[level] = True
    return quots, peeled


def affine_add(a, b, scale=1):
    for k, v in b.items():
        nv = a.get(k, 0) + v * scale
        if nv:
            a[k] = nv
        else:
            a.pop(k, None)


def ref_unroll(rec, init, n_max):
    """Reference: affine dicts keyed by symbol ("#" is the constant) when
    some index in range is blocked; the peeled Horner loop otherwise."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    order = rec.order
    polys = [p.int_coeffs() for p in rec.coeffs]
    leadp = polys[order]
    init = [Fraction(v) for v in init]
    if len(init) < 1:
        raise ValueError("initial segment must force at least c_0")
    blocked = any(zeval(leadp, m - order) == 0 for m in range(len(init), n_max + 1))
    counts = rec.mode == "counts"
    values = list(init)
    if counts and not blocked:
        for v in init:
            if v.denominator != 1:
                raise SequenceError(f"non-integer forced value {v} in counts mode")
        values = [v.numerator for v in init]
    zero = 0 if counts else Fraction(0)
    quots, peeled = ref_peel(polys)
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
                raise InconsistentError(f"forced initial segment violates the recurrence at index {m}")
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

    roots = ref_roots(UniPoly(leadp).shift_arg(-order))
    horizon = max([n_max] + roots)
    values = [{"#": v} for v in init]
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
                    affine_add(out, {k: v}, sc)
        return out

    def handle_constraint(expr, index):
        expr = resolve(expr)
        syms = [k for k in expr if k != "#"]
        if not syms:
            if expr:
                raise InconsistentError(f"recurrence instance at index {index} is violated")
            return
        s = max(syms)
        coef = expr.pop(s)
        resolved[s] = {k: -v / coef for k, v in expr.items()}

    nsym = 0
    for m in range(horizon + 1):
        n = m - order
        acc = {}
        for j in range(order):
            idx = n + j
            if 0 <= idx < len(values) and idx < m:
                c = zeval(polys[j], n)
                if c:
                    affine_add(acc, values[idx], Fraction(c))
        lead = zeval(leadp, n)
        if m < len(values):
            if lead:
                affine_add(acc, values[m], Fraction(lead))
            handle_constraint(acc, m)
        elif lead:
            values.append({k: -v / lead for k, v in acc.items()})
        else:
            nsym += 1
            handle_constraint(acc, m)
            values.append({nsym: Fraction(1)})

    final = []
    for m, expr in enumerate(values[: n_max + 1]):
        expr = resolve(expr)
        if any(k != "#" for k in expr):
            raise UnderdeterminedError(m)
        final.append(expr.get("#", Fraction(0)))
    if not counts:
        return final
    for m, v in enumerate(final):
        if v.denominator != 1:
            raise SequenceError(f"non-integer count at n={m}: {v}")
    return [v.numerator for v in final]


# ---------------------------------------------------------------------------
# Comparison.
# ---------------------------------------------------------------------------

def outcome(fn, *args):
    """The return value with its element types, or the exception's type,
    message and blocked index."""
    try:
        out = fn(*args)
    except (SequenceError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "index", None)
    return out, [type(v) for v in out]


def rand_poly(rng, deg, size=3):
    return UniPoly([rng.randint(-size, size) for _ in range(rng.randint(0, deg) + 1)])


def rand_blocked_rec(rng):
    """A recurrence whose leading coefficient vanishes at one to three
    planted indices in 1..10 and, mostly, at 0 (so that c_0 = 1 can hold);
    the lower coefficients sometimes vanish at the smallest planted index
    too, so its instance leaves the blocked term free for later blocked
    instances to pin."""
    order = rng.randint(0, 3)
    planted = rng.sample(range(1, 11), rng.randint(1, 3))
    roots = planted + [0] * (rng.random() < 0.8)
    lead = UniPoly((rng.choice((-2, -1, 1, 3)),))
    for r in roots:
        lead = lead * up(order - r, 1)
    if rng.random() < 0.3:
        lead = lead * up(2 * order + 1, 2)  # a root at -1/2 as well
    free = up(order - min(planted), 1) if rng.random() < 0.5 else up(1)
    coeffs = []
    for _ in range(order):
        p = UniPoly()
        while p.is_zero() and not coeffs:
            p = rand_poly(rng, 2)
        coeffs.append(p * free)
    mode = rng.choice(("taylor", "counts"))
    return Recurrence(tuple(coeffs) + (lead,), mode)


def rand_init(rng):
    init = [1]
    for _ in range(rng.choice((0, 0, 1, 2))):
        init.append(rng.choice((0, 0, 1, -2, Fraction(1, 2))))
    return init


class TestUnrollMatchesReference:
    def test_random_blocked_recurrences(self):
        rng = random.Random(1701)
        kinds = {}
        for _ in range(1000):
            rec = rand_blocked_rec(rng)
            if rec.mode == "taylor" and rng.random() < 0.3:
                rec = rec_counts(rec)  # peeled levels under blocked indices
            init, n_max = rand_init(rng), rng.randint(0, 9)
            got = outcome(unroll, rec, init, n_max)
            assert got == outcome(ref_unroll, rec, init, n_max), (rec, init, n_max)
            kind = got[0].__name__ if isinstance(got[0], type) else "values"
            blocked = any(not zeval(rec.coeffs[-1].int_coeffs(), m - rec.order) for m in range(len(init), n_max + 1))
            kinds[kind, blocked] = kinds.get((kind, blocked), 0) + 1
        # every outcome the symbolic loop can reach occurs, blocked or not
        for kind in ("values", "UnderdeterminedError", "InconsistentError", "SequenceError"):
            assert kinds.get((kind, True), 0) >= 5, kinds
        assert kinds.get(("values", False), 0) >= 100, kinds

    def test_random_unblocked_recurrences(self):
        # psi(m) = c * m * (2m + 1): 0 is the only exponent, nothing blocks
        rng = random.Random(1702)
        kinds = set()
        for _ in range(300):
            order = rng.randint(1, 3)
            lead = up(order, 1) * up(2 * order + 1, 2) * up(rng.choice((-2, 1, 3)))
            coeffs = [rand_poly(rng, 2) for _ in range(order)]
            if coeffs[0].is_zero():
                coeffs[0] = up(1)
            rec = Recurrence(tuple(coeffs) + (lead,), rng.choice(("taylor", "counts")))
            if rec.mode == "taylor" and rng.random() < 0.5:
                rec = rec_counts(rec)
            init, n_max = rand_init(rng), rng.randint(0, 12)
            got = outcome(unroll, rec, init, n_max)
            assert got == outcome(ref_unroll, rec, init, n_max), (rec, init, n_max)
            kinds.add(got[0].__name__ if isinstance(got[0], type) else "values")
        assert kinds == {"values", "InconsistentError", "SequenceError"}

    def test_bad_arguments(self):
        rec = Recurrence((up(0, -1), up(0, 1, 1)), "taylor")
        for init, n_max in (([1], -1), ([], 3)):
            assert outcome(unroll, rec, init, n_max) == outcome(ref_unroll, rec, init, n_max)
            assert outcome(unroll, rec, init, n_max)[0] is ValueError

    def test_two_symbols_one_pinned(self):
        # (n+1)(n-1)(n-3) c_{n+1} = (n-1) c_n: c_2 and c_4 are blocked.
        # Index 2's instance holds for any c_2 and leaves it free; index 4's
        # instance 0 * c_4 = 2 c_3 = -2 c_2 / 3 pins c_2 = 0 and leaves c_4
        # free, so c_0..c_3 are determined and c_4 is not
        rec = Recurrence((up(1, -1), up(1, 1) * up(3, -4, 1)), "taylor")
        assert unroll(rec, [1], 3) == [1, Fraction(-1, 3), 0, 0]
        assert unroll(rec, [1], 3) == ref_unroll(rec, [1], 3)
        with pytest.raises(UnderdeterminedError) as exc:
            unroll(rec, [1], 6)
        assert exc.value.index == 4
        assert outcome(unroll, rec, [1], 6) == outcome(ref_unroll, rec, [1], 6)

    def test_chained_blocked_terms(self):
        # n(n-1)(n-2)(n+3)(n-4)(n-5) c_{n+3} + 2n(n-1) c_{n+1} = n^2(n-1) c_n:
        # c_3, c_4, c_5, c_7 and c_8 are blocked.  Index 5's instance pins
        # c_3 = 1/90, index 7's solves c_5 = 2 c_4 and index 8's pins
        # c_4 = 1/1860, so c_5 is known only through that chain
        lead = up(0, 1) * up(-1, 1) * up(-2, 1) * up(3, 1) * up(-4, 1) * up(-5, 1)
        rec = Recurrence((up(0, 0, 1, -1), up(0, -2, 2), up(), lead), "taylor")
        vals = unroll(rec, [1], 5)
        assert vals == [1, 0, Fraction(1, 90), Fraction(1, 90), Fraction(1, 1860), Fraction(1, 930)]
        assert vals == ref_unroll(rec, [1], 5)
        assert outcome(unroll, rec, [1], 9) == outcome(ref_unroll, rec, [1], 9)
        assert outcome(unroll, rec, [1], 9)[2] == 7


def rand_sparse_rec(rng, shape, blocked):
    """A recurrence whose lower coefficients vanish at planted shifts: every
    odd shift (the step-2 shape of the odd-degree counts recurrences), or a
    run of shifts next to the top or next to the bottom.  The surviving
    ones share the factors (n+l) of a random set of levels l, so those
    levels peel, and the leading coefficient blocks one to three indices
    in 1..10 or none."""
    order = rng.randint(2, 7)
    if shape == "alternate":
        zero = set(range(1, order, 2))
    else:
        run = range(1, rng.randint(2, order))
        zero = {order - s for s in run} if shape == "top" else set(run)
    levels = rng.sample(range(1, order + 1), rng.randint(0, order))
    # psi(m) = +-m divides every instance when level order peels
    unit = not blocked and rng.random() < 0.5
    if unit and order not in levels:
        levels.append(order)
    coeffs = []
    for s in range(order):
        p = up()
        if s not in zero:
            while p.is_zero():
                p = rand_poly(rng, 2)
            for level in levels:
                if level > s:
                    p = p * up(level, 1)
        coeffs.append(p)
    lead = up(rng.choice((-2, -1, 1, 3)))
    if blocked:
        for r in rng.sample(range(1, 11), rng.randint(1, 3)) + [0]:
            lead = lead * up(order - r, 1)
    elif unit:
        lead = up(order, 1) * up(rng.choice((-1, 1)))
    else:
        lead = lead * up(order, 1) * up(2 * order + 1, 2)
    return Recurrence(tuple(coeffs) + (lead,), rng.choice(("taylor", "counts")))


class TestVanishingLevels:
    """The instance loop defers the multipliers of the levels it passes
    until a term is added, and skips zero quotients and zero values."""

    @pytest.mark.parametrize("shape", ["alternate", "top", "bottom"])
    def test_random_sparse_recurrences(self, shape):
        rng = random.Random(f"sparse:{shape}")
        kinds = {}
        for _ in range(400):
            blocked = rng.random() < 0.4
            rec = rand_sparse_rec(rng, shape, blocked)
            if rec.mode == "taylor" and rng.random() < 0.3:
                rec = rec_counts(rec)  # every level peels
            init, n_max = rand_init(rng), rng.randint(0, 14)
            got = outcome(unroll, rec, init, n_max)
            assert got == outcome(ref_unroll, rec, init, n_max), (rec, init, n_max)
            peeled = _peel([p.int_coeffs() for p in rec.coeffs])[1]
            kind = got[0].__name__ if isinstance(got[0], type) else "values"
            key = kind, blocked, rec.mode, any(peeled) and not all(peeled[1:])
            kinds[key] = kinds.get(key, 0) + 1
        # values in both modes, partly peeled, with and without blocked indices
        for blocked in (False, True):
            for mode in ("taylor", "counts"):
                assert kinds.get(("values", blocked, mode, True), 0) >= 3, kinds

    def test_running_sum_cancels_mid_instance(self):
        # quotients n+1, -(n+1), n+3 under the levels 1, 2 and 3, all
        # peeled, and leading coefficient -(n+3):
        # (n+3)[(n+2)((n+1)^2 c_n - (n+1) c_{n+1}) + (n+3) c_{n+2}] = (n+3) c_{n+3}.
        # It holds for c_n = n!, whose sum cancels to 0 after shift 1 of
        # every instance n >= 0; the pending factors (n+1) and (n+2) must
        # not reach the term (n+3) c_{n+2} that follows
        b0 = up(1, 1) ** 2 * up(2, 1) * up(3, 1)
        b1 = -(up(1, 1) * up(2, 1) * up(3, 1))
        b2 = up(3, 1) ** 2
        for mode in ("taylor", "counts"):
            rec = Recurrence((b0, b1, b2, up(-3, -1)), mode)
            assert _peel([p.int_coeffs() for p in rec.coeffs])[1] == [False, True, True, True]
            vals = unroll(rec, [1], 12)
            assert vals == [factorial(m) for m in range(13)]
            assert vals == ref_unroll(rec, [1], 12)

    def test_no_zero_quotient_is_evaluated(self, monkeypatch):
        # me,ll,{5}: 63 of the 126 quotients of its counts recurrence are 0
        rec = rec_counts(ode_to_rec(pipeline("me,ll,{5}").ode))
        calls = {"all": 0, "empty": 0}
        inner = seqtools.zeval

        def counting(p, x):
            calls["all"] += 1
            calls["empty"] += not p
            return inner(p, x)

        monkeypatch.setattr(seqtools, "zeval", counting)
        vals = unroll(rec, [1], 2000)
        monkeypatch.undo()
        assert sum(1 for p in rec.coeffs[:-1] if p.is_zero()) == 63
        assert calls["empty"] == 0
        # about one per term and one leading value per instance: some 63k,
        # where evaluating every level makes about 130k
        assert 60_000 < calls["all"] < 66_000, calls
        assert vals == ref_unroll(rec, [1], 2000)


class TestPeelMatchesReference:
    def test_random_planted_levels(self):
        # lower coefficients sharing planted factors (n+l), l in 1..order,
        # so that any subset of the levels can peel
        rng = random.Random(1704)
        kinds = set()
        for _ in range(300):
            order = rng.randint(0, 6)
            coeffs = []
            for _ in range(order):
                p = rand_poly(rng, 2) or up(rng.choice((-1, 2)))
                for level in rng.sample(range(1, order + 1), rng.randint(0, order)):
                    p = p * up(level, 1)
                coeffs.append(up() if coeffs and rng.random() < 0.1 else p)
            coeffs.append(rand_poly(rng, 2) or up(1))
            rec = Recurrence(tuple(coeffs), "taylor")
            if rng.random() < 0.3:
                rec = rec_counts(rec)
            polys = [p.int_coeffs() for p in rec.coeffs]
            quots, peeled = _peel(polys)
            assert (quots, peeled) == ref_peel(polys), rec
            kinds.add((any(peeled), all(peeled[1:])))
        # none, some and all levels peel
        assert {(False, False), (True, False), (True, True)} <= kinds


class TestRootsMatchReference:
    @pytest.mark.parametrize(
        "p",
        [
            up(0, 0, 0, 1) * up(-3, 1) ** 2,  # a triple root at 0
            up(-2, 0, 1) * up(5, 1) * up(1, 0, 1),  # irrational, negative, complex only
            up(-(10**9 + 7), 1) * up(-1, 1) ** 2 * up(3, 1),
            up(7),
            up(0, 1),
        ],
    )
    def test_planted_cases(self, p):
        assert nonneg_integer_roots(p) == ref_roots(p)

    def test_random_planted_roots(self):
        rng = random.Random(1703)
        for _ in range(200):
            p = up(rng.choice((-3, -1, 1, 2)))
            for _ in range(rng.randint(0, 3)):
                p = p * up(-rng.randint(0, 30), 1) ** rng.randint(1, 3)
            for _ in range(rng.choice((0, 0, 1, 2))):
                p = p * rng.choice((up(-2, 0, 1), up(rng.randint(1, 9), 1), up(1, 1, 1), rand_poly(rng, 2) or up(1)))
            assert nonneg_integer_roots(p) == ref_roots(p), p

    def test_zero_polynomial(self):
        with pytest.raises(ValueError, match="zero polynomial"):
            nonneg_integer_roots(up())


# ---------------------------------------------------------------------------
# Reference: counts recurrences and the Taylor recurrence built in expanded
# form, as rec_counts and ode_to_rec built them on UniPolys.
# ---------------------------------------------------------------------------

def ref_normalize(polys):
    ints = [p.int_coeffs() for p in polys]
    g = 0
    for cs in ints:
        for c in cs:
            g = gcd(g, c)
    if g > 1:
        ints = [[c // g for c in cs] for cs in ints]
    for cs in reversed(ints):
        if cs:
            if cs[-1] < 0:
                ints = [[-c for c in cs2] for cs2 in ints]
            break
    return tuple(UniPoly(cs) for cs in ints)


def ref_rec_counts(rec):
    """The counts recurrence with every falling factor multiplied in: a
    recurrence given in expanded form, which unroll peels."""
    out = list(rec.coeffs)
    fall = up(1)
    for s in range(rec.order - 1, -1, -1):
        fall = fall * up(s + 1, 1)  # (n+order)...(n+s+1)
        out[s] = out[s] * fall
    return Recurrence(ref_normalize(out), "counts")


def ref_falling(shift, b):
    """(n+shift)(n+shift-1)...(n+shift-b+1) as a polynomial in n."""
    out = up(1)
    for i in range(b):
        out = out * up(shift - i, 1)
    return out


def ref_ode_to_rec(ode):
    by_shift = {}
    for b, q in enumerate(ode.coeffs):
        for a, qc in enumerate(q.coeffs):
            if qc:
                s = b - a
                term = ref_falling(s, b).scale(qc)
                by_shift[s] = by_shift[s] + term if s in by_shift else term
    by_shift = {s: p for s, p in by_shift.items() if not p.is_zero()}
    smin, smax = min(by_shift), max(by_shift)
    coeffs = [by_shift.get(s, up()).shift_arg(-smin) for s in range(smin, smax + 1)]
    return Recurrence(ref_normalize(coeffs), "taylor")


def rand_taylor_rec(rng):
    """A Taylor recurrence of order 0..9 whose leading coefficient vanishes
    at planted indices in 0..10 (or at none), with a common integer factor
    and sign, and lower coefficients that sometimes carry a factor (n+l)
    of their own."""
    order = rng.randint(0, 9)
    lead = up(rng.choice((-2, -1, 1, 3)))
    if rng.random() < 0.7:
        for r in rng.sample(range(1, 11), rng.randint(1, 3)) + [0] * (rng.random() < 0.8):
            lead = lead * up(order - r, 1)
    else:
        lead = lead * up(order, 1) * up(2 * order + 1, 2)
    coeffs = []
    for s in range(order):
        p = rand_poly(rng, 2)
        while p.is_zero() and not s:
            p = rand_poly(rng, 2)
        if rng.random() < 0.3:
            p = p * up(rng.randint(1, order), 1)
        coeffs.append(p)
    scale = up(rng.choice((1, 1, -1, 2, -6)))
    return Recurrence(tuple(p * scale for p in coeffs) + (lead * scale,), "taylor")


def pipeline_recs():
    """The Taylor recurrences of the CLI tests' models and of the enumerate
    benchmark's odd-degree model."""
    return [ode_to_rec(pipeline(ms).ode) for ms in ("se,ll,{2}", "se,ll,{3}", "se,ll,{4}", "me,ll,{5}")]


class TestFactoredCounts:
    """rec_counts keeps the falling factors implicit; unroll runs its Taylor
    coefficients with every level marked, where an expanded counts
    recurrence is peeled first."""

    def test_unroll_matches_expanded_form(self):
        rng = random.Random(1705)
        kinds = {}
        for _ in range(1500):
            rec = rand_taylor_rec(rng)
            init, n_max = rand_init(rng), rng.randint(0, 14)
            got = outcome(unroll, rec_counts(rec), init, n_max)
            assert got == outcome(unroll, ref_rec_counts(rec), init, n_max), (rec, init, n_max)
            kind = got[0].__name__ if isinstance(got[0], type) else "values"
            kinds[kind, len(init)] = kinds.get((kind, len(init)), 0) + 1
        # every outcome, and values from forced segments of each length
        for kind in ("values", "UnderdeterminedError", "InconsistentError", "SequenceError"):
            assert sum(v for (k, _), v in kinds.items() if k == kind) >= 5, kinds
        for length in (1, 2, 3):
            assert kinds.get(("values", length), 0) >= 5, kinds

    def test_expansion_is_byte_identical(self):
        rng = random.Random(1706)
        recs = [rand_taylor_rec(rng) for _ in range(300)] + pipeline_recs()
        for rec in recs:
            got, want = rec_counts(rec), ref_rec_counts(rec)
            assert got.order == want.order
            assert str(got) == str(want)
            assert rec_to_json(got) == rec_to_json(want)
            assert got.degree == want.degree
            assert got == want and hash(got) == hash(want)

    def test_pipeline_counts_match_expanded_form(self):
        for rec in pipeline_recs():
            assert unroll(rec_counts(rec), [1], 300) == unroll(ref_rec_counts(rec), [1], 300)

    def test_factored_form_is_never_peeled(self, monkeypatch):
        def refuse(polys):
            raise AssertionError("_peel reached")

        monkeypatch.setattr(seqtools, "_peel", refuse)
        for rec in pipeline_recs():
            unroll(rec_counts(rec), [1], 40)
        rng = random.Random(1707)
        for _ in range(100):
            outcome(unroll, rec_counts(rand_taylor_rec(rng)), rand_init(rng), rng.randint(0, 14))
        # a counts recurrence given in expanded form is still peeled
        with pytest.raises(AssertionError, match="_peel reached"):
            unroll(ref_rec_counts(pipeline_recs()[0]), [1], 4)


class TestOdeToRecMatchesReference:
    def test_pipeline_odes(self):
        for ms in ("se,ll,{2}", "se,ll,{3}", "se,ll,{4}", "me,ll,{5}", "me,la,{2}", "se,lh,{1,2}"):
            ode = pipeline(ms).ode
            got, want = ode_to_rec(ode), ref_ode_to_rec(ode)
            assert got == want and str(got) == str(want), ms

    def test_random_odes(self):
        rng = random.Random(1708)
        for _ in range(300):
            qs = [rand_poly(rng, 4) for _ in range(rng.randint(1, 5))]
            qs[-1] = qs[-1] or up(rng.choice((-3, 1, 2)))
            if rng.random() < 0.3:
                qs = [q * up(rng.choice((-4, 6))) for q in qs]
            ode = ODE(tuple(qs))
            got, want = ode_to_rec(ode), ref_ode_to_rec(ode)
            assert got == want and str(got) == str(want), ode
