"""The Kronecker helpers and the kernel's Bareiss step against a test-local
copy of the schoolbook accumulator it replaced: same return value at the
same row, and the same stored pivot rows after every row."""

import math
import random

import pytest

from regenum.exactnum import (
    RF_ZERO,
    RatFunc,
    UniPoly,
    zcontent,
    zdivexact,
    zeval,
    zgcd,
    zgcd_split,
    zkron,
    zmul,
    zneg,
    zscale,
    zsub,
    zunkron,
)
from regenum.telescope import KernelAccumulator

from conftest import pipeline

MODELS = ["se,ll,{4}", "se,ll,{5}", "me,la,{2}", "se,lh,{1,2}"]


class SchoolbookAccumulator:
    """Reference: each step forms rc*plead - pc*m by two schoolbook
    products and a subtraction."""

    def __init__(self, width):
        self.width = width
        self.rows = []
        self.count = 0

    def add_row(self, coords):
        idx = self.count
        self.count += 1
        den = [1]
        for c in coords:
            if not c.is_zero():
                extra = zscale(list(c.dp), c.cd)
                _, _, extra = zgcd_split(den, extra)
                den = zmul(den, extra)
        row = []
        for c in coords:
            if c.is_zero():
                row.append([])
            else:
                q = zdivexact(den, zscale(list(c.dp), c.cd))
                row.append(zscale(zmul(list(c.np), q), c.cn))
        cofs = {idx: den}
        g = zcontent(den)
        for cs in row:
            g = math.gcd(g, zcontent(cs))
            if g == 1:
                break
        if g > 1:
            row = [[x // g for x in cs] for cs in row]
            cofs = {idx: [x // g for x in den]}
        prev = [1]
        for pcol, pcoords, pcofs, plead in self.rows:
            m = row[pcol]

            def step(rc, pc):
                v = zsub(zmul(rc, plead), zmul(pc, m)) if m else zmul(rc, plead)
                return zdivexact(v, prev) if prev != [1] else v

            row = [step(rc, pc) for rc, pc in zip(row, pcoords)]
            ncofs = {}
            for key in set(cofs) | set(pcofs):
                v = step(cofs.get(key, []), pcofs.get(key, []))
                if v:
                    ncofs[key] = v
            cofs = ncofs
            prev = plead
        for col in range(self.width):
            if row[col]:
                self.rows.append((col, row, cofs, row[col]))
                return None
        g = []
        for cs in cofs.values():
            g = zgcd(g, cs) if g else list(cs)
            if g == [1]:
                break
        out = [cofs.get(i, []) for i in range(idx + 1)]
        if g and g != [1]:
            out = [zdivexact(cs, g) if cs else [] for cs in out]
        for cs in out:
            if cs:
                if cs[-1] < 0:
                    out = [zneg(c) for c in out]
                break
        return [UniPoly(cs) for cs in out]


def assert_same_run(rows):
    """Feed rows to both accumulators until one finds the dependency;
    returns the row index at which it did (None if independent)."""
    acc, ref = KernelAccumulator(len(rows[0])), SchoolbookAccumulator(len(rows[0]))
    for i, coords in enumerate(rows):
        got, want = acc.add_row(coords), ref.add_row(coords)
        assert got == want, i
        assert acc.rows == ref.rows, i
        if want is not None:
            return i
    return None


def rf_poly(cs):
    return RatFunc.of(UniPoly(cs))


def even_poly(rng, v, n, bits):
    """t^v * A(t^2) with n random coefficients of A below 2^bits."""
    cs = [0] * v
    for _ in range(n):
        cs += [rng.randint(-2**bits, 2**bits) or 1, 0]
    return cs[:-1]


class TestKronecker:
    @pytest.mark.parametrize("nb", [1, 2, 3, 8, 17])
    def test_round_trip(self, nb):
        rng = random.Random(nb)
        top = 2 ** (8 * nb - 1) - 1
        cases = [[-1], [top], [-top], [0, 0, -top], [top, 0, 0, -top], [-top, -top, -top], [1, 0, -1, 0, -top]]
        for _ in range(200):
            a = [rng.choice([0, top, -top, rng.randint(-top, top)]) for _ in range(rng.randint(1, 20))]
            a[-1] = a[-1] or -top
            cases.append(a)
        for a in cases:
            x = zkron(a, nb)
            assert x == zeval(a, 2 ** (8 * nb))
            assert zunkron(x, nb, len(a)) == a
            assert zunkron(x, nb, len(a) + 3) == a

    def test_zero_and_cancelled_digits(self):
        assert zunkron(0, 2, 4) == []
        a, b = [5, -7, 3], [5, -7, 4]
        assert zunkron(zkron(a, 2) - zkron(b, 2), 2, 3) == [0, 0, -1]


class TestBareissStep:
    @pytest.mark.parametrize("ms", MODELS)
    def test_pipeline_rows(self, ms):
        res = pipeline(ms)
        rows = [[gh.coeff(e) for e in res.basis.stairs] for gh in res.ghat]
        assert assert_same_run(rows) == len(rows) - 1

    def test_general_denominators_big_coefficients(self):
        rng = random.Random(71)
        t1, t2, t3 = UniPoly((-1, 1)), UniPoly((3, 2)), UniPoly((1, 1, 1))
        dens = [t1, t2, t3, t1 * t2, t2 * t3, t1 * t1 * t3]
        for width in (2, 3, 4):
            rows = []
            for _ in range(width + 1):
                row = []
                for _ in range(width):
                    bits = rng.randint(100, 300)
                    num = UniPoly([rng.randint(-2**bits, 2**bits) for _ in range(rng.randint(1, 5))])
                    row.append(RatFunc.of(num, rng.choice(dens)))
                rows.append(row)
            assert assert_same_run(rows) == width

    def test_polynomials_in_t_squared(self):
        rng = random.Random(73)
        for v0, v1 in [(0, 0), (1, 1), (0, 2), (1, 0), (2, 3)]:
            for _ in range(4):
                width = 3
                rows = [[rf_poly(even_poly(rng, rng.choice((v0, v1)), rng.randint(1, 6), 80))
                         for _ in range(width)] for _ in range(width + 1)]
                assert assert_same_run(rows) == width

    def test_products_with_shifts_of_either_parity(self):
        # step on column 1 of row 2: rc*plead - pc*m with plead = t*A(t^2),
        # m = t^2*C(t^2), rc = B(t^2); pc = t*D(t^2) gives shifts 1 and 3
        # (deflated, inflated at offset 1), pc = D(t^2) shifts 1 and 2
        rng = random.Random(79)
        for pv in (1, 0):
            for _ in range(5):
                plead, m = even_poly(rng, 1, 5, 90), even_poly(rng, 2, 4, 90)
                pc, rc = even_poly(rng, pv, 6, 90), even_poly(rng, 0, 3, 90)
                rows = [[rf_poly(plead), rf_poly(pc), rf_poly(even_poly(rng, 1, 2, 50))],
                        [rf_poly(m), rf_poly(rc), rf_poly(even_poly(rng, 0, 3, 50))],
                        [rf_poly(even_poly(rng, 0, 2, 40)) for _ in range(3)],
                        [rf_poly(even_poly(rng, 1, 2, 40)) for _ in range(3)]]
                assert assert_same_run(rows) == 3

    def test_width_bound_is_tight(self):
        # rc*plead - pc*m = 2*K^2*(1 + t + ... + t^6)^2 with K = 2^62 - 1: the
        # middle coefficient 14*K^2 needs every bit of the width
        # 62 + 62 + bitlen(7) + 1 (difference) + 1 (sign) = 129
        k = 2**62 - 1
        ones = [k] * 7
        rows = [[rf_poly(ones), rf_poly([-k] * 7), RatFunc.from_rat(1)],
                [rf_poly(ones), rf_poly(ones), RatFunc.from_rat(1)],
                [RatFunc.from_rat(1), rf_poly([1, 2]), rf_poly([0, 3])],
                [rf_poly([2, 1]), RatFunc.from_rat(5), rf_poly([7, 0, 1])]]
        assert assert_same_run(rows) == 3

    def test_width_one(self):
        rows = [[rf_poly([3, 0, 1])], [RatFunc.of(UniPoly((1, 2)), UniPoly((-1, 1)))]]
        assert assert_same_run(rows) == 1

    def test_zero_first_row(self):
        assert assert_same_run([[RF_ZERO, RF_ZERO]]) == 0
        acc = KernelAccumulator(2)
        assert acc.add_row([RF_ZERO, RF_ZERO]) == [UniPoly((1,))]

    def test_early_dependency(self):
        # row 2 = t*row 0 - 3*row 1 in a width-4 space
        rng = random.Random(83)
        r0 = [rf_poly([rng.randint(-2**60, 2**60) for _ in range(3)]) for _ in range(4)]
        r1 = [RatFunc.of(UniPoly((rng.randint(1, 99), 1)), UniPoly((2, 1))) for _ in range(4)]
        t = rf_poly([0, 1])
        r2 = [t * a - b.scale_rat(3) for a, b in zip(r0, r1)]
        assert assert_same_run([r0, r1, r2, r0]) == 2
