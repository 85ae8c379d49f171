from fractions import Fraction
from math import factorial

import pytest

from regenum.oracle import graph_count_dp
from regenum.seqtools import (
    IndicialError,
    InconsistentError,
    ODE,
    Recurrence,
    SequenceError,
    UnderdeterminedError,
    indicial_check,
    nonneg_integer_roots,
    ode_from_json,
    ode_to_json,
    ode_to_rec,
    rec_counts,
    rec_from_json,
    rec_to_json,
    unroll,
)
from regenum.seqtools import _falling, _peel
from regenum.exactnum import zeval

from conftest import pipeline, up


def assert_satisfies(rec, vals):
    """Every instance n >= -order whose terms lie in vals holds, with
    c_n = 0 for n < 0, by direct evaluation."""
    for n in range(-rec.order, len(vals) - rec.order):
        total = sum(zeval(b.int_coeffs(), n) * vals[n + s] for s, b in enumerate(rec.coeffs) if n + s >= 0)
        assert total == 0, n


class TestOdeToRec:
    def test_exponential(self):
        # d/dt - 1 annihilates e^t: (n+1) c_{n+1} - c_n = 0
        rec = ode_to_rec(ODE((up(-1), up(1))))
        assert rec.coeffs == (up(-1), up(1, 1))
        assert rec.mode == "taylor"

    def test_t_dt_minus_one(self):
        # t d/dt - 1 annihilates c*t: (n-1) c_n = 0
        rec = ode_to_rec(ODE((up(-1), up(0, 1))))
        assert rec.order == 0
        assert rec.coeffs == (up(-1, 1),)

    def test_k4_matches_oracle_through_12(self):
        res = pipeline("se,ll,{4}")
        rec = rec_counts(ode_to_rec(res.ode))
        vals = unroll(rec, [1], 12)
        m = res.model
        for n in range(9):
            assert vals[n] == graph_count_dp(m, n)
        # beyond the DP bound, keep the exact tail deterministic
        assert vals[10] == 66462606
        assert vals[12] == 480413921130

    def test_trailing_and_leading_nonzero(self):
        for ms in ("se,ll,{2}", "se,ll,{3}", "se,ll,{4}"):
            rec = ode_to_rec(pipeline(ms).ode)
            assert not rec.coeffs[0].is_zero()
            assert not rec.coeffs[-1].is_zero()


class TestRecCounts:
    def test_exponential(self):
        rec = rec_counts(ode_to_rec(ODE((up(-1), up(1)))))
        # (n+1) r_{n+1} - (n+1) r_n = 0: the factorial clearing keeps the
        # common (n+1); cancelling it would wrongly constrain the n = -1
        # instance
        assert rec.coeffs == (up(-1, -1), up(1, 1))
        assert unroll(rec, [1], 6) == [1] * 7

    def test_two_regular(self):
        rec = rec_counts(ode_to_rec(pipeline("se,ll,{2}").ode))
        assert unroll(rec, [1], 6) == [1, 0, 0, 1, 3, 12, 70]

    def test_three_regular(self):
        rec = rec_counts(ode_to_rec(pipeline("se,ll,{3}").ode))
        vals = unroll(rec, [1], 8)
        assert vals[4] == 1 and vals[1] == vals[2] == vals[3] == 0
        assert vals[6] == 70 and vals[8] == 19355

    def test_odd_degree_parity_vanishes(self):
        # handshake parity: odd k and odd n force r_n = 0
        for ms in ("se,ll,{3}", "se,ll,{5}"):
            rec = rec_counts(ode_to_rec(pipeline(ms).ode))
            vals = unroll(rec, [1], 15)
            for n in range(1, 16, 2):
                assert vals[n] == 0

    def test_falling_factor_definition(self):
        for ms in ("se,ll,{4}", "me,la,{2}"):
            taylor = ode_to_rec(pipeline(ms).ode)
            order = taylor.order
            counts = rec_counts(taylor)
            assert counts.coeffs == tuple(
                p * _falling(order, order - s) for s, p in enumerate(taylor.coeffs)
            ), ms

    def test_mode_guard(self):
        rec = rec_counts(ode_to_rec(ODE((up(-1), up(1)))))
        with pytest.raises(ValueError):
            rec_counts(rec)


class TestUnroll:
    def test_exponential_taylor(self):
        rec = ode_to_rec(ODE((up(-1), up(1))))
        vals = unroll(rec, [1], 5)
        assert vals == [1, 1, Fraction(1, 2), Fraction(1, 6), Fraction(1, 24), Fraction(1, 120)]

    def test_empty_range(self):
        rec = ode_to_rec(ODE((up(-1), up(1))))
        assert unroll(rec, [1], 0) == [1]

    def test_inconsistent_forced_value(self):
        # t d/dt - 1 has exponent 1, not 0: forcing c_0 = 1 must fail
        rec = ode_to_rec(ODE((up(-1), up(0, 1))))
        with pytest.raises(SequenceError):
            unroll(rec, [1], 4)

    def test_blocked_symbol_pinned_by_later_instance(self):
        # n(n+1)(n-2) c_{n+1} = n c_n: 0 is an exponent (lead vanishes at
        # n=-1); c_1 is blocked at n=0, and the degenerate instance at n=2,
        # beyond the requested range, pins the symbol to 0
        rec = Recurrence((up(0, -1), up(0, -2, -1, 1)), "taylor")
        assert unroll(rec, [1], 2) == [1, 0, 0]

    def test_blocked_symbol_beyond_range_stays_free(self):
        # same recurrence: index 3 is itself an exponent, so asking for it
        # is genuinely underdetermined
        rec = Recurrence((up(0, -1), up(0, -2, -1, 1)), "taylor")
        with pytest.raises(UnderdeterminedError) as exc:
            unroll(rec, [1], 5)
        assert exc.value.index == 3

    def test_blocked_symbol_underdetermined(self):
        # n(n+1) c_{n+1} = n c_n: c_1 blocked at n=0, never pinned
        rec = Recurrence((up(0, -1), up(0, 1, 1)), "taylor")
        with pytest.raises(UnderdeterminedError) as exc:
            unroll(rec, [1], 5)
        assert exc.value.index == 1

    def test_counts_equal_factorial_times_taylor(self):
        for ms in ("se,ll,{4}", "me,la,{2}", "se,lh,{1,2}"):
            rec = ode_to_rec(pipeline(ms).ode)
            counts = unroll(rec_counts(rec), [1], 60)
            taylor = unroll(rec, [1], 60)
            assert all(type(r) is int for r in counts)
            assert counts == [factorial(n) * c for n, c in enumerate(taylor)], ms

    def test_counts_integrality_guard(self):
        # 2(n+1) c_{n+1} = c_n admits c_0 = 1 but forces halves
        rec = Recurrence((up(-1), up(2, 2)), "counts")
        with pytest.raises(SequenceError):
            unroll(rec, [1], 3)


class TestPeel:
    def test_inverts_rec_counts(self):
        for ms in ("se,ll,{4}", "se,ll,{5}"):
            taylor = ode_to_rec(pipeline(ms).ode)
            quots, peeled = _peel([p.int_coeffs() for p in rec_counts(taylor).coeffs])
            assert peeled == [False] + [True] * taylor.order, ms
            assert quots == [p.int_coeffs() for p in taylor.coeffs], ms

    @pytest.mark.parametrize(
        "coeffs, peeled, head",
        [
            # (n+2) r_{n+2} = (3n+5) r_{n+1} + (4n+2) r_n: no level divides;
            # the central binomial coefficients
            ((up(-2, -4), up(-5, -3), up(2, 1)), [False, False, False], [1, 2, 6, 20, 70]),
            # only the top level (n+2) divides
            ((up(-6, -5, -1), up(-2, -3, -1), up(2, 1)), [False, False, True], [1, 0, 3, 6, 33]),
            # only (n+1) divides b_0; the central trinomial coefficients
            ((up(-3, -3), up(-3, -2), up(2, 1)), [False, True, False], [1, 1, 3, 7, 19]),
        ],
    )
    def test_partly_peeled_counts(self, coeffs, peeled, head):
        rec = Recurrence(coeffs, "counts")
        assert _peel([p.int_coeffs() for p in coeffs])[1] == peeled
        vals = unroll(rec, [1], 80)
        assert vals[:5] == head
        assert_satisfies(rec, vals)

    def test_rec_counts_output_satisfies_recurrence(self):
        rec = rec_counts(ode_to_rec(pipeline("se,ll,{4}").ode))
        vals = unroll(rec, [1], 300)
        assert vals[300] > 0
        assert_satisfies(rec, vals)

    def test_errors_on_peeled_recurrences(self):
        # 2(n+1) c_{n+1} = c_n clears to -(n+1) r_n + 2(n+1) r_{n+1}: the
        # level peels and r_1 = 1/2 is still refused
        halves = rec_counts(Recurrence((up(-1), up(2, 2)), "taylor"))
        assert _peel([p.int_coeffs() for p in halves.coeffs])[1] == [False, True]
        with pytest.raises(SequenceError, match="non-integer count at n=1"):
            unroll(halves, [1], 3)
        exp = rec_counts(ode_to_rec(ODE((up(-1), up(1)))))
        assert _peel([p.int_coeffs() for p in exp.coeffs])[1] == [False, True]
        with pytest.raises(InconsistentError):
            unroll(exp, [1, 5], 3)


class TestIndicial:
    def test_integer_roots_basic(self):
        p = up(0, -6, 11, -6, 1) * up(-7, 1)  # n(n-1)(n-2)(n-3)(n-7)
        assert nonneg_integer_roots(p) == [0, 1, 2, 3, 7]

    def test_integer_roots_none(self):
        assert nonneg_integer_roots(up(1, 1, 1)) == []

    def test_irrational_and_negative_ignored(self):
        # (n^2 - 2)(n + 5): no non-negative integer roots
        assert nonneg_integer_roots(up(-10, -2, 5, 1)) == []

    def test_big_root(self):
        p = up(-1000000007, 1) * up(1, 3)
        assert nonneg_integer_roots(p) == [1000000007]

    def test_multiple_roots(self):
        p = up(-2, 1) ** 3 * up(1, 1)
        assert nonneg_integer_roots(p) == [2]

    def test_indicial_check_pipeline_odes(self):
        for ms in ("se,ll,{2}", "se,ll,{3}", "se,ll,{4}", "me,la,{2}", "se,lh,{1,2}"):
            indicial_check(pipeline(ms).ode)

    def test_indicial_rejects_shifted_exponent(self):
        with pytest.raises(IndicialError):
            indicial_check(ODE((up(-1), up(0, 1))))  # exponent 1 only


class TestEmission:
    def test_ode_text_example(self):
        assert str(ODE((up(0, -1), up(1)))) == "-t + Dt"

    def test_ode_text_unit_and_parens(self):
        assert str(ODE((up(2), up(-1, 1), up(1)))) == "2 + (t - 1)*Dt + Dt^2"

    def test_json_round_trip_ode(self):
        for ms in ("se,ll,{3}", "se,ll,{4}"):
            ode = pipeline(ms).ode
            assert ode_from_json(ode_to_json(ode)) == ode

    def test_json_round_trip_rec(self):
        rec = rec_counts(ode_to_rec(pipeline("se,ll,{3}").ode))
        assert rec_from_json(rec_to_json(rec)) == rec

    def test_content_free_families(self):
        from math import gcd

        for ms in ("se,ll,{3}", "se,ll,{4}"):
            ode = pipeline(ms).ode
            g = 0
            for q in ode.coeffs:
                for c in q.int_coeffs():
                    g = gcd(g, c)
            assert g == 1
