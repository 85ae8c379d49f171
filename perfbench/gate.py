"""Correctness gate: every output the benchmark times is checked here, and
a wrong one raises GateError, which fails the run.

Checks use integer arithmetic only: counts are compared as integers and
fingerprinted by bit length and residue, never converted to decimal text
(the interpreter refuses int-to-str beyond 4300 digits, and r_2000 of a
degree-5 model is far longer).
"""

from __future__ import annotations

import json
import os
from math import factorial

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

COUNT_N = 10  # counts checked against the oracles: n = 0..COUNT_N
ENUM_N = 2000  # enumerate unrolls r_0..r_ENUM_N
CROSS_N = 200  # index of the Taylor-mode cross-check in enumerate
PRIME = (1 << 61) - 1  # residues of big counts are taken modulo this prime

# ODE orders of se,ll,{k} for k = 2..5, as tabulated in the paper
ORDER_TABLE = {"se,ll,{2}": 1, "se,ll,{3}": 2, "se,ll,{4}": 2, "se,ll,{5}": 6}

# The paper's displayed ODE for se,ll,{4}: q2 Dt^2 + q1 Dt + q0, with
# A5 = t^5 + 2t^4 + 2t^2 + 8t - 4; coefficients ascending in t.
_A5 = (-4, 8, 2, 0, 2, 1)
_Q1 = (384, -1664, 960, 1344, -800, 192, 1392, 880, 144, 40, 64, 0, -16, -4)


class GateError(Exception):
    """An output of the library is wrong."""


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def fingerprint(value):
    return [value.bit_length(), value % PRIME]


def paper_k4_ode():
    from regenum.exactnum import UniPoly
    from regenum.seqtools import ODE

    a5 = UniPoly(_A5)
    q2 = UniPoly((0, 0, 16)) * UniPoly((2, 1)) ** 2 * UniPoly((-1, 1)) ** 2 * a5
    q0 = UniPoly((0, 0, 0, 0, -1)) * a5 * a5
    return ODE.from_kernel([q0, UniPoly(_Q1), q2])


def check(ok, message):
    if not ok:
        raise GateError(message)


def check_ode(model_str, ode, reference):
    """Indicial check, order table, the paper's k=4 display and the counts
    r_0..r_10 recorded after both oracles agreed on them.  Returns the
    counts."""
    from regenum.seqtools import SequenceError, indicial_check, ode_to_rec, rec_counts, unroll

    try:
        indicial_check(ode)
        rec = rec_counts(ode_to_rec(ode))
        counts = unroll(rec, [1], COUNT_N)
    except (SequenceError, ValueError) as exc:
        raise GateError(f"{model_str}: {exc}") from exc
    if model_str in ORDER_TABLE:
        check(ode.order == ORDER_TABLE[model_str],
              f"{model_str}: ODE order {ode.order}, the paper has {ORDER_TABLE[model_str]}")
    if model_str == "se,ll,{4}":
        check(ode.scalar_multiple_of(paper_k4_ode()), "se,ll,{4}: not a multiple of the paper's ODE")
    check(counts == reference["models"][model_str]["counts"],
          f"{model_str}: counts r_0..r_{COUNT_N} differ from the oracle values")
    return counts


def check_paper(reference):
    """Derive se,ll,{k} for k = 2..5: the paper's order table, its k=4
    display, and the recorded counts."""
    from regenum import parse_model, run_pipeline

    for model_str in ORDER_TABLE:
        check_ode(model_str, run_pipeline(parse_model(model_str)).ode, reference)


def oracle_counts(model):
    """Both oracles' counts r_0..r_10; GateError if they disagree."""
    from regenum.oracle import graph_count_dp, scalar_series

    try:
        series = scalar_series(model, COUNT_N).counts()
        dp = [graph_count_dp(model, n) for n in range(COUNT_N + 1)]
    except ValueError as exc:
        raise GateError(f"{model}: {exc}") from exc
    check(series == dp, f"{model}: scalar_series and graph_count_dp disagree")
    return series


def check_taylor_cross(model_str, ode, r_cross):
    """r_CROSS_N must equal n! c_n from the Taylor-mode unroll."""
    from regenum.seqtools import SequenceError, ode_to_rec, unroll

    try:
        taylor = unroll(ode_to_rec(ode), [1], CROSS_N)[CROSS_N]
    except (SequenceError, ValueError) as exc:
        raise GateError(f"{model_str}: {exc}") from exc
    check(taylor * factorial(CROSS_N) == r_cross,
          f"{model_str}: r_{CROSS_N} differs from {CROSS_N}! c_{CROSS_N}")


def check_fingerprint(model_str, r_last, reference):
    """r_ENUM_N must match the fingerprint recorded for the model."""
    want = reference["models"][model_str].get("r2000")
    check(want is not None, f"{model_str}: no recorded fingerprint of r_{ENUM_N}")
    check(fingerprint(r_last) == want, f"{model_str}: fingerprint of r_{ENUM_N} differs")
