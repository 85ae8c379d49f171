"""Self-tests of the benchmark harness: python3 -m pytest perfbench -q"""

from __future__ import annotations

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_time_from_nested_spans():
    spans = [
        (1, "b", 1.0, 4.0, 0),
        (3, "c", 2.0, 3.0, 1),
        (2, "b", 5.0, 6.0, 0),
        (0, "a", 0.0, 10.0, -1),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({"a": 6.0, "b": 3.0, "c": 1.0})
    # self times partition the root's interval
    assert sum(selfs.values()) == pytest.approx(10.0)
    calls, total = tracing.span_stats(spans)
    assert calls == {"a": 1, "b": 2, "c": 1}
    assert total["b"] == pytest.approx(4.0)


def test_tracer_records_parents_and_restores_bindings():
    import regenum.exactnum as exactnum
    import regenum.telescope as telescope

    orig = exactnum.zgcd
    tr = tracing.Tracer()
    tr.install()
    try:
        assert exactnum.zgcd is not orig and telescope.zgcd is exactnum.zgcd
        with tr.span("outer"):
            telescope.zgcd([2, 2], [4, 4])
            exactnum.zmul([1, 1], [1, 1])
    finally:
        tr.uninstall()
    assert exactnum.zgcd is orig and telescope.zgcd is orig
    by_name = {s[1]: s for s in tr.spans}
    assert by_name["exactnum.zgcd"][4] == by_name["outer"][0]
    assert by_name["outer"][4] == -1
    assert tr.counts["exactnum.zmul"] >= 1
    before = len(tr.spans)
    exactnum.zgcd([1], [1])
    assert len(tr.spans) == before


def test_median_and_tail_with_sample_count():
    summary = stats.latency_summary([float(x) for x in range(1, 101)])
    assert summary["n"] == 100
    assert summary["p50"] == 50.5
    # p95 leaves 5 samples above it, p90 leaves 10
    assert summary["tail"] == (90.0, 90.0)
    big = stats.latency_summary([float(x) for x in range(1, 1001)])
    assert big["tail"] == (99.0, 990.0)
    assert stats.tail([1.0] * 10) is None


def test_failed_share():
    assert stats.failed_share(10, 0) == 0.0
    assert stats.failed_share(4, 1) == 0.25
    with pytest.raises(ValueError):
        stats.failed_share(0, 0)
    with pytest.raises(ValueError):
        stats.failed_share(2, 3)


class _FlakyWorkload:
    models = ["ok-1", "bad", "ok-2"]

    def __init__(self):
        self.verified = []

    def op(self, i):
        if self.models[i] == "bad":
            raise RuntimeError("boom")
        return i

    def verify(self, i, out):
        self.verified.append((i, out))


def test_failed_operations_are_counted_not_verified():
    wl = _FlakyWorkload()
    tally = {"attempted": 0, "failed": 0, "errors": []}
    rec = run.run_pass(wl, tally)
    assert tally["attempted"] == 3 and tally["failed"] == 1
    assert [i for i, _dt in rec["latencies"]] == [0, 2]
    assert wl.verified == [(0, 0), (2, 2)]
    assert stats.failed_share(tally["attempted"], tally["failed"]) == pytest.approx(1 / 3)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeded_draw_is_repeatable(workload):
    for seed in (1, 2, 7919):
        assert workloads.draw(workload, seed) == workloads.draw(workload, seed)
    assert workloads.draw(workload, 1) != workloads.draw(workload, 2)


def test_draw_shapes():
    k5 = workloads.draw("derive-k5", 3)
    assert len(k5) == 6 and all(any(m in b for m in k5) for b in workloads.K5_BINS)
    enum = workloads.draw("enumerate", 3)
    assert len(enum) == 2 and set(enum) <= workloads.enumerate_population()
    assert enum[0].endswith("{5}") and enum[1].endswith("{4}")


def test_strata_cover_their_universes():
    bins = workloads.K5_BINS
    assert [len(b) for b in bins] == [16] * 6
    assert sorted(m for b in bins for m in b) == sorted(workloads.k5_models())
    # the cheapest bin is exactly the parity-homogeneous class
    cheap = {workloads.model_string(e, l, d) for e, l in workloads.RULES
             for d in workloads.degree_sets(5) if l != "lh" and all(x % 2 for x in d)}
    assert set(bins[0]) == cheap
    enum = workloads.enumerate_population()
    assert {m for m in enum if m.endswith("{5}")} <= cheap


def test_gate_rejects_a_wrong_ode():
    import gate
    from regenum import parse_model, run_pipeline

    reference = gate.load_reference()
    gate.check_paper(reference)
    k3 = run_pipeline(parse_model("se,ll,{3}")).ode
    with pytest.raises(gate.GateError):
        gate.check_ode("se,ll,{4}", k3, reference)
    # same order as the paper's k=4 ODE, different operator
    with pytest.raises(gate.GateError):
        gate.check_ode("se,ll,{4}", run_pipeline(parse_model("se,la,{4}")).ode, reference)


class _Derivation:
    """Stands in for run_pipeline's result: two steps, stage timings."""

    ghat = [None, None]
    timings = {"generators": 1.0, "groebner": 5.0, "reduction": 4.0, "kernel": 2.0}


def _stage_spans(red_seconds):
    return [
        (0, "models.build_generators", 0.0, 0.9, -1),
        (1, "modgb.buchberger", 1.0, 5.0, -1),
        (2, "telescope.reduction_basis", 5.0, 5.5, -1),
        (3, "telescope.red", 6.0, 6.0 + red_seconds, -1),
        (4, "telescope.kernel", 10.0, 10.5, -1),
        (5, "telescope.kernel", 10.5, 11.0, -1),
    ]


def test_stage_check_counts_calls_and_allows_a_faster_layer():
    # red covering a sliver of its stage is a faster red, not an error
    run.check_stage_spans("m", _Derivation(), _stage_spans(0.01))
    missing = [s for s in _stage_spans(1.0) if s[0] != 5]
    with pytest.raises(run.HarnessError):
        run.check_stage_spans("m", _Derivation(), missing)
    with pytest.raises(run.HarnessError):
        run.check_stage_spans("m", _Derivation(), _stage_spans(4.5))
