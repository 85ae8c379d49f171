"""Benchmark of the regenum library, one workload per process.

    python3 perfbench/run.py --workload derive-k5 --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout: the library is imported from
``src/`` beside this directory, through its public names only.  One
caller drives a closed loop (the next operation starts when the previous
one returns), in one process with no threads.  The timed phase repeats
full passes over the workload's model list until ``--seconds`` have
passed, and every output is checked by the gate; a wrong output or a
failed operation makes the run exit 1.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from spans around the library's layers (see tracing.py), with
traced and untraced passes alternating.  Metric names and units are the
ones BENCHMARK.json declares.  Human-readable lines go to standard output
first; the last line is one JSON object.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
BENCHMARK_PATH = os.path.join(ROOT, "BENCHMARK.json")

sys.path.insert(0, HERE)

import gate  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 3  # preparations before the timed phase; it adds one between passes
ORACLE_SAMPLE = 1  # models per derive run also checked against both live oracles
IMPORT_REPS = 9
SUBPROCESS_TIMEOUT_S = 60
# trace.overhead_share: untraced and traced derivations of one small,
# span-heavy model alternate this many times each
OVERHEAD_MODEL = "se,ll,{4}"
OVERHEAD_ROUNDS = 25

IMPORT_SNIPPET = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import regenum; print(time.perf_counter() - t)"
)

# run_pipeline stage -> spans whose total duration it contains.  The stages
# also time glue the spans miss (eta_embed and extract_reducers in
# groebner, forming g * ghat + ghat' before each reduction), so spans may
# cover any share of a stage but never more than all of it.
STAGE_SPANS = {
    "generators": ("models.build_generators",),
    "groebner": ("modgb.buchberger", "telescope.reduction_basis"),
    "reduction": ("telescope.red",),
    "kernel": ("telescope.kernel",),
}

# per-layer metric -> (layer group, how it is read off a phase's spans)
LAYER_METRICS = (
    ("models.build_generators_s", "derive", "self", ("models.build_generators",)),
    ("modgb.buchberger_s", "derive", "self", ("modgb.buchberger",)),
    ("modgb.gb_size", "derive", "count", ("modgb.buchberger_size",)),
    ("modgb.mul_term_calls", "derive", "count", ("modgb.mul_term",)),
    ("telescope.reduction_basis_s", "derive", "self", ("telescope.reduction_basis",)),
    ("telescope.stairs_dim", "derive", "count", ("telescope.reduction_basis_size",)),
    ("telescope.red_s", "derive", "self", ("telescope.red",)),
    ("telescope.red_calls", "derive", "calls", ("telescope.red",)),
    ("weyl.apply_op_calls", "derive", "count", ("weyl.apply_op",)),
    ("telescope.kernel_s", "derive", "self", ("telescope.kernel",)),
    ("telescope.kernel_rows", "derive", "calls", ("telescope.kernel",)),
    ("exactnum.zgcd_s", "exactnum", "self", ("exactnum.zgcd",)),
    ("exactnum.zgcd_calls", "exactnum", "calls", ("exactnum.zgcd",)),
    ("exactnum.zmul_calls", "exactnum", "count", ("exactnum.zmul",)),
    ("seqtools.to_rec_s", "seq", "self", ("seqtools.ode_to_rec", "seqtools.rec_counts")),
    ("seqtools.unroll_s", "seq", "self", ("seqtools.unroll",)),
    ("oracle.scalar_series_s", "seq", "self", ("oracle.scalar_series",)),
    ("oracle.graph_count_dp_s", "seq", "self", ("oracle.graph_count_dp",)),
)

# Which phase of a run measures each layer group: the timed passes where
# they call the layer, otherwise the one untimed phase that does.
LAYER_PHASE = {
    "derive-k5": {"derive": "pass", "exactnum": "pass", "seq": "gate"},
    "enumerate": {"derive": "setup", "exactnum": "setup", "seq": "pass"},
}


class MissingLibrary(Exception):
    pass


class HarnessError(Exception):
    """The benchmark itself is at fault (a wrapper missed a call, a metric
    is not the one declared), not the library's output."""


def parse_args(argv):
    p = argparse.ArgumentParser(description="regenum benchmark")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_library():
    """Import regenum from this checkout's src/, never from elsewhere."""
    if not os.path.isdir(os.path.join(SRC, "regenum")):
        raise MissingLibrary(f"no library sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import regenum

    if not os.path.abspath(regenum.__file__).startswith(SRC + os.sep):
        raise MissingLibrary(f"regenum imported from {regenum.__file__}, not from {SRC}")


def import_seconds():
    """Time of `import regenum` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", IMPORT_SNIPPET, SRC],
        capture_output=True, text=True, check=True, timeout=SUBPROCESS_TIMEOUT_S,
    )
    return float(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Workloads: preparation (untimed), one operation (timed), verification.
# ---------------------------------------------------------------------------

class DeriveWorkload:
    """One operation derives one model's ODE with run_pipeline."""

    def __init__(self, models, reference):
        self.models = models
        self.reference = reference
        self.odes = {}
        self.last_terms = {}
        # fewest degrees first (seeded order among equals): the cheapest
        # models to run both oracles on
        self.oracle_models = sorted(models, key=lambda m: m.count(","))[:ORACLE_SAMPLE]

    def prepare(self):
        from regenum import parse_model

        self.specs = [parse_model(m) for m in self.models]

    def op(self, i):
        from regenum import run_pipeline

        return run_pipeline(self.specs[i])

    def verify(self, i, res):
        """After each pass: every pass gives the first pass's ODE."""
        name = self.models[i]
        gate.check(res.ode == self.odes.setdefault(name, res.ode), f"{name}: ODE differs between passes")

    def check_all(self):
        """The full gate on the ODEs, after the timed phase."""
        from regenum import parse_model

        for name in self.models:
            counts = gate.check_ode(name, self.odes[name], self.reference)
            if name in self.oracle_models:
                gate.check(gate.oracle_counts(parse_model(name)) == counts,
                           f"{name}: counts differ from the live oracles")
            self.last_terms[name] = counts[gate.COUNT_N]

    def outputs(self):
        return [self.odes[m] for m in self.models]


class EnumerateWorkload:
    """Set-up derives each model's ODE; one operation has the shape of
    `solve MODEL --emit terms --terms 2000 --check`."""

    def __init__(self, models, reference):
        self.models = models
        self.reference = reference
        self.firsts = {}
        self.last_terms = {}

    def prepare(self):
        from regenum import parse_model, run_pipeline

        self.specs = [parse_model(m) for m in self.models]
        self.results = [run_pipeline(s) for s in self.specs]

    def op(self, i):
        """Returns (number of counts, r_0..r_10, r_200, r_2000, whether both
        oracles agree with r_0..r_10)."""
        from regenum import ode_to_rec, rec_counts, unroll

        rec = rec_counts(ode_to_rec(self.results[i].ode))
        counts = unroll(rec, [1], gate.ENUM_N)
        head = counts[: gate.COUNT_N + 1]
        return len(counts), head, counts[gate.CROSS_N], counts[-1], gate.oracle_counts(self.specs[i]) == head

    def verify(self, i, out):
        """After each pass: the oracles agreed, and every pass gives the
        first pass's counts."""
        name = self.models[i]
        n_terms, _head, _r_cross, _r_last, oracles_agree = out
        gate.check(oracles_agree, f"{name}: unrolled counts disagree with the oracles for n <= {gate.COUNT_N}")
        gate.check(n_terms == gate.ENUM_N + 1, f"{name}: {n_terms} counts, want {gate.ENUM_N + 1}")
        gate.check(out == self.firsts.setdefault(name, out), f"{name}: counts differ between passes")

    def check_all(self):
        """The full gate on the ODEs and counts, after the timed phase."""
        for i, name in enumerate(self.models):
            ode = self.results[i].ode
            _n, head, r_cross, r_last, _agree = self.firsts[name]
            counts = gate.check_ode(name, ode, self.reference)
            gate.check(head == counts, f"{name}: r_0..r_{gate.COUNT_N} differ between unrolls")
            gate.check_taylor_cross(name, ode, r_cross)
            gate.check_fingerprint(name, r_last, self.reference)
            self.last_terms[name] = r_last

    def outputs(self):
        return [r.ode for r in self.results]


def make_workload(name, seed, reference):
    models = workloads.draw(name, seed)
    cls = EnumerateWorkload if name == "enumerate" else DeriveWorkload
    return cls(models, reference)


# ---------------------------------------------------------------------------
# Phases.
# ---------------------------------------------------------------------------

def run_pass(wl, tally, tracer=None):
    """One closed-loop pass over the model list.  Returns the pass record;
    outputs are compared with the first pass's after the pass, outside its
    timing, and fully checked by wl.check_all after the timed phase."""
    latencies, outs, stage_checks = [], [], []
    if tracer is not None:
        tracer.install()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        for i in range(len(wl.models)):
            lo = tracer.next_id if tracer is not None else 0
            start = time.perf_counter()
            tally["attempted"] += 1
            try:
                if tracer is None:
                    out = wl.op(i)
                else:
                    with tracer.span("op"):
                        out = wl.op(i)
            except Exception as exc:  # a failed operation is counted, not fatal
                tally["failed"] += 1
                tally["errors"].append(f"{wl.models[i]}: {type(exc).__name__}: {exc}")
                continue
            latencies.append((i, time.perf_counter() - start))
            outs.append((i, out))
            if tracer is not None:
                stage_checks.append((i, out, lo, tracer.next_id))
    finally:
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        if tracer is not None:
            tracer.uninstall()
    for i, out in outs:
        wl.verify(i, out)
    if tracer is not None and isinstance(wl, DeriveWorkload):
        for i, res, lo, hi in stage_checks:
            check_stage_spans(wl.models[i], res, tracing.spans_between(tracer.spans, lo, hi))
    return {"wall": wall, "cpu": cpu, "latencies": latencies, "traced": tracer is not None}


def check_stage_spans(model, res, spans):
    """The spans of one derivation must agree with run_pipeline's own stage
    timings: one span per call the stage makes, inside the stage's time.
    A wrapper that misses a call is caught."""
    calls, total = tracing.span_stats(spans)
    steps = len(res.ghat)
    want_calls = {"models.build_generators": 1, "modgb.buchberger": 1, "telescope.reduction_basis": 1,
                  "telescope.red": steps - 1, "telescope.kernel": steps}
    for name, n in want_calls.items():
        if calls[name] != n:
            raise HarnessError(f"{model}: {calls[name]} {name} spans, run_pipeline made {n} calls")
    for stage, names in STAGE_SPANS.items():
        covered = sum(total.get(n, 0.0) for n in names)
        timed = res.timings[stage]
        if covered > timed + 1e-4:
            raise HarnessError(f"{model}: spans cover {covered:.6f}s, more than the {timed:.6f}s {stage} stage")


def timed_phase(wl, seconds, tally, tracer=None, preps=None):
    """Full passes until `seconds` have passed; with a tracer, untraced and
    traced passes alternate and at least one of each runs.  Given a list
    `preps`, the workload is prepared again between passes, outside the
    passes' own times, and each preparation's time is appended to it."""
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        lo = tracer.next_id if tracer is not None else 0
        rec = run_pass(wl, tally, tracer if traced else None)
        if traced:
            rec["spans"] = (lo, tracer.next_id)
            rec["counts"] = dict(tracer.counts)
            tracer.counts.clear()
        passes.append(rec)
        enough_kinds = tracer is None or len(passes) >= 2
        if time.perf_counter() >= deadline and enough_kinds:
            return passes
        if preps is not None:
            preps.append(prepare_seconds(wl))


def prepare_seconds(wl):
    t0 = time.perf_counter()
    wl.prepare()
    return time.perf_counter() - t0


def setup_phase(wl):
    """(median import time, preparation times).  The host's speed drifts
    over tens of seconds, so the timed phase adds preparations between its
    passes: the median preparation then spans the run, as wall_s does."""
    imports = [import_seconds() for _ in range(IMPORT_REPS)]
    return stats.median(imports), [prepare_seconds(wl) for _ in range(SETUP_REPS)]


def overhead_share():
    """Tracer cost on a fixed, span-heavy section: derivations of
    OVERHEAD_MODEL, untraced and traced in turn, with a tracer of their own
    so their spans stay out of the metrics.  The median over rounds of
    traced time over untraced time, minus 1: pairing neighbours cancels
    the machine's slow drift."""
    from regenum import parse_model, run_pipeline

    spec = parse_model(OVERHEAD_MODEL)
    run_pipeline(spec)  # warm-up
    probe = tracing.Tracer()
    plain, traced = [], []
    for _ in range(OVERHEAD_ROUNDS):
        for times, tracer in ((plain, None), (traced, probe)):
            if tracer is not None:
                tracer.install()
            t0 = time.perf_counter()
            try:
                run_pipeline(spec)
            finally:
                times.append(time.perf_counter() - t0)
                if tracer is not None:
                    tracer.uninstall()
    return stats.median([t / p for p, t in zip(plain, traced)]) - 1.0


def traced_phase(tracer, fn):
    """Run fn with the tracer installed; returns (span id window, counts)."""
    lo = tracer.next_id
    tracer.counts.clear()
    tracer.install()
    try:
        fn()
    finally:
        tracer.uninstall()
    counts = dict(tracer.counts)
    tracer.counts.clear()
    return (lo, tracer.next_id), counts


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------

def declared_units(trace):
    """{metric: unit} as BENCHMARK.json declares them for this mode."""
    with open(BENCHMARK_PATH) as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def size_metrics(odes, last_terms):
    """Output sizes: they change only when normalisation changes."""
    from regenum import ode_to_rec, rec_counts

    return {
        "seqtools.ode_order": sum(o.order for o in odes),
        "seqtools.ode_degree": sum(o.degree for o in odes),
        "seqtools.ode_coeff_bits": sum(max(abs(c).bit_length() for q in o.coeffs for c in q.int_coeffs())
                                       for o in odes),
        "seqtools.rec_order": sum(rec_counts(ode_to_rec(o)).order for o in odes),
        "seqtools.last_term_bits": sum(v.bit_length() for v in last_terms),
    }


def layer_values(spans, counts):
    selfs = tracing.self_times(spans)
    calls, _total = tracing.span_stats(spans)
    out = {}
    for metric, _group, kind, names in LAYER_METRICS:
        if kind == "self":
            out[metric] = sum(selfs.get(n, 0.0) for n in names)
        elif kind == "calls":
            out[metric] = sum(calls[n] for n in names)
        else:
            out[metric] = sum(counts.get(n, 0) for n in names)
    return out


def per_layer_metrics(workload, tracer, passes, phases):
    """phases: {"setup": (window, counts), "gate": (window, counts)}."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    per_pass = [layer_values(tracing.spans_between(tracer.spans, *p["spans"]), p["counts"]) for p in traced]
    fixed = {ph: layer_values(tracing.spans_between(tracer.spans, *win), cnt) for ph, (win, cnt) in phases.items()}
    where = LAYER_PHASE[workload]
    out = {}
    for metric, group, _kind, _names in LAYER_METRICS:
        phase = where[group]
        if phase == "pass":
            out[metric] = stats.median([v[metric] for v in per_pass])
        else:
            out[metric] = fixed[phase][metric]
    out["process.cpu_s"] = stats.median([p["cpu"] for p in plain])
    out["trace.overhead_share"] = overhead_share()
    return out


def write_spans(tracer, workload, seed):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json")
    names = sorted({s[1] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    rows = [[sid, index[name], round(start, 9), round(end, 9), parent]
            for sid, name, start, end, parent in sorted(tracer.spans)]
    with open(path, "w") as fh:
        json.dump({"fields": ["id", "name", "start", "end", "parent"], "names": names, "spans": rows}, fh)
    return path


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------

def run(args, tally):
    """Returns (metrics, units), or None when an operation failed."""
    import_library()
    units = declared_units(args.trace)
    reference = gate.load_reference()
    wl = make_workload(args.workload, args.seed, reference)
    print(f"workload {args.workload} seed {args.seed}: {len(wl.models)} models: {' '.join(wl.models)}")

    import_s, preps = setup_phase(wl)
    tracer = tracing.Tracer() if args.trace else None
    phases = {}
    if tracer is not None and "setup" in LAYER_PHASE[args.workload].values():
        phases["setup"] = traced_phase(tracer, wl.prepare)

    passes = timed_phase(wl, args.seconds, tally, tracer, preps if tracer is None else None)

    share = stats.failed_share(tally["attempted"], tally["failed"])
    print(f"  failed_share {share:.4f} ratio ({tally['failed']} of {tally['attempted']})")
    for err in tally["errors"]:
        print(f"  FAILED {err}")
    if tally["failed"]:
        return None

    # the gate's own derivations and oracle calls must not count toward
    # peak memory
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gate.check_paper(reference)
    if tracer is not None and "gate" in LAYER_PHASE[args.workload].values():
        phases["gate"] = traced_phase(tracer, wl.check_all)
    else:
        wl.check_all()
    outputs = wl.outputs()
    last_terms = [wl.last_terms[m] for m in wl.models]

    plain = [p for p in passes if not p["traced"]]
    lat = stats.latency_summary([dt for p in plain for _i, dt in p["latencies"]])
    per_model = [[dt for p in plain for j, dt in p["latencies"] if j == i] for i in range(len(wl.models))]
    result_metrics = {}
    if tracer is None:
        # A shared host's speed drifts in phases of tens of seconds, so a
        # run's median or fastest pass reads whichever phase it fell in;
        # means over the whole timed phase vary less from run to run.
        # wall_s is the mean wall time of a pass, op_p50_s the median over
        # the workload's models of each one's mean latency.
        result_metrics = {
            "wall_s": statistics.fmean([p["wall"] for p in plain]),
            "op_p50_s": stats.median([statistics.fmean(v) for v in per_model if v]),
            "setup_s": import_s + stats.median(preps),
            "peak_rss_mib": peak_rss_mib,
        }
        tail = f", p{lat['tail'][0]:g} {lat['tail'][1]:.4f} s" if lat["tail"] else ""
        print(f"  passes {len(plain)}, operations {lat['n']}: op p50 {lat['p50']:.4f} s{tail}")
        print("  pass wall (cpu) times: " + " ".join(f"{p['wall']:.3f} ({p['cpu']:.3f})" for p in plain) + " s")
        print("  preparation times: " + " ".join(f"{dt:.3f}" for dt in preps) + f" s, import {import_s:.4f} s")
        if len(wl.models) <= 6:
            for m, per in zip(wl.models, per_model):
                print(f"  {m}: " + " ".join(f"{dt:.3f}" for dt in per) + " s")
    else:
        result_metrics = per_layer_metrics(args.workload, tracer, passes, phases)
        result_metrics.update(size_metrics(outputs, last_terms))
        print(f"  spans written to {write_spans(tracer, args.workload, args.seed)}")
    if set(result_metrics) != set(units):
        raise HarnessError(f"metrics {sorted(result_metrics)} are not the declared {sorted(units)}")
    for name, value in result_metrics.items():
        print(f"  {name:30s} {value:.6g} {units[name]}")
    return result_metrics, units


def main(argv=None):
    args = parse_args(argv)
    tally = {"attempted": 0, "failed": 0, "errors": []}
    try:
        result = run(args, tally)
    except MissingLibrary as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HarnessError as exc:
        print(f"HARNESS ERROR: {exc}", file=sys.stderr)
        return 3
    except gate.GateError as exc:
        print(f"WRONG OUTPUT: {exc}", file=sys.stderr)
        result = None
    correct = result is not None
    metrics, units = result or ({}, {})
    print(json.dumps({
        "correct": correct,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
