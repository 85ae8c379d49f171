"""Regenerate reference.json, the values the gate compares outputs with.

    python3 perfbench/record.py

For every model a workload can draw, this derives the ODE, unrolls the
counts r_0..r_10 and records them only after scalar_series and
graph_count_dp both agree with them.  For the models enumerate can draw it
also records the fingerprint (bit length, residue modulo gate.PRIME) of
r_2000, after the Taylor-mode cross-check at gate.CROSS_N has passed.
Models are spread over one worker process per CPU.
Run it only on a commit whose outputs are trusted; the gate's value comes
from the reference not moving.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def record_model(model_str):
    run.import_library()
    from regenum import ode_to_rec, parse_model, rec_counts, run_pipeline, unroll

    spec = parse_model(model_str)
    ode = run_pipeline(spec).ode
    want_enum = model_str in workloads.enumerate_population()
    rec = rec_counts(ode_to_rec(ode))
    counts = unroll(rec, [1], gate.ENUM_N if want_enum else gate.COUNT_N)
    head = counts[: gate.COUNT_N + 1]
    if gate.oracle_counts(spec) != head:
        raise SystemExit(f"{model_str}: unrolled counts disagree with the oracles")
    entry = {"counts": head}
    if want_enum:
        gate.check_taylor_cross(model_str, ode, counts[gate.CROSS_N])
        entry["r2000"] = gate.fingerprint(counts[gate.ENUM_N])
    return model_str, entry


def main():
    models = sorted(set(workloads.k5_models()) | workloads.enumerate_population() | set(gate.ORDER_TABLE))
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(os.cpu_count()) as pool:
        entries = pool.map(record_model, models, chunksize=1)
    for m, e in entries:
        print(f"{m}: recorded" + (" with r2000 fingerprint" if "r2000" in e else ""), file=sys.stderr)
    ref = {
        "count_n": gate.COUNT_N,
        "enum_n": gate.ENUM_N,
        "prime": gate.PRIME,
        "models": dict(entries),
    }
    with open(gate.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
