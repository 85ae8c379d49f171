"""Command-line driver.

Parses a model, derives the ODE, converts and unrolls, optionally checks
the pipeline against both oracles, and emits byte-exact text or JSON.

Exit codes: 0 success; 2 FAIL / FAIL-DOMINANCE from the derivation;
3 verification mismatch in --check mode; 64 usage errors, including an
unwritable --out path.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager

from .models import parse_model
from .oracle import graph_count_dp, scalar_series
from .seqtools import SequenceError, ode_to_json, ode_to_rec, rec_counts, rec_to_json, unroll
from .modgb import module_to_weyl
from .telescope import PipelineFailure, replay, run_pipeline
from .weyl import mpoly_to_str, op_to_str

USAGE_EXIT = 64
FAIL_EXIT = 2
MISMATCH_EXIT = 3

EMIT_CHOICES = ("ode", "rec", "rec-egf", "terms", "gb", "ghat")


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _ArgumentParser(
        prog="solve",
        description="Derive the annihilating ODE of a regular-graph model, "
        "convert it to recurrences, and enumerate.",
    )
    p.add_argument("model_pos", nargs="?", metavar="MODEL", help='model triple, e.g. "se,ll,{4}"')
    p.add_argument("--model", dest="model_opt", metavar="STR", help="model triple (alternative to the positional)")
    p.add_argument("--emit", choices=EMIT_CHOICES, default="ode", help="artifact to emit (default: ode)")
    p.add_argument("--terms", type=int, default=10, metavar="N", help="number of terms for --emit terms (default: 10)")
    p.add_argument("--format", choices=("text", "json"), default="text", help="output format (default: text)")
    p.add_argument("--check", action="store_true", help="diff unrolled counts against both oracles")
    p.add_argument("--max-oracle-n", type=int, default=8, metavar="N", help="oracle range for --check (default: 8)")
    p.add_argument("--out", metavar="PATH", help="write the artifact to PATH instead of standard output")
    p.add_argument("--trace", action="store_true", help="emit and verify the reduction replay certificate on stderr")
    p.add_argument("--dump-generators", action="store_true", help="print the twisted generators to stderr")
    p.add_argument("--dump-gb", action="store_true", help="print the module Groebner basis to stderr")
    p.add_argument("--dump-ghat", action="store_true", help="print the reduced derivatives to stderr")
    return p


@contextmanager
def _unlimited_int_str():
    """Lift the interpreter's int-to-str digit limit for the duration, so
    counts of any size print in full.  Interpreters without the limit
    (CPython before 3.10.7) need nothing."""
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:
        yield
        return
    saved = get()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def _emit_text(args, res, rec_taylor, rec_cnt, counts):
    emit = args.emit
    if emit == "ode":
        return str(res.ode) + "\n"
    if emit == "rec":
        return str(rec_cnt) + "\n"
    if emit == "rec-egf":
        return str(rec_taylor) + "\n"
    if emit == "terms":
        return "".join(f"{n}\t{v}\n" for n, v in enumerate(counts))
    if emit == "gb":
        return "".join(op_to_str(module_to_weyl(e)) + "\n" for e in res.gb)
    if emit == "ghat":
        return "".join(f"{i}: {mpoly_to_str(g)}\n" for i, g in enumerate(res.ghat))
    raise AssertionError(emit)


def _emit_json(args, res, rec_taylor, rec_cnt, counts):
    emit = args.emit
    if emit == "ode":
        return ode_to_json(res.ode) + "\n"
    if emit == "rec":
        return rec_to_json(rec_cnt) + "\n"
    if emit == "rec-egf":
        return rec_to_json(rec_taylor) + "\n"
    if emit == "terms":
        return json.dumps({"terms": [[n, str(v)] for n, v in enumerate(counts)]}, separators=(",", ":")) + "\n"
    if emit == "gb":
        return json.dumps({"gb": [op_to_str(module_to_weyl(e)) for e in res.gb]}, separators=(",", ":")) + "\n"
    if emit == "ghat":
        return json.dumps({"ghat": [mpoly_to_str(g) for g in res.ghat]}, separators=(",", ":")) + "\n"
    raise AssertionError(emit)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if bool(args.model_pos) == bool(args.model_opt):
        parser.error("exactly one model must be given (positional or --model)")
    if args.terms < 0:
        parser.error("--terms must be >= 0")
    if args.max_oracle_n < 0:
        parser.error("--max-oracle-n must be >= 0")
    try:
        model = parse_model(args.model_pos or args.model_opt)
    except ValueError as exc:
        parser.error(str(exc))

    t0 = time.perf_counter()
    try:
        res = run_pipeline(model, want_trace=args.trace)
    except PipelineFailure as exc:
        sys.stdout.write(json.dumps({"status": exc.code, "reason": str(exc)}) + "\n")
        return FAIL_EXIT
    total = time.perf_counter() - t0
    for stage in ("generators", "groebner", "reduction", "kernel"):
        print(f"[time] {stage}: {res.timings[stage]:.3f}s", file=sys.stderr)
    print(f"[time] total derivation: {total:.3f}s", file=sys.stderr)

    if args.trace:
        ok = True
        nsteps = 0
        for i, (src, shat, tr) in enumerate(res.traces, start=1):
            ok = ok and replay(src, shat, tr, res.basis)
            nsteps += len(tr)
            for j, c, shift in tr:
                mono = "*".join(
                    f"p{v + 1}" + (f"^{e}" if e > 1 else "") for v, e in enumerate(shift) if e
                ) or "1"
                print(f"[trace] ghat_{i}: G_{j} . ({c})*{mono}", file=sys.stderr)
        print(f"[trace] {nsteps} reduction steps, replay {'verified' if ok else 'FAILED'}", file=sys.stderr)
        if not ok:
            sys.stdout.write(json.dumps({"status": "FAIL", "reason": "replay verification failed"}) + "\n")
            return FAIL_EXIT

    if args.dump_generators:
        for i, gen in enumerate(res.generators, start=1):
            print(f"[gen] P{i}#: " + op_to_str(gen), file=sys.stderr)
    if args.dump_gb:
        for e in res.gb:
            print("[gb] " + op_to_str(module_to_weyl(e)), file=sys.stderr)
    if args.dump_ghat:
        for i, g in enumerate(res.ghat):
            print(f"[ghat] {i}: {mpoly_to_str(g)}", file=sys.stderr)

    need_rec = args.check or args.emit in ("rec", "rec-egf", "terms")
    rec_taylor = rec_cnt = None
    counts = []
    if need_rec:
        rec_taylor = ode_to_rec(res.ode)
        rec_cnt = rec_counts(rec_taylor)
        n_top = max(args.terms if args.emit == "terms" else 0,
                    args.max_oracle_n if args.check else 0)
        try:
            counts = unroll(rec_cnt, [1], n_top)
        except SequenceError as exc:
            print(f"[check] unrolling failed: {exc}", file=sys.stderr)
            sys.stdout.write(json.dumps({"status": "ERROR", "reason": str(exc)}) + "\n")
            return MISMATCH_EXIT

    if args.check:
        n_max = args.max_oracle_n
        series = scalar_series(model, n_max)
        want = series.counts()
        dp = [graph_count_dp(model, n, max(n_max, 10)) for n in range(n_max + 1)]
        for n in range(n_max + 1):
            if counts[n] != dp[n] or counts[n] != want[n]:
                print(
                    f"[check] mismatch at n={n}: unrolled={counts[n]} dp={dp[n]} series={want[n]}",
                    file=sys.stderr,
                )
                sys.stdout.write(json.dumps({"status": "MISMATCH", "n": n}) + "\n")
                return MISMATCH_EXIT
        print(f"[check] oracles agree with unrolled counts for n <= {n_max}", file=sys.stderr)

    with _unlimited_int_str():
        emitted = (_emit_json if args.format == "json" else _emit_text)(
            args, res, rec_taylor, rec_cnt, counts[: args.terms + 1]
        )
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(emitted)
        except OSError as exc:
            print(f"{parser.prog}: error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return USAGE_EXIT
    else:
        sys.stdout.write(emitted)
    return 0


if __name__ == "__main__":
    sys.exit(main())
