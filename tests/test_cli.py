import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from regenum.cli import main
from regenum.seqtools import ode_from_json, ode_to_rec, rec_counts, rec_from_json, unroll


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestExitCodes:
    def test_usage_no_model(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("--emit", "ode")
        assert exc.value.code == 64

    def test_usage_bad_model(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("se,zz,{3}")
        assert exc.value.code == 64

    def test_usage_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("se,ll,{2}", "--jobs", "2")
        assert exc.value.code == 64

    def test_usage_negative_max_oracle_n(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("se,ll,{3}", "--check", "--max-oracle-n", "-1")
        assert exc.value.code == 64

    def test_usage_unwritable_out(self, tmp_path):
        path = tmp_path / "missing" / "x"
        code, out, err = run_cli("se,ll,{2}", "--out", str(path))
        assert code == 64 and out == ""
        assert f"solve: error: cannot write {path}: " in err
        assert not path.parent.exists()

    def test_usage_two_models(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("se,ll,{2}", "--model", "se,ll,{3}")
        assert exc.value.code == 64

    def test_success(self):
        code, out, _ = run_cli("se,ll,{2}", "--emit", "ode")
        assert code == 0
        assert out.strip() == "t^2 + (2*t - 2)*Dt"


class TestEmit:
    def test_terms_text(self):
        code, out, _ = run_cli("se,ll,{3}", "--emit", "terms", "--terms", "8")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "0\t1"
        assert lines[4] == "4\t1"
        assert lines[6] == "6\t70"
        assert lines[8] == "8\t19355"

    def test_terms_zero(self):
        code, out, _ = run_cli("se,ll,{3}", "--emit", "terms", "--terms", "0")
        assert code == 0 and out == "0\t1\n"

    def test_terms_past_int_str_limit(self):
        from conftest import pipeline

        r = unroll(rec_counts(ode_to_rec(pipeline("se,ll,{4}").ode)), [1], 2000)[2000]
        # decimal digit count and first/last 8 digits, without int-to-str
        ndig = max(1, r.bit_length() * 3 // 10)  # a lower bound: log10(2) > 0.3
        while 10**ndig <= r:
            ndig += 1
        assert ndig > 4300
        head, tail = r // 10 ** (ndig - 8), r % 10**8
        get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
        limit = get_limit()
        code, out, _ = run_cli("se,ll,{4}", "--emit", "terms", "--terms", "2000")
        assert code == 0
        n, digits = out.splitlines()[-1].split("\t")
        code, out, _ = run_cli("se,ll,{4}", "--emit", "terms", "--terms", "2000", "--format", "json")
        assert code == 0
        assert json.loads(out)["terms"][-1] == [2000, digits]
        assert n == "2000" and len(digits) == ndig
        assert digits[:8] == f"{head:08d}" and digits[-8:] == f"{tail:08d}"
        assert get_limit() == limit

    def test_int_str_limit_absent(self, monkeypatch):
        # interpreters without the int-to-str limit lack the accessor
        from regenum.cli import _unlimited_int_str

        monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
        with _unlimited_int_str():
            pass

    def test_ode_json_round_trip(self):
        code, out, _ = run_cli("se,ll,{3}", "--emit", "ode", "--format", "json")
        assert code == 0
        from conftest import pipeline

        assert ode_from_json(out) == pipeline("se,ll,{3}").ode

    def test_rec_json_round_trip(self):
        code, out, _ = run_cli("se,ll,{2}", "--emit", "rec", "--format", "json")
        rec = rec_from_json(out)
        assert rec.mode == "counts"
        code2, out2, _ = run_cli("se,ll,{2}", "--emit", "rec-egf", "--format", "json")
        assert rec_from_json(out2).mode == "taylor"

    def test_gb_and_ghat(self):
        code, out, _ = run_cli("se,ll,{2}", "--emit", "gb")
        assert code == 0 and "p1" in out
        code, out, _ = run_cli("se,ll,{2}", "--emit", "ghat", "--format", "json")
        data = json.loads(out)
        assert data["ghat"][0] == "1"

    def test_determinism(self):
        a = run_cli("se,ll,{3}", "--emit", "ode", "--format", "json")
        b = run_cli("se,ll,{3}", "--emit", "ode", "--format", "json")
        assert a[1] == b[1]

    def test_out_file(self, tmp_path):
        path = tmp_path / "artifact.json"
        code, out, _ = run_cli("se,ll,{2}", "--emit", "ode", "--format", "json", "--out", str(path))
        assert code == 0 and out == ""
        assert ode_from_json(path.read_text()) is not None


class TestCheckAndDumps:
    def test_check_passes(self):
        code, out, err = run_cli("se,ll,{3}", "--emit", "terms", "--terms", "6", "--check", "--max-oracle-n", "6")
        assert code == 0
        assert "oracles agree" in err

    def test_trace_and_dumps(self):
        code, out, err = run_cli(
            "se,ll,{2}", "--emit", "ode", "--trace", "--dump-gb", "--dump-ghat"
        )
        assert code == 0
        assert "replay verified" in err
        assert "[gb]" in err and "[ghat]" in err

    def test_dump_generators(self):
        code, _, err = run_cli("se,ll,{4}", "--emit", "ode", "--dump-generators")
        assert code == 0
        assert "[gen] P4#: p4 + 4*d4 + t - 1" in err

    def test_stage_timings_on_stderr(self):
        code, _, err = run_cli("se,ll,{2}", "--emit", "ode")
        for stage in ("generators", "groebner", "reduction", "kernel"):
            assert f"[time] {stage}:" in err
