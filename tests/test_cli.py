import ctypes
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cmlab
from cmlab import arith, cli, closeness, constants, errors, goldbach
from cmlab.arith import rough_flags
from cmlab.cli import main
from cmlab.models import mertens_product
from conftest import measure_cli, skip_without_proc
from counters import COUNTERS, DESK_SMALL, GALLAGHER_7, PIPELINE_BASELINES, PIPELINE_CHECKS
from oracles import read_arithfn


def run(argv):
    return main(argv)


def table(path):
    """The header row and the rows of a report CSV, under its `# key = value` lines."""
    return [line.split(",") for line in path.read_text().splitlines() if not line.startswith("#")]


class TestExitCodes:
    def test_unknown_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["--out", str(tmp_path), "verify", "gallagher", "--no-such-flag"])
        assert exc.value.code == 2

    def test_invalid_geometry_exits_2(self, tmp_path):
        # Y must be smaller than X
        code = run(["--out", str(tmp_path), "pipeline", "--X", "100", "--Y", "200"])
        assert code == 2

    def test_unknown_preset_exits_2(self, tmp_path):
        code = run(["--out", str(tmp_path), "pipeline", "--preset", "desk-small"])
        assert code == 0
        with pytest.raises(SystemExit):
            run(["--out", str(tmp_path), "pipeline", "--preset", "nope"])

    def test_preset_with_model_flag_exits_2(self, tmp_path, capsys):
        # the preset fixes Y, so --Y would be silently dropped
        assert run(["--out", str(tmp_path), "pipeline", "--preset", "desk-small", "--Y", "2000"]) == 2
        assert "fixes y" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["verify", "gallagher", "--trials", "0"],  # no ratio to take the max of
        ["verify", "gallagher", "--trials", "-3"],
        ["exceptional", "--X", "100", "--H", "-5"],  # an empty interval
    ])
    def test_empty_request_exits_2_and_writes_nothing(self, tmp_path, argv):
        assert run(["--out", str(tmp_path), *argv]) == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["pipeline", "--kappa", "nan"],  # every `ab < om - 2*kappa` was False: "passed"
        ["pipeline", "--kappa", "inf"],
        ["verify", "gallagher", "--delta", "nan"],
        ["verify", "closeness", "--h-exponent", "nan"],  # a traceback converting nan to int
        ["model", "--which", "t_nu_plus", "--Y", "1000", "--sift", "inf"],
        ["model", "--which", "t_nu_plus", "--Y", "1000", "--level", "nan"],
    ])
    def test_non_finite_float_exits_2_and_writes_nothing(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            run(["--out", str(tmp_path), *argv])
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("key, value", [("kappa", "nan"), ("delta", "-inf"), ("h_exponent", "NaN")])
    def test_non_finite_float_from_env_or_config_exits_2(self, tmp_path, monkeypatch, key, value):
        argv = {"kappa": ["pipeline"], "delta": ["verify", "gallagher"], "h_exponent": ["verify", "closeness"]}[key]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        out = tmp_path / "out"
        assert run(["--out", str(out), "--config", str(cfg), *argv]) == 2
        monkeypatch.setenv("CML_" + key.upper(), value)
        assert run(["--out", str(out), *argv]) == 2
        assert not out.exists()

    def test_unreadable_config_exits_2(self, tmp_path, capsys):
        binary = tmp_path / "binary.cfg"
        binary.write_bytes(b"x = 100\n\xff\n")
        out = tmp_path / "out"
        # a directory, a missing file and a file that is not text
        for config in (tmp_path, tmp_path / "missing.cfg", binary):
            assert run(["--out", str(out), "--config", str(config), "exceptional", "--X", "100"]) == 2
            assert capsys.readouterr().err.startswith(f"error: cannot read config {str(config)!r}")
        assert not out.exists()

    def test_out_that_is_not_a_directory_exits_2_before_any_work(self, tmp_path, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("worked before --out was checked")

        monkeypatch.setattr(cli, "singular_series", refuse)
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        # a file, and a path through one
        for out in (afile, afile / "sub"):
            assert run(["--out", str(out), "series", "--n-stop", "10"]) == 2
            err = capsys.readouterr().err
            assert err == f"error: cannot write to --out {str(out)!r}: {str(afile)!r} is not a directory\n"
        assert afile.read_text() == "kept\n"
        assert list(tmp_path.iterdir()) == [afile]

    @pytest.mark.parametrize("argv", [
        *(["model", "--which", which, *bad] for which in ("lambda_q", "t_nu_plus") for bad in (["--Y", "0"], ["--Q", "0"])),
        ["model", "--which", "t_nu_plus", "--Q", "0", "--sift", "10"],  # Q is only sift's default here
        *([*command, *bad] for command in (["verify", "closeness"], ["pipeline"])
          for bad in (["--Y", "0"], ["--Q", "0"], ["--Q", "1"])),  # Q = 1 is the sieve's z
        # H = Y^e below 1, at Y (a span of at most 2H), beyond the float range, and 0^e with e < 0
        *(["verify", "closeness", *bad] for bad in (
            ["--h-exponent", "-0.5"], ["--h-exponent", "1.0"], ["--h-exponent", "400"],
            ["--Y", "0", "--h-exponent", "-0.5"],
        )),
    ], ids=" ".join)
    def test_bad_y_q_or_c_nu_exits_2_before_sieving(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.setattr(goldbach, "prime_weights", self._refuse)
        out = tmp_path / "out"
        assert run(["--out", str(out), *argv]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("bad, message", [
        (["--Y", "100000000", "--Q", "0"],
         f"verify closeness at Y = 100000000 needs {closeness.closeness_bytes(10**8)} bytes, beyond the cap 2147483648 bytes"),
        (["--Y", "0", "--Q", "0"], "Q must be >= 1"),
        (["--Q", "0", "--h-exponent", "1.0"], "Q must be >= 1"),
        (["--Q", "1", "--h-exponent", "-0.5"], "need z >= 2 and beta >= 1"),
    ], ids=["grid and Q", "Y and Q", "Q and H", "z and H"])
    def test_closeness_checks_the_grid_then_the_models_then_h(self, tmp_path, monkeypatch, capsys, bad, message):
        # with two faults at once, the one checked first names the error
        monkeypatch.setattr(goldbach, "prime_weights", self._refuse)
        assert run(["--out", str(tmp_path), "verify", "closeness", *bad]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("bad", [
        ["--trials", "0"], ["--span", "-5"], ["--delta", "1"], ["--delta", "5000"],
        ["--span", "200000000", "--trials", "1"],  # bytes over the cap
    ], ids=" ".join)
    def test_gallagher_checks_its_request_before_it_draws(self, tmp_path, monkeypatch, capsys, bad):
        def refuse(seed):
            raise AssertionError("drew before the request was checked")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        out = tmp_path / "out"
        assert run(["--out", str(out), "verify", "gallagher", *bad]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()
        # the control: a valid request draws through the stub
        with pytest.raises(AssertionError, match="drew before"):
            run(["--out", str(out), "verify", "gallagher", "--trials", "1"])

    @staticmethod
    def _refuse(start, stop):
        raise AssertionError("sieved before Y, H and Q were checked")

    @pytest.mark.parametrize("argv", [
        ["pipeline", "--preset", "desk-small"], ["verify", "closeness"],
    ], ids=" ".join)
    def test_valid_runs_sieve_through_the_stub(self, tmp_path, monkeypatch, argv):
        # the control of the test above: its stub is where these runs sieve
        monkeypatch.setattr(goldbach, "prime_weights", self._refuse)
        with pytest.raises(AssertionError, match="sieved before"):
            run(["--out", str(tmp_path / "out"), *argv])

    @pytest.mark.parametrize("argv", [
        ["verify", "closeness", "--c-nu", "0.9"],
        ["pipeline", "--c-nu", "0.9"],
        ["model", "--which", "t_nu_plus", "--c-nu", "0.9"],
        ["pipeline", "--max-final-fraction", "0.5"],
        ["model", "--which", "t_nu"],
        ["--seed", "7", "verify", "gallagher"],
        *([*name.split(), "--seed", "7"] for name, *_ in cli.COMMANDS if name != "verify gallagher"),
    ], ids=" ".join)
    def test_settings_that_moved_nothing_or_only_a_verdict_exit_2(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            run(["--out", str(tmp_path / "out"), *argv])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_workers_belongs_to_closeness_only(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["--out", str(tmp_path), "series", "--workers", "3"])
        assert exc.value.code == 2


class TestVerify:
    def test_gallagher(self, tmp_path):
        code = run([
            "--out", str(tmp_path),
            "verify", "gallagher", "--delta", "50", "--trials", "10", "--seed", "7",
        ])
        assert code == 0
        summary = json.loads((tmp_path / "verify-gallagher-summary.json").read_text())
        assert summary["passed"] is True
        assert summary["max_ratio"] <= 20.0

    def test_gallagher_deterministic_output(self, tmp_path):
        args = ["verify", "gallagher", "--trials", "5", "--span", "2000", "--seed", "11"]
        run(["--out", str(tmp_path / "a")] + args)
        run(["--out", str(tmp_path / "b")] + args)
        a = (tmp_path / "a" / "gallagher-ratios.csv").read_bytes()
        b = (tmp_path / "b" / "gallagher-ratios.csv").read_bytes()
        assert a == b

    def test_lambda_q_short(self, tmp_path):
        code = run(["--out", str(tmp_path), "verify", "lambda_q_short", "--Q", "10", "--grid", "small"])
        assert code == 0
        csv_text = (tmp_path / "lambda-q-short-sums.csv").read_text()
        assert csv_text.startswith("# subcommand = verify lambda_q_short")
        assert "ratio" in csv_text

    def test_sieve_short(self, tmp_path):
        assert run(["--out", str(tmp_path), "verify", "sieve_short", "--grid", "small"]) == 0

    def test_closeness_small(self, tmp_path):
        code = run([
            "--out", str(tmp_path), "verify", "closeness",
            "--Y", "20000", "--h-exponent", "0.3", "--Q", "5",
        ])
        assert code == 0
        summary = json.loads((tmp_path / "verify-closeness-summary.json").read_text())
        assert summary["theta_model_vs_sieve"] <= summary["theta_primes_vs_model"]
        # one row per Farey arc, and the summary's Farey bound is the largest contribution
        for name, key in (("primes-vs-model", "primes_vs_model"), ("model-vs-sieve", "model_vs_sieve")):
            rows = table(tmp_path / f"closeness-{name}-arcs.csv")
            assert rows[0] == ["q", "r", "center", "lo", "hi", "contribution"]
            order = max(int(row[0]) for row in rows[1:])
            pairs = [(int(row[0]), int(row[1])) for row in rows[1:]]
            assert sorted(pairs) == [(q, r) for q in range(1, order + 1) for r in range(q) if math.gcd(r, q) == 1]
            best = max(rows[1:], key=lambda row: float(row[-1]))
            assert [int(best[0]), int(best[1])] == summary[key]["farey_arc"]
            assert float(best[-1]) == pytest.approx(summary[key]["farey_bound"], rel=1e-11)

    def test_closeness_summary_says_what_set_theta(self, tmp_path):
        # at the canonical point the spot probe, not the Farey bound, sets theta
        code = run(["--out", str(tmp_path), "verify", "closeness"])
        assert code == 0
        summary = json.loads((tmp_path / "verify-closeness-summary.json").read_text())
        assert summary["passed"] is True
        assert summary["theta_primes_vs_model"] == pytest.approx(0.04797, abs=5e-6)
        decision = summary["primes_vs_model"]
        assert decision["decided_by"] == "spot"
        assert decision["spot_estimate"] == pytest.approx(5.70e4, rel=1e-3)
        assert decision["farey_bound"] == pytest.approx(2.60e4, rel=1e-3)
        assert decision["farey_over_spot"] == pytest.approx(decision["farey_bound"] / decision["spot_estimate"])
        assert decision["farey_arc"] == [1, 0]
        assert 0.0 <= decision["spot_alpha"] <= 0.5
        assert summary["model_vs_sieve"]["decided_by"] in ("farey", "spot")
        # --workers is accepted and ignored, so no report depends on the CPU count
        assert "# workers" not in (tmp_path / "closeness-primes-vs-model-arcs.csv").read_text()


    def test_closeness_beyond_q_72(self, tmp_path):
        # pi(73) = 21, so the untruncated sieve would enumerate 2^21 weights or
        # more; Y = 10^4 because at Y = 1000 the ordering itself fails (at
        # Q = 71 as at Q = 100)
        assert run(["--out", str(tmp_path), "verify", "closeness", "--Y", "10000", "--Q", "100"]) == 0

    def test_closeness_spectrum_over_cap_exits_2(self, tmp_path, monkeypatch, capsys):
        # Y = 1000: d = f - g spans 1000 points, a spectrum grid of 2^13; the run's largest estimate
        argv = ["--out", str(tmp_path), "verify", "closeness", "--Y", "1000"]
        estimate = closeness.closeness_bytes(1000)
        monkeypatch.setattr(errors, "MEMORY_CAP", estimate)
        assert run(argv) == 0
        monkeypatch.setattr(errors, "MEMORY_CAP", estimate - 1)
        assert run(argv) == 2
        assert f"verify closeness at Y = 1000 needs {estimate} bytes, beyond the cap" in capsys.readouterr().err

    def test_closeness_spectrum_over_cap_exits_2_before_sieving(self, tmp_path, monkeypatch, capsys):
        def refuse(x, window):
            raise AssertionError("sieved before the capacity check")

        monkeypatch.setattr(cli, "restricted_prime_fn", refuse)
        # Y = 2*10^7 and a grid of 2^28 points: SPAN_BYTES Y + GRID_BYTES M is over the cap
        assert run(["--out", str(tmp_path), "verify", "closeness", "--Y", "20000000"]) == 2
        assert "beyond the cap" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


# peak RSS of `pipeline --X 1000000 --Y 200000 --H 100000 --Q 10`: 85 to 89 MB
# on a 2-core x86-64 host with numpy 2.4, with a*a summed densely
PIPELINE_LONG_H_PEAK_BOUND_MB = 120


class TestPipeline:
    def test_preset_run(self, tmp_path):
        assert run(["--out", str(tmp_path), "pipeline", "--preset", "desk-small"]) == 0
        body = (tmp_path / "pipeline-chain.csv").read_text()
        assert "n,lambda_conv,omega_model_conv,verdict" in body
        assert "# x = 200000" in body
        # the config keys are echoed once, with the parameters
        comments = [line for line in body.splitlines() if line.startswith("# ")]
        keys = [line.split(" = ")[0] for line in comments]
        assert len(keys) == len(set(keys))
        assert {"# a_power", "# theta_target", "# ideal", "# kappa"} <= set(keys)
        summary = json.loads((tmp_path / "pipeline-summary.json").read_text())
        assert summary["report"]["final_failures"] == 0

    def test_beyond_q_72(self, tmp_path):
        assert run(["--out", str(tmp_path), "pipeline", "--X", "200000", "--Q", "100"]) == 0

    def test_beyond_q_128(self, tmp_path):
        # Lambda_Q reads mu(d) for d > 127, beyond the int8 range of the table
        assert run(["--out", str(tmp_path), "pipeline", "--X", "200000", "--Q", "130"]) == 0

    def test_summary_reports_the_stream(self, tmp_path, monkeypatch):
        monkeypatch.setattr(goldbach, "PIPELINE_SEGMENT", 1 << 16)
        assert run(["--out", str(tmp_path), "pipeline", "--preset", "desk-small"]) == 0
        summary = json.loads((tmp_path / "pipeline-summary.json").read_text())
        config = goldbach.PRESETS["desk-small"]
        m0 = -(-(config.x - config.h) // 2)  # 99968: [0, m0) in segments of 2^16
        assert summary["segments_streamed"] == -(-m0 // (1 << 16)) == 2
        # the low segments, their mirrors of H more values each and the middle window tile [0, X]
        assert summary["values_streamed"] == config.x + 1 + 2 * config.h
        assert summary["working_set_values"] == goldbach.pipeline_working_set(config)
        assert set(summary) == {
            "subcommand", "params", "report", "checks", "passed", "segments_streamed", "values_streamed",
            "working_set_values",
        }

    @skip_without_proc
    def test_long_h_peak_rss(self, tmp_path):
        # At H = 10^5 a segment of 2^18 primes meets about 10^8 prime pairs: a*a
        # must take the dense transform there, and expand any pairs in batches.
        # Taking the pairs whenever they were under 1/16 of the direct
        # multiply-adds, all at once, peaked at 5.2 GB on a 2-core x86-64 host
        # with numpy 2.4; the dense path peaked at 89 MB.  The child may map
        # 1 GB, so such a blow-up ends in a MemoryError.
        argv = ["--out", tmp_path, "pipeline", "--X", "1000000", "--Y", "200000", "--H", "100000", "--Q", "10"]
        done = measure_cli(argv, address_space=1 << 30)
        assert done.code == 0, done.stderr
        assert done.peak_mb < PIPELINE_LONG_H_PEAK_BOUND_MB

    def test_working_set_over_cap_exits_2_before_sieving(self, tmp_path, monkeypatch, capsys):
        def refuse(start, stop):
            raise AssertionError("sieved before the capacity check")

        monkeypatch.setattr(goldbach, "prime_weights", refuse)
        # 10 (Y + H) values alone, at VALUE_BYTES each, are over the cap
        assert run(["--out", str(tmp_path), "pipeline", "--X", "80000000", "--Y", "20000000"]) == 2
        assert "beyond the cap" in capsys.readouterr().err
        assert not (tmp_path / "pipeline-chain.csv").exists()

    def test_explicit_y_sets_h_kappa_and_theta_target(self, tmp_path):
        # H = Y^{1/9 + 2 eps} and kappa = Y / log Y follow the Y given, not the
        # Y = X^{21/40} that --X alone would set (which gave h = 64, kappa = 321.2).
        # The run holds about 100 MB, so it gets its own process and leaves the
        # test process's peak RSS where it was
        src = Path(cmlab.__file__).resolve().parents[1]
        argv = ["--out", str(tmp_path), "pipeline", "--X", "3000000", "--Y", "700000"]
        done = subprocess.run([sys.executable, "-m", "cmlab.cli", *argv], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, timeout=300)
        assert done.returncode == 0, done.stderr
        header = (tmp_path / "pipeline-chain.csv").read_text().splitlines()
        assert "# h = 66" in header
        assert "# kappa = 52010.44281055973" in header
        config = json.loads((tmp_path / "pipeline-summary.json").read_text())["report"]["config"]
        assert config["theta_target"] == 1 / math.log(700_000)
        assert config["ideal"]["h"] == 700_000 ** (1 / 9 + 0.2)

    @pytest.mark.parametrize("argv, named", [
        (["--X", "10000", "--Y", "3334"], "3Y = 10002 > X + 1 = 10001"),
        (["--X", "10000", "--Y", "4000", "--H", "100"], "3Y = 12000 > X + 1 = 10001"),
    ])
    def test_omega_window_below_zero_exits_2_before_sieving(self, tmp_path, monkeypatch, capsys, argv, named):
        def refuse(start, stop):
            raise AssertionError("sieved before the geometry check")

        monkeypatch.setattr(goldbach, "prime_weights", refuse)
        assert run(["--out", str(tmp_path), "pipeline", *argv]) == 2
        assert named in capsys.readouterr().err
        assert not list(tmp_path.iterdir())
        monkeypatch.undo()
        # at 3Y = X - 1, omega's window (X - 3Y, X - Y] starts at 1
        assert run(["--out", str(tmp_path), "pipeline", "--X", "10000", "--Y", "3333"]) == 0

    def test_x_past_the_index_bound_exits_2_before_sieving(self, tmp_path, monkeypatch, capsys):
        # omega's window ends at X - Y + 1 > 2**40: refused by the config, not by the first ArithFn built
        def refuse(lo, hi):
            raise AssertionError("sieved before the index bound was checked")

        monkeypatch.setattr(arith, "odd_prime_flags", refuse)
        assert run(["--out", str(tmp_path), "pipeline", "--X", "1100000000000", "--Q", "10"]) == 2
        assert capsys.readouterr().err.startswith("error: X = 1100000000000 ends omega's window")
        assert not list(tmp_path.iterdir())

    def test_preset_is_its_x(self, tmp_path):
        assert run(["--out", str(tmp_path / "preset"), "pipeline", "--preset", "desk-small"]) == 0
        assert run(["--out", str(tmp_path / "x"), "pipeline", "--X", "200000"]) == 0

        def outputs(name):
            summary = json.loads((tmp_path / name / "pipeline-summary.json").read_text())
            chain = (tmp_path / name / "pipeline-chain.csv").read_text().splitlines()
            return summary["report"], [line for line in chain if not line.startswith("#")]

        assert outputs("preset") == outputs("x")


class TestExceptional:
    def test_small_window(self, tmp_path):
        assert run(["--out", str(tmp_path), "exceptional", "--X", "10000", "--H", "200"]) == 0
        rows = [
            l for l in (tmp_path / "exceptional-set.csv").read_text().splitlines()
            if not l.startswith("#")
        ]
        assert rows == ["n"]  # empty body: no exceptions

    def test_summary_names_the_deciding_prime(self, tmp_path):
        assert run(["--out", str(tmp_path), "exceptional", "--X", "600000", "--H", "100000"]) == 0
        summary = json.loads((tmp_path / "exceptional-summary.json").read_text())
        assert summary["count"] == 0
        assert (summary["max_least_prime"], summary["max_least_n"]) == (523, 503_222)
        assert summary["p_bound"] >= 523


class TestSeries:
    def test_table(self, tmp_path):
        assert run(["--out", str(tmp_path), "series", "--n-start", "4", "--n-stop", "20"]) == 0
        rows = [
            l for l in (tmp_path / "singular-series.csv").read_text().splitlines()
            if not l.startswith("#")
        ]
        assert rows[0] == "n,partial_sum,euler_product"
        assert len(rows) == 1 + 9

    def test_empty_range_exits_2_and_writes_nothing(self, tmp_path, capsys):
        assert run(["--out", str(tmp_path), "series", "--n-start", "10", "--n-stop", "4"]) == 2
        assert "empty range" in capsys.readouterr().err
        assert not (tmp_path / "singular-series.csv").exists()
        assert not (tmp_path / "series-summary.json").exists()
        # a range of one n is not empty
        assert run(["--out", str(tmp_path), "series", "--n-start", "10", "--n-stop", "10"]) == 0
        assert json.loads((tmp_path / "series-summary.json").read_text())["rows"] == 1

    @pytest.mark.parametrize("flag, value", [("--n-start", "1"), ("--q-max", "0"), ("--prime-bound", "1")])
    def test_bad_bound_exits_2_and_writes_nothing(self, tmp_path, flag, value):
        assert run(["--out", str(tmp_path), "series", flag, value]) == 2
        assert not (tmp_path / "singular-series.csv").exists()
        assert not (tmp_path / "series-summary.json").exists()

    def test_n_at_the_int64_edge(self, tmp_path):
        # np.arange passed 2**63 at n_stop + 1 and gave float64: every n read 9.223372036854774e+18
        start, stop = 9223372036854774000, 2**63 - 1
        argv = ["series", "--n-start", str(start), "--n-stop", str(stop), "--q-max", "10", "--prime-bound", "100"]
        assert run(["--out", str(tmp_path), *argv]) == 0
        header, *rows = table(tmp_path / "singular-series.csv")
        assert [int(row[0]) for row in rows] == list(range(start, stop + 1, 2))
        for row in (rows[0], rows[-1]):
            n = int(row[0])
            assert row[1:] == [f"{goldbach.singular_series(n, 10):.10g}", f"{goldbach.singular_series_product(n, 100):.10g}"]

    @pytest.mark.parametrize("start, stop", [(2**63 - 10, 2**63), (2**63, 2**63 + 2)])
    def test_n_past_int64_exits_2_and_writes_nothing(self, tmp_path, capsys, start, stop):
        assert run(["--out", str(tmp_path), "series", "--n-start", str(start), "--n-stop", str(stop)]) == 2
        assert capsys.readouterr().err == f"error: n_stop {stop} lies past the int64 range: n must be below 2**63\n"
        assert not list(tmp_path.iterdir())

    def test_step_below_one_exits_2(self, tmp_path, capsys):
        for step in ("0", "-2"):
            assert run(["--out", str(tmp_path), "series", "--n-step", step]) == 2
            assert "n_step must be >= 1" in capsys.readouterr().err

    def test_mu_phi_table_over_cap_exits_2(self, tmp_path, monkeypatch, capsys):
        argv = ["--out", str(tmp_path), "series", "--q-max", "1000", "--prime-bound", "1000"]
        # a fresh table for q <= 1000 holds 1024 entries, the largest estimate of the run
        estimate = arith.MU_PHI_BYTES * 1024
        for cap in (estimate, estimate - 1):
            monkeypatch.setattr(arith, "_mu_phi", (np.zeros(1, dtype=np.int8), np.zeros(1, dtype=np.int64)))
            monkeypatch.setattr(errors, "MEMORY_CAP", cap)
            assert run(argv) == (0 if cap == estimate else 2)
        assert f"the mu/phi table up to 1023 needs {estimate} bytes, beyond the cap {estimate - 1} bytes" in capsys.readouterr().err
        fresh = tmp_path / "over"
        assert run(["--out", str(fresh), *argv[2:]]) == 2
        assert not (fresh / "singular-series.csv").exists()
        assert not (fresh / "series-summary.json").exists()


class TestModelDump:
    def test_lambda_q_dump_round_trips(self, tmp_path):
        assert run(["--out", str(tmp_path), "model", "--which", "lambda_q", "--Y", "1000", "--Q", "5"]) == 0
        with open(tmp_path / "model-lambda_q.txt") as fh:
            fn = read_arithfn(fh)
        assert fn.support_start == 1001
        assert len(fn) == 1000

    def test_t_nu_plus_dump(self, tmp_path):
        assert run(["--out", str(tmp_path), "model", "--which", "t_nu_plus", "--Y", "1000", "--Q", "5"]) == 0
        with open(tmp_path / "model-t_nu_plus.txt") as fh:
            fn = read_arithfn(fh)
        assert float(fn.values.min()) >= 0.0

    def test_t_nu_plus_header_has_resolved_sieve_defaults(self, tmp_path):
        assert run(["--out", str(tmp_path), "model", "--which", "t_nu_plus", "--Y", "1000", "--Q", "5"]) == 0
        header = (tmp_path / "model-t_nu_plus.txt").read_text().splitlines()
        assert "# beta = 10" in header
        assert "# sift = 5.0" in header
        assert "# level = 48828125.0" in header  # untruncated_level(5) = 5^11

    def test_t_nu_plus_default_level_follows_beta(self, tmp_path):
        # untruncated_level(5, 12) = 5^13; the beta = 10 level 5^11 would leave
        # a truncated sieve that weighs n in (2000, 4000] that are not 5-rough
        argv = ["--out", str(tmp_path), "model", "--which", "t_nu_plus", "--Y", "2000", "--Q", "5", "--beta", "12"]
        assert run(argv) == 0
        path = tmp_path / "model-t_nu_plus.txt"
        assert "# level = 1220703125.0" in path.read_text().splitlines()
        with open(path) as fh:
            fn = read_arithfn(fh)
        assert fn.support_start == 2001
        expected = (1.0 / mertens_product(5.0)) * rough_flags(2001, 4001, 5).astype(np.float64)
        assert np.array_equal(fn.values, expected)

    @pytest.mark.parametrize("big_q", [80, 75])
    def test_t_nu_plus_default_is_the_rough_indicator(self, tmp_path, big_q):
        # float(untruncated_level(75)) lies below the integer level, so the
        # default rounds up to the next float to stay untruncated
        argv = ["--out", str(tmp_path), "model", "--which", "t_nu_plus", "--Y", "1000", "--Q", str(big_q)]
        assert run(argv) == 0
        with open(tmp_path / "model-t_nu_plus.txt") as fh:
            fn = read_arithfn(fh)
        expected = (1.0 / mertens_product(big_q)) * rough_flags(1001, 2001, big_q).astype(np.float64)
        assert np.array_equal(fn.values, expected)

    def test_t_nu_plus_level_beyond_float_range_exits_2(self, tmp_path, capsys):
        argv = ["--out", str(tmp_path), "model", "--which", "t_nu_plus", "--Y", "1000", "--Q", "800"]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "sift = 800.0" in err and "beta = 10" in err

    def test_t_nu_plus_level_past_int64(self, tmp_path):
        # floor(D) >= 2^63: the weights' d are Python ints, so the strided sums can slice by them
        argv = ["model", "--which", "t_nu_plus", "--Y", "1000", "--sift", "60", "--beta", "1", "--level", "1.5e19"]
        assert run(["--out", str(tmp_path), *argv]) == 0
        with open(tmp_path / "model-t_nu_plus.txt") as fh:
            fn = read_arithfn(fh)
        assert fn.support_start == 1001 and float(fn.values.min()) >= 0.0

    def test_lambda_q_header_omits_sieve_parameters(self, tmp_path):
        assert run(["--out", str(tmp_path), "model", "--which", "lambda_q", "--Y", "1000", "--Q", "5"]) == 0
        text = (tmp_path / "model-lambda_q.txt").read_text()
        assert "# beta" not in text and "# sift" not in text and "# level" not in text

    @pytest.mark.parametrize("which, extra, named", [
        ("lambda_q", ["--beta", "3", "--sift", "7", "--level", "99"], "beta, sift, level"),
    ])
    def test_parameters_the_model_does_not_read_exit_2(self, tmp_path, capsys, which, extra, named):
        argv = ["--out", str(tmp_path), "model", "--which", which, "--Y", "100", "--Q", "5"]
        assert run(argv + extra) == 2
        assert f"model {which!r} does not read {named}" in capsys.readouterr().err

    def test_unread_parameter_from_env_or_config_exits_2(self, tmp_path, monkeypatch):
        argv = ["--out", str(tmp_path), "model", "--which", "lambda_q", "--Y", "100"]
        monkeypatch.setenv("CML_BETA", "2")
        assert run(argv) == 2
        monkeypatch.delenv("CML_BETA")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sift = 7\n")
        assert run(["--config", str(cfg)] + argv) == 2
        assert run(argv) == 0


class TestParser:
    def test_one_parser_per_process_reaches_patched_names(self, tmp_path, monkeypatch):
        # the handlers look up what they call when they run, so a patch made
        # after the parser was built still reaches them
        calls = []
        monkeypatch.setattr(cli, "singular_series", lambda ns, q_max: calls.extend(ns.tolist()) or np.ones(len(ns)))
        cli.build_parser.cache_clear()
        for out in ("first", "second"):
            assert run(["--out", str(tmp_path / out), "series", "--n-start", "4", "--n-stop", "8"]) == 0
        assert (cli.build_parser.cache_info().misses, cli.build_parser.cache_info().hits) == (1, 1)
        assert calls == [4, 6, 8, 4, 6, 8]
        assert table(tmp_path / "second" / "singular-series.csv")[1][1] == "1"


class TestParameterResolution:
    def test_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("x = 10000\nh = 100\n")
        assert run(["--out", str(tmp_path), "--config", str(cfg), "exceptional"]) == 0
        text = (tmp_path / "exceptional-set.csv").read_text()
        assert "# x = 10000" in text
        assert "# h = 100" in text

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        assert run(["--out", str(tmp_path), "--config", str(cfg), "exceptional"]) == 2

    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CML_X", "12000")
        monkeypatch.setenv("CML_H", "50")
        assert run(["--out", str(tmp_path), "exceptional"]) == 0
        text = (tmp_path / "exceptional-set.csv").read_text()
        assert "# x = 12000" in text

    def test_bad_config_value_exits_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("x = abc\n")
        assert run(["--out", str(tmp_path), "--config", str(cfg), "exceptional"]) == 2

    def test_bad_env_value_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CML_H", "1e3")
        assert run(["--out", str(tmp_path), "exceptional", "--X", "10000"]) == 2

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CML_X", "12000")
        assert run(["--out", str(tmp_path), "exceptional", "--X", "9000", "--H", "50"]) == 0
        assert "# x = 9000" in (tmp_path / "exceptional-set.csv").read_text()


# (subcommand, key): the command line a row is varied on, and one valid desk value other than its default.
# The sieve rows of `model` are read only at --which t_nu_plus, and --beta moves it only below the
# untruncated level, which follows beta by default.
OTHER_VALUE = {
    ("verify gallagher", "delta"): ([], "20"),
    ("verify gallagher", "trials"): ([], "50"),
    ("verify gallagher", "span"): ([], "5000"),
    ("verify gallagher", "seed"): ([], "7"),
    ("verify lambda_q_short", "big_q"): ([], "11"),
    ("verify lambda_q_short", "grid"): ([], "medium"),
    ("verify sieve_short", "grid"): ([], "medium"),
    ("verify closeness", "y"): ([], "50000"),
    ("verify closeness", "h_exponent"): ([], "0.35"),
    ("verify closeness", "big_q"): ([], "11"),
    ("verify closeness", "workers"): ([], "2"),
    ("pipeline", "preset"): ([], "desk-medium"),  # desk-small is the default --X 200000
    ("pipeline", "x"): ([], "300000"),
    ("pipeline", "y"): ([], "2000"),
    ("pipeline", "h"): ([], "100"),
    ("pipeline", "big_q"): ([], "11"),
    ("pipeline", "kappa"): ([], "10"),
    ("exceptional", "x"): ([], "100000"),
    ("exceptional", "h"): ([], "1000"),
    ("series", "n_start"): ([], "10"),
    ("series", "n_stop"): ([], "50"),
    ("series", "n_step"): ([], "4"),
    ("series", "q_max"): ([], "10"),
    ("series", "prime_bound"): ([], "10"),
    ("model", "which"): ([], "t_nu_plus"),
    ("model", "y"): ([], "5000"),
    ("model", "big_q"): ([], "11"),
    ("model", "beta"): (["--which", "t_nu_plus", "--level", "1000"], "3"),
    ("model", "sift"): (["--which", "t_nu_plus"], "20"),
    ("model", "level"): (["--which", "t_nu_plus"], "1000"),
}
# accepted and ignored, as the benchmark's closeness tasks pass it
MOVES_NOTHING = {("verify closeness", "workers")}


def computed(out):
    """What a run computed: the data rows of each report, and its summary without the
    echoed parameters and pipeline config (the model file by its name, not its path)."""
    found = {}
    for path in out.iterdir():
        if path.name.endswith("-summary.json"):
            summary = json.loads(path.read_text())
            del summary["params"]
            summary.get("report", {}).pop("config", None)
            if "file" in summary:
                summary["file"] = Path(summary["file"]).name
            found[path.name] = summary
        else:
            found[path.name] = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return found


@pytest.mark.parametrize("name, param", [(name, param) for name, _, _, table in cli.COMMANDS for param in table],
                         ids=lambda value: value if isinstance(value, str) else value.flag)
def test_every_setting_moves_an_output(tmp_path, name, param):
    # a setting that moves no data row and no summary value computes nothing
    base, value = OTHER_VALUE[name, param.key]
    argv = [*name.split(), *base]
    assert run(["--out", str(tmp_path / "default"), *argv]) == 0
    assert run(["--out", str(tmp_path / "other"), *argv, param.flag, value]) == 0
    moved = computed(tmp_path / "default") != computed(tmp_path / "other")
    assert moved is ((name, param.key) not in MOVES_NOTHING)


class TestReportFormat:
    @pytest.mark.parametrize("argv", [
        ["verify", "gallagher", "--trials", "3", "--span", "2000"],
        ["verify", "lambda_q_short"],
        ["verify", "sieve_short"],
        ["verify", "closeness", "--Y", "20000", "--Q", "5"],
        ["pipeline", "--preset", "desk-small"],
        ["exceptional", "--X", "10000", "--H", "200"],
        ["series", "--n-start", "4", "--n-stop", "20"],
    ], ids=" ".join)
    def test_every_line_ends_in_newline(self, tmp_path, argv):
        assert run(["--out", str(tmp_path), *argv]) == 0
        tables = list(tmp_path.glob("*.csv"))
        assert tables
        for path in tables:
            body = path.read_bytes()
            assert b"\r" not in body, path.name
            assert body.endswith(b"\n")


class TestSeedPlacement:
    def test_seed_accepted_after_subcommand(self, tmp_path):
        code = run(["--out", str(tmp_path), "verify", "gallagher",
                    "--trials", "5", "--span", "2000", "--seed", "3"])
        assert code == 0
        text = (tmp_path / "gallagher-ratios.csv").read_text()
        assert "# seed = 3" in text and text.count("seed") == 1


def _unloadable(name):
    raise OSError(f"{name}: cannot open shared object file")


class TestAllocatorPolicy:
    @pytest.mark.parametrize("cdll", [_unloadable, lambda name: object()], ids=["unloadable", "without mallopt"])
    def test_main_runs_where_mallopt_is_missing(self, tmp_path, monkeypatch, cdll):
        # main keeps its freed heap through glibc's mallopt; where libc cannot be
        # loaded, or has no mallopt (as on macOS), it writes the same files
        assert run(["--out", str(tmp_path / "glibc"), *DESK_SMALL]) == 0
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert run(["--out", str(tmp_path / "other"), *DESK_SMALL]) == 0
        written = sorted(path.name for path in (tmp_path / "glibc").iterdir())
        assert sorted(path.name for path in (tmp_path / "other").iterdir()) == written
        for name in written:
            assert (tmp_path / "other" / name).read_bytes() == (tmp_path / "glibc" / name).read_bytes(), name


class TestMemoryCap:
    @skip_without_proc
    @pytest.mark.parametrize("argv", [
        ["series", "--prime-bound", "3000000000"],  # the prime cache
        ["model", "--which", "t_nu_plus", "--sift", "1e300", "--beta", "100"],  # the primes of the default level
        ["model", "--which", "lambda_q", "--Y", "1000000000"],  # the model's window
        ["verify", "gallagher", "--span", "200000000", "--trials", "1"],  # the draw
        ["verify", "lambda_q_short", "--Q", "10000000"],  # the sweep's points
        ["model", "--which", "t_nu_plus", "--Y", "1000", "--sift", "3000", "--beta", "1", "--level", "1e300"],  # the weights
    ], ids=" ".join)
    def test_request_over_the_cap_exits_2_before_it_allocates(self, tmp_path, argv):
        # in a child that may map 1 GB, so an allocation the cap misses ends in a MemoryError (exit 1)
        done = measure_cli(["--out", tmp_path / "out", *argv], address_space=1 << 30)
        assert done.code == 2, done.stderr
        assert done.stderr.startswith("error: ") and "beyond the cap 2147483648 bytes" in done.stderr
        assert not (tmp_path / "out").exists()

    @skip_without_proc
    def test_estimates_bound_the_measured_peak(self, tmp_path):
        # one point per subcommand that sizes memory, one for Lambda_Q and one for the sieve weights, each
        # estimated at 50 MB or more: what the child held above its imports (VmHWM) is at most the
        # largest estimate it met against the cap
        points = [
            ["verify", "gallagher", "--span", "500000", "--trials", "1"],
            ["verify", "closeness", "--Y", "600000"],
            ["pipeline", "--X", "1200000", "--Y", "400000"],
            # long H, where the dense chunks set the peak: without their two dense factors the
            # estimate read 100.4 MB against 107.7 MB held
            ["pipeline", "--X", "1000000", "--Y", "300000", "--H", "250000"],
            ["exceptional", "--X", "100000000000000", "--H", "10"],
            ["series", "--q-max", "1200000", "--n-stop", "10"],
            ["model", "--which", "t_nu_plus", "--Y", "2500000"],
            # Lambda_Q's weights: with cli.main's mmap and trim thresholds at 16 and 32 MB in place of
            # 8 and 16, the child held 56.8 MB here, over the 54.9 MB estimate
            ["model", "--which", "lambda_q", "--Y", "1000", "--Q", "600000"],
            # the truncated sieve's 524207 weights, their d past the int64 range
            ["model", "--which", "t_nu_plus", "--Y", "1000", "--sift", "67", "--beta", "1", "--level", "1e23"],
        ]
        for i, argv in enumerate(points):
            done = measure_cli(["--out", tmp_path / str(i), *argv])
            assert done.code == 0, done.stderr
            assert done.peak_mb - done.base_mb <= done.estimate_mb, argv
            assert done.estimate_mb >= 50, argv


class TestReadme:
    def test_cli_examples_run(self, tmp_path):
        # every `cmlab ...` line of the README's CLI block, so a renamed or
        # dropped flag fails here instead of leaving the docs wrong
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = re.search(r"## CLI\n\n```sh\n(.*?)```", readme, re.S).group(1)
        commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("cmlab ")]
        assert commands
        for i, argv in enumerate(commands):
            code = run(["--out", str(tmp_path / str(i)), *argv])
            assert code == 0, argv
            # one verdict shape: passed is the conjunction of the checks, and it sets the exit code
            (path,) = (tmp_path / str(i)).glob("*-summary.json")
            summary = json.loads(path.read_text())
            assert all(set(check) == {"name", "value", "bound", "margin", "passed"} for check in summary["checks"])
            assert summary["passed"] is all(check["passed"] for check in summary["checks"])
            assert (code == 0) is summary["passed"]
            assert (summary["checks"] == []) is (argv[0] in ("exceptional", "series", "model"))


class TestEveryCheckCanFail:
    @pytest.mark.parametrize("argv, counter, name", COUNTERS)
    def test_counter_input_fails_the_check(self, tmp_path, monkeypatch, argv, counter, name):
        counter(monkeypatch)
        assert run(["--out", str(tmp_path), *argv]) == 1
        (path,) = tmp_path.glob("*-summary.json")
        summary = json.loads(path.read_text())
        (check,) = [check for check in summary["checks"] if check["name"] == name]
        assert check["passed"] is False and check["margin"] < 0
        assert summary["passed"] is False

    def test_gallagher_margin(self, tmp_path, monkeypatch):
        monkeypatch.setattr(constants, "GALLAGHER_RATIO_CEILING", 4.0)
        assert run(["--out", str(tmp_path), *GALLAGHER_7]) == 1
        checks = json.loads((tmp_path / "verify-gallagher-summary.json").read_text())["checks"]
        assert checks[0]["name"] == "max ratio"
        assert checks[0]["value"] == pytest.approx(4.2354, abs=1e-4)
        assert checks[0]["margin"] == pytest.approx((4.0 - checks[0]["value"]) / 4.0)
        assert checks[0]["margin"] == pytest.approx(-0.0588, abs=1e-4)

    @pytest.mark.parametrize("argv, names", [
        (GALLAGHER_7, ["max ratio", "max ratio vs baseline"]),
        (["verify", "gallagher", "--seed", "8"], ["max ratio"]),  # the baseline was measured at seed 7
        (DESK_SMALL, PIPELINE_CHECKS + PIPELINE_BASELINES),
        (["pipeline", "--X", "200000"], PIPELINE_CHECKS + PIPELINE_BASELINES),  # the desk-small config
        (["pipeline", "--X", "200000", "--Q", "11"], PIPELINE_CHECKS),
    ])
    def test_baselines_are_checked_where_they_were_measured(self, tmp_path, argv, names):
        assert run(["--out", str(tmp_path), *argv]) == 0
        (path,) = tmp_path.glob("*-summary.json")
        assert [check["name"] for check in json.loads(path.read_text())["checks"]] == names
