import json
import os

import numpy as np
import pytest

from cmlab import arith, arithfn
from cmlab.arith import rough_flags
from cmlab.arithfn import read_arithfn
from cmlab.cli import main
from cmlab.models import mertens_product


def run(argv):
    return main(argv)


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

    def test_workers_belongs_to_closeness_only(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["--out", str(tmp_path), "series", "--workers", "3"])
        assert exc.value.code == 2


class TestVerify:
    def test_gallagher(self, tmp_path):
        code = run([
            "--out", str(tmp_path), "--seed", "7",
            "verify", "gallagher", "--delta", "50", "--trials", "10",
        ])
        assert code == 0
        summary = json.loads((tmp_path / "verify-gallagher-summary.json").read_text())
        assert summary["passed"] is True
        assert summary["max_ratio"] <= 20.0

    def test_gallagher_deterministic_output(self, tmp_path):
        args = ["--seed", "11", "verify", "gallagher", "--trials", "5", "--span", "2000"]
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
        # pi(73) = 21, so enumerating the untruncated sieve would pass the 2^20
        # weight cap; Y = 10^4 because at Y = 1000 the ordering itself fails
        # (at Q = 71 as at Q = 100)
        assert run(["--out", str(tmp_path), "verify", "closeness", "--Y", "10000", "--Q", "100"]) == 0

    def test_closeness_spectrum_over_cap_exits_2(self, tmp_path, monkeypatch, capsys):
        # Y = 1000: d = f - g spans 1000 points, a spectrum grid of 2^13
        argv = ["--out", str(tmp_path), "verify", "closeness", "--Y", "1000"]
        assert run(argv) == 0
        monkeypatch.setattr(arithfn, "SPECTRUM_CAP", 1 << 12)
        assert run(argv) == 2
        assert "beyond the cap" in capsys.readouterr().err


class TestPipeline:
    def test_preset_run(self, tmp_path):
        assert run(["--out", str(tmp_path), "pipeline", "--preset", "desk-small"]) == 0
        body = (tmp_path / "pipeline-chain.csv").read_text()
        assert "n,lambda_conv,omega_model_conv,verdict" in body
        assert "# x = 200000" in body
        summary = json.loads((tmp_path / "pipeline-summary.json").read_text())
        assert summary["report"]["final_failures"] == 0

    def test_beyond_q_72(self, tmp_path):
        assert run(["--out", str(tmp_path), "pipeline", "--X", "200000", "--Q", "100"]) == 0


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

    def test_empty_range_has_no_rows(self, tmp_path):
        assert run(["--out", str(tmp_path), "series", "--n-start", "10", "--n-stop", "4"]) == 0
        summary = json.loads((tmp_path / "series-summary.json").read_text())
        assert summary["rows"] == 0
        rows = [l for l in (tmp_path / "singular-series.csv").read_text().splitlines() if not l.startswith("#")]
        assert rows == ["n,partial_sum,euler_product"]

    def test_step_below_one_exits_2(self, tmp_path, capsys):
        for step in ("0", "-2"):
            assert run(["--out", str(tmp_path), "series", "--n-step", step]) == 2
            assert "n_step must be >= 1" in capsys.readouterr().err

    def test_mu_phi_table_over_cap_exits_2(self, tmp_path, monkeypatch, capsys):
        argv = ["--out", str(tmp_path), "series", "--q-max", "1000"]
        assert run(argv) == 0
        # a fresh table for q <= 1000 holds 1001 entries of 9 bytes
        monkeypatch.setattr(arith, "_mu_phi", (np.zeros(1, dtype=np.int8), np.zeros(1, dtype=np.int64)))
        monkeypatch.setattr(arith, "MU_PHI_CAP", 9000)
        assert run(argv) == 2
        assert "beyond the cap 9000 bytes" in capsys.readouterr().err


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

    def test_lambda_q_header_omits_sieve_parameters(self, tmp_path):
        assert run(["--out", str(tmp_path), "model", "--which", "lambda_q", "--Y", "1000", "--Q", "5"]) == 0
        text = (tmp_path / "model-lambda_q.txt").read_text()
        assert "# beta" not in text and "# sift" not in text and "# level" not in text
        assert "# c_nu" not in text

    @pytest.mark.parametrize("which, extra, named", [
        ("t_nu", ["--beta", "3", "--sift", "7", "--level", "99"], "beta, sift, level"),
        ("lambda_q", ["--c-nu", "2"], "c_nu"),
    ])
    def test_parameters_the_model_does_not_read_exit_2(self, tmp_path, capsys, which, extra, named):
        argv = ["--out", str(tmp_path), "model", "--which", which, "--Y", "100", "--Q", "5"]
        assert run(argv + extra) == 2
        assert f"model {which!r} does not read {named}" in capsys.readouterr().err

    def test_unread_parameter_from_env_or_config_exits_2(self, tmp_path, monkeypatch):
        argv = ["--out", str(tmp_path), "model", "--which", "lambda_q", "--Y", "100"]
        monkeypatch.setenv("CML_C_NU", "2")
        assert run(argv) == 2
        monkeypatch.delenv("CML_C_NU")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sift = 7\n")
        assert run(["--config", str(cfg)] + argv) == 2
        assert run(argv) == 0


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


class TestSeedPlacement:
    def test_seed_accepted_after_subcommand(self, tmp_path):
        code = run(["--out", str(tmp_path), "verify", "gallagher",
                    "--trials", "5", "--span", "2000", "--seed", "3"])
        assert code == 0
        text = (tmp_path / "gallagher-ratios.csv").read_text()
        assert "# seed = 3" in text and text.count("seed") == 1
