import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qharness import cli
from qharness.certificates import integrability_constant, make_certificate
from qharness.cli import main, parse_args
from qharness.core import KINDS, HarnessParams
from qharness.empirics import estimate_conditional, hill_tail_index, path_empirics
from qharness.moments import TwoPointLaw, marginal_moments
from qharness.simulate import (
    BLOCK_PATHS,
    Ensemble,
    ProcessKind,
    ensemble_to_csv,
    load_ensemble,
    sample_ensemble,
    save_ensemble,
)


def run_cli(argv):
    return main(list(argv))


class TestParseArgs:
    def test_simulate_mapping(self):
        cfg = parse_args(
            ["simulate", "--process", "wiener", "--grid", "0.5,1.0",
             "--paths", "100000", "--seed", "42", "--out", "e.qhe"]
        )
        assert cfg.command == "simulate"
        assert cfg.params["process"] == "wiener"
        assert cfg.params["grid"] == "0.5,1.0"
        assert cfg.params["paths"] == 100000
        assert cfg.seed == 42
        assert cfg.out == "e.qhe"
        assert cfg.format == "qhe"

    def test_certificate_mapping(self):
        cfg = parse_args(["certificate", "--p", "4", "--mode", "exact"])
        assert cfg.command == "certificate"
        assert cfg.params["p"] == 4.0 and cfg.params["mode"] == "exact"

    def test_unsupported_process_rejected(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["simulate", "--process", "meixner", "--grid", "1.0",
                        "--paths", "10", "--out", "x.qhe"])
        assert exc.value.code == 2

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["certificate", "--p", "4", "--frobnicate", "1"])
        assert exc.value.code == 2

    def test_unknown_subcommand_rejected(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["transmogrify"])
        assert exc.value.code == 2

    def test_missing_required_rejected(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["simulate", "--process", "wiener"])
        assert exc.value.code == 2

    def test_config_file_supplies_values(self, tmp_path):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"p": 4, "mode": "exact"}))
        cfg = parse_args(["certificate", "--config", str(cfg_file)])
        assert cfg.params["p"] == 4 and cfg.params["mode"] == "exact"

    def test_explicit_flags_override_config(self, tmp_path):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"p": 4, "mode": "exact", "seed": 9}))
        cfg = parse_args(["certificate", "--config", str(cfg_file), "--p", "8"])
        assert cfg.params["p"] == 8.0
        assert cfg.params["mode"] == "exact"
        assert cfg.seed == 9

    def test_config_unknown_keys_rejected(self, tmp_path):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"p": 4, "bogus": 1}))
        with pytest.raises(ValueError, match="bogus"):
            parse_args(["certificate", "--config", str(cfg_file)])


class TestCertificateCommand:
    def test_printed_constant_artifact(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        code = run_cli(["certificate", "--p", "4", "--mode", "paper", "--out", str(out)])
        assert code == 0
        artifact = json.loads(out.read_text())
        assert artifact["version"]
        assert artifact["seed"] == 0
        assert artifact["config"]["p"] == 4.0
        assert artifact["results"]["constant"] == 240.0
        assert artifact["results"]["valid"] is True

    def test_exact_constant(self, tmp_path):
        out = tmp_path / "cert.json"
        assert run_cli(["certificate", "--p", "4", "--mode", "exact", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["results"]["constant"] == 128.0

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(["certificate", "--p", "8", "--mode", "exact", "--out", str(a)])
        run_cli(["certificate", "--p", "8", "--mode", "exact", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_sidecar_log_written(self, tmp_path):
        out = tmp_path / "cert.json"
        run_cli(["certificate", "--p", "4", "--out", str(out)])
        assert (tmp_path / "cert.json.log").exists()

    def test_embedding_with_sigma_tau(self, tmp_path):
        out = tmp_path / "cert.json"
        code = run_cli(["certificate", "--p", "3", "--mode", "paper",
                        "--sigma", "1e-7", "--tau", "1e-7", "--out", str(out)])
        assert code == 0
        res = json.loads(out.read_text())["results"]
        assert res["order_condition"]["within"] is True
        assert res["embedding"]["check_rho"] == pytest.approx(0.75)

    def test_invalid_chain_exits_one(self, tmp_path):
        out = tmp_path / "cert.json"
        code = run_cli(["certificate", "--p", "3", "--mode", "paper",
                        "--sigma", "0.1", "--tau", "0.1", "--out", str(out)])
        assert code == 1
        assert json.loads(out.read_text())["results"]["valid"] is False

    @pytest.mark.parametrize("p", ["16399", "1e12"])
    def test_large_tied_order_exits_zero(self, tmp_path, p):
        out = tmp_path / "cert.json"
        assert run_cli(["certificate", "--p", p, "--mode", "exact", "--out", str(out)]) == 0
        res = json.loads(out.read_text())["results"]
        assert res["valid"] is True and "split_w" not in res


    def test_order_past_rho_rounding_exits_zero(self, tmp_path):
        # rho = 1 - 1/(p+1) rounds to 1 at this order; the chain carries u
        out = tmp_path / "cert.json"
        assert run_cli(["certificate", "--p", "3e16", "--mode", "exact", "--out", str(out)]) == 0
        res = json.loads(out.read_text())["results"]
        assert res["rho"] == 1.0 and res["u"] == 1.0 / (3e16 + 1.0)
        assert res["valid"] is True and res["constant"] == 128.0

    @pytest.mark.parametrize("p", ["1e16", "3e16", "1e20"])
    def test_embedding_past_rho_rounding_exits_zero(self, tmp_path, p):
        # the embedding takes u, so it stays defined where rho rounds to 1
        out = tmp_path / "cert.json"
        code = run_cli(["certificate", "--p", p, "--mode", "exact",
                        "--sigma", "1e-40", "--tau", "1e-40", "--out", str(out)])
        assert code == 0
        res = json.loads(out.read_text())["results"]
        assert res["valid"] is True and res["order_condition"]["within"] is True

    @pytest.mark.parametrize("mode", ["paper", "exact"])
    def test_coefficient_overflow_exits_two(self, tmp_path, capsys, mode):
        out = tmp_path / "cert.json"
        code = run_cli(["certificate", "--p", "1e100", "--mode", mode, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("qharness certificate: error: ") and err.count("\n") == 1
        assert "p=1e+100" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("st, delta, code", [("1e200", 2e200, 1), ("1e-200", 2e-200, 0)])
    def test_embedding_where_product_leaves_float_range(self, tmp_path, st, delta, code):
        # sigma*tau overflows or underflows; delta and the order condition stay finite
        out = tmp_path / "cert.json"
        assert run_cli(["certificate", "--p", "4", "--mode", "exact",
                        "--sigma", st, "--tau", st, "--out", str(out)]) == code
        res = json.loads(out.read_text())["results"]
        assert res["embedding"]["delta"] == pytest.approx(delta, rel=1e-15, abs=0.0)
        lhs = res["order_condition"]["lhs"]
        assert lhs == 5.0 * res["embedding"]["delta"] / 2.0
        assert res["order_condition"]["within"] is (code == 0)

    @pytest.mark.parametrize("sigma, tau", [("1e-300", "1e300"), ("1e300", "1e-300"),
                                            ("inf", "1")])
    def test_embedding_outside_float_range_exits_two(self, tmp_path, capsys, sigma, tau):
        out = tmp_path / "cert.json"
        code = run_cli(["certificate", "--p", "4", "--mode", "exact",
                        "--sigma", sigma, "--tau", tau, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("qharness certificate: error: sigma = ") and err.count("\n") == 1
        assert " and tau = " in err
        assert list(tmp_path.iterdir()) == []


class TestFormatContract:
    @pytest.mark.parametrize("argv", [
        ["verify", "e.qhe", "--s", "0.5", "--t", "1.0", "--format", "yaml"],
        ["tails", "e.qhe", "--s", "0.5", "--t", "1.0", "--format", "qhe"],
        ["certificate", "--p", "4", "--format", "csv"],
        ["optimize", "--p", "4", "--format", "csv"],
        ["moments", "--format", "csv"],
        ["hankel", "--moments", "1,0,1,0,3", "--format", "csv"],
        ["simulate", "--process", "wiener", "--grid", "0.5,1.0", "--paths", "100",
         "--format", "yaml"],
        ["simulate", "--process", "wiener", "--grid", "0.5,1.0", "--paths", "100",
         "--format", "json"],
    ])
    def test_unsupported_format_exits_two_before_work(self, tmp_path, capsys, monkeypatch,
                                                      argv):
        def forbidden(config):
            raise AssertionError("handler ran")

        monkeypatch.setitem(cli._HANDLERS, argv[0], forbidden)
        out = tmp_path / "artifact"
        code = run_cli(argv + ["--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("qharness: error: ") and err.count("\n") == 1
        assert "--format" in err
        assert list(tmp_path.iterdir()) == []

    def test_config_file_format_checked(self, tmp_path, capsys):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"format": "yaml"}))
        code = run_cli(["certificate", "--p", "4", "--config", str(cfg_file)])
        assert code == 2
        assert capsys.readouterr().err.count("\n") == 1

    @pytest.mark.parametrize("command, formats", [
        ("simulate", ("qhe", "csv")), ("verify", ("json", "csv")), ("tails", ("json", "csv")),
        ("moments", ("json",)), ("hankel", ("json",)), ("certificate", ("json",)),
        ("optimize", ("json",)),
    ])
    def test_default_format_is_first_accepted(self, command, formats):
        argv = {
            "simulate": ["simulate", "--process", "wiener", "--grid", "1", "--paths", "1",
                         "--out", "e.qhe"],
            "verify": ["verify", "e.qhe", "--s", "0.5", "--t", "1"],
            "tails": ["tails", "e.qhe", "--s", "0.5", "--t", "1"],
            "moments": ["moments"],
            "hankel": ["hankel", "--moments", "1,0,1,0,3"],
            "certificate": ["certificate", "--p", "4"],
            "optimize": ["optimize", "--p", "4"],
        }[command]
        assert parse_args(argv).format == formats[0]
        for fmt in formats:
            assert parse_args(argv + ["--format", fmt]).format == fmt


class TestSimulateAndVerify:
    def test_simulate_then_verify(self, tmp_path):
        ens_path = tmp_path / "w.qhe"
        code = run_cli(["simulate", "--process", "wiener", "--grid", "0.5,1.0",
                        "--paths", "40000", "--seed", "42", "--out", str(ens_path)])
        assert code == 0
        ens = load_ensemble(ens_path)
        assert ens.n_paths == 40000 and ens.seed == 42

        report = tmp_path / "verify.json"
        code = run_cli(["verify", str(ens_path), "--s", "0.5", "--t", "1.0",
                        "--out", str(report)])
        assert code == 0
        res = json.loads(report.read_text())["results"]
        assert res["pass"] is True
        assert all(c["pass"] for c in res["checks"])
        for key in ("test", "statistic", "tolerance", "pass"):
            assert key in res["checks"][0]

    def test_simulate_reruns_byte_identical(self, tmp_path):
        args = ["simulate", "--process", "gamma", "--grid", "0.5,1.0",
                "--paths", "5000", "--seed", "11"]
        a, b = tmp_path / "a.qhe", tmp_path / "b.qhe"
        run_cli(args + ["--out", str(a)])
        run_cli(args + ["--out", str(b), "--workers", "4"])
        assert a.read_bytes() == b.read_bytes()

    def test_simulate_csv_format(self, tmp_path):
        out = tmp_path / "e.csv"
        code = run_cli(["simulate", "--process", "poisson", "--grid", "1.0",
                        "--paths", "20", "--seed", "1", "--out", str(out),
                        "--format", "csv"])
        assert code == 0
        assert out.read_text().startswith("path_id,")

    @pytest.mark.parametrize("process, q", [("gamma", "0.3"), ("wiener", "-4")])
    def test_pascal_q_with_a_kind_without_parameter_exits_two(self, tmp_path, capsys,
                                                              process, q):
        out = tmp_path / "e.qhe"
        code = run_cli(["simulate", "--process", process, "--pascal-q", q, "--grid", "1.0",
                        "--paths", "10", "--out", str(out)])
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == (
            f"qharness simulate: error: {process} takes no extra parameter\n")

    def test_pascal_q_from_config_file(self, tmp_path, capsys):
        cfg, out = tmp_path / "c.json", tmp_path / "e.qhe"
        cfg.write_text(json.dumps({"process": "gamma", "pascal_q": 0.3, "grid": "1.0",
                                   "paths": 10}))
        assert run_cli(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.count("\n") == 1 and not out.exists()
        # the default q = 0.5 applies to a kind that takes a parameter
        cfg.write_text(json.dumps({"process": "pascal", "grid": "1.0", "paths": 10}))
        assert run_cli(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert load_ensemble(out).kind.q == 0.5

    @pytest.mark.parametrize("process, code", [("wiener", 0), ("poisson", 1), ("gamma", 2),
                                               ("pascal", 3)])
    def test_container_kind_code_is_pinned(self, tmp_path, process, code):
        # the byte at offset 4 is the kind's index in core.PROCESS_KINDS: the
        # table order is the file format, so reordering the table fails here
        out = tmp_path / "e.qhe"
        assert run_cli(["simulate", "--process", process, "--grid", "1.0", "--paths", "10",
                        "--out", str(out)]) == 0
        assert out.read_bytes()[4] == code
        assert load_ensemble(out).kind.name == process

    def test_verify_failure_exits_one(self, tmp_path):
        # wiener paths labelled as poisson: the quadratic-variance
        # coefficients cannot match the claimed kind
        from qharness.simulate import Ensemble, ProcessKind, sample_ensemble, save_ensemble

        e = sample_ensemble(ProcessKind("wiener"), [0.5, 1.0], 40000, seed=5)
        mislabeled = Ensemble(ProcessKind("poisson"), e.grid, e.paths, seed=e.seed)
        path = tmp_path / "bad.qhe"
        save_ensemble(mislabeled, path)
        report = tmp_path / "report.json"
        code = run_cli(["verify", str(path), "--s", "0.5", "--t", "1.0",
                        "--out", str(report)])
        assert code == 1
        res = json.loads(report.read_text())["results"]
        assert res["pass"] is False
        assert any(not c["pass"] for c in res["checks"])

    def test_verify_sidecar_reports_bins(self, tmp_path):
        # a pascal lattice column has fewer distinct values than 40 bins, so
        # fewer bins come back than were requested
        ens_path = tmp_path / "p.qhe"
        run_cli(["simulate", "--process", "pascal", "--grid", "0.5,1.0",
                 "--paths", "40000", "--seed", "3", "--out", str(ens_path)])
        report = tmp_path / "verify.json"
        code = run_cli(["verify", str(ens_path), "--s", "0.5", "--t", "1.0",
                        "--bins", "40", "--out", str(report)])
        assert code in (0, 1)
        binned = estimate_conditional(load_ensemble(ens_path), 0, 1, 40, "backward")
        assert binned.n_bins < 40
        fields = dict(f.split("=", 1) for f in
                      (tmp_path / "verify.json.log").read_text().split())
        assert fields["bins_requested"] == "40"
        assert fields["bins_returned"] == str(binned.n_bins)
        assert fields["bins_confident"] == str(int(binned.confident.sum()))
        pe = path_empirics(load_ensemble(ens_path), 0, 1)
        assert fields["weights_floored"] == str(pe.weights_floored)
        assert fields["row_blocks"] == str(pe.row_blocks) == "2"
        assert len(json.loads(report.read_text())["results"]["binned"]) == binned.n_bins

    def test_verify_artifact_without_sidecar_is_identical(self, tmp_path, capsys):
        ens_path, report = tmp_path / "g.qhe", tmp_path / "verify.json"
        run_cli(["simulate", "--process", "gamma", "--grid", "0.5,1.0",
                 "--paths", "5000", "--seed", "3", "--out", str(ens_path)])
        args = ["verify", str(ens_path), "--s", "0.5", "--t", "1.0", "--bins", "10"]
        assert run_cli(args + ["--out", str(report)]) == 0
        assert (tmp_path / "verify.json.log").exists()
        capsys.readouterr()
        assert run_cli(args) == 0
        assert capsys.readouterr().out == report.read_text()

    @pytest.mark.parametrize("process, paths, seed, bins", [
        ("gamma", 200_000, 5, 5), ("poisson", 200_000, 17, 5), ("pascal", 200_000, 17, 5),
        ("wiener", 60_000, 5, 400)])
    def test_correct_ensembles_pass_whatever_the_bins(self, tmp_path, process, paths, seed,
                                                      bins):
        # while the verdict came from a fit of the bins, these exited 1 (coarse
        # bins bias the gamma fit; 150-path bins bias the wiener weights) or 2
        # (a lattice column at 5 bins leaves 3 bins)
        ens_path = tmp_path / "e.qhe"
        run_cli(["simulate", "--process", process, "--grid", "0.25,0.5,0.75,1.0",
                 "--paths", str(paths), "--seed", str(seed), "--out", str(ens_path)])
        results = []
        for n_bins in (bins, 40):
            report = tmp_path / f"verify{n_bins}.json"
            code = run_cli(["verify", str(ens_path), "--s", "0.5", "--t", "1.0",
                            "--bins", str(n_bins), "--out", str(report)])
            assert code == 0
            results.append(json.loads(report.read_text())["results"])
        assert results[0]["checks"] == results[1]["checks"]
        assert results[0]["fit"] == results[1]["fit"]

    def test_constant_backward_variance_passes(self, tmp_path):
        # wiener's v is the constant s(t-s)/t = 1/6 here; a mean of n copies
        # of it rounds, and against the resulting ~1e-19 standard error the
        # law-of-total-variance check failed at 316 SE
        ens_path, report = tmp_path / "w.qhe", tmp_path / "verify.json"
        run_cli(["simulate", "--process", "wiener", "--grid", "0.25,0.75",
                 "--paths", "100000", "--seed", "7", "--out", str(ens_path)])
        code = run_cli(["verify", str(ens_path), "--s", "0.25", "--t", "0.75",
                        "--out", str(report)])
        assert code == 0
        checks = {c["test"]: c for c in json.loads(report.read_text())["results"]["checks"]}
        lotv = checks["law-of-total-variance-backward"]
        assert lotv["value"] == lotv["expected"] and lotv["se"] == 0.0

    def test_wrong_parameters_fail_on_the_linear_coefficient(self, tmp_path):
        # pascal (q = 1/2, theta = 3/sqrt(2)) checked against gamma's theta = 2
        ens_path, report = tmp_path / "p.qhe", tmp_path / "verify.json"
        run_cli(["simulate", "--process", "pascal", "--grid", "0.25,0.5,0.75,1.0",
                 "--paths", "200000", "--seed", "17", "--out", str(ens_path)])
        raw = bytearray(ens_path.read_bytes())
        raw[4] = KINDS.index("gamma")
        ens_path.write_bytes(bytes(raw))
        code = run_cli(["verify", str(ens_path), "--s", "0.5", "--t", "1.0",
                        "--bins", "5", "--out", str(report)])
        assert code == 1
        checks = {c["test"]: c for c in json.loads(report.read_text())["results"]["checks"]}
        c1 = checks["backward-quadratic-c1"]
        assert not c1["pass"] and c1["statistic"] > 3.0

    def test_verify_needs_three_values_of_x_t(self, tmp_path, capsys):
        # a two-point X_t fits every quadratic: exit 2 with one line, not a verdict
        from qharness.simulate import Ensemble, ProcessKind, save_ensemble

        rng = np.random.default_rng(0)
        xt = rng.integers(0, 2, 500).astype(float)
        paths = np.column_stack([xt * 0.5 + rng.standard_normal(500), xt])
        ens_path = tmp_path / "two.qhe"
        save_ensemble(Ensemble(ProcessKind("wiener"), np.array([0.5, 1.0]), paths, seed=0),
                      ens_path)
        capsys.readouterr()
        code = run_cli(["verify", str(ens_path), "--s", "0.5", "--t", "1.0"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and "3 distinct values" in err

    def test_verify_missing_file_exits_two(self, tmp_path):
        code = run_cli(["verify", str(tmp_path / "nope.qhe"), "--s", "0.5", "--t", "1.0"])
        assert code == 2

    def test_verify_bad_time_exits_two(self, tmp_path):
        ens_path = tmp_path / "w.qhe"
        run_cli(["simulate", "--process", "wiener", "--grid", "0.5,1.0",
                 "--paths", "100", "--seed", "0", "--out", str(ens_path)])
        assert run_cli(["verify", str(ens_path), "--s", "0.6", "--t", "1.0"]) == 2

    @pytest.mark.parametrize("command", ["verify", "tails"])
    def test_forged_header_exits_two(self, tmp_path, capsys, command):
        ens_path = tmp_path / "w.qhe"
        run_cli(["simulate", "--process", "wiener", "--grid", "0.5,1.0",
                 "--paths", "100", "--seed", "0", "--out", str(ens_path)])
        raw = bytearray(ens_path.read_bytes())
        raw[24:32] = (2**62).to_bytes(8, "little")  # n_paths field of the header
        ens_path.write_bytes(bytes(raw))
        capsys.readouterr()
        code = run_cli([command, str(ens_path), "--s", "0.5", "--t", "1.0"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and "truncated" in err


def sidecar_fields(path) -> dict[str, str]:
    """The key=value fields of the last line of the artifact's .log sidecar."""
    line = Path(str(path) + ".log").read_text().splitlines()[-1]
    return dict(f.split("=", 1) for f in line.split())


class TestTwoColumnHandlers:
    """verify and tails resolve --s/--t on the full grid, then read two columns."""

    @pytest.fixture(scope="class")
    def ensemble(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("ens") / "g.qhe"
        assert run_cli(["simulate", "--process", "gamma", "--grid", "0.25,0.5,0.75,1.0",
                        "--paths", "20000", "--seed", "3", "--out", str(path)]) == 0
        return path

    @pytest.mark.parametrize("command, s, t, message", [
        ("verify", "1.0", "0.5", "need s < t"),
        ("verify", "0.5", "0.5", "need s < t"),
        ("verify", "0.3", "1.0", "time 0.3 is not on the grid [0.25, 0.5, 0.75, 1.0]"),
        ("tails", "1.0", "0.5", "need s < t"),
        ("tails", "0.5", "0.5", "need s < t"),
        ("tails", "0.3", "1.0", "time 0.3 is not on the grid [0.25, 0.5, 0.75, 1.0]"),
    ])
    def test_bad_pair_exits_two(self, tmp_path, capsys, ensemble, command, s, t, message):
        out = tmp_path / "a.json"
        capsys.readouterr()
        code = run_cli([command, str(ensemble), "--s", s, "--t", t, "--out", str(out)])
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == f"qharness {command}: error: {message}\n"

    @pytest.mark.parametrize("bins", ["4", "0"])
    def test_too_few_bins_exit_two_before_any_column(self, tmp_path, capsys, monkeypatch,
                                                     ensemble, bins):
        def no_load(*args, **kwargs):
            raise AssertionError("load_ensemble called")

        monkeypatch.setattr("qharness.simulate.load_ensemble", no_load)
        out = tmp_path / "v.json"
        capsys.readouterr()
        code = run_cli(["verify", str(ensemble), "--s", "0.5", "--t", "1.0", "--bins", bins,
                        "--out", str(out)])
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == (
            f"qharness verify: error: need n_bins >= 5, got {bins}\n")

    def test_verify_echoes_the_full_grid(self, tmp_path, ensemble):
        out = tmp_path / "v.json"
        assert run_cli(["verify", str(ensemble), "--s", "0.25", "--t", "0.75",
                        "--out", str(out)]) in (0, 1)
        res = json.loads(out.read_text())["results"]
        assert res["ensemble"]["grid"] == [0.25, 0.5, 0.75, 1.0]
        assert (res["s"], res["t"]) == (0.25, 0.75)
        assert sidecar_fields(out)["columns_read"] == "2"

    def test_tails_sidecar(self, tmp_path, ensemble):
        out = tmp_path / "t.json"
        assert run_cli(["tails", str(ensemble), "--s", "0.5", "--t", "1.0", "--k", "70",
                        "--thresholds", "0.5,1,2", "--out", str(out)]) == 0
        fields = sidecar_fields(out)
        assert (fields["columns_read"], fields["thresholds"], fields["hill_k"]) == ("2", "3", "70")
        assert run_cli(["tails", str(ensemble), "--s", "0.5", "--t", "1.0",
                        "--out", str(out)]) == 0
        fields = sidecar_fields(out)
        assert (fields["thresholds"], fields["hill_k"]) == ("50", "200")

    @pytest.mark.parametrize("raw", [[], ["--raw"]])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_tails_artifact_without_sidecar_is_identical(self, tmp_path, capsys, ensemble,
                                                         raw, fmt):
        out = tmp_path / f"t.{fmt}"
        args = ["tails", str(ensemble), "--s", "0.25", "--t", "0.75", "--format", fmt, *raw]
        assert run_cli(args + ["--out", str(out)]) == 0
        assert Path(str(out) + ".log").exists()
        capsys.readouterr()
        assert run_cli(args) == 0
        assert capsys.readouterr().out == out.read_text()

    @pytest.mark.parametrize("paths, workers, substreams, used", [
        (100, 3, 4, 1), (2 * BLOCK_PATHS + 1, 2, 12, 2), (2 * BLOCK_PATHS + 1, 5, 12, 3)])
    def test_simulate_sidecar_and_artifact(self, tmp_path, paths, workers, substreams, used):
        out, direct = tmp_path / "p.qhe", tmp_path / "direct.qhe"
        assert run_cli(["simulate", "--process", "pascal", "--grid", "0.25,0.5,0.75,1.0",
                        "--paths", str(paths), "--workers", str(workers), "--seed", "8",
                        "--out", str(out)]) == 0
        fields = sidecar_fields(out)
        assert (fields["substreams"], fields["workers"]) == (str(substreams), str(used))
        assert int(fields["bytes_written"]) == out.stat().st_size
        # the artifact is the container the library writes, with no sidecar
        save_ensemble(sample_ensemble(ProcessKind("pascal", 0.5), [0.25, 0.5, 0.75, 1.0],
                                      paths, seed=8), direct)
        assert out.read_bytes() == direct.read_bytes()

    @pytest.mark.parametrize("paths", [1, 2 * BLOCK_PATHS + 1])
    def test_simulate_csv_sidecar_and_artifact(self, tmp_path, paths):
        out, direct = tmp_path / "p.csv", tmp_path / "direct.csv"
        assert run_cli(["simulate", "--process", "pascal", "--grid", "0.25,0.5,0.75,1.0",
                        "--paths", str(paths), "--seed", "8", "--format", "csv",
                        "--out", str(out)]) == 0
        assert int(sidecar_fields(out)["bytes_written"]) == out.stat().st_size
        ensemble_to_csv(sample_ensemble(ProcessKind("pascal", 0.5), [0.25, 0.5, 0.75, 1.0],
                                        paths, seed=8), direct)
        assert out.read_bytes() == direct.read_bytes()


class TestInfiniteGridTime:
    """A container whose last grid time is +inf is rejected from its header,
    as the sampler rejects that grid."""

    @pytest.fixture(scope="class")
    def container(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("inf") / "g.qhe"
        assert run_cli(["simulate", "--process", "gamma", "--grid", "0.5,1.0",
                        "--paths", "1000", "--seed", "3", "--out", str(path)]) == 0
        raw = bytearray(path.read_bytes())
        # the grid's two float64 times follow the 40-byte header
        raw[48:56] = np.array([np.inf], dtype="<f8").tobytes()
        path.write_bytes(bytes(raw))
        return path

    @pytest.mark.parametrize("command", ["verify", "tails"])
    @pytest.mark.parametrize("t", ["1.0", "inf"])
    def test_exits_two(self, tmp_path, capsys, container, command, t):
        out = tmp_path / "a.json"
        capsys.readouterr()
        code = run_cli([command, str(container), "--s", "0.5", "--t", t, "--out", str(out)])
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == (
            f"qharness {command}: error: grid must be finite, positive and strictly ascending\n")


class TestMomentsCommand:
    def test_two_point_at_gamma_minus_one(self, tmp_path):
        out = tmp_path / "m.json"
        code = run_cli(["moments", "--gamma", "-1", "--sigma", "0.0001",
                        "--tau", "0.0001", "--t", "1.0", "--out", str(out)])
        assert code == 0
        res = json.loads(out.read_text())["results"]
        assert res["hankel3_closed_form"] == 0.0
        assert res["two_point"]["atom_hi"] == 1.0
        assert res["two_point"]["third_moment"] == 0.0
        assert res["region"]["region"] == "all-orders"

    @pytest.mark.parametrize("flags", [
        ["--eta", "-5000"],
        ["--eta", "-0.4", "--theta", "0.7", "--sigma", "0.5", "--tau", "0.9", "--t", "2"],
    ])
    def test_two_point_is_the_harness_law(self, tmp_path, flags):
        out = tmp_path / "m.json"
        assert run_cli(["moments", "--gamma", "-1", *flags, "--out", str(out)]) == 0
        res = json.loads(out.read_text())["results"]
        p, t = HarnessParams(**res["params"]), res["t"]
        m3 = marginal_moments(p, t).m3
        two_point = dict(res["two_point"])
        assert two_point.pop("third_moment") == m3
        law = TwoPointLaw(**two_point)
        assert law.moment(2) == pytest.approx(t, rel=1e-12)
        assert law.moment(3) == pytest.approx(m3, rel=1e-12)

    def test_two_point_refused_at_sigma_tau_one(self, tmp_path):
        out = tmp_path / "m.json"
        assert run_cli(["moments", "--gamma", "-1", "--sigma", "2", "--tau", "0.5",
                        "--out", str(out)]) == 0
        res = json.loads(out.read_text())["results"]
        assert res["two_point"] is None
        assert res["two_point_error"] == "sigma*tau must be below 1, got 1.0"

    def test_two_sided_scale(self, tmp_path):
        out = tmp_path / "m.json"
        code = run_cli(["moments", "--s", "0.5", "--t", "1.0", "--u", "1.5",
                        "--out", str(out)])
        assert code == 0
        res = json.loads(out.read_text())["results"]
        assert res["two_sided"]["scale"] == pytest.approx(0.25)
        assert res["two_sided"]["brownian_reference"] == pytest.approx(0.25)

    def test_infinity_serialized_as_string(self, tmp_path):
        out = tmp_path / "m.json"
        run_cli(["moments", "--sigma", "0", "--tau", "0", "--out", str(out)])
        res = json.loads(out.read_text())["results"]
        assert res["pmax_certified"] == "inf"

    @pytest.mark.parametrize("flag, value, message", [
        ("--sigma", "nan", "sigma and tau must be >= 0, got nan, 0.0"),
        ("--tau", "-1", "sigma and tau must be >= 0, got 0.0, -1.0"),
        ("--sigma", "inf", "sigma*tau is not a number at sigma=inf, tau=0.0"),
        ("--gamma", "nan", "gamma must be a number, got nan"),
        ("--eta", "inf", "eta must be finite, got inf"),
    ])
    def test_bad_input_named(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "m.json"
        capsys.readouterr()
        assert run_cli(["moments", flag, value, "--out", str(out)]) == 2
        assert list(tmp_path.iterdir()) == []
        assert capsys.readouterr().err == f"qharness moments: error: {message}\n"

    @pytest.mark.parametrize("t", ["0", "-1", "nan", "inf"])
    def test_nonpositive_or_nonfinite_t_exits_two(self, tmp_path, capsys, t):
        out = tmp_path / "m.json"
        capsys.readouterr()
        assert run_cli(["moments", f"--t={t}", "--out", str(out)]) == 2
        assert not out.exists() and not Path(f"{out}.log").exists()
        err = capsys.readouterr().err
        assert err.startswith("qharness moments: error: ") and err.count("\n") == 1


class TestHankelCommand:
    def test_gaussian_vector(self, capsys):
        assert run_cli(["hankel", "--moments", "1,0,1,0,3"]) == 0
        res = json.loads(capsys.readouterr().out)["results"]
        assert res["determinant"] == pytest.approx(2.0, abs=1e-12)

    def test_singular_vector_reconstructs_two_point(self, capsys):
        assert run_cli(["hankel", "--moments", "1,0,1,0,1"]) == 0
        res = json.loads(capsys.readouterr().out)["results"]
        assert res["two_point"]["reproduces_m4"] is True

    def test_extreme_skew_reconstructs_two_point(self, capsys):
        assert run_cli(["hankel", "--moments", "1,0,1,-1e9,1e18"]) == 0
        res = json.loads(capsys.readouterr().out)["results"]
        assert res["two_point"]["atom_hi"] == pytest.approx(1e-9, rel=1e-15)
        assert res["two_point"]["reproduces_m4"] is True

    def test_wrong_arity_exits_two(self):
        assert run_cli(["hankel", "--moments", "1,0,1"]) == 2


class TestOptimizeCommand:
    def test_exact_k_run(self, tmp_path):
        out = tmp_path / "opt.json"
        code = run_cli(["optimize", "--p", "8", "--knobs", "exact-k,exact-margin",
                        "--out", str(out)])
        assert code == 0
        res = json.loads(out.read_text())["results"]
        assert res["valid"] is True and res["constant"] < 128.0

    @pytest.mark.parametrize("p", ["1000", "1e6", "1e16"])
    def test_large_order_exits_zero(self, tmp_path, p):
        out = tmp_path / "opt.json"
        code = run_cli(["optimize", "--p", p, "--knobs", "exact-k,rho", "--out", str(out)])
        assert code == 0
        res = json.loads(out.read_text())["results"]
        assert res["valid"] is True
        assert res["constant"] <= integrability_constant("exact", float(p))

    def test_order_past_rho_rounding_exits_zero(self, tmp_path):
        out = tmp_path / "opt.json"
        code = run_cli(["optimize", "--p", "1e16", "--knobs", "exact-k,rho", "--out", str(out)])
        assert code == 0
        res = json.loads(out.read_text())["results"]
        assert res["valid"] is True
        assert res["constant"] == pytest.approx(256.0 / math.log(8.0), rel=1e-12)

    @pytest.mark.parametrize("knobs, tied, tail", [
        ("exact-k", True, "evaluations=1"),
        ("exact-k,rho", False, "evaluations=3"),
    ])
    def test_sidecar_reports_evaluations(self, tmp_path, knobs, tied, tail):
        out = tmp_path / "opt.json"
        code = run_cli(["optimize", "--p", "16", "--knobs", knobs,
                        "--out", str(out)])
        assert code == 0
        assert (tmp_path / "opt.json.log").read_text().endswith(f" {tail}\n")
        res = json.loads(out.read_text())["results"]
        want = make_certificate(16.0, contraction_rule="exact").to_json_dict()
        assert ({k: res[k] for k in want} == want) is tied


class TestErrorContract:
    @pytest.mark.parametrize("argv", [["certificate", "--p", "inf"],
                                      ["certificate", "--p", "inf", "--sigma", "1", "--tau", "1"],
                                      ["optimize", "--p", "inf", "--knobs", "exact-k,rho"],
                                      ["optimize", "--p", "-1", "--knobs", "exact-k,rho"]])
    def test_bad_order_named(self, tmp_path, capsys, argv):
        out = tmp_path / "cert.json"
        assert run_cli(argv + ["--out", str(out)]) == 2
        assert list(tmp_path.iterdir()) == []
        assert capsys.readouterr().err == (
            f"qharness {argv[0]}: error: need p > 1 and finite, got {float(argv[2])}\n")

    def test_unexpected_exception_exits_two(self, monkeypatch, capsys):
        def broken(config):
            raise RuntimeError("handler broke")

        monkeypatch.setitem(cli._HANDLERS, "moments", broken)
        code = run_cli(["moments"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "qharness moments: error: RuntimeError: handler broke\n"

    def test_linalg_error_reported_as_value_error(self, monkeypatch, capsys):
        # LinAlgError subclasses ValueError, so its line carries no type name
        def singular(config):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setitem(cli._HANDLERS, "moments", singular)
        code = run_cli(["moments"])
        assert code == 2
        assert capsys.readouterr().err == "qharness moments: error: Singular matrix\n"

    def test_config_not_json_exits_two(self, tmp_path, capsys):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text("p: 4\n")
        out = tmp_path / "cert.json"
        code = run_cli(["certificate", "--p", "4", "--config", str(cfg_file), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("qharness: error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [cfg_file]

    def test_unwritable_sidecar_exits_two(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        (tmp_path / "m.json.log").mkdir()
        code = run_cli(["moments", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("qharness moments: error: ") and err.count("\n") == 1


class TestArtifactMode:
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o002, 0o664)])
    def test_artifacts_honour_umask(self, tmp_path, umask, mode):
        ens_path, report = tmp_path / "w.qhe", tmp_path / "verify.json"
        old = os.umask(umask)
        try:
            run_cli(["simulate", "--process", "wiener", "--grid", "0.5,1.0",
                     "--paths", "2000", "--seed", "0", "--out", str(ens_path)])
            run_cli(["verify", str(ens_path), "--s", "0.5", "--t", "1.0",
                     "--bins", "10", "--out", str(report)])
        finally:
            os.umask(old)
        for path in (ens_path, report):
            assert stat.S_IMODE(path.stat().st_mode) == mode, path.name


class TestTailsCommand:
    @pytest.mark.parametrize("process", ["gamma", "pascal"])
    @pytest.mark.parametrize("raw", [False, True])
    def test_threshold_ladder_matches_two_quantile_calls(self, tmp_path, process, raw):
        ens_path, out = tmp_path / "e.qhe", tmp_path / "tails.json"
        run_cli(["simulate", "--process", process, "--grid", "0.25,0.5",
                 "--paths", "30001", "--seed", "9", "--out", str(ens_path)])
        code = run_cli(["tails", str(ens_path), "--s", "0.25", "--t", "0.5", "--out", str(out)]
                       + (["--raw"] if raw else []))
        assert code == 0
        ens = load_ensemble(ens_path)
        x = np.abs(ens.paths[:, 1])
        if not raw:
            x = x / math.sqrt(0.5)
        lo = max(float(np.quantile(x, 0.5)), 1e-9)
        hi = max(float(np.quantile(x, 0.995)), lo * 2.0)
        got = json.loads(out.read_text())["results"]["thresholds"]
        assert got == np.geomspace(lo, hi, 50).tolist()

    def test_tail_report(self, tmp_path):
        ens_path = tmp_path / "g.qhe"
        run_cli(["simulate", "--process", "gamma", "--grid", "0.5,1.0",
                 "--paths", "30000", "--seed", "3", "--out", str(ens_path)])
        out = tmp_path / "tails.json"
        code = run_cli(["tails", str(ens_path), "--s", "0.5", "--t", "1.0",
                        "--thresholds", "0.5,1.0,2.0,4.0", "--out", str(out)])
        assert code == 0
        res = json.loads(out.read_text())["results"]
        assert res["thresholds"] == [0.5, 1.0, 2.0, 4.0]
        assert all(0 <= v <= 2 for v in res["n_values"])
        assert np.all(np.diff(res["n_values"]) <= 0)
        assert "alpha" in res["hill"]

    @pytest.mark.parametrize("k", ["0", "-5", "2500", "999999"])
    def test_out_of_range_k_exits_two(self, tmp_path, capsys, k):
        ens_path, out = tmp_path / "w.qhe", tmp_path / "tails.json"
        run_cli(["simulate", "--process", "wiener", "--grid", "0.5,1.0",
                 "--paths", "5000", "--seed", "3", "--out", str(ens_path)])
        capsys.readouterr()
        code = run_cli(["tails", str(ens_path), "--s", "0.5", "--t", "1.0", "--k", k,
                        "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2 and not out.exists()
        assert err.startswith("qharness tails: error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("thresholds", ["2,1", "0,1", "1,1", "nan,1"])
    def test_bad_thresholds_exit_two_before_any_column(self, tmp_path, capsys, monkeypatch,
                                                       thresholds):
        ens_path, out = tmp_path / "w.qhe", tmp_path / "tails.json"
        run_cli(["simulate", "--process", "wiener", "--grid", "0.5,1.0",
                 "--paths", "500", "--out", str(ens_path)])

        def no_load(*args, **kwargs):
            raise AssertionError("load_ensemble called")

        monkeypatch.setattr("qharness.simulate.load_ensemble", no_load)
        capsys.readouterr()
        code = run_cli(["tails", str(ens_path), "--s", "0.5", "--t", "1.0",
                        "--thresholds", thresholds, "--out", str(out)])
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == (
            "qharness tails: error: thresholds must be ascending and positive\n")

    @pytest.mark.parametrize("n", [1, 2])
    def test_default_k_is_checked_too(self, tmp_path, capsys, n):
        # k = max(1, n // 100) = 1 is out of range below 3 paths
        ens_path, out = tmp_path / "w.qhe", tmp_path / "tails.json"
        paths = np.arange(1.0, 2 * n + 1).reshape(n, 2)
        save_ensemble(Ensemble(ProcessKind("wiener"), [0.5, 1.0], paths, seed=0), ens_path)
        capsys.readouterr()
        code = run_cli(["tails", str(ens_path), "--s", "0.5", "--t", "1.0", "--out", str(out)])
        assert code == 2 and not out.exists() and not Path(f"{out}.log").exists()
        assert capsys.readouterr().err == (
            f"qharness tails: error: --k must satisfy 1 <= k < n/2 = {n / 2}, got 1\n")

    def test_default_k_on_three_paths(self, tmp_path):
        ens_path, out = tmp_path / "w.qhe", tmp_path / "tails.json"
        paths = np.arange(1.0, 7.0).reshape(3, 2)
        save_ensemble(Ensemble(ProcessKind("wiener"), [0.5, 1.0], paths, seed=0), ens_path)
        assert run_cli(["tails", str(ens_path), "--s", "0.5", "--t", "1.0", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["results"]["hill"]["k"] == 1

    def test_csv_format(self, tmp_path):
        ens_path = tmp_path / "w.qhe"
        run_cli(["simulate", "--process", "wiener", "--grid", "0.5,1.0",
                 "--paths", "5000", "--seed", "3", "--out", str(ens_path)])
        out = tmp_path / "tails.csv"
        code = run_cli(["tails", str(ens_path), "--s", "0.5", "--t", "1.0",
                        "--format", "csv", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# version=")
        assert "threshold,n_value" in lines


def two_sort_tails(path, s, t, thresholds, raw, k) -> dict:
    """The tails results the two-sort way: each |column| scaled, then
    sorted, for the curve (its ladder from np.quantile), and
    ``hill_tail_index`` partitioning a copy of the raw X_t column."""
    ens = load_ensemble(path, times=(s, t))

    def sorted_abs(j: int, time: float) -> np.ndarray:
        col = np.abs(ens.paths[:, j])
        return np.sort(col if raw else col / math.sqrt(time))

    ys = sorted_abs(1, t)
    if thresholds is None:
        lo = max(float(np.quantile(ys, 0.5)), 1e-9)
        thresholds = np.geomspace(lo, max(float(np.quantile(ys, 0.995)), lo * 2.0), 50)
    th = np.asarray(thresholds, dtype=np.float64)
    n = ys.size
    py = 1.0 - np.searchsorted(ys, th, side="right") / n
    px = 1.0 - np.searchsorted(sorted_abs(0, s), th, side="right") / n
    try:
        h = hill_tail_index(ens.paths[:, 1], k)
        hill = {"alpha": h.alpha, "ci_low": h.ci_low, "ci_high": h.ci_high, "k": h.k, "n": h.n}
    except ValueError as exc:
        hill = {"error": str(exc)}
    return {"thresholds": th.tolist(), "n_values": (px + py).tolist(), "n_samples": n,
            "hill": hill}


class TestTailsMatchesTwoSortReference:
    """tails sorts each column once and reads Hill off the sorted |X_t|; its
    artifact equals the one the separate curve and Hill sorts give."""

    N = 20_001

    @pytest.fixture(scope="class")
    def ensembles(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("tails-ref")
        out = {}
        for kind in ("gamma", "pascal"):
            out[kind] = d / f"{kind}.qhe"
            assert run_cli(["simulate", "--process", kind, "--grid", "0.25,0.5,0.75,1.0",
                            "--paths", str(self.N), "--seed", "4", "--out", str(out[kind])]) == 0
        # Hill's errors: the top k+1 of |X_t| reach 0, or are all equal
        grid = np.array([0.5, 1.0])
        zeros = np.zeros((40, 2))
        zeros[:5] = [1.0, 2.0]
        equal = np.ones((40, 2))
        equal[::3, 1] = -1.0
        for name, paths in (("zeros", zeros), ("equal", equal)):
            out[name] = d / f"{name}.qhe"
            save_ensemble(Ensemble(ProcessKind("wiener"), grid, paths, seed=0), out[name])
        return out

    def check(self, tmp_path, path, s, t, *, raw=False, thresholds=None, k=None):
        out = tmp_path / "tails.json"
        argv = ["tails", str(path), "--s", repr(s), "--t", repr(t), "--out", str(out)]
        argv += (["--raw"] if raw else []) + (["--k", str(k)] if k is not None else [])
        if thresholds is not None:
            argv += ["--thresholds", ",".join(map(repr, thresholds))]
        assert run_cli(argv) == 0
        res = json.loads(out.read_text())["results"]
        n = load_ensemble(path, times=(t,)).n_paths
        ref = two_sort_tails(path, s, t, thresholds, raw, max(1, n // 100) if k is None else k)
        assert {key: res[key] for key in ref} == ref
        return res["hill"]

    @pytest.mark.parametrize("kind", ["gamma", "pascal"])
    @pytest.mark.parametrize("raw", [False, True])
    def test_off_unit_time(self, tmp_path, ensembles, kind, raw):
        assert "alpha" in self.check(tmp_path, ensembles[kind], 0.25, 0.75, raw=raw)

    @pytest.mark.parametrize("raw", [False, True])
    def test_user_thresholds(self, tmp_path, ensembles, raw):
        self.check(tmp_path, ensembles["gamma"], 0.5, 0.75, raw=raw,
                   thresholds=[0.05, 0.5, 1.0, 2.0, 8.0])

    @pytest.mark.parametrize("k", [1, (N - 1) // 2])
    @pytest.mark.parametrize("kind", ["gamma", "pascal"])
    def test_smallest_and_largest_k(self, tmp_path, ensembles, kind, k):
        # at k = 1 the pascal lattice's top two values tie: a Hill error
        self.check(tmp_path, ensembles[kind], 0.25, 0.75, k=k)

    @pytest.mark.parametrize("name, k, message", [
        ("zeros", 10, "top-k order statistics must be positive"),
        ("equal", 10, "degenerate sample: top order statistics are all equal"),
        ("equal", 19, "degenerate sample: top order statistics are all equal"),
    ])
    def test_hill_errors(self, tmp_path, ensembles, name, k, message):
        for raw in (False, True):
            assert self.check(tmp_path, ensembles[name], 0.5, 1.0, raw=raw, k=k) == {
                "error": message}


class TestSharedParser:
    """main() builds its parser once per process; no call may see another's flags."""

    # (first call, its exit code, second call); {ens} and {cfg} are filled in
    SEQUENCES = {
        "raw-then-standardized": (
            ["tails", "{ens}", "--s", "0.5", "--t", "1.0", "--raw"], 0,
            ["tails", "{ens}", "--s", "0.5", "--t", "1.0"]),
        "config-then-flags": (
            ["certificate", "--config", "{cfg}"], 0,
            ["certificate", "--p", "4"]),
        "csv-then-default-format": (
            ["tails", "{ens}", "--s", "0.5", "--t", "1.0", "--format", "csv"], 0,
            ["tails", "{ens}", "--s", "0.5", "--t", "1.0"]),
        "unknown-flag-then-valid": (
            ["certificate", "--p", "4", "--frobnicate", "1"], 2,
            ["certificate", "--p", "4"]),
        "missing-flag-then-valid": (
            ["simulate", "--process", "wiener"], 2,
            ["moments", "--gamma", "-1"]),
    }

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("shared-parser")
        ens, cfg = d / "w.qhe", d / "c.json"
        assert run_cli(["simulate", "--process", "gamma", "--grid", "0.5,1.0",
                        "--paths", "5000", "--seed", "3", "--out", str(ens)]) == 0
        cfg.write_text(json.dumps({"p": 8, "mode": "exact", "seed": 5}))
        return {"ens": str(ens), "cfg": str(cfg)}

    def test_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    @pytest.mark.parametrize("name", SEQUENCES)
    def test_no_state_between_calls(self, monkeypatch, tmp_path, inputs, name):
        first, first_code, second = self.SEQUENCES[name]
        first = [a.format(**inputs) for a in first] + ["--out", str(tmp_path / "first.out")]
        out = tmp_path / "second.out"
        second = [a.format(**inputs) for a in second] + ["--out", str(out)]

        def second_call():
            return parse_args(second), run_cli(second), out.read_bytes()

        with monkeypatch.context() as m:  # the reference: a parser built for this call alone
            m.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
            on_fresh_parser = second_call()
        assert run_cli(first) == first_code
        assert second_call() == on_fresh_parser


# every public name of `qharness`; those of simulate and empirics resolve on first access
_EXPORTS = (
    "BinnedConditional", "Certificate", "ChainParams", "Ensemble", "HarnessParams",
    "HillEstimate", "MomentRegion", "MomentVector", "PathEmpirics", "ProcessKind",
    "TailCurve", "TwoPointLaw", "Variance", "certificates", "check_tail_recursion",
    "classify_moment_region", "core", "covariance",
    "double_mean", "double_var", "double_var_scale", "embedding", "empirics",
    "estimate_conditional",
    "gaussian_pair_tail_curve", "hankel3", "hankel3_closed_form", "hill_tail_index",
    "integrability_constant", "known_params", "load_ensemble", "read_header",
    "make_certificate", "marginal_moments", "moments", "one_sided_mean",
    "optimize_constant", "path_empirics", "pfail_upper", "pmax_certified",
    "replay_certificate",
    "sample_ensemble", "save_ensemble", "simulate", "tail_curve",
    "tail_recursion_coeffs", "two_point_from_moments", "u_for_order",
    "validate_params", "var_backward", "var_forward",
)

_STARTUP_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
out = sys.argv[2]
import qharness.cli
report = {"after_import": "numpy" in sys.modules}
for argv in (["certificate", "--p", "4"], ["optimize", "--p", "16"], ["moments"],
             ["hankel", "--moments", "1,0,1,0,3"]):
    report[argv[0]] = [qharness.cli.main(argv + ["--out", out + ".json"]),
                       "numpy" in sys.modules]
report["simulate"] = [qharness.cli.main(["simulate", "--process", "wiener", "--grid", "1.0",
                                         "--paths", "100", "--out", out + ".qhe"]),
                      "numpy" in sys.modules]
print(json.dumps(report))
"""


class TestNumpyFreeStartup:
    def test_analytic_commands_leave_numpy_unloaded(self, tmp_path):
        import qharness

        src = str(Path(qharness.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", _STARTUP_PROBE, src, str(tmp_path / "a")],
                              capture_output=True, text=True, check=True)
        report = json.loads(proc.stdout)
        assert report["after_import"] is False
        for command in ("certificate", "optimize", "moments", "hankel"):
            assert report[command] == [0, False], command
        # the numpy-backed commands still work in the same process
        assert report["simulate"] == [0, True]

    def test_every_export_resolves_in_a_fresh_interpreter(self):
        import qharness

        src = str(Path(qharness.__file__).resolve().parents[1])
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import qharness; "
                "print(','.join(n for n in sys.argv[2].split(',') if not hasattr(qharness, n)))")
        proc = subprocess.run([sys.executable, "-c", code, src, ",".join(_EXPORTS)],
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == ""
        assert qharness.sample_ensemble is qharness.simulate.sample_ensemble
        assert qharness.tail_curve is qharness.empirics.tail_curve
        with pytest.raises(AttributeError):
            qharness.no_such_name


def old_jsonify(obj):
    """The converter the artifact writer replaced, kept as its oracle: its output
    went through json.dumps(..., indent=2, sort_keys=True)."""
    if isinstance(obj, dict):
        return {k: old_jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [old_jsonify(v) for v in obj]
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
        return float(obj)
    if hasattr(obj, "tolist"):
        return old_jsonify(obj.tolist())
    return obj


_EDGE_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310,
                2.2250738585072014e-308, 1.7e308, -1.7e308]
_json_text = st.text(st.characters(min_codepoint=0, max_codepoint=0x10FFFF), max_size=6)
_json_scalars = st.one_of(
    st.floats() | st.sampled_from(_EDGE_FLOATS),
    st.integers(-(2**80), 2**80),
    st.booleans(),
    st.none(),
    _json_text,
    (st.floats() | st.sampled_from(_EDGE_FLOATS)).map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.lists(st.floats() | st.sampled_from(_EDGE_FLOATS), max_size=6).map(np.array),
    st.lists(st.integers(-(2**63), 2**63 - 1), min_size=4, max_size=4)
    .map(lambda v: np.array(v, dtype=np.int64).reshape(2, 2)),
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(_json_text, inner, max_size=4)),
    max_leaves=24,
)


class TestArtifactWriter:
    """The one-walk writer gives the bytes of json.dumps over the old converter."""

    @settings(max_examples=300, deadline=None)
    @given(_json_values)
    def test_matches_json_dumps_of_old_converter(self, value):
        want = old_jsonify(value)
        assert cli._dump(value, "\n") == json.dumps(want, indent=2, sort_keys=True)
        assert cli._dump(value, None) == json.dumps(want, sort_keys=True)

    def test_unknown_type_is_refused(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            cli._dump({"a": [object()]}, "\n")

    def test_artifact_matches_json_dumps(self, tmp_path):
        out = tmp_path / "m.json"
        assert run_cli(["moments", "--t", "1e308", "--sigma", "0.01", "--tau", "0.02",
                        "--out", str(out)]) == 0
        text = out.read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def _leftovers(directory) -> list[str]:
    return sorted(p.name for p in Path(directory).iterdir() if p.name.startswith(".qharness-"))


class TestAtomicWrite:
    """A failed write leaves the earlier artifact as it was and no temporary."""

    def test_failed_container_write_leaves_earlier_artifact(self, tmp_path, monkeypatch, capsys):
        from qharness import simulate

        out = tmp_path / "e.qhe"
        argv = ["simulate", "--process", "wiener", "--grid", "0.5,1.0", "--paths", "500",
                "--out", str(out)]
        assert run_cli(argv) == 0
        before = out.read_bytes()

        def broken(ens, path):
            with open(path, "wb") as fh:
                fh.write(b"QHE1 partial")
            raise OSError("disk full")

        monkeypatch.setattr(simulate, "save_ensemble", broken)
        assert run_cli(argv[:-2] + ["--seed", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "qharness simulate: error: disk full\n"
        assert out.read_bytes() == before
        assert _leftovers(tmp_path) == []

    def test_failed_payload_write_leaves_earlier_artifact(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "cert.json"
        assert run_cli(["certificate", "--p", "4", "--out", str(out)]) == 0
        before = out.read_bytes()
        real_open = open

        class HalfWriter:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                self.fh.flush()
                raise OSError("disk full")

        monkeypatch.setattr(cli, "open", lambda *a, **k: HalfWriter(real_open(*a, **k)),
                            raising=False)
        assert run_cli(["certificate", "--p", "5", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "qharness certificate: error: disk full\n"
        assert out.read_bytes() == before
        assert _leftovers(tmp_path) == []

    def test_nested_missing_directory_is_made(self, tmp_path):
        out = tmp_path / "a" / "b" / "c" / "h.json"
        assert run_cli(["hankel", "--moments", "1,0,1,0,3", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["results"]["nonneg"] is True
        assert _leftovers(out.parent) == []

    def test_file_in_the_directory_path_exits_two(self, tmp_path, capsys):
        (tmp_path / "f").write_text("")
        out = tmp_path / "f" / "h.json"
        assert run_cli(["hankel", "--moments", "1,0,1,0,3", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("qharness hankel: error: ")
        assert (tmp_path / "f").read_text() == ""

    def test_existing_temporary_name_is_skipped(self, tmp_path, monkeypatch):
        names = iter([b"\x00" * 6, b"\x00" * 6, b"\x01" * 6])
        monkeypatch.setattr(os, "urandom", lambda n: next(names))
        taken = tmp_path / ".qharness-000000000000"
        taken.write_text("someone else's")
        out = tmp_path / "h.json"
        assert run_cli(["hankel", "--moments", "1,0,1,0,3", "--out", str(out)]) == 0
        assert taken.read_text() == "someone else's"
        assert _leftovers(tmp_path) == [taken.name]
        assert json.loads(out.read_text())["command"] == "hankel"

    def test_umask_is_never_changed(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "umask", lambda mask: pytest.fail("os.umask called"))
        out = tmp_path / "h.json"
        assert run_cli(["hankel", "--moments", "1,0,1,0,3", "--out", str(out)]) == 0


class TestEmitTime:
    @pytest.mark.parametrize("argv, fmt", [
        (["certificate", "--p", "4"], "json"),
        (["simulate", "--process", "wiener", "--grid", "0.5,1.0", "--paths", "100"], "qhe"),
        (["simulate", "--process", "wiener", "--grid", "0.5,1.0", "--paths", "100",
          "--format", "csv"], "csv"),
    ])
    def test_sidecar_reports_emit_time_after_elapsed(self, tmp_path, argv, fmt):
        out = tmp_path / f"a.{fmt}"
        assert run_cli(argv + ["--out", str(out)]) == 0
        line = Path(f"{out}.log").read_text()
        keys = [f.split("=", 1)[0] for f in line.split()]
        assert keys[keys.index("elapsed_s") + 1] == "emit_s"
        emit_s = float(sidecar_fields(out)["emit_s"])
        assert 0.0 <= emit_s <= float(sidecar_fields(out)["elapsed_s"]) + 1e-3
        assert b"emit_s" not in out.read_bytes()
