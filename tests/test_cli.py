"""Config parsing, seed derivation, report determinism, plot-data contracts."""

import json
import math

import numpy as np
import pytest

from semproc.cli import (
    ConfigError,
    emit_plotdata,
    main,
    numeric_bytes,
    parse_config,
    run_experiment,
    write_report,
)
from semproc.fclt import NotPSDError
from semproc.quadrature import QuadratureError
from semproc.seeds import derive_seed


class TestDeriveSeed:
    def test_empty_path_is_identity(self):
        for s in (0, 1, 42, 2**64 - 1, 2**63):
            assert derive_seed(s, []) == s % 2**64 or derive_seed(s, []) == s

    def test_distinct_labels_distinct_seeds(self):
        rng = np.random.default_rng(0)
        seen = {}
        root = 1234
        collisions = 0
        for i in range(300_000):
            label = int(rng.integers(0, 2**50))
            v = derive_seed(root, [label])
            if v in seen and seen[v] != label:
                collisions += 1
            seen[v] = label
        assert collisions == 0

    def test_path_order_matters(self):
        assert derive_seed(5, ["a", 1]) != derive_seed(5, [1, "a"])
        assert derive_seed(5, ["a"]) != derive_seed(5, ["b"])

    def test_type_prefix_separates_str_from_int(self):
        assert derive_seed(5, ["1"]) != derive_seed(5, [1])

    def test_streams_uncorrelated(self):
        a = np.random.default_rng(derive_seed(9, ["stream", 0])).random(10**4)
        b = np.random.default_rng(derive_seed(9, ["stream", 1])).random(10**4)
        rho = float(np.corrcoef(a, b)[0, 1])
        assert abs(rho) < 0.03

    def test_label_types_validated(self):
        with pytest.raises(TypeError):
            derive_seed(1, [3.14])
        with pytest.raises(TypeError):
            derive_seed(1, [True])


class TestConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("ulln", {"replicatez": 3})

    def test_fuzzed_typo_keys_always_rejected(self):
        rng = np.random.default_rng(1)
        base = list(parse_config("ulln", {}).keys())
        for _ in range(100):
            key = base[int(rng.integers(len(base)))]
            pos = int(rng.integers(len(key)))
            typo = key[:pos] + chr(97 + int(rng.integers(26))) + key[pos:]
            if typo in base:
                continue
            with pytest.raises(ConfigError):
                parse_config("ulln", {typo: 1})

    def test_unknown_experiment_lists_registry(self):
        with pytest.raises(ConfigError) as err:
            parse_config("nope", {})
        msg = str(err.value)
        for name in ("ulln", "fclt", "covering", "bounds", "kiefer", "selftest"):
            assert name in msg

    def test_type_checking(self):
        with pytest.raises(ConfigError):
            parse_config("ulln", {"replicates": "many"})
        cfg = parse_config("kiefer", {"tolerance": 1})
        assert isinstance(cfg["tolerance"], float)

    def test_defaults_filled_and_echoed(self):
        cfg = parse_config("ulln", {"seed": 9})
        assert cfg["seed"] == 9 and cfg["centering"] == "lambda_n"


class TestRunExperiment:
    def test_deterministic_numeric_bytes(self):
        cfg = {"members": 40, "seed": 3, "n_list": [10, 50], "witness_max_n": 8}
        a = run_experiment("bounds", dict(cfg))
        b = run_experiment("bounds", dict(cfg))
        assert numeric_bytes(a) == numeric_bytes(b)
        assert a["pass"] is True

    def test_ledger_entries_cite_tolerance(self):
        rep = run_experiment("bounds", {"members": 20, "seed": 1,
                                        "n_list": [10], "witness_max_n": 4})
        assert rep["ledger"]
        for entry in rep["ledger"]:
            assert set(entry) >= {"name", "observed", "bound", "tolerance", "ok"}

    def test_report_schema(self, tmp_path):
        rep = run_experiment("kiefer", {"draws": 5000, "seed": 2, "tolerance": 0.1})
        path = tmp_path / "r.json"
        write_report(rep, str(path))
        back = json.loads(path.read_text())
        assert back["schema_version"] == 1
        assert back["experiment"] == "kiefer"
        assert "wall_clock_seconds" in back["meta"]
        assert back["config"]["draws"] == 5000


class TestPlotData:
    def test_ulln_csv_schema(self, tmp_path):
        rep = run_experiment("ulln", {"n_schedule": [20, 50], "replicates": 5, "seed": 1})
        paths = emit_plotdata(rep, str(tmp_path / "u"))
        lines = open(paths[0]).read().strip().split("\n")
        assert lines[0] == "n,mean,median,q95,max,bound"
        assert len(lines) == 3

    def test_empty_schedule_header_only(self, tmp_path):
        # an empty schedule is a config error (TestCountsAndOrders); a report
        # without rows still gets its header
        paths = emit_plotdata({"experiment": "ulln", "results": []}, str(tmp_path / "e"))
        lines = open(paths[0]).read().strip().split("\n")
        assert lines == ["n,mean,median,q95,max,bound"]

    def test_fclt_csv_schemas(self, tmp_path):
        rep = run_experiment("fclt", {
            "n": 150, "replicates": 300, "seed": 8, "alpha_list": [0.2, 0.5],
            "net_u": 0.45, "modulus_replicates": 5,
            "cov_tolerance": 0.3, "ks_tolerance": 0.3,
        })
        paths = emit_plotdata(rep, str(tmp_path / "f"))
        mod = open(paths[0]).read().strip().split("\n")
        lin = open(paths[1]).read().strip().split("\n")
        assert mod[0] == "alpha,mean_modulus" and len(mod) == 3
        assert lin[0] == "n,lindeberg_ratio" and len(lin) >= 2


class TestMainEntry:
    def test_usage_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"not_a_key": 1}))
        code = main(["bounds", "--config", str(bad)])
        assert code == 2

    def test_small_run_exit_0(self, tmp_path):
        code = main(["bounds", "--set", "members=20", "--set", "n_list=[10]",
                     "--set", "witness_max_n=4", "--out", str(tmp_path / "b.json")])
        assert code == 0
        assert (tmp_path / "b.json").exists()

    def test_flag_overrides(self, tmp_path):
        out = tmp_path / "u.json"
        code = main(["ulln", "--seed", "4", "--n-schedule", "20,40",
                     "--replicates", "4", "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["config"]["n_schedule"] == [20, 40]
        assert rep["config"]["seed"] == 4

    def test_generated_flags_typed_from_schema(self, tmp_path):
        out = tmp_path / "f.json"
        code = main(["fclt", "--n", "100", "--replicates", "200", "--alpha-list", "0.1,0.4",
                     "--run-modulus", "false", "--run-lindeberg", "false",
                     "--cov-tolerance", "1", "--ks-tolerance", "1", "--out", str(out)])
        assert code == 0
        cfg = json.loads(out.read_text())["config"]
        assert cfg["alpha_list"] == [0.1, 0.4]
        assert cfg["run_modulus"] is False and cfg["ks_tolerance"] == 1.0

    def test_net_too_large_exit_2(self, capsys):
        code = main(["fclt", "--net-u", "0.1", "--n", "100", "--replicates", "200",
                     "--run-lindeberg", "false"])
        assert code == 2
        err = capsys.readouterr().err
        assert "net_u=0.1" in err and "3910064697265625" in err

    def test_net_checked_before_fidi(self, monkeypatch):
        def fidi_must_not_run(*args, **kwargs):
            raise AssertionError("the fidi test ran before the net-size check")

        monkeypatch.setattr("semproc.cli.fidi_convergence_test", fidi_must_not_run)
        assert main(["fclt", "--net-u", "0.1"]) == 2

    @pytest.mark.parametrize("entry,key", [
        ({"h": {"type": "indicator"}, "g": {"type": "half-line", "w": 0.5}}, "'t'"),
        ({"g": {"type": "half-line", "w": 0.5}}, "'h'"),
        ({"h": {"type": "indicator", "t": 0.5}, "g": {"type": "poly"}}, "'coeffs'"),
    ])
    def test_malformed_q_file_exit_2(self, tmp_path, capsys, entry, key):
        good = {"h": {"type": "indicator", "t": 0.5}, "g": {"type": "half-line", "w": 0.5}}
        path = tmp_path / "q.json"
        path.write_text(json.dumps([good, entry]))
        code = main(["fclt", "--q-set", "custom-file", "--q-file", str(path),
                     "--run-modulus", "false", "--run-lindeberg", "false"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "entry 1" in err and key in err

    @pytest.mark.parametrize("entry,message", [
        (5, "config error: q file entry 1 and its 'h' and 'g' must be JSON objects"),
        ({"h": 5, "g": {"type": "half-line", "w": 0.5}},
         "config error: q file entry 1 and its 'h' and 'g' must be JSON objects"),
        ({"h": {"type": "indicator", "t": [0.5]}, "g": {"type": "half-line", "w": 0.5}},
         "config error: q file entry 1 is malformed"),
        # lambda(h1 h2) = min(t1, t2) would read 2.5 and the kernel be wrong
        ({"h": {"type": "indicator", "t": 2.5}, "g": {"type": "half-line", "w": 0.5}},
         "error: indicator end point t=2.5 is outside (0, 1]"),
    ])
    def test_ill_typed_q_file_exit_2(self, tmp_path, capsys, entry, message):
        good = {"h": {"type": "indicator", "t": 0.5}, "g": {"type": "half-line", "w": 0.5}}
        path = tmp_path / "q.json"
        path.write_text(json.dumps([good, entry]))
        code = main(["fclt", "--q-set", "custom-file", "--q-file", str(path),
                     "--run-modulus", "false", "--run-lindeberg", "false"])
        assert code == 2
        assert capsys.readouterr().err.startswith(message)

    @pytest.mark.parametrize("text,message", [
        ('{"h": {"type": "indicator", "t": 0.5}, "g": {"type": "half-line", "w": NaN}}',
         "config error: q file entry 1 key 'w' is NaN, not a finite number"),
        ('{"h": {"type": "indicator", "t": 0.5}, "g": {"type": "half-line", "w": 1e999}}',
         "config error: q file entry 1 key 'w' is inf, not a finite number"),
        ('{"h": {"type": "indicator", "t": -Infinity}, "g": {"type": "half-line", "w": 0.5}}',
         "config error: q file entry 1 key 't' is -Infinity, not a finite number"),
        ('{"h": {"type": "holder-pl", "knots": [0, 0.5, 1], "values": [0, Infinity, 0]},'
         ' "g": {"type": "half-line", "w": 0.5}}',
         "config error: q file entry 1 key 'values' is Infinity, not a finite number"),
    ], ids=["nan", "overflow", "minus-infinity", "pl-value"])
    def test_non_finite_q_file_exit_2(self, tmp_path, capsys, text, message):
        good = {"h": {"type": "indicator", "t": 0.5}, "g": {"type": "half-line", "w": 0.5}}
        path = tmp_path / "q.json"
        path.write_text(f"[{json.dumps(good)}, {text}]")
        code = main(["fclt", "--q-set", "custom-file", "--q-file", str(path),
                     "--run-modulus", "false", "--run-lindeberg", "false",
                     "--n", "50", "--replicates", "100"])
        assert code == 2
        assert capsys.readouterr().err == message + "\n"

    @pytest.mark.parametrize("exc", [NotPSDError("covariance matrix is not PSD"),
                                     QuadratureError("no convergence", 0.5)],
                             ids=["not-psd", "quadrature"])
    def test_internal_error_exit_3(self, monkeypatch, capsys, exc):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr("semproc.cli.run_experiment", fail)
        assert main(["kiefer"]) == 3
        assert capsys.readouterr().err == f"internal error: {exc}\n"

    def test_unknown_centering_exit_2(self):
        code = main(["ulln", "--set", 'centering="lambda-typo"', "--set", "n_schedule=[20,40]",
                     "--set", "replicates=3"])
        assert code == 2


class TestCountsAndOrders:
    """The ledgers read n_schedule and alpha_list smallest first, and the
    statistics need enough replicates or draws: anything else is a config
    error naming its key, not a ledger failure or a traceback."""

    @pytest.mark.parametrize("argv,key", [
        (["ulln", "--set", "n_schedule=[400,50]", "--set", "replicates=20"], "ulln.n_schedule"),
        (["ulln", "--set", "n_schedule=[50,50]", "--set", "replicates=2"], "ulln.n_schedule"),
        (["ulln", "--set", "n_schedule=[]"], "ulln.n_schedule"),
        (["ulln", "--set", "replicates=0"], "ulln.replicates"),
        (["fclt", "--set", "alpha_list=[0.4,0.1]", "--set", "run_lindeberg=false"],
         "fclt.alpha_list"),
        (["fclt", "--set", "alpha_list=[]", "--set", "run_lindeberg=false"], "fclt.alpha_list"),
        (["fclt", "--set", "modulus_replicates=0", "--set", "run_lindeberg=false"],
         "fclt.modulus_replicates"),
        (["fclt", "--set", "replicates=1", "--set", "run_lindeberg=false"], "fclt.replicates"),
        (["kiefer", "--set", "draws=1"], "kiefer.draws"),
    ], ids=["ulln-decreasing", "ulln-repeated", "ulln-empty", "ulln-replicates", "fclt-alpha",
            "fclt-alpha-empty", "fclt-modulus-replicates", "fclt-replicates", "kiefer-draws"])
    def test_bad_config_exit_2(self, capsys, argv, key):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config key {key} must be")

    @pytest.mark.parametrize("argv", [
        ["ulln", "--n-schedule", "20", "--replicates", "1"],
        ["fclt", "--n", "50", "--replicates", "2", "--alpha-list", "0.1,0.4", "--net-u", "0.45",
         "--modulus-replicates", "1", "--run-lindeberg", "false",
         "--cov-tolerance", "10", "--ks-tolerance", "10"],
        ["kiefer", "--draws", "2", "--tolerance", "10"],
    ], ids=["ulln", "fclt", "kiefer"])
    def test_smallest_valid_counts_exit_0(self, argv):
        assert main(argv) == 0


class TestDocsQuickstart:
    def test_quickstart_config_zero_bound_violations(self, tmp_path):
        # the README quickstart config, shrunk to test scale; the bound
        # ledger must be violation-free
        cfg = {
            "class": "bvector",
            "j": 0,
            "parity": "odd",
            "model": "uniform01",
            "n_schedule": [100, 400],
            "replicates": 25,
            "seed": 404,
            "centering": "lambda_n",
            "net_u": 0.2,
        }
        path = tmp_path / "ulln.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "report.json"
        code = main(["ulln", "--config", str(path), "--out", str(out),
                     "--plot-prefix", str(tmp_path / "ulln")])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["pass"] is True
        assert all(entry["ok"] for entry in rep["ledger"])
        assert (tmp_path / "ulln_convergence.csv").exists()
