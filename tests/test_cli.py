"""Config parsing, seed derivation, report determinism, plot-data contracts."""

import json
import math
import os
import re
import resource
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from semproc import ulln
from semproc.cli import (
    ConfigError,
    _write_replacing,
    emit_plotdata,
    main,
    numeric_bytes,
    parse_config,
    run_experiment,
    write_report,
)
from semproc.quadrature import QuadratureError
from semproc.seeds import derive_seed
from semproc.ulln import series_S_diagnostic

SRC = Path(__file__).resolve().parents[1] / "src"


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

    def test_witness_gaps_exact_past_float_precision(self):
        # 1 - 2**-n rounds to 1.0 from n = 54; the exact gap 1 - 1/2**n does not
        rep = run_experiment("bounds", {"members": 5, "n_list": [10], "witness_max_n": 80})
        assert rep["pass"] is True
        assert len(rep["results"]["witness"]) == 80
        assert all(row["ok"] for row in rep["results"]["witness"])

    def test_ledger_entries_cite_tolerance(self):
        rep = run_experiment("bounds", {"members": 20, "seed": 1,
                                        "n_list": [10], "witness_max_n": 4})
        assert rep["ledger"]
        for entry in rep["ledger"]:
            assert set(entry) >= {"name", "observed", "bound", "tolerance", "ok"}

    @pytest.mark.parametrize("scale", [1.01, 0.99])
    def test_series_S_gate_reads_the_partial_sums(self, monkeypatch, scale):
        # planted fault: partial sums off by 1% leave the classifications as
        # they were, and must still fail the dichotomy ledger row
        partial_sums = ulln._partial_sums

        def scaled(*args):
            return [scale * p for p in partial_sums(*args)]

        cfg = {"members": 20, "seed": 1, "n_list": [10], "witness_max_n": 4}
        name = "series S dichotomy classifications"
        good = {e["name"]: e for e in run_experiment("bounds", cfg)["ledger"]}[name]
        monkeypatch.setattr(ulln, "_partial_sums", scaled)
        bad = {e["name"]: e for e in run_experiment("bounds", cfg)["ledger"]}[name]
        assert good["ok"] is True and bad["ok"] is False
        # the classifications stay; the row names each c whose sums missed
        assert ({c: row["classification"] for c, row in bad["observed"].items()}
                == {c: row["classification"] for c, row in good["observed"].items()})
        assert [row["bracket_misses"] for row in good["observed"].values()] == [0, 0, 0]
        assert all(row["bracket_misses"] > 0 for row in bad["observed"].values())

    def test_series_S_row_with_one_miss_fails_the_gate(self, monkeypatch):
        # the ledger row reads each S(D, c) row's bracket_misses as it comes
        def one_miss(D, c, N):
            row = series_S_diagnostic(D, c, N)
            return {**row, "bracket_misses": int(c == 2.0)}

        cfg = {"members": 20, "seed": 1, "n_list": [10], "witness_max_n": 4}
        monkeypatch.setattr("semproc.cli.series_S_diagnostic", one_miss)
        rep = run_experiment("bounds", cfg)
        row = {e["name"]: e for e in rep["ledger"]}["series S dichotomy classifications"]
        assert row["ok"] is False and rep["pass"] is False
        assert [r["bracket_misses"] for r in row["observed"].values()] == [0, 0, 1]
        assert list(rep["results"]["series_S"].values()) == ["divergent", "divergent",
                                                             "convergent"]

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


class TestOutputPaths:
    """--out and --plot-prefix are checked before the run, and a write that
    fails exits 2 and leaves no temporary file."""

    @pytest.mark.parametrize("flag,path", [
        ("--out", "d"), ("--out", "missing/r.json"), ("--out", "f/r.json"),
        ("--plot-prefix", "missing/u"), ("--plot-prefix", "f/u"),
    ], ids=["out-directory", "out-missing-parent", "out-file-parent",
            "prefix-missing-parent", "prefix-file-parent"])
    def test_bad_path_exits_2_before_the_run(self, tmp_path, monkeypatch, capsys, flag, path):
        def must_not_run(*args, **kwargs):
            raise AssertionError("the experiment ran before its output path was checked")

        monkeypatch.setattr("semproc.cli.run_experiment", must_not_run)
        (tmp_path / "d").mkdir()
        (tmp_path / "f").write_text("")
        target = str(tmp_path / path)
        assert main(["kiefer", flag, target]) == 2
        assert capsys.readouterr().err == (
            f"config error: {flag} must name a file in an existing directory, got {target!r}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d", "f"]

    def test_failed_rename_removes_the_temporary_file(self, tmp_path):
        (tmp_path / "d").mkdir()
        with pytest.raises(IsADirectoryError):
            _write_replacing(str(tmp_path / "d"), "text")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d"]

    def test_prefix_may_name_a_directory(self, tmp_path):
        # a plot prefix only begins the CSV file names
        (tmp_path / "u").mkdir()
        assert main(["ulln", "--n-schedule", "20,40", "--replicates", "3",
                     "--plot-prefix", str(tmp_path / "u")]) in (0, 1)
        assert (tmp_path / "u_convergence.csv").exists()

    def test_failed_write_exits_2(self, tmp_path, capsys):
        # the prefix's directory exists, but the CSV path is a directory
        (tmp_path / "u_convergence.csv").mkdir()
        code = main(["ulln", "--n-schedule", "20,40", "--replicates", "3",
                     "--plot-prefix", str(tmp_path / "u")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno 21] Is a directory") and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["u_convergence.csv"]


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
        # 41 anchors times 5 steps at each of 20 knots: 3910064697265625 members
        assert err.startswith("config error: config key fclt.net_u must be")
        assert "got 0.1" in err and "3.91e15 members (cap 500000)" in err

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
        # the message names the key's full path, which ends in the missing key
        assert re.fullmatch(rf"config error: q file entry 1 has no key ([hg]\.)?{key[1:-1]}\n", err)

    @pytest.mark.parametrize("entry,message", [
        (5, "config error: q file entry 1 must be an object, got 5\n"),
        ({"h": 5, "g": {"type": "half-line", "w": 0.5}},
         "config error: q file entry 1 key h must be an object, got 5\n"),
        ({"h": {"type": "indicator", "t": [0.5]}, "g": {"type": "half-line", "w": 0.5}},
         "config error: q file entry 1 key h.t must be float, got [0.5]\n"),
        # an indicator is a nonempty B(1) set (0, t]: t = 2.5 leaves [0, 1], t = 0 is empty
        ({"h": {"type": "indicator", "t": 2.5}, "g": {"type": "half-line", "w": 0.5}},
         "config error: q file entry 1 key h: indicator end point t=2.5 is outside (0, 1]"),
        ({"h": {"type": "indicator", "t": 0}, "g": {"type": "half-line", "w": 0.5}},
         "config error: q file entry 1 key h: indicator end point t=0.0 is outside (0, 1]"),
        # a key its type does not read, misspelt or not, is no longer ignored
        ({"h": {"type": "indicator", "t": 0.5}, "g": {"type": "half-line", "w": 0.5}, "q": 1},
         "config error: q file entry 1 has unknown key q\n"),
        ({"h": {"type": "indicator", "t": 0.5, "w": 0.2}, "g": {"type": "half-line", "w": 0.5}},
         "config error: q file entry 1 has unknown key h.w\n"),
        ({"h": {"type": "holder-pl", "knots": [0, 1], "values": [0, 1], "beta": 1.0},
          "g": {"type": "half-line", "w": 0.5}},
         "config error: q file entry 1 has unknown key h.beta\n"),
        ({"h": {"type": "holder-pl", "T": 2, "knots": [0, 1], "values": [0, 1]},
          "g": {"type": "half-line", "w": 0.5}},
         "config error: q file entry 1 has unknown key h.T\n"),
        ({"h": {"type": "indicator", "t": 0.5}, "g": {"type": "half-line", "w": 0.5, "t": 1}},
         "config error: q file entry 1 has unknown key g.t\n"),
        ({"h": {"type": "indicator", "t": 0.5},
          "g": {"type": "initial-interval", "w": 0.5, "W": 0.5}},
         "config error: q file entry 1 has unknown key g.W\n"),
        ({"h": {"type": "indicator", "t": 0.5},
          "g": {"type": "poly", "coeffs": [0.0, 1.0], "degree": 1}},
         "config error: q file entry 1 has unknown key g.degree\n"),
        # a JSON boolean is no number: float(true) would read t = 1
        ({"h": {"type": "indicator", "t": True}, "g": {"type": "half-line", "w": False}},
         "config error: q file entry 1 key h.t must be float, got True\n"),
        ({"h": {"type": "indicator", "t": 0.5}, "g": {"type": "half-line", "w": False}},
         "config error: q file entry 1 key g.w must be float, got False\n"),
        ({"h": {"type": "holder-pl", "knots": [0, True, 1], "values": [0, 1, 0]},
          "g": {"type": "half-line", "w": 0.5}},
         "config error: q file entry 1 key h.knots must be a list of float, got True\n"),
        ({"h": {"type": "indicator", "t": 0.5}, "g": {"type": "poly", "coeffs": [0.5, True]}},
         "config error: q file entry 1 key g.coeffs must be a list of float, got True\n"),
        # nor is a string, which float() would read as the number it spells
        ({"h": {"type": "indicator", "t": "0.5"}, "g": {"type": "half-line", "w": 0.5}},
         "config error: q file entry 1 key h.t must be float, got '0.5'\n"),
        # an unknown or missing type names its entry and part too
        ({"h": {"type": "step", "t": 0.5}, "g": {"type": "half-line", "w": 0.5}},
         "config error: q file entry 1 key h.type must be one of indicator, holder-pl, "
         "got 'step'\n"),
        ({"h": {"type": "indicator", "t": 0.5}, "g": {"w": 0.5}},
         "config error: q file entry 1 has no key g.type\n"),
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
         "config error: q file entry 1 key g.w must be finite, got nan"),
        ('{"h": {"type": "indicator", "t": 0.5}, "g": {"type": "half-line", "w": 1e999}}',
         "config error: q file entry 1 key g.w must be finite, got inf"),
        ('{"h": {"type": "indicator", "t": -Infinity}, "g": {"type": "half-line", "w": 0.5}}',
         "config error: q file entry 1 key h.t must be finite, got -inf"),
        ('{"h": {"type": "holder-pl", "knots": [0, 0.5, 1], "values": [0, Infinity, 0]},'
         ' "g": {"type": "half-line", "w": 0.5}}',
         "config error: q file entry 1 key h.values must be finite, got inf"),
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

    def test_normal_moment_at_a_far_half_line_exit_0(self, tmp_path, capsys):
        # x^3 against (-inf, 1e200]: phi(w) is 0.0 there, while w^2 overflows
        entries = [{"h": {"type": "indicator", "t": 0.5},
                    "g": {"type": "poly", "coeffs": [0, 0, 0, 1]}},
                   {"h": {"type": "indicator", "t": 0.5},
                    "g": {"type": "half-line", "w": 1e200}}]
        path = tmp_path / "q.json"
        path.write_text(json.dumps(entries))
        code = main(["fclt", "--q-set", "custom-file", "--q-file", str(path),
                     "--model", "standard-normal", "--run-modulus", "false",
                     "--run-lindeberg", "false"])
        assert code == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("model,coeffs,message", [
        ("exponential(1e-200)", [0, 0, 1],
         "error: the order-2 moment of exponential(1e-200) is past the float range\n"),
        ("exponential(1e200)", [0, 0, 1],
         "error: the order-2 moment of exponential(1e+200) is past the float range\n"),
        ("standard-normal", [0] * 400 + [1],
         "error: the order-302 moment of standard-normal is past the float range\n"),
    ], ids=["exponential-tiny-rate", "exponential-huge-rate", "normal-degree-400"])
    def test_moments_past_the_float_range_exit_2(self, tmp_path, capsys, model, coeffs,
                                                  message):
        entries = [{"h": {"type": "indicator", "t": 0.5},
                    "g": {"type": "poly", "coeffs": coeffs}}]
        path = tmp_path / "q.json"
        path.write_text(json.dumps(entries))
        code = main(["fclt", "--q-set", "custom-file", "--q-file", str(path),
                     "--model", model, "--run-modulus", "false", "--run-lindeberg", "false",
                     "--n", "50", "--replicates", "100"])
        assert code == 2
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize("exc", [QuadratureError("no convergence", 0.5)],
                             ids=["quadrature"])
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

    @pytest.mark.parametrize("argv", [["--j", "1"], ["--j", "1", "--parity", "even"]],
                             ids=["B3", "B2"])
    def test_ulln_net_u_outside_b1_exit_2(self, capsys, argv):
        # the net sandwich covers B(1) x half-lines only: elsewhere net_u did nothing
        code = main(["ulln", *argv, "--net-u", "0.3", "--n-schedule", "50,100",
                     "--replicates", "3"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: config key ulln.net_u must be 0 unless")
        assert "got 0.3" in err

    @pytest.mark.parametrize("argv", [["--set", "parity=even", "--set", "j=0"],
                                      ["--parity", "even", "--j", "0"]], ids=["set", "flags"])
    def test_ulln_even_parity_j0_names_its_key(self, capsys, argv):
        # B(0) is no class: a config error on ulln.j, not a bare error
        assert main(["ulln", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: config key ulln.j must be at least 1")
        assert err.endswith("got 0\n")

    @pytest.mark.parametrize("q_set", ["kiefer-3", "kiefer-grid", "holder-product"])
    def test_fclt_q_file_outside_custom_file_exit_2(self, capsys, q_set):
        # only the custom-file q set reads the file: elsewhere it did nothing
        code = main(["fclt", "--q-set", q_set, "--q-file", "/nonexistent.json"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: config key fclt.q_file must be empty unless")
        assert "got '/nonexistent.json'" in err


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
        (["fclt", "--set", 'alpha_list=[0.1,"a"]', "--set", "run_lindeberg=false"],
         "fclt.alpha_list"),
        (["ulln", "--set", 'n_schedule=[100,"a"]'], "ulln.n_schedule"),
        (["ulln", "--set", "n_schedule=[true,100]"], "ulln.n_schedule"),
        (["fclt", "--set", 'h_class={"class":"bvector"}', "--set", "run_lindeberg=false"],
         "fclt.h_class.class"),
        (["fclt", "--set", 'h_class={"class":"halflines"}', "--set", "run_lindeberg=false"],
         "fclt.h_class.class"),
        (["fclt", "--set", 'h_class={"class":"holder","T":true,"C":1.0,"beta":true}',
          "--set", "run_lindeberg=false"], "fclt.h_class.T"),
        (["fclt", "--net-u", "0", "--set", 'h_class={"class":"indicators"}'], "fclt.net_u"),
        (["fclt", "--net-u", "-0.3", "--set", 'h_class={"class":"indicators"}'], "fclt.net_u"),
        (["fclt", "--net-u", "1e-200", "--set", 'h_class={"class":"indicators"}'],
         "fclt.net_u"),
        (["fclt", "--net-u", "1e-160", "--set", 'h_class={"class":"indicators"}'],
         "fclt.net_u"),
        (["fclt", "--net-u", "0", "--run-lindeberg", "false"], "fclt.net_u"),
        (["kiefer", "--set", "grid=0"], "kiefer.grid"),
        (["bounds", "--set", "n_list=[]"], "bounds.n_list"),
        (["bounds", "--set", "members=0"], "bounds.members"),
        (["bounds", "--set", "witness_max_n=0"], "bounds.witness_max_n"),
        (["covering", "--set", "n_list=[]"], "covering.n_list"),
        (["covering", "--set", "n_seeds=0"], "covering.n_seeds"),
        (["covering", "--trials", "0"], "covering.trials"),
    ], ids=["ulln-decreasing", "ulln-repeated", "ulln-empty", "ulln-replicates", "fclt-alpha",
            "fclt-alpha-empty", "fclt-modulus-replicates", "fclt-replicates", "kiefer-draws",
            "fclt-alpha-element", "ulln-schedule-element", "ulln-schedule-bool",
            "fclt-h-class-bvector", "fclt-h-class-halflines", "fclt-h-class-bool",
            "fclt-net-u-zero-indicators",
            "fclt-net-u-negative-indicators", "fclt-net-u-mesh-underflow-indicators",
            "fclt-net-u-mesh-past-float-indicators", "fclt-net-u-zero-holder", "kiefer-grid",
            "bounds-n-list-empty", "bounds-members", "bounds-witness-max-n",
            "covering-n-list-empty", "covering-n-seeds", "covering-trials"])
    def test_bad_config_exit_2(self, capsys, argv, key):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config key {key} must be")

    @pytest.mark.parametrize("desc,key", [
        ('{"class":"holder","T":true,"C":1.0,"beta":true}', "T"),
        ('{"class":"holder","beta":false}', "beta"),
        ('{"class":"holder","C":"1.0"}', "C"),
    ])
    def test_h_class_field_not_a_number_names_the_field(self, capsys, desc, key):
        # a bool would read as 1.0 or 0.0, a string as the number it spells
        assert main(["fclt", "--set", f"h_class={desc}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config key fclt.h_class.{key} must be float, got")

    def test_int_list_elements_coerced_to_float(self):
        cfg = parse_config("fclt", {"alpha_list": [1, 2.5]})
        assert cfg["alpha_list"] == [1.0, 2.5]
        assert all(type(a) is float for a in cfg["alpha_list"])

    def test_one_alpha_has_no_smallest_largest_row(self):
        # one alpha is both the smallest and the largest, so the ratio row is not run
        rep = run_experiment("fclt", {"n": 50, "replicates": 2, "alpha_list": [0.4],
                                      "net_u": 0.45, "modulus_replicates": 1,
                                      "run_lindeberg": False, "cov_tolerance": 10.0,
                                      "ks_tolerance": 10.0})
        names = [e["name"] for e in rep["ledger"]]
        assert "mean modulus nondecreasing in alpha" in names
        assert not any(name.startswith("modulus at smallest alpha") for name in names)

    @pytest.mark.parametrize("argv", [
        ["ulln", "--n-schedule", "20", "--replicates", "1"],
        ["fclt", "--n", "50", "--replicates", "2", "--alpha-list", "0.1,0.4", "--net-u", "0.45",
         "--modulus-replicates", "1", "--run-lindeberg", "false",
         "--cov-tolerance", "10", "--ks-tolerance", "10"],
        ["kiefer", "--draws", "2", "--tolerance", "10"],
        ["fclt", "--n", "50", "--replicates", "2", "--alpha-list", "0.4", "--net-u", "0.45",
         "--modulus-replicates", "1", "--run-lindeberg", "false",
         "--cov-tolerance", "10", "--ks-tolerance", "10"],
    ], ids=["ulln", "fclt", "kiefer", "fclt-one-alpha"])
    def test_smallest_valid_counts_exit_0(self, argv):
        assert main(argv) == 0


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def _run_capped(args: list) -> subprocess.CompletedProcess:
    """python args in a child with a 60 s timeout and a 2 GiB address-space
    cap, so a value that makes the code loop without end fails the test
    instead of stalling the suite or filling the memory."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=60, preexec_fn=_cap_address_space)


class TestRunawayValues:
    """Values that died with a traceback (n = 0 divides by zero or gives nan
    rows, a fine indicator net asks for its full distance matrix) or never
    returned (the greedy net sweep on nan distances or a radius u <= 0): each
    is a config error naming its key, or a valid value that now runs."""

    @pytest.mark.parametrize("argv,key", [
        (["bounds", "--set", "n_list=[0,10]"], "bounds.n_list"),
        (["covering", "--set", "n_list=[0]"], "covering.n_list"),
        (["covering", "--set", "tau=0"], "covering.tau"),
        (["fclt", "--n", "0", "--run-modulus", "false"], "fclt.n"),
    ], ids=["bounds-n-list", "covering-n-list", "covering-tau", "fclt-n"])
    def test_exit_2_naming_the_key(self, argv, key):
        out = _run_capped(["-m", "semproc.cli", *argv])
        assert out.returncode == 2, out.stderr
        assert out.stderr.startswith(f"config error: config key {key} must be")

    @pytest.mark.parametrize("net_u", ["0.0001", "1e-9"])
    def test_tiny_net_u_is_a_config_error(self, net_u):
        # the Holder net's member bound has about 2/net_u digits: it is compared
        # in log space, before the anchors are listed
        out = _run_capped(["-m", "semproc.cli", "fclt", "--net-u", net_u])
        assert out.returncode == 2, out.stderr
        assert out.stderr.startswith("config error: config key fclt.net_u must be")
        assert len(out.stderr) < 300

    @pytest.mark.parametrize("j", ["1000000000000", "100000000000000000000"])
    def test_huge_j_runs_in_under_a_second(self, j):
        # unclamped, the run DP's (j + 2, 1, 1) state array would take
        # 7.28 TiB at j = 1e12; 5 grid points hold at most 3 runs
        start = time.perf_counter()
        assert main(["ulln", "--set", f"j={j}", "--set", "n_schedule=[5]",
                     "--set", "replicates=1"]) == 0
        assert time.perf_counter() - start < 1.0

    def test_fine_indicator_net_u_runs_without_a_traceback(self):
        # 1e6 indicators at net_u = 1e-3: the pool thins the net before its
        # distance matrix (7.28 TiB in full) is built
        out = _run_capped(["-m", "semproc.cli", "fclt", "--set",
                           'h_class={"class": "indicators"}', "--net-u", "1e-3",
                           "--replicates", "200", "--modulus-replicates", "5",
                           "--run-lindeberg", "false"])
        assert out.returncode in (0, 1), out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("h_class", ['{"class": "indicators"}', '{"class": "holder"}'])
    def test_huge_fclt_net_u_keeps_one_g_member(self, tmp_path, h_class):
        # net_u**2 overflows to an infinite mesh: each line net keeps one member
        out = tmp_path / "f.json"
        assert main(["fclt", "--h-class", h_class, "--net-u", "1e200", "--n", "20",
                     "--replicates", "5", "--run-lindeberg", "false",
                     "--out", str(out)]) in (0, 1)
        assert json.loads(out.read_text())["results"]["modulus"]["g_pool"] == 1

    def test_huge_ulln_net_u_keeps_the_sandwich_of_net_u_3(self, tmp_path):
        # a stride of u * n past n selects the last sample point alone
        def lower(net_u: str) -> float:
            out = tmp_path / f"u{net_u}.json"
            assert main(["ulln", "--n-schedule", "1000", "--replicates", "1",
                         "--net-u", net_u, "--out", str(out)]) == 0
            rows = [e["observed"] for e in json.loads(out.read_text())["ledger"]
                    if e["name"].startswith("net sandwich")]
            return rows[0]["lower"]

        assert lower("1e306").hex() == lower("3").hex()

    def test_greedy_net_rejects_what_never_ends_its_sweep(self):
        code = textwrap.dedent("""
            import math
            import numpy as np
            from semproc.covering import greedy_net_indices
            dist = np.array([[0.0, 1.0], [1.0, 0.0]])
            cases = [(dist, 0.0), (dist, -1.0), (dist, math.nan),
                     (np.full((2, 2), math.nan), 0.5),
                     (np.array([[0.0, math.inf], [math.inf, 0.0]]), 0.5)]
            for d, u in cases:
                try:
                    greedy_net_indices(d, u)
                except ValueError:
                    print("ValueError")
        """)
        out = _run_capped(["-c", code])
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["ValueError"] * 5


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
