"""Pinned report digests and Lindeberg rows.

The values were recorded before the sampling, member-pool and pair paths
were merged, and the two fclt q_set cases (Holder products with the
Lindeberg check, the Kiefer grid under a normal model) before the Q
functions lost their separate array evaluator, and the two ulln-runs cases
(j >= 1 at n = 1000, 2001 columns) before the run DP became one row sweep;
refactors of those paths must leave every byte unchanged.

The bounds pin was re-recorded when series_I_quadrature moved from
scipy.integrate.quad onto semproc.quadrature.integrate: diffing the two
reports shows only the 27 series_I quadrature and rel_err values changed
(every rel_err stays below 1e-9 against the closed form).  It was re-recorded
once more when its integrand's upper incomplete gamma moved from
scipy.special.gammaincc onto the Poisson sum semproc.special.gammaincc:
diffing the two reports shows only the last bits of 9 of the series_I
quadrature values and their rel_err changed.  The closed form
series_I_closed_form is the oracle there, and it did not move.

Three groups were re-recorded when every lambda-integral became a closed
form and the Kiefer sampler moved onto Brownian-sheet increments; diffing
old and new reports shows only these values changed:
- the two bounds pins: the "series S dichotomy classifications" ledger row's
  observed value now holds each c's bracket_misses() beside its
  classification (all 0);
- every fclt pin that runs the Lindeberg check (fclt-holder-product-q,
  fclt-kiefer-grid-normal, the custom file) and seven of the twelve
  Lindeberg row pins: limit_variance, now Var_nu(g) lambda(h^2) instead of
  adaptive Simpson, e.g. 0.3333333333331778 -> 0.3333333333333333 (exactly
  float(1/3)) and 0.003849999999992487 -> 0.0038499999999999997; the other
  five already read the closed form's bits;
- the custom file: lambda(h1 h2) for its indicator times each
  piecewise-linear h is now a trapezoid sum instead of quadrature, so
  analytic_cov[0][1] reads -0.0 for the exact 0 (was 2.4e-19) and
  analytic_cov[0][2] moves by 4e-15, with the combination variances and KS
  distances that read them in their last bits;
- kiefer: empirical_cov and sampler_error (0.0102 -> 0.0053), drawn from
  the sheet instead of an eigendecomposition; the x = 1 entries now read
  exactly 0.0, where they read up to 4e-13.

Four fclt pins were re-recorded when the fidi test's Z columns came from
fclt.process_deviations, the one P_n(hg) - lambda_n(h) nu(g) kernel:
fclt-holder-product-q, fclt-indicator-modulus, fclt-kiefer-grid-normal and
the custom file.  Each q column keeps its GEMV sums but is now centred by
lambda_n(h) nu(g), where it was lambda_n(h nu(g)); the two agree bit for
bit when h is 0/1 and nu(g) dyadic, as for kiefer-3 under uniform01, but
not otherwise.  Diffing old and new reports, only fidi values moved
(empirical covariances, KS distances and their ledger echoes), none by more
than 3.9e-14 relative.  fclt-holder-modulus held: its kiefer-3 columns
happen to round the same way in both forms.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from semproc.cli import numeric_bytes, run_experiment
from semproc.fclt import lindeberg_check
from semproc.function_classes import HalfLine, InitialInterval, indicator
from semproc.measures import draw_sample, parse_model
from semproc.piecewise import PiecewiseLinear

SRC = Path(__file__).resolve().parents[1] / "src"
_SMALL_FCLT = {"modulus_replicates": 5, "run_lindeberg": False,
               "cov_tolerance": 0.3, "ks_tolerance": 0.3}

CASES = {
    "ulln-j0-odd-uniform": (
        "ulln", {"j": 0, "parity": "odd", "model": "uniform01", "n_schedule": [20, 50],
                 "replicates": 5, "seed": 3, "net_u": 0.3},
        "0a7eedee412908fbc9e870100710e7220fb3ad01a9018fc0130eac477e92e00f"),
    "ulln-j1-even-exponential": (
        "ulln", {"j": 1, "parity": "even", "model": "exponential(2)", "n_schedule": [20, 40],
                 "replicates": 4, "seed": 5},
        "09ab2755a43a65bb71415676db06b828083af3f2487e8566e140b668723576a8"),
    "ulln-j1-odd-normal-lambda": (
        "ulln", {"j": 1, "parity": "odd", "model": "standard-normal", "n_schedule": [20, 40],
                 "replicates": 4, "seed": 7, "centering": "lambda"},
        "8f090a7693eabdf1d691c34c36005431cc122a2e38e171ead779766739f273f3"),
    "fclt-holder-modulus": (
        "fclt", {"n": 150, "replicates": 300, "seed": 8, "alpha_list": [0.2, 0.5],
                 "net_u": 0.6, "model": "standard-normal",
                 "h_class": {"class": "holder", "T": 1.0, "C": 0.5, "beta": 1.0},
                 **_SMALL_FCLT},
        "7d8f9101d137b358e0bb60a9337d43a6a4e71a8f56397f87f6bae5f87d04b595"),
    "fclt-holder-product-q": (
        "fclt", {"q_set": "holder-product", "n": 120, "replicates": 200, "seed": 4,
                 "modulus_replicates": 4, "alpha_list": [0.3, 0.8], "net_u": 0.6},
        "6d80ccdd58ba76e1931a945ebca25a2f85ef1f07fd4e6d907a700d8ebbacfc0b"),
    "fclt-kiefer-grid-normal": (
        "fclt", {"q_set": "kiefer-grid", "n": 100, "replicates": 150, "seed": 5,
                 "model": "standard-normal", "run_modulus": False},
        "687220712e72705015ebc059e64c89d14f23bad57a9235c54f5bd546a26d80de"),
    "fclt-indicator-modulus": (
        "fclt", {"n": 120, "replicates": 200, "seed": 9, "alpha_list": [0.2, 0.6],
                 "net_u": 0.3, "model": "exponential(2)", "h_class": {"class": "indicators"},
                 **_SMALL_FCLT},
        "8404a59069c9c001218398eb01210c05d63f404a6ce419112574c472268a486e"),
    "covering": (
        "covering", {"trials": 30, "seed": 2, "n_list": [20, 100], "n_seeds": 3},
        "b39d058769225e521a84555c75fd510fb433306202f7afaccee1d2d29cecc2cc"),
    "bounds": (
        "bounds", {"members": 20, "seed": 4, "n_list": [10, 40], "witness_max_n": 5},
        "f3aa03855f883c9f5a9fccd77893f7b20792ab29a8e841cc0e58472947560f46"),
    "kiefer": (
        "kiefer", {"draws": 5000, "seed": 6, "tolerance": 0.1},
        "56a6c3ea1225e19b730457fcfeb574eedfc3fc58a39b31aeb2f5b85e258c26bc"),
    "ulln-runs-j1-odd-normal": (
        "ulln", {"j": 1, "parity": "odd", "model": "standard-normal", "n_schedule": [100, 1000],
                 "replicates": 2, "seed": 11},
        "0f0391c4450cc48000a33ec82f8458f525ecfa034deeb736d14d7f5d55ebd6af"),
    "ulln-runs-j2-even-exponential": (
        "ulln", {"j": 2, "parity": "even", "model": "exponential(1)", "n_schedule": [100, 1000],
                 "replicates": 2, "seed": 12},
        "f063b27db1f16b6ba79b9fd286ed9e9c027c5754d4b524d52f7ddce2b91c3622"),
    # recorded before the j = 0 branch and bound bounded (column block x step
    # block) cells: at n = 20000 pass 1 runs in many groups of column blocks
    "ulln-j0-odd-exponential-20000": (
        "ulln", {"j": 0, "parity": "odd", "model": "exponential(1)", "n_schedule": [3000, 20000],
                 "replicates": 2, "seed": 13},
        "409d363427f83ffcfde2dd198c87db706f4765327202de8608c98181350ba441"),
    # recorded before the lemma trials ran in blocks of 50 and the set members
    # were drawn in bulk: 77 trials end mid-block, 33 members a short draw
    "covering-block-edge": (
        "covering", {"trials": 77, "seed": 3, "n_list": [20, 100], "n_seeds": 3},
        "fd55935e586143fc129dc5b144e6142aa9213e218ffced5ed37de64fecf66db6"),
    "bounds-short-bulk-draw": (
        "bounds", {"members": 33, "seed": 4, "n_list": [10, 40], "witness_max_n": 5},
        "5f592a72c93545298ed30299bfaf941754fa2866bda6ddd6f2f654a86e2a08c1"),
    # recorded when the run DP still swept every column, one replicate at a
    # time at n = 3000; the branch and bound sweeps them two at a time
    "ulln-runs-j3-odd-uniform-3000": (
        "ulln", {"j": 3, "parity": "odd", "model": "uniform01", "n_schedule": [3000],
                 "replicates": 4, "seed": 14},
        "ff08a43247abb76deca329f8934a66b6aebb40763ae8bab197e069e9961b301a"),
    # the benchmark's ulln-prefix config at seed 1, recorded when set members
    # met the grid only through their integer floors: two of the net
    # sandwich's 11 indicators end on floats just below a grid point
    "ulln-prefix-net-sandwich": (
        "ulln", {"j": 0, "parity": "odd", "model": "uniform01", "n_schedule": [1000, 10000],
                 "replicates": 8, "seed": 1, "net_u": 0.2},
        "bb211f316b5fdfdf1ab71b9f0cd5c73e13da944e2a52f18a5f5948ecc7d18602"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_numeric_sha256_pinned(name):
    experiment, cfg, want = CASES[name]
    report = run_experiment(experiment, cfg)
    assert hashlib.sha256(numeric_bytes(report)).hexdigest() == want


# The default report of each experiment, as `semproc <experiment>` prints
# its digest, in a child at one BLAS thread.  The fclt and selftest pins are
# one-thread pins of this host's OpenBLAS kernel (the modulus GEMM and
# np.cov round with it) until the fclt digest depends on the config alone
# (ROADMAP, "Digests that depend on the config alone").  selftest exits 1 at
# its default seed (a marginal KS distance over its fixed tolerance).
DEFAULT_PINS = {
    "selftest": "8373a3c3f7fb9c024e472d00b125fbcf30e122d7b5ced6b073d1fc7bdf8a1b1e",
    "bounds": "7ee2073b283d86805a0be69042a2d39717049756749c1aec63d3949620e2b197",
    "kiefer": "5adfadac94533ed68e413c1b2edf58b62449fd43f143146fff32b0cf0acabb70",
    "covering": "4c7a7b34ef60f13412863c4e788581ec98f766af0ad36bc753ff29c507035737",
    "fclt": "9bf1664cfabff0b874a2235e07aaed53001c7af86df3588f46991f74ef1816fa",
    "ulln": "29a8807f10c7d9f96ca3b0f7ff7cb50c7ca2cd54a8864a30783fb9ce2cc70969",
}


@pytest.mark.parametrize("experiment", sorted(DEFAULT_PINS))
def test_default_digest_pinned_at_one_blas_thread(experiment):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("OPENBLAS_", "OMP_", "MKL_", "NPY_DISABLE_CPU_FEATURES"))}
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-m", "semproc.cli", experiment], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode in (0, 1), out.stderr
    assert out.stdout.split()[2] == f"numeric_sha256={DEFAULT_PINS[experiment]}"


# BLAS and SIMD settings that change no kiefer byte: the Kiefer sampler sums
# sheet increments and its covariance reduces products with np.sum, so no
# GEMM or LAPACK call reaches the report.  Haswell needs AVX2, Prescott
# SSE3; a setting the host cannot execute kills the child by a signal and
# is skipped.
_KIEFER_SETTINGS = {
    "blas-1-thread": {"OPENBLAS_NUM_THREADS": "1"},
    "blas-2-threads": {"OPENBLAS_NUM_THREADS": "2"},
    "coretype-haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "coretype-prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "avx512-dispatch-off": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
}


@pytest.mark.parametrize("setting", sorted(_KIEFER_SETTINGS))
def test_kiefer_digest_ignores_blas_and_simd(setting):
    experiment, cfg, want = CASES["kiefer"]
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("OPENBLAS_", "NPY_DISABLE_CPU_FEATURES"))}
    env.update(_KIEFER_SETTINGS[setting])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "semproc.cli", experiment]
    for key, value in cfg.items():
        argv += ["--set", f"{key}={json.dumps(value)}"]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    if out.returncode < 0:
        pytest.skip(f"{setting} cannot run on this host (signal {-out.returncode})")
    assert out.returncode == 0, out.stderr
    assert out.stdout.split()[2] == f"numeric_sha256={want}"


# The custom-file q set on a q file of every h and g type: the indicator
# meets the two piecewise-linear h (on different knots) in cov_kernel's
# set x piecewise-linear trapezoid sums.  The report echoes the file's path in
# config.q_file, so the pin hashes the report with that path replaced.
_Q_FILE = [
    {"h": {"type": "indicator", "t": 0.4}, "g": {"type": "half-line", "w": 0.3}},
    {"h": {"type": "holder-pl", "knots": [0.0, 0.5, 1.0], "values": [0.2, -0.3, 0.4]},
     "g": {"type": "initial-interval", "w": 0.6}},
    {"h": {"type": "holder-pl", "knots": [0.0, 0.25, 1.0], "values": [0.0, 0.5, -0.1]},
     "g": {"type": "poly", "coeffs": [0.1, 0.7]}},
]


CUSTOM_FILE_PIN = "0fd9df76e33789cf13f654a6f5d81956331c790b1bda7c45d7692d2dda85aeee"


def test_custom_file_q_set_pinned(tmp_path):
    path = tmp_path / "q.json"
    path.write_text(json.dumps(_Q_FILE))
    report = run_experiment("fclt", {"q_set": "custom-file", "q_file": str(path), "n": 300,
                                     "replicates": 400, "seed": 3, "model": "standard-normal",
                                     "run_modulus": False, "cov_tolerance": 0.3,
                                     "ks_tolerance": 0.3})
    report["config"]["q_file"] = "q.json"
    assert hashlib.sha256(numeric_bytes(report)).hexdigest() == CUSTOM_FILE_PIN


# lindeberg_check on two-valued products that no report runs, recorded while
# a q was still a callback bundle with its own sup-bound shortcut and tail
_LINDEBERG_H = {
    "indicator": indicator(0.45),
    "holder-pl": PiecewiseLinear((0.0, 0.5, 1.0), (0.2, -0.2, 0.3)),
}
_LINDEBERG_G = {"half-line": HalfLine(0.3), "initial-interval": InitialInterval(0.6)}
LINDEBERG_PINS = {
    ("indicator", "half-line", "uniform01"):
        "759f1df2f901aa2f91a807f5c2daff44075335c73f06b323b8d56fa6d0cb3fc5",
    ("indicator", "initial-interval", "uniform01"):
        "6758854082e26b66b93603b311e2138de838b9ee3951ae9b9bae74b6bb95b34c",
    ("holder-pl", "half-line", "uniform01"):
        "1b0ee8b18d6b72f31b892423b3f7af9bb0cd6e94dce69c4a7de442f30baf26f1",
    ("holder-pl", "initial-interval", "uniform01"):
        "13225ab6831d904a9fa0ac8d8f07384e4443258d058e903f61d15e5325114619",
    ("indicator", "half-line", "standard-normal"):
        "e4153cd13402ab3ae13f53cff85717e2aa593de1b10e90e1b42d154538eaa8ca",
    ("indicator", "initial-interval", "standard-normal"):
        "84091416f82450b60aab14eac97ac75a7a900d7e9fbc0631f54a6d1a710b77a8",
    ("holder-pl", "half-line", "standard-normal"):
        "7c7179ae89f58ad666abcc1d4ced0f9886aa22799399fe6a5e0568412c0bd32b",
    ("holder-pl", "initial-interval", "standard-normal"):
        "9e9de500dc81315cf460b47f2f28024bec4a5092ffea278ca5f5d40a7a06700f",
    ("indicator", "half-line", "exponential(2)"):
        "189f37ff1e424df3121ffc4d570a441bb46fd9d1dff102e3149f7b5c7ac89dd7",
    ("indicator", "initial-interval", "exponential(2)"):
        "2d61332444e2a17f9da9cda307bc885dd40fd0a08a1cf52c3da15708ef3e8a13",
    ("holder-pl", "half-line", "exponential(2)"):
        "8aaf5bd004648733b3cb2f53b58a90b53e3462b97f2864f13c0dfa3bc399fa8e",
    ("holder-pl", "initial-interval", "exponential(2)"):
        "cfd2162aea24f02749f89fc941d4ed2ff8ba9a597141975f94e5b8662692d7e1",
}


@pytest.mark.parametrize("h_name,g_name,model", sorted(LINDEBERG_PINS))
def test_lindeberg_product_rows_pinned(h_name, g_name, model):
    q = (_LINDEBERG_H[h_name], _LINDEBERG_G[g_name])
    rep = lindeberg_check(q, parse_model(model), [10, 100, 2000], [0.05, 0.2])
    assert any(r["ratio"] == 0.0 for r in rep["rows"])   # the truncation set empties
    digest = hashlib.sha256(json.dumps(rep).encode()).hexdigest()
    assert digest == LINDEBERG_PINS[(h_name, g_name, model)]


def test_sample_values_read_only():
    s = draw_sample("uniform01", 5, 1)
    with pytest.raises(ValueError):
        s.values[0] = 0.5
    assert s.values.dtype == np.float64
