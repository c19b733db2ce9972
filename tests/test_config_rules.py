"""A config fuzz generated from the rule table in semproc.cli.EXPERIMENTS.

Every key but q_file (a path, read only by the custom-file q set) and the
two bool switches is run at the boundary values of its type on a small base
config.  Every run must end
in exit 0, 1 or 2, never in a traceback; a value outside its key's rules (or
not finite) must exit 2 with a config error naming the key.  The finite
extremes 5e-324 and 1e300 can size a net or a cover, so they run in a child
with a timeout and an address-space cap; everything else runs in process.
"""

import contextlib
import io
import json
import math
import textwrap

import pytest

from semproc.cli import EXPERIMENTS, main

from test_cli import _run_capped

BASE = {
    "ulln": {"n_schedule": [20, 40], "replicates": 3, "net_u": 0.2},
    "fclt": {"n": 50, "replicates": 20, "alpha_list": [0.1, 0.4], "net_u": 0.45,
             "modulus_replicates": 1, "run_lindeberg": False,
             "cov_tolerance": 10.0, "ks_tolerance": 10.0},
    "covering": {"trials": 5, "n_list": [10], "n_seeds": 1},
    "bounds": {"members": 5, "n_list": [10], "witness_max_n": 4},
    "kiefer": {"grid": 2, "draws": 50, "tolerance": 10.0},
    "selftest": {},
}
# selftest runs these sections in place of its own
SMALL_SELFTEST = tuple((name, cfg) for name, cfg in BASE.items() if name != "selftest")

FLOATS = [0.0, -1.0, 5e-324, 1e300, math.nan, math.inf, -math.inf]
INTS = [0, -1]
CAPPED = (5e-324, 1e300)


def _holds(rules: list, value) -> bool:
    for _, ok in rules:
        try:
            if not ok(value):
                return False
        except (ValueError, TypeError):
            return False
    return True


def _cases():
    """(experiment, key, value, outside its rules, run capped) per boundary value."""
    for exp, spec in EXPERIMENTS.items():
        for key, (default, *rules) in spec.keys.items():
            if key == "q_file" or isinstance(default, bool):
                continue
            if isinstance(default, float):
                values = FLOATS
            elif isinstance(default, int):
                values = INTS
            elif isinstance(default, str):
                values = ["", "no-such-name"]
            elif isinstance(default, list):
                elems = FLOATS if isinstance(default[0], float) else INTS
                values = [[], ["x"]] + [[v] for v in elems]
            else:  # the h_class descriptor: each field at the float boundaries
                values = [{**default, field: v} for field in ("T", "C", "beta") for v in FLOATS]
            for value in values:
                numbers = value.values() if isinstance(value, dict) else (
                    value if isinstance(value, list) else [value])
                finite = all(not isinstance(x, float) or math.isfinite(x) for x in numbers)
                well_typed = value != ["x"]
                outside = not (finite and well_typed and _holds(rules, value))
                capped = any(isinstance(x, float) and x in CAPPED for x in numbers)
                yield exp, key, value, outside, capped


CASES = list(_cases())


def _base_argv(exp: str) -> list:
    return [exp] + [a for k, v in BASE[exp].items() for a in ("--set", f"{k}={json.dumps(v)}")]


def _argv(exp: str, key: str, value) -> list:
    return _base_argv(exp) + ["--set", f"{key}={json.dumps(value)}"]


def _check(exp: str, key: str, value, outside: bool, code, err: str) -> None:
    assert code in (0, 1, 2), (exp, key, value, code, err)
    assert "Traceback" not in err, (exp, key, value, err)
    if outside:
        assert code == 2, (exp, key, value, code, err)
        assert err.startswith(f"config error: config key {exp}.{key} must be"), err


@pytest.mark.parametrize("exp,key,value,outside",
                         [c[:4] for c in CASES if not c[4]],
                         ids=lambda v: json.dumps(v) if not isinstance(v, bool) else None)
def test_in_process(monkeypatch, exp, key, value, outside):
    monkeypatch.setattr("semproc.cli._SELFTEST_SECTIONS", SMALL_SELFTEST)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(_argv(exp, key, value))
    _check(exp, key, value, outside, code, err.getvalue())


@pytest.mark.parametrize("exp", sorted({c[0] for c in CASES if c[4]}))
def test_capped(exp):
    # one child per experiment runs its cases in turn and prints one JSON
    # line each; an uncaught exception ends the child with its traceback
    cases = [c for c in CASES if c[4] and c[0] == exp]
    code = textwrap.dedent("""
        import contextlib, io, json, sys
        from semproc.cli import main
        for argv in json.loads(sys.argv[1]):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            print(json.dumps([code, err.getvalue()]), flush=True)
    """)
    out = _run_capped(["-c", code, json.dumps([_argv(*c[:3]) for c in cases])])
    lines = out.stdout.splitlines()
    assert out.returncode == 0 and len(lines) == len(cases), (
        cases[len(lines)][:3] if len(lines) < len(cases) else None, out.stderr[-2000:])
    for (exp, key, value, outside, _), line in zip(cases, lines):
        _check(exp, key, value, outside, *json.loads(line))


# The holes the table closed: each exited 0 or 1, ended in a traceback, or
# named no key before every value rule sat in EXPERIMENTS.
@pytest.mark.parametrize("argv,key", [
    (["ulln", "--set", "net_u=Infinity"], "ulln.net_u"),
    (["ulln", "--set", "net_u=NaN"], "ulln.net_u"),
    (["ulln", "--set", "net_u=-1"], "ulln.net_u"),
    (["fclt", "--set", "cov_tolerance=Infinity", "--set", "ks_tolerance=Infinity"],
     "fclt.cov_tolerance"),
    (["fclt", "--set", "cov_tolerance=NaN"], "fclt.cov_tolerance"),
    (["fclt", "--set", "ks_tolerance=Infinity"], "fclt.ks_tolerance"),
    (["kiefer", "--set", "tolerance=Infinity"], "kiefer.tolerance"),
    (["kiefer", "--set", "tolerance=NaN"], "kiefer.tolerance"),
    (["covering", "--set", "tau=Infinity"], "covering.tau"),
    (["fclt", "--alpha-list=-1,0.4"], "fclt.alpha_list"),
    (["covering", "--seed", "-1"], "covering.seed"),
    (["kiefer", "--seed", "-1"], "kiefer.seed"),
    (["ulln", "--seed", "-1"], "ulln.seed"),
    (["fclt", "--seed", "-1"], "fclt.seed"),
    (["bounds", "--seed", "-1"], "bounds.seed"),
    (["bounds", "--set", f"seed={2**64}"], "bounds.seed"),
    (["fclt", "--run-modulus", "false", "--net-u", "0"], "fclt.net_u"),
    (["ulln", "--model", "exponential(nan)"], "ulln.model"),
    (["fclt", "--model", "exponential(inf)"], "fclt.model"),
    (["ulln", "--model", "gamma"], "ulln.model"),
    (["ulln", "--parity", "both"], "ulln.parity"),
    (["ulln", "--centering", "lambda-typo"], "ulln.centering"),
    (["ulln", "--set", 'n_schedule=[0,10]'], "ulln.n_schedule"),
    (["fclt", "--set", 'h_class={"class":"holder","T":NaN}'], "fclt.h_class"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_closed_holes_exit_2_naming_the_key(capsys, argv, key):
    assert main(_base_argv(argv[0]) + argv[1:]) == 2
    assert capsys.readouterr().err.startswith(f"config error: config key {key} must be")


def test_small_holder_beta_is_a_config_error(capsys):
    # (4 C / u) ** (1 / beta) overflows a float at beta = 0.001: the grid count
    # is bounded in log space and the net is too large for any net_u
    argv = ["fclt", "--set", 'h_class={"class":"holder","beta":0.001}']
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config key fclt.net_u must be large enough")
    assert "more than 1e308 members (cap 500000)" in err
