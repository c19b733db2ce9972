"""A config fuzz generated from the key tables in semproc.cli: the
EXPERIMENTS tables, each h_class kind's table in H_CLASSES and each q-file
part type's table in Q_PARTS.

Every key but q_file (a path, read only by the custom-file q set) and the
two bool switches is run at the boundary values of its type on a small base
config, each float also as an integer past the float range; each h_class
kind's and q-file type's field is run the same way, and so is a key that
another kind reads.  Every run must end in exit 0, 1 or 2, never in a
traceback; a value outside its key's rules (or not finite, or past the float
range, or a key its kind does not read) must exit 2 with a config error
naming the key's full path.  The finite extremes 5e-324 and 1e300 can size a
net or a cover, so they run in a child with a timeout and an address-space
cap; everything else runs in process, but for the q-file cases, which run in
one capped child.
"""

import contextlib
import io
import json
import math
import textwrap

import pytest

from semproc.cli import EXPERIMENTS, H_CLASSES, Q_PARTS, _parse_override, main, parse_config

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

BIG = 10**400  # an integer past the float range
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


def _ill(numbers) -> bool:
    """Whether a float key's values hold one the reader rejects by its type."""
    return any(x == "x" or x is BIG or (isinstance(x, float) and not math.isfinite(x))
               for x in numbers)


def _values(default) -> list:
    if isinstance(default, float):
        return FLOATS + [BIG]
    if isinstance(default, int):
        return INTS
    if isinstance(default, str):
        return ["", "no-such-name"]
    elems = FLOATS + [BIG] if isinstance(default[0], float) else INTS
    return [[], ["x"]] + [[v] for v in elems]


def _h_class_cases():
    """(value, path, outside) per h_class kind's field at each boundary, and
    per key that only another kind reads."""
    for kind, (keys, _) in H_CLASSES.items():
        base = {"class": kind, **{field: default for field, (default, *_) in keys.items()}}
        for field, (default, *rules) in keys.items():
            for v in _values(default):
                yield ({**base, field: v}, f"fclt.h_class.{field}",
                       _ill([v]) or not _holds(rules, v))
        others = {f for other, (k, _) in H_CLASSES.items() if other != kind for f in k}
        for field in sorted(others - set(keys)):
            yield {**base, field: 0.5}, f"fclt.h_class.{field}", True


def _cases():
    """(experiment, key, value, outside its rules, run capped, named path)
    per boundary value."""
    for exp, spec in EXPERIMENTS.items():
        for key, (default, *rules) in spec.keys.items():
            if key == "q_file" or isinstance(default, bool):
                continue
            if isinstance(default, dict):  # the h_class descriptor
                assert key == "h_class"
                cases = _h_class_cases()
            else:
                cases = ((value, f"{exp}.{key}",
                          _ill(value if isinstance(value, list) else [value])
                          or not _holds(rules, value)) for value in _values(default))
            for value, path, outside in cases:
                numbers = value.values() if isinstance(value, dict) else (
                    value if isinstance(value, list) else [value])
                capped = any(isinstance(x, float) and x in CAPPED for x in numbers)
                yield exp, key, value, outside, capped, path


CASES = list(_cases())


def _id(exp, key, value, outside) -> str:
    return "-".join([json.dumps(exp), json.dumps(key),
                     json.dumps(value).replace(str(BIG), "1e400int"), str(outside)])


def _base_argv(exp: str) -> list:
    return [exp] + [a for k, v in BASE[exp].items() for a in ("--set", f"{k}={json.dumps(v)}")]


def _argv(exp: str, key: str, value) -> list:
    return _base_argv(exp) + ["--set", f"{key}={json.dumps(value)}"]


def _check(case, code, err: str, where: str = "config") -> None:
    *_, outside, path = case
    assert code in (0, 1, 2), (case, code, err)
    assert "Traceback" not in err, (case, err)
    if outside:
        assert code == 2, (case, code, err)
        assert (err.startswith(f"config error: {where} key {path} must be")
                or err == f"config error: {where} has unknown key {path}\n"), (case, err)


@pytest.mark.parametrize("case", [c[:4] + c[5:] for c in CASES if not c[4]],
                         ids=[_id(*c[:4]) for c in CASES if not c[4]])
def test_in_process(monkeypatch, case):
    monkeypatch.setattr("semproc.cli._SELFTEST_SECTIONS", SMALL_SELFTEST)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(_argv(*case[:3]))
    _check(case, code, err.getvalue())


# one child per batch runs its argv lists in turn and prints one JSON line
# each; an uncaught exception ends the child with its traceback
_CHILD = textwrap.dedent("""
    import contextlib, io, json, sys
    from semproc.cli import main
    for argv in json.loads(sys.argv[1]):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        print(json.dumps([code, err.getvalue()]), flush=True)
""")


def _run_batch(argvs: list) -> list:
    out = _run_capped(["-c", _CHILD, json.dumps(argvs)])
    lines = out.stdout.splitlines()
    assert out.returncode == 0 and len(lines) == len(argvs), (
        argvs[len(lines)] if len(lines) < len(argvs) else None, out.stderr[-2000:])
    return [json.loads(line) for line in lines]


@pytest.mark.parametrize("exp", sorted({c[0] for c in CASES if c[4]}))
def test_capped(exp):
    cases = [c[:4] + c[5:] for c in CASES if c[4] and c[0] == exp]
    for case, (code, err) in zip(cases, _run_batch([_argv(*c[:3]) for c in cases])):
        _check(case, code, err)


# a valid part of each q-file type; every type of Q_PARTS has one
Q_BASE = {"indicator": {"t": 0.5}, "holder-pl": {"knots": [0.0, 1.0], "values": [0.0, 1.0]},
          "half-line": {"w": 0.5}, "initial-interval": {"w": 0.5}, "poly": {"coeffs": [0.0, 1.0]}}


def _q_cases():
    """(entry, path, outside) per q-file type's field at each float boundary
    (a list field's first element), and per key that only another type of
    the same part reads."""
    for part, types in Q_PARTS.items():
        other = "g" if part == "h" else "h"
        good = {"type": next(iter(Q_PARTS[other])), **Q_BASE[next(iter(Q_PARTS[other]))]}
        for kind, (keys, _) in types.items():
            base = {"type": kind, **Q_BASE[kind]}
            for field in keys:
                for v in FLOATS + [BIG]:
                    value = [v, *base[field][1:]] if isinstance(base[field], list) else v
                    yield ({part: {**base, field: value}, other: good}, f"{part}.{field}",
                           _ill([v]))
            fields = {f for k, (table, _) in types.items() if k != kind for f in table}
            for field in sorted(fields - set(keys)):
                yield {part: {**base, field: 0.5}, other: good}, f"{part}.{field}", True


def test_q_parts_all_have_a_base():
    assert {k: set(v) for k, v in Q_BASE.items()} == {
        kind: set(keys) for types in Q_PARTS.values() for kind, (keys, _) in types.items()}


def test_q_file_fields(tmp_path):
    cases, argvs = list(_q_cases()), []
    for i, (entry, _, _) in enumerate(cases):
        path = tmp_path / f"q{i}.json"
        path.write_text(json.dumps([entry]))
        argvs.append(_base_argv("fclt") + ["--q-set", "custom-file", "--q-file", str(path),
                                           "--run-modulus", "false"])
    for (entry, path, outside), (code, err) in zip(cases, _run_batch(argvs)):
        _check((entry, outside, path), code, err, where="q file entry 0")


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
    (["fclt", "--set", 'h_class={"class":"holder","T":NaN}'], "fclt.h_class.T"),
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


# The fuzz above accepts exit 0, 1 or 2 for a value inside its rules, so it
# cannot see a reader that rejects valid configs.  Each key's own default,
# given back as --set key=<json>, must read without a ConfigError, and so
# must each h_class kind with its fields at their defaults.
@pytest.mark.parametrize("exp,key", [(exp, key) for exp, spec in EXPERIMENTS.items()
                                     for key in spec.keys])
def test_each_default_given_back_is_accepted(exp, key):
    default = EXPERIMENTS[exp].keys[key][0]
    name, value = _parse_override(f"{key}={json.dumps(default)}")
    assert parse_config(exp, {name: value}) == parse_config(exp, {})


@pytest.mark.parametrize("kind", sorted(H_CLASSES))
def test_each_h_class_kind_at_its_defaults_is_accepted(kind):
    desc = {"class": kind, **{f: d for f, (d, *_) in H_CLASSES[kind][0].items()}}
    assert parse_config("fclt", {"h_class": desc})["h_class"] == desc


# An integer of more digits than Python converts ends json's read with a bare
# ValueError; each reader of outside input names where the number came from.
_HUGE = "1" + "0" * 4400


def test_huge_integer_in_set_names_the_flag_and_key(capsys):
    assert main(["ulln", "--set", f"net_u={_HUGE}"]) == 2
    assert capsys.readouterr().err.startswith("config error: --set net_u: Exceeds the limit")


def test_huge_integer_in_config_file_names_the_file(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(f'{{"net_u": {_HUGE}}}')
    assert main(["ulln", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: --config {path}: Exceeds the limit")


def test_huge_integer_in_q_file_names_the_file(tmp_path, capsys):
    path = tmp_path / "q.json"
    path.write_text(f'[{{"h": {{"type": "indicator", "t": {_HUGE}}}, '
                    f'"g": {{"type": "half-line", "w": 0.5}}}}]')
    assert main(["fclt", "--q-set", "custom-file", "--q-file", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: q file {path}: Exceeds the limit")
