"""Workload definitions: the operations of one round and the checks on their
outputs.

A round's configs depend only on the benchmark seed and the round index, and
semproc receives nothing but those configs.  Checks run after the timed part
of the round; each returns a list of problems, empty when the output is right.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles

# The benchmark's evaluations order their float operations differently from
# semproc's, so values agree to a few roundings, not bit for bit.
TOL = 1e-12


@dataclass(frozen=True)
class Op:
    experiment: str
    config: dict


@dataclass(frozen=True)
class Workload:
    ops: Callable[[int], list]           # round seed -> [Op]
    check: Callable[[Op, dict], list]    # (op, report) -> [problem]


def round_seed(workload: str, seed: int, round_index: int) -> int:
    """The semproc seed of one round: a hash of the benchmark seed and the
    round index, in [1, 2^31 - 1]."""
    digest = hashlib.blake2b(f"{workload}:{seed}:{round_index}".encode(),
                             digest_size=8).digest()
    return int.from_bytes(digest, "little") % (2**31 - 1) + 1


def _samples(cfg: dict, n: int):
    """The replicate samples of a ulln report at size n, regenerated through
    the seed derivation that semproc documents for gc_experiment."""
    from semproc.measures import draw_sample
    from semproc.seeds import derive_seed

    return [draw_sample(cfg["model"], n, derive_seed(cfg["seed"], ["gc", n, r])).xs()
            for r in range(cfg["replicates"])]


def _rows_by_n(report: dict) -> dict:
    return {row["n"]: row for row in report["results"]}


def _ledger_misses(report: dict, prefixes: tuple) -> list:
    return [f"ledger entry failed: {e['name']}" for e in report["ledger"]
            if e["name"].startswith(prefixes) and not e["ok"]]


# ---------------------------------------------------------------------------
# ulln-prefix: the exact j = 0 statistic
# ---------------------------------------------------------------------------

def _ulln_prefix_ops(seed: int) -> list:
    return [Op("ulln", {"j": 0, "parity": "odd", "model": "uniform01",
                        "n_schedule": [1000, 10000], "replicates": 8,
                        "seed": seed, "net_u": 0.2})]


def _check_ulln_prefix(op: Op, report: dict) -> list:
    cfg = report["config"]
    problems = _ledger_misses(report, ("lambda-centering correction",
                                       "net sandwich contains"))
    cdf = oracles.model_cdf(cfg["model"])
    values = [oracles.prefix_sup(xs, cdf) for xs in _samples(cfg, 1000)]
    row = _rows_by_n(report)[1000]
    for key, want in oracles.row_stats(values).items():
        if abs(row[key] - want) > TOL:
            problems.append(f"n=1000 {key}: report {row[key]!r}, recomputed {want!r}")
    # the net sandwich at n = 1000 brackets replicate 0's exact statistic
    sandwich = [e for e in report["ledger"] if e["name"].endswith("(n=1000)")
                and e["name"].startswith("net sandwich")]
    if len(sandwich) != 1:
        problems.append("no net sandwich entry for n=1000")
    elif abs(sandwich[0]["observed"]["exact"] - values[0]) > TOL:
        problems.append(f"net sandwich exact {sandwich[0]['observed']['exact']!r}, "
                        f"recomputed {values[0]!r}")
    return problems


# ---------------------------------------------------------------------------
# ulln-runs: the generic run dynamic program
# ---------------------------------------------------------------------------

def _ulln_runs_ops(seed: int) -> list:
    common = {"n_schedule": [100, 1000], "replicates": 6, "seed": seed}
    return [Op("ulln", {"j": 1, "parity": "odd", "model": "standard-normal", **common}),
            Op("ulln", {"j": 2, "parity": "even", "model": "exponential(1)", **common})]


def _check_ulln_runs(op: Op, report: dict) -> list:
    from semproc.measures import draw_sample
    from semproc.ulln import sup_deviation_exact_BW
    from semproc.seeds import derive_seed

    cfg = report["config"]
    j, parity = cfg["j"], cfg["parity"]
    problems = _ledger_misses(report, ("lambda-centering correction",))
    cdf = oracles.model_cdf(cfg["model"])
    # B(1) is inside every B(k), and a union of k intervals deviates by at
    # most k times the initial-interval supremum (each interval is a
    # difference of two initial intervals, the anchored one is one).
    factor = 2 * j + 1 if parity == "odd" else 2 * j
    rows = _rows_by_n(report)
    for n in cfg["n_schedule"]:
        base = oracles.row_stats([oracles.prefix_sup(xs, cdf) for xs in _samples(cfg, n)])
        for key, lo in base.items():
            if not lo - TOL <= rows[n][key] <= factor * lo + TOL:
                problems.append(f"n={n} {key}={rows[n][key]!r} outside "
                                f"[{lo!r}, {factor} x {lo!r}]")
    for i, n in enumerate((6, 9, 12)):
        sample = draw_sample(cfg["model"], n, derive_seed(cfg["seed"], ["perfbench-small", i]))
        got = sup_deviation_exact_BW(j, parity, sample)
        want = oracles.enumerated_sup(sample.xs(), cdf, j, parity)
        if abs(got - want) > TOL:
            problems.append(f"n={n} exact statistic {got!r}, enumerated {want!r}")
    return problems


# ---------------------------------------------------------------------------
# fclt-modulus: the default fclt experiment
# ---------------------------------------------------------------------------

# The cells (s, x) of the q-set "kiefer-3", the fclt default.
KIEFER3_CELLS = [(0.5, 0.5), (1.0, 0.5), (0.5, 0.25)]


def _fclt_ops(seed: int) -> list:
    return [Op("fclt", {"seed": seed})]


def fidi_gate_misses(report: dict) -> int:
    """Fixed-tolerance fidi ledger entries that miss.  Their tolerances are
    not derived from n and R, so a miss is not counted as a wrong output."""
    return sum(1 for e in report["ledger"]
               if (e["name"] == "fidi max covariance entry error"
                   or e["name"].startswith("KS distance")) and not e["ok"])


def _check_fclt(op: Op, report: dict) -> list:
    cfg, res = report["config"], report["results"]
    problems = []
    if cfg["q_set"] != "kiefer-3":
        return [f"unexpected q_set {cfg['q_set']!r}"]
    analytic = np.asarray(res["fidi"]["analytic_cov"])
    err = float(np.max(np.abs(analytic - oracles.kiefer_kernel(KIEFER3_CELLS))))
    if err > TOL:
        problems.append(f"analytic covariance off the Kiefer kernel by {err!r}")
    # pair sets are nested in alpha, so the per-replicate sup and the pair
    # count cannot shrink as alpha grows
    rows = res["modulus"]["rows"]
    if [r["alpha"] for r in rows] != sorted(cfg["alpha_list"]):
        problems.append("modulus rows not in increasing alpha")
    for a, b in zip(rows, rows[1:]):
        if b["mean_modulus"] < a["mean_modulus"]:
            problems.append(f"mean modulus falls from alpha {a['alpha']} to {b['alpha']}")
        if b["pairs"] < a["pairs"]:
            problems.append(f"pair count falls from alpha {a['alpha']} to {b['alpha']}")
    lin = res["lindeberg"]["rows"]
    ratios = [r["ratio"] for r in lin]
    if any(b > a for a, b in zip(ratios, ratios[1:])):
        problems.append(f"Lindeberg ratios increase along n: {ratios}")
    if not lin or lin[-1]["n"] != 10**6 or not ratios[-1] <= 1e-3:
        problems.append(f"Lindeberg ratio at n=1e6 is {ratios[-1] if ratios else None}")
    return problems


# ---------------------------------------------------------------------------
# covering-bounds: covering lemmas, random covering numbers, bounds, kiefer
# ---------------------------------------------------------------------------

def _covering_bounds_ops(seed: int) -> list:
    return [Op("covering", {"seed": seed}), Op("bounds", {"seed": seed}),
            Op("kiefer", {"seed": seed})]


def _check_covering_bounds(op: Op, report: dict) -> list:
    cfg, res = report["config"], report["results"]
    if op.experiment == "covering":
        problems = _ledger_misses(report, ("",))
        if res["lemma_violations"]:
            problems.append(f"{len(res['lemma_violations'])} covering lemma violations")
        for lemma in res["lemma_reports"]:
            if lemma["trials"] != cfg["trials"] or lemma["violations"]:
                problems.append(f"lemma {lemma['lemma']}: {lemma['violations']} "
                                f"violations in {lemma['trials']} trials")
        bad = [e for e in report["ledger"] if e["observed"] != 0]
        problems += [f"{e['name']}: {e['observed']}" for e in bad]
        return problems
    if op.experiment == "bounds":
        problems = _ledger_misses(report, ("",))
        worst = max(res["worst_margins"].values())
        if worst > TOL:
            problems.append(f"Riemann gap exceeds its bound by {worst!r}")
        witness = res["witness"]
        if [w["n"] for w in witness] != list(range(1, cfg["witness_max_n"] + 1)):
            problems.append("witness rows do not cover n = 1..witness_max_n")
        for w in witness:
            if w["lambda_n"] != 0.0 or w["gap"] != oracles.witness_gap(w["n"]):
                problems.append(f"witness n={w['n']}: lambda_n {w['lambda_n']!r}, "
                                f"gap {w['gap']!r}, want 0 and {oracles.witness_gap(w['n'])!r}")
        return problems
    grid = cfg["grid"]
    cells = [((i + 1) / grid, (k + 1) / grid) for i in range(grid) for k in range(grid)]
    err = float(np.max(np.abs(np.asarray(res["analytic_cov"]) - oracles.kiefer_kernel(cells))))
    return [] if err <= 1e-8 else [f"Kiefer kernel error {err!r} > 1e-8"]


WORKLOADS = {
    "ulln-prefix": Workload(_ulln_prefix_ops, _check_ulln_prefix),
    "ulln-runs": Workload(_ulln_runs_ops, _check_ulln_runs),
    "fclt-modulus": Workload(_fclt_ops, _check_fclt),
    "covering-bounds": Workload(_covering_bounds_ops,
                                _check_covering_bounds),
}
