"""Pinned bytes of the plot-data CSVs, the written report and the selftest
section layout.

The values were recorded before the experiments were declared in a single
registry in semproc.cli; a change to how runners, plot series or the report
writer are declared must leave every byte unchanged.  The report pins blank
the volatile "meta" section before writing.

Two report pins were re-recorded when the Lindeberg limit variance became
the closed form Var_nu(g) lambda(h^2) and the Kiefer sampler moved onto
Brownian-sheet increments: fclt-modulus-lindeberg's lindeberg.limit_variance
went from 0.3333333333331778 to 0.3333333333333333, and kiefer's
empirical_cov and sampler_error (with its ledger echo) changed; no other
value and no CSV byte moved.

fclt-bare's report was re-recorded when the fidi test's Z columns came from
fclt.process_deviations, centred by lambda_n(h) nu(g) instead of lambda_n(h
nu(g)): nu(g) = 1/3 and 2/3 are not dyadic, so its empirical covariances
and KS distances moved, by at most 2.5e-14 relative; no CSV byte moved.
"""

import hashlib
import os

import pytest

from semproc.cli import emit_plotdata, run_experiment, write_report

CASES = {
    "ulln": (
        "ulln", {"n_schedule": [20, 50], "replicates": 5, "seed": 1},
        {"convergence": "0abd13b06f763e50dc6f6abe127ea76d19083cd45853d86a33d0f1d38f9acddd"},
        "18a86726f62585d9ec5b0e4d427bfe9c0b739fa15e2c6552963eec028a446daf"),
    "fclt-modulus-lindeberg": (
        "fclt", {"n": 150, "replicates": 300, "seed": 8, "alpha_list": [0.2, 0.5],
                 "net_u": 0.45, "modulus_replicates": 5,
                 "cov_tolerance": 0.3, "ks_tolerance": 0.3},
        {"modulus": "3dee1d88117a6e57c50e2a6f44868583ce00d4f57d906893b58083f2aae8475a",
         "lindeberg": "83a2e54ec99e2b4c25d2cf7feacdcf8fbce47ea319a0213953038f50779cee70"},
        "beaf4d36d6410c05b13996a4340dcbcb4dd581ef58a217a116fa1f2805a96ec9"),
    "fclt-bare": (
        "fclt", {"q_set": "kiefer-grid", "n": 100, "replicates": 150, "seed": 5,
                 "run_modulus": False, "run_lindeberg": False},
        {"modulus": "152ca124343328bd3599a48b0c7e2a14837b95c6fae4b2b8ec7bb213831d262d",
         "lindeberg": "238949238c08092e88f757e85d9026db5495c2336be4126b90f1b01d5a796484"},
        "d06c6701a5169925567bdf8efbf986ad9fcb5abdb2722b76d88b2c662e7cb1c2"),
    "kiefer": (
        "kiefer", {"draws": 5000, "seed": 6, "tolerance": 0.1},
        {},
        "6ae139bd27b0e65d2f12e172dc9d740d9ba0e16f20947eaea2ad49622bd60973"),
}


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_plotdata_and_report_bytes_pinned(name, tmp_path):
    experiment, cfg, csvs, report_sha = CASES[name]
    report = run_experiment(experiment, cfg)
    prefix = str(tmp_path / name)
    paths = emit_plotdata(report, prefix)
    assert paths == [f"{prefix}_{series}.csv" for series in csvs]
    assert {series: _sha256(p) for series, p in zip(csvs, paths)} == csvs
    report["meta"] = {}
    path = tmp_path / "report.json"
    write_report(report, str(path))
    assert _sha256(path) == report_sha
    assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]


def test_selftest_section_layout():
    report = run_experiment("selftest", {})
    assert sorted(report["results"]) == ["sections"]
    assert report["ledger"] == []
    sections = report["results"]["sections"]
    assert {name: sorted(sec) for name, sec in sections.items()} == {
        "bounds": ["ledger", "pass", "results"],
        "covering": ["ledger", "pass", "results"],
        "dp_oracle": ["mismatches", "trials"],
        "ulln": ["ledger", "pass", "rows"],
        "kiefer": ["ledger", "pass", "results"],
        "fclt": ["ledger", "pass", "results"],
    }
    assert report["pass"] == (all(sec["pass"] for name, sec in sections.items()
                                  if name != "dp_oracle")
                              and sections["dp_oracle"]["mismatches"] == 0)
