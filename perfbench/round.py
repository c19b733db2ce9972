"""One round: a fresh interpreter imports semproc.cli, runs the workload's
operations once, then checks their outputs.

Run by run.py, never by hand:

    python3 perfbench/round.py --workload W --seed N --round R --mode plain|spans|memory

The last line of standard output is a JSON record of the round.
"""

import time

import semproc.cli as cli

IMPORTED_AT = time.monotonic()  # setup ends here; run.py took the start

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, fidi_gate_misses, round_seed  # noqa: E402


class Calibration:
    """A fixed piece of work that runs no semproc code: an interpreter-bound
    loop and a few numpy passes over arrays built once per round.  Timed
    between operations, it measures how fast the machine runs right then."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        # 80 KB arrays: small enough to leave the round's peak memory alone
        self._v = rng.random(10_000)
        self._a = rng.random((100, 100))

    def seconds(self) -> float:
        """15 times the median of 15 timed repetitions, so that a pause of a
        few milliseconds, which a long operation averages away, does not
        throw the calibration off."""
        np, v, a = self._np, self._v, self._a
        times = []
        for _ in range(15):
            t0 = time.perf_counter()
            acc = 0
            for i in range(50_000):
                acc += i * i % 7
            for _ in range(10):
                np.sort(v)
                np.cumsum(a, axis=0)
                a @ a
            times.append(time.perf_counter() - t0)
        return 15 * sorted(times)[7]


def _flat_layers(layers: dict) -> dict:
    out = {}
    for name, acc in layers.items():
        for key, value in acc.items():
            out[f"{name}.{key}"] = value
        if "cells" in acc:
            out[f"{name}.cells_per_s"] = acc["cells"] / acc["s"] if acc["s"] > 0 else 0.0
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, required=True)
    parser.add_argument("--mode", choices=["plain", "spans", "memory"], default="plain")
    args = parser.parse_args()

    src = os.path.join(os.getcwd(), "src")
    if os.path.commonpath([os.path.realpath(cli.__file__), os.path.realpath(src)]) \
            != os.path.realpath(src):
        raise SystemExit(f"semproc imported from {cli.__file__}, not from {src}")

    workload = WORKLOADS[args.workload]
    seed = round_seed(args.workload, args.seed, args.round)
    ops = workload.ops(seed)
    spans = tracing.SpanRecorder() if args.mode == "spans" else None
    peaks = tracing.PeakRecorder() if args.mode == "memory" else None
    for recorder in (spans, peaks):
        if recorder is not None:
            recorder.install()

    calibration = Calibration()
    calibrations = [calibration.seconds()]
    results = []
    for op in ops:
        gc.collect()
        cpu0, t0 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
        try:
            # looked up at call time, so a traced round goes through the wrappers
            report = cli.run_experiment(op.experiment, op.config)
            digest = hashlib.sha256(cli.numeric_bytes(report)).hexdigest()
            error = None
        except Exception:
            report, digest, error = None, None, traceback.format_exc()
        t1, cpu1 = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF)
        results.append({"experiment": op.experiment, "config": op.config,
                        "wall_s": t1 - t0, "user_s": cpu1.ru_utime - cpu0.ru_utime,
                        "sys_s": cpu1.ru_stime - cpu0.ru_stime, "sha256": digest,
                        "report": report, "error": error})
        calibrations.append(calibration.seconds())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    record = {"imported_at": IMPORTED_AT, "round_seed": seed, "peak_rss_mb": peak_rss_mb,
              "calibration_s": calibrations}
    if spans is not None:
        spans.active = False
        record["layers"] = _flat_layers(spans.layer_metrics())
        record["spans"] = [s[:4] for s in spans.spans]
    if peaks is not None:
        record["peaks"] = peaks.peaks

    for op, res in zip(ops, results):
        report = res.pop("report")
        res["problems"] = []
        if report is None:
            continue
        gc.collect()
        try:
            res["problems"] = workload.check(op, report)
        except Exception:
            res["problems"] = [f"check raised: {traceback.format_exc()}"]
        if op.experiment == "fclt":
            res["gate_misses"] = fidi_gate_misses(report)
    record["ops"] = results
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
