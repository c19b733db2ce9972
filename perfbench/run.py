"""semproc benchmark: times workloads in rounds, one fresh interpreter per round.

    python3 perfbench/run.py --workload ulln-prefix --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Run from the root of a semproc source tree; the rounds import semproc from its
``src/``.  The last line of standard output is a JSON object with the keys
correct, attempted, failed and metrics.  Run records, trace spans and the
digest ledger go to ``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from tracing import NAMED_LAYERS, PEAK_LAYERS, import_times

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOAD_NAMES = ["ulln-prefix", "ulln-runs", "fclt-modulus", "covering-bounds"]
ROUND_TIMEOUT_S = 150

# Every thread-pool size is pinned to 1: it removes the scheduling noise of
# OpenBLAS's default two threads on a two-core machine and makes the run the
# single-threaded baseline.  PYTHONHASHSEED fixes set and dict layouts.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


# This machine's speed drifts by a quarter and more over minutes (other
# tenants share its cores), and a run's wall times drift with it.  Each round
# therefore times a fixed user-mode calibration kernel that runs no semproc
# code before its first operation and after each one, and the user-mode part
# of each time is scaled to the speed at which that kernel takes
# CAL_NOMINAL_S (its typical time here); system time, mostly page faults of
# fresh allocations, does not follow the kernel's speed and is left as
# measured.  A change to semproc cannot move the kernel, so it moves the
# scaled times in full.  The raw wall figures stay in each run record under
# "wall".
CAL_NOMINAL_S = 0.12


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# Versions, and OpenBLAS's thread count as a round sees it (read from the
# library numpy loaded, since no thread-pool inspection package is installed).
_PROBE = """
import ctypes, json, numpy, scipy
threads = "unknown"
for line in open("/proc/self/maps"):
    path = line.split()[-1]
    if "openblas" in path.lower():
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                threads = getattr(lib, sym)()
                break
        break
print(json.dumps({"numpy": numpy.__version__, "scipy": scipy.__version__,
                  "blas_threads": threads}))
"""


def environment() -> dict:
    probe = subprocess.run([sys.executable, "-c", _PROBE], env=_child_env(),
                           capture_output=True, text=True, timeout=60)
    return {"nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), **json.loads(probe.stdout),
            "pinned_env": PINNED_ENV, "loadavg": list(os.getloadavg())}


def run_round(workload: str, seed: int, index: int, mode: str) -> dict:
    cmd = [sys.executable]
    if mode == "spans":
        cmd += ["-X", "importtime"]
    cmd += [os.path.join(BENCH_DIR, "round.py"), "--workload", workload, "--seed", str(seed),
            "--round", str(index), "--mode", mode]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, env=_child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} round {index} ran past {ROUND_TIMEOUT_S} s")
    ended = time.monotonic()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} round {index} exited {proc.returncode}:\n{err[-4000:]}")
    record = json.loads(lines[-1])
    record.update(mode=mode, index=index, setup_s=record.pop("imported_at") - started,
                  round_wall_s=ended - started)
    if mode == "spans":
        record["imports"] = import_times(err)
    return record


def _op_seconds(r: dict, scaled: bool) -> list:
    """Each operation's wall time, its user-mode part scaled by the mean of
    the calibrations just before and just after it."""
    c = r["calibration_s"]
    return [op["wall_s"] + (op["user_s"] * (2 * CAL_NOMINAL_S / (c[i] + c[i + 1]) - 1)
                            if scaled else 0.0)
            for i, op in enumerate(r["ops"])]


def round_s(rounds: list, scaled: bool = True) -> float:
    """Sum over the round's operations of each one's median time."""
    per_op = zip(*[_op_seconds(r, scaled) for r in rounds])
    return sum(statistics.median(times) for times in per_op)


def setup_s(rounds: list, scaled: bool = True) -> float:
    """Median import time, scaled by the calibration that follows it."""
    return statistics.median(
        r["setup_s"] * (CAL_NOMINAL_S / r["calibration_s"][0] if scaled else 1.0)
        for r in rounds)


def schedule(workload: str, seed: int, seconds: float, trace: bool) -> list:
    """Rounds one after another until the next would end well past the run's
    time; a traced run alternates plain and span rounds and ends with one
    memory round."""
    modes = ["plain", "spans"] if trace else ["plain"]
    rounds = []
    start = time.monotonic()
    while True:
        rounds.append(run_round(workload, seed, len(rounds), modes[len(rounds) % len(modes)]))
        typical = statistics.median(r["round_wall_s"] for r in rounds)
        if len(rounds) >= len(modes) and time.monotonic() - start + typical / 2 > seconds:
            break
    if trace:
        rounds.append(run_round(workload, seed, len(rounds), "memory"))
    return rounds


def end_to_end(rounds: list) -> dict:
    return {"setup_s": setup_s(rounds), "round_s": round_s(rounds),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds)}


def per_layer(workload: str, rounds: list, layer_names) -> dict:
    plain = [r for r in rounds if r["mode"] == "plain"]
    traced = [r for r in rounds if r["mode"] == "spans"]
    memory = [r for r in rounds if r["mode"] == "memory"]
    merged = {}
    for r in traced:
        for pkg, key in (("numpy", "s"), ("scipy", "s"), ("semproc", "self_s")):
            r["layers"][f"setup.import.{pkg}.{key}"] = r["imports"][f"{pkg}.{key}"]
        wall = sum(op["wall_s"] for op in r["ops"])
        named = sum(r["layers"].get(f"{name}.s", 0.0) for name in NAMED_LAYERS[workload])
        r["layers"]["trace.named_layer_share"] = named / wall
    for name in layer_names:
        values = [r["layers"].get(name, 0) for r in traced]
        merged[name] = statistics.median(values)
    # CPU seconds come from the untraced rounds, which carry no wrapper cost
    merged["process.cpu_s"] = statistics.median(
        sum(op["user_s"] + op["sys_s"] for op in r["ops"]) for r in plain)
    for _, _, layer in PEAK_LAYERS:
        merged[f"{layer}.peak_mb"] = max((r["peaks"].get(layer, 0.0) for r in memory),
                                         default=0.0)
    merged["fclt.fidi_convergence_test.gate_misses"] = sum(
        op.get("gate_misses", 0) for r in rounds for op in r["ops"])
    base, with_spans = round_s(plain), round_s(traced)
    merged["trace.overhead_s"] = with_spans - base
    merged["trace.overhead_share"] = (with_spans - base) / base
    return merged


def _check_digests(workload: str, seed: int, rounds: list) -> None:
    """Same benchmark seed, same round: the numeric digests must repeat across
    runs.  The ledger lives in perfbench/out/ and grows with every run; an
    operation whose digest differs gets a problem."""
    path = os.path.join(OUT_DIR, "digests.json")
    try:
        with open(path) as fh:
            ledger = json.load(fh)
    except FileNotFoundError:
        ledger = {}
    for r in rounds:
        for i, op in enumerate(r["ops"]):
            if op["sha256"] is None:
                continue
            key = f"{workload}/seed={seed}/round={r['index']}/op={i}:{op['experiment']}"
            seen = ledger.setdefault(key, op["sha256"])
            if seen != op["sha256"]:
                op["problems"].append(f"{key}: digest {op['sha256']} differs from "
                                      f"the earlier {seen}")
    with open(path + ".tmp", "w") as fh:
        json.dump(ledger, fh, indent=0, sort_keys=True)
    os.replace(path + ".tmp", path)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 units: dict, env: dict) -> dict:
    rounds = schedule(workload, seed, seconds, trace)
    _check_digests(workload, seed, rounds)
    ops = [op for r in rounds for op in r["ops"]]
    failed = sum(1 for op in ops if op["error"] or op["problems"])
    wrong = sum(1 for op in ops if op["problems"])
    for op in ops:
        for problem in op["problems"] + [op["error"] or ""]:
            if problem:
                print(f"{workload}: {op['experiment']} {op['config']}: {problem[-2000:]}",
                      file=sys.stderr)
    values = per_layer(workload, rounds, units) if trace else end_to_end(rounds)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {"correct": wrong == 0, "attempted": len(ops),
              "failed": failed, "metrics": metrics}
    stamp = f"{workload}-seed{seed}-trace{int(trace)}"
    spans = {f"round{r['index']}": r.pop("spans") for r in rounds if "spans" in r}
    if spans:
        with open(os.path.join(OUT_DIR, f"spans-{stamp}.json"), "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "rounds": spans}, fh)
    with open(os.path.join(OUT_DIR, f"run-{stamp}.json"), "w") as fh:
        json.dump({"environment": env, "seconds": seconds, "rounds": rounds,
                   "wall": {"setup_s": setup_s(rounds, scaled=False),
                            "round_s": round_s(rounds, scaled=False)},
                   "result": result}, fh, indent=1)
    return result


def _metric_units(kind: str) -> dict:
    """Name -> unit of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    with open(os.path.join(BENCH_DIR, "..", "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    src = os.path.join(os.getcwd(), "src", "semproc")
    if not os.path.isfile(os.path.join(src, "cli.py")):
        print(f"no semproc source at {src}; run from the root of a semproc tree",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    compileall.compile_dir(src, quiet=1)   # rounds then time imports, not compiles
    env = environment()
    print(json.dumps({"environment": env}))
    units = _metric_units("per_layer" if args.trace else "end_to_end")
    names = WORKLOAD_NAMES if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                         units, env)
            if args.workload == "all":
                print(json.dumps({"workload": name, **results[name]}))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()}}))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
