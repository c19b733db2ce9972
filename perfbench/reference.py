"""Reference figures for perfbench/README.md: single layers at fixed sizes and
each experiment at its default config, timed in one warm process.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/reference.py

Prints one line per figure: the median of a few repetitions, with the
smallest and largest.  Takes about two minutes.
"""

import statistics
import time

from semproc.cli import run_experiment
from semproc.measures import draw_sample, parse_model
from semproc.ulln import sup_deviation_exact_BW


def timed(fn, reps: int) -> list:
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return out


def show(label: str, times: list, unit: str = "ms") -> None:
    scale = 1e3 if unit == "ms" else 1.0
    print(f"{label}: median {statistics.median(times) * scale:.4g} {unit} "
          f"(min {min(times) * scale:.4g}, max {max(times) * scale:.4g}, {len(times)} runs)")


def main() -> None:
    uniform = parse_model("uniform01")
    for n, reps in ((100, 50), (1000, 20), (10000, 5)):
        sample = draw_sample(uniform, n, 7)
        show(f"j=0 exact statistic, n={n}, per replicate",
             timed(lambda s=sample: sup_deviation_exact_BW(0, "odd", s, uniform), reps))
    for j in (1, 2):
        sample = draw_sample(uniform, 1000, 7)
        show(f"run DP j={j} odd, n=1000, per replicate",
             timed(lambda s=sample, j=j: sup_deviation_exact_BW(j, "odd", s, uniform), 3), "s")
    for experiment in ("fclt", "covering", "bounds", "kiefer"):
        show(f"{experiment} at its default config",
             timed(lambda e=experiment: run_experiment(e, {}), 3), "s")


if __name__ == "__main__":
    main()
