"""check_covering_lemmas, which runs its trials in blocks on padded arrays,
against the one-trial-at-a-time loop it replaced.

per_trial_lemmas is that loop: each trial draws its spaces, builds their
distance matrices and calls exact_covering_number seven times.  The blocked
path must return the same dict and solve the same set covers in the same
order, for trial counts on both sides of a block edge; with a fault planted
in the set-cover kernel, both paths must report the same violations.
"""

import tracemalloc

import numpy as np
import pytest

from semproc import covering
from semproc.covering import check_covering_lemmas, product_distances


def _euclid(points):
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def per_trial_lemmas(trials, seed, cover=None):
    """The lemma report, one trial at a time; cover(dist, u, targets=None)
    defaults to covering.exact_covering_number, read at call time."""
    cover = cover or (lambda *a, **k: covering.exact_covering_number(*a, **k))
    rng = np.random.default_rng(seed)
    violations = []
    counts = {"subset": 0, "domination": 0, "product": 0, "isometry": 0}
    for trial in range(trials):
        k = int(rng.integers(3, 11))
        pts = rng.random((k, 2)) * 2.0
        dist = _euclid(pts)
        diam = float(dist.max())
        u = float(rng.random() * 1.2 * diam + 1e-6)
        n_full = cover(dist, u)

        sub_size = int(rng.integers(1, k + 1))
        sub = sorted(rng.choice(k, size=sub_size, replace=False).tolist())
        n_sub = cover(dist, u, targets=sub)
        counts["subset"] += 1
        if n_sub > n_full:
            violations.append({"lemma": "subset", "trial": trial, "u": u,
                               "points": pts.tolist(), "subset": sub,
                               "n_sub": n_sub, "n_full": n_full})

        extra = rng.random((k, 1)) * 2.0
        n_dp = cover(dist + _euclid(extra), u)
        counts["domination"] += 1
        if n_full > n_dp:
            violations.append({"lemma": "domination", "trial": trial, "u": u,
                               "points": pts.tolist(), "n_d": n_full, "n_dprime": n_dp})

        k1, k2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        p1 = rng.random((k1, 2))
        p2 = rng.random((k2, 2))
        d1, d2 = _euclid(p1), _euclid(p2)
        t = float(rng.random() * 0.8 + 0.1)
        u2 = float(rng.random() * 1.2 * (d1.max() + d2.max()) + 1e-6)
        n_prod = cover(product_distances(d1, d2), u2)
        bound = cover(d1, t * u2) * cover(d2, (1 - t) * u2)
        counts["product"] += 1
        if n_prod > bound:
            violations.append({"lemma": "product", "trial": trial, "u": u2, "t": t,
                               "n_product": n_prod, "bound": bound,
                               "p1": p1.tolist(), "p2": p2.tolist()})

        perm = rng.permutation(k)
        n_perm = cover(dist[perm][:, perm], u)
        counts["isometry"] += 1
        if n_perm != n_full:
            violations.append({"lemma": "isometry", "trial": trial, "u": u,
                               "n_original": n_full, "n_relabeled": n_perm})

    reports = []
    for lemma, checked in counts.items():
        mine = [v for v in violations if v["lemma"] == lemma]
        reports.append({"lemma": lemma, "trials": checked, "violations": len(mine),
                        "worst_case": mine[0] if mine else None})
    return {"lemma_checks": counts, "lemma_reports": reports, "lemma_violations": violations}


def _blocked_numbers(monkeypatch, trials, seed):
    numbers = []
    kernel = covering._min_cover

    def record(masks, t):
        numbers.append(kernel(masks, t))
        return numbers[-1]

    with monkeypatch.context() as m:
        m.setattr(covering, "_min_cover", record)
        result = check_covering_lemmas(trials, seed)
    return result, numbers


def _per_trial_numbers(trials, seed):
    numbers = []

    def record(*args, **kwargs):
        numbers.append(covering.exact_covering_number(*args, **kwargs))
        return numbers[-1]

    return per_trial_lemmas(trials, seed, record), numbers


@pytest.mark.parametrize("seed", [1, 505])
@pytest.mark.parametrize("trials", [1, 49, 50, 51, 250])
def test_blocks_match_per_trial_loop(monkeypatch, trials, seed):
    assert covering._LEMMA_BLOCK == 50
    got, got_numbers = _blocked_numbers(monkeypatch, trials, seed)
    want, want_numbers = _per_trial_numbers(trials, seed)
    assert got == want
    assert len(got_numbers) == 7 * trials
    assert got_numbers == want_numbers


# t >= 6 breaks the product bound, an odd t breaks subset monotonicity,
# whose records carry the radius u and the points
FAULTS = {"t>=6": (lambda t: t >= 6, {"product"}),
          "odd t": (lambda t: t % 2, {"subset"})}


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("seed", [1, 505])
def test_planted_fault_gives_the_same_violations(monkeypatch, seed, fault):
    kernel = covering._min_cover
    hit, lemmas = FAULTS[fault]
    monkeypatch.setattr(covering, "_min_cover",
                        lambda masks, t: kernel(masks, t) + bool(hit(t)))
    got = check_covering_lemmas(120, seed)
    want = per_trial_lemmas(120, seed)
    assert {v["lemma"] for v in got["lemma_violations"]} >= lemmas
    # record by record: trial, u, t, points, subset, p1, p2 and the counts
    assert got["lemma_violations"] == want["lemma_violations"]
    assert got == want


def test_lemma_check_memory_stays_blocked():
    # every temporary of a 50-trial block is below 128 KiB; the whole
    # 1000 trials' arrays at once would take several MB
    check_covering_lemmas(5, 1)
    tracemalloc.start()
    try:
        check_covering_lemmas(1000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
