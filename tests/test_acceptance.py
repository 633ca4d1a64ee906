"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line so the suite doubles as a report
when run with -s or -v. The Monte Carlo checks use fixed seeds; exact
checks use enumeration oracles.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
from ks_helper import ks_two_sample
from matrix_reference import quadrants

from exspec.core import SquareMatrix
from exspec.degrees import RegularityParams
from exspec.ensembles import EnsembleSpec, sample
from exspec.rng import stream
from exspec.scaling import (
    sample_margin_perturbed,
    scaling_reduction,
    unit_margin_svd_facts,
)
from exspec.spectra import perron_check, s2_via_centering, second_singular, spectral_norm
from exspec.subset import (
    SubsetSumProblem,
    enumerate_exact,
    fourth_moment_bound,
    second_moment_exact,
)
from exspec.tails import C_GRID, block_bound_curve, corner_capture_fraction, norm_tail_curve


def report(name: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    line = f"[{tag}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _random_problems(count: int, max_m: int, seed: int):
    rng = stream(seed)
    out = []
    for _ in range(count):
        m = int(rng.integers(2, max_m + 1))
        k = int(rng.integers(1, (m + 1) // 2 + 1))
        out.append(SubsetSumProblem(a=rng.normal(0, 2, size=(1, m)), k=k))
    return out


def test_criterion_01_second_moment_closed_form_exact():
    worst = 0.0
    for p in _random_problems(500, 12, seed=101):
        exact = enumerate_exact(p, "moment", 2)[0, 0]
        closed = second_moment_exact(p)[0]
        scale = max(abs(exact), 1e-30)
        worst = max(worst, abs(closed - exact) / scale)
    report("second-moment closed form matches enumeration (500 cases)",
           worst <= 1e-12, f"worst rel err {worst:.2e}")


def test_criterion_02_fourth_moment_bound_sound():
    bad = 0
    for p in _random_problems(500, 12, seed=101):
        exact = enumerate_exact(p, "moment", 4)[0, 0]
        if exact > fourth_moment_bound(p)[0] * (1 + 1e-12):
            bad += 1
    report("fourth-moment bound dominates enumeration (500 cases)",
           bad == 0, f"{bad} violations")


def test_criterion_03_exact_tails_under_hoeffding():
    bad = 0
    total = 0
    for p in _random_problems(200, 14, seed=102):
        norm = float(np.linalg.norm(p.a))
        if norm == 0.0:
            continue
        for mult in (0.25, 0.5, 1.0, 2.0):
            t = mult * norm
            total += 1
            exact = enumerate_exact(p, "tail", t)[0, 0]
            if exact > 2 * math.exp(-2 * t * t / (norm * norm)) + 1e-12:
                bad += 1
    report("exact tails stay under the sub-Gaussian bound",
           bad == 0, f"{bad}/{total} violations")


def test_criterion_04_second_singular_centering_identity():
    worst = 0.0
    count = 0
    cases = [(n, d) for n in (16, 64, 200) for d in (2, 5, 12)]
    for j, (n, d) in enumerate(cases):
        spec = EnsembleSpec(kind="perm_sum_regular", n=n, d=d, seed=103 + j)
        per_case = 200 // len(cases) + 1
        for i in range(per_case):
            A = sample(spec, i)
            gap = abs(second_singular(A) - s2_via_centering(A, float(d)))
            worst = max(worst, gap / max(1.0, d))
            count += 1
    report(f"centering identity for s2 on {count} doubly regular samples",
           worst <= 1e-8, f"worst scaled gap {worst:.2e}")


def test_criterion_05_scaling_reduction_and_eigen_checks():
    rng = stream(104)
    bad = 0
    checked = 0
    while checked < 300:
        m = int(rng.integers(8, 65))
        d = float(rng.uniform(2, 10))
        delta = float(rng.uniform(0.05, 0.25)) * d
        A = sample_margin_perturbed(m, d, delta, rng)
        rep = scaling_reduction(A, d, delta)
        if not rep.hypotheses_ok:
            continue
        checked += 1
        facts = unit_margin_svd_facts(A)
        u = A.sum(axis=0)
        S = A / np.sqrt(np.outer(A.sum(axis=1), u))
        pr = perron_check((S.T @ S)[None], np.sqrt(u)[None], tol=1e-6)
        ok = (
            rep.lhs <= rep.bound + 1e-8 * max(1.0, d)
            and rep.beta <= 6 * delta + 1e-8
            and abs(facts["top_singular"] - 1.0) <= 1e-8
            and pr["is_eigen"][0]
            and pr["matches_radius"][0]
        )
        if not ok:
            bad += 1
    report("scaling reduction, unit top singular value, and eigen check (300 cases)",
           bad == 0, f"{bad} violations")


def test_criterion_06_corner_capture_desk_scale():
    E = np.zeros((8, 8))
    E[0, 1] = 1.0
    M = SquareMatrix(E, zero_diagonal=True)
    res = corner_capture_fraction(M, trials=100000, seed=105)
    exact = 16.0 / 56.0
    gap = abs(res["p_hat"][list(C_GRID).index(1.0)] - exact)
    ok1 = gap <= 0.01

    rng = stream(106)
    floor_ok = True
    worst_best = 1.0
    for _ in range(20):
        entries = rng.normal(size=(32, 32))
        np.fill_diagonal(entries, 0.0)
        r = corner_capture_fraction(
            SquareMatrix(entries, zero_diagonal=True), trials=400, seed=107
        )
        worst_best = min(worst_best, r["best_c"])
        if r["best_c"] < 0.05:
            floor_ok = False
    report("corner capture: exact single-entry probability and constant floor",
           ok1 and floor_ok,
           f"single-entry gap {gap:.4f}, min best_c {worst_best:.2f}")


def test_criterion_07_norm_tail_comparison():
    spec = EnsembleSpec(kind="perm_sum_regular", n=64, d=4, zero_diagonal=True, seed=108)
    curve = norm_tail_curve(
        spec, c=0.01, trials=10000,
        event=RegularityParams(d=4.0, delta=2.0),
    )
    # ||M|| = d for a doubly regular M, so its deciles are one threshold, d.
    one_threshold = curve.thresholds.tolist() == [4.0]
    report("norm tail comparison with corner-degree event at every decile",
           curve.all_hold() and one_threshold,
           f"{int(np.sum(curve.holds))}/{curve.holds.size} thresholds hold")


def test_criterion_08_four_block_bound():
    rng = stream(109)
    base = SquareMatrix(rng.normal(size=(32, 32)))
    spec = EnsembleSpec(kind="separately_exchangeable", n=32, seed=109, base=base)
    curve = block_bound_curve(spec, trials=10000)
    # Relabeling preserves ||M||, so its deciles are one threshold, ||B||.
    one_threshold = curve.thresholds.tolist() == [spectral_norm(base)]
    report("separately exchangeable four-block tail bound",
           curve.all_hold() and one_threshold,
           f"{int(np.sum(curve.holds))}/{curve.holds.size} thresholds hold")


def test_criterion_09_exchangeability_shadows():
    spec = EnsembleSpec(kind="perm_sum_regular", n=32, d=3, seed=110)
    n = spec.n
    m = n // 2

    def corner_s2(i, relabel):
        A = sample(spec, i).entries
        if relabel:
            s = stream(111, i).permutation(n)
            A = A[np.ix_(s, s)]
        return second_singular(A[:m, n - m:])

    direct = np.array([corner_s2(i, False) for i in range(2000)])
    shadow = np.array([corner_s2(i + 2000, True) for i in range(2000)])
    ks1 = ks_two_sample(direct, shadow, alpha=0.01)

    rng = stream(112)
    base = SquareMatrix(rng.normal(size=(32, 32)))
    sep = EnsembleSpec(kind="separately_exchangeable", n=32, seed=112, base=base)

    def blocks(i):
        return [spectral_norm(B) for B in quadrants(sample(sep, i))]

    rows = np.array([blocks(i) for i in range(2000)])
    ks2 = ks_two_sample(rows[:, 1], rows[:, 2], alpha=0.01)
    ok = ks1["below"] and ks2["below"]
    report("distributional shadows: relabeled corners and off-diagonal blocks",
           ok,
           f"ks corner {ks1['statistic']:.4f}<{ks1['critical']:.4f}, "
           f"ks blocks {ks2['statistic']:.4f}<{ks2['critical']:.4f}")


def test_criterion_10_manifest_determinism(tmp_path):
    mf = tmp_path / "manifest.json"
    mf.write_text(json.dumps({
        "ensemble": "perm_sum_regular", "n": 24, "d": 3, "zero_diagonal": True,
        "trials": 400, "seed": 42, "c": 0.05,
    }))
    # At the CLI's default, every BLAS thread variable unset, and at 1 and 2.
    unset = {k: v for k, v in os.environ.items() if k not in (
        "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
        "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
    blobs = []
    for threads in ("default", "1", "2"):
        out = tmp_path / f"run_t{threads}"
        env = unset if threads == "default" else dict(unset, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "exspec.cli", "tail", "norm",
             "--manifest", str(mf), "--out", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        blobs.append(
            (out / "curve.csv").read_bytes() + (out / "curve.json").read_bytes()
        )
    gen_blobs = []
    for rep_i in range(2):
        out = tmp_path / f"gen_{rep_i}"
        proc = subprocess.run(
            [sys.executable, "-m", "exspec.cli", "gen", "--n", "12", "--d", "2",
             "--count", "3", "--seed", "7", "--format", "json", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        gen_blobs.append(b"".join(
            (out / f"sample_{i:04d}.json").read_bytes() for i in range(3)
        ))
    ok = blobs[0] == blobs[1] == blobs[2] and gen_blobs[0] == gen_blobs[1]
    report("byte-identical reruns at the default BLAS threads, 1 and 2", ok)
