"""The benchmark's workloads: inputs from a seed, CLI commands, output checks.

Each workload writes its fixed input files once per run and gives, for a
program seed, the argv lists of one invocation (one child process). Each argv
is one operation, with its own output files and its own check.
Checks are seed-independent invariants, never pinned output hashes, so a
change that alters output bytes on purpose needs no benchmark edit.
README.md in this directory says why each workload was chosen.
"""

import json
import math
from pathlib import Path

import numpy as np

S2_BASE_N = 640
S2_BASE_SEED = 11  # its s3/s2 = 0.9946 is the median over base seeds 0..14


def _write_csv(path: Path, A: np.ndarray):
    path.write_text("\n".join(",".join(repr(float(x)) for x in row) for row in A) + "\n")


def regular_digraph(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """0/1 matrix with all margins d and zero diagonal: d edge-disjoint
    derangements placed one at a time by rejection."""
    A = np.zeros((n, n))
    idx = np.arange(n)
    for _ in range(d):
        while True:
            p = rng.permutation(n)
            if not (np.any(p == idx) or np.any(A[idx, p])):
                A[idx, p] = 1.0
                break
    return A


def _read_json(path: Path):
    return json.loads(path.read_text())


def _check_probabilities(name, values, errors):
    if not values or not all(isinstance(v, (int, float)) and 0.0 <= v <= 1.0 for v in values):
        errors.append(f"{name} is empty or has a value outside [0, 1]")


def check_tail_curve(out: Path, rc: int, trials: int) -> list:
    """A well-formed tail curve: equal-length columns, probabilities in
    [0, 1], nonnegative CIs, the trial count asked for, an exit code that
    agrees with ``holds``, and a CSV with one row per threshold."""
    errors = []
    curve = _read_json(out / "curve.json")
    names = ("thresholds", "p_left", "p_right", "ci_left", "ci_right", "holds")
    cols = {k: curve.get(k) for k in names}
    lacking = [k for k, v in cols.items() if not isinstance(v, list)]
    if lacking:
        return [f"curve.json lacks the columns {lacking}"]
    rows = len(cols["thresholds"])
    if rows < 1 or any(len(v) != rows for v in cols.values()):
        errors.append("curve.json columns are empty or of unequal length")
    _check_probabilities("p_left", cols["p_left"], errors)
    _check_probabilities("p_right", cols["p_right"], errors)
    if any(not math.isfinite(x) or x < 0 for x in cols["ci_left"] + cols["ci_right"]):
        errors.append("a confidence half-width is negative or not finite")
    if any(not math.isfinite(x) for x in cols["thresholds"]):
        errors.append("a threshold is not finite")
    if curve.get("trials") != trials:
        errors.append(f"curve.json trials={curve.get('trials')}, expected {trials}")
    if rc != (0 if all(cols["holds"]) else 1):
        errors.append(f"exit code {rc} disagrees with holds={cols['holds']}")
    lines = (out / "curve.csv").read_text().splitlines()
    header = lines[0].split(",") if lines else []
    body = [line.split(",") for line in lines[1:]]
    if len(body) != rows or any(len(r) != len(header) for r in body):
        errors.append(f"curve.csv has {len(body)} rows for {rows} thresholds")
    else:
        for j, col in enumerate(header):
            if col.startswith("p_"):
                _check_probabilities(f"curve.csv {col}", [float(r[j]) for r in body], errors)
    return errors


class TailNorm:
    name = "tail-norm-n64"
    sets = 6  # input sets a timed run cycles through

    def __init__(self, smoke: bool):
        self.items = 100 if smoke else 500

    def prepare(self, work: Path):
        pass

    def argvs(self, out: Path, seed: int) -> list:
        return [["tail", "norm", "--ensemble", "perm_sum_regular", "--n", "64", "--d", "4",
                 "--zero-diagonal", "--delta", "2.0", "--c", "0.01",
                 "--trials", str(self.items), "--seed", str(seed), "--out", str(out)]]

    def outputs(self, out: Path) -> list:
        return [[out / "curve.json", out / "curve.csv"]]

    def check(self, out: Path, i: int, rc: int) -> list:
        return check_tail_curve(out, rc, self.items)


class TailS2(TailNorm):
    name = "tail-s2-n640"

    def __init__(self, smoke: bool):
        self.items = 2 if smoke else 4

    def prepare(self, work: Path):
        self.base = work / "regular_base.csv"
        _write_csv(self.base, regular_digraph(S2_BASE_N, 4, np.random.default_rng(S2_BASE_SEED)))

    def argvs(self, out: Path, seed: int) -> list:
        return [["tail", "s2", "--ensemble", "permuted_base", "--base", str(self.base),
                 "--n", str(S2_BASE_N), "--d", "4", "--delta", "1.0",
                 "--trials", str(self.items), "--seed", str(seed), "--out", str(out)]]


class Oracles:
    name = "oracles"
    # Each seed runs 200 random cases per suite, so seeds differ little in
    # cost; one set of 16 seeds spends a run measuring, not starting processes.
    sets = 1

    def __init__(self, smoke: bool):
        self.items = 1 if smoke else 16

    def prepare(self, work: Path):
        pass

    def argvs(self, out: Path, seed: int) -> list:
        out.mkdir(parents=True, exist_ok=True)
        return [["verify", "all", "--seed", str(seed * self.items + j), "--out", str(path)]
                for j, [path] in enumerate(self.outputs(out))]

    def outputs(self, out: Path) -> list:
        return [[out / f"verify_{j}.json"] for j in range(self.items)]

    def check(self, out: Path, i: int, rc: int) -> list:
        errors = [] if rc == 0 else [f"exit code {rc}"]
        report = _read_json(self.outputs(out)[i][0])
        records = report.get("records", [])
        failed = [r.get("name") for r in records if not r.get("passed")]
        if not records or failed or report.get("passed") is not True:
            errors.append(f"failed records {failed} of {len(records)}")
        return errors


WORKLOADS = {w.name: w for w in (TailNorm, TailS2, Oracles)}
