"""Spans and counters around exspec's public functions, installed from outside.

The tracer replaces each traced function at the name its callers look it up
(``exspec.tails.sample``, ``exspec.spectra.top_two_singular``, ...) with a
wrapper, so no file of the package changes. A name that a later version of
the package no longer has is skipped and its metrics read 0.

Spans are aggregated in memory per name: calls, inclusive time, and self time
(inclusive time minus the time covered by child spans). Spectral results are
compared with a LAPACK reference; that comparison is timed as excluded time,
which is subtracted from the enclosing spans and from the traced wall time.
"""

import functools
import math
import time
from collections import Counter

import numpy as np

# (module, attribute, span name). Each entry is one lookup site.
SPANS = [
    ("exspec.cli", "main", "cli"),
    ("exspec.cli", "norm_tail_curve", "tails"),
    ("exspec.cli", "s2_tail_curve", "tails"),
    ("exspec.cli", "block_bound_curve", "tails"),
    ("exspec.cli", "corner_capture_fraction", "tails"),
    ("exspec.cli", "corner_degree_event_frequency", "tails"),
    ("exspec.tails", "stream", "rng.stream"),
    ("exspec.ensembles", "stream", "rng.stream"),
    ("exspec.verify", "stream", "rng.stream"),
    ("exspec.spectra", "stream", "rng.stream"),
    ("exspec.subset", "stream", "rng.stream"),
    ("exspec.tails", "sample", "ensembles.sample"),
    ("exspec.ensembles", "sample", "ensembles.sample"),
    ("exspec.spectra", "singular_values", "spectra.dense"),
    ("exspec.scaling", "singular_values", "spectra.dense"),
    ("exspec.spectra", "top_two_singular", "spectra.iterative"),
    ("exspec.tails", "corner_degree_event", "degrees"),
    ("exspec.tails", "deg_membership", "degrees"),
    ("exspec.verify", "corner_degree_event", "degrees"),
    ("exspec.verify", "deg_membership", "degrees"),
    ("exspec.subset", "enumerate_exact", "subset.enumerate_exact"),
    ("exspec.scaling", "scaling_reduction", "scaling.scaling_reduction"),
    ("exspec.scaling", "fit_margins", "scaling.fit_margins"),
]

# Spectral boundary functions whose float result is checked against LAPACK:
# (module, attribute, index of the singular value returned).
CHECKED = [
    (mod, attr, index)
    for mod in ("exspec.tails", "exspec.scaling", "exspec.verify")
    for attr, index in (("spectral_norm", 0), ("second_singular", 1))
]


def _entries(M) -> np.ndarray:
    return np.asarray(getattr(M, "entries", M), dtype=np.float64)


class _CountingGenerator:
    """Generator proxy counting the permutations drawn through it."""

    def __init__(self, rng, counts: Counter):
        self._rng = rng
        self._counts = counts

    def permutation(self, x):
        self._counts["derangement_draws"] += 1
        return self._rng.permutation(x)


class Tracer:
    def __init__(self):
        self.spans = {}  # name -> [calls, inclusive_s, self_s]
        self.counts = Counter()
        self.max_rel_err = 0.0
        self.excluded_s = 0.0
        self._stack = []  # time covered by children of each open span
        self._patches = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, on_result=None):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                covered = stack.pop()
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - covered
                if stack:
                    stack[-1] += dur
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    def _exclude(self, seconds: float):
        self.excluded_s += seconds
        if self._stack:
            self._stack[-1] += seconds

    def _checked(self, fn, index):
        @functools.wraps(fn)
        def wrapper(M, *args, **kwargs):
            value = fn(M, *args, **kwargs)
            t0 = time.perf_counter()
            A = _entries(M)
            if A.size and min(A.shape) > index:
                ref = np.linalg.svd(A, compute_uv=False)
                scale = ref[index] if ref[index] > 1e-12 * ref[0] else ref[0]
                err = abs(float(value) - float(ref[index]))
                if scale > 0:
                    err /= float(scale)
                self.max_rel_err = max(self.max_rel_err, err)
            self._exclude(time.perf_counter() - t0)
            return value

        return wrapper

    def _parallel_map(self, fn):
        # The per-trial closure is a tails span of its own, so the loop's
        # self time is the engine overhead alone.
        @functools.wraps(fn)
        def wrapper(one, count, *args, **kwargs):
            return fn(self._span("tails.trial", one), count, *args, **kwargs)

        return self._span("rng.parallel_map", wrapper)

    def _derangement(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(n, rng, *args, **kwargs):
            counts["derangements"] += 1
            return fn(n, _CountingGenerator(rng, counts), *args, **kwargs)

        return wrapper

    # -- result hooks --------------------------------------------------------

    def _count_bytes(self, args, kwargs, result):
        shape = _entries(args[0]).shape
        self.counts["spectra_bytes_in"] += 8 * math.prod(shape)

    def _count_event(self, args, kwargs, result):
        # corner_degree_event returns a bool, deg_membership a dict.
        met = result["member"] if isinstance(result, dict) else result
        self.counts["degree_events"] += int(bool(met))

    def _count_subsets(self, args, kwargs, result):
        p = args[0]
        self.counts["subsets_enumerated"] += math.comb(p.m, p.k)

    # -- install / restore ---------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr], True))
            owner[attr] = wrapper
        else:
            self._patches.append((owner, attr, getattr(owner, attr), False))
            setattr(owner, attr, wrapper)

    def install(self):
        import importlib

        hooks = {
            "spectra.dense": self._count_bytes,
            "spectra.iterative": self._count_bytes,
            "degrees": self._count_event,
            "subset.enumerate_exact": self._count_subsets,
        }
        for mod, attr, name in SPANS:
            module = importlib.import_module(mod)
            if hasattr(module, attr):
                self._patch(module, attr, self._span(name, getattr(module, attr), hooks.get(name)))
        for mod, attr, index in CHECKED:
            module = importlib.import_module(mod)
            if hasattr(module, attr):
                self._patch(module, attr, self._checked(getattr(module, attr), index))
        tails = importlib.import_module("exspec.tails")
        if hasattr(tails, "parallel_map"):
            self._patch(tails, "parallel_map", self._parallel_map(tails.parallel_map))
        ensembles = importlib.import_module("exspec.ensembles")
        if hasattr(ensembles, "random_derangement"):
            self._patch(ensembles, "random_derangement",
                        self._derangement(ensembles.random_derangement))
        suites = getattr(importlib.import_module("exspec.verify"), "SUITES", {})
        for key, fn in list(suites.items()):
            self._patch(suites, key, self._span(f"verify.{key}", fn))

    def restore(self):
        for owner, attr, original, is_dict in reversed(self._patches):
            if is_dict:
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- metrics -------------------------------------------------------------

    def metrics(self, traced_wall_s: float) -> dict:
        """Per-layer metrics; trace.overhead_s is filled in by the caller."""

        def calls(name):
            return self.spans.get(name, [0, 0.0, 0.0])[0]

        def self_s(name):
            return self.spans.get(name, [0, 0.0, 0.0])[2]

        c = self.counts
        trial = self.spans.get("tails.trial", [0, 0.0, 0.0])
        net_wall = traced_wall_s - self.excluded_s
        out = {
            "rng.stream.calls": calls("rng.stream"),
            "rng.stream.self_s": self_s("rng.stream"),
            "rng.parallel_map.self_s": self_s("rng.parallel_map"),
            "ensembles.sample.calls": calls("ensembles.sample"),
            "ensembles.sample.self_s": self_s("ensembles.sample"),
            "ensembles.random_derangement.calls": c["derangements"],
            "ensembles.derangement_accept_ratio":
                c["derangements"] / c["derangement_draws"] if c["derangement_draws"] else 0.0,
            "spectra.dense.calls": calls("spectra.dense"),
            "spectra.dense.self_s": self_s("spectra.dense"),
            "spectra.iterative.calls": calls("spectra.iterative"),
            "spectra.iterative.self_s": self_s("spectra.iterative"),
            "spectra.bytes_in": c["spectra_bytes_in"],
            "spectra.max_rel_err": self.max_rel_err,
            "degrees.calls": calls("degrees"),
            "degrees.self_s": self_s("degrees"),
            "degrees.event_fraction":
                c["degree_events"] / calls("degrees") if calls("degrees") else 0.0,
            "tails.self_s": self_s("tails") + self_s("tails.trial"),
            "tails.trial_us": 1e6 * trial[1] / trial[0] if trial[0] else 0.0,
            "subset.enumerate_exact.calls": calls("subset.enumerate_exact"),
            "subset.enumerate_exact.self_s": self_s("subset.enumerate_exact"),
            "subset.subsets_enumerated": c["subsets_enumerated"],
            "scaling.scaling_reduction.self_s": self_s("scaling.scaling_reduction"),
            "scaling.fit_margins.self_s": self_s("scaling.fit_margins"),
            "cli.self_s": self_s("cli"),
            "trace.coverage":
                sum(s[2] for s in self.spans.values()) / net_wall if net_wall > 0 else 0.0,
        }
        for suite in ("subset", "perron", "scaling", "deg"):
            out[f"verify.{suite}.self_s"] = self_s(f"verify.{suite}")
        return out
