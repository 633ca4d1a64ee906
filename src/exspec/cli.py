"""Command-line front end.

Commands:
  gen      sample matrices from an ensemble, write them with provenance
  analyze  single-matrix spectral and degree report
  verify   run a seeded invariant suite; nonzero exit on failure
  tail     Monte Carlo tail-comparison curves (CSV + JSON)

Every command is a pure function of its effective manifest: flags fill in
defaults, a --manifest file overrides flags, and the effective manifest is
echoed into the output. Reruns produce byte-identical files.

Exit codes: 0 ok, 1 assertion/suite failure, 2 usage, 3 I/O.

BLAS runs on one thread unless the environment names a thread count:
every kernel here is a stack of small matrices, where OpenBLAS's second
thread spins beside the first and shortens nothing. A user who wants more
threads (for one large dense SVD) sets OPENBLAS_NUM_THREADS or
OMP_NUM_THREADS as usual.
"""

import os
import sys

# Before numpy loads, which reads these once. Where numpy is already loaded
# (a library import, the tests), the count is the caller's and stays so.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
if "numpy" not in sys.modules and not any(os.environ.get(v) for v in _BLAS_THREAD_VARIABLES):
    for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                      "VECLIB_MAXIMUM_THREADS"):
        os.environ[_variable] = "1"

import argparse
import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from . import verify as verify_mod
from .core import (
    SquareMatrix,
    abs_sums,
    csv_text,
    json_ready,
    matrix_from_csv_file,
    matrix_from_json,
    matrix_to_csv,
    matrix_to_json,
)
from .degrees import RegularityParams, deg_membership
from .ensembles import BASE_KINDS, KINDS, EnsembleSpec, sample
from .scaling import scaling_reduction
from .spectra import s2_via_centering, singular_values
from .tails import (
    block_bound_curve,
    corner_capture_fraction,
    corner_degree_event_frequency,
    norm_tail_curve,
    s2_tail_curve,
)

EXIT_OK = 0
EXIT_ASSERT = 1
EXIT_USAGE = 2
EXIT_IO = 3

# The flags a command or tail comparison does not read. The manifest echoes
# every flag, so each of these is accepted at its default, and only there:
# an echoed manifest then reruns the command, and no other value is ignored.
UNREAD = {
    "analyze": ("seed",),
    "tail norm": ("matrix",),
    "tail s2": ("matrix",),
    "tail blocks": ("delta", "c", "matrix"),
    "tail degree-event": ("c", "grid", "matrix"),
    "tail corner-capture": ("ensemble", "n", "d", "zero_diagonal", "base", "delta", "c", "grid"),
}


def _load_matrix(path: str) -> SquareMatrix:
    p = Path(path)
    if p.suffix == ".json":
        return matrix_from_json(p.read_text())
    return matrix_from_csv_file(p)


def _command_actions(parser: argparse.ArgumentParser, command: str) -> dict:
    """The argparse actions of a subcommand, by destination."""
    commands = next(a for a in parser._actions if a.dest == "command")
    return {a.dest: a for a in commands.choices[command]._actions}


def _manifest_value(key: str, action: argparse.Action, value):
    """``value`` as the parser would have set it from the command line;
    ValueError naming the key for a value the parser would reject."""
    if value is None and action.default is None and not action.required:
        return None
    if action.nargs == 0:  # a store_true flag
        if isinstance(value, bool):
            return value
        raise ValueError(f"manifest key {key!r}: expected true or false, got {value!r}")
    if action.dest == "grid" and isinstance(value, list):  # _grid also takes a list
        try:
            for x in value:
                if isinstance(x, bool):  # float() reads true as 1.0; no flag text is a bool
                    raise TypeError
                float(x)
        except (TypeError, ValueError):
            raise ValueError(f"manifest key {key!r}: invalid grid {value!r}") from None
        return value
    kind = f"{action.type.__name__} " if action.type else ""
    invalid = ValueError(f"manifest key {key!r}: invalid {kind}value: {value!r}")
    if isinstance(value, (bool, list, dict)):  # no command-line text parses to these
        raise invalid
    try:
        converted = action.type(str(value)) if action.type else str(value)
    except ValueError:
        raise invalid from None
    if action.choices is not None and converted not in action.choices:
        raise ValueError(f"manifest key {key!r}: invalid choice: {value!r}")
    return converted


def _apply_manifest(args: argparse.Namespace, actions: dict) -> dict:
    """Merge a manifest file over parsed flags; returns the effective manifest.

    Each value goes through its flag's type and choices (``actions``, the
    subcommand's argparse actions by destination), as on the command line."""
    if getattr(args, "manifest", None):
        overrides = json.loads(Path(args.manifest).read_text())
        if not isinstance(overrides, dict):
            raise ValueError("a manifest must be a JSON object")
        # Only the subcommand's own flags; any other key would be echoed into
        # the output as if it had taken effect.
        known = set(vars(args)) - {"func", "manifest", "out"}
        for key, value in overrides.items():
            dest = key.replace("-", "_")
            if dest not in known:
                raise ValueError(f"unknown manifest key {key!r}")
            if dest == "command":
                if value != args.command:
                    raise ValueError(f"manifest is for {value!r}, not {args.command!r}")
                continue
            setattr(args, dest, _manifest_value(key, actions[dest], value))
    # The destination path is not an input to the computation; leaving it out
    # keeps reruns into different directories byte-identical.
    manifest = {
        k: v for k, v in sorted(vars(args).items())
        if k not in ("func", "manifest", "out") and v is not None
    }
    return manifest


def _grid(text):
    if text is None:
        return None
    if isinstance(text, (list, tuple)):
        grid = [float(x) for x in text]
    else:
        grid = [float(tok) for tok in str(text).split(",") if tok.strip()]
    if not grid or not all(math.isfinite(x) for x in grid):
        raise ValueError(f"--grid must be one or more finite numbers, got {text!r}")
    return grid


def _build_spec(args) -> EnsembleSpec:
    # The spec would reject these too, but only once the base is read.
    if args.zero_diagonal and args.ensemble in BASE_KINDS:
        raise ValueError(f"{args.ensemble} takes no --zero-diagonal: its base sets the diagonal")
    # Only the corner-degree event (--delta) reads d on a base kind.
    if args.d and args.ensemble in BASE_KINDS and getattr(args, "delta", None) is None:
        raise ValueError(f"{args.ensemble} takes no --d: its base sets the samples")
    base = None
    if args.base:
        if args.ensemble not in BASE_KINDS:
            raise ValueError(f"{args.ensemble} takes no base matrix")
        base = _load_matrix(args.base)
    return EnsembleSpec(
        kind=args.ensemble,
        n=args.n,
        d=args.d or 0,
        zero_diagonal=args.zero_diagonal,
        seed=args.seed,
        base=base,
    )


def cmd_gen(args, manifest: dict) -> int:
    if args.count < 1:
        raise ValueError("count must be >= 1")
    spec = _build_spec(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    spec_dict = spec.to_dict()  # serialises the base, if any, once
    for i in range(args.count):
        M = sample(spec, i)
        stem = out / f"sample_{i:04d}"
        if args.format == "json":
            stem.with_suffix(".json").write_text(matrix_to_json(M))
        else:
            stem.with_suffix(".csv").write_text(matrix_to_csv(M))
        sidecar = {"seed": spec.seed, "index": i, "spec": spec_dict}
        (out / f"sample_{i:04d}.provenance.json").write_text(
            json.dumps(sidecar, sort_keys=True)
        )
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, default=str))
    print(json.dumps(manifest, sort_keys=True, default=str))
    return EXIT_OK


def _write_or_print(report: dict, out) -> None:
    """The report as JSON, written to the file ``out`` or, without one, printed."""
    text = json.dumps(report, sort_keys=True)
    if out:
        Path(out).write_text(text)
    else:
        print(text)


def cmd_analyze(args, manifest: dict) -> int:
    if args.delta is not None and args.d is None:
        raise ValueError("analyze --delta requires --d")
    M = _load_matrix(args.matrix)
    # A value beyond float64 is a usage error (FloatingPointError), not inf or nan.
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        u, v = abs_sums(M)
        s = singular_values(M)
        report = {
            "manifest": manifest,
            "n": M.n,
            "s1": float(s[0]),
            "s2": float(s[1]) if s.size > 1 else 0.0,
            "u": u.tolist(),
            "v": v.tolist(),
        }
        if args.d is not None:
            delta = args.delta if args.delta is not None else 1.0
            params = RegularityParams(d=args.d, delta=delta)
            member = deg_membership(u[None], v[None], params)
            report["deg_membership"] = {key: value[0].item() for key, value in member.items()}
            try:
                report["s2_via_centering"] = s2_via_centering(M, args.d)
            except ValueError as e:
                report["s2_via_centering_error"] = str(e)
            if np.all(u > 0) and np.all(v > 0):
                try:
                    # The report's s2 and s2_via_centering are the bits that
                    # scaling's s2 and lhs would take again by the same SVDs.
                    report["scaling"] = dataclasses.asdict(scaling_reduction(
                        M, args.d, delta, s2=report["s2"], lhs=report.get("s2_via_centering")))
                except (ValueError, RuntimeError, FloatingPointError) as e:
                    report["scaling_error"] = str(e)
    _write_or_print(report, args.out)
    return EXIT_OK


def cmd_verify(args, manifest: dict) -> int:
    records = verify_mod.run_suite(args.suite, seed=args.seed)
    passed = all(r["passed"] for r in records)
    _write_or_print({"manifest": manifest, "records": records, "passed": passed}, args.out)
    return EXIT_OK if passed else EXIT_ASSERT


def _write_outputs(out: Path, files: dict) -> None:
    """Create ``out`` only when there is a result to write, so a run that
    fails (bad input, an estimator's ValueError) leaves no empty directory."""
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text)


def cmd_tail(args, manifest: dict) -> int:
    comparison = args.comparison
    if comparison in ("s2", "degree-event") and args.delta is None:
        raise ValueError(f"tail {comparison} requires --delta")
    out = Path(args.out)
    grid = _grid(args.grid)
    spec = None if comparison == "corner-capture" else _build_spec(args)
    params = None if args.delta is None else RegularityParams(d=float(args.d), delta=args.delta)

    if comparison == "corner-capture":
        if not args.matrix:
            raise ValueError("corner-capture requires --matrix")
        res = corner_capture_fraction(_load_matrix(args.matrix), trials=args.trials,
                                      seed=args.seed)
        result = {k: res[k] for k in ("c_grid", "p_hat", "ci", "best_c", "m_norm")}
        files = {"curve.csv": csv_text(zip(res["c_grid"], res["p_hat"], res["ci"]),
                                       ("c", "p_hat", "ci"))}
        summary, ok = json.dumps({"best_c": res["best_c"]}), True
    elif comparison == "degree-event":
        result = corner_degree_event_frequency(spec, params, trials=args.trials)
        files = {}
        summary, ok = json.dumps({"p_E": result["p_E"], "ci": result["ci"]}), True
    else:
        if comparison == "norm":  # with the corner-degree event when given --delta
            curve = norm_tail_curve(spec, c=args.c, trials=args.trials, thresholds=grid,
                                    event=params)
        elif comparison == "s2":
            L_grid = grid if grid else list(range(2, 41, 2))
            curve = s2_tail_curve(spec, params, L_grid, trials=args.trials, c=args.c)
        else:  # blocks
            curve = block_bound_curve(spec, trials=args.trials, thresholds=grid)
        result, files = curve.to_dict(), {"curve.csv": curve.to_csv()}
        ok = curve.all_hold()
        summary = json.dumps({"all_hold": ok, "meta": curve.meta}, sort_keys=True)

    payload = {"manifest": manifest, **json_ready(result)}
    _write_outputs(out, {"curve.json": json.dumps(payload, sort_keys=True), **files})
    print(summary)
    return EXIT_OK if ok else EXIT_ASSERT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exspec",
        description="Exchangeable-matrix spectral experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--manifest", help="JSON file overriding the flags")
        p.add_argument("--out", help="output file or directory")

    g = sub.add_parser("gen", help="sample matrices from an ensemble")
    g.add_argument("--ensemble", choices=KINDS, default="perm_sum_regular")
    g.add_argument("--n", type=int, default=16)
    g.add_argument("--d", type=int, default=0)
    g.add_argument("--zero-diagonal", action="store_true")
    g.add_argument("--base", help="base matrix file for permuted ensembles")
    g.add_argument("--count", type=int, default=1)
    g.add_argument("--format", choices=("csv", "json"), default="csv")
    common(g)
    g.set_defaults(func=cmd_gen)

    a = sub.add_parser("analyze", help="spectral and degree report for one matrix")
    a.add_argument("matrix", help="matrix file (.csv or .json)")
    a.add_argument("--d", type=float)
    a.add_argument("--delta", type=float)
    common(a)
    a.set_defaults(func=cmd_analyze)

    v = sub.add_parser("verify", help="run an invariant suite")
    v.add_argument("suite", choices=("subset", "scaling", "perron", "deg", "all"))
    common(v)
    v.set_defaults(func=cmd_verify)

    t = sub.add_parser("tail", help="Monte Carlo tail-comparison curves")
    t.add_argument(
        "comparison",
        choices=("norm", "s2", "blocks", "degree-event", "corner-capture"),
    )
    t.add_argument("--ensemble", choices=KINDS, default="perm_sum_regular")
    t.add_argument("--n", type=int, default=16)
    t.add_argument("--d", type=int, default=0)
    t.add_argument("--delta", type=float)
    t.add_argument("--zero-diagonal", action="store_true")
    t.add_argument("--base", help="base matrix file for permuted ensembles")
    t.add_argument("--matrix", help="matrix file for corner-capture")
    t.add_argument("--trials", type=int, default=1000)
    t.add_argument("--c", type=float, default=0.01)
    t.add_argument("--grid", help="comma-separated thresholds or L values")
    common(t)
    t.set_defaults(func=cmd_tail)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "out", None) is None and args.command in ("gen", "tail"):
        parser.error(f"{args.command} requires --out")
    try:
        actions = _command_actions(parser, args.command)
        manifest = _apply_manifest(args, actions)
        command = args.command
        if command == "tail":
            command += f" {args.comparison}"
        for dest in UNREAD.get(command, ()):
            if getattr(args, dest) != actions[dest].default:
                raise ValueError(f"{command} takes no --{dest.replace('_', '-')}")
        # From the flag or a manifest, before anything is drawn or written;
        # numpy's own error would not name it.
        if args.seed < 0:
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args, manifest)
    except OSError as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return EXIT_IO
    # json.loads raises RecursionError on input nested too deeply.
    except (ValueError, FloatingPointError, RecursionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
