"""Command-line front end.

Four subcommands cover the workflow end to end::

    baryflow generate --seed 7 --marginals 3 --atoms 4 --dim 2 --out data/
    baryflow solve data/marginal_*.json --p 2
    baryflow flow data/marginal_*.json --p 2 --frames 5 --out frames/
    baryflow verify data/marginal_*.json --p 2

Results go to stdout as JSON; commands that produce files (generated
measures, CSV frames) write them into ``--out`` (default: the working
directory) and list the paths in their JSON output.  ``verify`` exits
with code 0 exactly when every check of the report passes, and names the
first failing check on stderr otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .exceptions import BaryflowError
from .flows import (
    build_particle_flow,
    coupling_flow_action,
    export_coupling_frames,
    export_flow_frames,
    flow_action,
)
from .measures import load_measure, measure_to_dict, save_measure
from .transport import MAX_GRID, extract_barycenter, solve_mmot
from .verify import random_marginals, run_verification

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="baryflow",
        description="Multi-marginal transport, barycenters, and particle flows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Options of every subcommand that reads measures.
    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument("measures", nargs="+", type=Path, help="measure files")
    instance.add_argument("--p", type=float, default=2.0, help="cost exponent (> 1)")
    instance.add_argument("--max-grid", type=int, default=MAX_GRID, help="tuple-grid size cap")

    gen = sub.add_parser("generate", help="write a seeded random instance as JSON measures")
    gen.add_argument("--seed", type=int, default=0, help="RNG seed (all randomness flows through it)")
    gen.add_argument("--marginals", type=int, default=3, metavar="N", help="number of measures")
    gen.add_argument("--atoms", type=int, default=4, metavar="n", help="atoms per measure")
    gen.add_argument("--dim", type=int, default=2, metavar="d", help="ambient dimension")
    gen.add_argument(
        "--distribution",
        choices=("uniform-box", "gaussian"),
        default="uniform-box",
        help="point distribution",
    )
    gen.add_argument("--out", type=Path, default=Path("."), help="output directory")

    solve = sub.add_parser("solve", parents=[instance], help="solve the multi-marginal problem for JSON measures")
    solve.add_argument("--out", type=Path, default=None, help="also write barycenter.json and result.json here")

    flow = sub.add_parser("flow", parents=[instance], help="export particle-flow and coupling-flow frames")
    flow.add_argument("--frames", type=int, default=5, metavar="k", help="equally spaced frames, k >= 2")
    flow.add_argument("--out", type=Path, default=Path("."), help="directory for the CSV frames")

    verify = sub.add_parser("verify", parents=[instance], help="run the full identity-chain verification")
    verify.add_argument(
        "--tol", type=float, default=1e-7,
        help="tolerance on the value chain's spread over min(1 + |value|, size^p), "
        "size the longest side of the supports' bounding box",
    )
    verify.add_argument("--out", type=Path, default=None, help="also write report.json here")
    return parser


def _load_all(paths: list[Path]):
    return [load_measure(path) for path in paths]


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.marginals < 2:
        raise BaryflowError(f"--marginals must be at least 2, got {args.marginals}")
    if args.atoms < 1 or args.dim < 1:
        raise BaryflowError("--atoms and --dim must be positive")
    measures = random_marginals(
        args.seed, args.marginals, args.atoms, args.dim, args.distribution
    )
    args.out.mkdir(parents=True, exist_ok=True)
    files = []
    for i, measure in enumerate(measures):
        path = args.out / f"marginal_{i + 1}.json"
        save_measure(measure, path)
        files.append(str(path))
    _emit({
        "seed": args.seed,
        "marginals": args.marginals,
        "atoms": args.atoms,
        "dim": args.dim,
        "distribution": args.distribution,
        "files": files,
    })
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    measures = _load_all(args.measures)
    result = solve_mmot(measures, args.p, max_grid=args.max_grid)
    barycenter = extract_barycenter(result)
    payload = {
        "p": args.p,
        "value": result.value,
        "barycenter": measure_to_dict(barycenter),
        "plan": {
            "support_sizes": list(result.plan.support_sizes),
            "indices": result.plan.indices.tolist(),
            "masses": result.plan.masses.tolist(),
        },
    }
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        save_measure(barycenter, args.out / "barycenter.json")
        (args.out / "result.json").write_text(json.dumps(payload, indent=2) + "\n")
        payload["files"] = [str(args.out / "barycenter.json"), str(args.out / "result.json")]
    _emit(payload)
    return 0


def _cmd_flow(args: argparse.Namespace) -> int:
    if args.frames < 2:
        raise BaryflowError(f"--frames must be at least 2, got {args.frames}")
    measures = _load_all(args.measures)
    result = solve_mmot(measures, args.p, max_grid=args.max_grid)
    flow = build_particle_flow(result)
    times = [i / (args.frames - 1) for i in range(args.frames)]
    args.out.mkdir(parents=True, exist_ok=True)
    flow_path = args.out / "flow_frames.csv"
    coupling_path = args.out / "coupling_frames.csv"
    export_flow_frames(flow, times, flow_path)
    export_coupling_frames(flow, times, coupling_path)
    _emit({
        "p": args.p,
        "frames": args.frames,
        "times": times,
        "flow_action": flow_action(flow),
        "coupling_flow_action": coupling_flow_action(flow),
        "files": [str(flow_path), str(coupling_path)],
    })
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    measures = _load_all(args.measures)
    report = run_verification(
        measures, args.p, value_tol=args.tol, max_grid=args.max_grid
    )
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "report.json").write_text(report.to_json() + "\n")
    print(report.to_json())
    if not report.passed:
        print(f"verification failed: {report.failing()[0]}", file=sys.stderr)
        return 1
    return 0


_HANDLERS = {
    "generate": _cmd_generate,
    "solve": _cmd_solve,
    "flow": _cmd_flow,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (BaryflowError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
