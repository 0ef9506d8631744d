"""Command-line interface: run any experiment from the shell.

Usage examples::

    repro-gossip run --process push --family cycle --n 64 --trials 3 --seed 1
    repro-gossip scaling --process pull --family erdos_renyi --sizes 16 32 64
    repro-gossip nonmonotone
    repro-gossip group --host-n 256 --k 24 --process push
    repro-gossip directed --family thm15_strong --sizes 8 16 24
    repro-gossip async --protocol push --n 64 --jitter 1.5 --drop 0.1 --compare-sync
    repro-gossip run --process push --n 256 --checkpoint-every 10 --checkpoint-dir ckpt
    repro-gossip resume ckpt/trial_0000

Every subcommand prints a small aligned table to stdout; the benchmark
harnesses under ``benchmarks/`` use the same underlying functions.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from repro.analysis.nonmonotonicity import (
    exact_expected_convergence_time,
    monte_carlo_expected_convergence_time,
)
from repro.analysis.scaling import measure_scaling
from repro.graphs import generators
from repro.graphs.directed_generators import directed_family_names
from repro.graphs.generators import family_names
from repro.network.protocols import protocol_names
from repro.simulation import io as sim_io
from repro.simulation.engine import check_shards, process_names
from repro.simulation.experiment import ExperimentSpec
from repro.simulation.runner import run_trials, summarize_trials
from repro.social.group_discovery import discover_group

__all__ = ["main", "build_parser"]


def _print_table(rows: Sequence[Dict[str, object]], columns: Optional[List[str]] = None) -> None:
    """Print a list of row dicts as an aligned plain-text table."""
    if not rows:
        print("(no results)")
        return
    if columns is None:
        columns = list(rows[0].keys())
    formatted: List[List[str]] = [[str(c) for c in columns]]
    for row in rows:
        formatted.append(
            [
                f"{row.get(c, ''):.4g}" if isinstance(row.get(c), float) else str(row.get(c, ""))
                for c in columns
            ]
        )
    widths = [max(len(r[i]) for r in formatted) for i in range(len(columns))]
    for r in formatted:
        print("  ".join(cell.ljust(width) for cell, width in zip(r, widths)))


def _save_rows(rows, args) -> None:
    """Persist result rows when ``--save`` was given (format chosen by extension)."""
    path = getattr(args, "save", None)
    if not path:
        return
    metadata = {
        "command": args.command,
        "seed": getattr(args, "seed", None),
        "process": getattr(args, "process", None),
    }
    if str(path).endswith(".csv"):
        sim_io.save_rows_csv(rows, path)
    else:
        sim_io.save_rows_json(rows, path, metadata=metadata)
    print(f"\nsaved {len(rows)} rows to {path}")


def _shards_refused(args: argparse.Namespace) -> bool:
    """Print one stderr line and return ``True`` if ``--shards`` does not suit ``--process``."""
    try:
        check_shards(args.process, args.shards)
    except ValueError as exc:
        print(f"repro-gossip {args.command}: {exc}", file=sys.stderr)
        return True
    return False


def _cmd_run(args: argparse.Namespace) -> int:
    if args.checkpoint_every and not args.checkpoint_dir:
        print("--checkpoint-every requires --checkpoint-dir", file=sys.stderr)
        return 2
    if _shards_refused(args):
        return 2
    spec = ExperimentSpec(
        process=args.process,
        family=args.family,
        n=args.n,
        trials=args.trials,
        directed=args.directed,
        shards=args.shards,
        checkpoint_every=args.checkpoint_every,
        checkpoint_dir=args.checkpoint_dir,
    )
    trials = run_trials(
        spec, root_seed=args.seed, processes=args.processes, retries=args.retries
    )
    for trial in trials:
        if trial.failed:
            print(f"FAILED: {trial.error}", file=sys.stderr)
    summary = summarize_trials(trials)
    summary_row = {"process": args.process, "family": args.family}
    summary_row.update(summary)
    _print_table([summary_row])
    _save_rows([summary_row], args)
    return 0


def _cmd_resume(args: argparse.Namespace) -> int:
    from repro.simulation.checkpoint import (
        latest_checkpoint,
        load_checkpoint,
        resume_from_checkpoint,
    )

    path = Path(args.checkpoint)
    if path.is_dir():
        path = latest_checkpoint(path)
    checkpoint = load_checkpoint(path)
    result = resume_from_checkpoint(
        path,
        max_rounds=args.max_rounds,
        checkpoint_every=args.checkpoint_every,
        checkpoint_dir=args.checkpoint_dir
        or (str(Path(path).parent) if args.checkpoint_every else None),
    )
    row = {
        "process": checkpoint.process_name,
        "resumed_at_round": checkpoint.round_index,
        "rounds": result.rounds,
        "converged": result.converged,
        "edges_added": result.total_edges_added,
        "messages": result.total_messages,
        "bits": result.total_bits,
    }
    _print_table([row])
    _save_rows([row], args)
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    if _shards_refused(args):
        return 2
    measurement = measure_scaling(
        process=args.process,
        family=args.family,
        sizes=args.sizes,
        trials=args.trials,
        seed=args.seed,
        directed=args.directed,
        poly_exponent=args.poly_exponent,
        shards=args.shards,
    )
    _print_table(measurement.as_rows())
    _save_rows(measurement.as_rows(), args)
    print()
    print(
        f"power-law fit:     rounds ~ {measurement.power_fit.coefficient:.3g} "
        f"* n^{measurement.power_fit.exponent:.3f} (R^2={measurement.power_fit.r_squared:.3f})"
    )
    print(
        f"theorem-shape fit: rounds ~ {measurement.power_log_fit.coefficient:.3g} "
        f"* n^{measurement.power_log_fit.poly_exponent:.1f} "
        f"* (ln n)^{measurement.power_log_fit.log_exponent:.3f} "
        f"(R^2={measurement.power_log_fit.r_squared:.3f})"
    )
    return 0


def _cmd_nonmonotone(args: argparse.Namespace) -> int:
    paw = generators.fig1c_nonmonotone()
    triangle = generators.fig1c_triangle_subgraph()
    cycle4, diamond = generators.nonmonotone_supergraph_pair()
    rows = []
    for name, graph in [
        ("fig1c 4-edge (triangle+pendant)", paw),
        ("fig1c 3-edge subgraph (triangle)", triangle),
        ("cycle C4 (4 edges)", cycle4),
        ("diamond = C4 + chord (5 edges)", diamond),
    ]:
        exact = exact_expected_convergence_time(graph, process=args.process)
        mc, sem = monte_carlo_expected_convergence_time(
            graph, process=args.process, trials=args.trials, seed=args.seed
        )
        rows.append(
            {"graph": name, "exact_E[T]": exact, "monte_carlo_E[T]": mc, "mc_stderr": sem}
        )
    _print_table(rows)
    print()
    fig_gap = rows[0]["exact_E[T]"] - rows[1]["exact_E[T]"]
    pair_gap = rows[3]["exact_E[T]"] - rows[2]["exact_E[T]"]
    verdict_fig = "reproduced" if fig_gap > 0 else "NOT reproduced"
    verdict_pair = "reproduced" if pair_gap > 0 else "NOT reproduced"
    print(f"fig1c gap (4-edge minus 3-edge subgraph) = {fig_gap:.4f}  -> {verdict_fig}")
    print(f"same-node-set gap (diamond minus C4)      = {pair_gap:.4f}  -> {verdict_pair}")
    return 0


def _cmd_group(args: argparse.Namespace) -> int:
    import numpy as np

    # The host graph draws from its own seeded generator so a fixed --seed
    # reproduces the whole scenario (host, group and restricted run alike);
    # an unseeded host made --seed meaningless.
    host = generators.make_family(
        args.host_family, args.host_n, np.random.default_rng(args.seed)
    )
    result = discover_group(host, k=args.k, process=args.process, seed=args.seed)
    _print_table(
        [
            {
                "host_n": result.host_size,
                "group_k": result.group_size,
                "rounds": result.rounds,
                "converged": result.converged,
                "rounds/(k ln^2 k)": result.rounds_over_k_log2_k,
            }
        ]
    )
    return 0


def _cmd_directed(args: argparse.Namespace) -> int:
    measurement = measure_scaling(
        process="directed_pull",
        family=args.family,
        sizes=args.sizes,
        trials=args.trials,
        seed=args.seed,
        directed=True,
        poly_exponent=2.0,
    )
    _print_table(measurement.as_rows())
    print()
    print(
        f"power-law fit: rounds ~ {measurement.power_fit.coefficient:.3g} "
        f"* n^{measurement.power_fit.exponent:.3f} (R^2={measurement.power_fit.r_squared:.3f})"
    )
    return 0


def _cmd_async(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.network import (
        AsyncNetworkSimulator,
        ChurnSchedule,
        DropUniform,
        FixedLatency,
        UniformLatency,
    )

    if args.jitter > 0:
        latency = UniformLatency(max(args.latency - args.jitter, 0.0), args.latency + args.jitter)
    else:
        latency = FixedLatency(args.latency)
    failures = DropUniform(args.drop) if args.drop > 0 else None
    churn = None
    ping_interval = args.ping_interval if args.ping_interval > 0 else None
    if args.churn_rate > 0:
        churn = ChurnSchedule.poisson(
            args.n,
            rate=args.churn_rate,
            horizon=float(args.max_ticks),
            seed=(args.seed or 0) + 1,
            downtime=args.churn_downtime,
        )
        if ping_interval is None:
            # Churned-out contacts must be evictable or convergence stalls.
            ping_interval = 1.0

    sim = AsyncNetworkSimulator(
        generators.make_family(args.family, args.n, np.random.default_rng(args.seed)),
        protocol=args.protocol,
        rng=np.random.default_rng(args.seed),
        latency=latency,
        failures=failures,
        churn=churn,
        partitions=None,
        ping_interval=ping_interval,
        # A round trip can take 2*(latency+jitter); a shorter timeout would
        # evict live contacts on latency alone.
        ping_timeout=max(2.0, 2.5 * (args.latency + args.jitter)),
    )
    sim.run_to_convergence(max_ticks=args.max_ticks)
    row = {
        "protocol": args.protocol,
        "family": args.family,
        "n": args.n,
        "ticks": sim.stats.ticks,
        "converged": sim.is_converged(),
        "messages_sent": sim.stats.messages_sent,
        "dropped": sim.stats.messages_dropped,
        "lost_dead": sim.stats.messages_lost_dead,
        "discoveries": sim.stats.discoveries,
        "evictions": sim.stats.evictions,
    }
    if args.compare_sync:
        # The engine's default configuration is the synchronous model.
        sync = AsyncNetworkSimulator(
            generators.make_family(args.family, args.n, np.random.default_rng(args.seed)),
            protocol=args.protocol,
            rng=np.random.default_rng(args.seed),
        )
        sync.run_to_convergence(max_ticks=args.max_ticks)
        row["sync_rounds"] = sync.stats.ticks
        row["inflation"] = sim.stats.ticks / sync.stats.ticks if sync.stats.ticks else float("nan")
    _print_table([row])
    _save_rows([row], args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for tests).

    Every ``--process``/``--family``/``--protocol`` option derives its
    ``choices=`` from the live registries, so registering a new process or
    family surfaces it here automatically (``tests/test_cli.py`` checks
    that coupling).
    """
    all_families = sorted(set(family_names()) | set(directed_family_names()))
    parser = argparse.ArgumentParser(
        prog="repro-gossip",
        description="Run the 'Discovery through Gossip' reproduction experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one process on one graph family")
    p_run.add_argument("--process", default="push", choices=process_names())
    p_run.add_argument("--family", default="cycle", choices=all_families)
    p_run.add_argument("--n", type=int, default=64)
    p_run.add_argument("--trials", type=int, default=3)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--directed", action="store_true")
    p_run.add_argument(
        "--shards",
        type=int,
        default=1,
        help="row-shard count for the round engine (flooding, name_dropper and "
        "pointer_jump[_directed] only; other processes refuse more than 1)",
    )
    p_run.add_argument(
        "--processes",
        type=int,
        default=1,
        help="worker processes for trial fan-out (1 = serial); worker death is "
        "survived by pool rebuild + retry, then in-process degradation",
    )
    p_run.add_argument(
        "--retries",
        type=int,
        default=3,
        help="worker-pool failures tolerated before degrading to in-process runs",
    )
    p_run.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        help="write an exact per-trial checkpoint every N rounds "
        "(requires --checkpoint-dir; resume with the 'resume' subcommand)",
    )
    p_run.add_argument(
        "--checkpoint-dir",
        default=None,
        help="root directory for per-trial checkpoints (trial_<i>/round_<r> stems)",
    )
    p_run.add_argument("--save", default=None, help="write results to a .json or .csv file")
    p_run.set_defaults(func=_cmd_run)

    p_resume = sub.add_parser(
        "resume",
        help="resume an interrupted run from a checkpoint, draw-for-draw identical",
    )
    p_resume.add_argument(
        "checkpoint",
        help="checkpoint stem/.json, or a directory holding round_* checkpoints "
        "(the latest round is resumed)",
    )
    p_resume.add_argument("--max-rounds", type=int, default=None)
    p_resume.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        help="keep checkpointing every N rounds while resuming "
        "(defaults to writing beside the source checkpoint)",
    )
    p_resume.add_argument(
        "--checkpoint-dir",
        default=None,
        help="directory for the resumed run's checkpoints",
    )
    p_resume.add_argument("--save", default=None, help="write results to a .json or .csv file")
    p_resume.set_defaults(func=_cmd_resume)

    p_scaling = sub.add_parser("scaling", help="convergence-time scaling sweep and fit")
    p_scaling.add_argument("--process", default="push", choices=process_names())
    p_scaling.add_argument("--family", default="cycle", choices=all_families)
    p_scaling.add_argument("--sizes", type=int, nargs="+", default=[16, 32, 64])
    p_scaling.add_argument("--trials", type=int, default=3)
    p_scaling.add_argument("--seed", type=int, default=None)
    p_scaling.add_argument("--directed", action="store_true")
    p_scaling.add_argument("--poly-exponent", type=float, default=1.0)
    p_scaling.add_argument(
        "--shards",
        type=int,
        default=1,
        help="row-shard count for the round engine (flooding, name_dropper and "
        "pointer_jump[_directed] only; other processes refuse more than 1)",
    )
    p_scaling.add_argument("--save", default=None, help="write results to a .json or .csv file")
    p_scaling.set_defaults(func=_cmd_scaling)

    p_nm = sub.add_parser("nonmonotone", help="Figure 1(c) non-monotonicity check")
    # The exact-E[T] Markov computation is implemented for push and pull only.
    p_nm.add_argument("--process", default="push", choices=["push", "pull"])
    p_nm.add_argument("--trials", type=int, default=2000)
    p_nm.add_argument("--seed", type=int, default=None)
    p_nm.set_defaults(func=_cmd_nonmonotone)

    p_group = sub.add_parser("group", help="group (subset) discovery scenario")
    p_group.add_argument("--host-family", default="barabasi_albert", choices=family_names())
    p_group.add_argument("--host-n", type=int, default=256)
    p_group.add_argument("--k", type=int, default=24)
    p_group.add_argument("--process", default="push", choices=process_names())
    p_group.add_argument("--seed", type=int, default=None)
    p_group.set_defaults(func=_cmd_group)

    p_dir = sub.add_parser("directed", help="directed two-hop walk scaling sweep")
    p_dir.add_argument("--family", default="random_strong", choices=directed_family_names())
    p_dir.add_argument("--sizes", type=int, nargs="+", default=[8, 16, 24])
    p_dir.add_argument("--trials", type=int, default=3)
    p_dir.add_argument("--seed", type=int, default=None)
    p_dir.set_defaults(func=_cmd_directed)

    p_async = sub.add_parser(
        "async",
        help="event-driven run: per-message latency, loss, churn, liveness pings",
    )
    p_async.add_argument("--protocol", default="push", choices=protocol_names())
    p_async.add_argument("--family", default="cycle", choices=family_names())
    p_async.add_argument("--n", type=int, default=64)
    p_async.add_argument("--seed", type=int, default=None)
    p_async.add_argument("--max-ticks", type=int, default=5000)
    p_async.add_argument(
        "--latency", type=float, default=0.45, help="mean one-way message latency (ticks)"
    )
    p_async.add_argument(
        "--jitter",
        type=float,
        default=0.0,
        help="half-width of the uniform latency window around --latency (0 = deterministic)",
    )
    p_async.add_argument("--drop", type=float, default=0.0, help="iid message-loss probability")
    p_async.add_argument(
        "--churn-rate", type=float, default=0.0, help="Poisson node-leave rate (events per tick)"
    )
    p_async.add_argument(
        "--churn-downtime", type=float, default=5.0, help="ticks a churned node stays down"
    )
    p_async.add_argument(
        "--ping-interval",
        type=float,
        default=0.0,
        help="liveness ping period (0 = off; forced on when --churn-rate > 0)",
    )
    p_async.add_argument(
        "--compare-sync",
        action="store_true",
        help="also run the synchronous model (the engine's defaults) on the same seed "
        "and report the tick inflation",
    )
    p_async.add_argument("--save", default=None, help="write results to a .json or .csv file")
    p_async.set_defaults(func=_cmd_async)

    # Listed here for --help only: main() hands ``lint ARGS...`` to
    # repro.quality.main unparsed, so repro-lint keeps the one flag list.
    sub.add_parser(
        "lint",
        help="repro-lint: determinism & resource-safety static analysis "
        "(same flags as python -m repro.quality)",
    )

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    args_list = list(sys.argv[1:] if argv is None else argv)
    if args_list[:1] == ["lint"]:
        from repro.quality import main as lint_main

        return lint_main(args_list[1:])
    parser = build_parser()
    args = parser.parse_args(args_list)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
