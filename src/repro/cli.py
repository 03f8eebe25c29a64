"""Command-line interface: ``python -m repro <command>``.

Commands
--------
optimize M K L      principle-optimize one matmul at a buffer size
fuse M K L N        fusion decision for a two-matmul chain
plan MODEL          graph-level fusion plan for a Table II model; with
                    ``--scenario`` a DAG-scale plan (joins + retained
                    intermediates) with an optional ``--baseline
                    enumerative`` cross-check, ``--certify/--paranoid``
                    plan certificates, and ``--json`` service records
compare MODEL       Fig. 10-style platform comparison for one model
explain M K L       narrate the principle decisions (add --consumer-n for fusion)
certify M K L       independently certify the optimizer's answer for one
                    matmul (add --consumer-n for a fused chain, --paranoid
                    for the branch-and-bound probe, --corrupt-ma to prove
                    the auditor catches a corrupted claim)
batch FILE          evaluate JSON-lines analysis requests through the
                    batch engine (``--jobs``, ``--stats``, retry/deadline/
                    breaker knobs, ``--strict``, ``--resume``)
serve               run the long-lived HTTP serving daemon over the batch
                    engine (``--port --jobs --queue-depth --rate-limit``;
                    SIGTERM drains losslessly; ``--shards N`` puts N
                    journal-backed worker processes behind the same
                    endpoints with kill-one-shard resilience)
                    -- batch and serve share one declaration of the
                    engine-state flags (``--cache-size --cache-file
                    --journal --compact-max-records --compact-max-bytes
                    --paranoid --inject-faults``)
call FILE           evaluate requests against a running ``repro serve``
                    daemon via :class:`repro.server.ReproClient`
                    (deterministic retries on 429/503; ``--health``,
                    ``--server-stats``; ``--reshard N`` live-resizes a
                    sharded tier; ``--compact`` folds its journal(s))
fsck PATH...        offline integrity check of journal / cache files:
                    per-record CRC verification, dedup stats, exit 0/1/2;
                    ``--repair`` quarantines corrupt records and rewrites
                    a clean journal
selfcheck           smoke test over existing entry points: a fault-injected
                    batch, the certification auditors, and the quick chaos
                    soak of a 2-shard fleet
tables              render paper Tables I-III
fig9 / fig10 / fig11 / fig12
                    regenerate a paper figure's rows/series
report              run everything, emit a markdown reproduction report
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .arch import ALL_PLATFORMS, MemorySpec, evaluate_graph
from .chaos import CHAOS_PROFILES
from .core import InfeasibleError, decide_fusion, optimize_intra
from .experiments import (
    format_table,
    render_fig9,
    render_fig10,
    render_fig11,
    render_fig12,
    run_fig9,
    run_fig10,
    run_fig11,
    run_fig12,
    table1,
    table2,
    table3,
)
from .ir import matmul
from .workloads import build_layer_graph, model_by_name


def _buffer_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--buffer-kb",
        type=int,
        default=512,
        help="on-chip buffer size in KB (1-byte elements); default 512",
    )


def _engine_arguments(parser: argparse.ArgumentParser) -> None:
    """The engine-state flags ``batch`` and ``serve`` share, one meaning each."""
    parser.add_argument(
        "--cache-size",
        type=int,
        default=4096,
        help="LRU result-cache bound in entries (default 4096)",
    )
    parser.add_argument(
        "--cache-file",
        default=None,
        help="persistent result cache: warmed from this JSON file if it "
        "exists, saved back when the batch ends or the daemon drains",
    )
    parser.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="write-ahead journal: every completed request is fsync'd to "
        "this file, so a killed batch (with --resume) or daemon picks up "
        "where it stopped instead of starting over",
    )
    parser.add_argument(
        "--compact-max-records",
        type=int,
        default=None,
        metavar="N",
        help="auto-compact the journal (each shard's journal under serve "
        "--shards) once it holds more than N on-disk lines with duplicates "
        "to reclaim (default: disabled)",
    )
    parser.add_argument(
        "--compact-max-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="auto-compact the journal once the file exceeds BYTES with "
        "duplicates to reclaim (default: disabled)",
    )
    parser.add_argument(
        "--paranoid",
        action="store_true",
        help="run every certification-capable request under paranoid "
        "certification: results are audited and probed against "
        "branch-and-bound, healed on discrepancy",
    )
    parser.add_argument(
        "--inject-faults",
        default=None,
        metavar="SPEC",
        help="dev-only fault injection spec (e.g. "
        "'raise:intra*:times=1;delay:sweep*:seconds=0.1'); requires "
        "REPRO_ENABLE_FAULT_INJECTION=1 in the environment",
    )


def build_parser() -> argparse.ArgumentParser:
    from .server.protocol import version_banner

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Principle-based dataflow optimization for operator-fused "
            "tensor accelerators (DAC 2025 reproduction)"
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=version_banner(),
        help="print package + protocol versions and exit",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    optimize = commands.add_parser(
        "optimize", help="principle-optimize one matmul"
    )
    optimize.add_argument("m", type=int)
    optimize.add_argument("k", type=int)
    optimize.add_argument("l", type=int)
    _buffer_argument(optimize)

    fuse = commands.add_parser("fuse", help="fusion decision for A@B then @D")
    fuse.add_argument("m", type=int)
    fuse.add_argument("k", type=int)
    fuse.add_argument("l", type=int)
    fuse.add_argument("n", type=int)
    fuse.add_argument(
        "--cross", action="store_true", help="also consider cross-NRA patterns"
    )
    _buffer_argument(fuse)

    from .plan import list_scenarios

    plan = commands.add_parser(
        "plan",
        help="graph fusion plan for a model, or a DAG-scale scenario plan "
        "with joins + retained intermediates (--scenario)",
    )
    plan.add_argument(
        "model",
        nargs="?",
        default=None,
        help="Table II model name (required without --scenario; with "
        "--scenario it rescales the scenario to that model's shape)",
    )
    _buffer_argument(plan)
    plan.add_argument(
        "--scenario",
        choices=list_scenarios(),
        default=None,
        help="plan a pinned DAG scenario through repro.plan",
    )
    plan.add_argument(
        "--buffer",
        type=int,
        default=None,
        help="buffer size in elements (overrides --buffer-kb)",
    )
    plan.add_argument(
        "--baseline",
        choices=["enumerative"],
        default=None,
        help="also run the budgeted enumerative mapper; exit 1 if the "
        "plan loses to it",
    )
    plan.add_argument(
        "--budget",
        type=int,
        default=None,
        help="enumeration budget (candidate plans costed); default 4096",
    )
    plan.add_argument(
        "--max-group", type=int, default=3, help="max operators per fused set"
    )
    plan.add_argument(
        "--no-retention",
        action="store_true",
        help="disable retained-intermediate planning",
    )
    plan.add_argument(
        "--certify",
        action="store_true",
        help="attach a repro.verify plan certificate; exit 1 if it fails",
    )
    plan.add_argument(
        "--paranoid",
        action="store_true",
        help="certify with the enumerative optimality probe + self-healing",
    )
    plan.add_argument(
        "--json", action="store_true", help="emit the service record as JSON"
    )

    compare = commands.add_parser("compare", help="platform comparison")
    compare.add_argument("model")
    _buffer_argument(compare)

    explain = commands.add_parser(
        "explain", help="narrate the principle decisions for a matmul"
    )
    explain.add_argument("m", type=int)
    explain.add_argument("k", type=int)
    explain.add_argument("l", type=int)
    explain.add_argument(
        "--consumer-n",
        type=int,
        default=None,
        help="also explain fusing with a consumer matmul of width N",
    )
    _buffer_argument(explain)

    certify = commands.add_parser(
        "certify",
        help="independently certify the optimizer's answer for one matmul "
        "(or a fused chain with --consumer-n)",
    )
    certify.add_argument("m", type=int)
    certify.add_argument("k", type=int)
    certify.add_argument("l", type=int)
    certify.add_argument(
        "--consumer-n",
        type=int,
        default=None,
        metavar="N",
        help="certify the fused chain with a consumer matmul of width N "
        "instead of the single operator",
    )
    certify.add_argument(
        "--buffer-elems",
        type=int,
        default=None,
        help="buffer size in elements (overrides --buffer-kb)",
    )
    certify.add_argument(
        "--paranoid",
        action="store_true",
        help="cross-check optimality with a budgeted branch-and-bound "
        "probe (self-healing fallback on discrepancy)",
    )
    certify.add_argument(
        "--no-cross",
        action="store_true",
        help="fused chains only: restrict the pattern set to the green "
        "same-NRA arrows (Principle 4's restriction)",
    )
    certify.add_argument(
        "--corrupt-ma",
        type=int,
        default=None,
        metavar="DELTA",
        help="deliberately corrupt the claimed memory-access count by "
        "-DELTA before auditing; exits 0 only if the corruption is "
        "caught (negative-path smoke test)",
    )
    certify.add_argument(
        "--json",
        action="store_true",
        help="emit the certificate as JSON instead of text",
    )
    _buffer_argument(certify)

    batch = commands.add_parser(
        "batch",
        help="evaluate JSON-lines analysis requests (one JSON object per "
        "line) through the parallel, cached batch engine",
    )
    batch.add_argument(
        "requests", help="JSON-lines request file, or '-' for stdin"
    )
    batch.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker pool size (default 1: in-process serial)",
    )
    batch.add_argument(
        "--executor",
        choices=("thread", "process"),
        default="thread",
        help="pool flavor for --jobs > 1 (default thread)",
    )
    _engine_arguments(batch)
    batch.add_argument(
        "--resume",
        action="store_true",
        help="replay an existing --journal (skipping completed requests); "
        "without it an existing journal is an error, never clobbered",
    )
    batch.add_argument(
        "--stall-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stalled-batch watchdog: if no request completes for this "
        "long, heartbeat the journal and respawn a wedged process pool "
        "(default: disabled)",
    )
    batch.add_argument(
        "--output",
        default="-",
        help="JSON-lines results file, or '-' for stdout (default)",
    )
    batch.add_argument(
        "--stats",
        action="store_true",
        help="print the metered batch summary (cache/pool/timing) to stderr",
    )
    batch.add_argument(
        "--strict",
        action="store_true",
        help="exit nonzero if any request in the batch errored",
    )
    batch.add_argument(
        "--max-attempts",
        type=int,
        default=1,
        help="attempts per request for transient failures (default 1: "
        "no retries)",
    )
    batch.add_argument(
        "--retry-delay",
        type=float,
        default=0.0,
        help="base exponential-backoff delay between attempts in seconds "
        "(default 0)",
    )
    batch.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request deadline; overrunning requests become "
        "structured DeadlineExceededError records (default: unlimited)",
    )
    batch.add_argument(
        "--breaker-threshold",
        type=int,
        default=0,
        help="open the per-kind circuit breaker after N consecutive "
        "permanent failures (default 0: disabled)",
    )
    batch.add_argument(
        "--no-fallback",
        action="store_true",
        help="disable process->thread->serial degradation on pool "
        "breakage (remaining requests become pool-error records)",
    )
    batch.add_argument(
        "--start-method",
        choices=("fork", "spawn", "forkserver"),
        default=None,
        help="multiprocessing start method for --executor process "
        "(default: platform default)",
    )

    serve = commands.add_parser(
        "serve",
        help="run the long-lived HTTP serving daemon over the batch engine "
        "(admission control, rate limiting, live /metrics; SIGTERM drains "
        "in-flight work losslessly)",
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default 127.0.0.1; 0.0.0.0 for all interfaces)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8177,
        help="TCP port (default 8177; 0 picks an ephemeral port, printed "
        "on stderr at startup)",
    )
    serve.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="engine thread-pool width per analyze call (default 1)",
    )
    _engine_arguments(serve)
    serve.add_argument(
        "--max-concurrency",
        type=int,
        default=4,
        help="analyze calls executing at once (default 4)",
    )
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=16,
        help="analyze calls allowed to wait for a slot before the server "
        "sheds load with 503 + Retry-After (default 16)",
    )
    serve.add_argument(
        "--rate-limit",
        type=float,
        default=0.0,
        metavar="PER_SECOND",
        help="per-client admission rate; an empty token bucket answers "
        "429 + Retry-After (default 0: disabled)",
    )
    serve.add_argument(
        "--burst",
        type=int,
        default=None,
        help="token-bucket burst capacity (default: max(1, rate-limit))",
    )
    serve.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="default per-request deadline applied when the client sends "
        "no X-Repro-Deadline (default: unlimited)",
    )
    serve.add_argument(
        "--max-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="ceiling on client-requested deadlines (default: unbounded)",
    )
    serve.add_argument(
        "--verbose",
        action="store_true",
        help="log per-request access lines to stderr",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=0,
        metavar="N",
        help="run N worker processes behind the front end, each owning a "
        "rendezvous-hashed slice of the keyspace with its own cache and "
        "journal; a killed worker is respawned with its journal replayed "
        "(default 0: classic single-process daemon)",
    )
    serve.add_argument(
        "--start-method",
        choices=("fork", "spawn", "forkserver"),
        default=None,
        help="multiprocessing start method for --shards workers "
        "(default: platform default)",
    )
    serve.add_argument(
        "--retry-jitter-seed",
        type=int,
        default=0,
        metavar="N",
        help="seed for the deterministic per-client Retry-After jitter "
        "on 429/503 responses (default 0)",
    )

    call = commands.add_parser(
        "call",
        help="evaluate JSON-lines analysis requests against a running "
        "`repro serve` daemon (client-side one-shot)",
    )
    call.add_argument(
        "requests",
        nargs="?",
        default="-",
        help="JSON-lines request file, or '-' for stdin (default)",
    )
    call.add_argument(
        "--url",
        default="http://127.0.0.1:8177",
        help="server base URL (default http://127.0.0.1:8177)",
    )
    call.add_argument(
        "--output",
        default="-",
        help="JSON-lines results file, or '-' for stdout (default)",
    )
    call.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request deadline forwarded as X-Repro-Deadline",
    )
    call.add_argument(
        "--chunk-size",
        type=int,
        default=0,
        metavar="N",
        help="stream the batch in chunks of N requests (default 0: one "
        "submission)",
    )
    call.add_argument(
        "--retries",
        type=int,
        default=5,
        help="total attempts for 429/503/transient failures (default 5)",
    )
    call.add_argument(
        "--retry-delay",
        type=float,
        default=0.05,
        help="base deterministic backoff between attempts in seconds "
        "(default 0.05)",
    )
    call.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        help="per-exchange socket timeout in seconds (default 60)",
    )
    call.add_argument(
        "--health",
        action="store_true",
        help="just GET /healthz, print it, and exit (readiness probe)",
    )
    call.add_argument(
        "--reshard",
        type=int,
        default=None,
        metavar="N",
        help="POST /admin/reshard to live-resize a sharded tier to N "
        "workers, print the handoff summary, and exit",
    )
    call.add_argument(
        "--compact",
        action="store_true",
        help="POST /admin/compact to fold the server's journal(s) down "
        "to their deduped durable completions, print the summary, and "
        "exit",
    )
    call.add_argument(
        "--server-stats",
        action="store_true",
        help="print the server's /stats rollup to stderr after the call",
    )
    call.add_argument(
        "--strict",
        action="store_true",
        help="exit nonzero if any request in the batch errored",
    )

    fsck = commands.add_parser(
        "fsck",
        help="offline integrity check of journal / cache files: verify "
        "every record's CRC, report dedup + torn-tail stats, exit 0 "
        "(clean), 1 (problems found), or 2 (cannot check)",
    )
    fsck.add_argument(
        "paths",
        nargs="+",
        metavar="PATH",
        help="journal or cache files to check",
    )
    fsck.add_argument(
        "--repair",
        action="store_true",
        help="quarantine corrupt records to <path>.quarantine, truncate "
        "torn tails, and rewrite a clean journal (their requests are "
        "recomputed on the next --resume, never served corrupted)",
    )
    fsck.add_argument(
        "--json",
        action="store_true",
        help="emit the per-file reports as JSON instead of text",
    )

    selfcheck = commands.add_parser(
        "selfcheck",
        help="smoke test: a fault-injected batch, the certification "
        "auditors, and the quick chaos soak of a 2-shard fleet",
    )
    selfcheck.add_argument(
        "--stats",
        action="store_true",
        help="print the batch summary and the chaos log to stderr",
    )

    chaos = commands.add_parser(
        "chaos",
        help="boot a real sharded fleet, apply a seeded deterministic "
        "fault timeline under load, and verify the tier's invariants "
        "(byte-identical output, containment, disk-fault survival)",
    )
    chaos.add_argument(
        "--seed",
        type=int,
        default=7,
        help="timeline seed; the same seed always reproduces the same "
        "fault schedule (default 7)",
    )
    chaos.add_argument(
        "--shards",
        type=int,
        default=3,
        help="shard worker processes in the fleet (default 3)",
    )
    chaos.add_argument(
        "--duration",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="soak length in seconds (default 30)",
    )
    chaos.add_argument(
        "--quick",
        action="store_true",
        help="short smoke profile: 2 shards, ~6s, kill + disk fault + "
        "brief stall (no crash loop)",
    )
    chaos.add_argument(
        "--profile",
        default=None,
        choices=list(CHAOS_PROFILES),
        help="named fault profile: full, quick, latency (ipc_delay-heavy), "
        "or overlap (resize during crash loop, kill mid-handoff, disk "
        "fault on successor); overrides --quick",
    )
    chaos.add_argument(
        "--timeline",
        default=None,
        metavar="SPEC",
        help="explicit ';'-joined event specs overriding the seeded "
        "generator, e.g. 'kill@2:shard=1;journal_fault@5:shard=2:"
        "mode=enospc'",
    )
    chaos.add_argument(
        "--print-timeline",
        action="store_true",
        help="print the resolved fault timeline and exit without "
        "booting anything (dry run)",
    )
    chaos.add_argument(
        "--json",
        action="store_true",
        help="print the full chaos report as JSON to stdout",
    )

    commands.add_parser("tables", help="render paper Tables I-III")
    fig9 = commands.add_parser("fig9", help="principles vs search sweep")
    fig9.add_argument(
        "--fast", action="store_true", help="skip the genetic baseline"
    )
    fig9.add_argument(
        "--certify",
        action="store_true",
        help="independently certify every principle point (fails loud)",
    )
    commands.add_parser("fig10", help="7 models x 5 platforms")
    commands.add_parser("fig11", help="LLaMA2 sequence-length sweep")
    commands.add_parser("fig12", help="area breakdown")
    report = commands.add_parser(
        "report", help="run everything, emit a markdown reproduction report"
    )
    report.add_argument(
        "--output", default="-", help="file path, or '-' for stdout"
    )
    report.add_argument(
        "--fast", action="store_true", help="skip the genetic baseline"
    )
    return parser


def _cmd_optimize(args: argparse.Namespace) -> int:
    op = matmul("mm", args.m, args.k, args.l)
    result = optimize_intra(op, args.buffer_kb * 1024)
    print(result.describe())
    for name, entry in result.report.per_tensor.items():
        print(f"  {name}: {entry.accesses} accesses (x{entry.multiplier})")
    return 0


def _cmd_fuse(args: argparse.Namespace) -> int:
    op1 = matmul("mm1", args.m, args.k, args.l)
    op2 = matmul("mm2", args.m, args.l, args.n, a=op1.output)
    decision = decide_fusion(
        [op1, op2], args.buffer_kb * 1024, include_cross=args.cross
    )
    print(decision.describe())
    if decision.fused is not None:
        print("  " + decision.fused.describe())
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from .core import explain_fusion, explain_intra

    op = matmul("mm", args.m, args.k, args.l)
    consumer = (
        None
        if args.consumer_n is None
        else matmul("mm2", args.m, args.l, args.consumer_n, a=op.output)
    )
    print(explain_intra(op, args.buffer_kb * 1024))
    if consumer is not None:
        print()
        print(explain_fusion([op, consumer], args.buffer_kb * 1024))
    return 0


def _lookup_model(command: str, name: str):
    """``model_by_name``, or ``None`` after a one-line error."""
    try:
        return model_by_name(name)
    except KeyError as exc:
        print(f"{command}: {exc.args[0]}", file=sys.stderr)
        return None


def _cmd_plan(args: argparse.Namespace) -> int:
    import json

    from .plan import DEFAULT_PLAN_BUDGET, plan_dag
    from .service import dag_plan_request, execute_request, graph_plan_request

    buffer_elems = (
        args.buffer if args.buffer is not None else args.buffer_kb * 1024
    )
    if args.scenario is None:
        if args.model is None:
            print("plan: a MODEL or --scenario is required", file=sys.stderr)
            return 2
        given = {
            "--baseline": args.baseline is not None,
            "--budget": args.budget is not None,
            "--no-retention": args.no_retention,
            "--certify": args.certify,
            "--paranoid": args.paranoid,
        }
        scenario_only = [flag for flag, is_set in given.items() if is_set]
        if scenario_only:
            print(
                f"plan: {' '.join(scenario_only)} needs --scenario",
                file=sys.stderr,
            )
            return 2
    if args.model is not None:
        model = _lookup_model("plan", args.model)
        if model is None:
            return 2
    if args.scenario is None and not args.json:
        graph = build_layer_graph(model)
        plan = plan_dag(
            graph, buffer_elems, max_group=args.max_group,
            enable_retention=False,
        )
        print(plan.describe())
        return 0
    if args.scenario is None:
        request = graph_plan_request(
            args.model, buffer_elems, max_group=args.max_group
        )
    else:
        request = dag_plan_request(
            args.scenario,
            buffer_elems,
            model=args.model or "",
            max_group=args.max_group,
            retention=not args.no_retention,
            baseline=args.baseline is not None,
            budget=(
                DEFAULT_PLAN_BUDGET if args.budget is None else args.budget
            ),
            certify=args.certify,
            paranoid=args.paranoid,
        )
    record = execute_request(request)
    if args.json:
        print(json.dumps(record, indent=2, sort_keys=True))
    else:
        print(
            f"dag-plan[{args.scenario}] @ {buffer_elems} elems: "
            f"principle MA={record['total_memory_access']} "
            f"(chain-independent {record['chain_memory_access']}, "
            f"ideal {record['ideal_memory_access']})"
        )
        if record["retained"]:
            print("  retained: " + ", ".join(record["retained"]))
        for segment in record["segments"]:
            line = (
                f"  {'+'.join(segment['ops'])}: MA={segment['memory_access']}"
            )
            if segment["fused"]:
                line += " (fused)"
            if segment["resident"]:
                line += (
                    f" [resident {'+'.join(segment['resident'])}, "
                    f"{segment['reserved_elems']} elems reserved]"
                )
            print(line)
        baseline = record.get("baseline")
        if baseline is not None:
            print(
                f"  enumerative baseline: MA={baseline['total_memory_access']} "
                f"({baseline['plans_evaluated']}/{baseline['budget']} plans, "
                f"exhausted={baseline['exhausted']})"
            )
        certification = record.get("certification")
        if certification is not None:
            status = "OK" if certification["ok"] else "FAILED"
            healed = " (healed)" if certification["healed"] else ""
            print(f"  certificate: {status}{healed}")

    code = 0
    baseline = record.get("baseline")
    if baseline is not None and not baseline["agrees"]:
        print(
            "plan: the plan LOSES to the enumerative baseline",
            file=sys.stderr,
        )
        code = 1
    certification = record.get("certification")
    if certification is not None and not certification["ok"]:
        print("plan: certificate failed", file=sys.stderr)
        code = 1
    return code


def _cmd_compare(args: argparse.Namespace) -> int:
    model = _lookup_model("compare", args.model)
    if model is None:
        return 2
    memory = MemorySpec(buffer_bytes=args.buffer_kb * 1024)
    graph = build_layer_graph(model)
    perfs = {
        factory(memory).name: evaluate_graph(graph, factory(memory))
        for factory in ALL_PLATFORMS
    }
    baseline = perfs["TPUv4i"]
    rows = [
        [
            name,
            perf.total_memory_access,
            round(perf.total_memory_access / baseline.total_memory_access, 3),
            round(perf.utilization, 3),
            f"{perf.speedup_over(baseline):.2f}x",
        ]
        for name, perf in perfs.items()
    ]
    print(
        format_table(
            ["platform", "MA", "MA (norm.)", "utilization", "speedup"],
            rows,
            title=f"{args.model} @ {args.buffer_kb} KB",
        )
    )
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    """Certify one analysis end to end; exit code mirrors the verdict.

    Without ``--corrupt-ma``: exit 0 iff the certificate holds.  With
    ``--corrupt-ma DELTA`` the claimed count is deliberately understated
    by DELTA and the exit code *inverts*: 0 iff the auditor caught the
    corruption (failed certificate, or a paranoid heal that restored the
    true count and recorded the discrepancy).
    """

    import json

    from .verify import certify_fused, certify_intra, drain_discrepancies

    buffer_elems = (
        args.buffer_elems
        if args.buffer_elems is not None
        else args.buffer_kb * 1024
    )
    drain_discrepancies()  # the run's report should only carry its own
    op = matmul("mm1", args.m, args.k, args.l)
    if args.consumer_n is None:
        baseline = optimize_intra(op, buffer_elems)
        claimed = (
            None
            if args.corrupt_ma is None
            else baseline.memory_access - args.corrupt_ma
        )
        certified = certify_intra(
            op,
            buffer_elems,
            result=baseline,
            claimed_memory_access=claimed,
            paranoid=args.paranoid,
        )
    else:
        from .core import optimize_fused

        consumer = matmul("mm2", args.m, args.l, args.consumer_n, a=op.output)
        ops = [op, consumer]
        baseline = optimize_fused(
            ops, buffer_elems, include_cross=not args.no_cross
        )
        if baseline is None:
            raise InfeasibleError(
                f"no fused dataflow fits {buffer_elems} elements"
            )
        claimed = (
            None
            if args.corrupt_ma is None
            else baseline.memory_access - args.corrupt_ma
        )
        certified = certify_fused(
            ops,
            buffer_elems,
            result=baseline,
            include_cross=not args.no_cross,
            claimed_memory_access=claimed,
            paranoid=args.paranoid,
        )
    certificate = certified.certificate
    if args.json:
        print(json.dumps(certificate.as_dict(), sort_keys=True, indent=2))
    else:
        print(certificate.describe())
        if certificate.healed:
            result = certified.result
            label = getattr(result, "label", None) or result.pattern.label
            print(
                f"healed: certified result MA={result.memory_access} "
                f"({label})"
            )
    drain_discrepancies()
    if args.corrupt_ma is not None:
        caught = not certificate.ok or (
            certificate.healed and certificate.discrepancy is not None
        )
        if caught:
            print("corruption caught by the auditor", file=sys.stderr)
            return 0
        print(
            "corruption NOT caught: certificate passed a corrupted claim",
            file=sys.stderr,
        )
        return 1
    return 0 if certificate.ok else 1


class _RequestLines:
    """A JSON-lines request file, opened now and streamed later.

    The file is opened eagerly, so a missing or unreadable path raises
    ``OSError`` here, before any engine, journal or connection exists.
    Iteration reads one line at a time: a million-request input costs one
    line of buffering, not O(file) memory.  Undecodable lines are reported
    to stderr *with their line number* and passed through as raw strings so
    the engine still records a structured per-line error at the right
    position in the output stream.  The file closes when iteration ends,
    or on :meth:`close` -- which a command exiting before the batch runs
    must call, since then iteration never starts.
    """

    def __init__(self, source: str):
        self.source = source
        self.handle = (
            sys.stdin if source == "-" else open(source, encoding="utf-8")
        )

    def __iter__(self):
        import json

        try:
            for lineno, line in enumerate(self.handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    yield json.loads(line)
                except ValueError as exc:
                    print(
                        f"warning: {self.source} line {lineno}: not valid "
                        f"JSON ({exc})",
                        file=sys.stderr,
                    )
                    yield line
        finally:
            self.close()

    def close(self) -> None:
        if self.handle is not sys.stdin:
            self.handle.close()


def _open_requests(command: str, source: str):
    """The request file as :class:`_RequestLines`, or ``None`` after a
    one-line error."""
    try:
        return _RequestLines(source)
    except OSError as exc:
        print(
            f"{command}: cannot read {source}: {exc.strerror or exc}",
            file=sys.stderr,
        )
        return None


def _check_output(command: str, target: str) -> bool:
    """Open the results file now, before any work runs.

    A path that cannot be written fails here with one stderr line, as a
    missing request file does in :func:`_open_requests`; ``'-'`` is stdout.
    Append mode leaves the file's content alone until the results replace
    it, so the output may name the request file itself.
    """
    if target == "-":
        return True
    try:
        open(target, "a", encoding="utf-8").close()
    except OSError as exc:
        print(
            f"{command}: cannot write {target}: {exc.strerror or exc}",
            file=sys.stderr,
        )
        return False
    return True


def _write_results(target: str, results: str) -> None:
    """JSON-lines ``results`` to ``target`` (a file path, or ``'-'``)."""
    if target == "-":
        if results:
            print(results)
    else:
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(results + ("\n" if results else ""))


def _arm_fault_injection(spec: Optional[str]) -> Optional[int]:
    """Arm the env-guarded dev fault harness; returns an exit code on error.

    The harness must be unreachable from production invocations unless
    explicitly armed via ``REPRO_ENABLE_FAULT_INJECTION=1``.
    """

    import os

    from .service import (
        FAULTS_ENV,
        FAULTS_GUARD_ENV,
        FaultSpecError,
        parse_fault_spec,
        set_fault_plan,
    )

    if spec is None:
        return None
    if os.environ.get(FAULTS_GUARD_ENV) != "1":
        print(
            f"error: --inject-faults requires {FAULTS_GUARD_ENV}=1 "
            "in the environment (dev/test harness only)",
            file=sys.stderr,
        )
        return 2
    try:
        set_fault_plan(parse_fault_spec(spec))
    except FaultSpecError as exc:
        print(f"error: bad fault spec: {exc}", file=sys.stderr)
        return 2
    # Export for process-pool children (incl. spawn start method).
    os.environ[FAULTS_ENV] = spec
    return None


def _cmd_batch(args: argparse.Namespace) -> int:
    from .service import (
        RESUMABLE_EXIT_CODE,
        BatchEngine,
        BatchInterrupted,
        BatchJournal,
        EngineConfig,
        JournalError,
        shutdown_guard,
    )

    failure = _arm_fault_injection(args.inject_faults)
    if failure is not None:
        return failure

    if args.resume and not args.journal:
        print("error: --resume requires --journal PATH", file=sys.stderr)
        return 2
    try:
        config = EngineConfig(
            jobs=args.jobs,
            cache_size=args.cache_size,
            executor=args.executor,
            max_attempts=args.max_attempts,
            retry_base_delay=args.retry_delay,
            deadline_seconds=args.deadline,
            breaker_threshold=args.breaker_threshold,
            fallback=not args.no_fallback,
            start_method=args.start_method,
            stall_timeout_seconds=args.stall_timeout,
            paranoid=args.paranoid,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payloads = _open_requests("batch", args.requests)
    if payloads is None:
        return 2
    if not _check_output("batch", args.output):
        payloads.close()
        return 2

    def warn(message: str) -> None:
        print(f"warning: {message}", file=sys.stderr)

    engine = BatchEngine(config)
    engine.warm_cache_file(args.cache_file, warn)
    journal = None
    if args.journal:
        try:
            # The journal reports its own recovery (torn lines dropped,
            # corrupt records quarantined) on stderr.
            journal = BatchJournal(
                args.journal,
                resume=args.resume,
                compact_max_records=args.compact_max_records,
                compact_max_bytes=args.compact_max_bytes,
            )
        except (JournalError, ValueError) as exc:
            # An existing journal without --resume, an unknown version, a
            # wrong format or a bad knob: fail loud, never misread.
            print(f"error: {exc}", file=sys.stderr)
            payloads.close()
            return 2
    interrupted = None
    try:
        with shutdown_guard() as stop:
            report = engine.run_batch(
                payloads, journal=journal, stop_event=stop
            )
    except BatchInterrupted as exc:
        interrupted = exc
    finally:
        if journal is not None:
            journal.close()
    # Interrupted or not, the cache holds only completed results: keep it.
    engine.save_cache_file(args.cache_file, warn)
    if interrupted is not None:
        # Exit distinctly so callers (and CI) can tell "interrupted,
        # resumable" from a failed batch.
        print(f"batch: {interrupted}", file=sys.stderr)
        return RESUMABLE_EXIT_CODE
    _write_results(args.output, report.to_jsonl())
    if args.stats:
        print(report.render_text(), file=sys.stderr)
    if report.errors:
        print(
            f"batch: {report.errors} of {report.requests} request(s) "
            "failed",
            file=sys.stderr,
        )
    return 1 if (args.strict and report.errors) else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the serving daemon until SIGTERM/SIGINT, then drain losslessly.

    The first signal stops admission (new analyze calls get 503 +
    ``Retry-After``), waits for every accepted request to finish, flushes
    the journal and the persistent cache, and exits 0.  A second signal
    force-quits, matching ``repro batch`` semantics.
    """

    from .server import ReproServer, ServerConfig
    from .server.protocol import PROTOCOL_VERSION
    from .service import FileLock, FileLockedError, shutdown_guard
    from .shard import ShardBootError, ShardedServer

    failure = _arm_fault_injection(args.inject_faults)
    if failure is not None:
        return failure
    if args.shards < 0:
        print(
            "error: --shards must be >= 0 (0 = single-process)",
            file=sys.stderr,
        )
        return 2
    sharded = args.shards > 0
    try:
        config = ServerConfig(
            host=args.host,
            port=args.port,
            jobs=args.jobs,
            cache_size=args.cache_size,
            max_concurrency=args.max_concurrency,
            queue_depth=args.queue_depth,
            rate_limit=args.rate_limit,
            burst=args.burst,
            default_deadline=args.deadline,
            max_deadline=args.max_deadline,
            paranoid=args.paranoid,
            journal_path=args.journal,
            cache_file=args.cache_file,
            compact_max_records=args.compact_max_records,
            compact_max_bytes=args.compact_max_bytes,
            verbose=args.verbose,
            retry_jitter_seed=args.retry_jitter_seed,
        )
    except ValueError as exc:
        print(f"error: cannot start server: {exc}", file=sys.stderr)
        return 2
    # Daemon-lifetime ownership of the persistent cache file: two daemons
    # saving one cache race each other's os.replace. Shard workers derive
    # per-shard paths from it, so one router-level lock covers them all.
    cache_lock = None
    if args.cache_file:
        try:
            cache_lock = FileLock(
                args.cache_file + ".lock", purpose="cache file"
            ).acquire()
        except FileLockedError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        try:
            if sharded:
                server = ShardedServer(
                    config,
                    shards=args.shards,
                    start_method=args.start_method,
                )
            else:
                server = ReproServer(config)
        except (ShardBootError, ValueError, OSError) as exc:
            print(f"error: cannot start server: {exc}", file=sys.stderr)
            return 2
        server.start()
        # The "listening" line is the startup contract: scripts (and the
        # CI smoke step) parse the bound address from it, which is how an
        # ephemeral --port 0 becomes discoverable.
        print(
            f"repro serve: listening on {server.url} "
            f"(protocol {PROTOCOL_VERSION}, jobs={args.jobs}, "
            f"max_concurrency={config.max_concurrency}, "
            f"queue_depth={config.queue_depth}"
            + (f", shards={args.shards}" if sharded else "")
            + ")",
            file=sys.stderr,
            flush=True,
        )
        if sharded:
            pids = " ".join(
                str(pid) for pid in server.app.supervisor.pids if pid
            )
            print(f"repro serve: shard pids {pids}", file=sys.stderr, flush=True)
        with shutdown_guard() as stop:
            stop.wait()
        if sharded:
            # Read counters while the fleet is still up; the drain below
            # stops the workers.
            stats = server.app.stats_dict()
        drained = server.shutdown(drain=True)
        if not sharded:
            stats = server.app.stats_dict()
        served = stats["serving"].get("requests_served", 0)
        print(
            "repro serve: drained and stopped "
            f"(analyze_calls={stats['serving'].get('analyze_calls', 0)}, "
            f"requests_served={served})",
            file=sys.stderr,
        )
        return 0 if drained else 1
    finally:
        if cache_lock is not None:
            cache_lock.release()


def _cmd_call(args: argparse.Namespace) -> int:
    """One-shot client: ship requests to a live daemon, print results.

    Output is byte-identical to ``repro batch`` on the same request file
    -- the server serves the engine's deterministic JSON-lines stream and
    this command writes it verbatim (re-canonicalized when ``--chunk-size``
    splits the batch).
    """

    import json

    from .server import (
        ReproClient,
        ServerError,
        ServerUnavailableError,
        canonical_record_line,
    )

    try:
        client = ReproClient.from_url(
            args.url,
            timeout=args.timeout,
            max_attempts=max(1, args.retries),
            retry_base_delay=args.retry_delay,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.health:
            print(json.dumps(client.health(), sort_keys=True, indent=2))
            return 0
        if args.reshard is not None:
            summary = client.reshard(args.reshard)
            print(json.dumps(summary, sort_keys=True, indent=2))
            return 0
        if args.compact:
            summary = client.compact()
            print(json.dumps(summary, sort_keys=True, indent=2))
            return 0 if summary.get("ok") else 1
        payloads = _open_requests("call", args.requests)
        if payloads is None:
            return 2
        if not _check_output("call", args.output):
            payloads.close()
            return 2
        if args.chunk_size > 0:
            lines = [
                canonical_record_line(record)
                for record in client.stream_batch(
                    payloads, chunk_size=args.chunk_size,
                    deadline=args.deadline,
                )
            ]
        else:
            lines = client.batch_lines(list(payloads), deadline=args.deadline)
        _write_results(args.output, "\n".join(lines))
        errors = sum(
            1 for line in lines if not json.loads(line).get("ok")
        )
        if args.server_stats:
            print(
                json.dumps(client.stats(), sort_keys=True, indent=2),
                file=sys.stderr,
            )
        if errors:
            print(
                f"call: {errors} of {len(lines)} request(s) failed",
                file=sys.stderr,
            )
        return 1 if (args.strict and errors) else 0
    except ServerUnavailableError as exc:
        print(f"error: server unreachable: {exc}", file=sys.stderr)
        return 3
    except ServerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        client.close()


def _cmd_fsck(args: argparse.Namespace) -> int:
    """Offline integrity check; exit code is the worst per-file verdict.

    One summary line per file plus one ``line N: ...`` detail line per
    corrupt/torn record (key and reason included when recoverable), so a
    CI grep can name exactly which record a flipped byte destroyed.
    """

    import json

    from .service import FSCK_CLEAN, fsck_file

    reports = [fsck_file(path, repair=args.repair) for path in args.paths]
    if args.json:
        print(json.dumps(reports, sort_keys=True, indent=2))
        return max(report["exit_code"] for report in reports)
    for report in reports:
        status = report["status"]
        if report["kind"] == "cache":
            print(
                f"{report['path']}: cache {status} "
                f"({report['completion_lines']} entr"
                f"{'y' if report['completion_lines'] == 1 else 'ies'}, "
                f"{report['unique_keys']} unique key(s))"
            )
        else:
            print(
                f"{report['path']}: {report['kind']} {status} "
                f"(v{report['version']}, {report['file_bytes']} bytes, "
                f"{report['completion_lines']} completion line(s), "
                f"{report['unique_keys']} unique key(s), "
                f"{report['durable_records']} durable, "
                f"{report['duplicate_lines']} duplicate(s), "
                f"{report['heartbeat_lines']} heartbeat(s))"
            )
        if report["detail"]:
            print(f"  {report['detail']}")
        for problem in report["corrupt"]:
            key = problem.get("key") or "?"
            print(
                f"  line {problem['line']}: CORRUPT key={key} "
                f"({problem['reason']})"
            )
        for problem in report["torn"]:
            key = problem.get("key") or "?"
            print(
                f"  line {problem['line']}: TORN key={key} "
                f"({problem['reason']})"
            )
        if report["repaired"]:
            print(
                f"  repaired: quarantined {report['quarantined']} corrupt "
                f"record(s), dropped {report['recovered_drops']} torn "
                "line(s); journal rewritten clean (lost requests are "
                "recomputed on the next --resume)"
            )
    worst = max(report["exit_code"] for report in reports)
    clean = sum(1 for report in reports if report["exit_code"] == FSCK_CLEAN)
    print(
        f"fsck: {clean}/{len(reports)} file(s) clean",
        file=sys.stderr,
    )
    return worst


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Seeded chaos soak against a real fleet; nonzero on any violation."""
    import json

    from .chaos import (
        ChaosConfig,
        describe_timeline,
        generate_timeline,
        parse_timeline,
        run_chaos,
    )

    if args.shards < 1:
        print("error: --shards must be >= 1", file=sys.stderr)
        return 2
    if args.duration <= 0:
        print("error: --duration must be positive", file=sys.stderr)
        return 2
    profile = args.profile or ("quick" if args.quick else "full")
    compact = profile == "quick"
    shards = 2 if compact and args.shards == 3 else args.shards
    duration = 6.0 if compact and args.duration == 30.0 else args.duration
    try:
        events = (
            parse_timeline(args.timeline)
            if args.timeline
            else generate_timeline(args.seed, shards, duration, profile)
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    bad_shard = [e for e in events if e.shard >= shards]
    if bad_shard:
        print(
            f"error: timeline targets shard {bad_shard[0].shard} but the "
            f"fleet has only {shards} shard(s)",
            file=sys.stderr,
        )
        return 2
    if args.print_timeline:
        print(
            f"chaos timeline (seed {args.seed}, {shards} shards, "
            f"{duration:g}s, profile {profile}):"
        )
        for line in describe_timeline(events):
            print(f"  {line}")
        return 0
    report = run_chaos(
        ChaosConfig(
            seed=args.seed,
            shards=shards,
            duration=duration,
            profile=profile,
            events=events,
        )
    )
    if args.json:
        print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
    if report.passed:
        print(
            f"chaos ok: seed {report.seed}, {report.shards} shards, "
            f"{report.iterations} iterations / {report.requests_ok} "
            f"requests byte-identical to oracle; {report.respawns} "
            f"respawns, {report.contained} containment(s), "
            f"{report.reroutes} reroutes, {report.timeouts} stall "
            f"escalation(s), {report.reshards} reshard(s) / "
            f"{report.keys_moved} key(s) moved, {report.replica_reads} "
            f"replica read(s), journal degraded survival="
            f"{report.journal_degraded}, {report.corruptions} journal "
            f"corruption(s) / {report.corrupt_quarantined} quarantined, "
            f"{report.compact_kills} mid-compaction kill(s) / "
            f"{report.compactions} compaction(s), post-soak fsck clean="
            f"{report.journals_valid}, conservation="
            f"{report.conservation}",
            file=sys.stderr,
        )
        return 0
    for failure in report.invariant_failures:
        print(f"chaos FAILED: {failure}", file=sys.stderr)
    for note in report.notes:
        print(f"chaos note: {note}", file=sys.stderr)
    return 1


def _cmd_selfcheck(args: argparse.Namespace) -> int:
    """Smoke-test three layers through their own entry points.

    1. Resilience: ``BatchEngine.run_batch`` under injected faults (a
       transient raise and an in-process worker crash, both retried, a
       delay, and a deterministic ``InfeasibleError``) returns one record
       per request in input order.
    2. Certification: ``certify_intra`` passes a known-good answer and
       catches a corrupted claim; ``certify_fused`` heals the pinned
       green-only counterexample (m=43,k=2,l=19,n=23 @ 173 elements).
    3. Serving: the quick :func:`repro.chaos.run_chaos` profile, a 2-shard
       fleet soaked through a worker kill, a journal disk fault and a
       stall, every response byte-identical to a fault-free oracle.

    Kill-and-resume, the single-process daemon, resharding and
    compaction kills are covered by the test suite and the CI smoke
    steps, not here.
    """

    from .chaos import ChaosConfig, run_chaos
    from .core import optimize_fused
    from .service import (
        BatchEngine,
        EngineConfig,
        injected_faults,
        intra_request,
        request_key,
        sweep_point_request,
    )
    from .verify import certify_fused, certify_intra, drain_discrepancies

    failures: List[str] = []
    requests = [
        intra_request(64, 32, 48, 4096),
        sweep_point_request(96, 64, 80, 1024),
        intra_request(32, 32, 32, 2048),
        intra_request(64, 32, 48, 1),  # deterministic InfeasibleError
    ]
    spec = (
        f"raise:{request_key(requests[0])[:16]}*:times=1:category=transient;"
        "delay:sweep_point:seconds=0.02;"
        f"crash:{request_key(requests[2])[:16]}*:times=1"
    )
    with injected_faults(spec):
        report = BatchEngine(
            EngineConfig(jobs=2, max_attempts=3, deadline_seconds=30.0)
        ).run_batch(requests)
    if args.stats:
        print(report.render_text(), file=sys.stderr)
    outcome = [
        (entry.index, entry.ok, entry.record.get("error", {}).get("type"))
        for entry in report.entries
    ]
    expected = [(0, True, None), (1, True, None), (2, True, None),
                (3, False, "InfeasibleError")]
    if outcome != expected:
        failures.append(f"resilience: records {outcome}, expected {expected}")
    if report.resilience.get("retries", 0) < 2:
        failures.append(
            f"resilience: expected >=2 retries, got {report.resilience}"
        )

    drain_discrepancies()
    op = matmul("mm", 64, 32, 48)
    good = certify_intra(op, 4096, paranoid=True)
    if not good.certificate.ok or good.certificate.healed:
        failures.append("certification: known-good result failed")
    claimed = good.result.memory_access - 7
    if certify_intra(op, 4096, claimed_memory_access=claimed).certificate.ok:
        failures.append("certification: a corrupted MA claim passed")
    producer = matmul("mm1", 43, 2, 19)
    chain = [producer, matmul("mm2", 43, 19, 23, a=producer.output)]
    green = optimize_fused(chain, 173, include_cross=False)
    healed = certify_fused(chain, 173, result=green, paranoid=True)
    certificate = healed.certificate
    if not (
        certificate.ok
        and certificate.healed
        and certificate.discrepancy is not None
        and healed.result.memory_access < green.memory_access
        and len(drain_discrepancies()) == 1
    ):
        failures.append("certification: the counterexample was not healed")

    chaos = run_chaos(
        ChaosConfig(
            seed=7,
            shards=2,
            duration=6.0,
            profile="quick",
            log=lambda message: (
                print(f"repro chaos: {message}", file=sys.stderr)
                if args.stats
                else None
            ),
        )
    )
    failures.extend(f"chaos: {failure}" for failure in chaos.invariant_failures)

    if failures:
        for failure in failures:
            print(f"selfcheck FAILED: {failure}", file=sys.stderr)
        return 1
    print(
        f"selfcheck ok: {report.requests} requests, {report.errors} expected "
        f"error, resilience={report.resilience}; certification ok "
        "(corrupted claim caught, counterexample healed "
        f"{green.memory_access}->{healed.result.memory_access}); chaos ok "
        f"({chaos.iterations} iterations byte-identical, {chaos.respawns} "
        f"respawn(s), journal degraded survival={chaos.journal_degraded})"
    )
    return 0


#: Commands that answer one question from their arguments.
_ONE_SHOT = {
    "optimize": _cmd_optimize,
    "fuse": _cmd_fuse,
    "plan": _cmd_plan,
    "compare": _cmd_compare,
    "explain": _cmd_explain,
    "certify": _cmd_certify,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command in _ONE_SHOT:
        # Bad input -- a non-positive dim or buffer, a buffer no dataflow
        # fits, an invalid request -- raises ValueError: one line, exit 2.
        try:
            return _ONE_SHOT[args.command](args)
        except ValueError as exc:
            print(f"{args.command}: {exc}", file=sys.stderr)
            return 2
    if args.command == "batch":
        return _cmd_batch(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "call":
        return _cmd_call(args)
    if args.command == "fsck":
        return _cmd_fsck(args)
    if args.command == "selfcheck":
        return _cmd_selfcheck(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "tables":
        print(table1())
        print()
        print(table2())
        print()
        print(table3())
        return 0
    if args.command == "fig9":
        points = run_fig9(include_genetic=not args.fast, certify=args.certify)
        print(render_fig9(points))
        if args.certify:
            print(f"certified: {len(points)}/{len(points)} points")
        return 0 if all(p.principle_at_most_search for p in points) else 1
    if args.command == "fig10":
        print(render_fig10(run_fig10()))
        return 0
    if args.command == "fig11":
        print(render_fig11(run_fig11()))
        return 0
    if args.command == "fig12":
        print(render_fig12(run_fig12()))
        return 0
    if args.command == "report":
        from .experiments.report import ReportOptions, generate_report

        report = generate_report(
            ReportOptions(include_genetic=not args.fast)
        )
        if args.output == "-":
            print(report)
        else:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(report)
            print(f"wrote {args.output}")
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
