"""Command-line interface.

Subcommands::

    repro-mst exp <key> [--scale S] [--seeds N]   # regenerate a paper artifact
    repro-mst exp list                            # available experiments
    repro-mst exp all                             # everything
    repro-mst run <code> <input> [--system 1|2]   # one code on one input
    repro-mst codes                               # available MST codes
    repro-mst inputs                              # the 17-input suite
    repro-mst artifact <dir> [--scale S]          # artifact-style CSV workflow
    repro-mst report [--out FILE] [--scale S]     # full markdown repro report
    repro-mst convert <in> <out>                  # graph format conversion
    repro-mst mst <graphfile> [--out edges.txt]   # MSF of a graph file
    repro-mst trace <input> [--format chrome|ndjson] [--out FILE]
    repro-mst profile <input> [--baseline FILE] [--format json|chrome|ndjson]
    repro-mst chaos <input> [--faults N --seed S]  # fault-injection campaign
    repro-mst serve --batch FILE [--workers N]
    repro-mst sweep <suite> [--repeat N]

For backwards compatibility, a bare experiment key also works:
``python -m repro table4`` ≡ ``python -m repro exp table4``.

Exit codes: 0 success; 1 not-connected / campaign failure; 2 usage
(including a ``serve``/``sweep`` flag value the service rejects);
3 malformed input (:class:`~repro.errors.GraphFormatError`);
4 verification failure; 5 unrecovered device fault.  ``serve`` and
``sweep`` apply the same taxonomy per query and exit with the most
severe per-query code — a malformed query fails its line in the
output NDJSON without aborting the batch.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .bench.experiments import DEFAULT_SCALE, EXPERIMENTS

__all__ = ["main"]

_FORMAT_LOADERS = {
    ".ecl": "load_ecl",
    ".gr": "load_dimacs",
    ".graph": "load_metis",
    ".txt": "load_edge_list",
}
_FORMAT_SAVERS = {
    ".ecl": "save_ecl",
    ".gr": "save_dimacs",
    ".graph": "save_metis",
    ".txt": "save_edge_list",
}


class _InputError(Exception):
    """An input name the suite does not know (one line, exit 3)."""


def _scale(text: str) -> float:
    """``--scale``: a positive, finite float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be a positive, finite number, got {text!r}"
        )
    return value


def _suite_graph(name: str, scale: float):
    """Build the named suite input; an unknown name is an input error."""
    from .generators import suite

    if name not in suite.SUITE:
        raise _InputError(
            f"unknown input {name!r}; choose from {', '.join(suite.INPUT_NAMES)}"
        )
    return suite.build(name, scale=scale)


def _load_graph(path: str):
    from . import graph as graph_mod

    suffix = Path(path).suffix
    loader = _FORMAT_LOADERS.get(suffix)
    if loader is None:
        raise SystemExit(
            f"unknown graph format {suffix!r}; use one of "
            f"{', '.join(_FORMAT_LOADERS)}"
        )
    return getattr(graph_mod, loader)(path)


def _save_graph(g, path: str) -> None:
    from . import graph as graph_mod

    suffix = Path(path).suffix
    saver = _FORMAT_SAVERS.get(suffix)
    if saver is None:
        raise SystemExit(
            f"unknown graph format {suffix!r}; use one of "
            f"{', '.join(_FORMAT_SAVERS)}"
        )
    getattr(graph_mod, saver)(g, path)


def _cmd_exp(args) -> int:
    if args.key == "list":
        for key, exp in EXPERIMENTS.items():
            print(f"{key:10s} {exp.description}")
        return 0
    keys = list(EXPERIMENTS) if args.key == "all" else [args.key]
    for key in keys:
        if key not in EXPERIMENTS:
            print(
                f"unknown experiment {key!r}; try: {', '.join(EXPERIMENTS)}",
                file=sys.stderr,
            )
            return 2
        exp = EXPERIMENTS[key]
        print(f"== {exp.description} ==")
        if key == "fig6":
            print(exp.run(args.scale, seeds=args.seeds))
        else:
            print(exp.run(args.scale))
        print()
    return 0


def _cmd_run(args) -> int:
    from .baselines.errors import NotConnectedError
    from .baselines.registry import get_runner
    from .bench.harness import SYSTEM1, SYSTEM2

    system = SYSTEM1 if args.system == 1 else SYSTEM2
    try:
        runner = get_runner(args.code)
    except KeyError as exc:
        print(exc, file=sys.stderr)
        return 2
    g = _suite_graph(args.input, args.scale)
    try:
        r = runner.run(g, gpu=system.gpu, cpu=system.cpu)
    except NotConnectedError as exc:
        print(f"NC: {exc}")
        return 1
    print(f"{args.code} on {args.input} ({system.name}):")
    print(f"  edges={r.num_mst_edges} weight={r.total_weight} rounds={r.rounds}")
    print(
        f"  modeled {r.modeled_seconds * 1e3:.4f} ms  "
        f"({r.throughput_meps():,.1f} Medges/s)"
    )
    return 0


def _cmd_codes(_args) -> int:
    from .baselines.registry import RUNNERS, TABLE_CODES

    for name, runner in RUNNERS.items():
        star = "*" if name in TABLE_CODES else " "
        msf = "MSF" if runner.supports_msf else "MST-only"
        print(f"{star} {name:22s} {runner.kind:14s} {msf}")
    print("\n(* = appears in the paper's Tables 3/4)")
    return 0


def _cmd_inputs(args) -> int:
    from .bench.tables import render_table2
    from .generators import suite

    print(render_table2(suite.build_all(scale=args.scale)))
    return 0


def _cmd_artifact(args) -> int:
    from .bench import artifact

    directory = Path(args.directory)
    print(f"set_up: writing inputs to {directory / 'inputs'}")
    artifact.set_up(directory / "inputs", scale=args.scale)
    print("run_all_compare: running every code on every input ...")
    artifact.run_all_compare(directory, scale=args.scale)
    print("run_all_deoptimize: running the de-optimization ladder ...")
    artifact.run_all_deoptimize(directory, scale=args.scale)
    print(artifact.generate_compare_tables(directory))
    print(artifact.generate_deopt_tables(directory))
    return 0


def _cmd_report(args) -> int:
    from .bench.report import generate_report

    text = generate_report(args.out, scale=args.scale)
    if args.out:
        print(f"report written to {args.out}")
    else:
        print(text)
    return 0


def _resolve_input(name: str, scale: float):
    """A suite input name, or a path to a graph file in a known format."""
    if Path(name).suffix in _FORMAT_LOADERS and Path(name).exists():
        return _load_graph(name)
    return _suite_graph(name, scale)


def _traced_run(args):
    """Run one (instrumented) code under a tracer; shared by
    ``trace`` and ``profile``."""
    from .baselines.registry import get_runner
    from .bench.harness import SYSTEM1, SYSTEM2
    from .core.config import DEOPT_STAGES, EclMstConfig
    from .core.eclmst import ecl_mst
    from .obs import Tracer

    system = SYSTEM1 if args.system == 1 else SYSTEM2
    tracer = Tracer()
    # Loading/generating the input is host work worth seeing in the
    # self-profile, so it happens under the tracer too.
    with tracer.span("load input", kind="host", input=args.input):
        g = _resolve_input(args.input, args.scale)
    stage = getattr(args, "stage", None)
    code = getattr(args, "code", "ECL-MST")
    if stage is not None:
        if stage not in DEOPT_STAGES:
            raise SystemExit(
                f"unknown de-opt stage {stage!r}; choose from "
                f"{', '.join(DEOPT_STAGES)}"
            )
        result = ecl_mst(g, DEOPT_STAGES[stage], gpu=system.gpu, tracer=tracer)
    elif code == "ECL-MST":
        result = ecl_mst(g, EclMstConfig(), gpu=system.gpu, tracer=tracer)
    else:
        runner = get_runner(code)
        result = runner.run(g, gpu=system.gpu, cpu=system.cpu, tracer=tracer)
        if runner.kind == "gpu":
            # GPU baselines price against the same spec; let the
            # profile attribute their kernels on the roofline too.
            result.extra.setdefault("gpu_spec", system.gpu)
    return result, tracer


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as f:
            f.write(text)
            if not text.endswith("\n"):
                f.write("\n")
        print(f"written to {out}")
    else:
        print(text)


def _cmd_trace(args) -> int:
    from .obs import to_chrome_trace_json, to_ndjson

    result, tracer = _traced_run(args)
    if args.format == "ndjson":
        _emit(to_ndjson(tracer), args.out)
    else:
        _emit(to_chrome_trace_json(tracer), args.out)
    print(
        f"# traced {result.algorithm} on {args.input}: "
        f"{len(tracer.spans())} spans, "
        f"{result.counters.num_launches} launches, "
        f"{result.modeled_seconds * 1e3:.4f} ms modeled",
        file=sys.stderr,
    )
    return 0


def _render_host_hotspots(profile) -> str:
    rows = profile.host.get("hotspots", [])
    if not rows:
        return ""
    lines = ["host wall-clock hot spots (self time):"]
    for r in rows:
        lines.append(
            f"  {r['name']:24s} {r['kind']:7s} {r['count']:5d}x "
            f"{r['wall_seconds'] * 1e3:9.3f} ms"
        )
    return "\n".join(lines)


def _cmd_profile(args) -> int:
    from .obs import RunProfile, diff, to_chrome_trace_json, to_ndjson

    result, tracer = _traced_run(args)
    profile = RunProfile.from_result(result, tracer=tracer)
    if args.baseline:
        baseline = RunProfile.load(args.baseline)
        d = diff(baseline, profile)
        print(d.render() if args.format == "text" else d.to_json())
        return 0
    if args.format == "chrome":
        _emit(to_chrome_trace_json(tracer), args.out)
    elif args.format == "ndjson":
        _emit(to_ndjson(tracer), args.out)
    elif args.format in ("text", "roofline"):
        from .obs.roofline import roofline_report

        sections = []
        if args.format == "text":
            sections.append(profile.render())
        gpu = result.extra.get("gpu_spec")
        if gpu is not None:
            sections.append(
                roofline_report(result.counters, gpu).render(top_n=args.top)
            )
        elif args.format == "roofline":
            print("no GPU spec for this code; roofline unavailable",
                  file=sys.stderr)
            return 2
        if args.format == "text":
            hot = _render_host_hotspots(profile)
            if hot:
                sections.append(hot)
        _emit("\n\n".join(sections), args.out)
    else:
        _emit(profile.to_json(), args.out)
    return 0


def _cmd_convert(args) -> int:
    g = _load_graph(args.src)
    _save_graph(g, args.dst)
    print(
        f"converted {args.src} -> {args.dst} "
        f"(|V|={g.num_vertices}, |E|={g.num_edges})"
    )
    return 0


def _cmd_chaos(args) -> int:
    from .resilience import ResilienceConfig, run_campaign
    from .resilience.faults import FAULT_KINDS

    if args.serve:
        # Chaos-under-load: drive a policy-armed service instead of a
        # bare solver loop (overload + quarantine + breaker drill).
        from .resilience import run_service_campaign

        progress = (
            (lambda line: print(line, file=sys.stderr))
            if args.verbose
            else None
        )
        report = run_service_campaign(
            args.input,
            scale=args.scale,
            n_queries=args.queries,
            slowdown=args.slowdown,
            seed=args.seed,
            progress=progress,
        )
        print(report.render())
        return 0 if report.passed else 1

    kinds = FAULT_KINDS
    if args.kinds:
        kinds = tuple(k.strip() for k in args.kinds.split(",") if k.strip())
        unknown = set(kinds) - set(FAULT_KINDS)
        if unknown:
            print(
                f"unknown fault kind(s) {', '.join(sorted(unknown))}; "
                f"choose from {', '.join(FAULT_KINDS)}",
                file=sys.stderr,
            )
            return 2
    g = _resolve_input(args.input, args.scale)
    resilience = ResilienceConfig(check_cadence=args.cadence)
    progress = (
        (lambda line: print(line, file=sys.stderr)) if args.verbose else None
    )
    report = run_campaign(
        g,
        n_faults=args.faults,
        seed=args.seed,
        kinds=kinds,
        faults_per_trial=args.faults_per_trial,
        resilience=resilience,
        progress=progress,
    )
    print(report.render())
    return 0 if report.escaped == 0 else 1


class _UsageError(Exception):
    """A flag value the service configs reject (one line, exit 2)."""


def _policy_from_args(args):
    """A :class:`PolicyConfig` from the CLI knobs, or ``None`` when
    every overload-safety mechanism is left off."""
    from .resilience.policy import PolicyConfig

    policy = PolicyConfig(
        admission_rate=args.admission_rate,
        admission_burst=args.admission_burst,
        max_retries=args.max_retries,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_s=args.breaker_cooldown,
        serve_stale=args.serve_stale,
        fresh_ttl_s=args.fresh_ttl,
        degrade_serial=args.degrade_serial,
        quarantine_after=args.quarantine_after,
        seed=args.policy_seed,
    )
    return policy if policy.enabled else None


def _service_from_args(args):
    """The configured service; a rejected flag value is a usage error."""
    from .obs.recorder import RecorderConfig
    from .service import MSTService, ServiceConfig

    recorder = None
    if not args.no_recorder:
        recorder = RecorderConfig(dir=args.postmortem_dir)
    try:
        config = ServiceConfig(
            workers=args.workers,
            result_cache_size=args.cache_size,
            graph_cache_size=args.graph_cache_size,
            max_queue_depth=args.queue_depth,
            default_timeout_s=args.timeout,
            # Admin endpoints imply profile retention (/profilez).
            keep_profile=getattr(args, "admin_port", None) is not None,
            policy=_policy_from_args(args),
            slowdown=args.slowdown,
            recorder=recorder,
        )
    except ValueError as exc:
        raise _UsageError(f"{args.command}: {exc}") from None
    return MSTService(config)


def _cmd_serve(args) -> int:
    import time

    from .service import run_batch_lines, summarize

    if args.batch == "-":
        lines = sys.stdin.read().splitlines()
    else:
        try:
            lines = Path(args.batch).read_text().splitlines()
        except OSError as exc:
            from .errors import EXIT_INPUT_ERROR

            print(f"input error: cannot read batch file: {exc}", file=sys.stderr)
            return EXIT_INPUT_ERROR
    admin = None
    t0 = time.perf_counter()
    with _service_from_args(args) as service:
        if args.admin_port is not None:
            from .service.admin import AdminServer

            admin = AdminServer(service, port=args.admin_port).start()
            print(f"admin endpoints at {admin.url}", file=sys.stderr)
        try:
            try:
                outcomes = run_batch_lines(lines, service)
            except BaseException as exc:
                # Last words: an unhandled exception in the serve path
                # still leaves a postmortem bundle behind.
                if not isinstance(exc, KeyboardInterrupt) and (
                    service.recorder is not None
                ):
                    service.recorder.capture_crash(exc, service=service)
                raise
            summary = summarize(
                outcomes, service, wall_seconds=time.perf_counter() - t0
            )
            _emit("\n".join(o.to_json_line() for o in outcomes), args.out)
            print(summary.render(), file=sys.stderr)
            if args.linger > 0:
                # Keep the admin endpoints scrapeable after the batch
                # (CI smoke tests, manual inspection).
                print(f"lingering {args.linger:g}s ...", file=sys.stderr)
                time.sleep(args.linger)
        finally:
            if admin is not None:
                admin.stop()
    return summary.exit_code


def _cmd_sweep(args) -> int:
    import time

    from .service import batch_exit_code, summarize, sweep_queries

    one_pass = sweep_queries(
        args.suite,
        scale=args.scale,
        code=args.code,
        system=args.system,
        repeat=1,
    )
    outcomes = []
    with _service_from_args(args) as service:
        # Cold pass first, then the warm repeats — measured separately
        # so the summary reports the cache's amortization as
        # cold-vs-warm throughput.
        t0 = time.perf_counter()
        cold_outcomes = service.run_batch(one_pass)
        cold = summarize(
            cold_outcomes, service, wall_seconds=time.perf_counter() - t0
        )
        outcomes.extend(cold_outcomes)
        warm = None
        if args.repeat > 1:
            import dataclasses

            warm_queries = [
                dataclasses.replace(q, id=f"{q.input}#r{rep}")
                for rep in range(1, args.repeat)
                for q in one_pass
            ]
            t1 = time.perf_counter()
            warm_outcomes = service.run_batch(warm_queries)
            warm = summarize(
                warm_outcomes, service, wall_seconds=time.perf_counter() - t1
            )
            outcomes.extend(warm_outcomes)
    if args.out:
        _emit("\n".join(o.to_json_line() for o in outcomes), args.out)
    print(f"== cold pass ==\n{cold.render()}")
    if warm is not None:
        print(f"\n== warm passes (x{args.repeat - 1}) ==\n{warm.render()}")
        if cold.qps > 0:
            print(f"\nwarm/cold throughput: {warm.qps / cold.qps:.2f}x")
    return batch_exit_code(outcomes)


def _cmd_mst(args) -> int:
    from .core.eclmst import ecl_mst

    g = _resolve_input(args.graph, args.scale)
    r = ecl_mst(g, verify=args.verify)
    print(
        f"MSF of {args.graph}: {r.num_mst_edges} edges, "
        f"weight {r.total_weight}, {r.rounds} rounds"
    )
    if args.out:
        u, v, w = r.edges()
        with open(args.out, "w") as f:
            f.write(f"# MSF of {g.name}: weight {r.total_weight}\n")
            for i in range(u.size):
                f.write(f"{u[i]} {v[i]} {w[i]}\n")
        print(f"edge list written to {args.out}")
    return 0


def _cmd_dashboard(args) -> int:
    import json as _json

    from .obs.dashboard import render_dashboard

    if args.profile:
        try:
            profile = _json.loads(Path(args.profile).read_text())
        except (OSError, _json.JSONDecodeError) as exc:
            from .errors import EXIT_INPUT_ERROR

            print(f"input error: cannot read profile: {exc}", file=sys.stderr)
            return EXIT_INPUT_ERROR
    else:
        if not args.input:
            from .errors import EXIT_INPUT_ERROR

            print(
                "input error: give an input to run, or --profile FILE",
                file=sys.stderr,
            )
            return EXIT_INPUT_ERROR
        # No saved profile: run the input fresh and profile it.
        from .obs import RunProfile

        result, tracer = _traced_run(args)
        profile = RunProfile.from_result(result, tracer=tracer).to_dict()
    from .obs.recorder import recent_bundles

    html = render_dashboard(
        profile,
        title=args.title,
        incidents=recent_bundles(args.postmortems),
    )
    out = Path(args.out or "dashboard.html")
    out.write_text(html)
    print(f"dashboard written to {out}")
    return 0


def _cmd_postmortem(args) -> int:
    import json as _json

    from .obs.recorder import (
        bundle_summary,
        load_bundle,
        recent_bundles,
        render_postmortem,
    )

    target = Path(args.bundle)
    if target.is_dir():
        # Incident listing mode: summarize every bundle in the dir.
        rows = recent_bundles(target, limit=args.limit)
        if args.json:
            print(_json.dumps(rows, indent=2, sort_keys=True))
        elif not rows:
            print(f"no postmortem bundles in {target}")
        else:
            for r in rows:
                print(
                    f"{r['captured_at']}  {r['reason']:18s} "
                    f"query={r['query'] or '-':12s} "
                    f"exit={r['exit_code']}  {r['path']}"
                )
        return 0
    bundle = load_bundle(target)
    if args.json:
        print(
            _json.dumps(
                bundle_summary(bundle, target), indent=2, sort_keys=True
            )
        )
    else:
        print(render_postmortem(bundle, events_tail=args.events))
    return 0


def _cmd_replay(args) -> int:
    import json as _json

    from .obs.recorder import load_bundle, replay_bundle

    bundle = load_bundle(args.bundle)
    report = replay_bundle(bundle, bundle_path=args.bundle)
    if args.json:
        print(_json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return report.exit_code


def _add_log_flags(parser: argparse.ArgumentParser, *, trailing: bool = False) -> None:
    """Register the global event-log flags.

    ``trailing=True`` is the subcommand variant: SUPPRESS defaults keep
    a value given *before* the command name from being clobbered by the
    subparser's pass, so both positions work.
    """
    parser.add_argument(
        "--log-level",
        choices=("off", "debug", "info", "warning", "error"),
        dest="log_level",
        default=argparse.SUPPRESS if trailing else "off",
        help="structured event-log level (off = zero-overhead null log)",
    )
    parser.add_argument(
        "--log-json",
        dest="log_json",
        metavar="FILE",
        default=argparse.SUPPRESS if trailing else None,
        help="write events as NDJSON to FILE ('-' = stdout); implies "
        "--log-level info unless set explicitly",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mst",
        description="ECL-MST reproduction: regenerate paper artifacts, run "
        "MST codes, convert graphs.",
    )
    _add_log_flags(parser)
    sub = parser.add_subparsers(dest="command")

    p_exp = sub.add_parser("exp", help="regenerate a paper table/figure")
    p_exp.add_argument("key", help="experiment key, 'list', or 'all'")
    p_exp.add_argument("--scale", type=_scale, default=DEFAULT_SCALE)
    p_exp.add_argument("--seeds", type=int, default=99)
    p_exp.set_defaults(fn=_cmd_exp)

    p_run = sub.add_parser("run", help="run one code on one suite input")
    p_run.add_argument("code")
    p_run.add_argument("input")
    p_run.add_argument("--system", type=int, choices=(1, 2), default=2)
    p_run.add_argument("--scale", type=_scale, default=DEFAULT_SCALE)
    p_run.set_defaults(fn=_cmd_run)

    p_codes = sub.add_parser("codes", help="list available MST codes")
    p_codes.set_defaults(fn=_cmd_codes)

    p_inputs = sub.add_parser("inputs", help="show the input suite (Table 2)")
    p_inputs.add_argument("--scale", type=_scale, default=DEFAULT_SCALE)
    p_inputs.set_defaults(fn=_cmd_inputs)

    p_art = sub.add_parser(
        "artifact", help="run the artifact-style CSV workflow"
    )
    p_art.add_argument("directory")
    p_art.add_argument("--scale", type=_scale, default=0.25)
    p_art.set_defaults(fn=_cmd_artifact)

    p_rep = sub.add_parser(
        "report", help="run the evaluation and emit a markdown report"
    )
    p_rep.add_argument("--out", help="write the report to this file")
    p_rep.add_argument("--scale", type=_scale, default=DEFAULT_SCALE)
    p_rep.set_defaults(fn=_cmd_report)

    p_conv = sub.add_parser("convert", help="convert between graph formats")
    p_conv.add_argument("src")
    p_conv.add_argument("dst")
    p_conv.set_defaults(fn=_cmd_convert)

    p_mst = sub.add_parser(
        "mst", help="compute the MSF of a graph file or suite input"
    )
    p_mst.add_argument("graph", help="graph file path or suite input name")
    p_mst.add_argument("--out", help="write the MSF edge list here")
    p_mst.add_argument("--verify", action="store_true")
    p_mst.add_argument("--scale", type=_scale, default=DEFAULT_SCALE)
    p_mst.set_defaults(fn=_cmd_mst)

    p_chaos = sub.add_parser(
        "chaos",
        help="run a seeded fault-injection campaign against ECL-MST",
    )
    p_chaos.add_argument("input", help="suite input name or graph file path")
    p_chaos.add_argument(
        "--faults", type=int, default=100, help="faults to inject (min)"
    )
    p_chaos.add_argument("--seed", type=int, default=0)
    p_chaos.add_argument(
        "--kinds", help="comma-separated fault models (default: all)"
    )
    p_chaos.add_argument(
        "--faults-per-trial", type=int, default=1, dest="faults_per_trial"
    )
    p_chaos.add_argument(
        "--cadence",
        type=int,
        default=1,
        help="rounds between invariant sweeps (0 = off)",
    )
    p_chaos.add_argument("--scale", type=_scale, default=DEFAULT_SCALE)
    p_chaos.add_argument(
        "--serve",
        action="store_true",
        help="chaos-under-load drill: oversubscribed concurrent chaos "
        "queries against a policy-armed service (suite inputs only)",
    )
    p_chaos.add_argument(
        "--queries",
        type=int,
        default=16,
        help="concurrent queries in the --serve overload phase",
    )
    p_chaos.add_argument(
        "--slowdown",
        type=float,
        default=2.0,
        help="modeled-hardware slowdown factor for --serve",
    )
    p_chaos.add_argument(
        "-v", "--verbose", action="store_true", help="per-trial progress"
    )
    p_chaos.set_defaults(fn=_cmd_chaos)

    def _obs_common(p) -> None:
        p.add_argument(
            "input", help="suite input name or graph file path"
        )
        p.add_argument("--code", default="ECL-MST", help="MST code to run")
        p.add_argument(
            "--stage",
            help="run ECL-MST at a Table-5 de-optimization stage "
            "(e.g. 'No Atomic Guards')",
        )
        p.add_argument("--system", type=int, choices=(1, 2), default=2)
        p.add_argument("--scale", type=_scale, default=DEFAULT_SCALE)
        p.add_argument("--out", help="write the artifact to this file")

    p_trace = sub.add_parser(
        "trace", help="emit a span trace of one run (Perfetto/NDJSON)"
    )
    _obs_common(p_trace)
    p_trace.add_argument(
        "--format", choices=("chrome", "ndjson"), default="chrome"
    )
    p_trace.set_defaults(fn=_cmd_trace)

    p_prof = sub.add_parser(
        "profile",
        help="emit (or diff) a JSON run profile with per-kernel breakdown",
    )
    _obs_common(p_prof)
    p_prof.add_argument(
        "--baseline", help="diff against this previously saved profile"
    )
    p_prof.add_argument(
        "--format",
        choices=("json", "chrome", "ndjson", "text", "roofline"),
        default="json",
    )
    p_prof.add_argument(
        "--top",
        type=int,
        default=10,
        help="kernels shown in the roofline bound table",
    )
    p_prof.set_defaults(fn=_cmd_profile)

    p_dash = sub.add_parser(
        "dashboard",
        help="render a self-contained static HTML run dashboard",
    )
    p_dash.add_argument(
        "input",
        nargs="?",
        help="suite input name or graph file to run fresh "
        "(omit when using --profile)",
    )
    p_dash.add_argument(
        "--profile",
        help="render this saved run-profile JSON instead of running",
    )
    p_dash.add_argument("--code", default="ECL-MST", help="MST code to run")
    p_dash.add_argument("--system", type=int, choices=(1, 2), default=2)
    p_dash.add_argument("--scale", type=_scale, default=DEFAULT_SCALE)
    p_dash.add_argument("--title", help="page title override")
    p_dash.add_argument(
        "--postmortems",
        default="postmortems",
        help="postmortem bundle directory for the incidents panel",
    )
    p_dash.add_argument(
        "--out", "-o", help="output HTML path (default dashboard.html)"
    )
    p_dash.set_defaults(fn=_cmd_dashboard)

    p_pm = sub.add_parser(
        "postmortem",
        help="render a postmortem bundle as an incident report "
        "(or list a bundle directory)",
    )
    p_pm.add_argument(
        "bundle",
        help="a PM_*.bundle file, or a directory of them to list",
    )
    p_pm.add_argument(
        "--events",
        type=int,
        default=30,
        help="event-timeline tail length in the report",
    )
    p_pm.add_argument(
        "--limit",
        type=int,
        default=20,
        help="max bundles shown in directory-listing mode",
    )
    p_pm.add_argument(
        "--json", action="store_true", help="machine-readable summary"
    )
    p_pm.set_defaults(fn=_cmd_postmortem)

    p_replay = sub.add_parser(
        "replay",
        help="deterministically re-execute a bundle's captured query "
        "and diff against the recorded outcome",
    )
    p_replay.add_argument("bundle", help="a PM_*.bundle file")
    p_replay.add_argument(
        "--json", action="store_true", help="machine-readable report"
    )
    p_replay.set_defaults(fn=_cmd_replay)

    def _service_common(p) -> None:
        p.add_argument("--workers", type=int, default=4)
        p.add_argument(
            "--cache-size",
            type=int,
            default=256,
            dest="cache_size",
            help="result-cache capacity (0 disables)",
        )
        p.add_argument(
            "--graph-cache-size",
            type=int,
            default=32,
            dest="graph_cache_size",
            help="build-cache capacity for loaded graphs (0 disables)",
        )
        p.add_argument(
            "--queue-depth",
            type=int,
            default=64,
            dest="queue_depth",
            help="max in-flight queries (submits block when full)",
        )
        p.add_argument(
            "--timeout",
            type=float,
            default=None,
            help="default per-query timeout in seconds",
        )
        # Overload-safety policy knobs (all off by default; any nonzero/
        # true knob arms the serving policy).
        p.add_argument(
            "--admission-rate",
            type=float,
            default=0.0,
            dest="admission_rate",
            help="admission token-bucket refill (queries/s; 0 = off)",
        )
        p.add_argument(
            "--admission-burst",
            type=int,
            default=8,
            dest="admission_burst",
            help="admission token-bucket capacity",
        )
        p.add_argument(
            "--max-retries",
            type=int,
            default=0,
            dest="max_retries",
            help="per-query retry budget for transient failures (0 = off)",
        )
        p.add_argument(
            "--breaker-threshold",
            type=int,
            default=0,
            dest="breaker_threshold",
            help="consecutive failures opening a graph's circuit "
            "breaker (0 = off)",
        )
        p.add_argument(
            "--breaker-cooldown",
            type=float,
            default=1.0,
            dest="breaker_cooldown",
            help="seconds an open breaker cools before probing",
        )
        p.add_argument(
            "--serve-stale",
            action="store_true",
            dest="serve_stale",
            help="answer shed/broken queries from stale cache entries "
            "(degraded outcomes)",
        )
        p.add_argument(
            "--fresh-ttl",
            type=float,
            default=0.0,
            dest="fresh_ttl",
            help="cache-entry freshness window in seconds (0 = never "
            "expires); older entries only serve degraded",
        )
        p.add_argument(
            "--degrade-serial",
            action="store_true",
            dest="degrade_serial",
            help="fall back to serial Kruskal (reduced priority) when "
            "retries are exhausted or the breaker is open",
        )
        p.add_argument(
            "--quarantine-after",
            type=int,
            default=0,
            dest="quarantine_after",
            help="consecutive failed executions before a query spec is "
            "quarantined (0 = off)",
        )
        p.add_argument(
            "--policy-seed",
            type=int,
            default=0,
            dest="policy_seed",
            help="seed for backoff jitter and breaker cooldown jitter",
        )
        p.add_argument(
            "--slowdown",
            type=float,
            default=1.0,
            help="slow the modeled hardware by this exact factor "
            "(chaos-under-load testing)",
        )
        p.add_argument(
            "--no-recorder",
            action="store_true",
            dest="no_recorder",
            help="disable the always-on flight recorder (no rings, no "
            "postmortem bundles)",
        )
        p.add_argument(
            "--postmortem-dir",
            default="postmortems",
            dest="postmortem_dir",
            help="directory the flight recorder writes PM_*.bundle "
            "files into",
        )
        p.add_argument("--out", help="write result NDJSON to this file")

    p_serve = sub.add_parser(
        "serve",
        help="serve a batch of MST queries (NDJSON in, NDJSON out)",
    )
    p_serve.add_argument(
        "--batch",
        required=True,
        help="NDJSON query file ('-' reads stdin)",
    )
    p_serve.add_argument(
        "--admin-port",
        type=int,
        default=None,
        dest="admin_port",
        metavar="PORT",
        help="expose /healthz /statusz /metrics /profilez /debugz on "
        "this port (0 = OS-assigned)",
    )
    p_serve.add_argument(
        "--linger",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="keep the process (and admin endpoints) alive this long "
        "after the batch completes",
    )
    _service_common(p_serve)
    p_serve.set_defaults(fn=_cmd_serve)

    p_sweep = sub.add_parser(
        "sweep",
        help="run the generator suite through the query service",
    )
    p_sweep.add_argument(
        "suite",
        help="'all', 'mst', or comma-separated suite input names",
    )
    # Sweep defaults to a small scale: a full-suite pass should stay
    # in smoke territory.
    p_sweep.add_argument("--scale", type=_scale, default=0.06)
    p_sweep.add_argument("--code", default="ECL-MST")
    p_sweep.add_argument("--system", type=int, choices=(1, 2), default=2)
    p_sweep.add_argument(
        "--repeat",
        type=int,
        default=2,
        help="passes over the suite (>1 measures warm throughput)",
    )
    _service_common(p_sweep)
    p_sweep.set_defaults(fn=_cmd_sweep)

    # The event-log flags also parse *after* the subcommand name
    # (`repro-mst serve ... --log-json events.ndjson`), not just before.
    for sp in sub.choices.values():
        _add_log_flags(sp, trailing=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Back-compat: bare `profile` (no input) is the §5.1 experiment key,
    # predating the `profile <input>` subcommand.
    if argv == ["profile"]:
        argv = ["exp", "profile"]
    # Back-compat: a bare experiment key maps onto the `exp` subcommand.
    known = {
        "exp",
        "run",
        "codes",
        "inputs",
        "artifact",
        "convert",
        "mst",
        "report",
        "trace",
        "profile",
        "chaos",
        "serve",
        "sweep",
        "dashboard",
        "postmortem",
        "replay",
    }
    if argv and argv[0] not in known and not argv[0].startswith("-"):
        argv = ["exp", *argv]
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "fn", None):
        parser.print_help()
        return 2
    level = getattr(args, "log_level", "off")
    json_path = getattr(args, "log_json", None)
    if json_path and level == "off":
        level = "info"  # asking for a log file means asking for events
    if level != "off":
        from .obs.events import configure_events

        configure_events(level=level, json_path=json_path)
    from .errors import (
        EXIT_INPUT_ERROR,
        EXIT_OVERLOADED,
        EXIT_UNRECOVERED_FAULT,
        EXIT_VERIFY_FAILED,
        DeviceFault,
        GraphFormatError,
        InvariantViolation,
        Overloaded,
        VerificationError,
    )

    try:
        return args.fn(args)
    except (GraphFormatError, _InputError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except (DeviceFault, InvariantViolation) as exc:
        print(f"unrecovered fault: {exc}", file=sys.stderr)
        return EXIT_UNRECOVERED_FAULT
    except Overloaded as exc:
        print(f"overloaded: {exc}", file=sys.stderr)
        return EXIT_OVERLOADED
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
