"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``compile``      compile and print the compilation report
``run``          compile and execute on the simulated machine with
                 seeded random inputs; result digests + cost summary
``trace``        the same run under the structured tracer (span tree)
``profile``      the same run under the communication profiler
``metrics``      the same run with the metrics registry live
``plan``         compile and print the plan IR (text or JSON)
``serve``        start the compile-and-run HTTP service
``experiments``  regenerate the paper's evaluation exhibits

Every compiling command takes a registry kernel name (``purdue9``,
``jacobi``, ...) or a path to an HPF source file; ``<command> --help``
lists its flags.  This module only turns argv into a
:mod:`repro.job` description and formats what comes back: compiling
and running is the job's, shared with :func:`repro.kernels.run_kernel`
and the service.

Examples
--------
::

   python -m repro compile kernel.f90 --bind N=512 --level O4 \\
          --output T --trace --plan
   python -m repro run kernel.f90 --bind N=256 --grid 2x2 --iters 10
   python -m repro profile nine_point --grid 4x4 --level O4 \\
          --chrome out.json
   python -m repro plan purdue9 --json -o purdue9.plan.json
   python -m repro experiments fig17
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from contextlib import nullcontext

from repro.analysis.report import describe_plan, describe_result
from repro.errors import ReproError
from repro.job import CompileJob, MachineSpec, RunJob, plan_document, \
    report_doc


# -- text -> value ----------------------------------------------------------

def _parse_bindings(pairs: list[str]) -> dict[str, int]:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--bind expects NAME=VALUE, got {pair!r}")
        name, value = pair.split("=", 1)
        try:
            out[name.strip()] = int(value)
        except ValueError:
            raise SystemExit(
                f"--bind expects an integer value, got {pair!r}") from None
    return out


def _workers_arg(text: str) -> int:
    """``--workers`` parser: fail at the CLI boundary, not in the
    backend's stripe cut."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer worker count, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"worker count must be >= 1, got {value}")
    return value


def _parse_grid(text: str) -> tuple[int, ...]:
    try:
        grid = tuple(int(p) for p in text.lower().split("x"))
    except ValueError:
        raise SystemExit(
            f"--grid expects NxM (e.g. 2x2), got {text!r}") from None
    if not grid or any(g < 1 for g in grid):
        raise SystemExit(
            f"--grid extents must be positive, got {text!r}")
    return grid


def _job(args: argparse.Namespace, profile: bool = False):
    """The job the parsed flags describe: a :class:`RunJob` for the
    executing commands, just its :class:`CompileJob` for ``compile``
    and ``plan`` (which have no machine/run flags)."""
    compile_job = CompileJob.from_argument(
        args.kernel, bindings=_parse_bindings(args.bind),
        outputs=args.output,
        level=args.level)
    if not hasattr(args, "grid"):
        return compile_job
    return RunJob(
        compile=compile_job,
        machine=MachineSpec(grid=_parse_grid(args.grid),
                            preset=args.machine,
                            memory_mb=getattr(args, "memory_mb", None)),
        backend=args.backend, iterations=args.iters, seed=args.seed,
        workers=args.workers, profile=profile)


def _plan_cache(args: argparse.Namespace):
    """The ``--cache-dir`` plan cache, or none: a command compiles one
    job per process, so an in-memory cache could never hit."""
    from repro.compiler import PersistentPlanCache
    return PersistentPlanCache(args.cache_dir) if args.cache_dir else None


# -- the one run behind run/trace/profile/metrics ---------------------------

def _execute(args: argparse.Namespace, registry=None, tracer=None,
             profile: bool = False):
    """Compile and run the job ``args`` describes; write the
    ``--metrics`` file and the ``--ledger`` record where the command
    has those flags (either makes the run's registry live; without
    them it stays the null default, zero overhead).  ``tracer`` follows
    the compilation and the run.  Returns the execution result."""
    from repro.obs import MetricsRegistry, use_registry

    job = _job(args, profile=profile)
    metrics_path = getattr(args, "metrics", None)
    ledger_path = getattr(args, "ledger", None)
    if registry is None and (metrics_path or ledger_path):
        registry = MetricsRegistry()
    with use_registry(registry) if registry is not None \
            else nullcontext():
        compiled = job.compile.compile(cache=_plan_cache(args),
                                       tracer=tracer)
        machine = job.machine.build()
        result = job.execute(compiled, machine, tracer=tracer)
    if metrics_path:
        # .prom/.txt: Prometheus text exposition; else versioned JSON
        from repro.obs import write_metrics, write_prometheus
        write = write_prometheus \
            if metrics_path.endswith((".prom", ".txt")) else write_metrics
        write(registry, metrics_path)
        print(f"wrote metrics to {metrics_path}", file=sys.stderr)
    if ledger_path:
        from repro.obs import RunLedger
        job.ledger_append(RunLedger(ledger_path), machine,
                          plan_document(compiled)[1], registry.to_dict())
        print(f"appended run to ledger {ledger_path}", file=sys.stderr)
    return result


# -- commands ---------------------------------------------------------------

def cmd_compile(args: argparse.Namespace) -> int:
    compiled = _job(args).compile(cache=_plan_cache(args),
                                  keep_trace=args.trace)
    if args.json:
        print(json.dumps(report_doc(compiled), indent=2))
        return 0
    r = compiled.report
    print(f"level {r.level}: {r.overlap_shifts} overlap shifts, "
          f"{r.full_shifts} full shifts, {r.loop_nests} loop nests "
          f"({r.fused_statements} statements fused), "
          f"{r.temporaries} temporaries, "
          f"{r.copies_inserted} compensating copies")
    if args.trace and compiled.trace is not None:
        print()
        print(compiled.trace)
    if args.plan:
        print()
        print(describe_plan(compiled.plan))
    if args.fortran:
        print()
        print(compiled.emit_fortran())
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    result = _execute(args)
    checksums = {name: float(abs(arr).sum())
                 for name, arr in sorted(result.arrays.items())}
    if args.json:
        scalars = {name: float(value).hex()
                   for name, value in sorted(result.scalars.items())}
        print(json.dumps({**result.summary(), "checksums": checksums,
                          "scalars": scalars}, indent=2))
        return 0
    for name, arr in sorted(result.arrays.items()):
        print(f"{name}: shape={arr.shape} mean={arr.mean():.6g} "
              f"checksum={checksums[name]:.6g}")
    print()
    print(describe_result(result))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import Tracer

    tracer = Tracer()
    result = _execute(args, tracer=tracer)
    if args.out:
        tracer.write_jsonl(args.out)
        print(f"wrote {sum(1 for _ in tracer.spans())} spans to "
              f"{args.out}", file=sys.stderr)
    if args.json:
        sys.stdout.write(tracer.to_jsonl())
    else:
        print(tracer.summary())
        print()
        print(describe_result(result))
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.analysis.report import describe_profile
    from repro.obs import Tracer, write_chrome_trace, write_profile

    # the Chrome trace's wall-time track: compile spans and op spans
    tracer = Tracer() if args.chrome else None
    profile = _execute(args, tracer=tracer, profile=True).profile
    if args.out:
        write_profile(profile, args.out)
        print(f"wrote profile to {args.out}", file=sys.stderr)
    if args.chrome:
        write_chrome_trace(profile, args.chrome, tracer=tracer)
        print(f"wrote Chrome trace to {args.chrome}", file=sys.stderr)
    if args.json:
        from repro.obs import profile_to_json
        sys.stdout.write(profile_to_json(profile))
    else:
        print(describe_profile(profile))
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    from repro.analysis.report import describe_metrics
    from repro.obs import MetricsRegistry, metrics_to_json, \
        prometheus_text

    registry = MetricsRegistry()
    _execute(args, registry=registry)
    if args.json:
        sys.stdout.write(metrics_to_json(registry))
    elif args.prom:
        sys.stdout.write(prometheus_text(registry))
    elif not args.metrics:
        print(describe_metrics(registry))
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    compiled = _job(args).compile(cache=_plan_cache(args))
    if args.json:
        text = plan_document(compiled)[0]
    else:
        from repro.plan import plan_to_text
        text = plan_to_text(compiled.plan)
        if not text.endswith("\n"):
            text += "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
        print(f"wrote plan to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import serve
    return serve(host=args.host, port=args.port,
                 cache_dir=args.cache_dir, ledger_path=args.ledger,
                 pool_workers=args.pool_workers,
                 max_pending=args.max_pending)


#: one module of :mod:`repro.experiments` per exhibit, in ``all`` order
EXPERIMENTS = ("fig11", "fig17", "fig18", "messages", "storage",
               "ablations", "scaling", "sensitivity", "robustness")


def cmd_experiments(args: argparse.Namespace) -> int:
    from importlib import import_module
    for name in EXPERIMENTS if args.name == "all" else [args.name]:
        print(f"##### {name} #####")
        import_module(f"repro.experiments.{name}").main()
        print()
    return 0


# -- argparse ---------------------------------------------------------------

def _source_flags() -> argparse.ArgumentParser:
    """Parent parser: what to compile and how (every compiling
    command)."""
    p = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    p.add_argument("kernel",
                   help="kernel name (e.g. purdue9, five_point, "
                        "box27_3d) or an HPF source file")
    p.add_argument("--bind", action="append", default=[],
                   metavar="NAME=VALUE",
                   help="bind a size parameter (repeatable; named "
                        "kernels default to N=64)")
    p.add_argument("--level", default=None,
                   help="optimization level: O0..O4 are the paper's "
                        "ladder; default: the rung above, the full pipeline")
    p.add_argument("--output", action="append", default=[],
                   help="array live out of the routine (repeatable)")
    p.add_argument("--cache-dir", default=None, metavar="PATH",
                   help="memoize compiled plans on disk under PATH "
                        "(survives across processes)")
    return p


def _run_flags() -> argparse.ArgumentParser:
    """Parent parser: the machine and the run (every executing
    command)."""
    from repro.runtime import backends

    p = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    p.add_argument("--backend", default=backends.DEFAULT,
                   choices=backends.available_backends(),
                   help="execution backend: per-PE interpretation "
                        "(default), whole-array vectorized slabs, "
                        "or the same slabs with each loop nest cut into "
                        "row stripes on worker threads (parallel); "
                        "all three give identical results and cost "
                        "reports")
    p.add_argument("--workers", type=_workers_arg, default=None,
                   help="worker threads of --backend parallel: the row "
                        "stripes a loop nest may be cut into (default: "
                        "cpu count; capped by the row count)")
    p.add_argument("--grid", default="2x2",
                   help="processor grid, e.g. 2x2 (default)")
    p.add_argument("--iters", type=int, default=1,
                   help="repeat the program this many times")
    p.add_argument("--seed", type=int, default=0,
                   help="random seed for input arrays")
    p.add_argument("--machine", default="sp2",
                   help="cost-model preset: sp2 (default), ethernet, "
                        "t3e, modern-node, modern-cluster")
    return p


_METRICS_FLAG = dict(
    default=None, metavar="FILE",
    help="run with the metrics registry live and write it to FILE "
         "(.prom/.txt: Prometheus text exposition; otherwise versioned "
         "JSON)")
_LEDGER_FLAG = dict(
    default=None, metavar="PATH",
    help="append this run (machine fingerprint, plan key, backend, "
         "factors, metrics) to the JSONL run ledger at PATH")


def build_parser() -> argparse.ArgumentParser:
    # no parser takes a flag's prefix for the flag: `--cache` must not
    # mean `--cache-dir`, nor `--iter` `--iters`
    parser = argparse.ArgumentParser(
        prog="python -m repro", allow_abbrev=False,
        description="HPF stencil compiler reproduction (Roth et al., "
                    "SC'97)")
    sub = parser.add_subparsers(
        dest="command", required=True,
        parser_class=functools.partial(argparse.ArgumentParser,
                                       allow_abbrev=False))
    source, run = _source_flags(), _run_flags()

    p = sub.add_parser("compile", parents=[source],
                       help="compile and report")
    p.add_argument("--json", action="store_true",
                   help="emit a machine-readable JSON report instead of "
                        "prose")
    p.add_argument("--trace", action="store_true",
                   help="print the IR after every pass (Figures 12-15)")
    p.add_argument("--plan", action="store_true",
                   help="print the generated SPMD program (Figure 16)")
    p.add_argument("--fortran", action="store_true",
                   help="emit the Fortran77+MPI node program")
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("run", parents=[source, run],
                       help="compile and execute")
    p.add_argument("--json", action="store_true",
                   help="emit a machine-readable JSON report instead of "
                        "prose")
    p.add_argument("--memory-mb", type=int, default=None,
                   help="per-PE memory capacity in MB")
    p.add_argument("--metrics", **_METRICS_FLAG)
    p.add_argument("--ledger", **_LEDGER_FLAG)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser(
        "trace", parents=[source, run],
        help="compile+run a kernel with structured tracing enabled")
    p.add_argument("-o", "--out", default=None, metavar="FILE",
                   help="write the trace as JSONL to FILE")
    p.add_argument("--json", action="store_true",
                   help="print the JSONL trace to stdout instead of "
                        "the tree summary")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser(
        "profile", parents=[source, run],
        help="compile+run a kernel with the communication profiler")
    p.add_argument("-o", "--out", default=None, metavar="FILE",
                   help="write the versioned profile.json to FILE")
    p.add_argument("--chrome", default=None, metavar="FILE",
                   help="write a Chrome/Perfetto trace (one track per "
                        "PE plus a wall-time track of the compile and "
                        "op spans) to FILE")
    p.add_argument("--json", action="store_true",
                   help="print profile.json to stdout instead of the "
                        "text report")
    p.add_argument("--metrics", **_METRICS_FLAG)
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser(
        "metrics", parents=[source, run],
        help="compile+run a kernel with the metrics registry live")
    p.add_argument("--json", action="store_true",
                   help="print the versioned metrics JSON document")
    p.add_argument("--prom", action="store_true",
                   help="print the Prometheus text exposition")
    p.add_argument("-o", "--out", dest="metrics", default=None,
                   metavar="FILE",
                   help="write metrics to FILE (.prom/.txt: Prometheus "
                        "text; otherwise JSON)")
    p.add_argument("--ledger", **_LEDGER_FLAG)
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser(
        "plan", parents=[source],
        help="compile a kernel and print its plan IR (text or JSON)")
    p.add_argument("--json", action="store_true",
                   help="print the versioned JSON plan document "
                        "(repro.plan.serialize schema) instead of the "
                        "textual SPMD program")
    p.add_argument("-o", "--out", default=None, metavar="FILE",
                   help="write the plan to FILE instead of stdout")
    p.set_defaults(fn=cmd_plan)

    p = sub.add_parser(
        "serve",
        help="start the compile-and-run HTTP service")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8080,
                   help="bind port; 0 picks an ephemeral port "
                        "(default 8080)")
    p.add_argument("--cache-dir", default=None, metavar="PATH",
                   help="persist compiled plans under PATH/plans")
    p.add_argument("--ledger", default=None, metavar="PATH",
                   help="append every job to the JSONL run ledger at "
                        "PATH")
    p.add_argument("--pool-workers", type=_workers_arg, default=None,
                   metavar="N",
                   help="worker threads executing jobs (default: cpu "
                        "count capped at 4)")
    p.add_argument("--max-pending", type=int, default=None,
                   metavar="N",
                   help="jobs admitted before shedding load with 429 "
                        "(default: 4x pool workers)")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("experiments",
                       help="regenerate the paper's exhibits")
    p.add_argument("name", choices=[*EXPERIMENTS, "all"])
    p.set_defaults(fn=cmd_experiments)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
