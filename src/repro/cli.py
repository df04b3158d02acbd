"""Command-line interface: run the solver pipeline from a shell.

Examples
--------
::

    python -m repro solve --dataset normal --n 8192 --bandwidth 4 --lam 1
    python -m repro solve --dataset susy --method hybrid --level 3
    python -m repro solve --dataset normal --trace --trace-out run.json
    python -m repro trace --dataset normal --n 2048
    python -m repro classify --dataset covtype --n 4096
    python -m repro info

Installed as the ``repro`` console script as well.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro import FastKernelSolver, GaussianKernel
from repro.config import (
    GMRESConfig,
    ResilienceConfig,
    SkeletonConfig,
    SolverConfig,
    TreeConfig,
)
from repro.datasets import DATASET_NAMES, load_dataset, paper_parameters
from repro.exceptions import (
    CheckpointError,
    ConfigurationError,
    DeadlineExceededError,
    OverloadedError,
    ReproError,
    StabilityError,
)

__all__ = [
    "main",
    "build_parser",
    "EXIT_OK",
    "EXIT_ERROR",
    "EXIT_USAGE",
    "EXIT_NUMERICAL",
    "EXIT_DEADLINE",
    "EXIT_CHECKPOINT",
    "EXIT_OVERLOADED",
]

# Distinct exit codes so shell callers (and the CI smoke jobs) can tell
# apart "you asked wrong", "the numerics gave up", "the clock ran out",
# and "the checkpoint is unusable" without parsing stderr.
EXIT_OK = 0
EXIT_ERROR = 1       # internal / unclassified ReproError
EXIT_USAGE = 2       # bad arguments or configuration
EXIT_NUMERICAL = 3   # StabilityError: factorization/solve not salvageable
EXIT_DEADLINE = 4    # DeadlineExceededError with degradation disabled
EXIT_CHECKPOINT = 5  # CheckpointError: missing/corrupt/mismatched snapshot
EXIT_OVERLOADED = 6  # OverloadedError: the serving layer shed the request


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "An N log N parallel fast direct solver for kernel matrices "
            "(reproduction of Yu, March & Biros, IPDPS 2017)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--dataset", default="normal", choices=DATASET_NAMES)
    common.add_argument("--n", type=int, default=4096, help="training points")
    common.add_argument("--bandwidth", type=float, default=None,
                        help="Gaussian bandwidth h (default: dataset's)")
    common.add_argument("--leaf", type=int, default=128, help="leaf size m")
    common.add_argument("--tau", type=float, default=1e-5,
                        help="adaptive-rank tolerance")
    common.add_argument("--smax", type=int, default=128, help="max skeleton size")
    common.add_argument("--neighbors", type=int, default=16,
                        help="kappa sampling neighbors")
    common.add_argument("--seed", type=int, default=0)

    p_solve = sub.add_parser(
        "solve", parents=[common],
        help="factorize lambda*I + K~ and solve against a random RHS",
    )
    p_solve.add_argument("--lam", type=float, default=None,
                         help="regularization (default: dataset's)")
    p_solve.add_argument("--method", default="nlogn",
                         choices=["nlogn", "nlog2n", "direct", "hybrid"])
    p_solve.add_argument("--level", type=int, default=0,
                         help="level restriction L (0 = none)")
    p_solve.add_argument("--trace", action="store_true",
                         help="render the observability span trace after "
                              "solving (docs/OBSERVABILITY.md)")
    p_solve.add_argument("--trace-out", metavar="PATH", default=None,
                         help="write the telemetry JSON blob "
                              "(repro.telemetry/v1) to PATH")
    p_solve.add_argument("--deadline", type=float, default=None, metavar="SEC",
                         help="wall-clock budget for the whole pipeline; "
                              "under pressure the solver degrades instead "
                              "of hanging (docs/ROBUSTNESS.md)")
    p_solve.add_argument("--work-budget", type=int, default=None,
                         metavar="UNITS",
                         help="deterministic work-unit budget (testing aid; "
                              "one unit per skeletonized/factorized node)")
    p_solve.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                         help="snapshot after skeletonization and each "
                              "factorization level; resume with the same DIR")
    p_solve.add_argument("--no-degrade", action="store_true",
                         help="raise on deadline expiry instead of stepping "
                              "down the degradation ladder (exit code 4)")
    p_solve.add_argument("--backend", default=None,
                         choices=["thread", "socket"],
                         help="vMPI execution backend for the parallel paths "
                              "(default: REPRO_VMPI_BACKEND or 'thread'; "
                              "docs/PARALLELISM.md)")
    p_solve.add_argument("--ranks", type=int, default=0, metavar="P",
                         help="run the distributed factorize/solve "
                              "(Algorithms II.4/II.5) over P virtual ranks "
                              "(power of two; 0 = serial pipeline)")
    p_solve.add_argument("--elastic", action="store_true",
                         help="on permanent rank loss, repartition the "
                              "subtrees onto the survivors and resume from "
                              "per-level checkpoints instead of failing "
                              "(docs/PARALLELISM.md)")

    p_trace = sub.add_parser(
        "trace", parents=[common],
        help="run the solve pipeline and render its span trace + metrics",
    )
    p_trace.add_argument("--lam", type=float, default=None,
                         help="regularization (default: dataset's)")
    p_trace.add_argument("--method", default="nlogn",
                         choices=["nlogn", "nlog2n", "direct", "hybrid"])
    p_trace.add_argument("--level", type=int, default=0,
                         help="level restriction L (0 = none)")
    p_trace.add_argument("--trace-out", metavar="PATH", default=None,
                         help="also write the telemetry JSON blob to PATH")

    p_cls = sub.add_parser(
        "classify", parents=[common],
        help="kernel ridge binary classification with (h, lambda) CV",
    )
    p_cls.add_argument("--lam", type=float, default=None)

    p_ckpt = sub.add_parser(
        "checkpoint",
        help="inspect or verify an on-disk solver checkpoint directory",
    )
    ckpt_sub = p_ckpt.add_subparsers(dest="ckpt_command", required=True)
    p_inspect = ckpt_sub.add_parser(
        "inspect", help="print the manifest: schema, fingerprint, payloads",
    )
    p_inspect.add_argument("dir", help="checkpoint directory")
    p_inspect.add_argument("--json", action="store_true",
                           help="emit the description as JSON")
    p_verify = ckpt_sub.add_parser(
        "verify",
        help="recompute payload checksums; exit 5 if any payload is corrupt",
    )
    p_verify.add_argument("dir", help="checkpoint directory")

    p_serve = sub.add_parser(
        "serve",
        help="long-lived solver daemon: resident factorization registry "
             "with request coalescing (docs/SERVING.md)",
    )
    p_serve.add_argument("--warm", action="append", default=[], metavar="DIR",
                         help="checkpoint directory to warm-load at startup "
                              "(repeatable)")
    p_serve.add_argument("--lam", type=float, default=None,
                         help="regularization used to factorize warm-loaded "
                              "checkpoints that hold no factorized state")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=0,
                         help="TCP port (0 = ephemeral; the bound port is "
                              "printed on startup)")
    p_serve.add_argument("--window-ms", type=float, default=5.0,
                         help="coalescing window in milliseconds")
    p_serve.add_argument("--max-batch", type=int, default=32,
                         help="max RHS columns stacked into one batched solve")
    p_serve.add_argument("--max-pending", type=int, default=1024,
                         help="admission bound on in-flight requests; beyond "
                              "it requests are shed (status code 6)")
    p_serve.add_argument("--deadline", type=float, default=None, metavar="SEC",
                         help="default per-request wall-clock deadline")
    p_serve.add_argument("--work-budget", type=int, default=None,
                         metavar="UNITS",
                         help="default per-request work-unit budget")
    p_serve.add_argument("--budget-mwords", type=float, default=None,
                         help="registry word budget in millions of float64 "
                              "words; LRU residents are evicted to fit")
    p_serve.add_argument("--health-out", metavar="PATH", default=None,
                         help="write the final repro.serve/v1 health blob "
                              "here at shutdown (CI artifact)")

    p_update = sub.add_parser(
        "update",
        help="incrementally update a model: point insertion/deletion, "
             "lambda refit, kernel-parameter sweep (docs/UPDATES.md)",
    )
    p_update.add_argument("--host", default=None,
                          help="serve daemon host; with --port, the update "
                               "targets a resident model over the wire")
    p_update.add_argument("--port", type=int, default=None,
                          help="serve daemon port")
    p_update.add_argument("--checkpoint", metavar="DIR", default=None,
                          help="offline mode: resume the solver from this "
                               "checkpoint directory, update it, and "
                               "re-checkpoint under its new fingerprint")
    p_update.add_argument("--model", default=None,
                          help="resident model fingerprint or unique prefix "
                               "(daemon mode; default: the sole resident)")
    p_update.add_argument("--insert", metavar="FILE.npy", default=None,
                          help=".npy file of (k, d) points to insert")
    p_update.add_argument("--delete", metavar="I,J,K", default=None,
                          help="comma-separated point indices to delete "
                               "(in the original fit order)")
    p_update.add_argument("--lam", type=float, default=None,
                          help="refactorize at this regularization")
    p_update.add_argument("--bandwidth", type=float, default=None,
                          help="kernel bandwidth sweep: refit projections "
                               "under the new bandwidth, structure frozen")
    p_update.add_argument("--kernel-param", action="append", default=[],
                          metavar="NAME=VALUE",
                          help="generic kernel parameter override "
                               "(repeatable; e.g. --kernel-param nu=2.5)")
    p_update.add_argument("--json", action="store_true",
                          help="emit the update report as JSON")

    sub.add_parser("info", help="list datasets and their Table II parameters")
    return parser


def _skeleton_config(args) -> SkeletonConfig:
    return SkeletonConfig(
        tau=args.tau,
        max_rank=args.smax,
        num_samples=max(2 * args.smax, 128),
        num_neighbors=args.neighbors,
        seed=args.seed,
        level_restriction=getattr(args, "level", 0),
    )


def _cmd_solve(args) -> int:
    ds = load_dataset(args.dataset, args.n, seed=args.seed)
    h = args.bandwidth if args.bandwidth is not None else max(ds.h, 0.5)
    lam = args.lam if args.lam is not None else max(ds.lam, 1e-3)
    print(f"dataset={ds.name} N={ds.n} d={ds.d}  h={h}  lambda={lam}  "
          f"method={args.method}")
    resilience = ResilienceConfig(
        deadline_seconds=getattr(args, "deadline", None),
        work_budget=getattr(args, "work_budget", None),
        checkpoint_dir=getattr(args, "checkpoint_dir", None),
        degrade=not getattr(args, "no_degrade", False),
    )
    solver = FastKernelSolver(
        GaussianKernel(bandwidth=h),
        tree_config=TreeConfig(leaf_size=args.leaf, seed=args.seed),
        skeleton_config=_skeleton_config(args),
        solver_config=SolverConfig(
            method=args.method,
            gmres=GMRESConfig(tol=1e-9, max_iters=400),
            resilience=resilience,
            backend=getattr(args, "backend", None),
        ),
    )
    t0 = time.perf_counter()
    solver.fit(ds.X_train)
    t_fit = time.perf_counter() - t0
    ranks = getattr(args, "ranks", 0)
    if ranks > 1:
        return _solve_distributed(args, solver, ds, lam, t_fit, ranks)
    t0 = time.perf_counter()
    solver.factorize(lam)
    t_factor = time.perf_counter() - t0
    u = np.random.default_rng(args.seed).standard_normal(ds.n)
    t0 = time.perf_counter()
    w, info = solver.solve_with_info(u)
    t_solve = time.perf_counter() - t0
    d = solver.diagnostics()
    print(f"build {t_fit:.2f}s   factorize {t_factor:.2f}s   solve {t_solve:.3f}s")
    print(f"residual {info.residual:.2e}   stable={info.stable}"
          + (f"   gmres_iters={info.gmres_iterations}"
             if info.gmres_iterations else ""))
    print(f"depth {d['depth']}  mean rank {d['mean_rank']:.1f}  "
          f"reduced dim {d['reduced_size']}  "
          f"factor storage {d['factor_storage_words'] / 1e6:.1f} Mwords")
    if solver.health is not None and solver.health.degraded:
        hs = solver.health.summary()
        stages = ",".join(sorted(hs.get("stages", {})))
        print(f"degraded: final_path={hs.get('final_path')}  stages=[{stages}]")
    if resilience.checkpoint_dir:
        print(f"checkpoint directory: {resilience.checkpoint_dir}")
    if getattr(args, "trace", False):
        from repro.obs import render_trace

        print()
        print(render_trace())
    trace_out = getattr(args, "trace_out", None)
    if trace_out:
        with open(trace_out, "w") as f:
            json.dump(solver.telemetry(), f, indent=2)
        print(f"telemetry blob written to {trace_out}")
    return 0


def _solve_distributed(args, solver, ds, lam, t_fit, ranks) -> int:
    """``repro solve --ranks P``: the distributed pipeline (Alg. II.4/II.5)."""
    from repro.parallel import distributed_factorize, distributed_solve

    t0 = time.perf_counter()
    dist = distributed_factorize(
        solver.hmatrix, lam, ranks, solver.solver_config,
        backend=getattr(args, "backend", None),
        elastic=getattr(args, "elastic", False),
    )
    t_factor = time.perf_counter() - t0
    u = np.random.default_rng(args.seed).standard_normal(ds.n)
    u_tree = u[solver.hmatrix.tree.perm]
    t0 = time.perf_counter()
    w, stats = distributed_solve(dist, u_tree)
    t_solve = time.perf_counter() - t0
    dist.close()  # the one solve is done: end the ranks that held the factors
    r = lam * w + solver.hmatrix.matvec(w) - u_tree
    residual = float(np.linalg.norm(r) / np.linalg.norm(u_tree))
    print(f"build {t_fit:.2f}s   dist-factorize[{dist.backend},p={dist.n_ranks}] "
          f"{t_factor:.2f}s   dist-solve {t_solve:.3f}s")
    print(f"residual {residual:.2e}   "
          f"factor msgs {dist.factor_stats.messages} "
          f"({dist.factor_stats.bytes / 1e3:.1f} kB)   "
          f"solve msgs {stats.messages} ({stats.bytes / 1e3:.1f} kB)")
    if dist.factor_stats.rank_recoveries:
        print(f"rank recoveries: {len(dist.factor_stats.rank_recoveries)}")
    if dist.n_ranks != ranks:
        print(f"elastic repartition: started with p={ranks}, finished "
              f"with p={dist.n_ranks} after permanent rank loss")
    return 0


def _cmd_trace(args) -> int:
    """``repro trace``: a solve run with the span trace as the output."""
    from repro.obs import reset_telemetry

    reset_telemetry()  # the trace should cover exactly this run
    args.trace = True
    return _cmd_solve(args)


def _cmd_classify(args) -> int:
    from repro.learning import KernelRidgeClassifier, holdout_cross_validation

    ds = load_dataset(args.dataset, args.n, seed=args.seed)
    if ds.y_train is None:
        print(f"dataset {ds.name!r} has no labels; pick one of "
              "covtype/susy/higgs/mnist2m", file=sys.stderr)
        return 2
    tree = TreeConfig(leaf_size=args.leaf, seed=args.seed)
    skel = _skeleton_config(args)
    bandwidths = [args.bandwidth] if args.bandwidth else [0.5, 1.0, 2.0]
    lambdas = [args.lam] if args.lam else [0.01, 0.3, 3.0]
    cv = holdout_cross_validation(
        ds.X_train, ds.y_train, bandwidths, lambdas,
        seed=args.seed, tree_config=tree, skeleton_config=skel,
    )
    print(f"cross-validated: h={cv.best_h} lambda={cv.best_lam} "
          f"(holdout acc {cv.best_accuracy:.3f})")
    clf = KernelRidgeClassifier(
        GaussianKernel(bandwidth=cv.best_h), lam=cv.best_lam,
        tree_config=tree, skeleton_config=skel,
    ).fit(ds.X_train, ds.y_train)
    acc = clf.score(ds.X_test, ds.y_test)
    print(f"test accuracy: {100 * acc:.1f}%  (paper on real "
          f"{ds.name.upper()}: {ds.paper_acc})")
    return 0


def _cmd_checkpoint(args) -> int:
    import os

    from repro.resilience import Checkpoint

    if not os.path.exists(os.path.join(args.dir, "MANIFEST.json")):
        raise CheckpointError(f"no checkpoint manifest in {args.dir}")
    cp = Checkpoint(args.dir, mode="inspect")
    desc = cp.describe()
    if args.ckpt_command == "inspect":
        if getattr(args, "json", False):
            print(json.dumps(desc, indent=2, sort_keys=True))
        else:
            print(f"schema      {desc['schema']}")
            print(f"path        {desc['path']}")
            print(f"fingerprint {desc['fingerprint']}")
            for name, entry in desc["payloads"].items():
                mark = "ok" if entry["intact"] else "CORRUPT"
                print(f"  {name:<12} {entry['file']:<20} {mark}")
        return EXIT_OK
    broken = [n for n, e in desc["payloads"].items() if not e["intact"]]
    if broken:
        raise CheckpointError(
            f"checkpoint {args.dir}: corrupt or missing payloads: "
            + ", ".join(sorted(broken))
        )
    print(f"checkpoint {args.dir}: {len(desc['payloads'])} payloads intact")
    return EXIT_OK


def _cmd_serve(args) -> int:
    """``repro serve``: run the solver daemon (docs/SERVING.md)."""
    from repro.serve import ModelRegistry, ServeConfig, SolverService, run_daemon

    budget_words = (
        int(args.budget_mwords * 1e6) if args.budget_mwords is not None else None
    )
    config = ServeConfig(
        window_seconds=args.window_ms / 1e3,
        max_batch=args.max_batch,
        max_pending=args.max_pending,
        deadline_seconds=args.deadline,
        work_budget=args.work_budget,
        registry_budget_words=budget_words,
    )
    service = SolverService(config, registry=ModelRegistry(budget_words))
    for directory in args.warm:
        fingerprint = service.registry.load(directory, lam=args.lam)
        print(f"warm-loaded {fingerprint[:12]} from {directory}")
    run_daemon(
        service, host=args.host, port=args.port, health_out=args.health_out
    )
    return EXIT_OK


def _cmd_update(args) -> int:
    """``repro update``: incremental model updates (docs/UPDATES.md).

    Daemon mode (``--host``/``--port``) sends an ``update`` op to a
    running ``repro serve``; offline mode (``--checkpoint DIR``) resumes
    the solver, updates it, and re-checkpoints it under the new
    fingerprint.
    """
    kernel_params: dict = {}
    if args.bandwidth is not None:
        kernel_params["bandwidth"] = args.bandwidth
    for item in args.kernel_param:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise ConfigurationError(
                f"--kernel-param needs NAME=VALUE; got {item!r}"
            )
        try:
            kernel_params[name] = json.loads(value)
        except json.JSONDecodeError:
            kernel_params[name] = value
    insert = np.load(args.insert) if args.insert is not None else None
    delete = (
        np.asarray([int(tok) for tok in args.delete.split(",") if tok.strip()],
                   dtype=np.intp)
        if args.delete is not None else None
    )
    if insert is None and delete is None and args.lam is None and not kernel_params:
        raise ConfigurationError(
            "update needs --insert, --delete, --lam, --bandwidth, or "
            "--kernel-param"
        )

    if (args.host is not None) != (args.port is not None):
        raise ConfigurationError("daemon mode needs both --host and --port")
    if args.host is not None and args.checkpoint is not None:
        raise ConfigurationError(
            "pick one: --host/--port (daemon) or --checkpoint (offline)"
        )

    if args.host is not None:
        from repro.serve import ServeClient

        with ServeClient(args.host, args.port) as client:
            response = client.update(
                model=args.model,
                insert=insert,
                delete=delete,
                lam=args.lam,
                kernel_params=kernel_params or None,
            )
        report = response.get("report") or {}
        if args.json:
            print(json.dumps(response, indent=2, sort_keys=True))
        else:
            print(f"model {response['previous'][:12]} -> "
                  f"{response['model'][:12]}  mode={report.get('mode')}")
            _print_update_report(report)
        return EXIT_OK

    if args.checkpoint is None:
        raise ConfigurationError(
            "pick a target: --host/--port (daemon) or --checkpoint DIR"
        )
    solver = FastKernelSolver.resume(args.checkpoint)
    previous = solver.fingerprint()
    solver.update(
        X_insert=insert,
        X_delete=delete,
        lam=args.lam,
        kernel_params=kernel_params or None,
    )
    path = solver.save_checkpoint(args.checkpoint)
    report = solver.last_update.to_payload()
    if args.json:
        print(json.dumps(
            {"previous": previous, "model": solver.fingerprint(),
             "checkpoint": path, "report": report},
            indent=2, sort_keys=True,
        ))
    else:
        print(f"model {previous[:12]} -> {solver.fingerprint()[:12]}  "
              f"mode={report.get('mode')}")
        _print_update_report(report)
        print(f"re-checkpointed at {path}")
    return EXIT_OK


def _print_update_report(report: dict) -> None:
    if not report:
        return
    if report.get("mode") in ("incremental", "rebuild"):
        print(f"  inserted {report.get('n_inserted', 0)}  "
              f"deleted {report.get('n_deleted', 0)}  "
              f"dirty leaves {report.get('dirty_leaves', 0)} "
              f"({100 * report.get('dirty_fraction', 0.0):.1f}% of points)")
    total = report.get("nodes_total", 0)
    if total:
        print(f"  refactorized {report.get('nodes_refactored', 0)}/{total} "
              f"nodes ({report.get('nodes_reused', 0)} transplanted)")
    print(f"  {report.get('seconds', 0.0):.3f}s")


def _cmd_info(_args) -> int:
    print(f"{'dataset':<10} {'d':>5} {'h':>6} {'lambda':>8} {'paper N':>10} {'paper Acc':>10}")
    for name in DATASET_NAMES:
        p = paper_parameters(name)
        print(f"{name:<10} {p['d']:>5} {p['h']:>6} {p['lam']:>8} "
              f"{p['paper_n']:>10} {p['paper_acc']:>10}")
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "trace": _cmd_trace,
    "classify": _cmd_classify,
    "checkpoint": _cmd_checkpoint,
    "serve": _cmd_serve,
    "update": _cmd_update,
    "info": _cmd_info,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigurationError as exc:
        print(f"repro: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DeadlineExceededError as exc:
        print(f"repro: deadline exceeded: {exc}", file=sys.stderr)
        return EXIT_DEADLINE
    except CheckpointError as exc:
        print(f"repro: checkpoint error: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except StabilityError as exc:
        print(f"repro: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OverloadedError as exc:
        print(f"repro: overloaded: {exc}", file=sys.stderr)
        return EXIT_OVERLOADED
    except ReproError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
