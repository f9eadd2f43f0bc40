"""Command-line interface for the repro framework.

Subcommands mirror the workflow of the paper::

    repro pepa solve model.pepa          # run a tool natively
    repro biopepa ode model.biopepa 50 26
    repro gpa fluid model.gpepa 30 31

    repro build --builtin pepa -o pepa.img.json     # recipe -> image
    repro build my.def --name mytool -o my.img.json
    repro run pepa.img.json pepa solve model.pepa   # run inside a container
    repro test pepa.img.json                        # %test section
    repro validate pepa.img.json --tool pepa        # native vs container

    repro hub --root ./hub push COLLECTION pepa.img.json
    repro hub --root ./hub list COLLECTION
    repro hub --root ./hub pull COLLECTION NAME TAG -o out.img.json

    repro solve model.pepa --backend gmres          # IR backend registry
    repro solve model.biopepa --capability ssa --runs 200
    repro solve model.pepa --diagnostics            # trust-layer diagnostics
    repro solve model.pepa --shadow gmres           # cross-backend check
    repro solve --list-backends

    repro solve model.pepa --emit-manifest run.json # record the run
    repro replay run.json --verify                  # re-execute bit-for-bit
    repro solve model.pepa --workers 4 --transport remote

    repro serve --dir state/ --port 8765            # async job service
    repro submit model.pepa --wait                  # solve via the service
    repro jobs                                      # list service jobs

    repro validate model.pepa                       # static well-formedness

    repro experiment fig3                           # regenerate a paper artifact
    repro metrics fig3 --workers 4                  # same, with solver metrics

    repro profile model.pepa                        # derivation cost breakdown
    repro profile model.pepa --json

Exit codes: 0 success, 1 library error, 2 usage error.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.errors import ReproError

__all__ = ["main", "build_arg_parser"]

#: ``repro experiment``/``repro metrics`` choices: the experiment
#: registry's names plus "all", spelled out so building the parser does
#: not import :mod:`repro.experiments` (tested equal to the registry).
_EXPERIMENT_NAMES = (
    "table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
    "overhead", "biopepa", "classic", "optimize", "sensitivity", "all",
)


def _read_host_files(paths: list[str]) -> dict[str, bytes]:
    """Read host files into a bind map keyed by the path the tool sees."""
    binds: dict[str, bytes] = {}
    for p in paths:
        binds[p] = pathlib.Path(p).read_bytes()
    return binds


def _tool_command(args: argparse.Namespace) -> int:
    """Run one of the tools natively, binding any host files it names."""
    from repro.core.apps import native_run

    argv = [args.tool] + args.args
    file_args = [a for a in args.args if pathlib.Path(a).is_file()]
    result = native_run(argv, files=_read_host_files(file_args))
    sys.stdout.write(result.stdout)
    sys.stderr.write(result.stderr)
    return result.exit_code


def _build_command(args: argparse.Namespace) -> int:
    from repro.core import Builder, get_recipe_source, parse_dockerfile, parse_recipe

    if args.builtin:
        source = get_recipe_source(args.builtin)
        name = args.name or args.builtin
    else:
        if not args.recipe:
            print("error: provide a recipe file or --builtin NAME", file=sys.stderr)
            return 2
        source = pathlib.Path(args.recipe).read_text()
        name = args.name or pathlib.Path(args.recipe).stem
    is_dockerfile = args.format == "dockerfile" or (
        args.format == "auto"
        and args.recipe
        and pathlib.Path(args.recipe).name.lower().startswith("dockerfile")
    )
    recipe = parse_dockerfile(source) if is_dockerfile else parse_recipe(source)
    builder = Builder(layer_mode=args.layer_mode)
    image, report = builder.build(recipe, name=name, tag=args.tag)
    out = args.output or f"{name}-{args.tag}.img.json"
    digest = image.save(out)
    print(f"built {image.reference} -> {out}")
    print(f"  digest: {digest}")
    print(f"  layers: {report.layers_built} built, {report.cache_hits} cached")
    print(f"  packages: " + ", ".join(f"{n}={v}" for n, v in sorted(image.packages.items())))
    return 0


def _run_command(args: argparse.Namespace) -> int:
    from repro.core import ContainerRuntime, Image

    image = Image.load(args.image)
    runtime = ContainerRuntime()
    file_args = [a for a in args.argv if pathlib.Path(a).is_file()]
    binds = _read_host_files(file_args)
    if args.argv:
        result = runtime.run(image, args.argv, binds=binds)
    else:
        result = runtime.run_script(image, [], binds=binds)
    sys.stdout.write(result.stdout)
    sys.stderr.write(result.stderr)
    if args.output_dir and result.files_written:
        # Copy the run's overlay out to the host (the bind-mount-for-output
        # workflow of real container runtimes).
        root = pathlib.Path(args.output_dir)
        for path, content in sorted(result.files_written.items()):
            target = root / path.lstrip("/")
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(content)
        print(
            f"[{len(result.files_written)} file(s) written under {root}]",
            file=sys.stderr,
        )
    return result.exit_code


def _test_command(args: argparse.Namespace) -> int:
    from repro.core import ContainerRuntime, Image

    image = Image.load(args.image)
    result = ContainerRuntime().run_test(image)
    sys.stdout.write(result.stdout)
    sys.stderr.write(result.stderr)
    return result.exit_code


def _validate_model(args: argparse.Namespace, formalism: str) -> int:
    """Static well-formedness check of a model file (any formalism)."""
    source = pathlib.Path(args.image).read_text()
    strict = not args.lax
    if formalism == "pepa":
        from repro.pepa import parse_model
        from repro.pepa.wellformed import check_model

        # The PEPA checker has no lax mode: its errors are all fatal to
        # derivation anyway.
        warnings = check_model(parse_model(source))
    elif formalism == "biopepa":
        from repro.biopepa import parse_biopepa
        from repro.biopepa.wellformed import check_model

        warnings = check_model(parse_biopepa(source), strict=strict)
    else:
        from repro.gpepa import parse_gpepa
        from repro.gpepa.wellformed import check_model

        warnings = check_model(parse_gpepa(source), strict=strict)
    for warning in warnings:
        print(f"warning: {warning}")
    print(f"{args.image}: well-formed ({len(warnings)} warning(s))")
    return 0


def _validate_command(args: argparse.Namespace) -> int:
    from repro.core import Image, validate_against_native
    from repro.core.validation import standard_validation_cases

    formalism = _formalism_of(args.image)
    if formalism is not None:
        return _validate_model(args, formalism)
    if args.tool is None:
        print(
            "error: --tool is required when validating a container image",
            file=sys.stderr,
        )
        return 2
    image = Image.load(args.image)
    report = validate_against_native(image, standard_validation_cases(args.tool))
    print(report.summary())
    if not report.passed:
        for failure in report.failures:
            print(f"--- diff for {failure.case.name} ---")
            print(failure.diff())
        return 1
    return 0


def _sbom_command(args: argparse.Namespace) -> int:
    from repro.core import Image, sbom_json, verify_sbom

    image = Image.load(args.image)
    if args.verify:
        import json as json_module

        document = json_module.loads(pathlib.Path(args.verify).read_text())
        problems = verify_sbom(image, document)
        if problems:
            for problem in problems:
                print(f"MISMATCH: {problem}")
            return 1
        print(f"{image.reference}: verified against {args.verify}")
        return 0
    text = sbom_json(image)
    if args.output:
        pathlib.Path(args.output).write_text(text)
        print(f"wrote SBOM -> {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _sandbox_command(args: argparse.Namespace) -> int:
    from repro.core import Image, materialize

    root = materialize(Image.load(args.image), args.directory)
    print(f"materialized {args.image} -> {root}")
    return 0


def _repack_command(args: argparse.Namespace) -> int:
    from repro.core import from_sandbox

    image = from_sandbox(args.directory, tag=args.tag)
    out = args.output or f"{image.name}-{image.tag}.img.json"
    digest = image.save(out)
    print(f"repacked {args.directory} -> {out} (digest {digest[:12]}…)")
    return 0


def _diff_command(args: argparse.Namespace) -> int:
    from repro.core import Image, diff_images

    diff = diff_images(Image.load(args.left), Image.load(args.right))
    print(diff.render())
    return 0 if diff.identical else 1


def _inspect_command(args: argparse.Namespace) -> int:
    from repro.core import Image

    image = Image.load(args.image)
    print(f"{image.reference}")
    print(f"  digest     : {image.digest()}")
    print(f"  base       : {image.base}")
    print(f"  layers     : {len(image.layers)}")
    print(f"  entrypoints: {', '.join(sorted(image.entrypoints)) or '(none)'}")
    if image.packages:
        print("  packages   : " + ", ".join(
            f"{n}={v}" for n, v in sorted(image.packages.items())
        ))
    for key, value in sorted(image.labels.items()):
        print(f"  label {key}: {value}")
    if image.help_text:
        print("  help:")
        for line in image.help_text.splitlines():
            print(f"    {line}")
    return 0


def _hub_command(args: argparse.Namespace) -> int:
    from repro.core import Hub, Image

    hub = Hub(args.root)
    if args.hub_action == "push":
        image = Image.load(args.image)
        entry = hub.push(args.collection, image, overwrite=args.overwrite)
        print(f"pushed {entry.reference} digest {entry.digest[:12]}…")
        return 0
    if args.hub_action == "pull":
        image = hub.pull(args.collection, args.name, args.tag)
        out = args.output or f"{args.name}-{args.tag}.img.json"
        image.save(out)
        print(f"pulled {args.collection}/{args.name}:{args.tag} -> {out}")
        return 0
    if args.hub_action == "list":
        for entry in hub.list_collection(args.collection):
            print(f"{entry.reference}  digest {entry.digest[:12]}…  pulls {entry.pulls}")
        return 0
    print(f"error: unknown hub action {args.hub_action!r}", file=sys.stderr)
    return 2


def _experiment_command(args: argparse.Namespace) -> int:
    from repro.experiments import run_experiment

    text = run_experiment(args.name)
    sys.stdout.write(text)
    return 0


_SOLVE_SUFFIXES = {
    ".pepa": "pepa",
    ".biopepa": "biopepa",
    ".gpepa": "gpepa",
}
_NO_FORMALISM = (
    "cannot infer the formalism from the file suffix; "
    "pass --formalism pepa|biopepa|gpepa"
)


def _formalism_of(path: str, formalism: str = "auto") -> str | None:
    """``formalism``, or when it is ``"auto"`` the one ``path``'s suffix
    names (None for an unknown suffix)."""
    if formalism != "auto":
        return formalism
    return _SOLVE_SUFFIXES.get(pathlib.Path(path).suffix.lower())


def _print_top(labels, values, top: int) -> None:
    order = sorted(range(len(values)), key=lambda i: -values[i])[:top]
    for i in order:
        print(f"  {labels[i]:40s} {values[i]:.6g}")


def _solve_command(args: argparse.Namespace) -> int:
    """Solve one model through the IR backend registry."""
    from repro.ir import available_backends, default_backend

    if args.list_backends:
        import repro.pepa  # noqa: F401  (registers the 'derive' backends)

        for capability, names in available_backends().items():
            default = default_backend(capability)
            rendered = ", ".join(
                name + (" (default)" if name == default else "") for name in names
            )
            print(f"{capability:10s} {rendered}")
        return 0
    if not args.model:
        print("error: provide a model file or --list-backends", file=sys.stderr)
        return 2
    formalism = _formalism_of(args.model, args.formalism)
    if formalism is None:
        print(f"error: {_NO_FORMALISM}", file=sys.stderr)
        return 2
    source = pathlib.Path(args.model).read_text()
    from repro.errors import ReplayError
    from repro.manifest import lower_and_resolve, model_context, model_descriptor

    derive_backend = getattr(args, "derive", None)
    if (
        args.backend
        and derive_backend is None
        and formalism == "pepa"
        and args.capability != "ssa"
    ):
        # `--backend population` (or any other derive-capability name)
        # on a markov capability selects the derivation strategy; the
        # solver backend stays at the capability's default.
        import repro.pepa  # noqa: F401  (registers the 'derive' backends)
        from repro.ir.registry import get_backend

        try:
            get_backend(args.capability, args.backend)
        except Exception:
            try:
                get_backend("derive", args.backend)
            except Exception:
                pass  # unknown either way: dispatch reports it properly
            else:
                derive_backend, args.backend = args.backend, None
    try:
        ir, labels, derive_backend = lower_and_resolve(
            formalism, source, args.capability, derive_backend=derive_backend
        )
    except ReplayError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Declare the model so the registry's manifests are self-contained
    # (replayable) — see repro.engine.run_manifest.
    with model_context(
        model_descriptor(formalism, source, derive_backend=derive_backend)
    ):
        if (
            args.workers
            or args.retries is not None
            or args.task_timeout is not None
            or args.transport is not None
        ):
            from repro.engine import parallel

            with parallel(
                workers=args.workers or 1,
                task_timeout=args.task_timeout,
                max_retries=args.retries,
                transport=args.transport,
            ):
                return _solve_dispatch(args, ir, labels)
        return _solve_dispatch(args, ir, labels)


def _print_diagnostics() -> None:
    """Print the trust layer's diagnostics for the last verified solve."""
    from repro.ir import guards

    diagnostics = guards.last_diagnostics()
    if not diagnostics:
        print("diagnostics: (none recorded)")
        return
    print("diagnostics:")
    for key in sorted(diagnostics):
        value = diagnostics[key]
        if isinstance(value, float):
            print(f"  {key:24s} {value:.6g}")
        else:
            print(f"  {key:24s} {value}")


def _solve_dispatch(args: argparse.Namespace, ir, labels) -> int:
    import numpy as np

    from repro.ir import solve as ir_solve

    times = np.linspace(0.0, args.horizon, args.points)
    shadow = args.shadow
    if args.capability == "steady":
        result = ir_solve(ir, "steady", backend=args.backend, shadow=shadow)
        print(
            f"steady state: {ir.n_states} states, backend "
            f"{result.meta.get('backend', result.method)}, residual "
            f"{result.residual:.3g}"
        )
        if "fallback_from" in result.meta:
            print(
                f"  (fell back from {result.meta['fallback_from']}: "
                f"{result.meta['fallback_error']})"
            )
        _print_top(labels, result.pi, args.top)
    elif args.capability == "transient":
        dist = ir_solve(
            ir, "transient", backend=args.backend, shadow=shadow, times=times
        )
        print(f"transient distribution at t={args.horizon:g}:")
        _print_top(labels, dist[-1], args.top)
    elif args.capability == "ode":
        traj = ir_solve(
            ir, "ode", backend=args.backend, shadow=shadow, times=times
        )
        print(f"ode solution at t={args.horizon:g}:")
        _print_top(labels, traj[-1], args.top)
    else:
        ens = ir_solve(
            ir, "ssa", backend=args.backend, mode="ensemble",
            times=times, n_runs=args.runs, seed=args.seed,
        )
        print(
            f"ssa ensemble mean at t={args.horizon:g} "
            f"({args.runs} runs, seed {args.seed}, "
            f"{ens.meta['kernel']} kernel):"
        )
        _print_top(labels, ens.mean[-1], args.top)
    if args.diagnostics:
        _print_diagnostics()
    if args.emit_manifest:
        from repro.manifest import last_manifest

        manifest = last_manifest()
        if manifest is None:
            print(
                "error: no manifest was recorded for this solve "
                "(parameters have no stable encoding)",
                file=sys.stderr,
            )
            return 1
        manifest.save(args.emit_manifest)
        print(f"wrote manifest -> {args.emit_manifest}")
    return 0


def _replay_command(args: argparse.Namespace) -> int:
    """Re-execute a run manifest; with --verify, assert bit-identity."""
    from repro.manifest import load_manifest, replay

    manifest = load_manifest(args.manifest)
    print(
        f"replaying {args.manifest}: kind {manifest.kind}"
        + (f", capability {manifest.capability}" if manifest.capability else "")
        + (
            f", backend {manifest.backend['used']}"
            if manifest.backend and manifest.backend.get("used")
            else ""
        )
    )
    if args.transport is not None:
        from repro.engine import parallel

        with parallel(workers=args.workers or 1, transport=args.transport):
            report = replay(manifest, verify=args.verify)
    elif args.workers:
        from repro.engine import parallel

        with parallel(workers=args.workers):
            report = replay(manifest, verify=args.verify)
    else:
        report = replay(manifest, verify=args.verify)
    recorded = (manifest.result or {}).get("digest")
    if args.verify:
        print(f"verified: result digest {recorded[:12]}… reproduced bit-for-bit")
        print(f"verified: manifest identity {manifest.identity_digest()[:12]}… matches")
    else:
        status = {True: "matches", False: "DIVERGED", None: "(no digest recorded)"}
        print(f"result digest {status[report.digest_match]}")
    return 0


def _serve_command(args: argparse.Namespace) -> int:
    """Run the solver-as-a-service HTTP front end until SIGTERM."""
    from repro.service import ServiceConfig, serve

    config = ServiceConfig.from_env(
        queue_capacity=args.queue_capacity,
        workers=args.workers,
        tenant_rate=args.tenant_rate,
        tenant_burst=args.tenant_burst,
        default_deadline=args.deadline,
        drain_timeout=args.drain_timeout,
        transport=args.transport,
        fleet_bind=args.fleet_bind,
        token=args.token,
        journal_max_bytes=args.journal_max_bytes,
    )
    return serve(args.dir, host=args.host, port=args.port, config=config)


def _worker_command(args: argparse.Namespace) -> int:
    """Run one fleet worker against a coordinator until stopped."""
    from repro.engine.remote import run_worker

    return run_worker(
        args.coordinator,
        token=args.token,
        poll=args.poll,
        grace=args.grace,
        max_units=args.max_units,
    )


def _submit_build_spec(args: argparse.Namespace):
    """Build the JobSpec a ``repro submit`` invocation describes."""
    import numpy as np

    from repro.engine.run_manifest import dataclass_descriptor, encode_params
    from repro.service import JobSpec

    times = np.linspace(0.0, args.horizon, args.points)
    if args.makespan:
        from repro.allocation import MAPPING_A, MAPPING_B, synthetic_workload

        mapping = {"A": MAPPING_A, "B": MAPPING_B}[args.makespan]
        workload = synthetic_workload(seed=args.workload_seed)
        return JobSpec(
            kind="makespan",
            model={
                "mapping": dataclass_descriptor(mapping),
                "workload": dataclass_descriptor(workload),
            },
            params=encode_params({"times": times, "tail_tol": args.tail_tol}),
        )
    if not args.model:
        raise ReproError("provide a model file, or --makespan A|B")
    formalism = _formalism_of(args.model, args.formalism)
    if formalism is None:
        raise ReproError(_NO_FORMALISM)
    params: dict = {}
    if args.capability in ("transient", "ode"):
        params["times"] = times
    elif args.capability == "ssa":
        params.update(
            mode="ensemble", times=times, n_runs=args.runs, seed=args.seed
        )
    return JobSpec(
        kind="solve",
        formalism=formalism,
        source=pathlib.Path(args.model).read_text(),
        capability=args.capability,
        backend=args.backend,
        params=encode_params(params),
    )


def _submit_command(args: argparse.Namespace) -> int:
    """Submit one job to a running service (optionally wait for it)."""
    import json as json_module

    from repro.service import ServiceClient

    client = ServiceClient(args.url, token=args.token)
    spec = _submit_build_spec(args)
    answer = client.submit(
        spec,
        tenant=args.tenant,
        priority=args.priority,
        deadline_seconds=args.deadline,
    )
    job_id = answer["job_id"]
    deduped = " (deduplicated)" if answer.get("deduped") else ""
    print(f"job {job_id}: {answer['status']}{deduped}")
    if not args.wait:
        return 0
    final = client.wait(job_id, timeout=args.timeout)
    print(f"job {job_id}: {final['status']}")
    if final["status"] != "done":
        detail = final.get("error") or final.get("reason")
        if detail:
            print(f"  {detail}", file=sys.stderr)
        return 1
    document = client.result(job_id)
    digest = document.get("digest")
    print(f"  result digest: {digest[:12] if digest else '(none)'}…")
    if args.result_out:
        pathlib.Path(args.result_out).write_text(
            json_module.dumps(document, indent=2, sort_keys=True) + "\n"
        )
        print(f"  wrote result -> {args.result_out}")
    if args.manifest_out:
        manifest = document.get("manifest")
        if manifest is None:
            print("  no manifest was recorded for this job", file=sys.stderr)
            return 1
        pathlib.Path(args.manifest_out).write_text(
            json_module.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )
        print(f"  wrote manifest -> {args.manifest_out}")
    return 0


def _jobs_command(args: argparse.Namespace) -> int:
    """List jobs on a running service, or inspect/cancel one."""
    import json as json_module

    from repro.service import ServiceClient

    client = ServiceClient(args.url, token=args.token)
    if args.job_id is None:
        for job in client.jobs():
            line = (
                f"{job['job_id'][:24]}…  {job['status']:9s}  "
                f"tenant={job['tenant']} priority={job['priority']}"
            )
            if job.get("recovered"):
                line += "  (recovered)"
            print(line)
        return 0
    if args.cancel:
        answer = client.cancel(args.job_id)
        print(f"job {args.job_id}: {answer['status']}")
        return 0
    if args.result:
        print(json_module.dumps(client.result(args.job_id), indent=2, sort_keys=True))
        return 0
    print(json_module.dumps(client.status(args.job_id), indent=2, sort_keys=True))
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _metrics_command(args: argparse.Namespace) -> int:
    """Report solver metrics, optionally after running an experiment
    (the registry is process-local, so there is nothing to show until
    some analysis has run in this process)."""
    from repro.engine import get_registry, parallel

    if args.experiment:
        from repro.experiments import run_experiment

        if args.workers and args.workers > 1:
            with parallel(workers=args.workers):
                text = run_experiment(args.experiment)
        else:
            text = run_experiment(args.experiment)
        sys.stdout.write(text)
        print()
    registry = get_registry()
    if args.json:
        print(registry.to_json())
    else:
        print(registry.render())
    return 0


def _profile_command(args: argparse.Namespace) -> int:
    """Profile the derivation of one PEPA model.

    Every strategy runs best-of-``--repeat``; the CSR-assembly time and
    memo-table hit rate come from the metrics registry
    (``derive.csr_assembly`` timer, ``derive.memo_*`` counters).
    """
    import json as json_module
    import time

    from repro.engine import get_registry
    from repro.pepa import ctmc_of, parse_model
    from repro.pepa.derivation import select_derive_backend
    from repro.pepa.statespace import derive

    model = parse_model(pathlib.Path(args.model).read_text())
    registry = get_registry()

    def best_of(fn, then=None):
        """Best time of ``fn`` over the repetitions; ``then`` runs on
        each result, untimed."""
        best, result = float("inf"), None
        for _ in range(args.repeat):
            start = time.perf_counter()
            result = fn()
            best = min(best, time.perf_counter() - start)
            if then is not None:
                then(result)
        return best, result

    hits0 = registry.counter("derive.memo_hit")
    misses0 = registry.counter("derive.memo_miss")
    csr0 = registry.timer_stat("derive.csr_assembly") or {
        "calls": 0, "total_seconds": 0.0,
    }
    # Each repetition derives a fresh StateSpace, so ctmc_of's
    # per-instance memo never hits here and the csr timer sees every
    # assembly.
    fast_s, space = best_of(
        lambda: derive(model, max_states=args.max_states), then=ctmc_of
    )
    hits = registry.counter("derive.memo_hit") - hits0
    misses = registry.counter("derive.memo_miss") - misses0
    csr1 = registry.timer_stat("derive.csr_assembly")
    csr_calls = csr1["calls"] - csr0["calls"]
    csr_seconds = (
        (csr1["total_seconds"] - csr0["total_seconds"]) / csr_calls
        if csr_calls
        else 0.0
    )
    pop_s = pop_space = None
    from repro.pepa import derive_population, has_replicated_symmetry

    if has_replicated_symmetry(model):
        pop_s, pop_space = best_of(
            lambda: derive_population(model, max_states=args.max_states)
        )

    total = hits + misses
    report = {
        "model": args.model,
        "repeat": args.repeat,
        "n_states": space.size,
        "n_transitions": space.n_transitions,
        "fast_seconds": fast_s,
        "states_per_second": space.size / fast_s if fast_s > 0 else float("inf"),
        "csr_assembly_seconds": csr_seconds,
        "memo_hits": hits,
        "memo_misses": misses,
        "memo_hit_rate": hits / total if total else 0.0,
        "auto_backend": select_derive_backend(model),
    }
    if pop_s is not None:
        report["population_seconds"] = pop_s
        report["population_states"] = pop_space.size
        report["population_reduction"] = (
            space.size / pop_space.size if pop_space.size else 1.0
        )
    if args.json:
        print(json_module.dumps(report, indent=2, sort_keys=True))
        return 0
    print(f"derivation profile for {args.model} (best of {args.repeat}):")
    print(f"  states           : {report['n_states']}")
    print(f"  transitions      : {report['n_transitions']}")
    print(f"  fast path        : {fast_s:.6f} s "
          f"({report['states_per_second']:.0f} states/s)")
    print(f"  csr assembly     : {csr_seconds:.6f} s")
    print(f"  memo hit rate    : {report['memo_hit_rate']:.1%} "
          f"({hits} hits, {misses} misses)")
    if pop_s is not None:
        print(f"  population       : {pop_s:.6f} s "
              f"({report['population_states']} states, "
              f"{report['population_reduction']:.1f}x fewer)")
    print(f"  auto backend     : {report['auto_backend']}")
    return 0


class _TransportNames:
    """The ``--transport`` choices: :func:`available_transports`, looked
    up only when a value is checked or help is printed, so commands that
    never touch the engine do not pay for importing it (~0.2 s)."""

    def __contains__(self, name) -> bool:
        return name in tuple(self)

    def __iter__(self):
        from repro.engine.transport import available_transports

        return iter(available_transports())


def _add_transport_argument(p: argparse.ArgumentParser, help: str) -> None:
    action = p.add_argument("--transport", default=None, help=help)
    # Set after add_argument: its metavar check iterates the choices,
    # which would import the engine while building the parser.
    action.choices = _TransportNames()


def build_arg_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Container-based reproducibility framework for stochastic "
        "process algebra (PEPA / Bio-PEPA / GPEPA).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for tool in ("pepa", "biopepa", "gpa"):
        p = sub.add_parser(tool, help=f"run the {tool} tool natively")
        p.add_argument("args", nargs=argparse.REMAINDER)
        p.set_defaults(func=_tool_command, tool=tool)

    p = sub.add_parser("build", help="build an image from a recipe")
    p.add_argument("recipe", nargs="?", help="recipe (definition) file")
    p.add_argument("--builtin", choices=("pepa", "biopepa", "gpanalyser"))
    p.add_argument("--name", help="image name (defaults to recipe stem)")
    p.add_argument("--tag", default="latest")
    p.add_argument("--layer-mode", choices=("per-command", "single"), default="per-command")
    p.add_argument(
        "--format",
        choices=("auto", "singularity", "dockerfile"),
        default="auto",
        help="recipe syntax; 'auto' treats files named Dockerfile* as Dockerfiles",
    )
    p.add_argument("-o", "--output", help="output image file (.img.json)")
    p.set_defaults(func=_build_command)

    p = sub.add_parser("diff", help="structurally compare two images")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_diff_command)

    p = sub.add_parser("run", help="run a command inside an image")
    p.add_argument("image", help="image file (.img.json)")
    p.add_argument(
        "--output-dir",
        help="copy files the run writes inside the container to this host directory",
    )
    p.add_argument("argv", nargs=argparse.REMAINDER, help="command; empty = %%runscript")
    p.set_defaults(func=_run_command)

    p = sub.add_parser("test", help="run an image's %%test section")
    p.add_argument("image")
    p.set_defaults(func=_test_command)

    p = sub.add_parser("sbom", help="export or verify an image's bill of materials")
    p.add_argument("image")
    p.add_argument("-o", "--output", help="write the SBOM JSON here (default stdout)")
    p.add_argument("--verify", help="verify the image against this SBOM file instead")
    p.set_defaults(func=_sbom_command)

    p = sub.add_parser("sandbox", help="materialize an image to a directory tree")
    p.add_argument("image")
    p.add_argument("directory")
    p.set_defaults(func=_sandbox_command)

    p = sub.add_parser("repack", help="rebuild an image from a sandbox directory")
    p.add_argument("directory")
    p.add_argument("--tag")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_repack_command)

    p = sub.add_parser("inspect", help="show an image's metadata and provenance")
    p.add_argument("image")
    p.set_defaults(func=_inspect_command)

    p = sub.add_parser(
        "validate",
        help="check a model's well-formedness, or compare a container "
        "image's output against native",
    )
    p.add_argument(
        "image",
        help="model file (.pepa/.biopepa/.gpepa) for a static check, or "
        "an image file (.img.json) for native-vs-container validation",
    )
    p.add_argument(
        "--tool",
        choices=("pepa", "biopepa", "gpa"),
        help="tool to compare (required for image validation)",
    )
    p.add_argument(
        "--lax",
        action="store_true",
        help="demote model well-formedness errors to warnings",
    )
    p.set_defaults(func=_validate_command)

    p = sub.add_parser("hub", help="local registry operations")
    p.add_argument("--root", required=True, help="hub root directory")
    hub_sub = p.add_subparsers(dest="hub_action", required=True)
    hp = hub_sub.add_parser("push")
    hp.add_argument("collection")
    hp.add_argument("image")
    hp.add_argument("--overwrite", action="store_true")
    hp.set_defaults(func=_hub_command)
    hp = hub_sub.add_parser("pull")
    hp.add_argument("collection")
    hp.add_argument("name")
    hp.add_argument("tag", nargs="?", default="latest")
    hp.add_argument("-o", "--output")
    hp.set_defaults(func=_hub_command)
    hp = hub_sub.add_parser("list")
    hp.add_argument("collection")
    hp.set_defaults(func=_hub_command)

    p = sub.add_parser(
        "solve",
        help="solve a model through the shared IR backend registry",
    )
    p.add_argument("model", nargs="?", help="model file (.pepa/.biopepa/.gpepa)")
    p.add_argument(
        "--formalism",
        choices=("auto", "pepa", "biopepa", "gpepa"),
        default="auto",
        help="frontend; 'auto' infers it from the file suffix",
    )
    p.add_argument(
        "--capability",
        choices=("steady", "transient", "ssa", "ode"),
        default="steady",
    )
    p.add_argument(
        "--backend",
        help="registered backend name (see --list-backends); default per "
        "capability.  A 'derive' backend name (e.g. population) selects "
        "the derivation strategy instead",
    )
    p.add_argument(
        "--derive",
        metavar="BACKEND",
        help="derivation strategy for pepa models (explicit, "
        "population/lumped, auto); default explicit",
    )
    p.add_argument(
        "--list-backends",
        action="store_true",
        help="list the registered backends per capability and exit",
    )
    p.add_argument("--horizon", type=float, default=10.0,
                   help="end of the time grid for time-based capabilities")
    p.add_argument("--points", type=_positive_int, default=101,
                   help="grid points over [0, horizon]")
    p.add_argument("--runs", type=_positive_int, default=100,
                   help="SSA ensemble size")
    p.add_argument("--seed", type=int, default=0, help="SSA ensemble seed")
    p.add_argument("--top", type=_positive_int, default=10,
                   help="how many states/species to print")
    p.add_argument(
        "--diagnostics",
        action="store_true",
        help="print the trust layer's diagnostics (residual, condition "
        "estimate, truncation mass, ...) for the solve",
    )
    p.add_argument(
        "--shadow",
        metavar="BACKEND",
        help="re-solve on this independent backend and fail on "
        "disagreement (not applicable to ssa)",
    )
    p.add_argument("--workers", type=_positive_int, default=None,
                   help="solve under engine.parallel(workers=N)")
    p.add_argument("--retries", type=_nonneg_int, default=None,
                   help="max per-task retries in the supervised pool "
                   "(default $REPRO_MAX_RETRIES, else 2)")
    p.add_argument("--task-timeout", type=float, default=None,
                   help="per-task deadline in seconds "
                   "(default $REPRO_TASK_TIMEOUT, else none)")
    _add_transport_argument(
        p, "execution transport for fanned-out work "
        "(default $REPRO_TRANSPORT, else auto by worker count)",
    )
    p.add_argument(
        "--emit-manifest",
        metavar="PATH",
        help="write the solve's reproducibility manifest (JSON) here; "
        "re-execute it with 'repro replay PATH --verify'",
    )
    p.set_defaults(func=_solve_command)

    p = sub.add_parser(
        "replay",
        help="re-execute a run manifest emitted by 'solve --emit-manifest' "
        "(or any API run), optionally asserting bit-identity",
    )
    p.add_argument("manifest", help="manifest JSON file")
    p.add_argument(
        "--verify",
        action="store_true",
        help="fail unless the replay reproduces the recorded result "
        "digest and manifest identity bit-for-bit",
    )
    p.add_argument("--workers", type=_positive_int, default=None,
                   help="replay under engine.parallel(workers=N)")
    _add_transport_argument(
        p, "execution transport for the replay (bit-identity is "
        "transport-invariant)",
    )
    p.set_defaults(func=_replay_command)

    p = sub.add_parser(
        "serve",
        help="run the async job service (POST solves over HTTP, "
        "crash-safe journal, admission control)",
    )
    p.add_argument("--dir", required=True,
                   help="state directory (journal + results)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8765,
                   help="TCP port; 0 picks a free one (printed on startup)")
    p.add_argument("--workers", type=_positive_int, default=None,
                   help="job worker threads (default $REPRO_SERVE_WORKERS, else 2)")
    p.add_argument("--queue-capacity", type=_positive_int, default=None,
                   help="max queued jobs before 429 backpressure")
    p.add_argument("--tenant-rate", type=float, default=None,
                   help="per-tenant submissions/second")
    p.add_argument("--tenant-burst", type=float, default=None,
                   help="per-tenant burst allowance")
    p.add_argument("--deadline", type=float, default=None,
                   help="default per-job deadline in seconds")
    p.add_argument("--drain-timeout", type=float, default=None,
                   help="seconds SIGTERM waits before suspending in-flight jobs")
    _add_transport_argument(
        p, "engine transport jobs execute on; 'remote' also starts "
        "the fleet coordinator for 'repro worker' processes "
        "(default $REPRO_TRANSPORT)",
    )
    p.add_argument("--fleet-bind", default=None, metavar="HOST:PORT",
                   help="with --transport remote: coordinator bind address "
                   "(default $REPRO_REMOTE_BIND, else 127.0.0.1:0)")
    p.add_argument("--token", default=None,
                   help="shared-secret bearer token for the job API and "
                   "worker registration (default $REPRO_SERVE_TOKEN)")
    p.add_argument("--journal-max-bytes", type=_positive_int, default=None,
                   help="compact the WAL journal online past this size "
                   "(default $REPRO_SERVE_JOURNAL_MAX_BYTES, else only "
                   "on clean shutdown)")
    p.set_defaults(func=_serve_command)

    p = sub.add_parser("submit", help="submit a job to a running service")
    p.add_argument("model", nargs="?", help="model file (.pepa/.biopepa/.gpepa)")
    p.add_argument("--url", default="http://127.0.0.1:8765",
                   help="service base URL")
    p.add_argument("--formalism", choices=("auto", "pepa", "biopepa", "gpepa"),
                   default="auto")
    p.add_argument("--capability",
                   choices=("steady", "transient", "ssa", "ode"),
                   default="steady")
    p.add_argument("--backend", help="registered backend name")
    p.add_argument("--horizon", type=float, default=10.0)
    p.add_argument("--points", type=_positive_int, default=101)
    p.add_argument("--runs", type=_positive_int, default=100,
                   help="SSA ensemble size")
    p.add_argument("--seed", type=int, default=0, help="SSA ensemble seed")
    p.add_argument("--makespan", choices=("A", "B"), default=None,
                   help="submit a makespan-CDF job for Table I mapping A or B "
                   "instead of a model solve")
    p.add_argument("--workload-seed", type=int, default=2019,
                   help="synthetic-workload seed for --makespan")
    p.add_argument("--tail-tol", type=float, default=1e-2,
                   help="makespan CDF tail tolerance")
    p.add_argument("--tenant", default="default")
    p.add_argument("--priority", type=_nonneg_int, default=5,
                   help="0 = most urgent; high values are shed first")
    p.add_argument("--deadline", type=float, default=None,
                   help="per-job deadline in seconds")
    p.add_argument("--wait", action="store_true",
                   help="wait until the job finishes")
    p.add_argument("--timeout", type=float, default=300.0,
                   help="how long --wait waits before giving up")
    p.add_argument("--result-out", metavar="PATH",
                   help="with --wait: write the result document (JSON) here")
    p.add_argument("--manifest-out", metavar="PATH",
                   help="with --wait: write the run manifest here "
                   "(verify with 'repro replay PATH --verify')")
    p.add_argument("--token", default=None,
                   help="bearer token for a token-guarded service "
                   "(default $REPRO_SERVE_TOKEN)")
    p.set_defaults(func=_submit_command)

    p = sub.add_parser("jobs", help="list, inspect, or cancel service jobs")
    p.add_argument("job_id", nargs="?", help="job id (omit to list all jobs)")
    p.add_argument("--url", default="http://127.0.0.1:8765")
    p.add_argument("--result", action="store_true",
                   help="print the job's result document")
    p.add_argument("--cancel", action="store_true", help="cancel the job")
    p.add_argument("--token", default=None,
                   help="bearer token for a token-guarded service "
                   "(default $REPRO_SERVE_TOKEN)")
    p.set_defaults(func=_jobs_command)

    p = sub.add_parser(
        "worker",
        help="join a fleet: pull sealed task units from a coordinator "
        "started by 'repro serve --transport remote'",
    )
    p.add_argument("--coordinator", required=True,
                   help="coordinator base URL (printed by serve)")
    p.add_argument("--token", default=None,
                   help="fleet bearer token (default $REPRO_REMOTE_TOKEN, "
                   "else $REPRO_SERVE_TOKEN)")
    p.add_argument("--poll", type=float, default=0.25,
                   help="seconds between lease polls when idle")
    p.add_argument("--grace", type=float, default=30.0,
                   help="seconds of coordinator unreachability before exiting")
    p.add_argument("--max-units", type=_positive_int, default=None,
                   help="exit after executing this many task units")
    p.set_defaults(func=_worker_command)

    p = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p.add_argument(
        "name",
        choices=_EXPERIMENT_NAMES,
    )
    p.set_defaults(func=_experiment_command)

    p = sub.add_parser(
        "metrics",
        help="report solver metrics (wall times, state-space sizes, cache "
        "hit/miss counters), optionally after running an experiment",
    )
    p.add_argument(
        "experiment",
        nargs="?",
        choices=_EXPERIMENT_NAMES,
        help="experiment to run (instrumented) before reporting",
    )
    p.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    p.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        help="run the experiment under engine.parallel(workers=N)",
    )
    p.set_defaults(func=_metrics_command)

    p = sub.add_parser(
        "profile",
        help="time the derivation of one PEPA model, layer by layer",
    )
    p.add_argument("model", help="PEPA model file")
    p.add_argument("--repeat", type=_positive_int, default=5,
                   help="repetitions per strategy (best time is reported)")
    p.add_argument("--max-states", type=_positive_int, default=1_000_000,
                   help="state-space size cap")
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable JSON")
    p.set_defaults(func=_profile_command)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
