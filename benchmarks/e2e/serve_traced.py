"""``repro serve`` with the benchmark's layer wrappers installed.

The traced ``service_mix`` pass starts the server through this launcher
instead of ``python -m repro.cli serve``: it installs the same wrappers
as the local workloads, runs :func:`repro.service.serve` with the
configuration the CLI would build from the same flags, and after
SIGTERM (the server drains and returns) writes every span to
``--spans`` as JSON::

    python -m benchmarks.e2e.serve_traced --dir STATE --port 0 \\
        --workers 2 --tenant-rate 1000 --tenant-burst 1000 --spans spans.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from benchmarks.e2e import trace


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dir", required=True)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--tenant-rate", type=float, required=True)
    parser.add_argument("--tenant-burst", type=float, required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args(argv)

    tracer = trace.Tracer(first_id=trace.SERVER_FIRST_ID)
    trace.install(tracer, ("repro.service", "repro.manifest", "repro.pepa",
                           "repro.allocation", "repro.biopepa"))
    from repro.service import ServiceConfig, serve

    config = ServiceConfig.from_env(
        workers=args.workers,
        tenant_rate=args.tenant_rate,
        tenant_burst=args.tenant_burst,
    )
    code = serve(args.dir, host=args.host, port=args.port, config=config)
    tracer.recording = False
    Path(args.spans).write_text(json.dumps({"spans": tracer.spans}))
    return code


if __name__ == "__main__":
    sys.exit(main())
