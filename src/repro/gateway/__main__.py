"""``python -m repro.gateway`` — serve the HTTP/JSON gateway.

Runs a :class:`~repro.service.CompileService` and fronts it with a
:class:`~repro.gateway.GatewayServer`::

    $ python -m repro.gateway --port 8080 --keys tenants.json
    repro gateway listening on http://127.0.0.1:8080
    tenants: alice (weight 4), bob (weight 1), ops (admin)

    $ curl -s -X POST http://127.0.0.1:8080/v1/compile \\
        -H 'X-API-Key: alice-key' \\
        -d '{"qasm": "OPENQASM 2.0;\\nqreg q[2];\\ncreg c[2];\\nh q[0];\\ncx q[0],q[1];\\n"}'

Without ``--keys`` the gateway runs in **open mode** (no auth, one anonymous
admin tenant) — development only.  Ctrl-C triggers a graceful drain bounded
by ``--drain-grace`` before the process exits.
"""

from __future__ import annotations

import argparse
import sys
import time

from ..service.service import CompileService
from .auth import TenantRegistry
from .server import GatewayServer


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.gateway",
        description="Serve repro compilations over a multi-tenant HTTP/JSON gateway.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default: loopback)")
    parser.add_argument("--port", type=int, default=8080, help="port (0 = OS-assigned)")
    parser.add_argument(
        "--keys",
        default=None,
        help="JSON keyfile of tenants (name/key/weight/rate/burst/admin); "
        "omit for open mode (no auth — development only)",
    )
    parser.add_argument(
        "--service-workers",
        type=int,
        default=2,
        help="upper worker bound per backend lane of the embedded compile service",
    )
    parser.add_argument(
        "--min-workers", type=int, default=1, help="lower worker bound per backend lane"
    )
    parser.add_argument(
        "--process-backends",
        default="",
        help="comma-separated backend names to run on process lanes",
    )
    parser.add_argument(
        "--cache-size", type=int, default=4096, help="capacity of the service result cache"
    )
    parser.add_argument(
        "--cache-server",
        action="append",
        default=None,
        metavar="HOST:PORT",
        help="back the result cache by remote TCP cache server(s) — repeat "
        "for consistent-hash sharding (requires --cache-authkey-file)",
    )
    parser.add_argument(
        "--cache-authkey-file",
        default=None,
        metavar="PATH",
        help="file holding the hex-encoded cache-server secret",
    )
    parser.add_argument(
        "--sync-timeout",
        type=float,
        default=60.0,
        help="seconds a synchronous POST /v1/compile waits before returning 202",
    )
    parser.add_argument(
        "--sample-interval",
        type=float,
        default=1.0,
        help="seconds between stats() ring-buffer samples (0 disables the sampler)",
    )
    parser.add_argument(
        "--drain-grace",
        type=float,
        default=30.0,
        help="seconds the shutdown drain waits for queued work before exiting anyway",
    )
    parser.add_argument(
        "--slow-requests",
        type=int,
        default=32,
        help="capacity of the slow-request log (top-N traces by duration, "
        "shown on /dashboard and in /v1/stats)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="enable hot-path profiling: per-pass and per-kernel wall-time "
        "counters plus the QASM wire cost (sites gateway.decode and "
        "gateway.encode), exposed in /v1/stats and /metrics",
    )
    parser.add_argument(
        "--json-logs",
        action="store_true",
        help="emit structured JSON logs on stderr (one object per line, "
        "stamped with the request's trace_id)",
    )
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.json_logs:
        from ..obs import configure_json_logging

        configure_json_logging()
    if args.profile:
        from ..profiling import enable_profiling

        enable_profiling()
    registry = TenantRegistry.from_file(args.keys) if args.keys else None
    process_backends = tuple(
        name.strip() for name in args.process_backends.split(",") if name.strip()
    )
    store = None
    if args.cache_server:
        from pathlib import Path

        from ..service import ShardedCacheStore, SharedCacheStore

        if not args.cache_authkey_file:
            parser = _build_parser()
            parser.error("--cache-server requires --cache-authkey-file")
        authkey = bytes.fromhex(Path(args.cache_authkey_file).read_text().strip())
        shards = []
        for endpoint in args.cache_server:
            host, _, port = endpoint.rpartition(":")
            shards.append(SharedCacheStore((host, int(port)), authkey))
        store = shards[0] if len(shards) == 1 else ShardedCacheStore(shards)
    service = CompileService(
        store=store,
        process_backends=process_backends,
        max_workers=args.service_workers,
        min_workers=args.min_workers,
        cache_size=args.cache_size,
    )
    gateway = GatewayServer(
        service,
        tenants=registry,
        host=args.host,
        port=args.port,
        sync_timeout=args.sync_timeout,
        sample_interval=args.sample_interval,
        slow_requests=args.slow_requests,
    )
    print(f"repro gateway listening on {gateway.url}", flush=True)
    print(f"dashboard: {gateway.url}/dashboard", flush=True)
    if registry is None:
        print("open mode: no API keys configured (development only)", flush=True)
    else:
        described = ", ".join(
            f"{t.name} (weight {t.weight:g}{', admin' if t.admin else ''})"
            for t in registry.tenants()
        )
        print(f"tenants: {described}", flush=True)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        print("draining gateway ...", flush=True)
        gateway.begin_drain(args.drain_grace)
        deadline = time.monotonic() + args.drain_grace
        while gateway.state == "draining" and time.monotonic() < deadline:
            time.sleep(0.1)
        gateway.close()
        service.shutdown(drain=False)
        print(f"gateway stopped ({gateway.state})", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
