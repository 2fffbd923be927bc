"""``python -m repro.service`` — run and talk to the simulation service.

Subcommands::

    serve      start a job server on a unix socket
    ping       liveness + protocol version check
    submit     submit one experiment request (kernel flags or raw JSON)
    status     one job's state
    fetch      a finished job's artifact (stdout or --out file)
    subscribe  stream a job's progress events as NDJSON
    metrics    the server's operational metrics as JSON
    swarm      seeded synthetic client swarm (load test + report)
    shutdown   ask the server to drain gracefully

Exit codes: 0 success; 1 typed service/request errors; 75 (EX_TEMPFAIL)
for a ServiceBusy rejection — scripts can distinguish "retry later"
from "this request is wrong".  A signal-terminated server exits
``128+signum`` after its graceful drain.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.bench.runner import artifact_text, default_cache_dir
from repro.service.client import ServiceClient
from repro.service.protocol import ServiceBusy, ServiceError
from repro.service.server import ServiceConfig, serve
from repro.service.swarm import render_timing, run_swarm

DEFAULT_SOCKET = ".repro-service.sock"


def _add_socket(p: argparse.ArgumentParser) -> None:
    p.add_argument("--socket", default=DEFAULT_SOCKET,
                   help=f"unix socket path (default {DEFAULT_SOCKET})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="simulation-as-a-service job server and client",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("serve", help="start a job server")
    _add_socket(p)
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--queue-bound", type=int, default=16,
                   help="admission queue bound (full queue => ServiceBusy)")
    p.add_argument("--cache-dir", default=None,
                   help="result cache dir (default: the sweep CLI's)")
    p.add_argument("--no-cache", action="store_true",
                   help="serve without a disk cache (single-flight only)")
    p.add_argument("--drain-grace-s", type=float, default=30.0,
                   help="graceful-drain budget at shutdown")

    p = sub.add_parser("ping", help="liveness check")
    _add_socket(p)

    p = sub.add_parser("submit", help="submit one experiment request")
    _add_socket(p)
    p.add_argument("--json", dest="raw_json", default=None,
                   help="raw request object (overrides kernel flags)")
    p.add_argument("--kernel", default=None, help="kernel name")
    p.add_argument("--npb-class", default="S")
    p.add_argument("--nprocs", type=int, default=4)
    p.add_argument("--nodes", type=int, default=8)
    p.add_argument("--ppn", type=int, default=1)
    p.add_argument("--profile", default="clan")
    p.add_argument("--connection", default="ondemand")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--wait", action="store_true",
                   help="block until done and print the artifact")
    p.add_argument("--out", default=None,
                   help="with --wait: write the artifact here instead")
    p.add_argument("--timeout-s", type=float, default=600.0)

    for name, help_text in (
        ("status", "one job's state"),
        ("fetch", "a finished job's artifact"),
        ("subscribe", "stream a job's progress events"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_socket(p)
        p.add_argument("id", help="job id (the content-addressed key)")
        if name == "fetch":
            p.add_argument("--out", default=None,
                           help="write artifact to file instead of stdout")

    p = sub.add_parser("metrics", help="server metrics as JSON")
    _add_socket(p)

    p = sub.add_parser("swarm", help="seeded synthetic client swarm")
    _add_socket(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--clients", type=int, default=20)
    p.add_argument("--requests-per-client", type=int, default=3)
    p.add_argument("--timeout-s", type=float, default=300.0)
    p.add_argument("--out", default=None,
                   help="report path (default SWARM_<seed>.json)")
    p.add_argument("--expect-cold", action="store_true",
                   help="assert executions == unique keys (cold cache)")

    p = sub.add_parser("shutdown", help="graceful drain + exit")
    _add_socket(p)

    return parser


def _cmd_serve(args: argparse.Namespace) -> int:
    cache_dir = None if args.no_cache else (
        args.cache_dir or str(default_cache_dir()))
    config = ServiceConfig(
        socket_path=args.socket,
        workers=args.workers,
        queue_bound=args.queue_bound,
        cache_dir=cache_dir,
        drain_grace_s=args.drain_grace_s,
    )
    return serve(config, install_signal_handlers=True)


def _cmd_submit(args: argparse.Namespace) -> int:
    if args.raw_json is not None:
        request = json.loads(args.raw_json)
    elif args.kernel is not None:
        request = {
            "type": "kernel", "kernel": args.kernel,
            "npb_class": args.npb_class, "nprocs": args.nprocs,
            "nodes": args.nodes, "ppn": args.ppn,
            "profile": args.profile, "connection": args.connection,
            "seed": args.seed,
        }
    else:
        print("submit needs --json or --kernel", file=sys.stderr)
        return 2
    with ServiceClient(args.socket, timeout_s=args.timeout_s) as client:
        resp = client.submit(request)
        print(json.dumps(resp, sort_keys=True))
        if args.wait:
            text = client.wait_and_fetch(resp["id"], timeout_s=args.timeout_s)
            if args.out:
                Path(args.out).write_text(text)
                print(f"wrote {args.out}", file=sys.stderr)
            else:
                sys.stdout.write(text)
    return 0


def _cmd_swarm(args: argparse.Namespace) -> int:
    report, timing = run_swarm(
        args.socket, seed=args.seed, clients=args.clients,
        requests_per_client=args.requests_per_client,
        timeout_s=args.timeout_s,
    )
    out = Path(args.out or f"SWARM_{args.seed}.json")
    out.write_text(artifact_text(report))
    print(f"wrote {out}  ({report['requests']} requests, "
          f"{report['unique_keys']} unique keys, "
          f"{report['executions']} executions)")
    print(render_timing(timing), file=sys.stderr)
    if report["states"] != {"done": report["requests"]}:
        print(f"swarm saw non-done outcomes: {report['states']}",
              file=sys.stderr)
        return 1
    if args.expect_cold and report["executions"] != report["unique_keys"]:
        print(
            f"expected cold cache: executions={report['executions']} "
            f"!= unique_keys={report['unique_keys']}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.cmd == "serve":
            return _cmd_serve(args)
        if args.cmd == "submit":
            return _cmd_submit(args)
        if args.cmd == "swarm":
            return _cmd_swarm(args)
        with ServiceClient(args.socket) as client:
            if args.cmd == "ping":
                print(json.dumps(client.ping(), sort_keys=True))
            elif args.cmd == "status":
                print(json.dumps(client.status(args.id), sort_keys=True))
            elif args.cmd == "fetch":
                text = client.fetch(args.id)
                if args.out:
                    Path(args.out).write_text(text)
                    print(f"wrote {args.out}", file=sys.stderr)
                else:
                    sys.stdout.write(text)
            elif args.cmd == "subscribe":
                for event in client.subscribe(args.id):
                    print(json.dumps(event, sort_keys=True), flush=True)
            elif args.cmd == "metrics":
                print(json.dumps(client.metrics(), sort_keys=True, indent=2))
            elif args.cmd == "shutdown":
                print(json.dumps(client.shutdown(), sort_keys=True))
        return 0
    except ServiceBusy as exc:
        print(f"ServiceBusy: {exc} "
              f"(queue {exc.queue_depth}/{exc.queue_bound})",
              file=sys.stderr)
        return 75
    except ServiceError as exc:
        print(f"{exc.error}: {exc}", file=sys.stderr)
        return 1
    except (ConnectionRefusedError, FileNotFoundError) as exc:
        print(f"cannot reach service socket: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
