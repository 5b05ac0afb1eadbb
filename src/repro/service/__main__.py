"""``python -m repro.service`` — run the sweep service in the foreground.

Prints a parseable banner (``repro-service listening on HOST:PORT``, the
same convention as ``repro.perf.worker``) once the API is bound, then
serves until SIGINT/SIGTERM.  With ``--log-dir``, the structured JSONL
service log lands at ``<dir>/service.jsonl`` next to the per-worker pool
logs (and the pool workers, forked from the service, append to the same
file).
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
from typing import List, Optional

from repro.obs import log as obs_log
from repro.service.admission import AdmissionPolicy
from repro.service.server import JobService


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Serve experiment/sweep submissions over HTTP.",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument("--port", type=int, default=8642,
                        help="bind port (0 picks a free one)")
    parser.add_argument(
        "--pool", type=int, default=0, metavar="N",
        help="spawn N long-lived warm workers; jobs without a pinned "
             "backend run their sweeps on this pool",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="default store directory for jobs that do not pin one "
             "(reported in summary.cache.persistent; no job reads or writes it yet)",
    )
    parser.add_argument("--max-active", type=int, default=16,
                        help="admission bound: queued+running jobs, all tenants")
    parser.add_argument("--tenant-quota", type=int, default=4,
                        help="admission bound: queued+running jobs per tenant")
    parser.add_argument("--retry-after", type=float, default=2.0,
                        help="Retry-After seconds sent with 429 rejections")
    parser.add_argument(
        "--log-dir", default=None, metavar="DIR",
        help="write per-worker pool logs and the structured JSONL service "
             "log (service.jsonl) into this directory",
    )
    parser.add_argument(
        "--job-ttl", type=float, default=None, metavar="SECONDS",
        help="evict finished jobs older than this (default: no age bound)",
    )
    parser.add_argument(
        "--max-done", type=int, default=512, metavar="N",
        help="keep at most N finished jobs (oldest evicted first)",
    )
    args = parser.parse_args(argv)

    if args.log_dir:
        # Configure before anything else logs, so the pool workers forked
        # below reopen the same JSONL file.
        obs_log.configure(os.path.join(args.log_dir, "service.jsonl"))

    service = JobService(
        pool=args.pool,
        cache_dir=args.cache_dir,
        policy=AdmissionPolicy(
            max_active=args.max_active,
            max_active_per_tenant=args.tenant_quota,
            retry_after_s=args.retry_after,
        ),
        log_dir=args.log_dir,
        job_ttl_s=args.job_ttl,
        max_done=args.max_done,
    )
    service.start()
    host, port = service.serve_http(args.host, args.port)
    print(f"repro-service listening on {host}:{port}", flush=True)

    stop = threading.Event()

    def _shutdown(_signum, _frame) -> None:
        stop.set()

    signal.signal(signal.SIGINT, _shutdown)
    signal.signal(signal.SIGTERM, _shutdown)
    while not stop.is_set():
        stop.wait(0.5)
    print("repro-service shutting down", flush=True)
    service.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
