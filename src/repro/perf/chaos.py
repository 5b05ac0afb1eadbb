"""Infrastructure chaos harness for the perf transport layer.

Where :mod:`repro.faults` attacks the *emulated system*, this module
attacks **our own infrastructure** — the framed TCP protocol between
:class:`~repro.perf.backends.sockets.SocketBackend` and
``python -m repro.perf.worker``, and the workers' forked chunk children —
so the supervision layer (:mod:`repro.perf.supervise`) can be proven against
crash, hang, slow and corrupt failures with the same differential
discipline as everything else: every chaos run must produce run reports
byte-identical to the serial backend.

Two fault surfaces:

* :class:`ChaosProxy` — a frame-aware TCP interposer.  Point a backend at
  the proxy and the proxy at a real worker; every length-prefixed frame
  crossing it consults a seeded plan and is forwarded, delayed, truncated
  mid-frame, replaced by garbage bytes of the same length, withheld
  forever (hang), or answered by killing both sockets.  Faults are a pure
  function of ``(seed, connection, direction, frame index)``, so a chaos
  run is replayable from its seed.  Also a CLI for CI::

      python -m repro.perf.chaos --listen 127.0.0.1:9301 \\
          --upstream 127.0.0.1:9201 --seed 7 --kill 0.05 --delay 0.1 --truncate 0.05

  It prints ``repro-chaos-proxy listening on HOST:PORT`` once bound and
  logs every injected fault to stderr (CI captures them as artifacts).

* **fork fault hooks** — ``REPRO_CHAOS_FORK`` (e.g.
  ``seed=7,kill=0.1,hang=0.05,delay=0.1,delay_s=0.05``) arms
  :func:`fork_fault_plan`, which a worker's forked chunk child consults:
  a faulted chunk is killed **mid-chunk** (``os._exit`` halfway through
  its items), hung, or slowed.  Decisions are a pure function of
  ``(seed, first item index of the chunk)`` — independent of how many
  chunks run or in what order, so the same sweep faults the same items at
  every parallelism.

The handshake frames of each connection are protected by default
(``protect_frames=2``): chaos aims at chunk traffic, not at making pools
unconnectable — a pool that can never connect degrades to the caller-side
serial path, which is already covered by the plain backend tests.
"""

from __future__ import annotations

import argparse
import os
import random
import socket
import struct
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "ChaosProxy",
    "apply_fork_fault",
    "fork_fault_plan",
    "main",
    "parse_fork_spec",
]

_LEN = struct.Struct(">Q")

#: Sleep used for "hang" faults — far beyond any sane chunk deadline.
HANG_S = 3600.0


def _log(message: str) -> None:
    print(f"repro-chaos-proxy[{os.getpid()}] {message}", file=sys.stderr, flush=True)


def _shutdown_and_close(sock: socket.socket) -> None:
    # shutdown() before close(): a close alone does not send a FIN while a
    # sibling pump thread is still blocked in recv() on the same socket
    # (the in-flight syscall keeps the kernel's file description alive), so
    # the far end would only notice at its own timeout.  shutdown() tears
    # the connection down immediately and wakes the blocked recv with EOF.
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


# -- the frame-aware TCP interposer ---------------------------------------------


class ChaosProxy:
    """Seeded fault injection between a socket backend and its worker.

    ``kill``/``hang``/``truncate``/``garbage``/``delay`` are per-frame
    probabilities (evaluated in that order from one uniform draw);
    ``delay_s`` is the injected latency.  ``protect_frames`` exempts each
    direction's first frames so ping/pong handshakes succeed.
    """

    def __init__(
        self,
        upstream: Tuple[str, int],
        *,
        seed: int = 0,
        kill: float = 0.0,
        hang: float = 0.0,
        truncate: float = 0.0,
        garbage: float = 0.0,
        delay: float = 0.0,
        delay_s: float = 0.05,
        protect_frames: int = 2,
        listen: Tuple[str, int] = ("127.0.0.1", 0),
        quiet: bool = True,
    ) -> None:
        self.upstream = tuple(upstream)
        self.seed = int(seed)
        self.rates = {
            "kill": kill,
            "hang": hang,
            "truncate": truncate,
            "garbage": garbage,
            "delay": delay,
        }
        self.delay_s = float(delay_s)
        self.protect_frames = int(protect_frames)
        self._listen = tuple(listen)
        self._quiet = quiet
        self._server: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._conn_count = 0
        self._conn_lock = threading.Lock()
        self._stopping = threading.Event()
        self._open_sockets: List[socket.socket] = []
        self.address: Optional[Tuple[str, int]] = None
        self.injected: List[Tuple[int, str, int, str]] = []  # (conn, dir, frame, fault)

    # The decision is a pure function of the identifying coordinates, so a
    # proxy restarted with the same seed injects the same faults.
    def decide(self, conn_index: int, direction: str, frame_index: int) -> str:
        if frame_index < self.protect_frames:
            return "pass"
        rng = random.Random(f"{self.seed}|{conn_index}|{direction}|{frame_index}")
        draw = rng.random()
        cumulative = 0.0
        for fault in ("kill", "hang", "truncate", "garbage", "delay"):
            cumulative += self.rates[fault]
            if draw < cumulative:
                return fault
        return "pass"

    def _garble(self, conn_index: int, direction: str, frame_index: int, size: int) -> bytes:
        rng = random.Random(f"garble|{self.seed}|{conn_index}|{direction}|{frame_index}")
        return bytes(rng.randrange(256) for _ in range(size))

    def start(self) -> Tuple[str, int]:
        self._server = socket.create_server(self._listen)
        self.address = self._server.getsockname()[:2]
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()
        return self.address

    def stop(self) -> None:
        self._stopping.set()
        if self._server is not None:
            try:
                self._server.close()
            except OSError:
                pass
        with self._conn_lock:
            sockets = list(self._open_sockets)
        for sock in sockets:
            _shutdown_and_close(sock)

    def _note(self, conn_index: int, direction: str, frame_index: int, fault: str) -> None:
        self.injected.append((conn_index, direction, frame_index, fault))
        if not self._quiet:
            _log(f"conn {conn_index} {direction} frame {frame_index}: {fault}")

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                client, _peer = self._server.accept()
            except OSError:
                return
            with self._conn_lock:
                conn_index = self._conn_count
                self._conn_count += 1
            try:
                upstream = socket.create_connection(self.upstream, timeout=10.0)
                upstream.settimeout(None)
            except OSError:
                client.close()
                if not self._quiet:
                    _log(f"conn {conn_index}: upstream {self.upstream} unreachable")
                continue
            with self._conn_lock:
                self._open_sockets += [client, upstream]
            closed = threading.Event()
            for src, dst, direction in (
                (client, upstream, "to-worker"),
                (upstream, client, "to-client"),
            ):
                threading.Thread(
                    target=self._pump,
                    args=(src, dst, conn_index, direction, closed),
                    daemon=True,
                ).start()

    @staticmethod
    def _recv_exact(sock: socket.socket, size: int) -> Optional[bytes]:
        chunks: List[bytes] = []
        remaining = size
        while remaining:
            try:
                chunk = sock.recv(min(remaining, 1 << 20))
            except OSError:
                return None
            if not chunk:
                return None
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def _pump(
        self,
        src: socket.socket,
        dst: socket.socket,
        conn_index: int,
        direction: str,
        closed: threading.Event,
    ) -> None:
        frame_index = 0
        try:
            while not closed.is_set():
                header = self._recv_exact(src, _LEN.size)
                if header is None:
                    break
                payload = self._recv_exact(src, _LEN.unpack(header)[0])
                if payload is None:
                    break
                fault = self.decide(conn_index, direction, frame_index)
                if fault != "pass":
                    self._note(conn_index, direction, frame_index, fault)
                frame_index += 1
                if fault == "kill":
                    break
                if fault == "hang":
                    # Withhold the frame until someone closes the pair —
                    # exactly what a wedged worker looks like on the wire.
                    closed.wait(HANG_S)
                    break
                if fault == "delay":
                    time.sleep(self.delay_s)
                elif fault == "truncate":
                    dst.sendall(header + payload[: max(0, len(payload) // 2)])
                    break
                elif fault == "garbage":
                    payload = self._garble(
                        conn_index, direction, frame_index - 1, len(payload)
                    )
                dst.sendall(header + payload)
        except OSError:
            pass
        finally:
            closed.set()
            for sock in (src, dst):
                _shutdown_and_close(sock)


# -- fork-side fault hooks -------------------------------------------------------


def parse_fork_spec(text: str) -> Dict[str, float]:
    """Parse ``REPRO_CHAOS_FORK`` (``seed=7,kill=0.1,hang=0.05,delay=0.1``)."""
    spec: Dict[str, float] = {}
    for entry in text.split(","):
        entry = entry.strip()
        if not entry:
            continue
        key, sep, value = entry.partition("=")
        key = key.strip()
        if not sep or key not in ("seed", "kill", "hang", "delay", "delay_s"):
            raise ValueError(f"bad REPRO_CHAOS_FORK entry {entry!r}")
        spec[key] = float(value)
    return spec


def fork_fault_plan(chunk: Sequence[Tuple[int, Any]]) -> Optional[Dict[str, Any]]:
    """The fault (if any) a forked chunk child must self-inject.

    Armed by ``REPRO_CHAOS_FORK``; returns ``None`` (no fault) or
    ``{"action", "at_item", "delay_s"}`` where ``at_item`` is the position
    within the chunk at which to fault — mid-chunk, so the child has
    partially computed (and must not partially report).  Keyed by the
    chunk's first *item index*, not its chunk number, so the same items
    fault at every parallelism.
    """
    text = os.environ.get("REPRO_CHAOS_FORK", "").strip()
    if not text or not chunk:
        return None
    try:
        spec = parse_fork_spec(text)
    except ValueError:
        return None
    rng = random.Random(f"fork|{int(spec.get('seed', 0))}|{chunk[0][0]}")
    draw = rng.random()
    cumulative = 0.0
    for action in ("kill", "hang", "delay"):
        cumulative += spec.get(action, 0.0)
        if draw < cumulative:
            return {
                "action": action,
                "at_item": rng.randrange(len(chunk)),
                "delay_s": spec.get("delay_s", 0.05),
            }
    return None


def apply_fork_fault(plan: Dict[str, Any]) -> None:
    """Execute a :func:`fork_fault_plan` decision inside the chunk child."""
    action = plan["action"]
    if action == "kill":
        os._exit(9)
    elif action == "hang":
        time.sleep(HANG_S)
        os._exit(9)  # a supervised parent gave up on us long ago
    elif action == "delay":
        time.sleep(plan["delay_s"])


# -- CLI -------------------------------------------------------------------------


def _parse_hostport(text: str) -> Tuple[str, int]:
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"{text!r} is not HOST:PORT")
    return host, int(port_text)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Seeded fault-injecting TCP proxy for the repro.perf worker protocol.",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    parser.add_argument("--listen", default="127.0.0.1:0", metavar="HOST:PORT")
    parser.add_argument("--upstream", required=True, metavar="HOST:PORT")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--kill", type=float, default=0.0, help="frame kill probability")
    parser.add_argument("--hang", type=float, default=0.0, help="frame hang probability")
    parser.add_argument("--truncate", type=float, default=0.0, help="frame truncation probability")
    parser.add_argument("--garbage", type=float, default=0.0, help="frame corruption probability")
    parser.add_argument("--delay", type=float, default=0.0, help="frame delay probability")
    parser.add_argument("--delay-s", type=float, default=0.05, help="injected latency seconds")
    parser.add_argument(
        "--protect", type=int, default=2, help="handshake frames exempt per direction"
    )
    args = parser.parse_args(argv)
    try:
        listen = _parse_hostport(args.listen)
        upstream = _parse_hostport(args.upstream)
    except ValueError as exc:
        print(f"repro-chaos-proxy: {exc}", file=sys.stderr)
        return 2

    proxy = ChaosProxy(
        upstream,
        seed=args.seed,
        kill=args.kill,
        hang=args.hang,
        truncate=args.truncate,
        garbage=args.garbage,
        delay=args.delay,
        delay_s=args.delay_s,
        protect_frames=args.protect,
        listen=listen,
        quiet=False,
    )
    host, port = proxy.start()
    print(f"repro-chaos-proxy listening on {host}:{port}", flush=True)
    _log(
        f"forwarding to {upstream[0]}:{upstream[1]} seed={args.seed} "
        f"rates={proxy.rates} delay_s={proxy.delay_s} protect={proxy.protect_frames}"
    )
    try:
        while True:
            time.sleep(60)
    except KeyboardInterrupt:
        _log("interrupted, exiting")
        proxy.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
