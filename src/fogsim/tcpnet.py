"""Real TCP transport over loopback, plus a wall-clock kernel to drive it.

Virtual addresses keep their (host, port) form; each bound address gets
its own loopback listener and the transport keeps a directory from
virtual address to real port. One TCP connection per (source,
destination) pair preserves the same per-pair FIFO guarantee the
simulated kernel gives. Frames on the wire are the canonical
length-prefixed envelopes from the codec.

RealtimeKernel mirrors the simulated kernel's surface (now, schedule,
bind, send, run) but advances with the wall clock and dispatches every
handler on the thread that called run(), so components stay effectively
single-threaded.
"""
from __future__ import annotations

import heapq
import queue
import socket
import threading
import time

from . import protocol
from .netsim import _Event
from .protocol import Address, FrameBuffer, MessageEnvelope

__all__ = ["TcpTransport", "RealtimeKernel"]

_BACKLOG = 32
_RECV_BYTES = 65536


class TcpTransport:
    """Loopback TCP carrier with one ordered stream per (source, destination)."""

    def __init__(self):
        self._lock = threading.RLock()
        self._listeners: dict[Address, socket.socket] = {}
        self._ports: dict[Address, int] = {}
        self._handlers: dict[Address, object] = {}
        self._conns: dict[tuple, socket.socket] = {}
        self._conn_locks: dict[tuple, threading.Lock] = {}
        self._threads: list[threading.Thread] = []
        self._closed = False

    # -- binding -------------------------------------------------------------

    def bind(self, addr: Address, handler) -> None:
        with self._lock:
            if self._closed:
                raise RuntimeError("transport is closed")
            if addr in self._listeners:
                raise ValueError(f"{addr} is already bound")
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind(("127.0.0.1", 0))
            listener.listen(_BACKLOG)
            self._listeners[addr] = listener
            self._ports[addr] = listener.getsockname()[1]
            self._handlers[addr] = handler
        thread = threading.Thread(target=self._accept_loop, args=(addr, listener), daemon=True)
        thread.start()
        with self._lock:
            self._threads.append(thread)

    def unbind(self, addr: Address) -> None:
        with self._lock:
            listener = self._listeners.pop(addr, None)
            self._ports.pop(addr, None)
            self._handlers.pop(addr, None)
        if listener is not None:
            _quiet_close(listener)

    def is_bound(self, addr: Address) -> bool:
        with self._lock:
            return addr in self._listeners

    # -- sending ---------------------------------------------------------------

    def send(self, envelope: MessageEnvelope) -> None:
        frame = protocol.encode(envelope)
        key = (envelope.source, envelope.destination)
        with self._lock:
            if self._closed:
                raise RuntimeError("transport is closed")
            port = self._ports.get(envelope.destination)
            if port is None:
                return  # same as the simulated kernel: unbound destinations drop
            conn = self._conns.get(key)
            if conn is None:
                conn = socket.create_connection(("127.0.0.1", port))
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self._conns[key] = conn
                self._conn_locks[key] = threading.Lock()
            conn_lock = self._conn_locks[key]
        try:
            with conn_lock:
                conn.sendall(frame)
        except OSError:
            with self._lock:
                self._conns.pop(key, None)
                self._conn_locks.pop(key, None)
            raise

    # -- receiving ---------------------------------------------------------------

    def _accept_loop(self, addr: Address, listener: socket.socket) -> None:
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:
                return
            thread = threading.Thread(target=self._read_loop, args=(addr, conn), daemon=True)
            thread.start()
            with self._lock:
                self._threads.append(thread)

    def _read_loop(self, addr: Address, conn: socket.socket) -> None:
        buffer = FrameBuffer()
        try:
            while True:
                data = conn.recv(_RECV_BYTES)
                if not data:
                    return
                for envelope in buffer.feed(data):
                    with self._lock:
                        handler = self._handlers.get(envelope.destination, self._handlers.get(addr))
                    if handler is not None:
                        handler(envelope)
        except OSError:
            return
        finally:
            _quiet_close(conn)

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            self._closed = True
            listeners = list(self._listeners.values())
            conns = list(self._conns.values())
            self._listeners.clear()
            self._ports.clear()
            self._handlers.clear()
            self._conns.clear()
            self._conn_locks.clear()
            threads = list(self._threads)
        for sock in listeners + conns:
            _quiet_close(sock)
        for thread in threads:
            thread.join(timeout=1.0)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def _quiet_close(sock: socket.socket) -> None:
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


class RealtimeKernel:
    """Wall-clock driver with the simulated kernel's surface over TCP."""

    def __init__(self, transport: TcpTransport | None = None):
        self.transport = transport or TcpTransport()
        self.topology = None
        self._t0 = time.monotonic()
        self._timers: list[_Event] = []
        self._seq = 0
        self._inbox: queue.Queue = queue.Queue()
        self._handlers: dict[Address, object] = {}
        self._lock = threading.Lock()

    @property
    def now(self) -> float:
        return (time.monotonic() - self._t0) * 1000.0

    # -- timers ---------------------------------------------------------------

    def schedule(self, delay_ms: float, action) -> _Event:
        return self.schedule_at(self.now + max(0.0, delay_ms), action)

    def schedule_at(self, when: float, action) -> _Event:
        with self._lock:
            timer = _Event(when, self._seq, action)
            self._seq += 1
            heapq.heappush(self._timers, timer)
        return timer

    # -- messaging ---------------------------------------------------------------

    def bind(self, addr: Address, handler) -> None:
        with self._lock:
            self._handlers[addr] = handler
        self.transport.bind(addr, self._inbox.put)

    def unbind(self, addr: Address) -> None:
        with self._lock:
            self._handlers.pop(addr, None)
        self.transport.unbind(addr)

    def is_bound(self, addr: Address) -> bool:
        return self.transport.is_bound(addr)

    def send(self, envelope: MessageEnvelope) -> None:
        envelope.sent_at = self.now
        self.transport.send(envelope)

    # -- loop ---------------------------------------------------------------

    def _due_timer(self) -> _Event | None:
        with self._lock:
            while self._timers:
                if self._timers[0].cancelled:
                    heapq.heappop(self._timers)
                    continue
                if self._timers[0].time <= self.now:
                    return heapq.heappop(self._timers)
                return None
        return None

    def _next_deadline(self) -> float | None:
        with self._lock:
            while self._timers and self._timers[0].cancelled:
                heapq.heappop(self._timers)
            return self._timers[0].time if self._timers else None

    def run(self, until_ms: float = float("inf"), stop_when=None) -> float:
        """Dispatches timers and inbound envelopes until the deadline passes."""

        while True:
            if stop_when is not None and stop_when():
                return self.now
            if self.now >= until_ms:
                return self.now
            timer = self._due_timer()
            if timer is not None:
                timer.action()
                continue
            try:
                envelope = self._inbox.get(timeout=self._wait_ms(until_ms) / 1000.0)
            except queue.Empty:
                continue
            with self._lock:
                handler = self._handlers.get(envelope.destination)
            if handler is not None:
                handler(envelope)

    def _wait_ms(self, until_ms: float) -> float:
        deadline = self._next_deadline()
        horizon = min(until_ms, deadline) if deadline is not None else until_ms
        return min(max(horizon - self.now, 0.001), 50.0)

    def close(self) -> None:
        self.transport.close()
