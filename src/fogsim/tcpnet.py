"""Wall-clock kernel that carries envelopes over loopback TCP.

RealtimeKernel has the simulated kernel's surface (topology, now,
schedule, schedule_at, bind, unbind, is_bound, send, run, close, traffic) but
advances with the wall clock, so ``Runtime(config, kernel=RealtimeKernel)``
runs a deployment over TCP; the CLI drives the simulated kernel.  The
topology seeds the masters' views and discovery; no link model applies.
``traffic`` counts frames, their encoded bytes and unbound-destination
drops per payload type.  Virtual addresses keep their (host, port) form;
each bound address gets its own loopback listener and the kernel keeps a
directory from virtual address to real port.  One TCP connection per
(source, destination) pair preserves the per-pair FIFO order the
simulated kernel gives.  Frames on the wire are the codec's canonical
length-prefixed envelopes.

One selector loop, on the thread that calls run(), fires timers, accepts,
reads, writes and hands each decoded envelope straight to the handler
bound at its destination.  No thread is started and no socket call
blocks: send() only appends the frame to its connection's outbound
buffer, and the loop writes it out as the socket accepts bytes.  A peer
cannot abort run(): a socket error closes that connection, and a frame
that fails to decode closes its inbound connection and is counted in
``bad_frames``.  An exception raised by a handler propagates out of run();
the envelopes already read behind it are handed over when run() resumes.
"""
from __future__ import annotations

import errno
import functools
import heapq
import math
import selectors
import socket
import time
from collections import defaultdict

from . import protocol
from .errors import ProtocolError
from .netsim import Traffic, _Event
from .protocol import Address, FrameBuffer, MessageEnvelope

__all__ = ["RealtimeKernel"]

_RECV_BYTES = 65536


class RealtimeKernel:
    """Wall-clock kernel with the simulated kernel's surface, over loopback TCP."""

    def __init__(self, topology=None):
        self.topology = topology
        self.bad_frames = 0
        self.traffic: defaultdict[type, Traffic] = defaultdict(Traffic)  # by payload type
        self._t0 = time.monotonic()
        self._timers: list[tuple[float, int, _Event]] = []
        self._seq = 0
        self._selector = selectors.DefaultSelector()
        # bound address -> its handler and its loopback listener
        self._endpoints: dict[Address, tuple[object, socket.socket]] = {}
        # (source, destination) -> connected socket and its unsent bytes
        self._conns: dict[tuple[Address, Address], tuple[socket.socket, bytearray]] = {}

    @property
    def now(self) -> float:
        return (time.monotonic() - self._t0) * 1000.0

    # -- timers ---------------------------------------------------------------

    def schedule(self, delay_ms: float, action) -> _Event:
        return self.schedule_at(self.now + max(0.0, delay_ms), action)

    def schedule_at(self, when: float, action) -> _Event:
        timer = _Event(action)
        heapq.heappush(self._timers, (when, self._seq, timer))
        self._seq += 1
        return timer

    # -- endpoints ---------------------------------------------------------------

    def bind(self, addr: Address, handler) -> None:
        if addr in self._endpoints:
            raise ValueError(f"address {addr} already bound")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(("127.0.0.1", 0))
        listener.listen(socket.SOMAXCONN)
        listener.setblocking(False)
        self._selector.register(listener, selectors.EVENT_READ, functools.partial(self._accept, listener))
        self._endpoints[addr] = (handler, listener)

    def unbind(self, addr: Address) -> None:
        endpoint = self._endpoints.pop(addr, None)
        if endpoint is not None:
            self._discard(endpoint[1])
        # Close the connections into addr (frames still queued for it would be
        # dropped on arrival anyway) and the idle ones out of it; the receiving
        # ends see EOF and close too.  A connection out of addr that still holds
        # unsent bytes stays open so those bytes arrive, as they would in the
        # simulated kernel.
        for pair in [pair for pair in self._conns if addr in pair]:
            sock, pending = self._conns[pair]
            if pair[1] == addr or not pending:
                del self._conns[pair]
                self._discard(sock)

    def is_bound(self, addr: Address) -> bool:
        return addr in self._endpoints

    # -- sending ---------------------------------------------------------------

    def send(self, envelope: MessageEnvelope) -> None:
        frame = protocol.encode(envelope)
        traffic = self.traffic[type(envelope.payload)]
        traffic.sent += 1
        traffic.bytes += len(frame)
        endpoint = self._endpoints.get(envelope.destination)
        if endpoint is None:
            traffic.dropped += 1  # same as the simulated kernel: unbound destinations drop
            return
        pair = (envelope.source, envelope.destination)
        if pair not in self._conns:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if sock.connect_ex(endpoint[1].getsockname()) not in (0, errno.EINPROGRESS):
                sock.close()
                traffic.dropped += 1
                return
            self._conns[pair] = (sock, bytearray())
        sock, pending = self._conns[pair]
        if not pending:
            self._selector.register(sock, selectors.EVENT_WRITE, functools.partial(self._flush, pair))
        pending += frame

    # -- loop ---------------------------------------------------------------

    def run(self, until_ms: float = math.inf, stop_when=None) -> float:
        """Fires timers and moves envelopes until the deadline or stop condition."""

        while True:
            if stop_when is not None and stop_when():
                return self.now
            now = self.now
            if now >= until_ms:
                return now
            while self._timers and self._timers[0][2].action is None:
                heapq.heappop(self._timers)
            if self._timers and self._timers[0][0] <= now:
                timer = heapq.heappop(self._timers)[2]
                action, timer.action = timer.action, None
                action()
                continue
            horizon = min(until_ms, self._timers[0][0]) if self._timers else until_ms
            timeout = None if horizon == math.inf else (horizon - now) / 1000.0
            for key, _ in self._selector.select(timeout):
                key.data()

    def _accept(self, listener: socket.socket) -> None:
        while True:
            try:
                sock, _ = listener.accept()
            except OSError:  # backlog drained, or the listener was unbound mid-batch
                return
            sock.setblocking(False)
            self._selector.register(
                sock, selectors.EVENT_READ, functools.partial(self._read, sock, FrameBuffer())
            )

    def _read(self, sock: socket.socket, frames: FrameBuffer) -> None:
        try:
            data = sock.recv(_RECV_BYTES)
        except BlockingIOError:
            return
        except OSError:
            data = b""
        if not data:
            self._discard(sock)
            return
        frames.append(data)
        self._dispatch(sock, frames)

    def _dispatch(self, sock: socket.socket, frames: FrameBuffer) -> None:
        while True:
            try:
                envelope = frames.pop()
            except ProtocolError:
                self.bad_frames += 1
                self._discard(sock)
                return
            if envelope is None:
                return
            endpoint = self._endpoints.get(envelope.destination)
            if endpoint is None:
                self.traffic[type(envelope.payload)].dropped += 1
                continue
            try:
                endpoint[0](envelope)
            except BaseException:
                # The frames still buffered are handed over when run() resumes.
                self.schedule(0.0, functools.partial(self._dispatch, sock, frames))
                raise

    def _flush(self, pair: tuple[Address, Address]) -> None:
        if pair not in self._conns:
            return  # unbound earlier in this select batch
        sock, pending = self._conns[pair]
        try:
            sent = sock.send(pending)
        except BlockingIOError:
            return
        except OSError:
            del self._conns[pair]
            self._discard(sock)
            return
        del pending[:sent]
        if not pending:
            self._selector.unregister(sock)

    def _discard(self, sock: socket.socket) -> None:
        try:
            self._selector.unregister(sock)
        except (KeyError, ValueError):
            pass  # idle outbound connections are not registered; closed ones have no fd
        sock.close()

    def close(self) -> None:
        """Closes every socket and drops the handlers and pending timers; a second call does nothing."""

        keys = self._selector.get_map()
        if keys is None:  # the selector is already closed
            return
        for key in list(keys.values()):
            key.fileobj.close()
        for sock, _ in self._conns.values():
            sock.close()
        self._selector.close()
        self._endpoints.clear()
        self._conns.clear()
        for _, _, timer in self._timers:
            timer.action = None
        self._timers.clear()
