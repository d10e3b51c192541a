"""The campaign service's HTTP front end (stdlib-only).

A :class:`ServiceApp` bundles a :class:`~repro.service.scheduler.Scheduler`
with a ``ThreadingHTTPServer`` serving a small JSON REST API:

====================================  =========================================
``POST /campaigns``                   submit a campaign spec (429 when full)
``GET  /campaigns``                   list campaigns
``GET  /campaigns/{id}``              one campaign's status
``POST /campaigns/{id}/cancel``       request cancellation
``GET  /campaigns/{id}/events``       live progress: long-poll JSON
                                      (``?after=N&timeout=S``) or SSE
                                      (``?stream=1`` / Accept:
                                      ``text/event-stream``)
``POST /fabric/lease``                worker claims a task (coordinator only)
``POST /fabric/tasks/{id}/heartbeat`` extend a lease + ship progress
``POST /fabric/tasks/{id}/complete``  finish a task (optional result bundle)
``POST /fabric/tasks/{id}/fail``      report a failure (retryable or not)
``GET  /fabric/status``               queue depth, tenants, live leases
``GET  /runs``                        stored runs with row counts
``GET  /runs/{name}/metrics.json``    one run's metric rows (also ``.csv``)
``GET  /runs/{a}/diff/{b}``           run diff (moves + verdict flips)
``GET  /runs/{name}/heatmap.svg``     SVG heatmap straight from the store
``GET  /runs/{name}/peer-matrix.svg`` SVG peer-conformance matrix panel
``GET  /healthz``                     liveness + store integrity
``GET  /metrics``                     Prometheus text exposition
====================================  =========================================

Route handlers live in :class:`~repro.service.router.ServiceRouter`;
this module is only the threaded transport.  The fabric endpoints are
served when the app's scheduler is a
:class:`~repro.fabric.coordinator.Coordinator` (pass one via the
``scheduler`` argument, or use ``repro fabric serve``); a plain
single-process scheduler 404s them.

Run names may contain ``:`` and other URL-hostile characters; path
segments are percent-decoded, so clients should quote them.

Read endpoints open a fresh :class:`~repro.store.ResultStore` per
request — SQLite connections are thread-bound and ``ThreadingHTTPServer``
handles each request on its own thread; WAL mode makes the concurrent
readers cheap and safe.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import parse_qs, unquote, urlparse

from repro.service.router import (
    MAX_BODY_BYTES,
    EventStream,
    LongPoll,
    Response,
    ServiceRouter,
    error_response,
    sse_chunk,
    sse_final,
)
from repro.service.scheduler import Scheduler, TERMINAL_STATES


class ServiceApp:
    """The long-running campaign service: scheduler + HTTP server."""

    def __init__(
        self,
        store_path: str,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 1,
        exec_jobs: int = 1,
        max_pending: int = 64,
        resume: bool = True,
        scheduler: Optional[Scheduler] = None,
    ):
        self.store_path = str(store_path)
        self.scheduler = scheduler or Scheduler(
            store_path=store_path,
            workers=workers,
            exec_jobs=exec_jobs,
            max_pending=max_pending,
        )
        self.resumed = self.scheduler.resume_pending() if resume else []
        self.router = ServiceRouter(self.store_path, self.scheduler)
        handler = type("_BoundHandler", (_Handler,), {"app": self})
        self.server = ThreadingHTTPServer((host, port), handler)
        self.server.daemon_threads = True
        self._thread: Optional[threading.Thread] = None
        self._stopped = threading.Event()

    # ----------------------------------------------------------- lifecycle

    @property
    def address(self) -> Tuple[str, int]:
        return self.server.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> None:
        """Serve requests on a background thread (returns immediately)."""
        self._thread = threading.Thread(
            target=self.server.serve_forever,
            name="repro-service-http",
            daemon=True,
        )
        self._thread.start()

    def stop(self, drain: bool = False) -> None:
        """Shut down: stop the scheduler, then stop accepting.

        ``drain=True`` finishes every queued campaign first; ``False``
        (the SIGTERM path) finishes only in-flight campaigns and leaves
        the rest journaled for the next instance to resume.  The
        scheduler goes first: ``server.shutdown()`` waits out a poll
        interval, long enough for a queued campaign to start, and while
        the scheduler winds down watchers (and fabric workers) still
        reach the API; new submits are already refused.
        """
        self.scheduler.shutdown(drain=drain)
        if self._thread is not None:
            # shutdown() handshakes with serve_forever; calling it on a
            # server that never started would block forever.
            self.server.shutdown()
        self.server.server_close()
        self._stopped.set()

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT => graceful drain (finish in-flight, keep queue)."""
        import signal

        def _terminate(signum, frame):
            # Stop on a helper thread: SIGTERM may arrive on the thread
            # blocked in serve_forever (or wait()), and server.shutdown()
            # deadlocks when called from the serving thread itself.
            threading.Thread(
                target=self.stop, kwargs={"drain": False}, daemon=True
            ).start()

        signal.signal(signal.SIGTERM, _terminate)
        signal.signal(signal.SIGINT, _terminate)

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until :meth:`stop` completes (True) or timeout (False)."""
        return self._stopped.wait(timeout)


class _Handler(BaseHTTPRequestHandler):
    """Threaded transport: parse, delegate to the router, write bytes."""

    app: ServiceApp
    protocol_version = "HTTP/1.1"
    server_version = "repro-service"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # quiet by default; telemetry flows through /metrics

    # ------------------------------------------------------------- plumbing

    def _segments(self):
        parsed = urlparse(self.path)
        self.query = {
            key: values[-1] for key, values in parse_qs(parsed.query).items()
        }
        return [unquote(part) for part in parsed.path.split("/") if part]

    def _respond(self, response: Response):
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(response.body)))
        for name, value in response.headers.items():
            self.send_header(name.replace("_", "-"), str(value))
        self.end_headers()
        try:
            self.wfile.write(response.body)
        except (BrokenPipeError, ConnectionResetError):
            pass

    def _body_json(self):
        """The decoded JSON body, or the error :class:`Response` to send."""
        length = self.headers.get("Content-Length") or "0"
        # A rejected length leaves the body unread on the socket, so the
        # connection cannot carry another request.
        if not length.isdecimal():
            return error_response(
                400, f"invalid Content-Length: {length!r}", Connection="close"
            )
        if int(length) > MAX_BODY_BYTES:
            return error_response(
                413, "request body too large", Connection="close"
            )
        raw = self.rfile.read(int(length))
        try:
            return json.loads(raw.decode() or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return error_response(
                400, f"request body is not valid JSON: {exc}"
            )

    # ------------------------------------------------------------- routing

    def do_GET(self):  # noqa: N802 - stdlib naming
        router = self.app.router
        result = router.handle_get(
            self._segments(), self.query, self.headers.get("Accept") or ""
        )
        if isinstance(result, LongPoll):
            # Block this request thread until events arrive or timeout.
            events = self.app.scheduler.wait_events(
                result.campaign_id, after=result.after, timeout=result.timeout
            )
            result = router.events_page(result.campaign_id, result.after, events)
        elif isinstance(result, EventStream):
            return self._sse(result.campaign_id, result.after)
        self._respond(result)

    def do_POST(self):  # noqa: N802 - stdlib naming
        parts = self._segments()
        payload = self._body_json()
        if isinstance(payload, Response):
            return self._respond(payload)
        self._respond(self.app.router.handle_post(parts, self.query, payload))

    # ------------------------------------------------------------------ SSE

    def _sse(self, campaign_id: str, after: int):
        """Server-sent events until the campaign reaches a terminal state."""
        scheduler = self.app.scheduler
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()
        cursor = after
        try:
            while True:
                events = scheduler.wait_events(
                    campaign_id, after=cursor, timeout=15.0
                )
                if events:
                    self.wfile.write(sse_chunk(events))
                cursor += len(events)
                self.wfile.flush()
                job = scheduler.job(campaign_id)
                if job is None:
                    return
                if job.state in TERMINAL_STATES and len(job.events) <= cursor:
                    self.wfile.write(sse_final(job.snapshot()))
                    self.wfile.flush()
                    return
                if not events:
                    self.wfile.write(sse_chunk([]))
                    self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            return  # client went away mid-stream


__all__ = ["ServiceApp"]
