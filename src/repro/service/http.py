"""Fault-tolerant HTTP/1.1 + SSE gateway over the solver service.

This is the network front end the ROADMAP's service line has been
building toward: a **dependency-free** asyncio HTTP server in front of
:class:`~repro.service.supervisor.Supervisor`, written on the premise
that the network is a fault domain with explicit semantics — not a
transparent pipe:

* **Idempotent submission** — ``POST /v1/jobs`` keys on
  :meth:`JobSpec.content_key`.  A client retrying a timed-out submit
  attaches to the live (or settled) job instead of double-solving; the
  response carries a ``replayed`` marker and the original job id.
* **Reconnect-resumable streams** — ``GET /v1/jobs/{key}/events``
  serves :class:`IncumbentEvent`\\ s as SSE with monotone event ids
  from the job's persistent :class:`~repro.service.sse.EventJournal`.
  ``Last-Event-ID`` replays everything the client missed — across
  dropped connections, worker crashes, *and gateway restarts* — with
  no duplicates and no gaps, ending in a terminal ``result`` event.
* **Typed degradation** — :class:`BackpressureError` maps to ``429`` +
  ``Retry-After``; :class:`AdmissionError` to ``429`` with the tenant
  budget detail; a ledger-drift failure to ``500`` with the receipt
  quarantined; malformed requests to ``400``; a draining gateway to
  ``503``.  Slow readers are **evicted** (bounded send queues + a
  write deadline) instead of backing the supervisor up.
* **Graceful drain** — :meth:`Gateway.close` stops accepting, lets
  in-flight responses finish, and closes SSE streams with a shutdown
  comment; the CLI pairs it with ``Supervisor.shutdown(drain=False)``
  so workers suspend to resumable journals.

The failure-mode -> status-code mapping is deliberately small and
total: every path out of a request ends in exactly one of
``200/201/400/404/405/429/500/503``.

:class:`GatewayClient` is the matching stdlib-only client: submission
retries and stream reconnects both back off through a
:class:`~repro.resilience.RetryPolicy`, and the event loop enforces the
monotone-id contract as it consumes.
"""

from __future__ import annotations

import asyncio
import json
import time
from pathlib import Path
from urllib.parse import urlsplit

from .jobs import AdmissionError, BackpressureError, Job, JobSpec, ServiceError
from .sse import EventJournal, encode_comment, encode_event, parse_sse_stream

__all__ = [
    "DropConnection",
    "Gateway",
    "GatewayClient",
    "GatewayError",
]

#: Upper bounds on one request; beyond them the request is a 400.
_MAX_REQUEST_LINE = 8192
_MAX_HEADERS = 100
_MAX_BODY = 1 << 20
#: Seconds a keep-alive-less client gets to deliver its request.
_REQUEST_TIMEOUT_S = 10.0

_REASONS = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class GatewayError(ServiceError):
    """Client-side: the gateway answered with a failure status."""

    def __init__(self, status: int, body: dict | None = None) -> None:
        self.status = status
        self.body = body or {}
        detail = self.body.get("error") or _REASONS.get(status, "")
        super().__init__(f"gateway returned {status}: {detail}")

    @property
    def retry_after_s(self) -> float | None:
        value = self.body.get("retry_after_s")
        return float(value) if value is not None else None


class DropConnection(Exception):
    """Raised by an ``on_event`` hook to script a mid-stream drop
    (chaos harness); the client treats it exactly like a lost socket."""


class _BadRequest(Exception):
    """Internal: request parsing failed; message is client-safe."""


class Gateway:
    """Asyncio HTTP/1.1 + SSE front end for one :class:`Supervisor`."""

    def __init__(self, supervisor, host: str = "127.0.0.1", port: int = 0) -> None:
        self.supervisor = supervisor
        self.host = host
        self.port = port
        self.journal_dir = supervisor.workdir / "gateway-events"
        self.quarantine_dir = supervisor.workdir / "quarantine"
        self.journal_dir.mkdir(parents=True, exist_ok=True)
        self._journals: dict[str, EventJournal] = {}
        self._jobs: dict[str, Job] = {}
        self._pumps: dict[str, asyncio.Task] = {}
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.Task] = set()
        self._shutdown = asyncio.Event()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind and serve; returns the bound (host, port)."""
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        return self.host, self.port

    async def stop_accepting(self) -> None:
        """First half of the drain: no new requests, finish in-flight.

        SSE streams observe the shutdown event, write a final comment,
        and close — their clients reconnect (to this gateway's
        successor) with ``Last-Event-ID`` and lose nothing, because the
        journal on disk is the source of truth.
        """
        self._shutdown.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)

    async def close(self) -> None:
        """Full drain: stop accepting, let pumps settle, close journals.

        The pumps finish only once their jobs settle, so when shutdown
        is what settles them (``Supervisor.shutdown(drain=False)``
        suspending workers), call :meth:`stop_accepting` first, shut the
        supervisor down, and *then* call this.
        """
        await self.stop_accepting()
        for pump in self._pumps.values():
            if not pump.done():
                # The pump drains the job's event queue; jobs themselves
                # are settled by the supervisor's own completion or
                # shutdown path.
                await pump
        for journal in self._journals.values():
            journal.close()
        self._journals.clear()

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _count(self, metric: str, amount: float = 1) -> None:
        self.supervisor.tracer.add(metric, amount)

    def _journal(self, key: str) -> EventJournal:
        journal = self._journals.get(key)
        if journal is None:
            journal = EventJournal(self.journal_dir / f"{key}.events.jsonl")
            self._journals[key] = journal
        return journal

    def _journal_exists(self, key: str) -> bool:
        return key in self._journals or (
            self.journal_dir / f"{key}.events.jsonl"
        ).exists()

    async def _on_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        self._count("gateway_requests")
        try:
            try:
                method, path, query, headers, body = await asyncio.wait_for(
                    self._read_request(reader), _REQUEST_TIMEOUT_S
                )
            except (_BadRequest, asyncio.TimeoutError, ValueError) as exc:
                self._count("gateway_bad_requests")
                await self._respond(writer, 400, {
                    "error": f"malformed request: {exc}",
                    "error_type": "BadRequest",
                })
                return
            await self._route(method, path, query, headers, body, writer)
        except (ConnectionError, asyncio.TimeoutError):
            pass  # client went away; nothing to answer
        except Exception as exc:  # noqa: BLE001 — one request, not the server
            self._count("gateway_internal_errors")
            try:
                await self._respond(writer, 500, {
                    "error": f"{type(exc).__name__}: {exc}",
                    "error_type": "Internal",
                })
            except (ConnectionError, OSError):
                pass
        finally:
            self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass  # aborted transports never settle their close waiter

    async def _read_request(self, reader):
        request_line = await reader.readline()
        if len(request_line) > _MAX_REQUEST_LINE:
            raise _BadRequest("request line too long")
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise _BadRequest(f"bad request line {request_line!r}")
        method, target, _version = parts
        split = urlsplit(target)
        headers: dict[str, str] = {}
        for _ in range(_MAX_HEADERS):
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            if len(line) > _MAX_REQUEST_LINE:
                raise _BadRequest("header line too long")
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep:
                raise _BadRequest(f"bad header line {line!r}")
            headers[name.strip().lower()] = value.strip()
        else:
            raise _BadRequest("too many headers")
        body = b""
        length = int(headers.get("content-length", "0") or "0")
        if length > _MAX_BODY:
            raise _BadRequest(f"body too large ({length} bytes)")
        if length:
            body = await reader.readexactly(length)
        query = dict(
            pair.split("=", 1) if "=" in pair else (pair, "")
            for pair in split.query.split("&")
            if pair
        )
        return method.upper(), split.path, query, headers, body

    async def _respond(
        self,
        writer,
        status: int,
        body: dict,
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        payload = (json.dumps(body, sort_keys=True) + "\n").encode("utf-8")
        headers = {
            "Content-Type": "application/json",
            "Content-Length": str(len(payload)),
            "Connection": "close",
            **(extra_headers or {}),
        }
        head = f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        head += "".join(f"{k}: {v}\r\n" for k, v in headers.items())
        writer.write(head.encode("latin-1") + b"\r\n" + payload)
        await writer.drain()

    async def _respond_text(
        self, writer, status: int, text: str, content_type: str
    ) -> None:
        payload = text.encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + payload)
        await writer.drain()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _route(self, method, path, query, headers, body, writer) -> None:
        parts = [p for p in path.split("/") if p]
        if parts == ["v1", "jobs"] and method == "POST":
            await self._post_job(body, writer)
            return
        if len(parts) == 3 and parts[:2] == ["v1", "jobs"] and method == "GET":
            await self._get_job(parts[2], writer)
            return
        if (
            len(parts) == 4
            and parts[:2] == ["v1", "jobs"]
            and parts[3] == "events"
            and method == "GET"
        ):
            await self._get_events(parts[2], query, headers, writer)
            return
        if parts == ["v1", "metrics"] and method == "GET":
            await self._get_metrics(query, writer)
            return
        if parts == ["v1", "healthz"] and method == "GET":
            await self._respond(writer, 200, {
                "status": "draining" if self._shutdown.is_set() else "ok",
                **self.supervisor.stats(),
            })
            return
        if method not in ("GET", "POST"):
            await self._respond(writer, 405, {
                "error": f"method {method} not allowed",
                "error_type": "MethodNotAllowed",
            })
            return
        await self._respond(writer, 404, {
            "error": f"no route for {method} {path}",
            "error_type": "NotFound",
        })

    # ------------------------------------------------------------------
    # POST /v1/jobs — idempotent submission
    # ------------------------------------------------------------------
    async def _post_job(self, body: bytes, writer) -> None:
        if self._shutdown.is_set():
            await self._respond(writer, 503, {
                "error": "gateway is draining; resubmit to its successor",
                "error_type": "Draining",
            }, {"Retry-After": "1"})
            return
        try:
            spec = JobSpec.from_dict(json.loads(body.decode("utf-8")))
        except (ValueError, TypeError, UnicodeDecodeError) as exc:
            self._count("gateway_bad_requests")
            await self._respond(writer, 400, {
                "error": f"{type(exc).__name__}: {exc}",
                "error_type": "BadSpec",
            })
            return
        key = spec.content_key()
        try:
            job, replayed = self.supervisor.submit_idempotent(spec)
        except BackpressureError as exc:
            self._count("gateway_rejected_backpressure")
            await self._respond(writer, 429, {
                "error": str(exc),
                "error_type": "BackpressureError",
                "capacity": exc.capacity,
                "depth": exc.depth,
                "retry_after_s": 1.0,
            }, {"Retry-After": "1"})
            return
        except AdmissionError as exc:
            self._count("gateway_rejected_admission")
            await self._respond(writer, 429, {
                "error": str(exc),
                "error_type": "AdmissionError",
                "tenant": exc.tenant,
                "budget": exc.budget,
                "charged": exc.charged,
            })
            return
        journal = self._journal(key)
        self._jobs[key] = job
        if not replayed:
            self._count("gateway_submissions")
            self._pumps[key] = asyncio.ensure_future(
                self._pump(key, job, time.perf_counter())
            )
        await self._respond(writer, 200 if replayed else 201, {
            "job": key,
            "job_id": job.job_id,
            "state": job.state,
            "replayed": replayed,
            "events": f"/v1/jobs/{key}/events",
            "last_event_id": journal.last_id,
        })

    async def _pump(self, key: str, job: Job, accepted_at: float) -> None:
        """Relay one job's anytime stream into its persistent journal.

        The journal deduplicates replayed incumbents, so a job that
        crash-resumed any number of times still produces one monotone,
        gap-free, duplicate-free event sequence.  A terminal record is
        appended only for final states — a ``suspended`` job's journal
        stays open, because the job itself will resume and continue it.
        """
        journal = self._journal(key)
        async for event in job.stream():
            record = journal.append("incumbent", event.as_dict())
            if record is not None:
                self._count("gateway_events_journaled")
        if job.state == "suspended":
            return
        terminal: dict[str, object] = {
            "job_id": job.job_id,
            "key": key,
            "state": job.state,
            "error": job.error,
        }
        if job.result is not None:
            terminal.update(job.result)
        if job.degraded_from:
            terminal["degraded_from"] = list(job.degraded_from)
        if self._is_drift_failure(job):
            terminal["receipt_quarantined"] = self._quarantine_receipt(job)
        if journal.append("result", terminal) is not None:
            self.supervisor.tracer.observe(
                "gateway_submit_to_result_s", time.perf_counter() - accepted_at
            )

    @staticmethod
    def _is_drift_failure(job: Job) -> bool:
        """A worker exit 3 is the runner's ledger-drift verdict."""
        return job.state == "failed" and bool(job.error) and (
            "worker exited 3" in job.error or "ledger drift" in job.error
        )

    def _quarantine_receipt(self, job: Job) -> str | None:
        """Move a drift-failed job's receipt out of the serving path.

        A receipt whose ledger did not reconcile must never be handed
        out as an audit document; it is preserved under ``quarantine/``
        for inspection instead of deleted.
        """
        try:
            if not job.receipt_path.exists():
                return None
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            target = self.quarantine_dir / job.receipt_path.name
            job.receipt_path.replace(target)
        except OSError:
            return None
        self._count("gateway_receipts_quarantined")
        return str(target)

    # ------------------------------------------------------------------
    # GET /v1/jobs/{key}
    # ------------------------------------------------------------------
    async def _get_job(self, key: str, writer) -> None:
        job = self._jobs.get(key)
        if job is None and not self._journal_exists(key):
            await self._respond(writer, 404, {
                "error": f"unknown job {key!r}",
                "error_type": "NotFound",
            })
            return
        journal = self._journal(key)
        doc: dict[str, object] = {
            "job": key,
            "events": f"/v1/jobs/{key}/events",
            "last_event_id": journal.last_id,
        }
        status = 200
        if job is not None:
            doc.update({
                "job_id": job.job_id,
                "state": job.state,
                "solver": job.solver,
                "resumes": job.resumes,
                "error": job.error,
                "pid": job.child_pid,
            })
            if self._is_drift_failure(job):
                # The answer exists but its audit trail does not
                # reconcile: that is an internal integrity failure, not
                # a client error.
                status = 500
                doc["error_type"] = "LedgerDrift"
        elif journal.terminal is not None:
            doc["state"] = journal.terminal["data"].get("state")
            doc["error"] = journal.terminal["data"].get("error")
        else:
            # Journal on disk, no live job: a predecessor gateway was
            # serving this; a POST of the same spec resumes it.
            doc["state"] = "detached"
        await self._respond(writer, status, doc)

    # ------------------------------------------------------------------
    # GET /v1/jobs/{key}/events — the SSE stream
    # ------------------------------------------------------------------
    async def _get_events(self, key, query, headers, writer) -> None:
        if not self._journal_exists(key) and key not in self._jobs:
            await self._respond(writer, 404, {
                "error": f"unknown job {key!r}",
                "error_type": "NotFound",
            })
            return
        try:
            after = int(headers.get("last-event-id", query.get("after", 0)) or 0)
        except (TypeError, ValueError):
            after = 0
        config = self.supervisor.config
        self._count("gateway_sse_connections")
        active = self.supervisor.tracer.registry.gauge(
            "gateway_sse_active", help="SSE connections currently open"
        )
        active.inc(1)
        journal = self._journal(key)
        sub = journal.subscribe(config.http_send_queue)
        get_task: asyncio.Task | None = None
        shutdown_task = asyncio.ensure_future(self._shutdown.wait())
        try:
            writer.write(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: text/event-stream\r\n"
                b"Cache-Control: no-cache\r\n"
                b"Connection: close\r\n\r\n"
            )
            writer.write(b"retry: 500\n\n")
            await writer.drain()

            sent = after
            for record in journal.replay(after):
                await self._write_frame(writer, encode_event(record))
                sent = record["id"]
                self._count("gateway_events_replayed")
            if journal.terminal is not None:
                return  # settled: replay ends the stream
            if key not in self._jobs or self._jobs[key].done:
                # No live producer (predecessor gateway's job, or a
                # suspended one).  Closing tells the client to re-POST
                # the spec — idempotent — which resumes the work.
                writer.write(encode_comment("no live job; resubmit to resume"))
                await writer.drain()
                return

            while True:
                if self._shutdown.is_set():
                    writer.write(encode_comment("gateway shutting down"))
                    await writer.drain()
                    return
                if sub.evicted:
                    self._evict(writer)
                    return
                if get_task is None:
                    get_task = asyncio.ensure_future(sub.queue.get())
                done, _ = await asyncio.wait(
                    {get_task, shutdown_task},
                    timeout=config.http_heartbeat_s,
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if shutdown_task in done:
                    writer.write(encode_comment("gateway shutting down"))
                    await writer.drain()
                    return
                if get_task in done:
                    record = get_task.result()
                    get_task = None
                    if record["id"] <= sent:
                        continue  # already replayed from the journal
                    await self._write_frame(writer, encode_event(record))
                    sent = record["id"]
                    self._count("gateway_events_streamed")
                    if record["type"] == "result":
                        return
                else:
                    await self._write_frame(writer, encode_comment("hb"))
                    self._count("gateway_heartbeats")
        except asyncio.TimeoutError:
            # _write_frame deadline: the reader is stalled.
            self._evict(writer)
        finally:
            if get_task is not None:
                get_task.cancel()
            shutdown_task.cancel()
            sub.close()
            active.inc(-1)

    async def _write_frame(self, writer, payload: bytes) -> None:
        """Write one frame under the slow-reader deadline.

        ``drain()`` blocks once the client stops reading and the socket
        buffers fill; bounding it is what keeps one stalled reader from
        pinning this handler (and its subscription queue) forever.
        """
        writer.write(payload)
        await asyncio.wait_for(
            writer.drain(), self.supervisor.config.http_write_timeout_s
        )

    def _evict(self, writer) -> None:
        self._count("service_slow_client_evictions")
        # Abort, not close: close() would try to flush the very backlog
        # the reader is not consuming.
        transport = writer.transport
        if transport is not None:
            transport.abort()

    # ------------------------------------------------------------------
    # GET /v1/metrics
    # ------------------------------------------------------------------
    async def _get_metrics(self, query, writer) -> None:
        fmt = query.get("format", "prom")
        if fmt not in ("prom", "json"):
            await self._respond(writer, 400, {
                "error": f"unknown metrics format {fmt!r}",
                "error_type": "BadRequest",
            })
            return
        text = self.supervisor.render_metrics(fmt)
        content_type = (
            "application/json" if fmt == "json"
            else "text/plain; version=0.0.4"
        )
        await self._respond_text(writer, 200, text, content_type)


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------
class GatewayClient:
    """Stdlib-only client speaking the gateway's fault contract.

    * :meth:`submit_with_retries` retries connection failures, 503s
      and backpressure 429s with jittered exponential backoff
      (``policy.backoff_bound_us``), honouring ``retry_after_s`` when
      the gateway sends one;
    * :meth:`solve` drives the full submit -> stream -> result loop
      with **auto-reconnect**: a dropped stream (or a restarted
      gateway) is re-entered via an idempotent re-POST plus
      ``Last-Event-ID``, and the monotone-id contract is asserted on
      every event consumed.
    """

    def __init__(
        self,
        base_url: str,
        policy=None,
        timeout_s: float = 60.0,
        rng=None,
    ) -> None:
        from ..resilience.retry import RetryPolicy

        split = urlsplit(base_url if "//" in base_url else f"//{base_url}")
        if split.scheme not in ("", "http"):
            raise ValueError(f"only http:// gateways are supported: {base_url}")
        if not split.hostname:
            raise ValueError(f"no host in gateway url {base_url!r}")
        self.host = split.hostname
        self.port = split.port or 80
        self.base_url = f"http://{self.host}:{self.port}"
        self.policy = policy or RetryPolicy(
            max_attempts=8, backoff_base_us=50_000.0, backoff_cap_us=2_000_000.0
        )
        self.timeout_s = timeout_s
        import random

        self._rng = rng or random.Random()

    # -- low-level ------------------------------------------------------
    def _connection(self):
        import http.client

        return http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s
        )

    def _request_json(
        self, method: str, path: str, body: dict | None = None
    ) -> tuple[int, dict]:
        conn = self._connection()
        try:
            payload = None
            headers = {}
            if body is not None:
                payload = json.dumps(body, sort_keys=True)
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            try:
                doc = json.loads(raw) if raw else {}
            except ValueError:
                doc = {"error": raw.decode("utf-8", errors="replace")}
            return response.status, doc
        finally:
            conn.close()

    def _backoff_s(self, attempt: int, retry_after_s: float | None = None) -> float:
        if retry_after_s is not None:
            return retry_after_s
        bound = self.policy.backoff_bound_us(attempt) / 1e6
        return self._rng.uniform(bound / 2.0, bound) if bound > 0 else 0.0

    # -- submission -----------------------------------------------------
    def submit(self, spec: JobSpec) -> dict:
        """POST the spec once; returns the submission document."""
        status, doc = self._request_json(
            "POST", "/v1/jobs", spec.as_dict()
        )
        if status not in (200, 201):
            raise GatewayError(status, doc)
        return doc

    def submit_with_retries(self, spec: JobSpec) -> dict:
        """Idempotent submit loop: connection errors, 503s and
        backpressure 429s (the ones carrying ``retry_after_s``) back off.

        Safe to call any number of times — duplicates attach to the
        original job server-side, which is the whole point.  A 429
        without ``retry_after_s`` is an admission refusal: tenant pools
        never refill, so it is raised at once.  When the attempts run
        out, the last gateway answer is raised as it came, or — if no
        attempt got one — a :class:`ConnectionError` naming the URL.
        """
        import time

        last_error: Exception | None = None
        for attempt in range(self.policy.max_attempts):
            try:
                return self.submit(spec)
            except GatewayError as exc:
                retryable = exc.status == 503 or (
                    exc.status == 429 and exc.retry_after_s is not None
                )
                if not retryable:
                    raise  # 400/404/500 and admission won't heal with a retry
                last_error = exc
                time.sleep(self._backoff_s(attempt, exc.retry_after_s))
            except (ConnectionError, OSError) as exc:
                last_error = exc
                time.sleep(self._backoff_s(attempt))
        if isinstance(last_error, GatewayError):
            raise last_error
        raise ConnectionError(
            f"no gateway answered at {self.base_url} after "
            f"{self.policy.max_attempts} attempts: {last_error}"
        )

    def job(self, key: str) -> tuple[int, dict]:
        return self._request_json("GET", f"/v1/jobs/{key}")

    def metrics(self, fmt: str = "json") -> str:
        conn = self._connection()
        try:
            conn.request("GET", f"/v1/metrics?format={fmt}")
            response = conn.getresponse()
            return response.read().decode("utf-8")
        finally:
            conn.close()

    # -- streaming ------------------------------------------------------
    def stream_once(self, key: str, last_event_id: int = 0):
        """One SSE connection; yields parsed records until it ends.

        Caller handles reconnection.  Events arrive as dicts
        ``{"id": int, "event": str, "data": dict}``.
        """
        conn = self._connection()
        try:
            conn.request(
                "GET",
                f"/v1/jobs/{key}/events",
                headers={"Last-Event-ID": str(last_event_id)},
            )
            response = conn.getresponse()
            if response.status != 200:
                raw = response.read()
                try:
                    doc = json.loads(raw) if raw else {}
                except ValueError:
                    doc = {}
                raise GatewayError(response.status, doc)
            for frame in parse_sse_stream(response):
                try:
                    data = json.loads(frame["data"])
                except ValueError:
                    continue  # torn frame; replay will re-deliver it
                yield {
                    "id": frame["id"],
                    "event": frame["event"],
                    "data": data,
                }
        finally:
            conn.close()

    def solve(
        self,
        spec: JobSpec,
        on_event=None,
        max_reconnects: int = 20,
    ) -> tuple[list[dict], dict]:
        """Submit and stream to completion; returns (incumbents, result).

        Survives dropped connections, gateway restarts, and worker
        crashes: every reconnect re-POSTs the spec (idempotent — this
        also resumes a job the restarted gateway found suspended) and
        resumes the stream from ``Last-Event-ID``.  The reconnect
        budget refills whenever the stream makes progress, so only a
        gateway that stays unreachable exhausts it.  Raises
        :class:`GatewayError` on a typed server failure and asserts the
        monotone, gap-free id contract on everything it consumes.
        """
        import time

        key = self.submit_with_retries(spec)["job"]
        incumbents: list[dict] = []
        last_id = 0
        reconnects = 0
        while True:
            made_progress = False
            try:
                for record in self.stream_once(key, last_id):
                    if on_event is not None:
                        on_event(record)
                    if record["id"] is not None:
                        if record["id"] != last_id + 1:
                            raise GatewayError(500, {
                                "error": "event id contract violated: got "
                                f"{record['id']} after {last_id}",
                            })
                        last_id = record["id"]
                        made_progress = True
                    if record["event"] == "incumbent":
                        incumbents.append(record["data"])
                    elif record["event"] == "result":
                        return incumbents, record["data"]
                # Stream ended without a terminal record: the gateway
                # drained, or the job suspended.  Fall through to the
                # reconnect path.
            except DropConnection:
                pass  # scripted chaos drop: treat as a lost socket
            except (ConnectionError, OSError, GatewayError) as exc:
                if isinstance(exc, GatewayError) and exc.status not in (
                    404, 429, 503,
                ):
                    raise
            if made_progress:
                reconnects = 0
            reconnects += 1
            if reconnects > max_reconnects:
                raise GatewayError(503, {
                    "error": f"stream for {key} did not complete after "
                             f"{max_reconnects} reconnects",
                })
            time.sleep(self._backoff_s(min(reconnects - 1,
                                           self.policy.max_attempts - 1)))
            # Idempotent re-attach: restores a post-restart gateway's
            # index and resumes a suspended job; a live one is replayed.
            try:
                self.submit_with_retries(spec)
            except (GatewayError, OSError):
                continue  # keep trying from the stream side
