"""Transport-agnostic routing for the campaign service HTTP API.

:class:`ServiceRouter` holds every handler of the JSON REST surface,
kept apart from socket handling: the transport — the stdlib
``ThreadingHTTPServer`` in :mod:`repro.service.server`, for both the
single-process service and the fabric coordinator — parses the
request, calls :meth:`handle_get` / :meth:`handle_post`, and writes
the returned :class:`Response` bytes.

Two route results need transport cooperation and are returned as
descriptors instead of responses:

* :class:`LongPoll` — the transport blocks for events past the
  cursor, then renders :meth:`ServiceRouter.events_page`.
* :class:`EventStream` — the transport runs its SSE loop with
  :func:`sse_chunk` / :func:`sse_final`.

Fabric worker-protocol endpoints (``/fabric/...``) are served when the
scheduler is a :class:`~repro.fabric.coordinator.Coordinator`; a plain
single-process scheduler 404s them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.service.scheduler import QueueFull, TERMINAL_STATES
from repro.service.specs import SpecError, parse_campaign_spec

#: Cap on request bodies; campaign specs are tiny, result bundles are
#: bounded by campaign size (a full conformance campaign's sampled
#: point clouds are a few MB).
MAX_BODY_BYTES = 64 << 20


@dataclass
class Response:
    """One rendered HTTP response, ready for any transport to write."""

    status: int
    body: bytes
    content_type: str = "application/json"
    headers: Dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class LongPoll:
    """Descriptor: block for events past ``after``, then render the page."""

    campaign_id: str
    after: int
    timeout: float


@dataclass(frozen=True)
class EventStream:
    """Descriptor: stream SSE frames until the campaign is terminal."""

    campaign_id: str
    after: int


RouteResult = Union[Response, LongPoll, EventStream]


def json_response(status: int, payload, **headers) -> Response:
    body = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
    return Response(status, body, "application/json", dict(headers))


def text_response(
    status: int, text: str, content_type: str = "text/plain"
) -> Response:
    return Response(
        status, text.encode(), f"{content_type}; charset=utf-8", {}
    )


def error_response(status: int, message: str, **headers) -> Response:
    return json_response(status, {"error": message}, **headers)


def no_content() -> Response:
    return Response(204, b"", "application/json", {})


def sse_chunk(events: List[dict]) -> bytes:
    """SSE frames for a batch of events (empty batch => keep-alive)."""
    if not events:
        return b": keep-alive\n\n"
    out = []
    for event in events:
        data = json.dumps(event, sort_keys=True)
        out.append(f"data: {data}\n\n".encode())
    return b"".join(out)


def sse_final(snapshot: dict) -> bytes:
    final = json.dumps(snapshot, sort_keys=True)
    return f"event: end\ndata: {final}\n\n".encode()


class ServiceRouter:
    """Every service endpoint, rendered transport-independently."""

    def __init__(self, store_path: str, scheduler):
        self.store_path = str(store_path)
        self.scheduler = scheduler

    # ------------------------------------------------------------ plumbing

    def _store(self):
        from repro.store import ResultStore

        return ResultStore(self.store_path)

    def _fabric(self):
        """The scheduler's fabric protocol surface, or None when this is
        a single-process deployment."""
        scheduler = self.scheduler
        return scheduler if hasattr(scheduler, "lease_task") else None

    # ------------------------------------------------------------- routing

    def handle_get(
        self, parts: List[str], query: Dict[str, str], accept: str = ""
    ) -> RouteResult:
        try:
            return self._route_get(parts, query, accept)
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            return error_response(500, f"{type(exc).__name__}: {exc}")

    def handle_post(
        self, parts: List[str], query: Dict[str, str], payload
    ) -> Response:
        from repro.fabric.queue import QueueError, QuotaExceeded

        try:
            return self._route_post(parts, query, payload)
        except QuotaExceeded as exc:
            return error_response(429, str(exc), Retry_After=5)
        except QueueFull as exc:
            return error_response(
                429, str(exc), Retry_After=exc.retry_after_s
            )
        except SpecError as exc:
            return error_response(400, str(exc))
        except QueueError as exc:
            return error_response(409, str(exc))
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            return error_response(500, f"{type(exc).__name__}: {exc}")

    def _route_get(
        self, parts: List[str], query: Dict[str, str], accept: str
    ) -> RouteResult:
        if parts == ["healthz"]:
            return self._healthz()
        if parts == ["metrics"]:
            return self._prometheus()
        if parts == ["campaigns"]:
            return json_response(
                200,
                {"campaigns": [j.snapshot() for j in self.scheduler.jobs()]},
            )
        if len(parts) == 2 and parts[0] == "campaigns":
            job = self.scheduler.job(parts[1])
            if job is None:
                return error_response(404, f"unknown campaign: {parts[1]!r}")
            return json_response(200, job.snapshot())
        if len(parts) == 3 and parts[0] == "campaigns" and parts[2] == "events":
            return self._campaign_events(parts[1], query, accept)
        if parts == ["fabric", "status"]:
            return self._fabric_status()
        if parts == ["fabric", "workers"]:
            return self._fabric_workers(query)
        if parts == ["runs"]:
            return self._runs()
        if len(parts) == 3 and parts[0] == "runs" and parts[2].startswith("metrics"):
            return self._run_metrics(parts[1], parts[2], query)
        if len(parts) == 4 and parts[0] == "runs" and parts[2] == "diff":
            return self._run_diff(parts[1], parts[3], query)
        if len(parts) == 3 and parts[0] == "runs" and parts[2] == "heatmap.svg":
            return self._run_heatmap(parts[1], query)
        if len(parts) == 3 and parts[0] == "runs" and parts[2] == "peer-matrix.svg":
            return self._run_peer_matrix(parts[1], query)
        return error_response(
            404, f"no such resource: GET /{'/'.join(parts)}"
        )

    def _route_post(
        self, parts: List[str], query: Dict[str, str], payload
    ) -> Response:
        if parts == ["campaigns"]:
            return self._submit(payload)
        if len(parts) == 3 and parts[0] == "campaigns" and parts[2] == "cancel":
            return self._cancel(parts[1])
        if parts == ["fabric", "lease"]:
            return self._fabric_lease(payload)
        if (
            len(parts) == 4
            and parts[0] == "fabric"
            and parts[1] == "tasks"
            and parts[3] in ("heartbeat", "complete", "fail")
        ):
            return self._fabric_task_call(parts[2], parts[3], payload)
        if (
            len(parts) == 4
            and parts[0] == "fabric"
            and parts[1] == "workers"
            and parts[3] in ("drain", "deregister")
        ):
            return self._fabric_worker_call(parts[2], parts[3])
        return error_response(
            404, f"no such resource: POST /{'/'.join(parts)}"
        )

    # ----------------------------------------------------------- campaigns

    def _submit(self, payload) -> Response:
        if not isinstance(payload, dict):
            raise SpecError("campaign submission must be a JSON object")
        payload = dict(payload)
        priority = payload.pop("priority", 0)
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise SpecError("priority must be an integer")
        tenant = payload.pop("tenant", "default")
        if not isinstance(tenant, str) or not tenant:
            raise SpecError("tenant must be a non-empty string")
        spec = parse_campaign_spec(payload)
        job = self.scheduler.submit(spec, priority=priority, tenant=tenant)
        return json_response(
            202, job.snapshot(), Location=f"/campaigns/{job.id}"
        )

    def _cancel(self, campaign_id: str) -> Response:
        if self.scheduler.cancel(campaign_id):
            return json_response(
                200, self.scheduler.job(campaign_id).snapshot()
            )
        job = self.scheduler.job(campaign_id)
        if job is None:
            return error_response(404, f"unknown campaign: {campaign_id!r}")
        return error_response(
            409, f"campaign {campaign_id} is already {job.state}"
        )

    def _campaign_events(
        self, campaign_id: str, query: Dict[str, str], accept: str
    ) -> RouteResult:
        if self.scheduler.job(campaign_id) is None:
            return error_response(404, f"unknown campaign: {campaign_id!r}")
        after = int(query.get("after", 0))
        wants_sse = query.get("stream") == "1" or "text/event-stream" in accept
        if wants_sse:
            return EventStream(campaign_id, after)
        timeout = min(60.0, float(query.get("timeout", 10.0)))
        return LongPoll(campaign_id, after, timeout)

    def events_page(
        self, campaign_id: str, after: int, events: Optional[List[dict]] = None
    ) -> Response:
        """Render a long-poll page (the transport already waited)."""
        if events is None:
            events = self.scheduler.events_since(campaign_id, after)
        job = self.scheduler.job(campaign_id)
        return json_response(
            200,
            {
                "events": events,
                "next": after + len(events),
                "state": job.state if job else "unknown",
            },
        )

    # -------------------------------------------------------------- fabric

    def _fabric_status(self) -> Response:
        fabric = self._fabric()
        if fabric is None:
            return error_response(
                404, "fabric endpoints need a coordinator-backed service"
            )
        status = fabric.fabric_status()
        metrics = fabric.metrics()
        # ``workers`` is the fleet registry list from the queue snapshot;
        # the scalar count (registered + leasing) goes out separately so
        # it cannot shadow the per-worker rows.
        return json_response(
            200,
            {
                **status,
                "workers_total": metrics.get("workers", 0),
                "campaign_states": metrics.get("campaign_states", {}),
            },
        )

    def _fabric_lease(self, payload) -> Response:
        from repro.fabric.worker import lease_to_wire

        fabric = self._fabric()
        if fabric is None:
            return error_response(
                404, "fabric endpoints need a coordinator-backed service"
            )
        if not isinstance(payload, dict):
            raise SpecError("lease request must be a JSON object")
        worker = str(payload.get("worker") or "anonymous")
        ttl_s = payload.get("ttl_s")
        lease = fabric.lease_task(
            worker, ttl_s=float(ttl_s) if ttl_s else None
        )
        if lease is None:
            return no_content()
        if isinstance(lease, dict):
            # A durable drain directive instead of work.
            return json_response(200, lease)
        return json_response(200, lease_to_wire(lease))

    def _fabric_task_call(
        self, campaign: str, action: str, payload
    ) -> Response:
        fabric = self._fabric()
        if fabric is None:
            return error_response(
                404, "fabric endpoints need a coordinator-backed service"
            )
        if not isinstance(payload, dict):
            raise SpecError(f"{action} request must be a JSON object")
        lease_id = str(payload.get("lease_id") or "")
        if not lease_id:
            raise SpecError("lease_id is required")
        if action == "heartbeat":
            ttl_s = payload.get("ttl_s")
            beat = fabric.heartbeat_task(
                campaign,
                lease_id,
                ttl_s=float(ttl_s) if ttl_s else None,
                progress=payload.get("progress") or [],
            )
            return json_response(200, beat)
        if action == "complete":
            outcome = fabric.complete_task(
                campaign,
                lease_id,
                summary=payload.get("summary") or {},
                bundle=payload.get("bundle"),
            )
            return json_response(200, {"outcome": outcome})
        outcome = fabric.fail_task(
            campaign,
            lease_id,
            str(payload.get("error") or "unknown error"),
            retryable=bool(payload.get("retryable", True)),
        )
        return json_response(200, {"outcome": outcome})

    def _fabric_workers(self, query: Dict[str, str]) -> Response:
        fabric = self._fabric()
        if fabric is None or not hasattr(fabric, "workers"):
            return error_response(
                404, "fabric endpoints need a coordinator-backed service"
            )
        include_exited = query.get("all") == "1"
        return json_response(
            200, {"workers": fabric.workers(include_exited=include_exited)}
        )

    def _fabric_worker_call(self, worker: str, action: str) -> Response:
        fabric = self._fabric()
        if fabric is None or not hasattr(fabric, "drain_worker"):
            return error_response(
                404, "fabric endpoints need a coordinator-backed service"
            )
        if action == "drain":
            return json_response(200, fabric.drain_worker(worker))
        fabric.deregister_worker(worker)
        return json_response(200, {"ok": True, "worker": worker})

    # ------------------------------------------------------------- healthz

    def _healthz(self) -> Response:
        from repro.faults.breaker import degraded

        with self._store() as store:
            ok = store.integrity_ok()
        open_breakers = degraded()
        if not ok:
            status = "store-corrupt"
        elif open_breakers:
            # Open circuit breakers (store sink spilling, journal down):
            # the service is up and serving, but running in a reduced
            # mode — callers see why, probes still get a 200.
            status = "degraded"
        else:
            status = "ok"
        metrics = self.scheduler.metrics()
        body = {
            "status": status,
            "degraded": open_breakers,
            "store": self.store_path,
            "queue_depth": metrics["queue_depth"],
            "running": metrics["running"],
            "uptime_s": round(metrics["uptime_s"], 3),
        }
        fabric = self._fabric()
        if fabric is not None and hasattr(fabric, "workers"):
            body["fleet"] = fabric.workers()
        return json_response(500 if not ok else 200, body)

    def _prometheus(self) -> Response:
        m = self.scheduler.metrics()
        with self._store() as store:
            counts = store.counts()
        lines = [
            "# HELP repro_queue_depth Campaigns waiting to run.",
            "# TYPE repro_queue_depth gauge",
            f"repro_queue_depth {m['queue_depth']}",
            "# HELP repro_campaigns_running Campaigns currently executing.",
            "# TYPE repro_campaigns_running gauge",
            f"repro_campaigns_running {m['running']}",
            "# HELP repro_campaigns_total Campaigns by lifecycle state.",
            "# TYPE repro_campaigns_total gauge",
        ]
        for state in sorted(m["campaign_states"]):
            lines.append(
                f'repro_campaigns_total{{state="{state}"}} '
                f"{m['campaign_states'][state]}"
            )
        lines += [
            "# HELP repro_trials_total Trials finished, by executor status.",
            "# TYPE repro_trials_total counter",
        ]
        for status in sorted(m["trial_statuses"]):
            lines.append(
                f'repro_trials_total{{status="{status}"}} '
                f"{m['trial_statuses'][status]}"
            )
        lines += [
            "# HELP repro_trials_per_second Finished trials per uptime second.",
            "# TYPE repro_trials_per_second gauge",
            f"repro_trials_per_second {m['trials_per_second']:.6f}",
            "# HELP repro_cache_hit_rate Fraction of trials served from cache.",
            "# TYPE repro_cache_hit_rate gauge",
            f"repro_cache_hit_rate {m['cache_hit_rate']:.6f}",
            "# HELP repro_service_uptime_seconds Service uptime.",
            "# TYPE repro_service_uptime_seconds gauge",
            f"repro_service_uptime_seconds {m['uptime_s']:.3f}",
            "# HELP repro_store_rows Warehouse row counts by table.",
            "# TYPE repro_store_rows gauge",
        ]
        for table in ("runs", "trials", "measurements", "metrics", "events"):
            lines.append(f'repro_store_rows{{table="{table}"}} {counts[table]}')
        fabric = m.get("fabric")
        if fabric:
            lines += [
                "# HELP repro_fabric_queue_depth Fabric tasks pending or leased.",
                "# TYPE repro_fabric_queue_depth gauge",
                f"repro_fabric_queue_depth {fabric['depth']}",
                "# HELP repro_fabric_leases Live fabric leases.",
                "# TYPE repro_fabric_leases gauge",
                f"repro_fabric_leases {len(fabric['leases'])}",
                "# HELP repro_fabric_tenant_backlog Pending+leased tasks per tenant.",
                "# TYPE repro_fabric_tenant_backlog gauge",
            ]
            for tenant in sorted(fabric["tenants"]):
                t = fabric["tenants"][tenant]
                lines.append(
                    f'repro_fabric_tenant_backlog{{tenant="{tenant}"}} '
                    f"{t['pending'] + t['leased']}"
                )
            lines += [
                "# HELP repro_fabric_tenant_done Completed tasks per tenant.",
                "# TYPE repro_fabric_tenant_done counter",
            ]
            for tenant in sorted(fabric["tenants"]):
                lines.append(
                    f'repro_fabric_tenant_done{{tenant="{tenant}"}} '
                    f"{fabric['tenants'][tenant]['done']}"
                )
            fleet = fabric.get("workers") or []
            lines += [
                "# HELP repro_fabric_fleet_workers Registered non-exited"
                " workers by state.",
                "# TYPE repro_fabric_fleet_workers gauge",
            ]
            by_state: Dict[str, int] = {}
            for worker in fleet:
                by_state[worker["state"]] = by_state.get(worker["state"], 0) + 1
            for state in sorted(by_state):
                lines.append(
                    f'repro_fabric_fleet_workers{{state="{state}"}} '
                    f"{by_state[state]}"
                )
            lines += [
                "# HELP repro_fabric_worker_heartbeat_age_seconds Seconds"
                " since each worker's last queue contact.",
                "# TYPE repro_fabric_worker_heartbeat_age_seconds gauge",
                "# HELP repro_fabric_worker_leases Leases currently held"
                " per worker.",
                "# TYPE repro_fabric_worker_leases gauge",
            ]
            for worker in fleet:
                name = worker["name"]
                lines.append(
                    "repro_fabric_worker_heartbeat_age_seconds"
                    f'{{worker="{name}"}} {worker["heartbeat_age_s"]:.3f}'
                )
                lines.append(
                    f'repro_fabric_worker_leases{{worker="{name}"}} '
                    f"{worker['leases']}"
                )
        return text_response(
            200, "\n".join(lines) + "\n", "text/plain; version=0.0.4"
        )

    # ---------------------------------------------------------------- runs

    def _runs(self) -> Response:
        with self._store() as store:
            runs = []
            for info in store.runs():
                runs.append(
                    {
                        "id": info.id,
                        "name": info.name,
                        "created_at": info.created_at,
                        "note": info.note,
                        "metrics": len(store.query(run=info.id)),
                        "trials": len(store.trial_keys(info.id)),
                    }
                )
        return json_response(200, {"runs": runs})

    def _run_metrics(
        self, run_name: str, resource: str, query: Dict[str, str]
    ) -> Response:
        from repro.store import ResultStore, StoreError

        fmt = resource[len("metrics"):].lstrip(".") or "json"
        if fmt not in ("json", "csv"):
            return error_response(404, f"unknown metrics format: {fmt!r}")
        try:
            with self._store() as store:
                rows = store.query(
                    run=run_name,
                    metric=query.get("metric"),
                    stack=query.get("stack"),
                    cca=query.get("cca"),
                )
        except StoreError as exc:
            return error_response(404, str(exc))
        if fmt == "csv":
            return text_response(200, ResultStore.export_csv(rows), "text/csv")
        return Response(
            200,
            (ResultStore.export_json(rows) + "\n").encode(),
            "application/json",
        )

    def _run_diff(
        self, run_a: str, run_b: str, query: Dict[str, str]
    ) -> Response:
        from repro.store import StoreError, diff_runs

        try:
            with self._store() as store:
                diff = diff_runs(
                    store,
                    run_a,
                    run_b,
                    metric=query.get("metric", "conf"),
                    threshold=float(query.get("threshold", 0.5)),
                    atol=float(query.get("atol", 0.0)),
                )
        except StoreError as exc:
            return error_response(404, str(exc))
        return json_response(
            200,
            {
                "run_a": diff.run_a,
                "run_b": diff.run_b,
                "metric": diff.metric,
                "threshold": diff.threshold,
                "clean": diff.clean,
                "compared": diff.compared,
                "added": [list(s) for s in diff.added],
                "removed": [list(s) for s in diff.removed],
                "changed": [
                    {
                        "subject": list(d.subject),
                        "before": d.before,
                        "after": d.after,
                        "delta": d.delta,
                    }
                    for d in diff.changed
                ],
                "flips": [
                    {
                        "subject": list(f.subject),
                        "before": f.before,
                        "after": f.after,
                        "label": f.label(),
                    }
                    for f in diff.flips
                ],
            },
        )

    def _run_heatmap(self, run_name: str, query: Dict[str, str]) -> Response:
        from repro.store import StoreError
        from repro.viz.store import stored_heatmap_figure

        try:
            with self._store() as store:
                figure = stored_heatmap_figure(
                    store, run_name, metric=query.get("metric", "conf")
                )
        except (StoreError, ValueError) as exc:
            return error_response(404, str(exc))
        return Response(200, figure.to_svg().encode(), "image/svg+xml")

    def _run_peer_matrix(
        self, run_name: str, query: Dict[str, str]
    ) -> Response:
        from repro.store import StoreError
        from repro.viz.store import stored_peer_matrix_figure

        try:
            with self._store() as store:
                figure = stored_peer_matrix_figure(
                    store, run_name, metric=query.get("metric", "peer_conf")
                )
        except (StoreError, ValueError) as exc:
            return error_response(404, str(exc))
        return Response(200, figure.to_svg().encode(), "image/svg+xml")


__all__ = [
    "ServiceRouter",
    "Response",
    "LongPoll",
    "EventStream",
    "json_response",
    "text_response",
    "error_response",
    "no_content",
    "sse_chunk",
    "sse_final",
    "MAX_BODY_BYTES",
    "TERMINAL_STATES",
]
