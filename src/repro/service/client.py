"""``ServiceClient``: a stdlib HTTP client for the campaign service.

Wraps the JSON REST API of :mod:`repro.service.server` with typed
helpers: submit a campaign spec, wait for (or stream) its progress, and
fetch stored results — metrics, diffs, heatmaps — without touching the
simulator.  Built on ``urllib.request`` so the client works anywhere the
package does.

Quick start::

    from repro.service import ServiceClient

    client = ServiceClient("http://127.0.0.1:8437")
    campaign = client.submit({"kind": "matrix", "stacks": ["quiche"],
                              "duration_s": 6, "trials": 2})
    final = client.wait(campaign["id"])
    print(final["state"], client.metrics(final["runs"][0]))
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
import zlib
from typing import Iterator, List, Mapping, Optional
from urllib.parse import quote, urlencode

from repro.faults import inject
from repro.faults.retry import RetryPolicy


class ServiceError(RuntimeError):
    """A service request failed; carries the HTTP status and message."""

    def __init__(self, status: int, message: str, retry_after_s: Optional[int] = None):
        self.status = status
        self.retry_after_s = retry_after_s
        super().__init__(f"HTTP {status}: {message}")


class CampaignFailed(ServiceError):
    """Waited-on campaign reached a non-``done`` terminal state."""

    def __init__(self, snapshot: dict):
        self.snapshot = snapshot
        super().__init__(
            200, f"campaign {snapshot.get('id')} {snapshot.get('state')}: "
            f"{snapshot.get('error')}"
        )


class ServiceClient:
    """Talk to a running ``repro serve`` instance.

    ``reconnect`` is the unified :class:`RetryPolicy` behind every
    long-poll/stream page: a dropped connection (status 0) is retried
    with seeded-jitter backoff bounded by the policy's deadline instead
    of surfacing raw urllib errors mid-stream.  The jitter seed derives
    from the base URL, so a fleet of watchers de-synchronises its
    reconnect storms deterministically.
    """

    def __init__(
        self,
        base_url: str,
        timeout_s: float = 30.0,
        reconnect: Optional[RetryPolicy] = None,
    ):
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        if reconnect is None:
            reconnect = RetryPolicy(
                max_attempts=None,
                backoff_s=0.2,
                backoff_cap_s=5.0,
                deadline_s=60.0,
                jitter=0.5,
                seed=zlib.crc32(self.base_url.encode()),
            )
        self.reconnect = reconnect

    # ------------------------------------------------------------ plumbing

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Mapping] = None,
        query: Optional[Mapping] = None,
        timeout_s: Optional[float] = None,
    ):
        url = self.base_url + path
        if query:
            url += "?" + urlencode({k: v for k, v in query.items() if v is not None})
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(dict(body)).encode()
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            url, data=data, headers=headers, method=method
        )
        try:
            inject.fault_point("client.request", method=method, path=path)
            with urllib.request.urlopen(
                request, timeout=timeout_s or self.timeout_s
            ) as response:
                raw = response.read()
                content_type = response.headers.get("Content-Type") or ""
                if "json" in content_type:
                    return json.loads(raw.decode() or "null")
                return raw.decode()
        except urllib.error.HTTPError as exc:
            raw = exc.read()
            try:
                message = json.loads(raw.decode()).get("error", raw.decode())
            except (ValueError, AttributeError):
                message = raw.decode(errors="replace")
            retry_after = exc.headers.get("Retry-After")
            raise ServiceError(
                exc.code,
                message,
                retry_after_s=int(retry_after) if retry_after else None,
            ) from None
        except (urllib.error.URLError, ConnectionError, TimeoutError, OSError) as exc:
            # Transport-level failure (refused, reset, DNS, timeout):
            # status 0 marks it retryable for submit_blocking and keeps
            # the raw socket error out of callers' laps.
            raise ServiceError(0, f"connection failed: {exc}") from exc

    def request(
        self,
        method: str,
        path: str,
        body: Optional[Mapping] = None,
        query: Optional[Mapping] = None,
        timeout_s: Optional[float] = None,
    ):
        """Public raw-request escape hatch (fabric worker protocol, new
        endpoints): same JSON handling and typed errors as every helper."""
        return self._request(
            method, path, body=body, query=query, timeout_s=timeout_s
        )

    # ------------------------------------------------------------- service

    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def metrics_text(self) -> str:
        """The raw Prometheus exposition of ``GET /metrics``."""
        return self._request("GET", "/metrics")

    # ----------------------------------------------------------- campaigns

    def submit(
        self, spec: Mapping, priority: int = 0, tenant: Optional[str] = None
    ) -> dict:
        """POST a campaign spec; returns the accepted campaign snapshot.

        Raises :class:`ServiceError` on rejection — status 400 for an
        invalid spec, 429 (with ``retry_after_s`` set) when the queue or
        the tenant's quota is full.
        """
        payload = dict(spec)
        if priority:
            payload["priority"] = priority
        if tenant:
            payload["tenant"] = tenant
        return self._request("POST", "/campaigns", body=payload)

    def submit_blocking(
        self,
        spec: Mapping,
        priority: int = 0,
        give_up_after_s: float = 60.0,
        retry: Optional[RetryPolicy] = None,
        tenant: Optional[str] = None,
    ) -> dict:
        """Submit, retrying 429 backpressure and transport failures.

        Retries are driven by a :class:`RetryPolicy` (attempts unlimited,
        bounded by ``give_up_after_s`` total) honouring the server's
        ``Retry-After`` when present; pass ``retry`` to override — e.g.
        with a fake-sleep policy in tests.
        """
        if retry is None:
            retry = RetryPolicy(
                max_attempts=None, backoff_s=0.5, backoff_cap_s=10.0,
                deadline_s=give_up_after_s,
            )

        def retryable(exc: BaseException) -> bool:
            return (
                isinstance(exc, ServiceError)
                and not isinstance(exc, CampaignFailed)
                and exc.status in (0, 429)
            )

        def delay(attempt: int, exc: BaseException) -> float:
            retry_after = getattr(exc, "retry_after_s", None)
            if retry_after:
                return min(float(retry_after), retry.backoff_cap_s)
            return retry.backoff(attempt)

        return retry.call(
            lambda: self.submit(spec, priority=priority, tenant=tenant),
            retryable=retryable,
            delay=delay,
        )

    def campaigns(self) -> List[dict]:
        return self._request("GET", "/campaigns")["campaigns"]

    def status(self, campaign_id: str) -> dict:
        return self._request("GET", f"/campaigns/{quote(campaign_id, safe='')}")

    def cancel(self, campaign_id: str) -> dict:
        return self._request(
            "POST", f"/campaigns/{quote(campaign_id, safe='')}/cancel"
        )

    def events(
        self, campaign_id: str, after: int = 0, timeout_s: float = 10.0
    ) -> dict:
        """One long-poll: events past ``after`` plus the campaign state."""
        return self._request(
            "GET",
            f"/campaigns/{quote(campaign_id, safe='')}/events",
            query={"after": after, "timeout": timeout_s},
            timeout_s=timeout_s + self.timeout_s,
        )

    def _events_reconnecting(
        self, campaign_id: str, after: int, timeout_s: float
    ) -> dict:
        """One long-poll page, reconnecting through ``self.reconnect``.

        Only transport-level drops (status 0) are retried; HTTP errors
        (404, 429...) surface immediately.  The ``after`` cursor makes
        the retried poll idempotent — no event is lost or duplicated
        across a reconnect.
        """

        def retryable(exc: BaseException) -> bool:
            return isinstance(exc, ServiceError) and exc.status == 0

        return self.reconnect.call(
            lambda: self.events(campaign_id, after=after, timeout_s=timeout_s),
            retryable=retryable,
        )

    def stream(
        self, campaign_id: str, after: int = 0, poll_timeout_s: float = 10.0
    ) -> Iterator[dict]:
        """Yield progress events until the campaign reaches a terminal
        state, transparently reconnecting dropped long-polls through the
        client's :class:`RetryPolicy`."""
        cursor = after
        while True:
            page = self._events_reconnecting(
                campaign_id, after=cursor, timeout_s=poll_timeout_s
            )
            for event in page["events"]:
                yield event
            cursor = page["next"]
            if page["state"] in ("done", "failed", "cancelled") and not page["events"]:
                return

    def wait(
        self,
        campaign_id: str,
        timeout_s: Optional[float] = None,
        raise_on_failure: bool = True,
    ) -> dict:
        """Block until the campaign finishes; returns its final snapshot."""
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        cursor = 0
        while True:
            poll = 10.0
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"campaign {campaign_id} still running after {timeout_s}s"
                    )
                poll = min(poll, max(0.1, remaining))
            page = self._events_reconnecting(
                campaign_id, after=cursor, timeout_s=poll
            )
            cursor = page["next"]
            if page["state"] in ("done", "failed", "cancelled"):
                snapshot = self.status(campaign_id)
                if raise_on_failure and snapshot["state"] != "done":
                    raise CampaignFailed(snapshot)
                return snapshot

    # ---------------------------------------------------------------- runs

    def runs(self) -> List[dict]:
        return self._request("GET", "/runs")["runs"]

    def metrics(
        self,
        run: str,
        fmt: str = "json",
        metric: Optional[str] = None,
        stack: Optional[str] = None,
        cca: Optional[str] = None,
    ):
        """One run's metric rows — parsed JSON rows, or CSV text."""
        payload = self._request(
            "GET",
            f"/runs/{quote(run, safe='')}/metrics.{fmt}",
            query={"metric": metric, "stack": stack, "cca": cca},
        )
        if fmt == "json" and isinstance(payload, str):
            return json.loads(payload)
        return payload

    def diff(
        self, run_a: str, run_b: str, metric: str = "conf",
        threshold: float = 0.5, atol: float = 0.0,
    ) -> dict:
        return self._request(
            "GET",
            f"/runs/{quote(run_a, safe='')}/diff/{quote(run_b, safe='')}",
            query={"metric": metric, "threshold": threshold, "atol": atol},
        )

    def heatmap_svg(self, run: str, metric: str = "conf") -> str:
        return self._request(
            "GET",
            f"/runs/{quote(run, safe='')}/heatmap.svg",
            query={"metric": metric},
        )

    # -------------------------------------------------------------- fabric

    def fabric_status(self) -> dict:
        """Queue depth, per-tenant backlog and live leases."""
        return self._request("GET", "/fabric/status")

    def fabric_lease(self, worker: str, ttl_s: float = 30.0) -> Optional[dict]:
        """Claim a task for ``worker``; None when the queue is idle, or
        ``{"drain": True}`` when the worker must drain and exit."""
        payload = self._request(
            "POST",
            "/fabric/lease",
            body={"worker": worker, "ttl_s": ttl_s},
        )
        return payload or None

    def fabric_workers(self, include_exited: bool = False) -> List[dict]:
        """The worker registry: per-worker heartbeat age, state, leases."""
        query = {"all": "1"} if include_exited else None
        payload = self._request("GET", "/fabric/workers", query=query)
        return payload.get("workers", [])

    def fabric_drain(self, worker: str) -> dict:
        """Set the durable drain directive for one worker."""
        return self._request(
            "POST", f"/fabric/workers/{quote(worker, safe='')}/drain", body={}
        )

    def fabric_deregister(self, worker: str) -> dict:
        """Report a worker's clean exit."""
        return self._request(
            "POST",
            f"/fabric/workers/{quote(worker, safe='')}/deregister",
            body={},
        )

    def fabric_heartbeat(
        self,
        campaign: str,
        lease_id: str,
        ttl_s: Optional[float] = None,
        progress: Optional[List[dict]] = None,
    ) -> dict:
        return self._request(
            "POST",
            f"/fabric/tasks/{quote(campaign, safe='')}/heartbeat",
            body={
                "lease_id": lease_id,
                "ttl_s": ttl_s,
                "progress": progress or [],
            },
        )

    def fabric_complete(
        self,
        campaign: str,
        lease_id: str,
        summary: Optional[Mapping] = None,
        bundle: Optional[Mapping] = None,
    ) -> dict:
        return self._request(
            "POST",
            f"/fabric/tasks/{quote(campaign, safe='')}/complete",
            body={
                "lease_id": lease_id,
                "summary": dict(summary or {}),
                "bundle": dict(bundle) if bundle is not None else None,
            },
        )

    def fabric_fail(
        self,
        campaign: str,
        lease_id: str,
        error: str,
        retryable: bool = True,
    ) -> dict:
        return self._request(
            "POST",
            f"/fabric/tasks/{quote(campaign, safe='')}/fail",
            body={
                "lease_id": lease_id,
                "error": error,
                "retryable": bool(retryable),
            },
        )


__all__ = ["ServiceClient", "ServiceError", "CampaignFailed"]
