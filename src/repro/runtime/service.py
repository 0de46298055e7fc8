"""The async job service: submit/status/result/stream over local JSON.

``repro-cc serve`` turns the runtime stack into a long-lived process —
one warm :class:`~repro.runtime.engine.WorkerPool`, one sharded
:class:`~repro.runtime.store.ResultStore` — that accepts job batches over
a local HTTP API and runs them through the same
:class:`~repro.runtime.engine.JobEngine` the CLIs use, so a result
computed through the service is bit-identical to one computed directly.

Endpoints (all JSON):

* ``POST /submit``              — ``{"jobs": [payload, ...]}``; each
  payload names its kind (``{"kind": "sim", "workload": ..., "config":
  ...}`` — see :func:`repro.runtime.registry.decode_job`); returns
  ``{"batch": id, "keys": [...]}``.
* ``GET /status``               — service-wide: batches, warm pool,
  store counters, cumulative warm-state movement.
* ``GET /status/<batch>``       — one batch: state, done/total, per-batch
  warm counters (all-zero on a warm repeat — the service's proof that
  nothing was recompiled).
* ``GET /result/<key>``         — the stored result, JSON-rendered by its
  kind; ``?format=pickle`` returns the exact result object
  (base64-pickled) for bit-identity checks.
* ``GET /stream/<batch>``       — newline-delimited JSON progress events,
  held open until the batch completes.
* ``POST /shutdown``            — drain and stop.

The service is deliberately **local-first**: it binds a loopback TCP
port, speaks stdlib-only HTTP (no new dependencies), and trusts its
clients — it is a build-machine experiment daemon, not an internet
service.
"""

from __future__ import annotations

import base64
import json
import pickle
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Iterator, List, Optional

from repro.runtime.engine import JobEngine, RuntimeSession
from repro.runtime.registry import decode_job, encode_result, kind_for


class ServiceError(RuntimeError):
    """A client-visible service failure (maps to an HTTP error)."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


class Batch:
    """One submitted batch of jobs and everything observed about it."""

    __slots__ = ("id", "jobs", "state", "done", "total", "events",
                 "warm", "summary", "error", "submitted_at",
                 "finished_at")

    def __init__(self, batch_id: str, jobs: List[Any]):
        self.id = batch_id
        self.jobs = jobs
        self.state = "queued"     # "queued" | "running" | "done" | "failed"
        self.done = 0
        self.total = len(jobs)
        self.events: List[Dict[str, Any]] = []
        self.warm: Dict[str, int] = {}
        self.summary: Dict[str, Any] = {}
        self.error: Optional[str] = None
        self.submitted_at = time.time()
        self.finished_at: Optional[float] = None

    def status(self) -> Dict[str, Any]:
        return {
            "batch": self.id,
            "state": self.state,
            "done": self.done,
            "total": self.total,
            "keys": [job.key for job in self.jobs],
            "warm": self.warm,
            "summary": self.summary,
            "error": self.error,
        }


class JobService:
    """The engine room behind the HTTP front: queue, scheduler, results.

    One background scheduler thread drains the batch queue through one
    :class:`RuntimeSession` whose warm pool and result store persist for
    the service's whole life — that persistence is the point: the second
    submission of a batch finds every trace memo, specialized kernel,
    and pre-decoded sidecar already in the workers, and its per-batch
    warm counters come back all-zero.
    """

    def __init__(self, jobs: int = 1, cache_dir: Optional[str] = None,
                 no_cache: bool = False, timeout: Optional[float] = None,
                 retries: int = 1, batch: int = 1):
        self.session = RuntimeSession(
            jobs=jobs, cache_dir=cache_dir, no_cache=no_cache,
            timeout=timeout, retries=retries, batch=batch,
            keep_pool=True)
        self._lock = threading.Condition()
        self._queue: List[Batch] = []
        self._batches: Dict[str, Batch] = {}
        self._results: Dict[str, Any] = {}
        self._jobs_by_key: Dict[str, Any] = {}
        self._warm_total = {"kernel_compiles": 0, "trace_builds": 0,
                            "trace_decodes": 0}
        self._serial = 0
        self._stopping = False
        self._scheduler = threading.Thread(
            target=self._drain, name="repro-job-scheduler", daemon=True)
        self._scheduler.start()

    # -- submission ---------------------------------------------------------

    def submit_payloads(self, payloads: List[Dict[str, Any]]) -> Batch:
        """Decode wire payloads into job specs and enqueue one batch."""
        if not isinstance(payloads, list) or not payloads:
            raise ServiceError("submit body needs a non-empty 'jobs' list")
        try:
            jobs = [decode_job(payload) for payload in payloads]
        except Exception as exc:  # noqa: BLE001 - client error, report it
            raise ServiceError(f"bad job payload: {exc}") from exc
        return self.submit_jobs(jobs)

    def submit_jobs(self, jobs: List[Any]) -> Batch:
        """Enqueue already-constructed job specs as one batch."""
        with self._lock:
            if self._stopping:
                raise ServiceError("service is shutting down", status=503)
            self._serial += 1
            batch = Batch(f"b{self._serial:04d}", jobs)
            self._batches[batch.id] = batch
            for job in jobs:
                self._jobs_by_key[job.key] = job
            self._queue.append(batch)
            self._lock.notify_all()
        return batch

    # -- the scheduler thread ----------------------------------------------

    def _drain(self) -> None:
        while True:
            with self._lock:
                while not self._queue and not self._stopping:
                    self._lock.wait()
                if self._stopping and not self._queue:
                    return
                batch = self._queue.pop(0)
                batch.state = "running"
                self._event(batch, {"event": "batch-start",
                                    "total": batch.total})
            try:
                self._run_batch(batch)
            except Exception as exc:  # noqa: BLE001 - batch fails, not svc
                with self._lock:
                    batch.state = "failed"
                    batch.error = f"{type(exc).__name__}: {exc}"
                    batch.finished_at = time.time()
                    self._event(batch, {"event": "batch-failed",
                                        "error": batch.error})

    def _run_batch(self, batch: Batch) -> None:
        def progress(status, outcome, done, total):
            with self._lock:
                batch.done = done
                self._event(batch, {
                    "event": "job",
                    "status": status,
                    "key": outcome.job.key,
                    "label": outcome.job.label(),
                    "done": done,
                    "total": total,
                    "wall": round(outcome.wall, 4),
                    "error": outcome.error,
                    "stats": outcome.stats,
                })

        engine = self.session.engine()
        engine.progress = progress
        report = engine.run(batch.jobs)
        with self._lock:
            for key, outcome in report.outcomes.items():
                if outcome.result is not None:
                    self._results[key] = outcome.result
            batch.warm = report.warm()
            for name, value in batch.warm.items():
                self._warm_total[name] = (self._warm_total.get(name, 0)
                                          + value)
            batch.summary = {
                "ran": report.ran,
                "cached": report.cached,
                "failed": len(report.failed),
                "elapsed": round(report.elapsed, 4),
                "duplicates": report.duplicates,
            }
            batch.state = "done"
            batch.done = batch.total
            batch.finished_at = time.time()
            self._event(batch, {"event": "batch-done",
                                "warm": batch.warm,
                                "summary": batch.summary})

    def _event(self, batch: Batch, body: Dict[str, Any]) -> None:
        body["seq"] = len(batch.events)
        body["batch"] = batch.id
        batch.events.append(body)
        self._lock.notify_all()

    # -- queries ------------------------------------------------------------

    def status(self, batch_id: Optional[str] = None) -> Dict[str, Any]:
        with self._lock:
            if batch_id is not None:
                batch = self._batches.get(batch_id)
                if batch is None:
                    raise ServiceError(f"unknown batch {batch_id!r}",
                                       status=404)
                return batch.status()
            store = self.session.cache
            pool = self.session.pool
            return {
                "batches": [b.status() for b in self._batches.values()],
                "queued": len(self._queue),
                "warm_total": dict(self._warm_total),
                "pool": ({"workers": pool.workers, "alive": pool.alive,
                          "rebuilds": pool.rebuilds,
                          "submissions": pool.submissions}
                         if pool is not None else None),
                "store": store.stats() if store is not None else None,
            }

    def events_since(self, batch_id: str, seq: int,
                     wait_s: float = 10.0) -> List[Dict[str, Any]]:
        """Events after *seq*, blocking up to *wait_s* for new ones."""
        deadline = time.monotonic() + wait_s
        with self._lock:
            batch = self._batches.get(batch_id)
            if batch is None:
                raise ServiceError(f"unknown batch {batch_id!r}",
                                   status=404)
            while (len(batch.events) <= seq
                   and batch.state in ("queued", "running")):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._lock.wait(remaining)
            return list(batch.events[seq:])

    def result(self, key: str, fmt: str = "json") -> Dict[str, Any]:
        with self._lock:
            result = self._results.get(key)
            job = self._jobs_by_key.get(key)
        if result is None and job is not None:
            store = self.session.cache
            if store is not None and kind_for(job).cacheable:
                result = store.lookup(job)
        if result is None or job is None:
            raise ServiceError(f"no result for key {key!r}", status=404)
        if fmt == "pickle":
            blob = base64.b64encode(
                pickle.dumps(result, protocol=4)).decode("ascii")
            return {"key": key, "format": "pickle", "pickle": blob}
        return {"key": key, "format": "json",
                "result": encode_result(job, result)}

    def shutdown(self) -> None:
        with self._lock:
            self._stopping = True
            self._lock.notify_all()
        self._scheduler.join(timeout=30)
        self.session.close()


# -- the HTTP front ----------------------------------------------------------

def _make_handler(service: JobService, server_box: Dict[str, Any]):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, fmt, *args):  # noqa: A003 - quiet by default
            pass

        def _reply(self, payload: Dict[str, Any], status: int = 200):
            body = (json.dumps(payload) + "\n").encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _error(self, exc: Exception):
            status = exc.status if isinstance(exc, ServiceError) else 500
            self._reply({"error": str(exc)}, status=status)

        def _body(self) -> Dict[str, Any]:
            length = int(self.headers.get("Content-Length") or 0)
            if not length:
                return {}
            try:
                return json.loads(self.rfile.read(length))
            except ValueError as exc:
                raise ServiceError(f"bad JSON body: {exc}") from exc

        def do_POST(self):  # noqa: N802 - http.server API
            try:
                if self.path == "/submit":
                    body = self._body()
                    batch = service.submit_payloads(body.get("jobs"))
                    self._reply({"batch": batch.id,
                                 "keys": [j.key for j in batch.jobs]})
                elif self.path == "/shutdown":
                    self._reply({"ok": True})
                    threading.Thread(
                        target=server_box["server"].shutdown,
                        daemon=True).start()
                else:
                    raise ServiceError(f"no such endpoint {self.path!r}",
                                       status=404)
            except Exception as exc:  # noqa: BLE001
                self._error(exc)

        def do_GET(self):  # noqa: N802 - http.server API
            try:
                path, _, query = self.path.partition("?")
                params = dict(
                    part.split("=", 1) for part in query.split("&")
                    if "=" in part)
                if path == "/status":
                    self._reply(service.status())
                elif path.startswith("/status/"):
                    self._reply(service.status(path[len("/status/"):]))
                elif path.startswith("/result/"):
                    key = path[len("/result/"):]
                    self._reply(service.result(
                        key, fmt=params.get("format", "json")))
                elif path.startswith("/stream/"):
                    self._stream(path[len("/stream/"):])
                else:
                    raise ServiceError(f"no such endpoint {path!r}",
                                       status=404)
            except Exception as exc:  # noqa: BLE001
                self._error(exc)

        def _stream(self, batch_id: str):
            """Newline-delimited JSON events until the batch finishes."""
            # Probe first so an unknown batch is a clean 404, not a
            # half-started chunked response.
            service.events_since(batch_id, 0, wait_s=0)
            self.send_response(200)
            self.send_header("Content-Type", "application/x-ndjson")
            self.send_header("Transfer-Encoding", "chunked")
            self.end_headers()

            def chunk(data: bytes):
                self.wfile.write(f"{len(data):x}\r\n".encode("ascii"))
                self.wfile.write(data + b"\r\n")

            seq = 0
            while True:
                events = service.events_since(batch_id, seq, wait_s=10.0)
                for event in events:
                    chunk((json.dumps(event) + "\n").encode("utf-8"))
                    seq = event["seq"] + 1
                self.wfile.flush()
                status = service.status(batch_id)
                if status["state"] in ("done", "failed") and not events:
                    break
            chunk(b"")  # terminal zero-length chunk

    return Handler


class ServiceHandle:
    """A started server: address, service, and a clean stop."""

    def __init__(self, server: ThreadingHTTPServer, service: JobService,
                 thread: threading.Thread):
        self.server = server
        self.service = service
        self.thread = thread

    @property
    def url(self) -> str:
        host, port = self.server.server_address[:2]
        return f"http://{host}:{port}"

    def stop(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.service.shutdown()
        self.thread.join(timeout=10)

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def start_service(host: str = "127.0.0.1", port: int = 0,
                  **service_kwargs) -> ServiceHandle:
    """Start the job service on a background thread; returns a handle.

    ``port=0`` binds an ephemeral port — read it back from ``.url``.
    """
    service = JobService(**service_kwargs)
    server_box: Dict[str, Any] = {}
    server = ThreadingHTTPServer(
        (host, port), _make_handler(service, server_box))
    server.daemon_threads = True
    server_box["server"] = server
    thread = threading.Thread(target=server.serve_forever,
                              name="repro-job-service", daemon=True)
    thread.start()
    return ServiceHandle(server, service, thread)


def serve_forever(host: str = "127.0.0.1", port: int = 7399,
                  **service_kwargs) -> int:
    """Blocking entry point for ``repro-cc serve``."""
    handle = start_service(host=host, port=port, **service_kwargs)
    print(f"repro-cc serve: listening on {handle.url} "
          f"(jobs={handle.service.session.jobs}, "
          f"store={'on' if handle.service.session.cache else 'off'})")
    try:
        handle.thread.join()
    except KeyboardInterrupt:
        pass
    finally:
        handle.stop()
    return 0


# -- the client --------------------------------------------------------------

class ServiceClient:
    """Talk to a running job service (stdlib urllib; no dependencies)."""

    def __init__(self, url: str, timeout: float = 60.0):
        self.url = url.rstrip("/")
        self.timeout = timeout

    def _request(self, path: str, body: Optional[Dict[str, Any]] = None
                 ) -> Dict[str, Any]:
        import urllib.error
        import urllib.request

        data = (json.dumps(body).encode("utf-8")
                if body is not None else None)
        request = urllib.request.Request(
            self.url + path, data=data,
            headers={"Content-Type": "application/json"},
            method="POST" if data is not None else "GET")
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout) as reply:
                return json.loads(reply.read())
        except urllib.error.HTTPError as exc:
            try:
                detail = json.loads(exc.read()).get("error", "")
            except Exception:  # noqa: BLE001
                detail = ""
            raise ServiceError(detail or str(exc),
                               status=exc.code) from exc

    def submit(self, payloads: List[Dict[str, Any]]) -> Dict[str, Any]:
        return self._request("/submit", {"jobs": payloads})

    def status(self, batch_id: Optional[str] = None) -> Dict[str, Any]:
        path = "/status" if batch_id is None else f"/status/{batch_id}"
        return self._request(path)

    def result(self, key: str, fmt: str = "json") -> Dict[str, Any]:
        return self._request(f"/result/{key}?format={fmt}")

    def result_object(self, key: str) -> Any:
        """The exact result object (for bit-identity comparisons)."""
        reply = self.result(key, fmt="pickle")
        return pickle.loads(base64.b64decode(reply["pickle"]))

    def stream(self, batch_id: str) -> Iterator[Dict[str, Any]]:
        """Yield progress events until the batch completes."""
        import urllib.error
        import urllib.request

        request = urllib.request.Request(self.url + f"/stream/{batch_id}")
        try:
            reply = urllib.request.urlopen(request, timeout=self.timeout)
        except urllib.error.HTTPError as exc:
            try:
                detail = json.loads(exc.read()).get("error", "")
            except Exception:  # noqa: BLE001
                detail = ""
            raise ServiceError(detail or str(exc),
                               status=exc.code) from exc
        with reply:
            for line in reply:
                line = line.strip()
                if line:
                    yield json.loads(line)

    def wait(self, batch_id: str, timeout: float = 600.0
             ) -> Dict[str, Any]:
        """Block until the batch is done (or failed); returns its status."""
        deadline = time.monotonic() + timeout
        while True:
            status = self.status(batch_id)
            if status["state"] in ("done", "failed"):
                return status
            if time.monotonic() > deadline:
                raise ServiceError(
                    f"batch {batch_id} still {status['state']} after "
                    f"{timeout}s", status=504)
            time.sleep(0.1)

    def shutdown(self) -> None:
        self._request("/shutdown", {})
