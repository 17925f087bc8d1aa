"""Always-on campaign service: asyncio job queue over the shared pool.

``repro serve`` turns the one-shot sweep executor into a resident
orchestration layer:

* **job queue** — connections submit campaign specs (sweep / table1 /
  chaos / selftest); jobs run FIFO, one at a time, each fanning its
  tasks over the shared work-stealing pool (worker slots are a
  service-wide resource, so running jobs concurrently would only
  interleave the same slots);
* **persistent workers** — one :class:`WorkStealingScheduler` lives for
  the whole service lifetime; its process pool survives between jobs
  (no per-campaign pool spin-up) and is rebuilt automatically if a task
  hard-crashes it;
* **result cache** — every job shares one content-addressed
  :class:`ResultCache`, so resubmitting an identical campaign returns
  stored results without touching the pool.

The wire protocol is JSON-lines over a Unix socket or localhost TCP.
Each request is one JSON object with an ``op``; the server replies with
zero or more ``{"event": ...}`` lines (task progress, for waiting
submits) followed by exactly one final object carrying ``"done": true``.
Ops: ``submit``, ``status``, ``result``, ``stats``, ``ping``,
``shutdown``.

Pool start method: jobs execute in a worker thread (to keep the event
loop responsive), and forking from a threaded process is unsafe — the
service therefore defaults to ``forkserver`` (or ``spawn``) rather than
the repo-wide ``fork`` pin.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
from typing import Any

from .cache import ResultCache
from .jobs import run_campaign_job, validate_spec
from .scheduler import WorkStealingScheduler

__all__ = ["CampaignService", "serve"]

#: completed-job documents retained in memory (oldest evicted first)
KEEP_RESULTS = 64


def _service_mp_method() -> str:
    """Thread-safe start method: forkserver where available, else spawn."""
    methods = multiprocessing.get_all_start_methods()
    return "forkserver" if "forkserver" in methods else "spawn"


class Job:
    """One queued campaign submission."""

    __slots__ = ("id", "spec", "state", "doc", "error", "done",
                 "subscribers")

    def __init__(self, job_id: str, spec: dict[str, Any]):
        self.id = job_id
        self.spec = spec
        self.state = "queued"  # queued -> running -> done | failed
        self.doc: dict[str, Any] | None = None
        self.error: str | None = None
        self.done = asyncio.Event()
        #: live task-event fan-out to waiting connections
        self.subscribers: set[asyncio.Queue] = set()

    def brief(self) -> dict[str, Any]:
        out: dict[str, Any] = {"job": self.id, "state": self.state,
                               "kind": self.spec.get("kind")}
        if self.error:
            out["error"] = self.error
        if self.doc is not None:
            out["summary"] = self.doc["summary"]
        return out


class CampaignService:
    """The resident orchestrator behind ``repro serve``."""

    def __init__(self, workers: int = 2, cache: ResultCache | None = None):
        from ..obs import MetricsRegistry

        self.workers = max(1, int(workers))
        self.cache = cache
        #: service-lifetime accounting registry (cache hits/misses, work
        #: stealing, job tallies) — separate from per-job simulation obs
        self.registry = MetricsRegistry()
        self.scheduler = WorkStealingScheduler(
            self.workers, mp_method=_service_mp_method(), obs=self.registry)
        self.jobs: dict[str, Job] = {}
        self._order: list[str] = []
        self._queue: asyncio.Queue[Job] = asyncio.Queue()
        self._next_id = 0
        self._runner: asyncio.Task | None = None
        self._stopping = asyncio.Event()
        #: open connections: handler task -> its writer
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}

    # -- job lifecycle -------------------------------------------------
    def submit(self, spec: dict[str, Any]) -> Job:
        """Validate and enqueue a campaign spec (raises ConfigError)."""
        spec = validate_spec(spec)
        self._next_id += 1
        job = Job(f"job-{self._next_id:06d}", spec)
        self.jobs[job.id] = job
        self._order.append(job.id)
        while len(self._order) > KEEP_RESULTS:
            old = self._order.pop(0)
            stale = self.jobs.get(old)
            if stale is not None and stale.done.is_set():
                del self.jobs[old]
            else:  # still queued/running: keep it, stop evicting
                self._order.insert(0, old)
                break
        self._queue.put_nowait(job)
        self.registry.counter("service.jobs", ("state",)).inc(
            labels=("submitted",))
        return job

    async def _run_jobs(self) -> None:
        loop = asyncio.get_running_loop()
        while not self._stopping.is_set():
            get = asyncio.create_task(self._queue.get())
            stop = asyncio.create_task(self._stopping.wait())
            done, pending = await asyncio.wait(
                {get, stop}, return_when=asyncio.FIRST_COMPLETED)
            for task in pending:
                task.cancel()
            if get not in done:
                break
            job = get.result()
            job.state = "running"

            def on_event(event: dict[str, Any], job: Job = job) -> None:
                # called from the job thread; hop onto the loop
                loop.call_soon_threadsafe(self._publish, job, event)

            try:
                job.doc = await asyncio.to_thread(
                    run_campaign_job, job.spec, self.workers,
                    self.cache, self.scheduler, self.registry, on_event,
                )
                job.state = "done"
                self.registry.counter("service.jobs", ("state",)).inc(
                    labels=("done",))
            except Exception as exc:  # noqa: BLE001 — job isolation
                job.state = "failed"
                job.error = f"{type(exc).__name__}: {exc}"
                self.registry.counter("service.jobs", ("state",)).inc(
                    labels=("failed",))
            job.done.set()
            self._publish(job, None)  # wake subscribers for the finale

    def _publish(self, job: Job, event: dict[str, Any] | None) -> None:
        for queue in list(job.subscribers):
            queue.put_nowait(event)

    # -- stats ---------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        jobs_counter = self.registry.counter("service.jobs", ("state",))
        out: dict[str, Any] = {
            "workers": self.workers,
            "mp_method": self.scheduler.mp_method,
            "jobs": {
                "submitted": int(jobs_counter.get(("submitted",))),
                "done": int(jobs_counter.get(("done",))),
                "failed": int(jobs_counter.get(("failed",))),
                "queued": self._queue.qsize(),
            },
            "steals": int(self.registry.counter("service.steals").get()),
            "leases": int(self.registry.counter("service.leases").get()),
            "tasks_lost": int(
                self.registry.counter("service.tasks_lost").get()),
            "cache": self.cache.stats() if self.cache is not None else None,
        }
        return out

    # -- wire protocol -------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        async def send(obj: dict[str, Any]) -> None:
            writer.write(json.dumps(obj, sort_keys=True).encode() + b"\n")
            await writer.drain()

        task = asyncio.current_task()
        assert task is not None
        self._connections[task] = writer
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError as exc:
                    # a line past the stream limit: what follows it on the
                    # connection cannot be framed, so answer and hang up
                    await send({"ok": False, "done": True,
                                "error": f"request line too long: {exc}"})
                    break
                if not line:
                    break
                try:
                    request = json.loads(line)
                except ValueError:
                    await send({"ok": False, "error": "bad JSON",
                                "done": True})
                    continue
                try:
                    stop = await self._dispatch(request, send)
                except Exception as exc:  # noqa: BLE001 — protocol guard
                    await send({"ok": False, "done": True,
                                "error": f"{type(exc).__name__}: {exc}"})
                    continue
                if stop:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            del self._connections[task]
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(self, request: dict[str, Any], send) -> bool:
        op = request.get("op")
        if op == "ping":
            await send({"ok": True, "pong": True, "done": True})
        elif op == "submit":
            await self._op_submit(request, send)
        elif op == "status":
            job_id = request.get("job")
            if job_id:
                job = self.jobs.get(job_id)
                if job is None:
                    await send({"ok": False, "done": True,
                                "error": f"unknown job {job_id!r}"})
                    return False
                await send({"ok": True, "done": True, **job.brief()})
            else:
                await send({"ok": True, "done": True,
                            "jobs": [self.jobs[j].brief()
                                     for j in self._order]})
        elif op == "result":
            job = self.jobs.get(request.get("job", ""))
            if job is None or job.doc is None:
                await send({"ok": False, "done": True,
                            "error": "no such finished job"})
            else:
                await send({"ok": True, "done": True, **job.brief(),
                            "results": job.doc["results"],
                            "obs": job.doc["obs"]})
        elif op == "stats":
            await send({"ok": True, "done": True, "stats": self.stats()})
        elif op == "shutdown":
            await send({"ok": True, "done": True, "stopping": True})
            self._stopping.set()
            return True
        else:
            await send({"ok": False, "done": True,
                        "error": f"unknown op {op!r}"})
        return False

    async def _op_submit(self, request: dict[str, Any], send) -> None:
        from ..errors import ConfigError

        try:
            job = self.submit(request.get("campaign") or {})
        except ConfigError as exc:
            await send({"ok": False, "done": True, "error": str(exc)})
            return
        if not request.get("wait", True):
            await send({"ok": True, "done": True, "job": job.id,
                        "state": job.state})
            return
        events: asyncio.Queue = asyncio.Queue()
        job.subscribers.add(events)
        try:
            # None: the job is over, or the service is hanging up
            while not job.done.is_set():
                event = await events.get()
                if event is None:
                    break
                if request.get("stream", True):
                    await send({"event": event})
        finally:
            job.subscribers.discard(events)
        reply: dict[str, Any] = {"ok": job.state == "done", "done": True,
                                 **job.brief()}
        if job.doc is not None and request.get("include_results"):
            reply["results"] = job.doc["results"]
            reply["obs"] = job.doc["obs"]
        await send(reply)

    # -- lifecycle -----------------------------------------------------
    async def _hang_up(self) -> None:
        """Close every open connection and wait for its handler to end, so
        the server closes without waiting on its clients: an idle handler
        reads end-of-file, one waiting on a job is woken and finds its
        connection gone."""
        for writer in self._connections.values():
            writer.close()
        for job in self.jobs.values():
            self._publish(job, None)
        # a handler's own error is logged by its stream protocol
        await asyncio.gather(*self._connections, return_exceptions=True)

    async def serve(self, socket_path: str | None = None,
                    host: str = "127.0.0.1", port: int = 7723,
                    ready: Any = None) -> None:
        """Listen until a ``shutdown`` op (or task cancellation).

        ``ready`` is an optional ``threading.Event`` set once the socket
        is bound (used by in-thread test servers)."""
        self._runner = asyncio.ensure_future(self._run_jobs())
        if socket_path:
            server = await asyncio.start_unix_server(
                self._handle, path=socket_path)
            where = socket_path
        else:
            server = await asyncio.start_server(self._handle, host, port)
            where = f"{host}:{port}"
        print(f"repro service listening on {where} "
              f"(workers={self.workers}, "
              f"cache={'on' if self.cache else 'off'})", flush=True)
        if ready is not None:
            ready.set()
        try:
            async with server:
                await self._stopping.wait()
                server.close()  # accept no new client while hanging up
                await self._hang_up()
        finally:
            self._stopping.set()
            if self._runner is not None:
                self._runner.cancel()
                try:
                    await self._runner
                except (asyncio.CancelledError, Exception):  # noqa: BLE001
                    pass
            self.scheduler.close()


def serve(socket_path: str | None = None, host: str = "127.0.0.1",
          port: int = 7723, workers: int = 2,
          cache_dir: str | None = None, no_cache: bool = False) -> int:
    """Blocking entry point for ``repro serve``."""
    cache = None if no_cache else ResultCache(cache_dir)
    service = CampaignService(workers=workers, cache=cache)
    try:
        asyncio.run(service.serve(socket_path=socket_path, host=host,
                                  port=port))
    except KeyboardInterrupt:
        pass
    return 0
