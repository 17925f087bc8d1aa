"""Campaign service end-to-end: job queue, wire protocol, cache reuse."""

import asyncio
import json
import threading
import time

import pytest

from repro.errors import ConfigError
from repro.obs import MetricsRegistry
from repro.service import (
    CampaignService,
    ResultCache,
    ServiceClient,
    run_campaign_job,
    validate_spec,
)
from repro.sweep import Scheduler


# ----------------------------------------------------------------------
# spec validation
# ----------------------------------------------------------------------

def test_validate_spec_rejects_unknown_kind_and_fields():
    with pytest.raises(ConfigError, match="unknown campaign kind"):
        validate_spec({"kind": "nope"})
    with pytest.raises(ConfigError, match="unknown spec field"):
        validate_spec({"kind": "selftest", "bogus": 1})
    assert validate_spec({"kind": "selftest", "tasks": 3})["tasks"] == 3


@pytest.mark.parametrize("spec", [
    {"kind": "chaos", "kernels": ["bogus"]},
    {"kind": "table1", "kernels": ["ZZ"]},
])
def test_validate_spec_rejects_unknown_kernel_names(spec):
    with pytest.raises(ConfigError, match=f"unknown {spec['kind']} kernel"):
        validate_spec(spec)


def test_validate_spec_rejects_unknown_synthetic_bug():
    with pytest.raises(ConfigError, match="unknown synthetic bug 'bogus'"):
        validate_spec({"kind": "chaos", "bug": "bogus"})
    assert validate_spec({"kind": "chaos", "bug": "ack_drop"})["bug"] == \
        "ack_drop"


# ----------------------------------------------------------------------
# job runner (no server)
# ----------------------------------------------------------------------

def test_run_campaign_job_selftest_summary_and_digests():
    cache = ResultCache()
    events = []
    cold = run_campaign_job({"kind": "selftest", "tasks": 4}, workers=1,
                            cache=cache, on_event=events.append)
    assert cold["summary"]["tasks"] == 4
    assert cold["summary"]["ok"] == 4 and cold["summary"]["errors"] == 0
    assert cold["summary"]["cache"] == {"hits": 0, "misses": 4,
                                        "stores": 4, "unkeyable": 0}
    done = [e for e in events if e["kind"] == "task_done"]
    assert [e["index"] for e in done] == [0, 1, 2, 3]
    assert not any(e["cached"] for e in done)

    events.clear()
    warm = run_campaign_job({"kind": "selftest", "tasks": 4}, workers=1,
                            cache=cache, on_event=events.append)
    assert warm["summary"]["cache"] == {"hits": 4, "misses": 0,
                                        "stores": 0, "unkeyable": 0}
    assert all(e["cached"] for e in events if e["kind"] == "task_done")
    # byte-identity, asserted through the content digests and documents
    assert warm["summary"]["results_digest"] == \
        cold["summary"]["results_digest"]
    assert warm["summary"]["obs_digest"] == cold["summary"]["obs_digest"]
    assert warm["results"] == cold["results"]
    assert warm["obs"] == cold["obs"]


def test_leases_total_counts_only_the_jobs_own_leases():
    """Jobs that share one scheduler and one service registry each report
    their own leases, not the registry's lifetime count."""
    cache, registry = ResultCache(), MetricsRegistry()
    spec = {"kind": "selftest", "tasks": 4}
    with Scheduler(2) as sched:
        cold = run_campaign_job(spec, workers=2, cache=cache,
                                scheduler=sched, service_obs=registry)
        warm = run_campaign_job(spec, workers=2, cache=cache,
                                scheduler=sched, service_obs=registry)
    assert cold["summary"]["leases_total"] == 4
    # the cache serves every task of the second job: nothing is leased
    assert warm["summary"]["cache"]["hits"] == 4
    assert warm["summary"]["leases_total"] == 0
    assert registry.counter("service.leases").get() == 4


def test_the_wire_carries_the_stream_events(tmp_path):
    """A job's events are the ``--stream`` records of the same campaign,
    begin and end included; a wire ``task_done`` always says ``cached``."""
    from repro.campaigns import run_campaign

    spec = {"kind": "table1", "kernels": ["CG"], "ranks": [8],
            "clusters": [2], "niters": 2}
    path = tmp_path / "stream.jsonl"
    run_campaign(spec, stream=str(path))
    wire = []
    run_campaign_job(spec, on_event=wire.append)

    def timeless(event):
        return {k: v for k, v in event.items()
                if k not in ("elapsed_s", "duration_s")}

    streamed = [json.loads(line) for line in path.read_text().splitlines()]
    assert [e["kind"] for e in wire] == [
        "campaign_begin", "task_done", "campaign_end"]
    assert wire[1]["cached"] is False and "cached" not in streamed[1]
    streamed[1]["cached"] = False
    assert [timeless(e) for e in wire] == [timeless(e) for e in streamed]
    assert {"done", "total", "metrics", "duration_s"} <= set(wire[1])


# ----------------------------------------------------------------------
# resident service over a unix socket
# ----------------------------------------------------------------------

@pytest.fixture
def service(tmp_path):
    sock = str(tmp_path / "svc.sock")
    holder = {}
    ready = threading.Event()

    def runner():
        # the service object owns asyncio primitives, so it must be
        # created on the loop thread
        svc = CampaignService(workers=1, cache=ResultCache())
        holder["svc"] = svc
        asyncio.run(svc.serve(socket_path=sock, ready=ready))

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    assert ready.wait(15), "service did not come up"
    yield sock
    try:
        with ServiceClient(sock, timeout=15) as client:
            client.shutdown()
    except (OSError, ConfigError):
        pass  # already stopped by the test
    thread.join(timeout=30)
    assert not thread.is_alive()


def test_ping_and_stats(service):
    with ServiceClient(service, timeout=30) as client:
        assert client.ping()
        stats = client.stats()["stats"]
    assert stats["workers"] == 1
    assert stats["jobs"]["submitted"] == 0
    assert stats["cache"]["hits"] == 0


def test_submit_twice_second_run_all_cache_hits(service):
    events = []
    with ServiceClient(service, timeout=60) as client:
        cold = client.submit({"kind": "selftest", "tasks": 5},
                             on_event=events.append)
        warm = client.submit({"kind": "selftest", "tasks": 5},
                             include_results=True)
        stats = client.stats()["stats"]
    assert cold["ok"] and warm["ok"]
    assert cold["summary"]["cache"]["misses"] == 5
    assert len([e for e in events if e.get("kind") == "task_done"]) == 5
    assert warm["summary"]["cache"] == {"hits": 5, "misses": 0,
                                        "stores": 0, "unkeyable": 0}
    assert warm["summary"]["results_digest"] == \
        cold["summary"]["results_digest"]
    assert warm["summary"]["obs_digest"] == cold["summary"]["obs_digest"]
    assert warm["results"]["tasks"] == 5  # include_results ships the doc
    assert stats["jobs"]["done"] == 2
    assert stats["cache"] == {"hits": 5, "misses": 5, "stores": 5,
                              "unkeyable": 0, "entries_memory": 5}


def test_no_wait_submit_then_poll_status_and_result(service):
    with ServiceClient(service, timeout=60) as client:
        reply = client.submit({"kind": "selftest", "tasks": 2}, wait=False)
        job = reply["job"]
        assert job.startswith("job-")
        for _ in range(200):
            brief = client.status(job)
            if brief["state"] in ("done", "failed"):
                break
        assert brief["state"] == "done"
        doc = client.result(job)
        assert doc["results"]["tasks"] == 2
        listing = client.status()
        assert [j["job"] for j in listing["jobs"]] == [job]


def test_bad_spec_rejected_without_killing_connection(service):
    with ServiceClient(service, timeout=30) as client:
        reply = client.submit({"kind": "nope"})
        assert not reply.get("ok")
        assert "unknown campaign kind" in reply["error"]
        assert client.ping()  # connection still serviceable


def test_unknown_kernel_refused_at_submit(service):
    """Refused when submitted, not queued to error in every trial."""
    with ServiceClient(service, timeout=30) as client:
        reply = client.submit({"kind": "chaos", "trials": 2,
                               "kernels": ["bogus"]})
        assert not reply.get("ok")
        assert "unknown chaos kernel(s) bogus" in reply["error"]
        assert "job" not in reply
        assert client.stats()["stats"]["jobs"]["submitted"] == 0


def test_unknown_bug_refused_at_submit(service):
    with ServiceClient(service, timeout=30) as client:
        reply = client.submit({"kind": "chaos", "trials": 2, "bug": "bogus"})
        assert not reply.get("ok")
        assert "unknown synthetic bug 'bogus'" in reply["error"]
        assert "job" not in reply
        assert client.stats()["stats"]["jobs"]["submitted"] == 0


def test_oversized_request_line_is_answered(service):
    """A line past the stream limit gets an error reply (and the
    connection, whose framing it broke, is closed); the service serves
    the next client."""
    with ServiceClient(service, timeout=30) as client:
        client._fh.write(b'{"op": "ping", "pad": "' + b"x" * 70_000 + b'"}\n')
        client._fh.flush()
        reply = json.loads(client._fh.readline())
        assert reply["ok"] is False and reply["done"] is True
        assert "request line too long" in reply["error"]
        assert client._fh.readline() == b""  # hung up
    with ServiceClient(service, timeout=30) as client:
        assert client.ping()


def test_unknown_op_and_bad_json_are_protocol_errors(service):
    with ServiceClient(service, timeout=30) as client:
        reply = client.request("frobnicate")
        assert not reply["ok"] and "unknown op" in reply["error"]
        client._fh.write(b"{not json\n")
        client._fh.flush()
        line = client._fh.readline()
        assert b"bad JSON" in line
        assert client.ping()


def test_service_pool_job_with_two_workers(tmp_path):
    """One heavier check: a real pooled job through the thread-safe
    (forkserver/spawn) service start method, warm resubmission included."""
    sock = str(tmp_path / "pool.sock")
    ready = threading.Event()

    def runner():
        svc = CampaignService(workers=2, cache=ResultCache())
        asyncio.run(svc.serve(socket_path=sock, ready=ready))

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    assert ready.wait(15)
    try:
        with ServiceClient(sock, timeout=180) as client:
            cold = client.submit({"kind": "selftest", "tasks": 6})
            warm = client.submit({"kind": "selftest", "tasks": 6})
            stats = client.stats()["stats"]
        assert cold["ok"] and warm["ok"]
        assert cold["summary"]["leases_total"] == 6  # pooled, not inline
        assert warm["summary"]["cache"]["hits"] == 6
        assert warm["summary"]["results_digest"] == \
            cold["summary"]["results_digest"]
        assert warm["summary"]["obs_digest"] == cold["summary"]["obs_digest"]
        assert stats["mp_method"] in ("forkserver", "spawn")
    finally:
        with ServiceClient(sock, timeout=15) as client:
            client.shutdown()
        thread.join(timeout=30)
        assert not thread.is_alive()


# ----------------------------------------------------------------------
# lifecycle: other clients connected at shutdown, a client that leaves
# ----------------------------------------------------------------------

def _start_service(sock, logged):
    """Serve on ``sock`` from a daemon thread; every message the event
    loop's exception handler receives is appended to ``logged``."""
    ready = threading.Event()

    async def main():
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: logged.append(context["message"]))
        service = CampaignService(workers=1, cache=ResultCache())
        await service.serve(socket_path=sock, ready=ready)

    thread = threading.Thread(target=asyncio.run, args=(main(),),
                              daemon=True)
    thread.start()
    assert ready.wait(15), "service did not come up"
    return thread


def test_shutdown_hangs_up_on_an_idle_client(tmp_path):
    """Shutdown while another client sits idle on its connection: the
    service closes that connection and returns, and the loop logs
    nothing (it used to leave the connection open, which one Python
    version waits on forever and another reports as a cancelled task)."""
    sock, logged = str(tmp_path / "svc.sock"), []
    thread = _start_service(sock, logged)
    with ServiceClient(sock, timeout=30) as idle:
        assert idle.ping()
        with ServiceClient(sock, timeout=30) as client:
            assert client.shutdown()["stopping"]
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert idle._fh.readline() == b""  # hung up on
    assert logged == []


def test_client_that_disconnects_mid_job(tmp_path):
    """A client leaves after its job's first streamed event: the job still
    completes, the next submit is served, and shutdown is clean."""
    sock, logged = str(tmp_path / "svc.sock"), []
    thread = _start_service(sock, logged)
    with ServiceClient(sock, timeout=60) as client:
        client._fh.write(json.dumps(
            {"op": "submit", "campaign": {"kind": "chaos", "trials": 6}}
        ).encode() + b"\n")
        client._fh.flush()
        assert "event" in json.loads(client._fh.readline())
    with ServiceClient(sock, timeout=60) as client:
        for _ in range(600):
            if client.status("job-000001")["state"] != "running":
                break
            time.sleep(0.05)
        brief = client.status("job-000001")
        assert brief["state"] == "done"
        assert brief["summary"]["tasks"] == 6
        assert client.submit({"kind": "selftest", "tasks": 2})["ok"]
        assert client.shutdown()["stopping"]
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert logged == []
