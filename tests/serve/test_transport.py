"""Transport battery: HTTP and NDJSON stdio around one ServeApp.

The transport layer's entire contract is "carry the canonical body
without touching it": HTTP status codes mirror the body's ``ok``
flag, stdio transcripts stay line-aligned with their input, and
neither transport invents or rewrites response content.
"""

from __future__ import annotations

import asyncio
import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.runner.pool import InlineWorkerPool
from repro.serve.app import ServeApp
from repro.serve.client import parse_endpoint, remote_call
from repro.serve.transport import (
    MAX_BODY_BYTES,
    _read_request,
    serve_stdio,
    start_http_server,
)
from repro.runner.faults import SweepConfigError
from tests.serve.conftest import plan_request, run


def http_session(requests):
    """Run ``requests`` -- ``(method, path, document|None)`` tuples
    -- against an ephemeral server; returns (status, body) pairs."""
    app = ServeApp(InlineWorkerPool(), pressure=0)

    async def scenario():
        server = await start_http_server(app, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        loop = asyncio.get_running_loop()
        results = []
        for method, path, document in requests:
            results.append(await loop.run_in_executor(
                None, _raw_call, port, method, path, document
            ))
        server.close()
        await server.wait_closed()
        return results

    try:
        return run(scenario())
    finally:
        app.close()


def _raw_call(port, method, path, document):
    import http.client

    connection = http.client.HTTPConnection(
        "127.0.0.1", port, timeout=60
    )
    try:
        body = (
            json.dumps(document) if document is not None else None
        )
        connection.request(method, path, body=body)
        response = connection.getresponse()
        return response.status, response.read().decode("utf-8")
    finally:
        connection.close()


class TestHttp:
    def test_post_ok_request_returns_200_with_body(self):
        [(status, body)] = http_session([
            ("POST", "/v1", plan_request()),
        ])
        assert status == 200
        document = json.loads(body)
        assert document["ok"] is True
        assert document["provenance"] == "fallback:first_order"

    def test_post_error_request_returns_400_structured(self):
        [(status, body)] = http_session([
            ("POST", "/v1", {"op": "warp", "id": "bad-1"}),
        ])
        assert status == 400
        document = json.loads(body)
        assert document["ok"] is False
        assert document["status"] == "error"
        assert document["error"]["type"] == "ServeProtocolError"
        assert document["id"] == "bad-1"

    def test_root_path_is_an_alias_for_v1(self):
        [(status_v1, body_v1), (status_root, body_root)] = (
            http_session([
                ("POST", "/v1", plan_request()),
                ("POST", "/", plan_request()),
            ])
        )
        assert status_v1 == status_root == 200
        assert body_v1 == body_root

    def test_unknown_route_is_404(self):
        [(status, body)] = http_session([
            ("GET", "/nope", None),
        ])
        assert status == 404
        assert json.loads(body)["ok"] is False

    def test_healthz_and_stats(self):
        results = http_session([
            ("GET", "/healthz", None),
            ("POST", "/v1", plan_request()),
            ("GET", "/stats", None),
        ])
        status, health_body = results[0]
        assert status == 200
        health = json.loads(health_body)
        assert health["ok"] is True
        assert health["generation"] == 0
        assert health["inflight"] == 0
        assert health["lru"]["hits"] == 0
        status, stats_body = results[2]
        assert status == 200
        stats = json.loads(stats_body)
        assert stats["op"] == "stats"
        assert stats["requests"] == 2  # the plan + this stats call
        assert stats["searches"] == 1
        assert stats["pool"]["serial"] is True

    def test_oversized_body_is_rejected_before_it_is_read(self):
        """The Content-Length bound fires off the header alone --
        the parser never waits for (or allocates) the huge body."""

        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(
                b"POST /v1 HTTP/1.1\r\n"
                + f"Content-Length: {MAX_BODY_BYTES + 1}\r\n"
                  "\r\n".encode("ascii")
            )
            reader.feed_eof()
            with pytest.raises(ValueError, match="exceeds"):
                await _read_request(reader)

        run(scenario())

    def test_malformed_json_body_is_a_structured_error(self):
        app = ServeApp(InlineWorkerPool(), pressure=0)

        async def scenario():
            server = await start_http_server(app, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            loop = asyncio.get_running_loop()

            def post_garbage():
                import http.client

                connection = http.client.HTTPConnection(
                    "127.0.0.1", port, timeout=60
                )
                try:
                    connection.request(
                        "POST", "/v1", body="{not json"
                    )
                    response = connection.getresponse()
                    return (
                        response.status,
                        response.read().decode("utf-8"),
                    )
                finally:
                    connection.close()

            result = await loop.run_in_executor(None, post_garbage)
            server.close()
            await server.wait_closed()
            return result

        try:
            status, body = run(scenario())
        finally:
            app.close()
        assert status == 400
        document = json.loads(body)
        assert document["ok"] is False
        assert document["error"]["type"] == "ServeProtocolError"


class TestStdio:
    def serve_lines(self, lines, **app_kwargs):
        app = ServeApp(
            InlineWorkerPool(), pressure=0, **app_kwargs
        )
        stdin = io.StringIO("".join(
            line + "\n" for line in lines
        ))
        stdout = io.StringIO()
        try:
            served = run(serve_stdio(app, stdin, stdout))
        finally:
            app.close()
        return served, stdout.getvalue().splitlines()

    def test_one_body_per_line_in_input_order(self):
        lines = [
            json.dumps(plan_request(id="a")),
            json.dumps({"op": "stats", "id": "b"}),
            json.dumps(plan_request(id="c", budget=32)),
        ]
        served, out = self.serve_lines(lines)
        assert served == 3
        assert len(out) == 3
        assert [json.loads(line)["id"] for line in out] == [
            "a", "b", "c",
        ]
        assert json.loads(out[0])["ok"] is True
        assert json.loads(out[2])["budget"] == 32

    def test_blank_lines_are_skipped(self):
        served, out = self.serve_lines([
            "", json.dumps(plan_request()), "   ",
        ])
        assert served == 1
        assert len(out) == 1

    def test_malformed_line_yields_an_aligned_error_body(self):
        served, out = self.serve_lines([
            "{not json",
            json.dumps(plan_request()),
        ])
        assert served == 2
        assert len(out) == 2
        error = json.loads(out[0])
        assert error["ok"] is False
        assert error["error"]["type"] == "ServeProtocolError"
        assert json.loads(out[1])["ok"] is True

    def test_repeat_lines_hit_the_lru(self):
        from repro.serve.lru import SaltedLRU

        lines = [json.dumps(plan_request())] * 3
        app = ServeApp(
            InlineWorkerPool(), lru=SaltedLRU(8), pressure=0
        )
        stdin = io.StringIO("".join(
            line + "\n" for line in lines
        ))
        stdout = io.StringIO()
        try:
            run(serve_stdio(app, stdin, stdout))
        finally:
            app.close()
        out = stdout.getvalue().splitlines()
        assert len(set(out)) == 1
        assert app.searches == 1
        assert app.lru.hits == 2

    def test_bytes_stdin_is_decoded(self):
        served, out = self.serve_lines_bytes([
            json.dumps(plan_request()).encode("utf-8"),
        ])
        assert served == 1
        assert json.loads(out[0])["ok"] is True

    def serve_lines_bytes(self, raw_lines):
        app = ServeApp(InlineWorkerPool(), pressure=0)
        stdin = io.BytesIO(b"".join(
            line + b"\n" for line in raw_lines
        ))
        stdout = io.StringIO()
        try:
            served = run(serve_stdio(app, stdin, stdout))
        finally:
            app.close()
        return served, stdout.getvalue().splitlines()


class TestClient:
    def test_parse_endpoint(self):
        assert parse_endpoint("127.0.0.1:8734") == (
            "127.0.0.1", 8734
        )
        assert parse_endpoint("[::1]:8734") == ("::1", 8734)
        with pytest.raises(SweepConfigError):
            parse_endpoint("no-port-here")
        with pytest.raises(SweepConfigError):
            parse_endpoint("host:not-a-number")

    def test_remote_call_round_trip(self):
        app = ServeApp(InlineWorkerPool(), pressure=0)

        async def scenario():
            server = await start_http_server(app, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            loop = asyncio.get_running_loop()
            result = await loop.run_in_executor(
                None, remote_call, "127.0.0.1", port,
                plan_request(),
            )
            server.close()
            await server.wait_closed()
            return result

        try:
            status, body = run(scenario())
        finally:
            app.close()
        assert status == 200
        assert json.loads(body)["ok"] is True


SRC = Path(__file__).resolve().parents[2] / "src"


def session_members(sid):
    """Live (non-zombie) processes whose session id is ``sid``."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Fields after the parenthesized command name: state is
        # field 3, session field 6 (1-based, see proc(5)).
        fields = stat[stat.rindex(")") + 2:].split()
        if fields[0] != "Z" and int(fields[3]) == sid:
            members.append(int(entry.name))
    return members


@pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="needs procfs"
)
class TestServeProcess:
    def test_sigterm_reaps_the_pool_worker(self, tmp_path):
        """``repro serve --jobs 1`` forks its pool worker on the
        first plan; SIGTERM must shut the pool down with the server
        so no process of the server's session survives it."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + env.get("PYTHONPATH", "").split(os.pathsep)
        ).rstrip(os.pathsep)
        log = tmp_path / "serve.log"
        with open(log, "w") as sink:
            server = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--jobs", "1",
                 "--port", "0", "--cache-dir", str(tmp_path / "cache")],
                env=env, stdin=subprocess.DEVNULL, stdout=sink,
                stderr=sink, start_new_session=True,
            )
        try:
            port = None
            deadline = time.monotonic() + 60
            while port is None and time.monotonic() < deadline:
                assert server.poll() is None, log.read_text()
                for line in log.read_text().splitlines():
                    if line.startswith("SERVING "):
                        port = int(line.split()[2])
                time.sleep(0.01)
            assert port is not None, log.read_text()
            status, _ = remote_call(
                "127.0.0.1", port, plan_request(), timeout=120
            )
            assert status == 200
            assert len(session_members(server.pid)) >= 2
            server.send_signal(signal.SIGTERM)
            assert server.wait(timeout=60) == 0, log.read_text()
            deadline = time.monotonic() + 10
            survivors = session_members(server.pid)
            while survivors and time.monotonic() < deadline:
                time.sleep(0.05)
                survivors = session_members(server.pid)
            assert survivors == []
        finally:
            for pid in session_members(server.pid):
                os.kill(pid, signal.SIGKILL)
            if server.poll() is None:
                server.kill()
                server.wait()
