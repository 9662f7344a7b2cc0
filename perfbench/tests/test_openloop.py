"""Open-loop timing: a server stall is charged to every request that
came due while it lasted, not only to the request that hit it."""

import asyncio
import json
import socket
import threading
import time

from perfbench.openloop import Request, failure, run_step

STALL_AT = 20      # the request (by arrival order) the server stalls on
STALL_S = 0.25
INTERVAL_S = 0.005
N_REQUESTS = 120


class StallingServer:
    """HTTP/1.1 keep-alive stub: answers ``{}`` at once, except that it
    stalls once for STALL_S. Like the real server's single dispatcher,
    one lock serialises the answers of every connection."""

    def __init__(self):
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.port = self.sock.getsockname()[1]
        self.lock = threading.Lock()
        self.count = 0
        self.stall = None  # (start, end) of the stall, perf_counter
        self.threads = []
        self.accepting = threading.Thread(target=self._accept, daemon=True)
        self.accepting.start()

    def _accept(self):
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            t = threading.Thread(target=self._serve, args=(conn,), daemon=True)
            t.start()
            self.threads.append(t)

    def _serve(self, conn):
        reader = conn.makefile("rb")
        with conn, reader:
            while True:
                head = b""
                while not head.endswith(b"\r\n\r\n"):
                    line = reader.readline()
                    if not line:
                        return
                    head += line
                length = 0
                for line in head.split(b"\r\n"):
                    if line.lower().startswith(b"content-length:"):
                        length = int(line.split(b":")[1])
                reader.read(length)
                with self.lock:
                    self.count += 1
                    if self.count == STALL_AT:
                        start = time.perf_counter()
                        time.sleep(STALL_S)
                        self.stall = (start, time.perf_counter())
                    body = b"{}"
                    conn.sendall(
                        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                        b"Content-Length: %d\r\n\r\n%s" % (len(body), body))

    def close(self):
        self.sock.close()


def test_stall_is_charged_to_the_requests_queued_behind_it():
    server = StallingServer()
    try:
        requests = [Request(i * INTERVAL_S, "GET", "/v1/health")
                    for i in range(N_REQUESTS)]
        run = asyncio.run(run_step("127.0.0.1", server.port, requests,
                                   drain_s=2.0))
    finally:
        server.close()
    assert server.stall is not None
    stall_start, stall_end = server.stall
    assert all(failure(res) is None for res in run.results)
    assert max(run.lag_s) < 0.05  # the generator kept to its schedule

    # Every request that came due during the stall waited for its end:
    # its latency, from its due time, covers the rest of the stall.
    queued = [r for r in run.results if stall_start <= r.due <= stall_end]
    assert len(queued) >= 0.8 * STALL_S / INTERVAL_S
    for res in queued:
        assert res.latency_s >= (stall_end - res.due) - 1e-3
    charged = sorted(r.latency_s for r in run.results)
    # Closed-loop timing would show one slow request; here about
    # STALL_S / INTERVAL_S of them carry a share of the stall.
    assert sum(1 for lat in charged if lat >= STALL_S / 2) >= 0.4 * len(queued)
    late = [r for r in run.results if r.due > stall_end + 0.05]
    assert late and max(r.latency_s for r in late) < STALL_S / 2


def test_failure_classification():
    ok = Request(0.0, "POST", "/v1/clusters/default/jobs", {"app": "gemm"},
                 expect=(201, 202, 403))

    class R:
        def __init__(self, status, body, error=None, request=ok):
            self.status, self.body, self.error, self.request = status, body, error, request

    assert failure(R(201, {"jobid": 1})) is None
    assert failure(R(403, {"decision": {"action": "reject"}})) is None
    assert failure(R(500, {"error": {"code": "internal", "message": "x"}}))
    assert failure(R(None, None, error="timed out"))
    read = Request(0.0, "GET", "/v1/clusters/default/jobs/3")
    assert failure(R(404, {"error": {"code": "unknown_job", "message": "x"}},
                     request=read))
    batch = Request(0.0, "POST", "/v1/batch", {"ops": []})
    assert failure(R(200, {"results": [{"status": 200}, {"status": 404}]},
                     request=batch))
    assert json.loads(ok.encode().split(b"\r\n\r\n", 1)[1]) == {"app": "gemm"}
