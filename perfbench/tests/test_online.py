"""decide-trace's client: due-time latency, failure accounting, oracle."""

import socket
import threading
import time

import pytest

from perfbench import online
from perfbench.harness import Outcome


class FakeServer:
    """A keep-alive HTTP server whose answer per path is scripted.

    ``behaviour(path)`` returns ``(status, body, delay_s)``, or None to
    leave the request unanswered.
    """

    def __init__(self, behaviour):
        self.behaviour = behaviour
        self.listener = socket.socket()
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(16)
        self.port = self.listener.getsockname()[1]
        self.threads = []
        self.stopped = threading.Event()
        self.acceptor = threading.Thread(target=self._accept, daemon=True)
        self.acceptor.start()

    def _accept(self):
        while not self.stopped.is_set():
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            thread = threading.Thread(target=self._serve, args=(conn,),
                                      daemon=True)
            thread.start()
            self.threads.append(thread)

    def _serve(self, conn):
        buffer = b""
        with conn:
            while not self.stopped.is_set():
                while b"\r\n\r\n" not in buffer:
                    try:
                        chunk = conn.recv(4096)
                    except OSError:
                        return
                    if not chunk:
                        return
                    buffer += chunk
                head, buffer = buffer.split(b"\r\n\r\n", 1)
                path = head.split(b" ")[1].decode()
                answer = self.behaviour(path)
                if answer is None:
                    self.stopped.wait(5.0)
                    return
                status, body, delay = answer
                time.sleep(delay)
                conn.sendall(f"HTTP/1.1 {status} X\r\nContent-Length: "
                             f"{len(body)}\r\n\r\n".encode() + body)

    def close(self):
        self.stopped.set()
        self.listener.close()
        self.acceptor.join(timeout=5)
        for thread in self.threads:
            thread.join(timeout=5)


@pytest.fixture
def serve():
    servers = []

    def start(behaviour):
        server = FakeServer(behaviour)
        servers.append(server)
        return server
    yield start
    for server in servers:
        server.close()


PATHS = [f"/decide?link=http%3A%2F%2Fh%2Ff{i}&popularity=3"
         for i in range(40)]


def test_latency_is_timed_from_the_due_time(serve):
    # The first request stalls 150 ms; requests queued behind it on the
    # same connection were due long before they could be sent.
    def behaviour(path):
        return 200, b"ok", 0.15 if path == PATHS[0] else 0.0
    server = serve(behaviour)
    client = online.Client(server.port, PATHS)
    step = client.run("t", rate=100.0, duration=0.2)
    latencies = step.latencies_ms()
    lags = step.lags_ms()
    assert step.failed == 0
    # Slot 2 shares the stalled connection and was due 20 ms in.
    assert lags[2] > 100.0
    assert latencies[2] >= lags[2]
    assert latencies[2] > (step.done[2] - step.sent[2]) * 1e3 + 100.0
    assert all(latency >= 0 for latency in latencies)


def test_refused_and_timed_out_requests_count_as_failed(serve, monkeypatch):
    monkeypatch.setattr(online, "TIMEOUT_S", 0.3)

    def behaviour(path):
        if path.endswith("f1&popularity=3"):
            return 503, b'{"error": "shed"}', 0.0
        if path.endswith("f2&popularity=3"):
            return None   # never answered: the client times out
        return 200, b"ok", 0.0
    server = serve(behaviour)
    client = online.Client(server.port, PATHS[:4])
    step = client.run("t", rate=20.0, duration=0.2)
    assert step.status == [200, 503, online.TIMED_OUT, 200]
    assert step.failed == 2
    latencies = step.latencies_ms()
    assert latencies[1] == latencies[2] == online.FAILED_LATENCY_MS
    verdict = online.judge(step)
    assert verdict.failed_share == 0.5 and not verdict.meets_slo


def test_oracle_mismatch_counts_as_failed(serve):
    from repro.core.webapp import OdrWebApp
    paths = [p for p in PATHS[:6]]
    truth = {path: OdrWebApp().handle(path)[2].encode() for path in paths}
    tampered = paths[3]

    def behaviour(path):
        body = truth[path]
        if path == tampered:
            body = body.replace(b"policy", b"pol1cy")
        return 200, body, 0.0
    server = serve(behaviour)
    client = online.Client(server.port, paths)
    step = client.run("t", rate=50.0, duration=0.12)
    assert step.failed == 0
    outcome = Outcome(correct=True, attempted=step.attempted, failed=0)
    assert online.verify(client, [step], outcome) == 1
    assert outcome.failed == 1 and not outcome.correct


def test_bodies_that_change_between_responses_are_mismatches(serve):
    from repro.core.webapp import OdrWebApp
    path = PATHS[0]
    good = OdrWebApp().handle(path)[2].encode()
    answers = [good + b" ", good]
    lock = threading.Lock()

    def behaviour(_path):
        with lock:
            return 200, answers.pop(), 0.0
    server = serve(behaviour)
    client = online.Client(server.port, [path])
    step = client.run("t", rate=50.0, duration=0.04)
    assert step.attempted == 2
    outcome = Outcome(correct=True, attempted=2, failed=0)
    assert online.verify(client, [step], outcome) == 2
    assert not outcome.correct


def test_backlog_growth_compares_last_and_first_quarter():
    step = online.Step("t", 10.0, 1.0, list(range(8)))
    step.due = [0.0] * 8
    step.done = [0.001, 0.001, 0.002, 0.002, 0.003, 0.003, 0.004, 0.004]
    step.status = [200] * 8
    assert step.backlog_growth() == pytest.approx(4.0)


def test_seed_changes_the_inputs():
    first = online.trace_paths(1)
    assert first == online.trace_paths(1)
    assert first != online.trace_paths(2)


def test_path_mix_counts_repeats_and_aps():
    paths = ["/decide?link=a&ap=x", "/decide?link=b", "/decide?link=a"]
    mix = online.path_mix(paths, [0, 1, 2, 0])
    assert mix["decide.repeat_link_share"] == 0.5
    assert mix["decide.ap_share"] == 0.5
