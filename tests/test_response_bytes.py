"""Pinned response bytes of the ODR web app.

A SHA-256 over ``(status, content_type, body)`` of every response a
fresh :class:`~repro.core.webapp.OdrWebApp` gives, one app per path:
the first 3,000 trace paths of a small synthetic week plus a
hand-written list of edge cases (missing/invalid parameters, escapes,
repeated and blank keys, ``;params``, ``#fragment``, non-``/decide``
endpoints).  ``Set-Cookie`` is left out because its user id is random.

The digest was computed before the request-target parser, the JSON
body template and on-loop batch evaluation replaced ``urlparse`` +
``parse_qs``, ``json.dumps(indent=2)`` and the executor hop; any change
to a single response byte on these paths moves it.
"""

import hashlib

import pytest

from repro.core.webapp import OdrWebApp
from repro.loadgen.trace import workload_paths
from repro.workload import WorkloadConfig, WorkloadGenerator

TRACE_SCALE = 0.002
TRACE_PATHS = 3000

LINK = "http%3A%2F%2Forigin%2Ffile.bin"

EDGE_PATHS = [
    "/decide",
    "/decide?",
    "/decide?popularity=5",
    f"/decide?link={LINK}&isp=nowhere",
    f"/decide?link={LINK}&policy=no-such-policy",
    f"/decide?link={LINK}&policy=delay-aware&popularity=40",
    f"/decide?link={LINK}&popularity=abc",
    f"/decide?link={LINK}&ap=no-such-ap",
    f"/decide?link={LINK}&ap=newifi&device=usb-hdd&filesystem=ntfs"
    "&bandwidth_mbps=4.5&cached=1",
    f"/decide?link={LINK}&ap=hiwifi&bandwidth_mbps=fast",
    "/decide?link=ftp://origin/x.bin",
    "/decide?link=magnet://origin/",
    "/decide?link=http%3A%2F%2Forigin%2Fa+b.bin&popularity=%33%30",
    "/decide?li%6Ek=http://origin/escaped-key.bin&isp=tele%63om",
    "/decide?link=http://origin/%zz.bin&popularity=2",
    "/decide?link=http://origin/%E4%B8%AD%ff.bin",
    "/decide?link=http://origin/café.bin",
    "/decide?link=http://origin/first.bin&link=http://origin/second.bin"
    "&popularity=1&popularity=900",
    "/decide?link=&link=http://origin/blank-first.bin&popularity="
    "&isp=&&=x&novalue",
    "/decide?link=http://origin/x.bin;y=2&popularity=3",
    "/decide;v=1?link=http://origin/params.bin&popularity=7",
    "/decide#x?link=http://origin/fragment.bin",
    "/decide?link=http://origin/before-fragment.bin#popularity=900",
    "/decide?link=http://origin/a.bin&cached=yes&popularity=+12",
    "/decide?link=http://origin/a.bin&bandwidth_mbps=%2B3",
    "/",
    "/index.html",
    "/?link=x",
    "",
    "/healthz",
    "/healthz?verbose=1",
    "/metrics",
    "/nope",
    "/a/b/c?d=e",
    "//decide?link=http://origin/netloc.bin",
    "http://host/decide?link=http://origin/absolute.bin",
]


def response_digest(paths):
    digest = hashlib.sha256()
    for path in paths:
        (status, content_type, body, _set_cookie, _headers), = \
            OdrWebApp().handle_batch([(path, "")])
        digest.update(f"{status}\0{content_type}\0{body}\0".encode())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def trace_paths():
    workload = WorkloadGenerator(
        WorkloadConfig(scale=TRACE_SCALE)).generate()
    return workload_paths(workload, limit=TRACE_PATHS)


def test_trace_response_bytes_are_pinned(trace_paths):
    assert len(trace_paths) == TRACE_PATHS
    assert response_digest(trace_paths) == (
        "84e3f5463a4962f1a54ae90a3c9040a12d4a39cd9d4fd473bd1402e684a55a02")


def test_edge_response_bytes_are_pinned():
    assert response_digest(EDGE_PATHS) == (
        "ac51ec792ee927d7b29675d3e5d404c2756fe17931db8ec716570bc9278fddc1")
