"""Tests for repro.core.target and the templated ``/decide`` body.

* :func:`split_target` and :func:`query_params` answer what
  ``urlparse`` + ``parse_qs`` answer: the same route and the same first
  value per key, on generated targets that mix safe characters with
  ``&=+%;#?``, valid and invalid escapes, and empty pairs;
* the metric label and the app's route come from that one parse, so a
  ``;params`` or ``#fragment`` ``/decide`` target is labelled
  ``/decide`` (it used to be labelled ``other`` and skip the batcher);
* :func:`decision_body` is byte-identical to ``json.dumps(payload,
  indent=2)``.
"""

import json
from urllib.parse import parse_qs, urlparse

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.decision import Action, DataSource, Decision
from repro.core.service import OdrResponse
from repro.core.target import query_params, split_target
from repro.core.webapp import OdrWebApp, decision_body
from repro.serve import endpoint_label
from repro.transfer.protocols import Protocol

SAFE = "abcdkLMNz0189-._~/:@!$'()*,"

TOKENS = st.one_of(
    st.text(alphabet=SAFE, min_size=1, max_size=4),
    st.sampled_from([
        "&", "=", "+", "%", ";", "#", "?", "&&", "==", "=&", "&=",
        "%41", "%2B", "%26", "%3D", "%3b", "%23", "%e4%b8%ad", "%ff",
        "%C3%A9", "%zz", "%4", "%%", "link", "link=", "popularity=",
        "policy=odr", "é"]),
)

PREFIXES = st.sampled_from([
    "", "/", "/decide", "/decide?", "/decide;v=1", "/healthz?",
    "/a/b;c/d", "//", "//host/decide?", "http://host/decide?",
    "decide?", "?", "#",
])

TARGETS = st.builds(lambda prefix, tokens: prefix + "".join(tokens),
                    PREFIXES, st.lists(TOKENS, max_size=24))


def reference(target):
    parsed = urlparse(target)
    return parsed.path, {key: values[0] for key, values
                         in parse_qs(parsed.query).items()}


class TestParser:
    @given(target=TARGETS)
    @settings(max_examples=400, deadline=None)
    @example(target="/decide#x?link=http://origin/f")
    @example(target="/decide;v=1?link=http://origin/f")
    @example(target="/decide?link=a&link=b&x=&=y&&z")
    @example(target="/decide?li%6Ek=%zz+%41")
    @example(target="/decide\t?link=a")
    def test_matches_urlparse_and_parse_qs(self, target):
        path, query = split_target(target)
        assert (path, query_params(query)) == reference(target)

    @given(query=st.lists(TOKENS, max_size=24).map("".join))
    @settings(max_examples=400, deadline=None)
    def test_query_params_match_parse_qs(self, query):
        assert query_params(query) == {
            key: values[0] for key, values in parse_qs(query).items()}

    def test_malformed_netloc_is_a_400_not_a_crash(self):
        status, _ctype, body, _cookie, _headers = \
            OdrWebApp().handle("//[::1?link=http://origin/f")
        assert status == 400
        assert "malformed request target" in json.loads(body)["error"]
        assert endpoint_label("//[::1?link=x") == "other"


class TestLabelAgreesWithRoute:
    TARGETS = [
        "/decide#x?link=http://origin/f.bin",
        "/decide;v=1?link=http://origin/f.bin",
        "/decide?link=http://origin/f.bin#frag",
        "/healthz;v=1",
        "/healthz#top",
        "/decide/?link=http://origin/f.bin",
        "//decide?link=http://origin/f.bin",
    ]

    def test_label_is_the_route(self):
        for target in self.TARGETS:
            route = urlparse(target).path
            expected = route if route in ("/decide", "/healthz") \
                else "other"
            assert endpoint_label(target) == expected, target

    def test_params_target_is_decided_like_a_plain_one(self):
        plain = OdrWebApp().handle(
            "/decide?link=http://origin/f.bin&popularity=9")
        params = OdrWebApp().handle(
            "/decide;v=1?link=http://origin/f.bin&popularity=9")
        assert endpoint_label(
            "/decide;v=1?link=http://origin/f.bin") == "/decide"
        assert plain[:3] == params[:3]
        assert plain[0] == 200


class TestDecisionBody:
    @given(texts=st.lists(st.text(max_size=30), min_size=3, max_size=3),
           addressed=st.lists(st.sampled_from([1, 2, 3, 4]),
                              max_size=4, unique=True),
           action=st.sampled_from(list(Action)),
           protocol=st.sampled_from(list(Protocol)))
    @settings(max_examples=200, deadline=None)
    def test_matches_json_dumps_indent_2(self, texts, addressed, action,
                                         protocol):
        explanation, file_id, policy = texts
        source = DataSource.CLOUD if action is Action.CLOUD \
            else DataSource.ORIGINAL
        decision = Decision(action, source, tuple(addressed))
        response = OdrResponse(decision=decision, file_id=file_id,
                               protocol=protocol,
                               explanation=explanation)
        payload = {
            "action": action.value,
            "data_source": source.value,
            "bottlenecks_addressed": list(addressed),
            "explanation": explanation,
            "file_id": file_id,
            "protocol": protocol.value,
            "policy": policy,
        }
        assert decision_body(response, policy) == \
            json.dumps(payload, indent=2)
