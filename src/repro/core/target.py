"""Single-pass parsing of an HTTP request target.

Routing used to call ``urlparse`` for the path and ``parse_qs`` for the
query on every request.  :func:`split_target` and :func:`query_params`
give the same answers for the route and for the first value of each
query key:

* the route is ``urlparse(target).path``: the ``#fragment`` and the
  ``?query`` are split off in that order, and ``;params`` after the last
  ``/`` are dropped;
* the parameters are ``{key: values[0] for key, values in
  parse_qs(query).items()}``: pairs split on ``&``, blank values and
  bare names dropped, ``+`` read as a space, ``%XX`` decoded as UTF-8
  (invalid escapes kept as-is, undecodable bytes replaced), and a
  repeated key keeping its first value.

Origin-form targets (``/path?query``) take the fast path; anything
else -- absolute-form URLs, ``//netloc`` prefixes, embedded tabs or
newlines -- is handed to ``urlparse`` itself, so its answer is the
reference by construction.
"""

from __future__ import annotations

from urllib.parse import unquote, urlparse


def split_target(target: str) -> tuple[str, str]:
    """``(path, query)`` of a request target, as ``urlparse`` splits
    them.  Raises ``ValueError`` where ``urlparse`` does (a malformed
    bracketed netloc)."""
    if target[:1] != "/" or target[1:2] == "/" or "\t" in target \
            or "\r" in target or "\n" in target:
        parsed = urlparse(target)
        return parsed.path, parsed.query
    path, _hash, _fragment = target.partition("#")
    path, _mark, query = path.partition("?")
    if ";" in path:
        cut = path.find(";", path.rfind("/"))
        if cut >= 0:
            path = path[:cut]
    return path, query


def query_params(query: str) -> dict[str, str]:
    """The first value of each key in ``query``, as ``parse_qs`` would
    list it first."""
    params: dict[str, str] = {}
    for pair in query.split("&"):
        name, _equals, value = pair.partition("=")
        if not value:
            continue
        if "+" in name:
            name = name.replace("+", " ")
        if "%" in name:
            name = unquote(name)
        if name in params:
            continue
        if "+" in value:
            value = value.replace("+", " ")
        if "%" in value:
            value = unquote(value)
        params[name] = value
    return params
