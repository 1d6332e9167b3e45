"""Hostile ``/v1/*`` bodies get a structured 400 or a parity-correct 200.

Every generated body starts from a valid predict or neighbors request and
takes one to three hostile edits: NaN, ±Infinity, integers too large for
a float and finite values of extreme magnitude in every numeric field,
nesting (shallow, or far too deep to parse), odd strings, non-UTF-8
bytes, huge ``k`` and duplicate candidates.  The server must answer each
one exactly as the transport-free path would: a body that cannot be
parsed is a 400, a body validation rejects is a 400 naming a field the
edits touched, and anything else is a 200 equal to ``dispatch([r])[0]``.
No body may count as a server error or drop its connection.
"""

from __future__ import annotations

import copy
import json
import math
import threading
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import QueryServer
from repro.serving.service import BadRequest, QueryService
from repro.utils.metrics import MetricsRegistry

BASES = [
    (
        "/v1/predict",
        {
            "target": "time",
            "candidates": [2.0, 9.5, 21.5],
            "words": ["common_000"],
            "location": [1.0, 2.0],
        },
    ),
    (
        "/v1/predict",
        {
            "target": "location",
            "candidates": [[0.5, 0.5], [10.0, 12.0]],
            "time": 20.0,
        },
    ),
    (
        "/v1/predict",
        {
            "target": "text",
            "candidates": [["common_000"], ["common_001", "common_002"]],
            "time": 9.0,
            "location": [5.0, 5.0],
        },
    ),
    ("/v1/neighbors", {"modality": "word", "time": 21.0, "k": 5}),
    (
        "/v1/neighbors",
        {"modality": "location", "words": ["common_000"], "location": [3, 4]},
    ),
    (
        "/v1/neighbors",
        {"modality": "time", "time": 3.0, "location": [1.0, 1.0], "k": 3},
    ),
]

#: Stands in for a value nested far deeper than any JSON parser recurses;
#: spliced into the encoded body because ``json.dumps`` cannot write it.
DEEP = "__deep__"
DEEP_JSON = b"[" * 100_000 + b"]" * 100_000

HOSTILE_NUMBERS = st.one_of(
    st.sampled_from(
        [
            math.nan,
            math.inf,
            -math.inf,
            10**400,
            -(10**400),
            10**300,
            1e308,
            -1e308,
            1e150,
            -1.0000001e150,
            5e-324,
            -0.0,
        ]
    ),
    st.integers(min_value=-(10**420), max_value=10**420),
    st.floats(allow_nan=True, allow_infinity=True),
)
HUGE_K = st.one_of(
    st.integers(min_value=1025, max_value=10**400),
    st.integers(max_value=0),
    st.sampled_from([math.nan, math.inf, 10**400, 2.0**63]),
)
ODD_WORDS = st.lists(
    st.text(alphabet=st.characters(blacklist_categories=()), max_size=8),
    max_size=4,
)


@st.composite
def hostile_requests(draw):
    """``(path, raw_body, touched_fields)`` for one hostile request."""
    path, body = draw(st.sampled_from(BASES))
    body = copy.deepcopy(body)
    touched: set[str] = set()
    splice_bad_utf8 = False
    # Nesting wraps whatever the other edits left, so it goes last.
    kinds = ["number", "words", "k", "duplicates", "nest", "bytes"]
    edits = draw(
        st.lists(st.sampled_from(kinds + ["number"]), min_size=1, max_size=3)
    )
    for edit in sorted(edits, key=kinds.index):
        if edit == "number":
            field = draw(st.sampled_from(["time", "location", "candidates"]))
            if field == "candidates" and path != "/v1/predict":
                field = "time"
            value = draw(HOSTILE_NUMBERS)
            if field == "time":
                body["time"] = value
            elif field == "location":
                body.setdefault("location", [1.0, 1.0])
                body["location"][draw(st.integers(0, 1))] = value
            else:
                i = draw(st.integers(0, len(body["candidates"]) - 1))
                if body["target"] == "location":
                    body["candidates"][i][draw(st.integers(0, 1))] = value
                else:
                    body["candidates"][i] = value
            touched.add(field)
        elif edit == "nest":
            field = draw(st.sampled_from(sorted(body)))
            depth = draw(st.sampled_from([1, 2, 40, None]))
            value = body[field]
            if depth is None:
                value = DEEP
            else:
                for _ in range(depth):
                    value = [value]
            body[field] = value
            touched.add(field)
        elif edit == "words":
            body["words"] = draw(ODD_WORDS)
            touched.add("words")
        elif edit == "k":
            body["k"] = draw(HUGE_K)
            touched.add("k")
        elif edit == "duplicates" and path == "/v1/predict":
            candidates = body["candidates"]
            if isinstance(candidates, list):
                body["candidates"] = candidates * draw(st.integers(2, 4))
            touched.add("candidates")
        elif edit == "bytes":
            splice_bad_utf8 = True
    raw = json.dumps(body).encode("utf-8")
    raw = raw.replace(json.dumps(DEEP).encode("utf-8"), DEEP_JSON)
    if splice_bad_utf8:
        raw = raw.replace(b'"', b'"\xff\xfe', 1)
    return path, raw, touched


def _post(url: str, raw: bytes):
    """POST raw bytes; returns (status, parsed_payload)."""
    request = urllib.request.Request(
        url,
        data=raw,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def _expected(service: QueryService, path: str, raw: bytes):
    """What the transport-free path makes of ``raw``: (status, payload).

    A body that does not parse maps to ``(400, None)``: any structured
    error will do, since no field can be named.
    """
    try:
        body = json.loads(raw)
    except (ValueError, RecursionError):
        return 400, None
    validate = (
        service.validate_predict
        if path == "/v1/predict"
        else service.validate_neighbors
    )
    try:
        request = validate(body)
    except BadRequest as exc:
        return 400, exc.to_payload()
    return 200, service.dispatch([request])[0]


@pytest.fixture(scope="module")
def server(tiny_actor):
    """One running server shared by every generated example."""
    with QueryServer(tiny_actor, port=0, metrics=MetricsRegistry()) as server:
        yield server


@pytest.fixture(scope="module")
def direct(tiny_actor):
    """A private service: the parity reference."""
    return QueryService(tiny_actor, metrics=MetricsRegistry())


class TestHostileBodies:
    @settings(max_examples=120, deadline=None)
    @given(case=hostile_requests())
    def test_structured_400_or_parity_200(self, server, direct, case):
        path, raw, touched = case
        status, payload = _post(server.url + path, raw)
        want_status, want = _expected(direct, path, raw)
        assert status == want_status, (raw[:200], payload)
        if status == 200:
            assert payload == want
        else:
            assert isinstance(payload.pop("request_id"), str)
            assert isinstance(payload["error"], str)
            if want is not None:
                assert payload == want
                assert payload.get("field") in touched, (raw[:200], payload)
        assert server.metrics.counter("serve.errors").value == 0
        assert server.metrics.counter("serve.responses_5xx").value == 0

    @pytest.mark.parametrize(
        "path, raw, field",
        [
            (
                "/v1/predict",
                b'{"target": "time", "candidates": [1.0], '
                b'"location": [NaN, 1.0]}',
                "location",
            ),
            (
                "/v1/predict",
                b'{"target": "location", "candidates": [[Infinity, 1]], '
                b'"time": 3.0}',
                "candidates",
            ),
            ("/v1/neighbors", b'{"modality": "word", "time": NaN}', "time"),
            (
                "/v1/neighbors",
                b'{"modality": "word", "time": ' + b"9" * 401 + b"}",
                "time",
            ),
            (
                "/v1/neighbors",
                b'{"modality": "word", "location": [1e300, -1e300]}',
                "location",
            ),
            ("/v1/neighbors", b"[" * 200_000 + b"]" * 200_000, None),
            ("/v1/neighbors", b'{"a":' * 100_000 + b"1" + b"}" * 100_000, None),
            (
                "/v1/neighbors",
                b'{"modality": "word", "time": ' + b"1" * 5000 + b"}",
                None,
            ),
        ],
        ids=[
            "nan-location",
            "infinite-candidate",
            "nan-time",
            "401-digit-time",
            "huge-location",
            "200k-deep-array",
            "100k-deep-object",
            "5000-digit-time",
        ],
    )
    def test_probe_bodies_are_400s(self, server, path, raw, field):
        bad = server.metrics.counter("serve.bad_requests").value
        status, payload = _post(server.url + path, raw)
        assert status == 400
        assert payload.get("field") == field
        assert server.metrics.counter("serve.bad_requests").value == bad + 1
        assert server.metrics.counter("serve.errors").value == 0

    @pytest.mark.parametrize(
        "path, field",
        [("/v1/predict", "target"), ("/v1/neighbors", "modality")],
    )
    def test_megabyte_value_gets_a_short_400(self, server, path, field):
        """A 400 echoes a capped prefix of the client's value, not all of it."""
        body = dict(BASES[0][1] if path == "/v1/predict" else BASES[3][1])
        body[field] = "x" * 1_000_000
        request = urllib.request.Request(
            server.url + path, data=json.dumps(body).encode(), method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        raw = excinfo.value.read()
        assert excinfo.value.code == 400
        assert len(raw) < 1024
        payload = json.loads(raw)
        assert payload["field"] == field
        assert payload["error"].endswith("... (1000002 chars)")

    def test_valid_request_beside_a_hostile_one_gets_its_200(
        self, tiny_actor, direct, hold_first_dispatch
    ):
        """A hostile body never takes its batch-mates down with it.

        The first request's dispatch is held until one more request is
        queued behind it; a hostile and a valid request then race in
        together.  The hostile one is refused at validation, so the
        valid one's batch carries only valid requests.
        """
        good = {"modality": "word", "time": 21.0, "k": 5}
        hostile = b'{"modality": "word", "location": [NaN, 1.0]}'
        want = direct.dispatch([direct.validate_neighbors(good)])[0]
        raws = [json.dumps(good).encode(), hostile, json.dumps(good).encode()]
        results: list = [None] * len(raws)
        with QueryServer(tiny_actor, port=0) as server:
            hold_first_dispatch(server, 2)
            url = server.url + "/v1/neighbors"

            def client(i: int) -> None:
                results[i] = _post(url, raws[i])

            first = threading.Thread(target=client, args=(0,))
            first.start()
            barrier = threading.Barrier(2)

            def racer(i: int) -> None:
                barrier.wait()
                client(i)

            racers = [
                threading.Thread(target=racer, args=(i,)) for i in (1, 2)
            ]
            for t in racers:
                t.start()
            for t in [first, *racers]:
                t.join(timeout=30)
            errors = server.metrics.counter("serve.errors").value
        assert results[0] == (200, want)
        assert results[2] == (200, want)
        status, payload = results[1]
        assert status == 400
        assert payload["field"] == "location"
        assert errors == 0
