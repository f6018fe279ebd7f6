#!/usr/bin/env python
"""CI smoke test: boot ``repro serve`` as a subprocess and hit it for real.

Starts ``python -m repro.cli serve dblp_tiny --no-precompute`` on an
ephemeral port, then asserts over HTTP:

- ``/healthz`` answers 200 with ``status: ok``;
- a ``mode=two_stage`` ``/search`` carries ``two_stage.subgraph_nodes`` /
  ``subgraph_edges`` and a page equal to the in-process engine's, one
  naming the removed ``fusion`` / ``fusion_weight`` gets a 400 naming it,
  a ``/search`` with the removed ``mode=precomputed`` gets a
  ``bad_request`` 400 naming the mode, and an ``/explain`` naming the
  removed ``mode: two_stage`` gets a 400 naming it;
- ``/search`` answers 200 with a non-empty ranked result list;
- a repeated identical query is served from the cache, and the ``/metrics``
  hit counter proves it;
- ``POST /explain`` for the top hit answers 200 with flows sorted descending
  and a positive ``target_inflow``;
- ``POST /feedback/reformulate`` answers 200 with a non-empty re-ranked page
  under ``apply=false`` (serving state untouched: the next search is still
  a cache hit) and under ``apply=true`` (``applied`` flips and the next
  identical search is no longer served from the cache);
- over one keep-alive connection, a refused ``POST`` (its body never read) is
  answered ``Connection: close`` and the ``GET`` after it still succeeds —
  the body is not parsed as the next request line;
- a raw-socket ``POST`` with ``Expect: 100-continue`` gets its interim
  ``100 Continue`` before sending the body, then the answer.

Then it boots ``python -m repro.cli serve dblp_tiny --ingest`` and POSTs two
``/ingest`` batches with ``"refresh": "force"``: a title rewrite, then a new
paper with its edges.  After each one the reply is 200 with
``staleness.epoch`` one higher, a search for a term the batch added returns
the node it went to, and the term the rewrite removed no longer matches the
rewritten node.

Exits non-zero on any failure, so a workflow can gate on it directly:

    PYTHONPATH=src python scripts/smoke_serve.py
"""

from __future__ import annotations

import contextlib
import http.client
import json
import select
import socket
import subprocess
import sys
import urllib.error
import urllib.parse
import urllib.request

DATASET = "dblp_tiny"
SEARCH = f"/search?dataset={DATASET}&q=olap&top_k=5"
#: Every two-stage parameter on the wire, so the in-process engine below runs
#: under exactly the server's.
TWO_STAGE = {
    "candidates": 20, "horizon": 2, "early_k": 5, "expand_cap": 64,
    "node_budget": 128, "max_horizon": 4,
}
START_TIMEOUT = 120.0


def call(base: str, path: str, body: dict | None = None) -> tuple[int, bytes]:
    """GET ``path``, or POST ``body`` to it as JSON."""
    request = urllib.request.Request(
        base + path,
        data=None if body is None else json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return response.status, response.read()


def call_json(base: str, path: str, body: dict | None = None) -> dict:
    status, raw = call(base, path, body)
    assert status == 200, f"{path} returned {status}"
    return json.loads(raw)


def exercise_two_stage(base: str) -> None:
    """The rerank's accounting survives the wire: the response reports the
    neighbourhood the in-process engine reports, and the same page."""
    from repro.datasets import load_dataset
    from repro.query import SearchEngine
    from repro.retrieval import TwoStageEngine

    wire = urllib.parse.urlencode(
        {"dataset": DATASET, "q": "mining cube", "top_k": 5, "mode": "two_stage", **TWO_STAGE}
    )
    served = call_json(base, f"/search?{wire}")
    dataset = load_dataset(DATASET)
    engine = SearchEngine(dataset.data_graph, dataset.transfer_schema)
    mine = TwoStageEngine(engine).search("mining cube", top_k=5, **TWO_STAGE)
    assert served["served_from"] == "two_stage", served["served_from"]
    stages = served["two_stage"]
    assert stages["subgraph_nodes"] == mine.stages.subgraph_nodes > 0, stages
    assert stages["subgraph_edges"] == mine.stages.subgraph_edges > 0, stages
    page = [(hit["id"], hit["score"]) for hit in served["results"]]
    assert page == mine.top, "two-stage page differs from the in-process engine's"
    print(
        f"smoke: mode=two_stage 200, {stages['subgraph_nodes']} nodes / "
        f"{stages['subgraph_edges']} edges as the in-process engine reports"
    )

    for name, value in (("fusion", "weighted"), ("fusion_weight", 1.0)):
        try:
            call(base, f"/search?{wire}&{name}={value}")
        except urllib.error.HTTPError as refused:
            message = json.loads(refused.read())["message"]
            assert refused.code == 400 and f"'{name}' was removed" in message, message
        else:
            raise AssertionError(f"a /search naming {name} was answered")
    print("smoke: /search naming fusion or fusion_weight refused with 400")

    try:
        call(base, f"/search?dataset={DATASET}&q=mining+cube&mode=precomputed")
    except urllib.error.HTTPError as refused:
        payload = json.loads(refused.read())
        assert refused.code == 400 and payload["error"] == "bad_request", payload
        assert "mode 'precomputed' was removed" in payload["message"], payload
    else:
        raise AssertionError("a mode=precomputed /search was answered")
    print("smoke: /search with mode=precomputed refused with 400")

    top = served["results"][0]["id"]
    body = {"dataset": DATASET, "query": "mining cube", "target": top, "mode": "two_stage"}
    try:
        call(base, "/explain", body)
    except urllib.error.HTTPError as refused:
        message = json.loads(refused.read())["message"]
        assert refused.code == 400 and "'mode': 'two_stage' was removed" in message, message
    else:
        raise AssertionError("a two-stage /explain was answered")
    print("smoke: /explain naming mode=two_stage refused with 400")


def exercise(base: str) -> None:
    assert call_json(base, "/healthz")["status"] == "ok"

    first = call_json(base, SEARCH)
    assert first["results"], "search returned no results"
    top = first["results"][0]["id"]
    print(f"smoke: /search 200, top hit {top} (served {first['served_from']})")

    repeat = call_json(base, SEARCH)
    assert repeat["served_from"] == "cache", repeat["served_from"]
    assert repeat["results"] == first["results"]
    status, metrics = call(base, "/metrics")
    assert status == 200, f"/metrics returned {status}"
    assert b"repro_cache_hits_total 1" in metrics, "cache hit not counted"
    print("smoke: repeat query served from cache, hit counted in /metrics")

    query = {"dataset": DATASET, "query": "olap"}
    explanation = call_json(base, "/explain", {**query, "target": top})
    flows = [edge["flow"] for edge in explanation["edges"]]
    assert flows and flows == sorted(flows, reverse=True), "flows not descending"
    assert explanation["target_inflow"] > 0, explanation["target_inflow"]
    print(f"smoke: /explain 200, {len(flows)} flow edges into {top}")

    feedback = {**query, "relevant_ids": [top]}
    what_if = call_json(base, "/feedback/reformulate", {**feedback, "apply": False})
    assert what_if["results"], "what-if reformulation returned no results"
    assert what_if["applied"] is False
    assert call_json(base, SEARCH)["served_from"] == "cache"
    # The loop ran on the scores of the first (live) search: explain and
    # feedback each started from them, neither searched again.
    _, metrics = call(base, "/metrics")
    assert b"repro_score_cache_hits_total 2" in metrics, "loop re-ran its search"
    assert b"repro_score_cache_misses_total 0" in metrics, "loop re-ran its search"
    print("smoke: explain and feedback reused the live search's scores (2 hits)")

    applied = call_json(base, "/feedback/reformulate", {**feedback, "apply": True})
    assert applied["results"], "applied reformulation returned no results"
    assert applied["applied"] is True
    after = call_json(base, SEARCH)
    assert after["served_from"] != "cache", "stale cache entry survived apply"
    print(
        "smoke: /feedback/reformulate 200, apply=false left the cache alone, "
        f"apply=true invalidated it (next search served {after['served_from']})"
    )


def exercise_wire(base: str) -> None:
    """The keep-alive and raw-socket cases ``urllib`` (one connection per
    request, ``Connection: close``) never produces."""
    address = urllib.parse.urlsplit(base)
    body = json.dumps({"dataset": DATASET, "query": "olap"}).encode("utf-8")

    connection = http.client.HTTPConnection(address.hostname, address.port, timeout=60)
    try:
        connection.request("GET", SEARCH)
        kept = connection.getresponse()
        assert kept.status == 200 and kept.read()
        assert kept.getheader("Connection") is None, "a served GET keeps the connection"
        connection.request("POST", "/nope", body=body)
        refused = connection.getresponse()
        refused.read()
        assert refused.status == 404, refused.status
        assert refused.getheader("Connection") == "close", "unread body must close"
        connection.request("GET", "/healthz")
        after = connection.getresponse()
        assert after.status == 200, f"GET after a refused POST got {after.status}"
        assert json.loads(after.read())["status"] == "ok"
    finally:
        connection.close()
    print("smoke: refused POST closed its connection, the next GET was answered")

    with socket.create_connection((address.hostname, address.port), timeout=60) as sock:
        sock.sendall(
            b"POST /search HTTP/1.1\r\nHost: smoke\r\nExpect: 100-continue\r\n"
            + f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n".encode("ascii")
        )
        interim = sock.recv(4096)
        assert interim == b"HTTP/1.1 100 Continue\r\n\r\n", interim
        sock.sendall(body)
        answer = b"".join(iter(lambda: sock.recv(65536), b""))
    head, _, payload = answer.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200 OK\r\n"), head
    assert json.loads(payload)["results"], "Expect: 100-continue POST had no results"
    print("smoke: Expect: 100-continue answered before the body, then 200")


def ranked_ids(base: str, term: str) -> list[str]:
    page = call_json(base, f"/search?dataset={DATASET}&q={term}&top_k=10")
    return [hit["id"] for hit in page["results"]]


def exercise_ingest(base: str) -> None:
    """Two forced refreshes: a content edit, then a topology batch."""
    from repro.datasets import load_dataset
    from repro.ir.index import InvertedIndex

    graph = load_dataset(DATASET).data_graph
    index = InvertedIndex.from_graph(graph)
    # A paper holding a term no other document has: once the rewrite drops
    # it, no search for it can reach the paper through its own text.
    paper, removed = next(
        (node, term)
        for node in graph.nodes_with_label("Paper")
        for term in index.terms_of_document(node.node_id)
        if index.document_frequency(term) == 1
    )
    assert paper.node_id in ranked_ids(base, removed)
    rewrite = {
        "op": "update_node",
        "node_id": paper.node_id,
        "attributes": {**paper.attributes, "title": "quokka"},
    }
    (year,) = (e.source for e in graph.in_edges(paper.node_id) if e.role == "contains")
    author = next(e.target for e in graph.out_edges(paper.node_id) if e.role == "by")
    addition = [
        {"op": "add_node", "node_id": "paper:smoke", "label": "Paper",
         "attributes": {"title": "numbat"}},
        {"op": "add_edge", "source": year, "target": "paper:smoke", "role": "contains"},
        {"op": "add_edge", "source": "paper:smoke", "target": author, "role": "by"},
    ]
    epoch = 0
    for mutations, added, node_id in (
        ([rewrite], "quokka", paper.node_id),
        (addition, "numbat", "paper:smoke"),
    ):
        reply = call_json(
            base, "/ingest", {"dataset": DATASET, "mutations": mutations, "refresh": "force"}
        )
        assert reply["applied"] == len(mutations) and not reply["errors"], reply["errors"]
        epoch += 1
        assert reply["staleness"]["epoch"] == epoch, reply["staleness"]
        assert node_id in ranked_ids(base, added), f"{added!r} does not find {node_id}"
        assert paper.node_id not in ranked_ids(base, removed), f"{removed!r} still matches"
        print(
            f"smoke: /ingest epoch {epoch}: {added!r} finds {node_id}, "
            f"{removed!r} no longer matches {paper.node_id}"
        )


@contextlib.contextmanager
def serving(*flags: str):
    """Boot ``repro serve`` with ``flags``; yield its base URL; stop it."""
    server = subprocess.Popen(
        [
            sys.executable, "-u", "-m", "repro.cli", "serve", DATASET,
            "--port", "0", "--quiet", *flags,
        ],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        ready, _, _ = select.select([server.stdout], [], [], START_TIMEOUT)
        line = server.stdout.readline() if ready else ""
        assert "listening on http://" in line, f"server did not start: {line!r}"
        base = line.split("listening on ")[1].split()[0]
        print(f"smoke: serving on {base} ({' '.join(flags)})")
        yield base
    finally:
        server.terminate()
        try:
            server.wait(timeout=15)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        server.stdout.close()
    assert server.returncode == 0, f"repro serve exited {server.returncode}"


def main() -> int:
    with serving("--no-precompute") as base:
        exercise_two_stage(base)
        exercise(base)
        exercise_wire(base)
    with serving("--ingest") as base:
        exercise_ingest(base)
    print("smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
