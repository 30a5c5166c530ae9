"""LLM client conformance against a local chat-completions stub.

`ask_llm` sends one prompt with its re-asks; `annotate_all` owns the key
lookup and the cache.
"""

import json
import threading
import time

import pytest

from bundlesup import annotate, llm
from bundlesup.annotate import (
    AnnotationCache,
    AnnotationConfigError,
    annotate_all,
    ask_llm,
    build_prompt,
)
from bundlesup.graphs import NodeTable
from bundlesup.llm import REASK_SUFFIX, LlmEndpointConfig
from bundlesup.sampling import Bundle

from llm_stub import ChatStub

CLASSES = ["Agents", "Databases", "Information Retrieval"]
TABLE = NodeTable(n=2, class_names=CLASSES, texts=["alpha text", "beta text"])


def make_prompt():
    return build_prompt(Bundle(id=0, core=0, members=[0, 1]), TABLE, "Test items.")


def endpoint(url, **kw):
    defaults = dict(base_url=url, model="stub-model", api_key_env_var="STUB_KEY", max_retries=2)
    defaults.update(kw)
    return LlmEndpointConfig(**defaults)


def ask(stub, **kw):
    return ask_llm(make_prompt(), endpoint(stub.base_url, **kw), "sekrit", CLASSES)


def annotate_one(cfg, cache):
    """annotate_all over the single bundle that `make_prompt` describes."""
    summary = annotate_all([Bundle(id=0, core=0, members=[0, 1])], TABLE, llm=cfg, cache=cache,
                           dataset_description="Test items.")
    return summary.records[0]


@pytest.fixture(autouse=True)
def api_key(monkeypatch):
    monkeypatch.setenv("STUB_KEY", "sekrit")


def test_happy_path_single_attempt():
    with ChatStub(["Databases"]) as stub:
        rec = ask(stub)
    assert rec.label == 1
    assert rec.attempts == 1
    assert rec.error is None
    assert stub.requests[0]["path"].endswith("/chat/completions")
    assert stub.requests[0]["auth"] == "Bearer sekrit"
    body = stub.requests[0]["body"]
    assert body["temperature"] == 0
    assert body["messages"][0]["role"] == "system"
    assert body["messages"][1]["content"] == make_prompt().text


def test_cache_hit_issues_no_request():
    cache = AnnotationCache()
    with ChatStub(["Databases"]) as stub:
        first = annotate_one(endpoint(stub.base_url), cache)
        again = annotate_one(endpoint(stub.base_url), cache)
        assert len(stub.requests) == 1
    assert again == first


def test_retry_on_unparseable_with_reask_suffix():
    with ChatStub(["hmm, not sure", "still thinking", "Agents"]) as stub:
        rec = ask(stub)
        assert rec.label == 0
        assert rec.attempts == 3
        assert not stub.requests[0]["body"]["messages"][1]["content"].endswith(REASK_SUFFIX)
        for req in stub.requests[1:]:
            assert req["body"]["messages"][1]["content"].endswith(REASK_SUFFIX)


def test_exhausted_retries_marks_failure():
    with ChatStub(["gibberish"]) as stub:
        rec = ask(stub)
        assert len(stub.requests) == 3  # 1 + max_retries
    assert rec.label is None
    assert rec.attempts == 3
    assert rec.error.startswith("parse:")


def test_transport_error_retried_then_recorded():
    with ChatStub([500, 500, 500]) as stub:
        rec = ask(stub)
        assert len(stub.requests) == 3
    assert rec.label is None
    assert rec.error.startswith("transport:")


def test_transport_error_then_recovery():
    with ChatStub([500, "Information Retrieval"]) as stub:
        rec = ask(stub)
    assert rec.label == 2
    assert rec.attempts == 2


def test_missing_api_key(monkeypatch):
    monkeypatch.delenv("STUB_KEY", raising=False)
    with ChatStub(["Databases"]) as stub:
        with pytest.raises(AnnotationConfigError, match="STUB_KEY"):
            annotate_one(endpoint(stub.base_url), AnnotationCache())
        assert stub.requests == []


def test_no_api_key_needed_when_the_cache_answers(monkeypatch):
    cache = AnnotationCache()
    with ChatStub(["Databases"]) as stub:
        first = annotate_one(endpoint(stub.base_url), cache)
        monkeypatch.delenv("STUB_KEY")
        assert annotate_one(endpoint(stub.base_url), cache) == first
        assert len(stub.requests) == 1


def test_failure_record_cached_for_idempotent_rerun(tmp_path):
    path = tmp_path / "cache.jsonl"
    with ChatStub(["??"]) as stub:
        first = annotate_one(endpoint(stub.base_url), AnnotationCache(path))
        n_requests = len(stub.requests)
        again = annotate_one(endpoint(stub.base_url), AnnotationCache(path))
        assert len(stub.requests) == n_requests
    assert first.label is None
    assert first.error.startswith("parse:")
    assert again.to_json() == first.to_json()


def test_transport_failure_not_cached_so_a_rerun_asks_again(tmp_path):
    path = tmp_path / "cache.jsonl"
    with ChatStub([500]) as stub:
        first = annotate_one(endpoint(stub.base_url, max_retries=0), AnnotationCache(path))
    assert first.label is None and first.error.startswith("transport:")
    with ChatStub(["Databases"]) as stub:
        again = annotate_one(endpoint(stub.base_url, max_retries=0), AnnotationCache(path))
        assert len(stub.requests) == 1
    assert again.label == 1
    assert len(path.read_text().splitlines()) == 1


def test_annotate_all_llm_path(tmp_path):
    table = NodeTable(
        n=4,
        class_names=CLASSES,
        texts=["a_text", "b_text", "c_text", "d_text"],
    )
    bundles = [
        Bundle(id=0, core=0, members=[0, 1]),
        Bundle(id=1, core=2, members=[2, 3]),
    ]
    cfg_kwargs = dict(parallelism=1, max_retries=0)
    with ChatStub(["Agents", "no clue"]) as stub:
        summary = annotate_all(
            bundles,
            table,
            llm=endpoint(stub.base_url, **cfg_kwargs),
            cache=AnnotationCache(tmp_path / "c.jsonl"),
            dataset_description="Things.",
        )
    assert summary.n_labeled == 1 and summary.n_failed == 1
    assert bundles[0].label == 0
    assert bundles[1].label is None


@pytest.mark.parametrize("parallelism", [1, 2])
def test_duplicate_prompts_each_get_their_own_record(parallelism):
    # identical members give identical prompts; cache hits carry the id of
    # the bundle that first sent the prompt
    table = NodeTable(n=2, class_names=CLASSES, texts=["alpha text", "beta text"])
    cache = AnnotationCache()
    with ChatStub(["Databases"]) as stub:
        cfg = endpoint(stub.base_url, parallelism=parallelism)
        for ids in ((4, 7), (5, 9)):   # cold, then every prompt from the cache
            bundles = [Bundle(id=bid, core=0, members=[0, 1]) for bid in ids]
            summary = annotate_all(bundles, table, llm=cfg, cache=cache,
                                   dataset_description="Test items.")
            assert [r.bundle_id for r in summary.records] == list(ids)
            assert [b.label for b in bundles] == [1, 1]
            assert summary.n_labeled == 2


def test_identical_prompts_in_flight_send_one_request(monkeypatch, tmp_path):
    calls = []
    lock = threading.Lock()

    def slow_completion(cfg, api_key, content):
        with lock:
            calls.append(content)
        time.sleep(0.05)   # long enough for a second worker to pick up its copy
        return "Databases"

    monkeypatch.setattr(llm, "chat_completion", slow_completion)
    table = NodeTable(n=2, class_names=CLASSES, texts=["alpha text", "beta text"])
    path = tmp_path / "cache.jsonl"
    bundles = [Bundle(id=bid, core=0, members=[0, 1]) for bid in (3, 8)]
    summary = annotate_all(bundles, table, llm=endpoint("http://unused", parallelism=2),
                           cache=AnnotationCache(path), dataset_description="Test items.")
    assert len(calls) == 1
    assert len(path.read_text().splitlines()) == 1
    assert [r.bundle_id for r in summary.records] == [3, 8]
    assert [b.label for b in bundles] == [1, 1]


def distinct_bundles(n_texts=5):
    """Every ordered pair of nodes: n_texts * (n_texts - 1) distinct prompts."""
    table = NodeTable(n=n_texts, class_names=CLASSES, texts=[f"text {i}" for i in range(n_texts)])
    pairs = [(a, b) for a in range(n_texts) for b in range(n_texts) if a != b]
    return table, [Bundle(id=i, core=a, members=[a, b]) for i, (a, b) in enumerate(pairs)]


def test_one_cache_lookup_per_distinct_prompt(monkeypatch):
    calls = []
    monkeypatch.setattr(llm, "chat_completion", lambda cfg, key, content: calls.append(1) or "Agents")
    lookups = []
    real_get = AnnotationCache.get
    monkeypatch.setattr(AnnotationCache, "get", lambda self, d: lookups.append(d) or real_get(self, d))
    table, bundles = distinct_bundles()
    cache = AnnotationCache()
    cfg = endpoint("http://unused", parallelism=2)
    annotate_all(bundles, table, llm=cfg, cache=cache)
    assert len(lookups) == len(bundles) == len(calls) == len(set(lookups)) == 20
    annotate_all(bundles, table, llm=cfg, cache=cache)   # warm
    assert len(lookups) == 40 and len(calls) == 20


def test_records_appended_in_prompt_order_as_they_arrive(monkeypatch, tmp_path):
    table, bundles = distinct_bundles(3)
    bundles = bundles[:4]
    first = build_prompt(bundles[0], table, "").text

    def completion(cfg, api_key, content):
        # the first prompt is answered last; its record still comes first
        time.sleep(0.1 if content == first else 0.0)
        return "Agents"

    monkeypatch.setattr(llm, "chat_completion", completion)
    path = tmp_path / "cache.jsonl"
    summary = annotate_all(bundles, table, llm=endpoint("http://unused", parallelism=4),
                           cache=AnnotationCache(path))
    written = [json.loads(line)["prompt_sha256"] for line in path.read_text().splitlines()]
    assert written == [r.prompt_sha256 for r in summary.records]


def test_crash_keeps_the_records_already_answered(monkeypatch, tmp_path):
    sent = []

    def completion(cfg, api_key, content):
        sent.append(content)
        if len(sent) == 3:
            raise KeyboardInterrupt
        return "Agents"

    monkeypatch.setattr(llm, "chat_completion", completion)
    table, bundles = distinct_bundles()
    path = tmp_path / "cache.jsonl"
    with pytest.raises(KeyboardInterrupt):
        annotate_all(bundles, table, llm=endpoint("http://unused", parallelism=1),
                     cache=AnnotationCache(path))
    assert len(path.read_text().splitlines()) == 2
    assert len(AnnotationCache(path)) == 2


def test_a_cold_pass_opens_the_cache_file_once(monkeypatch, tmp_path):
    """N misses are N appended lines through one handle, each flushed as it
    is written: the file holds every stored record while the pass runs."""
    path = tmp_path / "cache.jsonl"
    monkeypatch.setattr(llm, "chat_completion", lambda cfg, key, content: "Agents")
    opened, on_disk = [], []
    real_open, real_put = open, AnnotationCache.put

    def counting_open(file, *args, **kwargs):
        if str(file) == str(path):
            opened.append(args[0] if args else kwargs.get("mode", "r"))
        return real_open(file, *args, **kwargs)

    def put_then_read(self, record):
        real_put(self, record)
        on_disk.append(len(path.read_text().splitlines()))

    monkeypatch.setattr(annotate, "open", counting_open, raising=False)
    monkeypatch.setattr(AnnotationCache, "put", put_then_read)
    table, bundles = distinct_bundles()
    summary = annotate_all(bundles, table, llm=endpoint("http://unused", parallelism=2),
                           cache=AnnotationCache(path))
    assert summary.n_labeled == len(bundles) == 20
    assert opened == ["a"]
    assert on_disk == list(range(1, 21))
    assert len(AnnotationCache(path)) == 20
