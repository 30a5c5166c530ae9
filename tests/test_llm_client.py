"""LLM client conformance against a local chat-completions stub."""

import threading
import time

import pytest

from bundlesup.annotate import AnnotationCache, AnnotationConfigError, annotate_all, build_prompt
from bundlesup.graphs import NodeTable
from bundlesup import llm
from bundlesup.llm import REASK_SUFFIX, LlmEndpointConfig, annotate_llm
from bundlesup.sampling import Bundle

from llm_stub import ChatStub

CLASSES = ["Agents", "Databases", "Information Retrieval"]


def make_prompt(bundle_id=0):
    table = NodeTable(n=2, class_names=CLASSES, texts=["alpha text", "beta text"])
    return build_prompt(Bundle(id=bundle_id, core=0, members=[0, 1]), table, "Test items.")


def endpoint(url, **kw):
    defaults = dict(base_url=url, model="stub-model", api_key_env_var="STUB_KEY", max_retries=2)
    defaults.update(kw)
    return LlmEndpointConfig(**defaults)


@pytest.fixture(autouse=True)
def api_key(monkeypatch):
    monkeypatch.setenv("STUB_KEY", "sekrit")


def test_happy_path_single_attempt():
    with ChatStub(["Databases"]) as stub:
        rec = annotate_llm(make_prompt(), endpoint(stub.base_url), AnnotationCache(), CLASSES)
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
    prompt = make_prompt()
    with ChatStub(["Databases"]) as stub:
        first = annotate_llm(prompt, endpoint(stub.base_url), cache, CLASSES)
        again = annotate_llm(prompt, endpoint(stub.base_url), cache, CLASSES)
        assert len(stub.requests) == 1
    assert again == first


def test_retry_on_unparseable_with_reask_suffix():
    with ChatStub(["hmm, not sure", "still thinking", "Agents"]) as stub:
        rec = annotate_llm(make_prompt(), endpoint(stub.base_url), AnnotationCache(), CLASSES)
        assert rec.label == 0
        assert rec.attempts == 3
        assert not stub.requests[0]["body"]["messages"][1]["content"].endswith(REASK_SUFFIX)
        for req in stub.requests[1:]:
            assert req["body"]["messages"][1]["content"].endswith(REASK_SUFFIX)


def test_exhausted_retries_marks_failure():
    with ChatStub(["gibberish"]) as stub:
        rec = annotate_llm(make_prompt(), endpoint(stub.base_url), AnnotationCache(), CLASSES)
        assert len(stub.requests) == 3  # 1 + max_retries
    assert rec.label is None
    assert rec.attempts == 3
    assert rec.error.startswith("parse:")


def test_transport_error_retried_then_recorded():
    with ChatStub([500, 500, 500]) as stub:
        rec = annotate_llm(make_prompt(), endpoint(stub.base_url), AnnotationCache(), CLASSES)
        assert len(stub.requests) == 3
    assert rec.label is None
    assert rec.error.startswith("transport:")


def test_transport_error_then_recovery():
    with ChatStub([500, "Information Retrieval"]) as stub:
        rec = annotate_llm(make_prompt(), endpoint(stub.base_url), AnnotationCache(), CLASSES)
    assert rec.label == 2
    assert rec.attempts == 2


def test_missing_api_key(monkeypatch):
    monkeypatch.delenv("STUB_KEY", raising=False)
    with ChatStub(["Databases"]) as stub:
        with pytest.raises(AnnotationConfigError, match="STUB_KEY"):
            annotate_llm(make_prompt(), endpoint(stub.base_url), AnnotationCache(), CLASSES)


def test_failure_record_cached_for_idempotent_rerun(tmp_path):
    path = tmp_path / "cache.jsonl"
    prompt = make_prompt()
    with ChatStub(["??"]) as stub:
        first = annotate_llm(prompt, endpoint(stub.base_url), AnnotationCache(path), CLASSES)
        n_requests = len(stub.requests)
        again = annotate_llm(prompt, endpoint(stub.base_url), AnnotationCache(path), CLASSES)
        assert len(stub.requests) == n_requests
    assert first.label is None
    assert again.to_json() == first.to_json()


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
