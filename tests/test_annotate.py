import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundlesup.annotate import (
    AnnotationCache,
    AnnotationRecord,
    NO_TEXT_PLACEHOLDER,
    OracleConfig,
    Prompt,
    ResponseParseError,
    TRUNCATION_MARKER,
    annotate_all,
    annotate_nodes_oracle,
    annotate_oracle,
    build_prompt,
    mode_label,
    parse_response,
)
from bundlesup.graphs import FormatError, NodeTable
from bundlesup.llm import LlmEndpointConfig
from bundlesup.sampling import Bundle


def table_for(texts=None, labels=None, classes=("A", "B", "C")):
    n = len(texts) if texts is not None else len(labels)
    return NodeTable(n=n, class_names=list(classes), texts=texts, labels=labels)


def labelled(labels, num_classes=None):
    """Node table carrying only labels, over num_classes (default max+1) classes."""
    k = num_classes if num_classes is not None else int(max(labels)) + 1
    return table_for(labels=[int(y) for y in labels], classes=[f"c{i}" for i in range(k)])


class TestBuildPrompt:
    def test_template_contents(self):
        bundle = Bundle(id=0, core=0, members=[0, 1])
        prompt = build_prompt(bundle, table_for(texts=["alpha", "beta"]), "Citation network.")
        assert "Item 1: alpha" in prompt.text
        assert "Item 2: beta" in prompt.text
        for name in ("A", "B", "C"):
            assert f"- {name}" in prompt.text
        assert "MOST" in prompt.text
        assert "exactly one category name" in prompt.text

    def test_truncation_is_exact(self):
        long_text = "x" * 10_000
        bundle = Bundle(id=0, core=0, members=[0, 1])
        prompt = build_prompt(
            bundle, table_for(texts=[long_text, "short"]), "d", max_chars_per_item=2000
        )
        line = next(l for l in prompt.text.splitlines() if l.startswith("Item 1:"))
        assert line == "Item 1: " + "x" * 2000 + TRUNCATION_MARKER

    def test_empty_text_placeholder(self):
        bundle = Bundle(id=0, core=0, members=[0, 1])
        prompt = build_prompt(bundle, table_for(texts=["", "beta"]), "d")
        assert f"Item 1: {NO_TEXT_PLACEHOLDER}" in prompt.text

    def test_member_order_changes_digest(self):
        table = table_for(texts=["alpha", "beta"])
        p1 = build_prompt(Bundle(id=0, core=0, members=[0, 1]), table, "d")
        p2 = build_prompt(Bundle(id=0, core=0, members=[1, 0]), table, "d")
        assert p1.text != p2.text
        assert p1.sha256 != p2.sha256

    def test_the_digest_is_derived_from_the_text_alone(self):
        prompt = build_prompt(Bundle(id=3, core=0, members=[0, 1]), table_for(texts=["alpha", "beta"]), "d")
        assert prompt.sha256 == hashlib.sha256(prompt.text.encode("utf-8")).hexdigest()
        assert Prompt(3, prompt.text) == prompt
        with pytest.raises(TypeError):
            Prompt(3, prompt.text, "0" * 64)

    def test_member_without_row_rejected(self):
        """`annotate_all` refuses a member outside the table once, before any
        prompt is built or any label is read, for either annotator."""
        table = table_for(texts=["a"] * 2, labels=[0, 1])
        for annotator in ({"oracle": OracleConfig()}, {"llm": LlmEndpointConfig()}):
            bundles = [Bundle(id=0, core=0, members=[0, 1]), Bundle(id=1, core=0, members=[0, 5])]
            with pytest.raises(ValueError, match="bundle 1 references node 5 with no table row"):
                annotate_all(bundles, table, **annotator)
            assert all(b.label is None for b in bundles)

    def test_no_texts_rejected(self):
        bundle = Bundle(id=0, core=0, members=[0, 1])
        with pytest.raises(ValueError, match="no texts"):
            build_prompt(bundle, table_for(labels=[0, 1]), "d")


class TestParseResponse:
    def test_exact_match(self):
        classes = ["Agents", "Information Retrieval", "Databases"]
        assert parse_response("Information Retrieval", classes) == 1

    def test_case_insensitive_containment(self):
        assert parse_response("The main category is databases.", ["Agents", "Databases"]) == 1

    def test_ambiguous_rejected(self):
        with pytest.raises(ResponseParseError):
            parse_response("Either Agents or Databases", ["Agents", "Databases"])

    def test_no_match_rejected(self):
        with pytest.raises(ResponseParseError):
            parse_response("no idea", ["Agents", "Databases"])

    def test_substring_class_not_double_counted(self):
        classes = ["Learning", "Machine Learning"]
        assert parse_response("It is Machine Learning.", classes) == 1

    def test_identity_on_every_class_name(self):
        classes = ["Agents", "Machine Learning", "Learning", "Information Retrieval", "HCI"]
        for i, name in enumerate(classes):
            assert parse_response(name, classes) == i

    @pytest.mark.parametrize("classes, reply, want", [
        (["  a  ", "ab"], "ab", 1),   # the padded name is longer only before stripping
        (["s", "ß"], "ß", 1),         # "ß" case-folds to "ss", longer than "s"
    ])
    def test_longest_needle_matched_first(self, classes, reply, want):
        assert parse_response(reply, classes) == want

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from(["", " ", "  ", "\t"]),
                      st.text(alphabet="abAsSß ", min_size=1, max_size=4),
                      st.sampled_from(["", " ", "  "]))
            .map("".join).filter(lambda name: name.strip()),
            min_size=1, max_size=6, unique_by=lambda name: name.strip().casefold(),
        ),
        st.data(),
    )
    def test_prompt_reply_round_trip(self, classes, data):
        """A reply that copies one candidate line of the prompt verbatim parses
        to that class, for names that are substrings of others, differ only in
        case, or carry surrounding whitespace."""
        table = table_for(texts=["alpha", "beta"], classes=classes)
        prompt = build_prompt(Bundle(id=0, core=0, members=[0, 1]), table, "d")
        lines = prompt.text.split("\n")
        start = lines.index("Candidate categories:") + 1
        candidates = [line[2:] for line in lines[start:start + len(classes)]]
        assert candidates == classes
        k = data.draw(st.integers(0, len(classes) - 1))
        assert parse_response(candidates[k], classes) == k


class TestOracle:
    def test_mode(self):
        b = Bundle(id=0, core=0, members=[0, 1, 2])
        assert annotate_oracle(b, labelled([0, 0, 1]), OracleConfig()) == 0

    def test_tie_breaks_to_lower_class(self):
        b = Bundle(id=0, core=0, members=[0, 1, 2, 3])
        assert annotate_oracle(b, labelled([1, 1, 0, 0]), OracleConfig()) == 0

    def test_noiseless_matches_histogram_argmax(self):
        rng = np.random.default_rng(0)
        for trial in range(200):
            labels = rng.integers(0, 4, size=10).tolist()
            members = rng.choice(10, size=5, replace=False).tolist()
            b = Bundle(id=trial, core=members[0], members=members)
            got = annotate_oracle(b, labelled(labels, 4), OracleConfig(noise_rate=0.0))
            counts = np.bincount([labels[m] for m in members], minlength=4)
            assert counts[got] == counts.max()
            assert got == int(np.argmax(counts))

    def test_full_noise_never_returns_mode(self):
        labels = labelled([0, 0, 1, 2])
        for bid in range(100):
            b = Bundle(id=bid, core=0, members=[0, 1, 2, 3])
            assert annotate_oracle(b, labels, OracleConfig(noise_rate=1.0, seed=bid)) != 0

    def test_deterministic_per_seed_and_bundle(self):
        labels = labelled([0, 1, 2, 0, 1, 2])
        cfg = OracleConfig(noise_rate=0.5, seed=11)
        b = Bundle(id=3, core=0, members=[0, 1, 2, 3])
        first = annotate_oracle(b, labels, cfg)
        # a different bundle id in between must not disturb bundle 3's label
        annotate_oracle(Bundle(id=9, core=0, members=[0, 1]), labels, cfg)
        assert annotate_oracle(b, labels, cfg) == first

    def test_node_oracle_noiseless_identity(self):
        labels = [0, 1, 2, 1]
        out = annotate_nodes_oracle([0, 1, 2, 3], labelled(labels), OracleConfig(noise_rate=0.0))
        assert out.tolist() == labels

    def test_node_oracle_flip_rate(self):
        labels = list(np.random.default_rng(0).integers(0, 4, size=2000))
        cfg = OracleConfig(noise_rate=0.3, seed=5)
        out = annotate_nodes_oracle(range(2000), labelled(labels, 4), cfg)
        flips = np.mean([o != l for o, l in zip(out, labels)])
        assert abs(flips - 0.3) < 0.05

    def test_noise_reaches_classes_no_node_carries(self):
        # the table has classes c0..c2 but no node is labelled c2
        table = labelled([0, 0, 1, 0], num_classes=3)
        cfg = OracleConfig(noise_rate=1.0, seed=4)
        bundle_draws = {annotate_oracle(Bundle(id=bid, core=0, members=[0, 1, 3]), table, cfg)
                        for bid in range(60)}
        assert bundle_draws == {1, 2}
        node_draws = {int(annotate_nodes_oracle([0], table, OracleConfig(1.0, seed=s))[0])
                      for s in range(60)}
        assert node_draws == {1, 2}

    def test_mode_label_helper(self):
        assert mode_label([2, 2, 1]) == 2
        assert mode_label([1, 0]) == 0


class TestCache:
    def _record(self, sha="abc", label=1):
        return AnnotationRecord(
            bundle_id=0,
            prompt_sha256=sha,
            raw_response="B",
            label=label,
            attempts=1,
            annotator="llm",
        )

    def test_put_get(self):
        cache = AnnotationCache()
        rec = self._record()
        cache.put(rec)
        assert cache.get("abc") == rec
        assert cache.get("missing") is None

    def test_survives_restart(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = AnnotationCache(path)
        cache.put(self._record(sha="k1", label=2))
        cache.put(self._record(sha="k2", label=None))
        reopened = AnnotationCache(path)
        assert len(reopened) == 2
        assert reopened.get("k1").label == 2
        assert reopened.get("k2").label is None

    def test_json_round_trip(self):
        rec = self._record()
        assert AnnotationRecord(**json.loads(rec.to_json())) == rec

    def test_cut_short_last_line_is_dropped(self, tmp_path, caplog):
        path = tmp_path / "cache.jsonl"
        cache = AnnotationCache(path)
        cache.put(self._record(sha="k1", label=2))
        cache.put(self._record(sha="k2", label=0))
        whole = path.read_text()
        path.write_text(whole + self._record(sha="k3").to_json()[:25])
        with caplog.at_level("WARNING", logger="bundlesup.annotate"):
            reopened = AnnotationCache(path)
        assert len(reopened) == 2 and reopened.get("k3") is None
        assert "cut-short last line" in caplog.text
        assert path.read_text() == whole
        reopened.put(self._record(sha="k4", label=1))
        assert AnnotationCache(path).get("k4").label == 1

    def test_appends_after_a_last_record_without_newline_start_a_new_line(self, tmp_path):
        """A whole last record whose newline never reached the disk is kept,
        and records appended after it land on lines of their own."""
        path = tmp_path / "cache.jsonl"
        path.write_text(self._record(sha="k1", label=2).to_json())
        cache = AnnotationCache(path)
        assert cache.get("k1").label == 2
        cache.put(self._record(sha="k2", label=0))
        with cache.appending():
            cache.put(self._record(sha="k3", label=None))
        reopened = AnnotationCache(path)
        assert len(reopened) == 3
        assert [reopened.get(k).label for k in ("k1", "k2", "k3")] == [2, 0, None]
        assert len(path.read_text().splitlines()) == 3

    def test_bad_line_in_the_middle_raises(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        good = self._record(sha="k1").to_json()
        path.write_text(good + "\n" + good[:25] + "\n" + self._record(sha="k2").to_json() + "\n")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}:2: invalid JSON: "):
            AnnotationCache(path)

    @pytest.mark.parametrize("line", [
        b'{"foo": 1}',
        b'[1, 2]',
        b'null',
        b'"text"',
        b'{"bundle_id": 0, "prompt_sha256": "k9"}',
        None,   # a whole record with one more key
    ])
    @pytest.mark.parametrize("last", [False, True], ids=["middle", "last"])
    def test_a_line_that_is_not_a_record_names_the_path_and_line(self, tmp_path, line, last):
        """Valid JSON that is not an object with exactly the record's keys
        raises wherever it stands; only a cut-short last line is dropped."""
        if line is None:
            line = json.dumps({**json.loads(self._record(sha="k9").to_json()), "extra": 1}).encode()
        path = tmp_path / "cache.jsonl"
        good = [self._record(sha=k).to_json().encode() for k in ("k1", "k2")]
        lines = [good[0], good[1], line] if last else [good[0], line, good[1]]
        path.write_bytes(b"\n".join(lines) + b"\n")
        where = 3 if last else 2
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}:{where}: not an annotation record"):
            AnnotationCache(path)

    @pytest.mark.parametrize("key, value, want", [
        ("label", "B", "int or null"),
        ("label", True, "int or null"),
        ("label", 1.0, "int or null"),
        ("attempts", "x", "int"),
        ("attempts", False, "int"),
        ("attempts", None, "int"),
        ("bundle_id", True, "int"),
        ("prompt_sha256", 7, "str"),
        ("raw_response", None, "str"),
        ("annotator", ["llm"], "str"),
        ("error", 0, "str or null"),
    ])
    def test_a_value_of_the_wrong_type_names_the_path_and_line(self, tmp_path, key, value, want):
        """A line with exactly the record's keys but a value of another JSON
        type, a bool where an int belongs included, raises a FormatError."""
        path = tmp_path / "cache.jsonl"
        good = self._record(sha="k1").to_json()
        bad = json.dumps({**json.loads(self._record(sha="k2").to_json()), key: value})
        path.write_text(good + "\n" + bad + "\n" + self._record(sha="k3").to_json() + "\n")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}:2: {key} must be {want}, got "):
            AnnotationCache(path)

    def test_a_line_that_is_not_utf8_names_the_path_and_line(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        good = self._record(sha="k1").to_json().encode()
        path.write_bytes(good + b"\n\xff\xfe\n" + good + b"\n")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}:2: invalid JSON: 'utf-8' codec"):
            AnnotationCache(path)


class TestAnnotateAll:
    def test_oracle_composition(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 3, size=30).tolist()
        table = table_for(labels=labels)
        bundles = []
        for bid in range(20):
            members = rng.choice(30, size=4, replace=False).tolist()
            bundles.append(Bundle(id=bid, core=members[0], members=members))
        summary = annotate_all(bundles, table, oracle=OracleConfig(noise_rate=0.0))
        assert summary.n_labeled == 20 and summary.n_failed == 0
        for b in bundles:
            assert b.label == mode_label([labels[m] for m in b.members])

    def test_requires_exactly_one_annotator(self):
        with pytest.raises(ValueError):
            annotate_all([], table_for(labels=[0]), oracle=None, llm=None)

    def test_oracle_needs_labels(self):
        b = Bundle(id=0, core=0, members=[0, 1])
        with pytest.raises(ValueError, match="ground-truth"):
            annotate_all([b], table_for(texts=["a", "b"]), oracle=OracleConfig())
