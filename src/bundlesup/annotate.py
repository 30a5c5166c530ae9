"""Turning bundles into prompts and obtaining one mode-category label each.

Two annotators are available: a deterministic oracle that reads ground
truth (with a configurable corruption rate, for offline experiments) and
a chat-completion endpoint (`llm.py` sends the requests). Responses are
parsed by case-insensitive containment of exactly one class name;
anything else is a parse failure and leaves the bundle unlabeled.

`annotate_all` alone reads and writes the `AnnotationCache`: one lookup
per distinct prompt, and one append per answered miss through a file
handle opened once per pass. Transport failures are not stored, so a
rerun asks again.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import llm as llm_client
from .graphs import FormatError, NodeTable
from .sampling import Bundle

logger = logging.getLogger(__name__)

TRUNCATION_MARKER = " [truncated]"
NO_TEXT_PLACEHOLDER = "(no text)"

# rng stream tags (see sampling.py for 0 and 1)
_STREAM_ORACLE = 2
_STREAM_NODE_ORACLE = 3


class ResponseParseError(ValueError):
    """The annotator reply did not contain exactly one known class name."""


class AnnotationConfigError(RuntimeError):
    """The annotator is not usable as configured (e.g. missing API key)."""


@dataclass(frozen=True)
class Prompt:
    """A bundle's prompt text and its SHA-256 hex digest, the cache key,
    derived from the text here alone."""

    bundle_id: int
    text: str
    sha256: str = field(init=False)

    def __post_init__(self):
        if not self.text:
            raise ValueError("prompt text must be non-empty")
        object.__setattr__(self, "sha256", hashlib.sha256(self.text.encode("utf-8")).hexdigest())


@dataclass
class AnnotationRecord:
    bundle_id: int
    prompt_sha256: str
    raw_response: str
    label: int | None
    attempts: int
    annotator: str
    error: str | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


# the keys of every cache line, as `to_json` writes them, and the JSON
# types each value may take; a bool is not an int here
_RECORD_TYPES = {"bundle_id": (int,), "prompt_sha256": (str,), "raw_response": (str,),
                 "label": (int, type(None)), "attempts": (int,), "annotator": (str,),
                 "error": (str, type(None))}


@dataclass(frozen=True)
class OracleConfig:
    """Simulated annotator: true mode label, corrupted with probability noise_rate."""

    noise_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.noise_rate <= 1.0):
            raise ValueError("noise_rate must be in [0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def build_prompt(
    bundle: Bundle,
    table: NodeTable,
    dataset_description: str,
    max_chars_per_item: int = 2000,
) -> Prompt:
    """Assemble the single prompt asking for the bundle's mode category."""
    if table.texts is None:
        raise ValueError("node table carries no texts; cannot build prompts")
    lines = [dataset_description.strip(), ""]
    lines.append(f"Below are {len(bundle.members)} text items.")
    lines.append("")
    for pos, node in enumerate(bundle.members, start=1):
        text = table.texts[node]
        if not text:
            body = NO_TEXT_PLACEHOLDER
        elif len(text) > max_chars_per_item:
            body = text[:max_chars_per_item] + TRUNCATION_MARKER
        else:
            body = text
        lines.append(f"Item {pos}: {body}")
    lines.append("")
    lines.append("Candidate categories:")
    for name in table.class_names:
        lines.append(f"- {name}")
    lines.append("")
    lines.append(
        "Question: identify the single category that MOST of the items above "
        "belong to. Answer with exactly one category name from the candidate "
        "list, and nothing else."
    )
    return Prompt(bundle_id=bundle.id, text="\n".join(lines))


def parse_response(raw: str, class_names) -> int:
    """Resolve a free-form reply to a class index.

    Names are matched stripped and case-folded, longest first, and their
    spans masked, so a name that is a substring of another is not
    double-counted. Exactly one distinct class name must occur.
    """
    if not class_names:
        raise ValueError("class_names must be non-empty")
    haystack = raw.casefold()
    needles = [name.strip().casefold() for name in class_names]
    found = []
    for idx in sorted(range(len(needles)), key=lambda i: (-len(needles[i]), i)):
        needle = needles[idx]
        start = 0
        hit = False
        while True:
            pos = haystack.find(needle, start)
            if pos < 0:
                break
            hit = True
            haystack = haystack[:pos] + "\x00" * len(needle) + haystack[pos + len(needle):]
            start = pos + len(needle)
        if hit:
            found.append(idx)
    if len(found) != 1:
        names = [class_names[i] for i in sorted(found)]
        raise ResponseParseError(
            f"expected exactly one class name, found {len(found)} ({names}) in {raw!r}"
        )
    return found[0]


def ask_llm(prompt: Prompt, cfg: llm_client.LlmEndpointConfig, api_key: str,
            class_names) -> AnnotationRecord:
    """Send one prompt and parse the reply into a record.

    Unparseable replies and transport errors are retried up to
    cfg.max_retries times: after an unparseable reply the prompt is sent
    again with a re-ask suffix appended, and after a transport error the
    request that failed is sent again unchanged. A record with label None
    marks final failure, and its error says whether the last attempt
    failed to parse or to arrive; its reply is that attempt's, if any.
    """
    label, error = None, None
    content = prompt.text
    for attempt in range(cfg.max_retries + 1):
        raw = ""
        try:
            raw = llm_client.chat_completion(cfg, api_key, content)
        except llm_client.TransportError as exc:
            error = f"transport: {exc}"
            continue
        try:
            label = parse_response(raw, class_names)
            error = None
            break
        except ResponseParseError as exc:
            error = f"parse: {exc}"
            content = prompt.text + llm_client.REASK_SUFFIX
    return AnnotationRecord(
        bundle_id=prompt.bundle_id,
        prompt_sha256=prompt.sha256,
        raw_response=raw,
        label=label,
        attempts=attempt + 1,
        annotator="llm",
        error=error,
    )


def mode_label(member_labels) -> int:
    """Most frequent class among the members; ties go to the lowest index."""
    counts = np.bincount(np.asarray(member_labels, dtype=np.intp))
    return int(np.argmax(counts))


def _corrupt(true: int, n_classes: int, noise_rate: float, key: tuple) -> int:
    """`true`, or with probability noise_rate a uniform draw from the other
    n_classes - 1 classes, from the rng stream `key`."""
    if noise_rate <= 0.0:
        return true
    rng = np.random.default_rng(key)
    if rng.random() < noise_rate and n_classes > 1:
        other = int(rng.integers(n_classes - 1))
        return other if other < true else other + 1
    return true


def annotate_oracle(bundle: Bundle, table: NodeTable, cfg: OracleConfig) -> int:
    """True mode of the member labels, corrupted with probability noise_rate.

    A corrupted label is drawn uniformly from the table's other classes,
    including classes no node carries. Deterministic given (cfg.seed,
    bundle.id) regardless of call order.
    """
    true = mode_label(table.labels[bundle.members])
    return _corrupt(true, table.num_classes, cfg.noise_rate, (cfg.seed, _STREAM_ORACLE, bundle.id))


def annotate_nodes_oracle(node_indices, table: NodeTable, cfg: OracleConfig) -> np.ndarray:
    """Per-node oracle: the true label, corrupted with probability noise_rate.

    Corrupted labels come from the table's other classes. Used by
    individual-query experiment arms; deterministic per (cfg.seed, node
    index).
    """
    return np.array(
        [_corrupt(int(table.labels[node]), table.num_classes, cfg.noise_rate,
                  (cfg.seed, _STREAM_NODE_ORACLE, int(node))) for node in node_indices],
        dtype=np.intp,
    )


class AnnotationCache:
    """Append-only JSONL store keyed by prompt digest; safe across threads.

    A last line that is not valid JSON, as left by a crash mid-append, is
    dropped from the file with a warning; a valid one that lacks its
    newline gets it, so appends start on a line of their own. Any other
    line that is not a JSON
    object with exactly `AnnotationRecord`'s fields, each of its type,
    raises a FormatError naming the path and line.
    Inside `appending()`, every `put` writes through one open handle and
    flushes; outside it, each `put` opens the file for its one record.
    """

    def __init__(self, path=None):
        self.path = path
        self._records = {}
        self._lock = threading.Lock()
        self._fh = None
        if path is not None and os.path.exists(path):
            self._load(path)

    def _load(self, path) -> None:
        with open(path, "rb") as fh:
            lines = fh.readlines()
        offset = 0
        for lineno, raw in enumerate(lines, start=1):
            if raw.strip():
                try:
                    values = json.loads(raw.decode("utf-8"))
                except ValueError as exc:   # not UTF-8, or not JSON
                    if any(rest.strip() for rest in lines[lineno:]):
                        raise FormatError(f"{path}:{lineno}: invalid JSON: {exc}") from None
                    logger.warning("%s:%d: dropping a cut-short last line", path, lineno)
                    # later appends must start on a line of their own
                    os.truncate(path, offset)
                    return
                if type(values) is not dict or values.keys() != _RECORD_TYPES.keys():
                    raise FormatError(f"{path}:{lineno}: not an annotation record, a JSON object with "
                                      f"exactly the keys {', '.join(sorted(_RECORD_TYPES))}")
                for key, allowed in _RECORD_TYPES.items():
                    if type(values[key]) not in allowed:
                        kinds = " or ".join("null" if t is type(None) else t.__name__ for t in allowed)
                        raise FormatError(f"{path}:{lineno}: {key} must be {kinds}, got {values[key]!r}")
                rec = AnnotationRecord(**values)
                self._records[rec.prompt_sha256] = rec
            offset += len(raw)
        if lines and not lines[-1].endswith(b"\n"):
            # a whole last record whose newline never reached the disk
            with open(path, "ab") as fh:
                fh.write(b"\n")

    def get(self, sha256: str) -> AnnotationRecord | None:
        with self._lock:
            return self._records.get(sha256)

    @contextmanager
    def appending(self):
        """Keep the file open for appends until the block ends."""
        if self.path is None or self._fh is not None:
            yield
            return
        with open(self.path, "a", encoding="utf-8") as fh:
            with self._lock:
                self._fh = fh
            try:
                yield
            finally:
                with self._lock:
                    self._fh = None

    def put(self, record: AnnotationRecord) -> None:
        """Store `record`; with a path, its line is on disk when this returns."""
        line = record.to_json() + "\n"
        with self._lock:
            self._records[record.prompt_sha256] = record
            if self._fh is not None:
                self._fh.write(line)
                self._fh.flush()
            elif self.path is not None:
                with open(self.path, "a", encoding="utf-8") as fh:
                    fh.write(line)

    def __len__(self) -> int:
        return len(self._records)


@dataclass
class AnnotationSummary:
    records: list
    n_labeled: int
    n_failed: int


def annotate_all(
    bundles,
    table: NodeTable,
    *,
    oracle: OracleConfig = None,
    llm=None,
    cache: AnnotationCache = None,
    dataset_description: str = "",
) -> AnnotationSummary:
    """Label every bundle in place and return one record per bundle.

    Exactly one of `oracle` / `llm` must be given. Per-bundle failures are
    recorded, not raised; failed bundles keep label None. With `llm`, each
    distinct prompt is looked up in `cache` once; the misses are sent and
    each answer is appended as it arrives, except transport failures. A
    missing API key raises AnnotationConfigError before any request. A
    member with no row in `table` raises a ValueError before either.
    """
    if (oracle is None) == (llm is None):
        raise ValueError("pass exactly one of oracle= or llm=")
    for b in bundles:
        outside = [m for m in b.members if not 0 <= m < table.n]
        if outside:
            raise ValueError(f"bundle {b.id} references node {outside[0]} with no table row")
    records = []
    if oracle is not None:
        if table.labels is None:
            raise ValueError("oracle annotation needs ground-truth labels in the node table")
        for b in bundles:
            label = annotate_oracle(b, table, oracle)
            b.label = label
            records.append(
                AnnotationRecord(
                    bundle_id=b.id,
                    prompt_sha256="",
                    raw_response=table.class_names[label],
                    label=label,
                    attempts=1,
                    annotator="oracle",
                )
            )
    else:
        if cache is None:
            cache = AnnotationCache()
        prompts = [
            build_prompt(b, table, dataset_description, llm.max_chars_per_item) for b in bundles
        ]
        # one lookup, and at most one request, per distinct prompt
        known, misses = {}, []
        for p in prompts:
            if p.sha256 not in known:
                known[p.sha256] = cache.get(p.sha256)
                if known[p.sha256] is None:
                    misses.append(p)
        if misses:
            api_key = os.environ.get(llm.api_key_env_var, "")
            if not api_key:
                raise AnnotationConfigError(f"environment variable {llm.api_key_env_var} is not set")
            workers = min(llm.parallelism, len(misses))
            with cache.appending(), ThreadPoolExecutor(max_workers=workers) as pool:
                answers = pool.map(lambda p: ask_llm(p, llm, api_key, table.class_names), misses)
                # stored in prompt order as each arrives; transport failures are not, so
                # a rerun asks again
                for p, rec in zip(misses, answers):
                    known[p.sha256] = rec
                    if not (rec.error or "").startswith("transport:"):
                        cache.put(rec)
        for b, p in zip(bundles, prompts):
            # a shared record carries the id of the first bundle that sent the prompt
            rec = replace(known[p.sha256], bundle_id=b.id)
            b.label = rec.label
            records.append(rec)
    n_labeled = sum(1 for r in records if r.label is not None)
    return AnnotationSummary(records=records, n_labeled=n_labeled, n_failed=len(records) - n_labeled)


def save_records(path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(rec.to_json() + "\n")
