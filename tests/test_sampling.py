import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundlesup.graphs import Csr, FormatError, normalized_adjacency
from bundlesup.sampling import (
    Bundle,
    IsolatedCoreError,
    SamplingBudgetError,
    SamplingConfig,
    apply_refinements,
    load_bundles,
    sample_bundles,
    sample_semantic,
    sample_topological,
    sample_uniform,
    save_bundles,
)

from reference import adaptive_hop, hop_array


def star(leaves=6):
    return Csr.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


class TestAdaptiveHop:
    def test_star_one_hop(self):
        assert adaptive_hop(star(6), 0, 5) == (1, False)

    def test_path_needs_four_hops(self):
        # hand BFS: cumulative neighborhood sizes 1, 2, 3, 4 -> first >= 4 at k=4
        g = Csr.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert adaptive_hop(g, 0, 5) == (4, False)

    def test_saturated_component(self):
        g = Csr.from_edges(5, [(0, 1)])
        assert adaptive_hop(g, 0, 5) == (1, True)

    def test_isolated_core(self):
        g = Csr.from_edges(3, [(1, 2)])
        with pytest.raises(IsolatedCoreError):
            adaptive_hop(g, 0, 5)

    def test_monotone_in_bundle_size(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            n = int(rng.integers(6, 40))
            mask = rng.random((n, n)) < 0.12
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if mask[i, j]]
            g = Csr.from_edges(n, edges)
            core = int(rng.integers(n))
            if g.degree(core) == 0:
                continue
            ks = [adaptive_hop(g, core, s)[0] for s in range(2, 8)]
            assert ks == sorted(ks)


class TestSampleTopological:
    def test_triangle_forced(self):
        g = Csr.from_edges(3, [(0, 1), (1, 2), (2, 0)])
        for seed in range(5):
            b = sample_topological(g, 0, 3, np.random.default_rng(seed))
            assert sorted(b.members) == [0, 1, 2]

    def test_star_leaf_frequencies(self):
        """Uniform sampling without replacement: each leaf in 4 of 6 slots."""
        g = star(6)
        counts = np.zeros(7)
        runs = 1000
        for seed in range(runs):
            b = sample_topological(g, 0, 5, np.random.default_rng((123, seed)))
            assert len(b.members) == 5 and b.members[0] == 0
            for m in b.members[1:]:
                counts[m] += 1
        freqs = counts[1:] / runs
        assert np.all(np.abs(freqs - 4 / 6) <= 0.05)

    def test_deterministic_given_rng_seed(self):
        g = star(6)
        b1 = sample_topological(g, 0, 5, np.random.default_rng(9))
        b2 = sample_topological(g, 0, 5, np.random.default_rng(9))
        assert b1.members == b2.members

    def test_members_within_adaptive_hop(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            n = 25
            mask = rng.random((n, n)) < 0.1
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if mask[i, j]]
            g = Csr.from_edges(n, edges)
            core = int(rng.integers(n))
            if g.degree(core) == 0:
                continue
            b = sample_topological(g, core, 5, np.random.default_rng(trial))
            k, _ = adaptive_hop(g, core, 5)
            dist = hop_array(g, core)
            for m in b.members:
                if m != core:
                    assert 1 <= dist[m] <= k

    def test_saturated_bundle_covers_component(self):
        g = Csr.from_edges(4, [(0, 1), (2, 3)])
        b = sample_topological(g, 0, 5, np.random.default_rng(0))
        assert sorted(b.members) == [0, 1]


class TestSampleSemantic:
    def test_nearest_by_hand(self):
        emb = np.array([[0.0], [1.0], [2.0], [10.0]])
        b = sample_semantic(emb, 0, 3)
        assert sorted(b.members) == [0, 1, 2]

    def test_tie_prefers_lower_index(self):
        emb = np.array([[0.0], [1.0], [-1.0]])
        b = sample_semantic(emb, 0, 2)
        assert b.members == [0, 1]

    def test_too_few_nodes(self):
        emb = np.array([[0.0], [1.0]])
        with pytest.raises(ValueError):
            sample_semantic(emb, 0, 3)

    def test_no_excluded_node_closer(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(40, 3))
        for core in (0, 7, 23):
            b = sample_semantic(x, core, 6)
            inside = [m for m in b.members if m != core]
            outside = [i for i in range(40) if i not in b.members]
            d = np.linalg.norm(x - x[core], axis=1)
            assert max(d[inside]) <= min(d[outside])


class TestSampleBundles:
    def _grid_graph(self, n=30):
        edges = [(i, i + 1) for i in range(n - 1)]
        return Csr.from_edges(n, edges)

    def test_ids_and_count(self):
        g = self._grid_graph()
        bundles = sample_bundles(g, None, SamplingConfig(num_bundles=8, seed=0))
        assert [b.id for b in bundles] == list(range(8))

    def test_bitwise_reproducible(self):
        g = self._grid_graph()
        cfg = SamplingConfig(num_bundles=10, seed=42)
        a = sample_bundles(g, None, cfg)
        b = sample_bundles(g, None, cfg)
        assert [(x.core, x.members) for x in a] == [(y.core, y.members) for y in b]

    def test_more_bundles_than_nodes_uses_replacement(self):
        g = Csr.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        bundles = sample_bundles(g, None, SamplingConfig(num_bundles=12, bundle_size=3, seed=1))
        assert len(bundles) == 12
        assert len({b.core for b in bundles}) <= 5

    def test_all_isolated_exhausts_budget(self):
        g = Csr.from_edges(6, [])
        cfg = SamplingConfig(num_bundles=3, seed=0, max_resample_attempts=10)
        with pytest.raises(SamplingBudgetError) as err:
            sample_bundles(g, None, cfg)
        assert err.value.succeeded == 0

    def test_isolated_cores_redrawn(self):
        # nodes 3..9 isolated; sampling still builds every bundle
        g = Csr.from_edges(10, [(0, 1), (1, 2), (2, 0)])
        bundles = sample_bundles(g, None, SamplingConfig(num_bundles=6, bundle_size=3, seed=0))
        assert len(bundles) == 6
        assert all(b.core in (0, 1, 2) for b in bundles)

    def test_semantic_criterion(self):
        rng = np.random.default_rng(8)
        emb = rng.normal(size=(20, 4))
        cfg = SamplingConfig(criterion="semantic", num_bundles=5, bundle_size=4, seed=0)
        bundles = sample_bundles(None, emb, cfg)
        assert all(len(b.members) == 4 for b in bundles)

    def test_random_criterion_ignores_topology(self):
        g = self._grid_graph()
        cfg = SamplingConfig(criterion="random", num_bundles=50, bundle_size=5, seed=3)
        bundles = sample_bundles(g, None, cfg)
        dist_far = 0
        for b in bundles:
            dist = hop_array(g, b.core)
            dist_far += sum(1 for m in b.members if m != b.core and dist[m] > 3)
        assert dist_far > 0


class TestBundleBasics:
    def test_core_must_be_member(self):
        with pytest.raises(ValueError):
            Bundle(id=0, core=5, members=[0, 1])

    def test_members_distinct(self):
        with pytest.raises(ValueError):
            Bundle(id=0, core=0, members=[0, 0, 1])

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            Bundle(id=0, core=0, members=[0])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SamplingConfig(bundle_size=1)
        with pytest.raises(ValueError):
            SamplingConfig(num_bundles=0)
        with pytest.raises(ValueError):
            SamplingConfig(criterion="mystery")

    def test_uniform_sampler_small_pool(self):
        b = sample_uniform(3, 0, 5, np.random.default_rng(0))
        assert sorted(b.members) == [0, 1, 2]


@st.composite
def graphs_with_isolated_nodes(draw):
    """A graph of 2-16 nodes, at least one of them isolated."""
    n = draw(st.integers(2, 16))
    isolated = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=max(1, n // 4)))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    edges = [e for e in draw(st.lists(pair, min_size=n, max_size=4 * n)) if not isolated & set(e)]
    return Csr.from_edges(n, edges)


@settings(max_examples=300, deadline=None)
@given(graphs_with_isolated_nodes(), st.integers(2, 9), st.integers(1, 24), st.integers(0, 8),
       st.integers(0, 2**32), st.sampled_from(["topological", "random"]))
def test_the_normalized_adjacency_gives_the_graphs_bundles(graph, bundle_size, num_bundles, attempts,
                                                          seed, criterion):
    cfg = SamplingConfig(criterion=criterion, bundle_size=bundle_size, num_bundles=num_bundles,
                         seed=seed, max_resample_attempts=attempts)
    outcomes = []
    for pattern in (graph, normalized_adjacency(graph)):
        try:
            outcomes.append(sample_bundles(pattern, None, cfg))
        except SamplingBudgetError as exc:
            outcomes.append(("exhausted", exc.succeeded, str(exc)))
    assert outcomes[0] == outcomes[1]


def test_bundle_serialization_round_trip(tmp_path):
    bundles = [
        Bundle(id=0, core=1, members=[1, 2, 3], label=None),
        Bundle(id=1, core=4, members=[4, 5], label=2, evicted=[(7, 9)]),
    ]
    path = tmp_path / "bundles.jsonl"
    save_bundles(path, bundles)
    back = load_bundles(path)
    assert [(b.id, b.core, b.members, b.label, b.evicted) for b in back] == [
        (0, 1, [1, 2, 3], None, []),
        (1, 4, [4, 5], 2, [(7, 9)]),
    ]


def test_refined_bundle_with_evicted_core_reloads(tmp_path):
    # refinement may evict the core; such bundles must survive a round trip
    (b,) = apply_refinements([Bundle(id=0, core=3, members=[1, 2, 3], label=0)], [(40, 0, 3)])
    path = tmp_path / "bundles.jsonl"
    save_bundles(path, [b])
    back = load_bundles(path)[0]
    assert back.core == 3 and back.members == [1, 2] and back.evicted == [(40, 3)]


def test_apply_refinements_copies_the_bundles_minus_their_evictions():
    bundles = [
        Bundle(id=5, core=3, members=[3, 1, 2, 0], label=0, evicted=[(1, 9)]),
        Bundle(id=2, core=1, members=[1, 2, 3], label=1),
        Bundle(id=8, core=0, members=[0, 4]),
    ]
    before = [(b.members[:], b.evicted[:]) for b in bundles]
    out = apply_refinements(bundles, [(30, 5, 3), (30, 2, 2), (35, 5, 0)])
    assert [(b.id, b.core, b.members, b.label, b.evicted) for b in out] == [
        (5, 3, [1, 2], 0, [(1, 9), (30, 3), (35, 0)]),
        (2, 1, [1, 3], 1, [(30, 2)]),
        (8, 0, [0, 4], None, []),
    ]
    assert [(b.members, b.evicted) for b in bundles] == before


def test_a_repeated_bundle_id_names_the_path_and_line(tmp_path):
    # evictions, annotation records and the oracle's noise name a bundle by its id
    path = tmp_path / "bundles.jsonl"
    path.write_text('{"id": 0, "core": 1, "members": [1, 2]}\n{"id": 1, "core": 3, "members": [3, 4]}\n'
                    '{"id": 0, "core": 5, "members": [5, 6]}\n')
    with pytest.raises(FormatError) as exc:
        load_bundles(path)
    assert str(exc.value) == f"{path}:3: bundle id 0 repeats an earlier bundle's"


_GOOD_BUNDLE = '{"id": 0, "core": 1, "members": [1, 2]}'


@pytest.mark.parametrize("line, message", [
    ('{"id": 1, "core": 4, "members": [4, 5]', "invalid record: Expecting ',' delimiter"),
    ('{"id": 1, "core": 4}', "record has no members"),
    ('{"core": 4, "members": [4, 5]}', "record has no id"),
    ('{"id": 1, "members": [4, 5]}', "record has no core"),
    ('[1, 4, [4, 5]]', "record is not a JSON object"),
    ('{"id": 1, "core": 4, "members": [4, 4]}', "invalid bundle: bundle members must be distinct"),
    ('{"id": 1, "core": 4, "members": 4}', "members 4 is not a list"),
    # a value that is not a JSON integer is refused, not truncated or cast
    ('{"id": 1.7, "core": 4, "members": [4, 5]}', "id 1.7 is not an integer"),
    ('{"id": true, "core": 4, "members": [4, 5]}', "id True is not an integer"),
    ('{"id": 1, "core": 4.9, "members": [4, 5]}', "core 4.9 is not an integer"),
    ('{"id": 1, "core": 4, "members": [4.2, 5.5]}', "member 4.2 is not an integer"),
    ('{"id": 1, "core": 0, "members": "012"}', "members '012' is not a list"),
    ('{"id": 1, "core": 4, "members": [4, 5], "label": true}', "label True is not an integer"),
    ('{"id": 1, "core": 4, "members": [4, 5], "label": "1"}', "label '1' is not an integer"),
    ('{"id": 1, "core": 4, "members": [4, 5], "evicted": {}}', "evicted {} is not a list"),
    ('{"id": 1, "core": 4, "members": [4, 5], "evicted": [[1.5, 6]]}', "evicted entry 1.5 is not an integer"),
], ids=["bad-json", "no-members", "no-id", "no-core", "not-an-object", "duplicate-members", "members-not-a-list",
        "float-id", "bool-id", "float-core", "float-members", "string-members", "bool-label", "string-label",
        "evicted-not-a-list", "float-eviction-epoch"])
def test_a_line_that_is_not_a_bundle_names_the_path_and_line(tmp_path, line, message):
    path = tmp_path / "bundles.jsonl"
    path.write_text(f"{_GOOD_BUNDLE}\n\n{line}\n{_GOOD_BUNDLE}\n")
    with pytest.raises(FormatError) as exc:
        load_bundles(path)
    assert str(exc.value).startswith(f"{path}:3: {message}")
