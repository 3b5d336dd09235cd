import json
from collections import Counter

import numpy as np
import pytest
from helpers import crossing_risk, frame_features, row, run_protocol
from hypothesis import assume, given, settings, strategies as st

from crossrisk import maneuver
from crossrisk.errors import InputError
from crossrisk.maneuver import (
    DIRECTION_FEATURE_INDEX,
    ForestConfig,
    MANEUVER_CODES,
    _nearest_neighbors,
    build_feature_table,
    classification_scores,
    evaluate_classifier,
    feature_rows,
    load_forest,
    majority_params,
    save_forest,
    smote_oversample,
    split_indices,
    train_forest,
    train_random_forest,
)
from crossrisk.trajectory import (
    DIRECTION_CODES,
    Dataset,
    Direction,
    Maneuver,
    ObjectClass,
    Trajectory,
)


def make_clusters(n_per_class=(60, 60, 60), seed=0, spread=0.4):
    """Well-separated 5-feature clusters, one per maneuver class."""
    rng = np.random.default_rng(seed)
    centers = [
        np.array([-6.0, 0.0, 5.0, 0.6]),
        np.array([6.0, 0.0, 5.0, 0.6]),
        np.array([0.0, 8.0, 11.0, 0.0]),
    ]
    rows, labels = [], []
    for cls, (n, c) in enumerate(zip(n_per_class, centers)):
        pts = c[None, :] + spread * rng.normal(size=(n, 4))
        dirs = rng.integers(0, 4, size=n).astype(float)
        rows.append(np.column_stack([pts, dirs]))
        labels.append(np.full(n, cls))
    return np.vstack(rows), np.concatenate(labels).astype(int)


def reference_proba(model, X):
    """Scalar walk of each row down each tree, leaf counts normalized in place."""
    out = np.zeros((len(X), 3))
    for r, row in enumerate(np.asarray(X, dtype=float)):
        for tree in model.trees:
            node = 0
            while tree.left[node] != -1:
                go_left = row[tree.feature[node]] <= tree.threshold[node]
                node = tree.left[node] if go_left else tree.right[node]
            out[r] += tree.counts[node] / tree.counts[node].sum()
    return out / len(model.trees)


def tied_table(seed, n, n_features):
    """Small-integer features (many ties) and random labels of 2-3 classes."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 4, size=(n, n_features)).astype(float)
    y = rng.integers(0, 3, size=n)
    return X, y


def reference_neighbors(sub, k):
    """Full-matrix kNN the blocked search replaced: the first ``k`` columns of
    a stable argsort of every squared distance, self excluded."""
    d2 = (np.sum(sub * sub, axis=1)[:, None] + np.sum(sub * sub, axis=1)[None, :]
          - 2.0 * (sub @ sub.T))
    np.fill_diagonal(d2, np.inf)
    return np.argsort(d2, axis=1, kind="stable")[:, :k]


def reference_smote(X, y, k, seed, categorical=(DIRECTION_FEATURE_INDEX,)):
    """Row-at-a-time oversampler on the full-matrix kNN, as it stood before
    the blocked search and the vectorized interpolation."""
    rng = np.random.default_rng(seed)
    cont = [j for j in range(X.shape[1]) if j not in set(categorical)]
    counts = Counter(y.tolist())
    majority = max(counts.values())
    new_rows, new_labels = [], []
    for cls in sorted(counts):
        need = majority - counts[cls]
        if need == 0:
            continue
        rows = X[y == cls]
        if len(rows) == 1:
            new_rows += [rows[0].copy() for _ in range(need)]
            new_labels += [cls] * need
            continue
        k_eff = max(1, min(k, len(rows) - 1))
        neighbor_idx = reference_neighbors(rows[:, cont], k_eff)
        for _ in range(need):
            s = int(rng.integers(len(rows)))
            nn = int(neighbor_idx[s, int(rng.integers(k_eff))])
            u = rng.random()
            row = rows[s].copy()
            row[cont] = rows[s][cont] + u * (rows[nn][cont] - rows[s][cont])
            new_rows.append(row)
            new_labels.append(cls)
    if not new_rows:
        return X.copy(), y.copy()
    return (np.vstack([X, np.asarray(new_rows)]),
            np.concatenate([y, np.asarray(new_labels, dtype=int)]))


@st.composite
def smote_tables(draw):
    """Class sizes 1-40 over 1-3 classes; 5 features whose continuous columns
    are small integers (exact distance ties) or bounded floats."""
    sizes = draw(st.lists(st.integers(1, 40), min_size=1, max_size=3))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    if draw(st.booleans()):
        cont = rng.integers(-2, 3, size=(n, 4)).astype(float)
    else:
        cont = rng.uniform(-50.0, 50.0, size=(n, 4))
    X = np.column_stack([cont, rng.integers(0, 4, size=n).astype(float)])
    y = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    return X, y


def _features(*fields, codes=0):
    """Feature rows of the one point row ``fields``, once per code."""
    n = len(codes) if isinstance(codes, list) else 1
    return feature_rows(np.array([row(*fields)] * n), codes)


class TestFeatures:
    def test_speed_is_magnitude(self):
        assert _features(0.0, 1.0, 2.0, 3.0, 4.0, 0.2).tolist() == [[1.0, 2.0, 5.0, 0.2, 0.0]]

    def test_stationary_speed_zero(self):
        assert _features(0.0, 1.0, 2.0, 0.0, 0.0, 0.0)[0, 2] == 0.0

    def test_direction_codes(self):
        codes = [DIRECTION_CODES[d] for d in (Direction.N, Direction.E, Direction.S, Direction.W)]
        f = _features(0.0, 0.0, 0.0, 1.0, 0.0, 0.0, codes=codes)
        assert f[:, DIRECTION_FEATURE_INDEX].tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_table_equals_the_per_vehicle_features(self):
        # the one gathered build against per-vehicle rows whose speed comes
        # from Trajectory.speed: invalid rows, NaN yaw rates, unlabeled and
        # row-less vehicles, pedestrians
        rng = np.random.default_rng(3)
        trajs = []
        for k in range(12):
            pts = rng.normal(size=(int(rng.integers(1, 30)), 6)) * 7.0
            pts[:, 0] = np.arange(len(pts)) * 0.1
            pts[rng.random(len(pts)) < 0.2, 1 + int(rng.integers(4))] = np.nan
            pts[rng.random(len(pts)) < 0.2, 5] = np.nan
            labels = ((list(Direction)[k % 4], list(Maneuver)[k % 4]) if k % 5 else (None, None))
            trajs.append(Trajectory(id=f"v{k}", object_class=ObjectClass.VEHICLE, points=pts,
                                    entering_direction=labels[0], maneuver=labels[1]))
        trajs.append(Trajectory(id="p", object_class=ObjectClass.PEDESTRIAN, points=pts))
        X, y, groups = build_feature_table(Dataset(trajectories=trajs))
        want_X, want_y, want_g = [], [], []
        for g, traj in enumerate(trajs[:-1]):
            if traj.entering_direction is None or traj.maneuver not in MANEUVER_CODES:
                continue
            rows = np.flatnonzero(traj.valid & np.isfinite(traj.yaw_rate))
            want_X.append(frame_features(traj, rows, traj.entering_direction))
            want_y += [MANEUVER_CODES[traj.maneuver]] * len(rows)
            want_g += [g] * len(rows)
        assert X.tobytes() == np.concatenate(want_X).tobytes() and X.shape[1] == 5
        assert y.tolist() == want_y and groups.tolist() == want_g
        assert {int(c) for c in X[:, 4]} == {0, 1, 2, 3} - {DIRECTION_CODES[Direction.W]}


class TestSmote:
    def test_balances_to_majority(self):
        X, y = make_clusters((100, 40, 60))
        bx, by = smote_oversample(X, y, seed=1)
        counts = np.bincount(by)
        assert counts.tolist() == [100, 100, 100]

    def test_majority_rows_untouched_and_originals_kept(self):
        X, y = make_clusters((50, 20, 30))
        bx, by = smote_oversample(X, y, seed=2)
        assert np.array_equal(bx[: len(X)], X)
        assert np.array_equal(by[: len(y)], y)

    def test_synthetic_rows_interpolate_parents(self):
        X, y = make_clusters((80, 30, 80), seed=3)
        bx, by = smote_oversample(X, y, k=5, seed=3)
        new_rows = bx[len(X):]
        new_labels = by[len(y):]
        originals = X[y == 1]
        lo = originals.min(axis=0)
        hi = originals.max(axis=0)
        cont = [j for j in range(X.shape[1]) if j != DIRECTION_FEATURE_INDEX]
        for row, lab in zip(new_rows, new_labels):
            assert lab == 1
            for j in cont:  # interpolation stays inside the class's bounding box
                assert lo[j] - 1e-9 <= row[j] <= hi[j] + 1e-9
            assert row[DIRECTION_FEATURE_INDEX] in {0.0, 1.0, 2.0, 3.0}

    def test_balanced_input_is_identity(self):
        X, y = make_clusters((40, 40, 40))
        bx, by = smote_oversample(X, y, seed=4)
        assert np.array_equal(bx, X) and np.array_equal(by, y)

    def test_singleton_class_duplicated(self):
        X = np.array([[0.0, 0, 0, 0, 0], [1.0, 0, 0, 0, 1],
                      [1.1, 0, 0, 0, 1], [0.9, 0, 0, 0, 1]])
        y = np.array([0, 1, 1, 1])
        bx, by = smote_oversample(X, y, seed=5)
        assert np.bincount(by).tolist() == [3, 3]
        assert np.array_equal(bx[by == 0], np.repeat(X[:1], 3, axis=0))

    @settings(max_examples=60, deadline=None)
    @given(smote_tables(), st.integers(1, 6), st.integers(0, 1000))
    def test_blocked_equals_full_matrix_reference(self, table, k, seed):
        X, y = table
        cont = [j for j in range(X.shape[1]) if j != DIRECTION_FEATURE_INDEX]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(maneuver, "_KNN_BLOCK_ROWS", 3)  # many block edges
            for cls in np.unique(y):
                sub = X[y == cls][:, cont]
                if len(sub) > 1:
                    k_eff = min(k, len(sub) - 1)
                    assert np.array_equal(_nearest_neighbors(sub, k_eff),
                                          reference_neighbors(sub, k_eff))
            bx, by = smote_oversample(X, y, k=k, seed=seed)
        ref_x, ref_y = reference_smote(X, y, k, seed)
        assert bx.tobytes() == ref_x.tobytes() and bx.shape == ref_x.shape
        assert np.array_equal(by, ref_y) and by.dtype == ref_y.dtype

    @settings(max_examples=60, deadline=None)
    @given(smote_tables(), st.integers(1, 6), st.data())
    def test_row_subset_search_equals_full_search(self, table, k, data):
        X, y = table
        cont = [j for j in range(X.shape[1]) if j != DIRECTION_FEATURE_INDEX]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(maneuver, "_KNN_BLOCK_ROWS", 3)  # many block edges
            for cls in np.unique(y):
                sub = X[y == cls][:, cont]
                copies = data.draw(st.lists(st.integers(0, len(sub) - 1), max_size=4))
                sub = np.vstack([sub, sub[copies]])  # duplicate rows tie at distance 0
                if len(sub) < 2:
                    continue
                k_eff = min(k, len(sub) - 1)
                full = _nearest_neighbors(sub, k_eff)
                picked = data.draw(st.lists(st.integers(0, len(sub) - 1), min_size=1,
                                            unique=True))
                subsets = [[r] for r in range(len(sub))] + [list(range(len(sub))),
                                                             sorted(picked)]
                for rows in subsets:
                    assert np.array_equal(_nearest_neighbors(sub, k_eff, np.array(rows)),
                                          full[rows])

    @pytest.mark.parametrize("integer_valued", [True, False])
    def test_neighbors_across_default_blocks(self, integer_valued):
        rng = np.random.default_rng(8)
        sub = rng.uniform(-20.0, 20.0, size=(700, 4))  # three 256-row blocks
        if integer_valued:
            sub = np.round(sub / 5.0)
        assert np.array_equal(_nearest_neighbors(sub, 5), reference_neighbors(sub, 5))

    def test_empty_table_is_input_error(self):
        with pytest.raises(InputError):
            smote_oversample(np.zeros((0, 5)), np.zeros(0, dtype=int))

    def test_deterministic_under_seed(self):
        X, y = make_clusters((70, 30, 50))
        a = smote_oversample(X, y, seed=6)
        b = smote_oversample(X, y, seed=6)
        assert np.array_equal(a[0], b[0])
        c = smote_oversample(X, y, seed=7)
        assert not np.array_equal(a[0], c[0])


class TestForest:
    def test_separable_data_learns(self):
        X, y = make_clusters()
        model = train_forest(X, y, n_trees=40, seed=0)
        assert evaluate_classifier(model, X, y)[2].mean() >= 0.99

    def test_grid_search_reaches_high_f1(self):
        X, y = make_clusters((90, 60, 90), seed=1)
        rng = np.random.default_rng(0)
        idx = rng.permutation(len(y))
        tr, va = idx[:180], idx[180:]
        model, params = train_random_forest(
            (X[tr], y[tr]), (X[va], y[va]),
            grid=[(n, d) for n in (20, 40) for d in (None, 10)], seed=0,
        )
        assert evaluate_classifier(model, X[va], y[va])[2].mean() >= 0.95
        assert params in [(n, d) for n in (20, 40) for d in (None, 10)]

    def test_single_class_train_raises(self):
        X = np.zeros((10, 5))
        y = np.zeros(10, dtype=int)
        with pytest.raises(InputError):
            train_forest(X, y, n_trees=5)

    def test_empty_split_raises(self):
        with pytest.raises(ValueError):
            train_forest(np.zeros((0, 5)), np.zeros(0, dtype=int), n_trees=5)

    def test_same_seed_same_model(self):
        X, y = make_clusters((30, 30, 30))
        q = X[::7]
        a = train_forest(X, y, n_trees=15, seed=9).predict_proba(q)
        b = train_forest(X, y, n_trees=15, seed=9).predict_proba(q)
        assert np.array_equal(a, b)

    def test_probability_rows_sum_to_one(self):
        X, y = make_clusters((40, 40, 40), seed=2)
        model = train_forest(X, y, n_trees=25, seed=1)
        rng = np.random.default_rng(0)
        queries = rng.uniform(-10, 15, size=(1000, 5))
        probs = model.predict_proba(queries)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert (probs >= 0).all()

    def test_average_invariant_to_tree_order(self):
        X, y = make_clusters((30, 30, 30), seed=3)
        model = train_forest(X, y, n_trees=12, seed=2)
        q = X[::5]
        before = model.predict_proba(q)
        model.trees = list(reversed(model.trees))
        assert np.allclose(model.predict_proba(q), before, atol=1e-12)

    def test_unanimous_vote_is_certain(self):
        X, y = make_clusters((50, 50, 50), seed=4)
        model = train_forest(X, y, n_trees=30, seed=3)
        deep_inside = np.array([0.0, 8.0, 11.0, 0.0, 1.0])  # straight center
        p_left, p_right, p_straight = model.predict_proba(deep_inside[None, :])[0]
        assert p_straight == 1.0
        assert p_left == 0.0 and p_right == 0.0

    def test_cluster_membership_reflected_in_argmax(self):
        X, y = make_clusters((60, 60, 60), seed=5)
        model = train_forest(X, y, n_trees=30, seed=4)
        p_left, p_right, p_straight = model.predict_proba(
            np.array([[-6.0, 0.0, 5.0, 0.6, 2.0]]))[0]
        assert p_left == max(p_left, p_right, p_straight)

    def test_persistence_roundtrip(self, tmp_path):
        X, y = make_clusters((30, 30, 30), seed=6)
        model = train_forest(X, y, n_trees=10, seed=5)
        path = tmp_path / "forest.json"
        save_forest(model, path)
        back = load_forest(path)
        q = X[::4]
        assert np.array_equal(back.predict_proba(q), model.predict_proba(q))
        for a, b in zip(model.trees, back.trees):
            assert (a.feature, a.threshold, a.left, a.right) == (b.feature, b.threshold,
                                                                 b.left, b.right)
            assert np.array_equal(a.counts, b.counts)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 60), st.sampled_from([None, 1, 3]),
           st.integers(1, 6))
    def test_predict_matches_scalar_reference(self, seed, n, max_depth, n_trees):
        X, y = tied_table(seed, n, 5)
        assume(np.unique(y).size > 1)
        model = train_forest(X, y, n_trees=n_trees, max_depth=max_depth, seed=seed)
        q = np.vstack([X, np.random.default_rng(seed).uniform(-1, 5, size=(7, 5))])
        assert np.array_equal(model.predict_proba(q), reference_proba(model, q))
        assert np.array_equal(model.predict_proba(q[:1]), reference_proba(model, q[:1]))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 60), st.integers(1, 7))
    def test_unbounded_trees_on_distinct_rows_vote_whole_trees(self, seed, n, n_trees):
        # distinct rows can always be split apart, so every leaf is pure and
        # each tree casts one whole vote
        X, y = tied_table(seed, n, 3)
        X, first = np.unique(X, axis=0, return_index=True)
        y = y[first]
        assume(np.unique(y).size > 1)
        probs = train_forest(X, y, n_trees=n_trees, seed=seed).predict_proba(X)
        votes = probs * n_trees
        assert np.array_equal(votes, np.round(votes))
        assert np.array_equal(probs, np.round(votes) / n_trees)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 60), st.sampled_from([None, 1, 3]),
           st.integers(1, 6))
    def test_normalized_rows_are_maneuver_distributions(self, seed, n, max_depth, n_trees):
        # the risk stage mixes per-maneuver risks under these rows
        X, y = tied_table(seed, n, 5)
        assume(np.unique(y).size > 1)
        model = train_forest(X, y, n_trees=n_trees, max_depth=max_depth, seed=seed)
        q = np.vstack([X, np.random.default_rng(seed).uniform(-1, 5, size=(7, 5))])
        probs = model.predict_proba(q)
        probs = probs / probs.sum(axis=1, keepdims=True)
        assert probs.shape == (len(q), 3)
        assert ((probs >= 0.0) & (probs <= 1.0)).all()
        assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-9


def grown_nodes(X, y, max_depth, seed, small_rows, depth=0, mtry=2):
    """Nodes ``_grow_tree`` appends for (X, y) with nodes of at most
    ``small_rows`` rows grown on lists, and the feature-draw generator's state
    afterwards."""
    rng = np.random.default_rng(seed)
    nodes = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(maneuver, "_SMALL_NODE_ROWS", small_rows)
        maneuver._grow_tree(X, y, depth, max_depth, mtry, rng, nodes)
    for f, t, *_ in nodes:
        assert type(f) is int and type(t) is float
    return ([(f, t, left, right, [int(c) for c in counts])
             for f, t, left, right, counts in nodes], rng.bit_generator.state)


def node_table(seed, n, constant_sampled):
    """A tied table; with ``constant_sampled`` every feature but the last is
    constant, so most feature draws fall back to all features."""
    X, y = tied_table(seed, n, 5)
    if constant_sampled:
        X[:, :4] = 1.0
    return X, y


class TestSmallNodeGrower:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 90), st.booleans(),
           st.lists(st.integers(0, 4), min_size=1, max_size=5, unique=True))
    def test_list_split_matches_numpy_split(self, seed, n, constant_sampled, features):
        X, y = node_table(seed, n, constant_sampled)
        features = sorted(features)
        want = maneuver._best_split(X, y, features)
        got = maneuver._list_best_split(X.tolist(), y.tolist(), features)
        assert got == want
        if got is not None:
            assert type(got[1]) is int and type(got[2]) is float

    def test_ties_keep_the_first_cut_of_the_first_feature(self):
        # cuts 0|123 and 012|3 tie, on two identical columns
        X = np.repeat(np.arange(4.0)[:, None], 2, axis=1)
        y = np.array([0, 1, 1, 0])
        split = maneuver._list_best_split(X.tolist(), y.tolist(), [0, 1])
        assert split == maneuver._best_split(X, y, [0, 1])
        assert split[1:] == (0, 0.5)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 90), st.sampled_from([None, 1, 2, 4]),
           st.integers(0, 3), st.booleans())
    def test_list_grower_matches_numpy_grower(self, seed, n, max_depth, depth,
                                              constant_sampled):
        # a start depth at or past max_depth makes the root a capped leaf
        X, y = node_table(seed, n, constant_sampled)
        want = grown_nodes(X, y, max_depth, seed, small_rows=0, depth=depth)
        assert grown_nodes(X, y, max_depth, seed, small_rows=10**9, depth=depth) == want
        assert grown_nodes(X, y, max_depth, seed, small_rows=n // 3, depth=depth) == want

    @pytest.mark.parametrize("small_rows", [0, 10**9])
    def test_single_class_node_is_a_leaf(self, small_rows):
        X = np.arange(20.0).reshape(10, 2)
        nodes, _ = grown_nodes(X, np.full(10, 2), None, 0, small_rows, mtry=1)
        assert nodes == [(-1, 0.0, -1, -1, [0, 0, 10])]

    @pytest.mark.parametrize("small_rows", [0, 10**9])
    def test_depth_cap_at_the_boundary(self, small_rows):
        X, y = tied_table(4, 40, 5)
        assert len(grown_nodes(X, y, 2, 4, small_rows, depth=2)[0]) == 1
        nodes, _ = grown_nodes(X, y, 2, 4, small_rows, depth=1)
        assert nodes[0][2] != -1  # split once, and both children are leaves
        assert [left for _, _, left, _, _ in nodes[1:]] == [-1] * (len(nodes) - 1)

    def test_constant_sampled_features_fall_back_to_all(self):
        X, y = node_table(1, 30, constant_sampled=True)
        for small_rows in (0, 10**9):
            nodes, _ = grown_nodes(X, y, None, 1, small_rows)
            assert {f for f, *_ in nodes if f != -1} == {4}

    @pytest.mark.parametrize("small_rows", [0, 10**9])
    def test_forest_file_bytes_do_not_depend_on_the_threshold(self, tmp_path,
                                                             monkeypatch, small_rows):
        X, y = make_clusters((70, 40, 60), seed=7, spread=2.5)
        X[:, :2] = np.round(X[:, :2])  # ties
        save_forest(train_forest(X, y, n_trees=4, seed=3), tmp_path / "default.json")
        monkeypatch.setattr(maneuver, "_SMALL_NODE_ROWS", small_rows)
        save_forest(train_forest(X, y, n_trees=4, seed=3), tmp_path / "forced.json")
        assert (tmp_path / "forced.json").read_bytes() == (tmp_path / "default.json").read_bytes()


class TestTreePrefixes:
    @pytest.mark.parametrize("seed", [0, 1, 12345])
    def test_tree_seed_draw_is_prefix_consistent(self, seed):
        draw = lambda n: np.random.default_rng(seed).integers(0, 2**63 - 1, size=n)
        assert np.array_equal(draw(300)[:100], draw(100))
        assert np.array_equal(draw(7)[:1], draw(1))

    @pytest.mark.parametrize("grid", [
        [(3, None), (7, None), (3, 2), (7, 2)],
        [(7, 2), (3, None), (7, None), (3, 2)],
    ])
    def test_chosen_forest_is_the_direct_fit(self, tmp_path, grid):
        X, y = make_clusters((50, 30, 45), seed=9, spread=2.0)
        rng = np.random.default_rng(1)
        idx = rng.permutation(len(y))
        tr, va = idx[:90], idx[90:]
        model, params = train_random_forest((X[tr], y[tr]), (X[va], y[va]), grid, seed=4)
        # the search as it was: one forest per grid point, in grid order
        best = None
        for p in grid:
            f1 = evaluate_classifier(
                train_forest(X[tr], y[tr], n_trees=p[0], max_depth=p[1], seed=4),
                X[va], y[va])[2].mean()
            if best is None or f1 > best[0] or (f1 == best[0] and maneuver._size_key(p)
                                                < maneuver._size_key(best[1])):
                best = (f1, p)
        assert params == best[1]
        save_forest(model, tmp_path / "chosen.json")
        save_forest(train_forest(X[tr], y[tr], n_trees=params[0], max_depth=params[1],
                                 seed=4), tmp_path / "direct.json")
        assert (tmp_path / "chosen.json").read_bytes() == (tmp_path / "direct.json").read_bytes()

    def test_each_depth_grows_its_largest_size_once(self, monkeypatch):
        X, y = make_clusters((30, 30, 30), seed=2)
        calls = []
        fit = maneuver.train_forest

        def spy(*args, **kwargs):
            calls.append((kwargs["n_trees"], kwargs["max_depth"]))
            return fit(*args, **kwargs)

        monkeypatch.setattr(maneuver, "train_forest", spy)
        train_random_forest((X, y), (X, y), [(2, None), (5, None), (2, 3), (5, 3)], seed=0)
        assert calls == [(5, None), (5, 3)]


def _forest_payload(tmp_path):
    X, y = make_clusters((20, 20, 20), seed=11)
    path = tmp_path / "forest.json"
    save_forest(train_forest(X, y, n_trees=2, max_depth=3, seed=0), path)
    return json.loads(path.read_text())


def _set(key, value, tree=0):
    def mutate(payload):
        payload["trees"][tree][key] = value
    return mutate


def _set_at(key, node, value):
    def mutate(payload):
        payload["trees"][0][key][node] = value
    return mutate


def _first_leaf(payload):
    return payload["trees"][0]["left"].index(-1)


def _two_classes(payload):
    """A consistent two-class file: ``n_classes`` 2 and two-column counts."""
    payload["n_classes"] = 2
    for tree in payload["trees"]:
        tree["counts"] = [[left, right + straight] for left, right, straight in tree["counts"]]


class TestForestFile:
    @pytest.mark.parametrize("mutate", [
        pytest.param(lambda p: p.update(version=1), id="v1-file"),
        pytest.param(lambda p: p.update(version=3), id="unknown-version"),
        pytest.param(lambda p: p["trees"][0]["threshold"].pop(), id="arrays-differ-in-length"),
        pytest.param(lambda p: p["trees"][0].update(
            feature=[], threshold=[], left=[], right=[], counts=[]), id="empty-tree"),
        pytest.param(lambda p: p["trees"][0].update(
            left=[len(p["trees"][0]["left"])] + p["trees"][0]["left"][1:]),
            id="child-out-of-range"),
        pytest.param(_set_at("right", 0, 0), id="child-not-after-parent"),
        pytest.param(_set_at("left", 0, -2), id="negative-child"),
        pytest.param(_set_at("feature", 0, 5), id="feature-too-large"),
        pytest.param(_set_at("feature", 0, -1), id="internal-feature-negative"),
        pytest.param(_set_at("threshold", 0, float("nan")), id="threshold-nan"),
        pytest.param(_set_at("threshold", 0, float("inf")), id="threshold-inf"),
        pytest.param(lambda p: p["trees"][0]["counts"][_first_leaf(p)].__setitem__(0, -1),
                     id="negative-count"),
        pytest.param(lambda p: p["trees"][0]["counts"].__setitem__(
            _first_leaf(p), [0, 0, 0]), id="counts-sum-to-zero"),
        pytest.param(lambda p: p["trees"][0]["counts"][_first_leaf(p)].append(1),
                     id="count-row-too-wide"),
        pytest.param(lambda p: p.update(n_classes=2), id="count-rows-not-n-classes-wide"),
        pytest.param(_two_classes, id="two-classes-with-two-column-counts"),
        pytest.param(lambda p: p.update(n_features=6), id="six-features"),
        pytest.param(_set_at("left", 0, 1.5), id="fractional-child"),
        pytest.param(lambda p: p["trees"][0].pop("counts"), id="missing-array"),
        pytest.param(lambda p: p.update(trees=[]), id="no-trees"),
    ])
    def test_loader_rejects(self, tmp_path, mutate):
        payload = _forest_payload(tmp_path)
        mutate(payload)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(InputError) as exc:
            load_forest(path)
        assert str(path) in str(exc.value)

    def test_v1_file_asks_for_retraining(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"version": 1, "trees": []}))
        with pytest.raises(InputError, match="crossrisk train"):
            load_forest(path)

    def test_non_object_file_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[]")
        with pytest.raises(InputError):
            load_forest(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "cut.json"
        path.write_text('{"version": 2, "trees": [')
        with pytest.raises(InputError):
            load_forest(path)

    def test_unmutated_payload_loads(self, tmp_path):
        path = tmp_path / "good.json"
        path.write_text(json.dumps(_forest_payload(tmp_path)))
        assert load_forest(path).predict_proba(np.zeros((2, 5))).shape == (2, 3)


class TestManeuverDistribution:
    # the risk stage checks each frame's maneuver probabilities before mixing
    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            crossing_risk((None, None, 10), probs=(0.5, 0.5, 0.5))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            crossing_risk((None, None, 10), probs=(-0.1, 0.6, 0.5))


def reference_scores(y_true, y_pred):
    """The per-class loop the score table replaced: column ``c`` holds class
    ``c``'s precision, recall and F1, each 0 where its denominator is 0."""
    out = np.zeros((3, 3))
    for c in range(3):
        tp = int(np.sum((y_pred == c) & (y_true == c)))
        fp = int(np.sum((y_pred == c) & (y_true != c)))
        fn = int(np.sum((y_pred != c) & (y_true == c)))
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        out[:, c] = precision, recall, f1
    return out


@st.composite
def label_pairs(draw):
    """True and predicted labels of length 1-60 over a subset of the three
    classes (absent classes), with predictions that are random, all right or
    all wrong."""
    classes = draw(st.sampled_from([[0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2]]))
    n = draw(st.integers(1, 60))
    y_true = np.array(draw(st.lists(st.sampled_from(classes), min_size=n, max_size=n)))
    kind = draw(st.sampled_from(["random", "right", "wrong"]))
    if kind == "random":
        y_pred = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    elif kind == "right":
        y_pred = y_true.copy()
    else:
        y_pred = (y_true + draw(st.integers(1, 2))) % 3
    return y_true, y_pred


class TestMetrics:
    def test_perfect_predictions(self):
        y = np.array([0, 1, 2, 0, 1, 2])
        scores = classification_scores(y, y)
        assert scores.shape == (3, 3)
        assert (scores == 1.0).all()

    def test_all_wrong_two_class_predictions(self):
        y_true = np.array([0, 0, 1, 1])
        y_pred = np.array([1, 1, 0, 0])
        assert (classification_scores(y_true, y_pred) == 0.0).all()

    def test_hand_computed_six_sample_case(self):
        # confusion worked out by hand:
        # class0: tp=1 fp=1 fn=1 -> p=0.5 r=0.5 f1=0.5
        # class1: tp=2 fp=1 fn=0 -> p=2/3 r=1.0 f1=0.8
        # class2: tp=1 fp=0 fn=1 -> p=1.0 r=0.5 f1=2/3
        y_true = np.array([0, 0, 1, 1, 2, 2])
        y_pred = np.array([0, 1, 1, 1, 2, 0])
        precision, recall, f1 = classification_scores(y_true, y_pred)
        assert precision[0] == pytest.approx(0.5)
        assert f1[0] == pytest.approx(0.5)
        assert precision[1] == pytest.approx(2 / 3)
        assert recall[1] == pytest.approx(1.0)
        assert f1[1] == pytest.approx(0.8)
        assert precision[2] == pytest.approx(1.0)
        assert f1[2] == pytest.approx(2 / 3)
        assert f1.mean() == pytest.approx((0.5 + 0.8 + 2 / 3) / 3)

    def test_unseen_class_scores_zero_not_crashed(self):
        y_true = np.array([0, 0, 1])
        y_pred = np.array([0, 0, 1])
        scores = classification_scores(y_true, y_pred)
        assert scores[:, 2].tolist() == [0.0, 0.0, 0.0]
        assert (scores[:, :2] == 1.0).all()

    def test_empty_split_raises(self):
        with pytest.raises(ValueError, match="empty split"):
            classification_scores(np.zeros(0, dtype=int), np.zeros(0, dtype=int))

    @settings(max_examples=200, deadline=None)
    @given(label_pairs())
    def test_table_equals_per_class_reference(self, labels):
        y_true, y_pred = labels
        assert classification_scores(y_true, y_pred).tobytes() == \
            reference_scores(y_true, y_pred).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(label_pairs(), min_size=1, max_size=12))
    def test_split_mean_and_std_equal_per_metric_reference(self, splits):
        # the train report's mean and F1 spread over splits, as the stacked
        # tables give them and as the per-metric lists gave them
        stacked = np.stack([classification_scores(t, p) for t, p in splits])
        refs = [reference_scores(t, p) for t, p in splits]
        for row in range(3):
            want_mean = np.mean([r[row] for r in refs], axis=0)
            want_std = np.std([r[row] for r in refs], axis=0)
            assert np.mean(stacked, axis=0)[row].tobytes() == want_mean.tobytes()
            assert np.std(stacked, axis=0)[row].tobytes() == want_std.tobytes()


class TestSplitProtocol:
    def test_imbalanced_separable_protocol(self):
        X, y = make_clusters((240, 60, 60), seed=8)
        scores, chosen = run_protocol(
            X, y, ForestConfig(n_trees_grid=(25,), max_depth_grid=(None,), n_splits=4))
        assert scores.shape == (4, 3, 3) and chosen == [(25, None)] * 4
        assert (scores[:, 2].mean(axis=0) >= 0.9).all()
        assert (scores[:, 2].std(axis=0) < 0.1).all()

    def test_group_split_keeps_groups_together(self):
        X, y = make_clusters((40, 40, 40), seed=9)
        groups = np.repeat(np.arange(30), 4)
        rng = np.random.default_rng(0)
        tr, va, te = split_indices(len(y), (0.8, 0.1, 0.1), rng, groups)
        assert set(groups[tr]) & set(groups[va]) == set()
        assert set(groups[tr]) & set(groups[te]) == set()
        assert len(tr) + len(va) + len(te) == len(y)

    def test_too_few_rows_is_input_error(self):
        X, y = make_clusters((2, 2, 1), seed=11)
        with pytest.raises(InputError, match="empty partition"):
            run_protocol(X, y, ForestConfig(n_splits=1))

    @pytest.mark.parametrize("chosen,want", [
        ([(100, 10), (300, None), (300, None), (100, 10)], (100, 10)),
        ([(300, None), (100, 10), (100, 10), (300, None)], (300, None)),
        ([(300, None), (100, 10), (100, 10)], (100, 10)),
    ], ids=["tie-first-wins", "tie-other-first", "strict-majority"])
    def test_majority_params_tie_goes_to_first_chosen(self, chosen, want):
        assert majority_params(chosen) == want

    def test_deterministic(self):
        X, y = make_clusters((60, 25, 25), seed=10)
        cfg = ForestConfig(n_trees_grid=(15,), max_depth_grid=(10,), n_splits=3, seed=2)
        a, a_chosen = run_protocol(X, y, cfg)
        b, b_chosen = run_protocol(X, y, cfg)
        assert np.array_equal(a, b) and a_chosen == b_chosen
