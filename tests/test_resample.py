import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import make_matrix
from delayboost import resample
from delayboost.errors import InvalidPercentError, MinorityTooSmallError
from delayboost.resample import (
    SmoteConfig,
    SmoteTrace,
    random_smote,
    random_smote_with_trace,
    synthesize_point,
)

TRACE_FIELDS = ("seed_row", "first", "second", "t", "u")


def reference_smote(fm, cfg):
    """SMOTE one minority row at a time: draws and arithmetic in one loop.

    The straightforward form of the RNG contract that `random_smote_with_trace`
    must reproduce bit for bit.  Returns (values, labels, trace).
    """
    k = cfg.k
    minority_label = resample._minority_label(fm.labels)
    minority_idx = np.flatnonzero(fm.labels == minority_label)
    m = minority_idx.size
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    minority = fm.values[minority_idx]

    synth = np.empty((m * k, fm.values.shape[1]), dtype=np.float64)
    seed_rows = np.empty(m * k, dtype=np.int64)
    firsts = np.empty(m * k, dtype=np.int64)
    seconds = np.empty(m * k, dtype=np.int64)
    ts = np.empty(m * k)
    us = np.empty(m * k)

    row = 0
    for pos in range(m):
        a = resample._draw_excluding(rng, m, pos)
        b = resample._draw_excluding(rng, m, pos)
        while b == a:
            b = resample._draw_excluding(rng, m, pos)
        draws = rng.random(2 * k).reshape(k, 2)
        t, u = draws[:, 0], draws[:, 1]
        x_i, x_a, x_b = minority[pos], minority[a], minority[b]
        y = x_a + t[:, None] * (x_b - x_a)
        synth[row : row + k] = x_i + u[:, None] * (y - x_i)
        seed_rows[row : row + k] = minority_idx[pos]
        firsts[row : row + k] = minority_idx[a]
        seconds[row : row + k] = minority_idx[b]
        ts[row : row + k] = t
        us[row : row + k] = u
        row += k

    values = np.vstack([fm.values, synth])
    labels = np.concatenate([fm.labels, np.full(m * k, minority_label, dtype=np.int64)])
    trace = SmoteTrace(seed_row=seed_rows, first=firsts, second=seconds, t=ts, u=us)
    return values, labels, trace


def reference_draws(seed, m, k):
    """The contract's draws, one minority row at a time, with each irregular row's cause.

    Returns (firsts, seconds, draws, irregular, end_state).  `irregular` maps
    a row to its (rejections, redraws): the index draws' Lemire rejections
    (32-bit halves read beyond one per draw, counted from the generator's
    state, not from the rejection rule) and the times b was drawn again
    because it equalled a.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    bg = rng.bit_generator
    probe = np.random.PCG64(0)

    def draw(pos):
        before = bg.state
        c = resample._draw_excluding(rng, m, pos)
        after = bg.state
        probe.state, words = before, 0
        while probe.state["state"] != after["state"]:
            assert words < 8, "one index draw read 8 words"
            probe.advance(1)
            words += 1
        return c, 2 * words + before["has_uint32"] - after["has_uint32"] - 1

    firsts = np.empty(m, dtype=np.int64)
    seconds = np.empty(m, dtype=np.int64)
    draws = np.empty((m, 2 * k))
    irregular = {}
    for pos in range(m):
        a, rejected_a = draw(pos)
        b, rejected_b = draw(pos)
        rejections, redraws = rejected_a + rejected_b, 0
        while b == a:
            b, rejected_b = draw(pos)
            rejections, redraws = rejections + rejected_b, redraws + 1
        if rejections or redraws:
            irregular[pos] = (rejections, redraws)
        firsts[pos], seconds[pos] = a, b
        draws[pos] = rng.random(2 * k)
    return firsts, seconds, draws, irregular, bg.state


def imbalanced(n_min=5, n_maj=12, n_features=3, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_min + n_maj, n_features))
    y = np.array([1] * n_min + [0] * n_maj)
    return make_matrix(X, y)


class TestConfig:
    def test_k_formula(self):
        assert SmoteConfig(200).k == 2
        assert SmoteConfig(100).k == 1
        assert SmoteConfig(0).k == 0

    def test_rejects_non_multiples(self):
        with pytest.raises(InvalidPercentError):
            SmoteConfig(150)
        with pytest.raises(InvalidPercentError):
            SmoteConfig(-100)


class TestCounts:
    def test_count_identity_k2(self):
        fm = imbalanced(n_min=5, n_maj=12)
        out = random_smote(fm, SmoteConfig(200, seed=1))
        assert int(out.labels.sum()) == 5 * 3
        assert out.n_rows == 17 + 10

    def test_percent_100_doubles_minority(self):
        fm = imbalanced(n_min=7, n_maj=20)
        out = random_smote(fm, SmoteConfig(100, seed=1))
        assert int(out.labels.sum()) == 14

    def test_majority_bit_identical_and_order_preserved(self):
        fm = imbalanced()
        out = random_smote(fm, SmoteConfig(300, seed=5))
        assert np.array_equal(out.values[: fm.n_rows], fm.values)
        assert np.array_equal(out.labels[: fm.n_rows], fm.labels)

    def test_minority_too_small(self):
        fm = imbalanced(n_min=2, n_maj=10)
        with pytest.raises(MinorityTooSmallError):
            random_smote(fm, SmoteConfig(100, seed=0))

    def test_zero_percent_returns_the_input(self):
        # Strategy 1: no minority check and no draw, so fewer than 3 minority rows pass
        for n_min in (5, 1, 0):
            fm = imbalanced(n_min=n_min)
            assert random_smote(fm, SmoteConfig(0)) is fm
            out, trace = random_smote_with_trace(fm, SmoteConfig(0, seed=3))
            assert out is fm
            assert all(getattr(trace, name).size == 0 for name in TRACE_FIELDS)
        assert SmoteConfig(0).strategy == "Strategy 1"
        assert SmoteConfig(100).strategy == "Strategy 2"

    def test_minority_is_smaller_class_even_when_label_zero(self):
        fm = imbalanced(n_min=4, n_maj=9)
        flipped = make_matrix(fm.values, 1 - fm.labels)
        out = random_smote(flipped, SmoteConfig(100, seed=2))
        # label 0 was the smaller class, so its count doubles
        assert int((out.labels == 0).sum()) == 8
        assert int((out.labels == 1).sum()) == 9


class TestGeometry:
    def test_interpolation_endpoint(self):
        x_i = np.array([0.0, 0.0])
        x_a = np.array([2.0, 1.0])
        x_b = np.array([5.0, -3.0])
        z = synthesize_point(x_i, x_a, x_b, t=0.0, u=1.0)
        assert np.array_equal(z, x_a)

    def test_seed_instance_endpoint(self):
        x_i = np.array([7.0, 7.0])
        z = synthesize_point(x_i, np.array([1.0, 2.0]), np.array([3.0, 4.0]), t=0.7, u=0.0)
        assert np.array_equal(z, x_i)

    def test_synthetic_points_in_triangle(self):
        fm = imbalanced(n_min=30, n_maj=50, n_features=4, seed=3)
        out, trace = random_smote_with_trace(fm, SmoteConfig(200, seed=9))
        synth = out.values[fm.n_rows:]
        assert np.all((trace.t >= 0.0) & (trace.t <= 1.0))
        assert np.all((trace.u >= 0.0) & (trace.u <= 1.0))
        for r in range(synth.shape[0]):
            xi = fm.values[trace.seed_row[r]]
            xa = fm.values[trace.first[r]]
            xb = fm.values[trace.second[r]]
            w_i = 1.0 - trace.u[r]
            w_a = trace.u[r] * (1.0 - trace.t[r])
            w_b = trace.u[r] * trace.t[r]
            assert w_i >= 0 and w_a >= 0 and w_b >= 0
            assert w_i + w_a + w_b == pytest.approx(1.0, abs=1e-12)
            combo = w_i * xi + w_a * xa + w_b * xb
            assert np.all(np.abs(synth[r] - combo) <= 1e-9)
            lo = np.minimum(np.minimum(xi, xa), xb) - 1e-9
            hi = np.maximum(np.maximum(xi, xa), xb) + 1e-9
            assert np.all(synth[r] >= lo) and np.all(synth[r] <= hi)

    def test_sources_are_distinct_minority_rows(self):
        fm = imbalanced(n_min=10, n_maj=15, seed=2)
        _, trace = random_smote_with_trace(fm, SmoteConfig(100, seed=4))
        minority = set(np.flatnonzero(fm.labels == 1))
        for r in range(trace.t.size):
            i, a, b = trace.seed_row[r], trace.first[r], trace.second[r]
            assert {i, a, b} <= minority
            assert a != i and b != i and a != b


class TestDeterminism:
    def test_same_config_same_output(self):
        fm = imbalanced(n_min=8, n_maj=20, seed=6)
        out1 = random_smote(fm, SmoteConfig(200, seed=11))
        out2 = random_smote(fm, SmoteConfig(200, seed=11))
        assert np.array_equal(out1.values, out2.values)
        assert np.array_equal(out1.labels, out2.labels)

    def test_seed_changes_output(self):
        fm = imbalanced(n_min=8, n_maj=20, seed=6)
        out1 = random_smote(fm, SmoteConfig(200, seed=11))
        out2 = random_smote(fm, SmoteConfig(200, seed=12))
        assert not np.array_equal(out1.values, out2.values)

    def test_synthetic_labels_are_minority(self):
        fm = imbalanced(n_min=5, n_maj=9)
        out = random_smote(fm, SmoteConfig(400, seed=0))
        assert np.all(out.labels[fm.n_rows:] == 1)


@st.composite
def _smote_inputs(draw):
    n_min = draw(st.integers(3, 10))
    n_maj = draw(st.integers(n_min, n_min + 10))
    d = draw(st.integers(1, 4))
    X = draw(arrays(np.float64, (n_min + n_maj, d), elements=st.floats(-1e6, 1e6)))
    minority_label = draw(st.integers(0, 1))
    y = np.array([minority_label] * n_min + [1 - minority_label] * n_maj)
    y = y[draw(st.permutations(range(y.size)))]
    percent = draw(st.sampled_from([100, 200, 300, 400]))
    return make_matrix(X, y), SmoteConfig(percent, seed=draw(st.integers(0, 2**32 - 1)))


class TestGeometryProperty:
    @settings(max_examples=60, deadline=None)
    @given(_smote_inputs())
    def test_every_synthetic_row_is_its_trace_interpolation(self, inputs):
        fm, cfg = inputs
        out, trace = random_smote_with_trace(fm, cfg)
        synth = out.values[fm.n_rows:]
        assert synth.shape[0] == trace.t.size
        for r in range(synth.shape[0]):
            xi, xa, xb = (fm.values[i] for i in (trace.seed_row[r], trace.first[r],
                                                 trace.second[r]))
            t, u = trace.t[r], trace.u[r]
            assert synth[r].tobytes() == synthesize_point(xi, xa, xb, t, u).tobytes()
            weights = np.array([1.0 - u, u * (1.0 - t), u * t])
            assert np.all((weights >= 0.0) & (weights <= 1.0))
            assert weights.sum() == pytest.approx(1.0, abs=4 * np.finfo(float).eps)
            # the affine combination, up to the rounding of the two interpolations
            # (relative to the points' size, absolute among subnormals)
            combo = weights @ np.vstack([xi, xa, xb])
            scale = np.abs(xi) + np.abs(xa) + np.abs(xb)
            tol = 16 * (np.finfo(float).eps * scale + np.finfo(float).smallest_subnormal)
            assert np.all(np.abs(synth[r] - combo) <= tol)


@st.composite
def _reference_inputs(draw):
    n_min = draw(st.integers(3, 12))
    n_maj = draw(st.integers(n_min, n_min + 12))
    d = draw(st.integers(1, 5))
    tied = draw(st.booleans())
    element = st.integers(-2, 2).map(float) if tied else st.floats(-1e6, 1e6)
    X = draw(arrays(np.float64, (n_min + n_maj, d), elements=element))
    minority_label = draw(st.integers(0, 1))
    y = np.array([minority_label] * n_min + [1 - minority_label] * n_maj)
    y = y[draw(st.permutations(range(y.size)))]
    cfg = SmoteConfig(100 * draw(st.integers(1, 4)), seed=draw(st.integers(0, 2**32 - 1)))
    return make_matrix(X, y), cfg


class TestReferenceProperty:
    @settings(max_examples=150, deadline=None)
    @given(_reference_inputs())
    def test_equals_the_row_at_a_time_loop(self, inputs):
        fm, cfg = inputs
        out, trace = random_smote_with_trace(fm, cfg)
        values, labels, expected = reference_smote(fm, cfg)
        assert out.plan is fm.plan and out.column_names == fm.plan.output_names
        assert out.values.flags.f_contiguous
        assert out.values.shape == values.shape
        assert out.values.tobytes() == values.tobytes()
        assert out.labels.dtype == labels.dtype and out.labels.tobytes() == labels.tobytes()
        for name in TRACE_FIELDS:
            got, want = getattr(trace, name), getattr(expected, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name

    def test_three_minority_rows_redraw_b(self, monkeypatch):
        # With m = 3, b equals a half the time, so b is redrawn.
        fm = imbalanced(n_min=3, n_maj=5, n_features=2, seed=4)
        cfg = SmoteConfig(400, seed=2)
        calls = []
        draw = resample._draw_excluding
        monkeypatch.setattr(resample, "_draw_excluding",
                            lambda *args: calls.append(args) or draw(*args))
        out, trace = random_smote_with_trace(fm, cfg)
        monkeypatch.undo()
        assert len(calls) > 2 * 3
        values, labels, expected = reference_smote(fm, cfg)
        assert out.values.tobytes() == values.tobytes()
        for name in TRACE_FIELDS:
            assert getattr(trace, name).tobytes() == getattr(expected, name).tobytes()


def assert_matches_reference(fm, cfg):
    out, trace = random_smote_with_trace(fm, cfg)
    values, labels, expected = reference_smote(fm, cfg)
    assert out.values.tobytes() == values.tobytes()
    assert out.labels.tobytes() == labels.tobytes()
    for name in TRACE_FIELDS:
        got, want = getattr(trace, name), getattr(expected, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


class TestRawWordDraws:
    """`_draws` reads PCG64's raw words a chunk at a time; these reach its irregular rows."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("m", [3, 4, 5, 7, 50, 1000])
    def test_equals_the_row_at_a_time_draws(self, m, k):
        for seed in range(4):
            rng = np.random.Generator(np.random.PCG64(seed))
            got = resample._draws(rng, m, k)
            *want, _, end_state = reference_draws(seed, m, k)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
            assert rng.bit_generator.state == end_state

    def test_chunks_after_a_redraw_read_the_cached_half(self):
        # Seed 0 redraws b once in the first chunk, which leaves PCG64 holding a
        # 32-bit half.  The next chunk is whole and takes every a from a cached
        # half; the chunk after it starts from the half written back.
        chunk, m, k = resample._CHUNK_ROWS, 20000, 2
        cfg = SmoteConfig(100 * k, seed=0)
        *_, irregular, _ = reference_draws(cfg.seed, m, k)
        first, *later = sorted(irregular)
        assert first < chunk and irregular[first] == (0, 1)
        assert first + chunk + 1 < min(later + [m])
        assert_matches_reference(imbalanced(n_min=m, n_maj=m, n_features=1), cfg)

    def test_lemire_rejection(self):
        # At m = 59,723 the rejection bound (2**32 - (m-1)) % (m-1) is 59,666,
        # so about one index draw in 72,000 is rejected.
        m = 59723
        cfg = SmoteConfig(100, seed=0)
        *_, irregular, _ = reference_draws(cfg.seed, m, cfg.k)
        assert any(rejections for rejections, _ in irregular.values())
        assert_matches_reference(imbalanced(n_min=m, n_maj=m, n_features=1), cfg)
