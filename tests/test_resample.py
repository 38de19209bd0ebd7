import hashlib

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
    """SMOTE one minority row at a time: `reference_draws`, then the arithmetic.

    The straightforward form of the contract that `random_smote_with_trace`
    must reproduce bit for bit.  Returns (values, labels, trace).
    """
    k = cfg.k
    minority_label = resample._minority_label(fm.labels)
    minority_idx = np.flatnonzero(fm.labels == minority_label)
    m = minority_idx.size
    row_firsts, row_seconds, row_draws, *_ = reference_draws(cfg.seed, m, k)
    minority = fm.values[minority_idx]

    synth = np.empty((m * k, fm.values.shape[1]), dtype=np.float64)
    seed_rows = np.empty(m * k, dtype=np.int64)
    firsts = np.empty(m * k, dtype=np.int64)
    seconds = np.empty(m * k, dtype=np.int64)
    ts = np.empty(m * k)
    us = np.empty(m * k)

    row = 0
    for pos in range(m):
        a, b = row_firsts[pos], row_seconds[pos]
        draws = row_draws[pos].reshape(k, 2)
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
    """The RNG contract, one minority row at a time, in plain Python ints.

    PCG64(seed) gives one block of m * (1 + 2k) raw words, a row of 1 + 2k
    per minority row.  A row's a and b are Lemire draws from the low and high
    halves of its first word, each skipping the row's position; its t and u
    are its other words over 2**64, to 53 bits.  An irregular row (a half
    rejected, or a == b) tries the next word after the block, then the next,
    until its pair is regular.

    Returns (firsts, seconds, draws, irregular, end_state).  `irregular` maps
    each irregular row to the causes of its failed tries, in order:
    "rejected" or "a == b".
    """
    bg = np.random.PCG64(seed)
    span, width = m - 1, 1 + 2 * k
    bound = (2**32 - span) % span
    block = bg.random_raw(m * width).tolist()

    def pair(word, pos):
        """(a, b), or why the word gives no pair."""
        products = [half * span for half in (word % 2**32, word // 2**32)]
        if any(p % 2**32 < bound for p in products):
            return "rejected"
        a, b = (p // 2**32 + (p // 2**32 >= pos) for p in products)
        return "a == b" if a == b else (a, b)

    firsts, seconds, draws, irregular = [], [], [], {}
    for pos in range(m):
        row = block[pos * width : (pos + 1) * width]
        got = pair(row[0], pos)
        while isinstance(got, str):
            irregular.setdefault(pos, []).append(got)
            got = pair(bg.random_raw(), pos)
        firsts.append(got[0])
        seconds.append(got[1])
        draws.append([(word // 2**11) / 2**53 for word in row[1:]])
    return (np.array(firsts, dtype=np.int64), np.array(seconds, dtype=np.int64),
            np.array(draws).reshape(m, 2 * k), irregular, bg.state)


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

    def test_three_minority_rows_redraw_b(self):
        # With m = 3, a equals b half the time, so rows take words after the block.
        fm = imbalanced(n_min=3, n_maj=5, n_features=2, seed=4)
        cfg = SmoteConfig(400, seed=2)
        *_, irregular, _ = reference_draws(cfg.seed, 3, cfg.k)
        assert "a == b" in sum(irregular.values(), [])
        assert_matches_reference(fm, cfg)


def assert_matches_reference(fm, cfg):
    out, trace = random_smote_with_trace(fm, cfg)
    values, labels, expected = reference_smote(fm, cfg)
    assert out.values.tobytes() == values.tobytes()
    assert out.labels.tobytes() == labels.tobytes()
    for name in TRACE_FIELDS:
        got, want = getattr(trace, name), getattr(expected, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


def draws_digest(seed, m, k):
    """SHA-256 of `_draws`' (firsts, seconds, draws), little-endian, in that order."""
    digest = hashlib.sha256()
    for a in resample._draws(np.random.PCG64(seed), m, k):
        digest.update(a.astype(a.dtype.newbyteorder("<")).tobytes())
    return digest.hexdigest()


class TestRawWordDraws:
    """`_draws` reads one block of PCG64's raw words, then one word per retried pair."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("m", [3, 4, 5, 7, 50, 1000])
    def test_equals_the_row_at_a_time_draws(self, m, k):
        for seed in range(4):
            bg = np.random.PCG64(seed)
            got = resample._draws(bg, m, k)
            *want, _, end_state = reference_draws(seed, m, k)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
            assert bg.state == end_state

    def test_lemire_rejection(self):
        # At m = 59,723 the rejection bound (2**32 - (m-1)) % (m-1) is 59,666,
        # so about one index draw in 72,000 is rejected.
        m = 59723
        cfg = SmoteConfig(100, seed=0)
        *_, irregular, _ = reference_draws(cfg.seed, m, cfg.k)
        assert "rejected" in sum(irregular.values(), [])
        assert_matches_reference(imbalanced(n_min=m, n_maj=m, n_features=1), cfg)

    def test_pairs_of_hand_made_words(self):
        # m = 4: span 3 and rejection bound 2**32 % 3 = 1, so a half is rejected
        # only when half * 3 ends in 32 zero bits (half 0); 3 * 0xAAAAAAAB ends in 1.
        words = np.array([
            0xC0000000_00000000,  # low half rejected
            0x00000000_C0000000,  # high half rejected
            0x80000000_80000000,  # a == b
            0xC0000000_40000000,  # c = 0 and 2; 2 skips position 1
            0xC0000000_40000000,  # c = 0 and 2, below position 3
            0x40000000_AAAAAAAB,  # c = 2 and 0, low half just at the bound
            0xAAAAAAAB_40000000,  # c = 0 and 2, high half just at the bound
        ], dtype=np.uint64)
        a, b, irregular = resample._pairs(words, np.array([1, 1, 1, 1, 3, 0, 0]), 3)
        assert irregular.tolist() == [True] * 3 + [False] * 4
        assert a[3:].tolist() == [0, 0, 3, 1] and b[3:].tolist() == [3, 2, 1, 3]

    def test_three_rows_are_irregular_half_the_time(self):
        # span 2: nothing is rejected, and each c is the top bit of its half
        words = np.random.PCG64(0).random_raw(10000)
        a, b, irregular = resample._pairs(words, 1, 2)
        assert np.array_equal(irregular, (words >> 31) % 2 == words >> 63)
        assert 0.48 < irregular.mean() < 0.52
        assert set(a[~irregular].tolist()) == set(b[~irregular].tolist()) == {0, 2}

    def test_positions_are_uniform(self):
        # Every (row, a, b) with a, b and the row distinct, over 20,000 fixed seeds
        # at m = 5: chi-square on 5 * (12 - 1) = 55 degrees of freedom stays below
        # 93.2, its 0.999 quantile.
        m, seeds = 5, 20000
        counts = np.zeros((m, m, m), dtype=np.int64)
        for seed in range(seeds):
            firsts, seconds, _ = resample._draws(np.random.PCG64(seed), m, 1)
            counts[np.arange(m), firsts, seconds] += 1
        pos, a, b = np.indices(counts.shape)
        valid = (a != pos) & (b != pos) & (a != b)
        assert counts[~valid].sum() == 0
        expected = seeds / ((m - 1) * (m - 2))
        assert ((counts[valid] - expected) ** 2 / expected).sum() < 93.2

    @pytest.mark.parametrize("seed, m, k, digest", [
        (0, 3, 2, "acd8eed52852678d0698e4fb110f8415528ae6f507f549b8725b7335d68cafb5"),
        (1, 5, 1, "9b1db90421b66fc8ab681374fa20c234510970a5c8daa2229058bd8b2ad703a9"),
        (2, 1000, 3, "b296570044a9dc891841ce792e1343513109efcbc9d878ddcd12314ea55206c8"),
        (0, 59723, 1, "60d4e881f3911d5f784aafcffdbf0ab66666696d52fcf8dfd01be6ad623d1003"),
    ])
    def test_golden_digests(self, seed, m, k, digest):
        # The contract is stated on raw words, which NEP 19 keeps stable, so these
        # bytes must not change with the NumPy version.
        assert draws_digest(seed, m, k) == digest
