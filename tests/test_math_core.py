"""Numeric primitives: validation, factorizations, features, stacked
client rows and their minibatches."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedunroll.errors import (
    DimensionMismatch,
    EmptyData,
    NonFiniteInput,
    NotPD,
)
from fedunroll.math_core import (
    EPS,
    as_matrix,
    as_vector,
    chol_solve,
    clamp_positive,
    design_matrix,
    minibatch_layout,
    minibatch_rows,
    rectify,
    spd_cholesky,
    stack_rows,
)
from fedunroll.unrolled_net import client_stats, forward_network, init_params

from conftest import make_shards, make_uneven_shards


class TestValidation:
    def test_as_vector_accepts_list(self):
        v = as_vector([1, 2, 3], "v")
        assert v.dtype == np.float64
        assert v.shape == (3,)

    def test_as_vector_rejects_nan(self):
        with pytest.raises(NonFiniteInput):
            as_vector([1.0, np.nan], "v")

    def test_as_vector_rejects_inf(self):
        with pytest.raises(NonFiniteInput):
            as_vector([np.inf, 0.0], "v")

    def test_as_vector_rejects_matrix(self):
        with pytest.raises(DimensionMismatch):
            as_vector(np.zeros((2, 2)), "v")

    def test_as_matrix_rejects_vector(self):
        with pytest.raises(DimensionMismatch):
            as_matrix(np.zeros(3), "A")

    def test_as_matrix_rejects_nonfinite(self):
        with pytest.raises(NonFiniteInput):
            as_matrix([[1.0, np.inf]], "A")


class TestRectifierAndClamp:
    def test_rectify_negative_is_zero(self):
        assert rectify(np.array([-1.0]))[0] == 0.0

    def test_rectify_positive_passes(self):
        assert rectify(np.array([2.5]))[0] == 2.5

    def test_rectify_elementwise(self):
        out = rectify(np.array([-3.0, 0.0, 0.5]))
        assert np.array_equal(out, np.array([0.0, 0.0, 0.5]))

    def test_clamp_floor(self):
        out = clamp_positive(np.array([-5.0, 0.0, 1e-9, 2.0]))
        assert np.array_equal(out, np.array([EPS, EPS, EPS, 2.0]))

    def test_clamp_scalar(self):
        assert float(clamp_positive(0.5)) == 0.5
        assert float(clamp_positive(-0.5)) == EPS


class TestCholesky:
    def test_rejects_asymmetric(self):
        A = np.array([[2.0, 1.0], [0.0, 2.0]])
        with pytest.raises(NotPD):
            spd_cholesky(A)

    def test_rejects_indefinite(self):
        A = np.array([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(NotPD):
            spd_cholesky(A)

    def test_factor_reconstructs(self):
        rng = np.random.default_rng(0)
        B = rng.normal(size=(4, 4))
        A = B @ B.T + 4.0 * np.eye(4)
        L = spd_cholesky(A)
        assert np.allclose(L @ L.T, A, atol=1e-12)
        assert np.allclose(np.triu(L, 1), 0.0)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 1000))
    def test_solve_recovers_solution(self, k, seed):
        rng = np.random.default_rng(seed)
        B = rng.normal(size=(k, k))
        A = B @ B.T + k * np.eye(k)
        x = rng.normal(size=k)
        got = chol_solve(spd_cholesky(A), A @ x)
        assert np.allclose(got, x, atol=1e-8)

    def test_chol_solve_matches_direct(self):
        rng = np.random.default_rng(3)
        B = rng.normal(size=(5, 5))
        A = B @ B.T + 5 * np.eye(5)
        b = rng.normal(size=5)
        L = spd_cholesky(A)
        assert np.allclose(chol_solve(L, b), np.linalg.solve(A, b), atol=1e-10)

    def test_stacked_factor_and_solve_match_each_matrix_bitwise(self):
        rng = np.random.default_rng(4)
        B = rng.normal(size=(6, 4, 4))
        A = B @ np.swapaxes(B, 1, 2) + 4.0 * np.eye(4)
        b = rng.normal(size=(6, 4))
        L = spd_cholesky(A)
        x = chol_solve(L, b)
        for i in range(6):
            assert np.array_equal(L[i], spd_cholesky(A[i]))
            assert np.array_equal(x[i], chol_solve(L[i], b[i]))

    def test_stacked_rejects_one_bad_matrix(self):
        A = np.stack([np.eye(2), np.array([[1.0, 0.0], [0.0, -1.0]])])
        with pytest.raises(NotPD):
            spd_cholesky(A)
        A[1] = [[2.0, 1.0], [0.0, 2.0]]
        with pytest.raises(NotPD):
            spd_cholesky(A)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["diagonal", "strict_upper", "one_of_a_stack"])
    # an infinite diagonal entry makes inf - inf in the asymmetry, which
    # numpy reports before the error is raised
    @pytest.mark.filterwarnings("ignore:invalid value encountered in subtract:RuntimeWarning")
    def test_non_finite_entry_raises_non_finite_not_notpd(self, bad, where):
        # the strict upper triangle is never read by LAPACK's factorization
        A = _spd_stack(3, 4, seed=5)
        if where == "diagonal":
            A = A[0]
            A[1, 1] = bad
        elif where == "strict_upper":
            A = A[0]
            A[0, 2] = bad
        else:
            A[1, 2, 3] = bad
        with pytest.raises(NonFiniteInput):
            spd_cholesky(A)

    @pytest.mark.parametrize("size", [0.5, 1e6])
    def test_symmetry_tolerance_is_relative_to_max_one_and_largest_entry(self, size):
        A = size * np.array([[1.0, 0.5], [0.5, 1.0]])
        tol = 1e-12 * max(1.0, size)
        inside, outside = A.copy(), A.copy()
        inside[0, 1] += 0.5 * tol
        outside[0, 1] += 2.0 * tol
        assert np.array_equal(spd_cholesky(inside), np.linalg.cholesky(inside))
        with pytest.raises(NotPD, match="not symmetric"):
            spd_cholesky(outside)
        # each matrix of a stack is held to its own scale
        small = np.eye(2)
        small[0, 1] += 2e-12
        with pytest.raises(NotPD, match="not symmetric"):
            spd_cholesky(np.stack([inside, small]))

    def test_malformed_shapes_raise(self):
        with pytest.raises(DimensionMismatch):
            spd_cholesky(np.ones(3))
        with pytest.raises(DimensionMismatch):
            spd_cholesky(np.ones((2, 3)))
        with pytest.raises(DimensionMismatch):
            spd_cholesky(np.ones((4, 2, 3)))
        with pytest.raises(EmptyData):
            spd_cholesky(np.ones((0, 0)))

    def test_checks_raise_in_order(self):
        # shape before emptiness, non-finite before asymmetry, asymmetry
        # before the pivot
        with pytest.raises(DimensionMismatch):
            spd_cholesky(np.ones((0, 1)))
        both = np.array([[np.nan, 1.0], [0.0, -1.0]])
        with pytest.raises(NonFiniteInput):
            spd_cholesky(both)
        indefinite_and_asymmetric = np.array([[1.0, 2.0], [0.0, -1.0]])
        with pytest.raises(NotPD, match="not symmetric"):
            spd_cholesky(indefinite_and_asymmetric)

    def test_factor_is_lapack_factor_bitwise(self):
        A = _spd_stack(5, 4, seed=6)
        assert np.array_equal(spd_cholesky(A), np.linalg.cholesky(A))
        assert np.array_equal(spd_cholesky(A[2]), np.linalg.cholesky(A[2]))


def _spd_stack(m: int, k: int, seed: int) -> np.ndarray:
    """m random symmetric positive definite k x k matrices, [m, k, k]."""
    B = np.random.default_rng(seed).normal(size=(m, k, k))
    return B @ np.swapaxes(B, 1, 2) + k * np.eye(k)


def _checked_cholesky_oracle(A: np.ndarray) -> np.ndarray:
    """spd_cholesky's checks without the exact-symmetry guard: both
    reductions on every call, then the factorization."""
    A = np.asarray(A, dtype=np.float64)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise DimensionMismatch(f"spd_cholesky: matrix must be square, got {A.shape}")
    if A.shape[-1] < 1:
        raise EmptyData("spd_cholesky: needs at least one row and one column")
    scale = np.maximum.reduce(np.abs(A), axis=(-2, -1), initial=1.0)
    asym = np.maximum.reduce(A - A.swapaxes(-1, -2), axis=(-2, -1))
    ok = (asym <= 1e-12 * scale) & (scale < np.inf)
    if np.count_nonzero(ok) != ok.size:
        if not np.isfinite(scale).all():
            raise NonFiniteInput("spd_cholesky: contains non-finite entries")
        raise NotPD("spd_cholesky: matrix is not symmetric")
    try:
        return np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise NotPD(f"spd_cholesky: {exc}") from exc


# What one matrix of a generated stack carries: nothing, asymmetry
# within or beyond the tolerance, a non-finite diagonal entry, one
# non-finite off-diagonal entry (upper or lower), a mirrored off-diagonal
# pair of non-finite entries, -0.0 mirrored by +0.0, or a negative pivot.
_DEFECTS = (
    "none", "asym_within", "asym_beyond",
    "nan_diag", "inf_diag", "-inf_diag",
    "nan_upper", "inf_lower", "-inf_upper",
    "nan_nan_pair", "inf_inf_pair", "inf_-inf_pair", "nan_inf_pair",
    "signed_zero_pair", "indefinite",
)


def _with_defect(A: np.ndarray, defect: str, rng: np.random.Generator) -> np.ndarray:
    """A copy of the exactly symmetric k x k matrix A (k >= 2) carrying `defect`."""
    A = A.copy()
    k = A.shape[0]
    i, j = sorted(rng.choice(k, size=2, replace=False))  # i < j: (i, j) upper, (j, i) lower
    d = int(rng.integers(k))
    tol = 1e-12 * max(1.0, np.abs(A).max())
    if defect == "asym_within":
        A[i, j] += 0.5 * tol
    elif defect == "asym_beyond":
        A[j, i] += 2.0 * tol
    elif defect.endswith("_diag"):
        A[d, d] = float(defect[:-5])
    elif defect.endswith(("_upper", "_lower")):
        A[(i, j) if defect.endswith("_upper") else (j, i)] = float(defect.split("_")[0])
    elif defect.endswith("_pair") and defect != "signed_zero_pair":
        upper, lower = defect[:-5].split("_")
        A[i, j], A[j, i] = float(upper), float(lower)
    elif defect == "signed_zero_pair":
        A[j, i], A[i, j] = -0.0, 0.0
    elif defect == "indefinite":
        A[d, d] = -A[d, d]
    return A


class TestCholeskyGuard:
    """spd_cholesky, which skips its reductions when A - A' is exactly
    zero, against the checks it ran before on every call: the same
    exception class and message, or the same factor bit for bit."""

    @staticmethod
    def _outcome(fn, A):
        try:
            L = fn(A)
        except (DimensionMismatch, EmptyData, NonFiniteInput, NotPD) as exc:
            return type(exc), str(exc)
        return L.shape, L.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(2, 5),
        st.lists(st.sampled_from(_DEFECTS), min_size=1, max_size=4),
        st.sampled_from([1e-3, 1.0, 1e6]),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    # inf - inf in A - A' makes numpy warn before the error is raised
    @pytest.mark.filterwarnings("ignore:invalid value encountered in subtract:RuntimeWarning")
    def test_matches_the_unguarded_checks(self, k, defects, size, single, seed):
        rng = np.random.default_rng(seed)
        S = size * _spd_stack(len(defects), k, seed)
        S = S + np.swapaxes(S, 1, 2)  # a + b == b + a, so S is exactly symmetric
        A = np.stack([_with_defect(S[n], defect, rng) for n, defect in enumerate(defects)])
        if single:
            A = A[0]
        assert self._outcome(spd_cholesky, A) == self._outcome(_checked_cholesky_oracle, A)

    @pytest.mark.filterwarnings("ignore:invalid value encountered in subtract:RuntimeWarning")
    @pytest.mark.parametrize("defect", _DEFECTS)
    def test_each_defect_alone_and_in_a_stack(self, defect):
        rng = np.random.default_rng(9)
        S = _spd_stack(3, 4, seed=8)
        S = S + np.swapaxes(S, 1, 2)
        for A in (_with_defect(S[0], defect, rng),
                  np.stack([S[0], _with_defect(S[1], defect, rng), S[2]])):
            got = self._outcome(spd_cholesky, A)
            assert got == self._outcome(_checked_cholesky_oracle, A)
            if defect in ("none", "asym_within", "signed_zero_pair"):
                assert got[0] == A.shape  # factored
            elif defect == "indefinite" or defect.startswith("asym"):
                assert got[0] is NotPD
            else:
                assert got[0] is NonFiniteInput

    def test_the_v_solve_matrices_are_exactly_symmetric(self):
        # linear mode factors G + rho I, so its calls skip the reductions
        G = client_stats(make_uneven_shards([3, 17, 40], seed=2)).gram
        A = G + np.array([0.3, 1.0, 7.5])[:, None, None] * np.eye(4)
        assert np.count_nonzero(A - np.swapaxes(A, 1, 2)) == 0

    def test_signed_zero_mirror_factors_like_lapack(self):
        A = np.array([[4.0, 0.0, 1.0], [-0.0, 9.0, 0.0], [1.0, -0.0, 16.0]])
        assert np.linalg.cholesky(A).tobytes() == spd_cholesky(A).tobytes()


class TestDesignMatrix:
    def test_rows_are_monomials(self):
        xs = np.array([-0.5, 0.0, 2.0])
        D = design_matrix(xs, 3)
        for i, x in enumerate(xs):
            assert np.array_equal(D[i], np.array([1.0, x, x * x, x * x * x]))


class TestRowStack:
    def test_clients_of_different_sizes_match_per_client_losses(self):
        rng = np.random.default_rng(5)
        Xs = [rng.normal(size=(n, 3)) for n in (4, 9, 1)]
        Ys = [rng.normal(size=X.shape[0]) for X in Xs]
        V = rng.normal(size=(3, 3))
        rows = stack_rows(Xs, Ys)
        assert rows.counts.tolist() == [4, 9, 1]
        sse = rows.sse(V)
        xtr = rows.xt(rows.residuals(V))
        for i in range(3):
            r = Xs[i] @ V[i] - Ys[i]
            assert abs(sse[i] - r @ r) <= 1e-13 * max(1.0, r @ r)
            assert np.allclose(xtr[i], Xs[i].T @ r, rtol=0, atol=1e-13)

    def test_clients_of_equal_size_match_per_client_products_bitwise(self):
        rng = np.random.default_rng(6)
        Xs = [rng.normal(size=(50, 4)) for _ in range(5)]
        Ys = [rng.normal(size=50) for _ in range(5)]
        V = rng.normal(size=(5, 4))
        rows = stack_rows(Xs, Ys)
        sse, gram, xty = rows.sse(V), rows.gram(), rows.xt(rows.Y)
        for i in range(5):
            r = Xs[i] @ V[i] - Ys[i]
            assert sse[i] == r @ r
            assert np.array_equal(gram[i], Xs[i].T @ Xs[i])
            assert np.array_equal(xty[i], Xs[i].T @ Ys[i])

    def test_one_client_sse_matches_manual_and_vanishes_on_exact_fit(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(7, 3))
        v = rng.normal(size=3)
        Y = rng.normal(size=7)
        r = X @ v - Y
        assert abs(stack_rows([X], [Y]).sse(v[None])[0] - float(np.sum(r * r))) < 1e-14
        assert stack_rows([X], [X @ v]).sse(v[None])[0] == 0.0

    def test_rejects_bad_rows_and_models(self):
        with pytest.raises(DimensionMismatch):
            stack_rows([np.zeros((2, 3)), np.zeros((2, 4))], [np.zeros(2), np.zeros(2)])
        with pytest.raises(DimensionMismatch):
            stack_rows([np.zeros((2, 3))], [np.zeros(3)])
        with pytest.raises(EmptyData):
            stack_rows([np.zeros((2, 3)), np.zeros((0, 3))], [np.zeros(2), np.zeros(0)])
        with pytest.raises(NonFiniteInput):
            stack_rows([np.zeros((2, 3))], [np.array([0.0, np.nan])])
        rows = stack_rows([np.ones((2, 3))], [np.zeros(2)])
        with pytest.raises(DimensionMismatch):
            rows.sse(np.zeros((2, 3)))
        with pytest.raises(NonFiniteInput):
            rows.sse(np.full((1, 3), np.inf))


def _rows_of(shards):
    return stack_rows([sh.X_train for sh in shards], [sh.Y_train for sh in shards])


def _indexed_rows(ns, seed):
    """Rows of shards with `ns` rows whose column 0 (the intercept) is
    replaced by each row's index in its shard."""
    shards = make_uneven_shards(ns, seed=seed)
    return stack_rows(
        [np.column_stack([np.arange(sh.X_train.shape[0]), sh.X_train[:, 1:]]) for sh in shards],
        [sh.Y_train for sh in shards],
    )


def _drawn(b, i):
    """Client i's row indices in a batch of indexed rows, in batch order."""
    return b.X[i, :b.counts[i], 0].astype(int)


class TestMinibatchRows:
    def test_no_batch_where_the_size_covers_the_shard(self):
        rows = _indexed_rows([30, 6, 12], seed=1)
        for size in (None, 30, 31):
            assert minibatch_rows(rows, size, np.random.default_rng(0)) is rows
        b = minibatch_rows(rows, 12, np.random.default_rng(0))
        assert b.counts.tolist() == [12, 6, 12]
        # the clients the size covers keep all their rows, in order
        assert np.array_equal(_drawn(b, 1), np.arange(6))
        assert np.array_equal(_drawn(b, 2), np.arange(12))

    def test_batch_rows_are_the_drawn_rows_with_zero_padding(self):
        rows = _indexed_rows([30, 6, 12], seed=2)
        b = minibatch_rows(rows, 8, np.random.default_rng(2))
        assert b.X.shape == (3, 8, 4)
        assert b.counts.tolist() == [8, 6, 8]
        for i in range(3):
            n, sel = b.counts[i], _drawn(b, i)
            assert np.array_equal(b.X[i, :n], rows.X[i, sel])
            assert np.array_equal(b.Y[i, :n], rows.Y[i, sel])
            assert not np.any(b.X[i, n:]) and not np.any(b.Y[i, n:])

    def test_indices_are_distinct_and_lie_in_the_shard(self):
        rows = _indexed_rows([30, 9, 12, 200], seed=3)
        rng = np.random.default_rng(3)
        for _ in range(50):
            b = minibatch_rows(rows, 9, rng)
            assert b.counts.tolist() == [9, 9, 9, 9]
            assert np.array_equal(_drawn(b, 1), np.arange(9))
            for i, n in enumerate(rows.counts.tolist()):
                sel = _drawn(b, i)
                assert np.unique(sel).shape == (9,)
                assert sel.min() >= 0 and sel.max() < n

    def test_every_row_is_drawn_with_probability_batch_over_rows(self):
        rows = _indexed_rows([30, 6, 12], seed=4)
        rng = np.random.default_rng(4)
        draws, size = 4000, 8
        hits = np.zeros(rows.X.shape[:2])
        for _ in range(draws):
            b = minibatch_rows(rows, size, rng)
            for i in (0, 2):
                hits[i, _drawn(b, i)] += 1
        for i in (0, 2):
            n = rows.counts[i]
            p = size / n
            sigma = np.sqrt(draws * p * (1.0 - p))
            assert np.all(np.abs(hits[i, :n] - draws * p) <= 5.0 * sigma)

    def test_a_client_without_a_batch_consumes_no_generator_output(self):
        rows = _indexed_rows([30, 6, 12], seed=5)
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        minibatch_rows(rows, 8, rng)
        ref.random(30 + 12)
        assert rng.bit_generator.state == ref.bit_generator.state
        minibatch_rows(rows, 30, rng)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_batches_are_the_smallest_keys_of_one_stream_in_client_order(self):
        b = minibatch_rows(_indexed_rows([30, 6, 12], seed=6), 8, np.random.default_rng(9))
        ref = np.random.default_rng(9)
        assert np.array_equal(_drawn(b, 0), np.argsort(ref.random(30))[:8])
        assert np.array_equal(_drawn(b, 1), np.arange(6))
        assert np.array_equal(_drawn(b, 2), np.argsort(ref.random(12))[:8])

    def test_a_repeated_generator_reproduces_grad_modes_stream(self):
        # grad mode draws once per cell from its one generator
        shards = make_uneven_shards([30, 6, 12], seed=4)
        _, tape = forward_network(shards, init_params(3, 4, 2), L=2, mode="grad", seed=4,
                                  batch_rng=np.random.default_rng(9), batch_size=8)
        rows = _rows_of(shards)
        rng = np.random.default_rng(9)
        for rec in tape.cells:
            b = minibatch_rows(rows, 8, rng)
            # the 6-row client draws no batch and steps on all its rows
            assert b.counts[1] == 6
            assert np.array_equal(rec.gram[1], rows.gram()[1])
            for i in (0, 2):
                assert np.array_equal(rec.gram[i], b.gram()[i])

    @pytest.mark.parametrize("case", ["equal, all draw", "uneven, some keep all",
                                      "subset of population stats"])
    def test_the_draw_follows_its_documented_rule(self, case):
        if case == "equal, all draw":
            rows = _rows_of(make_shards(M=4, n=30, seed=7))
        elif case == "uneven, some keep all":
            rows = _rows_of(make_uneven_shards([30, 6, 12, 25, 10], seed=7))
        else:
            # the subset keeps the population's padded width, 40 rows
            shards = make_uneven_shards([30, 6, 40, 12, 25], seed=7)
            rows = client_stats(shards).take([4, 1, 0, 3]).rows
            assert rows.X.shape[1] == 40
        size = 10
        rng, ref = np.random.default_rng(11), np.random.default_rng(11)
        b = minibatch_rows(rows, size, rng)
        # rebuilt as documented: one rng.random call keys every row of
        # every drawing client, client by client; a drawing client's batch
        # is its rows of the `size` smallest keys, in key order (argsort);
        # a client with no more than `size` rows keeps them all, in order
        counts = rows.counts
        keys = ref.random(int(counts[counts > size].sum()))
        X = np.zeros((counts.shape[0], size, rows.X.shape[2]))
        Y = np.zeros((counts.shape[0], size))
        start = 0
        for i, n in enumerate(counts.tolist()):
            if n > size:
                sel = np.argsort(keys[start:start + n])[:size]
                start += n
            else:
                sel = np.arange(n)
            X[i, :sel.shape[0]] = rows.X[i, sel]
            Y[i, :sel.shape[0]] = rows.Y[i, sel]
        assert start == keys.shape[0]
        assert np.array_equal(b.counts, np.minimum(counts, size))
        assert np.array_equal(b.X, X) and np.array_equal(b.Y, Y)
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("size", [8, 12, 45, 100])
    def test_a_layout_drawn_repeatedly_equals_one_shot_draws(self, size):
        # at 8 and 12 some clients keep all their rows; from 45 on (the
        # largest count) no client draws and there is no layout
        rows = _rows_of(make_uneven_shards([30, 6, 12, 45, 9], seed=8))
        layout = minibatch_layout(rows, size)
        assert (layout is None) == (size >= 45)
        rng, ref = np.random.default_rng(12), np.random.default_rng(12)
        for _ in range(10):
            want = minibatch_rows(rows, size, ref)
            got = rows if layout is None else layout.draw(rng)
            assert (want is rows) == (layout is None)
            for name in ("X", "Y", "counts"):
                assert np.array_equal(getattr(got, name), getattr(want, name))
        assert rng.bit_generator.state == ref.bit_generator.state
        if layout is not None:
            with pytest.raises(ValueError):
                layout.draw(None)

    def test_a_size_without_generators_is_rejected(self):
        rows = _rows_of(make_shards(M=2, n=20, seed=6))
        with pytest.raises(ValueError):
            minibatch_rows(rows, 5)
