import json
import math
import re
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.stats as st
from scipy import integrate, special
from hypothesis import given, settings
from hypothesis import strategies as hst

from chi2chaos import chaos, cli, montecarlo, sym_tensor
from chi2chaos.chaos import ChaosExpansion
from chi2chaos.cli import load_config, shipped_scenarios
from chi2chaos.errors import NumericalError
from chi2chaos.montecarlo import (
    GENERATOR_ID,
    SampleBatch,
    TargetLaw,
    k_statistic_errors,
    k_statistics,
    kolmogorov_distance,
    sample_chaos,
    sample_target,
    target_cf,
)
from chi2chaos.spectral2 import TargetSpec
from chi2chaos.sym_tensor import basis_kernel, random_kernel


def test_sample_target_moments():
    spec = TargetSpec((1.0,))
    batch = sample_target(spec, 100_000, 11)
    n = batch.n
    assert abs(batch.values.mean()) < 4 * math.sqrt(2.0 / n)
    var = batch.values.var()
    se_var = np.std(batch.values ** 2) / math.sqrt(n)
    assert abs(var - 2.0) < 4 * se_var


def test_sample_target_symmetric_spec_skewness():
    batch = sample_target(TargetSpec((0.5, -0.5)), 100_000, 12)
    k = k_statistics(batch, 3)
    se = k_statistic_errors(batch, 3)
    assert abs(k[2]) < 4 * se[2]


def test_sampling_reproducible():
    spec = TargetSpec((1.0, 2.0))
    a = sample_target(spec, 1000, 77)
    b = sample_target(spec, 1000, 77)
    c = sample_target(spec, 1000, 78)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert a.generator_id == GENERATOR_ID


def test_the_numpy_random_stream_is_the_pinned_one(tmp_path):
    # every Monte Carlo column rests on these draws (NumPy 2.4.6), and numpy
    # is not pinned: a release that changes Philox or its normal sampler
    # moves every ks and emp_kappa_* value
    want = [float.fromhex(h) for h in (
        "0x1.463cb3872ecbdp-3", "-0x1.c6313809c831cp+0",
        "0x1.5396485e717b0p+0", "0x1.346e5e799d961p+0")]
    got = montecarlo._rng(0).standard_normal(4).tolist()
    assert got == want, "the NumPy random stream changed"
    # and a run's summary says whether the stream is still this one
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "id": "stream", "target": {"alphas": [1.0]},
        "family": {"name": "equal-split"}, "indices": [2],
        "outputs": ["gamma_stat"]}))
    _, summary = cli.run_scenario(config, tmp_path, no_mc=True)
    provenance = json.loads(summary.read_text())["provenance"]
    assert provenance["stream_fingerprint_matched"] is True
    with mock.patch.object(montecarlo, "STREAM_FINGERPRINT", ("0x0p+0",) * 4):
        assert montecarlo.stream_fingerprint_matches() is False


@pytest.mark.parametrize("n, seed, message", [
    # seed 1.5 drew seed 1's sample, and its SampleBatch recorded 1.5
    (10, 1.5, "seed must be an integer, got 1.5"),
    (10, "3", "seed must be an integer, got '3'"),
    (10, True, "seed must be an integer, got True"),
    # -1 and 2^64 raised OverflowError
    (10, -1, "seed must be >= 0, got -1"),
    (10, 2 ** 64, f"seed must be < {2 ** 64}, got {2 ** 64}"),
    # n = 2.5 raised TypeError
    (2.5, 1, "n must be an integer, got 2.5"),
    (0, 1, "n must be >= 1, got 0"),
    (np.True_, 1, "n must be an integer, got "),
])
def test_the_samplers_take_an_integer_seed_below_2_64_and_an_integer_n(
        n, seed, message):
    F = ChaosExpansion.from_kernel(basis_kernel(2, (0, 1)))
    for sample, law in ((sample_chaos, F), (sample_target, TargetSpec((1.0,)))):
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            sample(law, n, seed)


def test_the_samplers_take_numpy_integers_and_the_largest_seed():
    F = ChaosExpansion.from_kernel(basis_kernel(2, (0, 1)))
    for sample, law in ((sample_chaos, F), (sample_target, TargetSpec((1.0,)))):
        plain = sample(law, 5, 2 ** 64 - 1)
        typed = sample(law, np.int64(5), np.uint64(2 ** 64 - 1))
        assert np.array_equal(plain.values, typed.values)


def test_sample_chaos_constant_and_gaussian():
    F = ChaosExpansion.constant(2, 4.5)
    batch = sample_chaos(F, 50, 1)
    assert np.all(batch.values == 4.5)

    G = ChaosExpansion.from_kernel(basis_kernel(2, (0,)))
    b = sample_chaos(G, 100_000, 2)
    ks = kolmogorov_distance(b.values, st.norm.cdf)
    assert ks < 1.63 / math.sqrt(b.n)  # 99% DKW-style band


def whole_draw_sample(F, n, seed):
    """sample_chaos as it was before it drew in blocks: one (n, d) draw,
    evaluated in one call."""
    return chaos.evaluate(F, montecarlo._rng(seed).standard_normal((n, F.dim)))


def expansion(rng, dim, orders):
    kernels = {q: (np.asarray(rng.uniform(-1, 1)) if q == 0 else
                   random_kernel(q, dim, rng, scale=0.6).coeffs)
               for q in orders}
    return ChaosExpansion(dim, kernels)


@settings(max_examples=40, deadline=None)
@given(dim=hst.integers(1, 4), seed=hst.integers(0, 2 ** 32 - 1),
       orders=hst.sets(hst.integers(0, 5), min_size=1, max_size=4),
       n=hst.integers(1, 80), block=hst.integers(1, 25))
def test_sample_chaos_is_the_whole_draw_evaluated_property(dim, seed, orders,
                                                           n, block):
    F = expansion(np.random.default_rng(seed), dim, sorted(orders))
    # no row's value depends on the rows that share its block, so the
    # blocks sample_chaos draws give the values of one whole draw
    with mock.patch.object(chaos, "_BLOCK_ROWS", block):
        assert np.array_equal(sample_chaos(F, n, seed).values,
                              whole_draw_sample(F, n, seed))


def test_sample_chaos_is_prefix_stable_at_orders_0_and_above_2():
    F = expansion(np.random.default_rng(40), 3, [0, 3, 4])
    with mock.patch.object(chaos, "_BLOCK_ROWS", 7):
        whole = sample_chaos(F, 50, 41).values
        for n in (1, 6, 7, 8, 14, 15, 21, 49):
            assert np.array_equal(sample_chaos(F, n, 41).values, whole[:n])


def test_sample_chaos_memory_does_not_grow_with_n_times_d(peak_mb):
    # one (400 000, 16) draw alone is 51 MB; memory is the n values and the
    # walk's two buffer sets, each a (q+1, d, rows) table (the recurrence
    # works in row 0's slot) and a (rows, d) block of inputs
    q, d, n = 3, 16, 400_000
    F = ChaosExpansion.from_kernel(
        random_kernel(q, d, np.random.default_rng(42)))
    rows = chaos._block_rows(d, table=True)
    bound = n * 8 + 2 * ((q + 1) * d * rows + d * rows) * 8 + 2 ** 20
    assert peak_mb(lambda: sample_chaos(F, n, 43)) <= bound / 2 ** 20


def test_sample_chaos_memory_at_d_256_is_n_values_plus_8_mb(peak_mb):
    # gaussian-counterexample's shape at n = 256: one block of 16 384 rows
    # of 256 normals alone is 33.5 MB
    rng = np.random.default_rng(46)
    F = expansion(rng, 256, [1, 2])
    n = 40_000
    assert peak_mb(lambda: sample_chaos(F, n, 47)) <= (n * 8 + 8 * 2 ** 20) / 2 ** 20


@pytest.mark.parametrize("dim, rows", [(16, 16_384), (17, 15_420),
                                       (64, 4_096), (256, 1_024)])
def test_sample_chaos_blocks_hold_at_most_2_18_normals(dim, rows):
    n = 2 * rows + 5
    seed = 48 + dim
    seen = []
    evaluator = chaos._evaluator

    def recording(F):
        tabulate, add = evaluator(F)

        def record(xs, table, out):
            seen.append(len(xs))
            add(xs, table, out)
        return tabulate, record

    F = expansion(np.random.default_rng(dim), dim, [1, 2])
    with mock.patch.object(chaos, "_evaluator", recording):
        got = sample_chaos(F, n, seed).values
    assert seen == [rows, rows, 5]
    whole = montecarlo._rng(seed).standard_normal((n, dim))
    assert np.array_equal(got, chaos.evaluate(F, whole))
    # the blocks are the rows of the whole draw: x @ e_i is exactly x_i
    coordinate = ChaosExpansion.from_kernel(basis_kernel(dim, (dim - 1,)))
    assert np.array_equal(sample_chaos(coordinate, n, seed).values, whole[:, -1])


def test_the_spectrum_sampler_is_prefix_stable_across_blocks():
    # gaussian-counterexample's spectrum at n = 256: blocks of 1 024 rows
    w = cli.family_spectrum({"name": "equal-split"}, 256)
    rows = chaos._block_rows(len(w))
    whole = montecarlo._sample_weights(w, 2 * rows + 5, 7).values
    for n in (1, 5, rows - 1, rows, rows + 1, 2 * rows, 2 * rows + 4):
        assert np.array_equal(montecarlo._sample_weights(w, n, 7).values,
                              whole[:n]), n


def test_sample_target_draws_one_n_by_k_stream():
    # the normals are those of one (n, k) draw, block by block: the values
    # differ from sum_i alpha_i (z_i^2 - 1) on that draw only in rounding,
    # since sum_i alpha_i is subtracted once instead of each alpha_i
    for alphas in ((1.0,), (1.0, 2.0), (0.5, -0.5), (1.0, -0.6, 2.2)):
        got = sample_target(TargetSpec(alphas), 40_000, 5).values
        z = montecarlo._rng(5).standard_normal((40_000, len(alphas)))
        want = np.einsum("nk,k->n", z * z - 1.0, np.asarray(alphas))
        scale = np.einsum("nk,k->n", z * z + 1.0, np.abs(alphas))
        # each side's k + 1 roundings, at most 2^-53 of the scale each
        bound = (len(alphas) + 1) * 2.0 ** -52 * scale
        assert np.all(np.abs(got - want) <= bound), alphas


def test_sample_target_memory_is_n_values_plus_one_block(peak_mb):
    # one (n, k) draw alone is 24 MB
    n, k = 10 ** 6, 3
    bound = n * 8 + chaos._block_rows(k) * k * 8 + 2 ** 20
    peak = peak_mb(lambda: sample_target(TargetSpec((1.0, 2.0, 3.0)), n, 0))
    assert peak <= bound / 2 ** 20, f"{peak:.2f} MB"


@pytest.mark.parametrize("dim", [17, 64])
def test_sample_chaos_is_prefix_stable_above_order_2_in_short_blocks(dim):
    # d = 256 is left out: an order-3 kernel there has 1.7e7 entries, over
    # the 1e7-element guard.  A sparse kernel keeps the term loop short.
    rows = chaos._block_rows(dim)
    rng = np.random.default_rng(dim)
    f = sum(rng.uniform(-1, 1) * basis_kernel(dim, idx).coeffs
            for idx in [(0, 0, 0), (0, 1, dim - 1), (2, 5, 5), (dim - 1,) * 3])
    F = ChaosExpansion(dim, {0: np.asarray(0.5), 3: f})
    n = 2 * rows + 5
    seed = 50 + dim
    whole = sample_chaos(F, n, seed).values
    draw = montecarlo._rng(seed).standard_normal((n, dim))
    assert np.array_equal(whole, chaos.evaluate(F, draw))
    for m in (1, rows - 1, rows, rows + 1, 2 * rows):
        assert np.array_equal(sample_chaos(F, m, seed).values, whole[:m])


@pytest.mark.parametrize("dim", [17, 256])
@pytest.mark.parametrize("orders", [[1], [0, 2], [0, 1, 2]])
def test_sample_chaos_is_prefix_stable_at_order_1_and_diagonal_order_2(dim,
                                                                       orders):
    # einsum, not BLAS: a row's value does not depend on its block's row
    # count.  d = 256 is gaussian-counterexample's largest kernel.
    rng = np.random.default_rng((dim, len(orders)))
    kernels = {0: np.asarray(0.5), 1: rng.uniform(-1, 1, dim),
               2: np.diag(rng.uniform(-1, 1, dim))}
    F = ChaosExpansion(dim, {q: kernels[q] for q in orders})
    rows = chaos._block_rows(dim)
    n = 2 * rows + 5
    seed = 70 + dim
    whole = sample_chaos(F, n, seed).values
    draw = montecarlo._rng(seed).standard_normal((n, dim))
    assert np.array_equal(whole, chaos.evaluate(F, draw))
    for m in (1, 2, rows - 1, rows, rows + 1, 2 * rows):
        assert np.array_equal(sample_chaos(F, m, seed).values, whole[:m])


@pytest.mark.parametrize("q, dim", [(3, 16), (4, 8), (5, 4), (6, 3)])
def test_sample_chaos_is_prefix_stable_at_highorder_shapes(q, dim):
    # dense kernels of every highorder-mc shape: every multi-index has a
    # term, the terms share their leading factors in the largest groups,
    # and the groups that are runs of rows are summed in one einsum pass,
    # except in a one-row block
    F = ChaosExpansion.from_kernel(
        random_kernel(q, dim, np.random.default_rng((q, dim))))
    rows = chaos._block_rows(dim)
    n = 2 * rows + 5
    seed = 60 + q
    whole = sample_chaos(F, n, seed).values
    draw = montecarlo._rng(seed).standard_normal((n, dim))
    assert np.array_equal(whole, chaos.evaluate(F, draw))
    for m in (1, rows - 1, rows, rows + 1, 2 * rows):
        assert np.array_equal(sample_chaos(F, m, seed).values, whole[:m])


# the sha256 of sample_chaos on the four highorder-mc kernels at seed 0
HIGHORDER_HASHES = """
import hashlib
import numpy as np
from chi2chaos.chaos import ChaosExpansion
from chi2chaos.montecarlo import sample_chaos
from chi2chaos.sym_tensor import random_kernel
hashes = [hashlib.sha256(sample_chaos(ChaosExpansion.from_kernel(
    random_kernel(q, d, np.random.default_rng((0, q, d)))), 500_000, 0)
    .values.tobytes()).hexdigest()
    for q, d in ((3, 16), (4, 8), (5, 4), (6, 3))]
"""


def test_sample_chaos_does_not_depend_on_the_helper_threads_core(
        python_child):
    # at order >= 3 a helper thread draws and tabulates the next block
    # while the caller sums; pinned to core 0, the helper shares the
    # caller's core and the blocks interleave differently
    here = {}
    exec(HIGHORDER_HASHES, here)
    out, _ = python_child(["-c", HIGHORDER_HASHES + "print(*hashes)"],
                          one_core=True)
    assert out.split() == here["hashes"]


@pytest.mark.parametrize("dim", [2, 3, 16, 17, 64, 256])
def test_sample_chaos_is_prefix_stable_at_every_order(dim):
    # orders 0-5, order 2 dense, orders >= 3 only where the element guard
    # allows: dense up to 4 096 entries, so the terms share their leading
    # factors in the largest groups ((3, 16) is a highorder-mc shape), and
    # a few basis multi-indices above, which keeps the term loop short.
    # d = 256 is gaussian-counterexample's largest kernel.  Every order is
    # evaluated row by row, so a row's value moves neither with the slice
    # it is evaluated in nor with the rows after it.
    rng = np.random.default_rng(dim)
    kernels = {0: np.asarray(0.5), 1: rng.uniform(-1, 1, dim),
               2: random_kernel(2, dim, rng).coeffs}
    for q in range(3, 6):
        if dim ** q > sym_tensor.MAX_ELEMENTS:
            break
        if dim ** q <= 4096:
            kernels[q] = random_kernel(q, dim, rng, scale=0.6).coeffs
        else:
            kernels[q] = sum(
                rng.uniform(-1, 1) * basis_kernel(dim, idx).coeffs
                for idx in [(0,) * q, (0, 1) + (dim - 1,) * (q - 2),
                            (2,) + (5,) * (q - 1), (dim - 1,) * q])
    F = ChaosExpansion(dim, kernels)
    rows = chaos._block_rows(dim)
    n = 2 * rows + 5
    seed = 70 + dim
    whole = sample_chaos(F, n, seed).values
    draw = montecarlo._rng(seed).standard_normal((n, dim))
    assert np.array_equal(whole, chaos.evaluate(F, draw))
    for lo, hi in [(0, 1), (1, 3), (rows - 1, rows + 2), (rows, n),
                   (3, 2 * rows), (n - 1, n)]:
        assert np.array_equal(chaos.evaluate(F, draw[lo:hi]), whole[lo:hi])
    for m in (1, rows - 1, rows, rows + 1, 2 * rows):
        assert np.array_equal(sample_chaos(F, m, seed).values, whole[:m])


def test_sample_chaos_builds_each_term_list_once():
    F = expansion(np.random.default_rng(44), 3, [0, 3, 4, 5])
    with mock.patch.object(chaos, "_BLOCK_ROWS", 10), \
            mock.patch.object(chaos, "_sum_plan",
                              wraps=chaos._sum_plan) as plans:
        sample_chaos(F, 47, 45)
    assert plans.call_count == 1


def recording_table_stage(seen, fail_at=None):
    """A stand-in for chaos._evaluator whose table stage appends
    (np.geterr(), the thread it runs on) to ``seen`` for each block and
    raises MemoryError on block ``fail_at``."""
    evaluator = chaos._evaluator

    def recording(F):
        tabulate, add = evaluator(F)

        def record(xs, buffer):
            seen.append((np.geterr(), threading.get_ident()))
            if len(seen) == fail_at:
                raise MemoryError("table stage")
            return tabulate(xs, buffer)
        return tabulate and record, add
    return recording


def test_the_helper_runs_under_the_callers_error_handling():
    # NumPy < 2 keeps np.errstate per thread, NumPy >= 2 per context, and
    # neither reaches the helper thread by itself
    F = expansion(np.random.default_rng(80), 3, [1, 3])
    rows = chaos._block_rows(3, table=True)
    seen = []
    with mock.patch.object(chaos, "_evaluator", recording_table_stage(seen)):
        with np.errstate(over="ignore", invalid="raise", divide="warn"):
            want = np.geterr()
            got = sample_chaos(F, 2 * rows + 5, 81).values
    assert want != np.geterr()
    assert [err for err, _ in seen] == [want] * 3
    # every table is written on one helper thread, not the caller's
    assert len({thread for _, thread in seen}) == 1
    assert seen[0][1] != threading.get_ident()
    assert np.array_equal(got, whole_draw_sample(F, 2 * rows + 5, 81))


@pytest.mark.parametrize("orders, n", [([1, 3], 100), ([1, 2], 3 * 16_384)])
def test_one_block_or_no_table_runs_on_the_caller(orders, n):
    # one block has nothing to overlap; order <= 2 has no table stage
    F = expansion(np.random.default_rng(82), 3, orders)
    seen, called = [], []
    evaluator = recording_table_stage(seen)

    def recording(F):
        tabulate, add = evaluator(F)

        def record(xs, table, out):
            called.append(threading.get_ident())
            add(xs, table, out)
        return tabulate, record

    before = threading.active_count()
    with mock.patch.object(chaos, "_evaluator", recording):
        got = sample_chaos(F, n, 83).values
    assert threading.active_count() == before
    assert {thread for _, thread in seen} <= {threading.get_ident()}
    assert set(called) == {threading.get_ident()}
    assert len(seen) == (1 if 3 in orders else 0)
    assert np.array_equal(got, whole_draw_sample(F, n, 83))


def test_a_failing_table_stage_leaves_no_thread_behind():
    F = expansion(np.random.default_rng(84), 3, [0, 3])
    n = 5 * chaos._block_rows(3, table=True)
    before = threading.active_count()
    seen = []
    with mock.patch.object(chaos, "_evaluator",
                           recording_table_stage(seen, fail_at=2)):
        with pytest.raises(MemoryError, match="table stage"):
            sample_chaos(F, n, 85)
    assert len(seen) == 2
    assert threading.active_count() == before
    assert np.array_equal(sample_chaos(F, n, 85).values,
                          whole_draw_sample(F, n, 85))
    assert threading.active_count() == before


def test_a_failing_sum_stage_leaves_no_thread_behind():
    F = expansion(np.random.default_rng(86), 3, [3])
    n = 5 * chaos._block_rows(3, table=True)
    evaluator = chaos._evaluator
    calls = []

    def failing(F):
        tabulate, add = evaluator(F)

        def fail_second(xs, table, out):
            calls.append(len(xs))
            if len(calls) == 2:
                raise MemoryError("sum stage")
            add(xs, table, out)
        return tabulate, fail_second

    before = threading.active_count()
    with mock.patch.object(chaos, "_evaluator", failing):
        with pytest.raises(MemoryError, match="sum stage"):
            sample_chaos(F, n, 87)
    assert threading.active_count() == before


def test_helpers_hand_blocks_over_without_a_race():
    # four sampling calls at once, each with its helper, on two cores,
    # thread switches every microsecond and 8-row table blocks: a block's
    # buffers taken again before the caller has summed them would move
    # values
    from concurrent.futures import ThreadPoolExecutor

    F = expansion(np.random.default_rng(89), 3, [1, 2, 3, 4])
    seeds, n = range(90, 94), 403
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(chaos, "_BLOCK_ROWS", 16), \
                ThreadPoolExecutor(len(seeds)) as pool:
            calls = [pool.submit(sample_chaos, F, n, s) for s in seeds]
            got = [call.result(timeout=60).values for call in calls]
    finally:
        sys.setswitchinterval(interval)
    for s, values in zip(seeds, got):
        assert np.array_equal(values, whole_draw_sample(F, n, s))


def test_sample_batch_keeps_sealed_values_and_copies_writable_ones(peak_mb):
    sealed = np.arange(500_000, dtype=float)  # 4 MB
    sealed.flags.writeable = False
    batches = []
    assert peak_mb(lambda: batches.append(SampleBatch(sealed, 0))) < 1.0
    assert batches[0].values is sealed

    mine = np.arange(10, dtype=float)
    batch = SampleBatch(mine, 0)
    mine[0] = 99.0
    assert batch.values[0] == 0.0 and not batch.values.flags.writeable

    F = ChaosExpansion.from_kernel(basis_kernel(3, (0, 1, 1)))
    for built in (sample_chaos(F, 100, 1), sample_target(TargetSpec((1.0,)), 100, 1)):
        assert SampleBatch(built.values, built.seed).values is built.values


def test_sample_chaos_matches_target_in_law():
    # I_2(e1 o e1) has the law of the single-weight target
    F = ChaosExpansion.from_kernel(basis_kernel(2, (0, 0)))
    a = sample_chaos(F, 50_000, 3)
    b = sample_target(TargetSpec((1.0,)), 50_000, 4)
    stat = st.ks_2samp(a.values, b.values).statistic
    assert stat < 0.012


def test_k_statistics_normal_batch():
    rng = np.random.Generator(np.random.Philox(key=5))
    values = rng.standard_normal(200_000)
    k = k_statistics(values, 4)
    se = k_statistic_errors(values, 4)
    assert abs(k[1] - 1.0) < 4 * se[1]
    assert abs(k[2]) < 4 * se[2]
    assert abs(k[3]) < 4 * se[3]


def test_k_statistics_chi2_third_cumulant():
    batch = sample_target(TargetSpec((1.0,)), 400_000, 6)
    k = k_statistics(batch, 3)
    se = k_statistic_errors(batch, 3)
    assert abs(k[2] - 8.0) < 4 * se[2]


def test_k_statistic_errors_are_none_below_ten_sub_batches_of_rmax_plus_1():
    values = np.random.default_rng(3).standard_normal(50)
    assert k_statistic_errors(values[:49], 4) == [None] * 4
    assert all(se > 0.0 for se in k_statistic_errors(values, 4))
    assert k_statistic_errors(values[:19], 1) == [None]
    with pytest.raises(ValueError, match="rmax"):
        k_statistic_errors(values[:5], 5)


def test_k_statistics_constant_batch():
    values = np.full(100, 2.5)
    k = k_statistics(values, 4)
    assert k[0] == 2.5 and k[1] == 0.0 and k[2] == 0.0 and k[3] == 0.0


def test_k_statistics_unbiasedness_small_batches():
    # average k-statistics over many small normal batches approach the truth
    rng = np.random.Generator(np.random.Philox(key=7))
    batches = rng.standard_normal((4000, 50))
    k2 = [k_statistics(b, 2)[1] for b in batches]
    k3 = [k_statistics(b, 3)[2] for b in batches]
    assert abs(np.mean(k2) - 1.0) < 4 * np.std(k2) / math.sqrt(len(k2))
    assert abs(np.mean(k3)) < 4 * np.std(k3) / math.sqrt(len(k3))


def test_k_statistics_match_scipy_kstat():
    rng = np.random.Generator(np.random.Philox(key=10))
    values = rng.standard_normal(5000) ** 2
    ours = k_statistics(values, 4)
    for r in (1, 2, 3, 4):
        want = st.kstat(values, r)
        assert abs(ours[r - 1] - want) < 1e-10 * (1 + abs(want)), r


def test_k_statistics_lower_rmax_is_bitwise_a_prefix():
    values = np.random.Generator(np.random.Philox(key=13)).standard_normal(3000) ** 3
    full = k_statistics(values, 4)
    for rmax in range(1, 4):
        assert k_statistics(values, rmax) == full[:rmax], rmax


def test_k_statistics_third_and_fourth_match_fsum_moments():
    values = np.random.Generator(np.random.Philox(key=17)).standard_normal(20_000) ** 2
    n = len(values)
    mean = math.fsum(values.tolist()) / n
    d = [v - mean for v in values.tolist()]
    m2, m3, m4 = (math.fsum(v ** r for v in d) / n for r in (2, 3, 4))
    k3 = n ** 2 / ((n - 1) * (n - 2)) * m3
    k4 = n ** 2 * ((n + 1) * m4 - 3 * (n - 1) * m2 ** 2) / ((n - 1) * (n - 2) * (n - 3))
    got = k_statistics(values, 4)
    assert abs(got[2] - k3) <= 1e-13 * abs(k3)
    assert abs(got[3] - k4) <= 1e-13 * abs(k4)


def _two_array_k_statistics(values, rmax):
    # the k-statistics as they were computed with the deviations held next
    # to the running product
    n = len(values)
    mean = float(np.mean(values))
    d = values - mean
    m = {}
    for r in range(2, rmax + 1):
        p = d * d if r == 2 else np.multiply(p, d, out=p)
        m[r] = float(np.mean(p))
    out = [mean]
    if rmax >= 2:
        out.append(n / (n - 1) * m[2])
    if rmax >= 3:
        out.append(n ** 2 / ((n - 1) * (n - 2)) * m[3])
    if rmax >= 4:
        out.append(n ** 2 * ((n + 1) * m[4] - 3 * (n - 1) * m[2] ** 2)
                   / ((n - 1) * (n - 2) * (n - 3)))
    return out


@pytest.mark.parametrize("n", [5, 6, chaos._BLOCK_ROWS - 1, chaos._BLOCK_ROWS,
                               chaos._BLOCK_ROWS + 1, 500_000])
def test_k_statistics_are_bitwise_the_two_array_running_product(n):
    # the factors d are formed again chunk by chunk, around every chunk edge
    values = np.random.default_rng(n).standard_normal(n) ** 3 + 0.25
    for rmax in range(1, 5):
        want = _two_array_k_statistics(values, rmax)
        assert k_statistics(values, rmax) == want
        if n < 10 * (rmax + 1):
            assert k_statistic_errors(values, rmax) == [None] * rmax
            continue
        chunks = np.array_split(values, 10)
        stats = np.array([_two_array_k_statistics(c, rmax) for c in chunks])
        assert k_statistic_errors(values, rmax) == list(
            np.std(stats, axis=0, ddof=1) / math.sqrt(10))


def test_k_statistics_memory_is_one_value_array_plus_1_mb(peak_mb):
    # the running product is the one sample-length array: its factors are
    # formed chunk by chunk in a small work array
    values = np.random.default_rng(88).standard_normal(500_000)
    n_mb = values.nbytes / 2 ** 20
    assert peak_mb(lambda: k_statistics(values, 4)) <= n_mb + 1.0


def test_k_statistics_argument_errors():
    with pytest.raises(ValueError, match="need more than rmax=4"):
        k_statistics(np.zeros(4), 4)
    for rmax, rule in ((0, ">= 1"), (5, "< 5")):
        with pytest.raises(ValueError, match=f"^rmax must be {rule}, got {rmax}$"):
            k_statistics(np.zeros(10), rmax)


@pytest.mark.parametrize("sample", [
    np.arange(12.0).reshape(6, 2),
    lambda: SampleBatch(np.arange(12.0).reshape(6, 2), 0),
    np.float64(3.0),
], ids=["array", "batch", "scalar"])
def test_a_sample_that_is_not_1d_raises_value_error_naming_its_shape(sample):
    # k_statistics took a (6, 2) array as 12 values with n = 6, and
    # kolmogorov_distance raised a broadcast error; a batch of those values,
    # whose n was 6, raises as it is built
    calls = ([sample] if callable(sample) else
             [lambda: k_statistics(sample, 2),
              lambda: k_statistic_errors(sample, 2),
              lambda: kolmogorov_distance(sample, lambda v: v)])
    shape = (6, 2) if callable(sample) else np.shape(sample)
    for call in calls:
        with pytest.raises(ValueError,
                           match=re.escape(f"must be 1-D, got shape {shape}")):
            call()


def test_target_cf_sanity():
    spec = TargetSpec((1.0, -0.5, 2.0))
    t = np.logspace(-3, 3, 40)
    cf = target_cf(spec, t)
    assert np.all(np.abs(cf) <= 1.0 + 1e-12)
    assert np.allclose(target_cf(spec, -t), np.conj(cf))
    assert target_cf(spec, np.array([0.0]))[0] == 1.0 + 0j


def test_target_cdf_chi2_oracle():
    law = TargetLaw(TargetSpec((1.0,)))
    assert abs(law.cdf(0.0) - st.chi2(1).cdf(1.0)) < 1e-5
    for x in [-0.99, -0.5, 0.5, 2.0, 10.0]:
        assert abs(law.cdf(x) - st.chi2(1).cdf(x + 1.0)) < 1e-5


def test_target_cdf_product_normal_median():
    assert abs(TargetLaw(TargetSpec((0.5, -0.5))).cdf(0.0) - 0.5) < 1e-9


def test_target_cdf_limits_and_monotone():
    spec = TargetSpec((1.0, 2.0))
    law = TargetLaw(spec)
    assert law.cdf(-3.0) == 0.0  # support edge: exact zero
    assert law.cdf(-5.0) == 0.0
    grid = np.linspace(-2.99, 40.0, 25)
    vals = [law.cdf(x) for x in grid]
    assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
    assert vals[0] < 0.01 and vals[-1] > 0.999


def test_target_cdf_negative_weights_upper_edge():
    law = TargetLaw(TargetSpec((-1.0, -0.5)))
    assert law.cdf(1.5) == 1.0
    assert abs(law.cdf(0.0) - (1.0 - TargetLaw(TargetSpec((1.0, 0.5))).cdf(0.0))) < 1e-5


def test_cdf_closure_three_weights():
    spec = TargetSpec((1.0, -0.6, 2.2))
    batch = sample_target(spec, 200_000, 31)
    ks = kolmogorov_distance(batch, TargetLaw(spec).cdf_batch)
    assert ks < 0.01


def test_cdf_batch_matches_scalar():
    law = TargetLaw(TargetSpec((1.0, 2.0)))
    xs = np.array([-2.5, -1.0, 0.0, 1.0, 5.0])
    assert law.cdf_batch(xs).tobytes() == np.array(
        [law.cdf(x) for x in xs]).tobytes()


@pytest.mark.parametrize("alphas", [(1.0,), (1.0, 2.0), (-0.5, -1.5),
                                    (0.5, -0.5), (1.0, -0.6, 2.2)])
def test_cdf_batch_up_to_256_points_is_bitwise_cdf(alphas):
    # one path: with at most 256 inputs every distinct input is a grid
    # node, and np.interp returns a node's value as it is
    law = TargetLaw(TargetSpec(alphas))
    rng = np.random.default_rng(len(alphas))
    edges = [e for e in (law.lower_edge, law.upper_edge) if e is not None]
    special = [-60.0, 60.0] + edges + [e + s for e in edges
                                       for s in (-1e-9, 1e-9, -3.0, 3.0)]
    # an infinity is a point only beyond a support edge
    special += [-np.inf] * (law.lower_edge is not None) \
        + [np.inf] * (law.upper_edge is not None)
    points = sample_target(law.spec, 256, 81).values
    batches = [points[:1], points[:2], points[:255], points,
               np.repeat(points[:5], 7), np.array(special),
               rng.permutation(np.concatenate([special, points[:200],
                                               points[:40]]))]
    for xs in batches:
        assert len(xs) <= 256
        assert law.cdf_batch(xs).tobytes() == law.cdf(xs).tobytes()
    with pytest.raises(ValueError, match="finite"):
        law.cdf_batch(np.array([0.0, np.nan]))


@pytest.mark.parametrize("x", [
    0.5, -3.0, np.float64(2.0), 7, [], np.empty((0, 3)), [1.5],
    [[-1.0, 0.0, 2.0], [3.0, 0.5, 0.5]], np.linspace(-4.0, 9.0, 256),
    np.linspace(-4.0, 9.0, 256).reshape(16, 4, 4)])
def test_cdf_batch_takes_what_cdf_takes(x):
    # one input rule: a float for a scalar, else an array of x's shape,
    # bitwise cdf's values up to 256 points
    law = TargetLaw(TargetSpec((1.0, 2.0)))
    want, got = law.cdf(x), law.cdf_batch(x)
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_cdf_batch_inverts_each_distinct_point_once():
    # a batch of repeated points inverts its distinct points only
    law = TargetLaw(TargetSpec((1.0,)))
    xs = np.repeat(sample_target(law.spec, 10, 82).values, 3)
    sizes = []
    cdf = TargetLaw.cdf

    def recording(self, x):
        sizes.append(np.size(x))
        return cdf(self, x)

    with mock.patch.object(TargetLaw, "cdf", recording):
        law.cdf_batch(xs)
    assert sizes == [10]


def test_cdf_batch_interpolates_the_inverted_values_as_they_are():
    # each inverted value is within its own bound, and neighbours may fall
    # by a few 1e-8: cdf_batch interpolates them unchanged.  Every other
    # node is lowered here, so many of them fall.
    law = TargetLaw(TargetSpec((1.0,)))
    xs = sample_target(law.spec, 25_600, 61).values
    cdf = TargetLaw.cdf

    def falling(self, x):
        values = cdf(self, x)
        values[1::2] *= 0.99
        return values

    idx = np.unique(np.round(np.linspace(0, len(xs) - 1, len(xs) // 64)).astype(int))
    grid = np.unique(np.sort(xs)[idx])
    with mock.patch.object(TargetLaw, "cdf", falling):
        nodes = law.cdf(grid)
        assert np.sum(np.diff(nodes) < 0) > 10
        assert np.array_equal(law.cdf_batch(xs), np.interp(xs, grid, nodes))


def test_cdf_batch_inverts_clip_n_over_64_quantile_nodes():
    law = TargetLaw(TargetSpec((1.0,)))
    values = sample_target(law.spec, 200_000, 12).values
    sizes = []
    cdf = TargetLaw.cdf

    def recording(self, x):
        sizes.append(np.size(x))
        return cdf(self, x)

    with mock.patch.object(TargetLaw, "cdf", recording):
        for n, nodes in [(200, 200), (25_600, 400), (100_000, 1562),
                         (200_000, 1600)]:
            sizes.clear()
            law.cdf_batch(values[:n])
            assert sizes == [nodes], n


def test_kolmogorov_distance_examples():
    # single point at the median of any law gives distance 1/2
    law = TargetLaw(TargetSpec((0.5, -0.5)))
    assert abs(kolmogorov_distance(np.array([0.0]), law.cdf_batch) - 0.5) < 1e-9

    # sampling a law against its own cdf: inside the 99% DKW band
    spec = TargetSpec((1.0,))
    batch = sample_target(spec, 100_000, 8)
    ks = kolmogorov_distance(batch, TargetLaw(spec).cdf_batch)
    assert ks < 1.63 / math.sqrt(batch.n)

    # a normal sample against the chi-square-style target is far
    rng = np.random.Generator(np.random.Philox(key=9))
    ks_wrong = kolmogorov_distance(rng.standard_normal(20_000),
                                   TargetLaw(spec).cdf_batch)
    assert ks_wrong > 0.1


def test_kolmogorov_distance_vectorised_cdf_matches_cdf_batch():
    spec = TargetSpec((1.0,))
    law = TargetLaw(spec)
    batch = sample_target(spec, 300, 21)
    assert abs(kolmogorov_distance(batch, law.cdf)
               - kolmogorov_distance(batch, law.cdf_batch)) < 1e-9


def test_kolmogorov_distance_rejects_a_cdf_of_the_wrong_shape():
    def scalar_only(x):
        return float(np.mean(x))

    with pytest.raises(ValueError, match=r"shape \(\) .* shape \(5,\)"):
        kolmogorov_distance(np.arange(5.0), scalar_only)


def test_kolmogorov_distance_needs_a_sample():
    def unreachable(x):
        raise AssertionError("the CDF was called on an empty sample")

    with pytest.raises(ValueError, match="^need at least one sample$"):
        kolmogorov_distance(np.empty(0), unreachable)


def _ks_one_line(values, cdf):
    """The Kolmogorov statistic as one line of sample-length temporaries."""
    v = np.sort(values)
    n = len(v)
    F = np.asarray(cdf(v), dtype=float)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - F), np.max(F - (i - 1) / n)))


@pytest.mark.parametrize("n", [1, 2, 3, 1000, 25_600])
def test_kolmogorov_distance_is_bitwise_the_one_line_formula(n):
    # rounded normals tie often; the cdf is exactly 0 below -3 and 1 above 3,
    # and the ends are in the sample from n = 2 on
    rng = np.random.default_rng(n)
    values = np.round(rng.standard_normal(n), 1)
    values[:2] = (-5.0, 5.0)[:n]

    def ramp(x):
        return np.clip(0.5 + x / 6.0, 0.0, 1.0)

    law = TargetLaw(TargetSpec((1.0, 2.0)))
    unit = (values - values.min()) / max(np.ptp(values), 1.0)
    # the identity returns the sorted copy itself, so the work array is new
    for sample, cdf in [(values, ramp), (values, law.cdf_batch),
                        (unit, lambda x: x)]:
        got = kolmogorov_distance(sample, cdf)
        assert np.float64(got).tobytes() == np.float64(
            _ks_one_line(sample, cdf)).tobytes()


def test_cdf_batch_on_a_sorted_sample_matches_it_shuffled():
    # a sorted input is its own quantile order; a shuffled one is sorted
    law = TargetLaw(TargetSpec((1.0, 2.0)))
    values = np.sort(sample_target(law.spec, 25_600, 71).values)
    perm = np.random.default_rng(71).permutation(len(values))
    shuffled = np.empty(len(values))
    shuffled[perm] = law.cdf_batch(values[perm])
    assert law.cdf_batch(values).tobytes() == shuffled.tobytes()


def test_kolmogorov_distance_memory_is_two_sample_arrays_plus_one_block_plus_1_mb(
        peak_mb):
    # the sorted copy and the cdf values; the sorted copy is the quantile
    # order of cdf_batch and then the work array of both maxima.  One-line
    # temporaries, a second sorted copy and 4 MB of reused CDF buffers
    # traced 7.9 MB.  A block's arrays are (6 + k) quadrature-point arrays:
    # 2 MB at k = 2.
    spec = TargetSpec((1.0, 2.0))
    TargetLaw(spec).cdf_batch(sample_target(spec, 1000, 72).values)  # imports
    values = sample_target(spec, 100_000, 73).values
    law = TargetLaw(spec)
    peak = peak_mb(lambda: kolmogorov_distance(values, law.cdf_batch))
    block_mb = (6 + spec.k) * montecarlo._BLOCK_POINTS * 8 / 2 ** 20
    assert peak <= 2 * values.nbytes / 2 ** 20 + block_mb + 1.0


@pytest.mark.parametrize("alphas", [(1.0, 2.0), (1.0, -0.6, 2.2)])
def test_target_law_keeps_nothing_between_calls(alphas):
    # reused block buffers kept 2.01 and 2.25 MB here
    spec = TargetSpec(alphas)
    values = sample_target(spec, 200_000, 74).values
    TargetLaw(spec).cdf(values[:1000])  # imports
    law = TargetLaw(spec)
    tracemalloc.start()
    try:
        out = law.cdf(values)
        held_mb = (tracemalloc.get_traced_memory()[0] - out.nbytes) / 2 ** 20
    finally:
        tracemalloc.stop()
    assert held_mb < 0.1


def _chi2_cdf(x):
    """P(N^2 - 1 <= x) in closed form."""
    return np.array([math.erf(math.sqrt((v + 1.0) / 2.0)) if v > -1.0 else 0.0
                     for v in x])


def test_target_cdf_chi2_closed_form_up_to_the_edge():
    xs = np.array([-1.0 - 1e-7, -1.0, -1.0 + 1e-7, -1.0 + 1e-6, -0.999, -0.9,
                   -0.5, 0.0, 0.3, 1.0, 4.0, 12.0, 30.0])
    got = TargetLaw(TargetSpec((1.0,))).cdf(xs)
    assert got.shape == xs.shape
    assert np.max(np.abs(got - _chi2_cdf(xs))) < 1e-6
    # -(N^2 - 1) <= x  iff  N^2 - 1 >= -x
    mirrored = TargetLaw(TargetSpec((-1.0,))).cdf(-xs)
    assert np.max(np.abs(mirrored - (1.0 - _chi2_cdf(xs)))) < 1e-6


def test_target_cdf_value_does_not_depend_on_the_other_points():
    spec = TargetSpec((1.0, -0.6, 2.2))
    law = TargetLaw(spec)
    xs = np.sort(sample_target(spec, 1600, 41).values)
    together = law.cdf(xs)
    alone = np.array([law.cdf(x) for x in xs])
    assert np.array_equal(together, alone)
    assert np.array_equal(law.cdf(xs[::-1]), together[::-1])
    assert isinstance(law.cdf(xs[0]), float)


@settings(max_examples=30, deadline=None)
@given(hst.lists(hst.integers(-12, 12).filter(bool), min_size=1, max_size=3,
                 unique=True))
def test_target_cdf_bounded_monotone_and_exact_beyond_the_edge(quarters):
    spec = TargetSpec(tuple(q / 4.0 for q in quarters))
    law = TargetLaw(spec)
    edge = -sum(spec.alphas)
    sd = math.sqrt(2.0 * sum(a * a for a in spec.alphas))
    wide = law.cdf(np.linspace(edge - 6.0 * sd, edge + 6.0 * sd, 25))
    assert np.all((wide >= 0.0) & (wide <= 1.0))
    # monotone to 1e-9 between sample quantiles 1%..99%, where neighbouring
    # CDF values differ by far more than the inversion error
    grid = np.quantile(sample_target(spec, 2000, 1).values, np.linspace(0.01, 0.99, 25))
    assert np.all(np.diff(law.cdf(grid)) >= -1e-9)
    beyond = np.array([1e-3, 0.5, 3.0])
    if all(a > 0 for a in spec.alphas):
        assert np.all(law.cdf(edge - beyond) == 0.0)
    if all(a < 0 for a in spec.alphas):
        assert np.all(law.cdf(edge + beyond) == 1.0)


class QuarterTurnInverter(TargetLaw):
    """The CDF inverter with the subpanel rule it used before one 16-node
    subpanel per 2 pi of phase: one per pi/2 of phase and at least 2 per
    panel, kept as its reference.  It integrates all points in one block;
    a point's sum is the same whichever block it lies in."""

    def _panels(self, a, b, x):
        dtheta = np.abs(self._theta(b, x) - self._theta(a, x))
        nsub = np.maximum(2, np.ceil(2.0 * dtheta / math.pi)).astype(np.int64)
        assert np.all(nsub <= 400_000)
        return self._block(a, b, x, nsub)


@settings(max_examples=40, deadline=None)
@given(hst.lists(hst.integers(-12, 12).filter(bool), min_size=1, max_size=3,
                 unique=True))
def test_target_cdf_matches_the_quarter_turn_rule(quarters):
    spec = TargetSpec(tuple(q / 4.0 for q in quarters))
    edge = -sum(spec.alphas)
    sd = math.sqrt(2.0 * sum(a * a for a in spec.alphas))
    xs = np.linspace(edge - 6.0 * sd, edge + 6.0 * sd, 160)
    got = TargetLaw(spec).cdf(xs)
    want = QuarterTurnInverter(spec).cdf(xs)
    assert np.max(np.abs(got - want)) <= 1e-14


class TwoTermInverter(TargetLaw):
    """The CDF inverter with the tail terms it used before the third one:
    two integration-by-parts terms and the bound |h(T)| where h is shown
    monotone, kept as its reference."""

    def _tails(self, T, x):
        a = self.alphas[:, None]
        a2t2 = 4.0 * (a * T) ** 2
        shift = x + self.asum
        dtheta = np.sum(a / (1.0 + a2t2), axis=0) - shift
        out = np.zeros(len(T))
        bound = self._envelope * T ** (-0.5 * len(self.alphas))
        rule = np.zeros(len(T), dtype=np.intp)
        use = np.abs(dtheta) * T >= 20.0
        if not use.any():
            return out, bound, rule
        T, x, dtheta, a2t2 = T[use], x[use], dtheta[use], a2t2[:, use]
        theta = self._theta(T, x)
        env = self._rho(T) / T
        dlog_rho = -2.0 * T * np.sum(a ** 2 / (1.0 + a2t2), axis=0)
        denv = env * (dlog_rho - 1.0 / T)
        d2theta = np.sum(-8.0 * a ** 3 * T / (1.0 + a2t2) ** 2, axis=0)
        g = (denv * dtheta - env * d2theta) / dtheta ** 2
        out[use] = env * np.cos(theta) / dtheta - g * np.sin(theta) / dtheta
        s = np.sum(np.abs(a) / (1.0 + a2t2), axis=0)
        monotone = (14.0 + 3.0 * len(self.alphas)) * s < 2.0 * np.abs(shift[use])
        bound[use] = np.where(monotone, np.abs(g / dtheta), np.inf)
        rule[use] = 1
        return out, bound, rule


class ThreeRuleInverter(TargetLaw):
    """The CDF inverter with the tail rules it used before the two-term
    fallback was removed, kept as its reference: where u is not shown
    monotone but h is, the first two terms and the bound |h(T)|.  Its
    rules are 0 (envelope), 1 (two terms) and 2 (three terms)."""

    def _tails(self, T, x):
        a = self.alphas[:, None]
        a2t2 = 4.0 * (a * T) ** 2
        q = 1.0 / (1.0 + a2t2)
        shift = x + self.asum
        dtheta = np.sum(a * q, axis=0) - shift
        out = np.zeros(len(T))
        bound = self._envelope * T ** (-0.5 * len(self.alphas))
        rule = np.zeros(len(T), dtype=np.intp)
        use = np.abs(dtheta) * T >= 20.0
        if not use.any():
            return out, bound, rule
        T, x, shift, dtheta = T[use], x[use], shift[use], dtheta[use]
        q, p = q[:, use], a2t2[:, use] * q[:, use]
        aq = a * q
        lam = 1.0 + 0.5 * np.sum(p, axis=0)
        w1 = -2.0 * np.sum(aq * p, axis=0) / dtheta
        w2 = 2.0 * np.sum(aq * p * (3.0 - 4.0 * q), axis=0) / dtheta
        env = self._rho(T) / T
        theta = self._theta(T, x)
        cos, sin = np.cos(theta), np.sin(theta)
        h = -env * (lam + w1) / (T * dtheta ** 2)
        u = env * (lam ** 2 + lam - np.sum(q * p, axis=0) + 3.0 * lam * w1
                   + 3.0 * w1 ** 2 - w2) / (T ** 2 * dtheta ** 3)
        s = np.sum(np.abs(aq), axis=0)
        three = 26.0 * s < np.abs(shift)
        two = (14.0 + 3.0 * len(self.alphas)) * s < 2.0 * np.abs(shift)
        out[use] = env * cos / dtheta - h * sin - np.where(three, u * cos, 0.0)
        bound[use] = np.where(three, np.abs(u), np.where(two, np.abs(h), np.inf))
        rule[use] = np.where(three, 2, 1)
        return out, bound, rule


@settings(max_examples=25, deadline=None)
@given(hst.lists(hst.integers(-12, 12).filter(bool), min_size=1, max_size=8,
                 unique=True))
def test_target_cdf_is_bitwise_the_three_rule_inverter_up_to_8_weights_property(
        quarters):
    # up to eight weights the two-term fallback never decides a stop, so
    # removing it changes no value and no work count
    spec = TargetSpec(tuple(q / 4.0 for q in quarters))
    edge = -sum(spec.alphas)
    sd = math.sqrt(2.0 * sum(a * a for a in spec.alphas))
    xs = np.concatenate([
        np.linspace(edge - 8.0 * sd, edge + 8.0 * sd, 41),
        np.quantile(sample_target(spec, 2000, 3).values, np.linspace(0, 1, 25)),
        [edge - 1e-3, edge + 1e-3]])
    law, ref = TargetLaw(spec), ThreeRuleInverter(spec)
    assert np.array_equal(law.cdf(xs), ref.cdf(xs))
    assert (law.take_diagnostics()["quadrature_points"]
            == ref.take_diagnostics()["quadrature_points"])


def test_target_cdf_with_9_to_12_weights_is_within_1e_6_of_a_tight_tolerance():
    # from nine weights on, the removed two-term fallback stopped some points;
    # without it they stop a rung or more later, still within the bound
    rng = np.random.default_rng(54)
    quarters = [q for q in range(-12, 13) if q]
    fallback = 0
    for _ in range(40):
        k = int(rng.integers(9, 13))
        spec = TargetSpec(tuple(rng.choice(quarters, k, replace=False) / 4.0))
        edge = -sum(spec.alphas)
        sd = math.sqrt(2.0 * sum(a * a for a in spec.alphas))
        xs = np.concatenate([np.linspace(edge - 8.0 * sd, edge + 8.0 * sd, 81),
                             [edge - 1e-3, edge + 1e-3]])
        assert np.max(np.abs(TargetLaw(spec).cdf(xs) - _tight_cdf(spec, xs))) <= 1e-6
        ref = ThreeRuleInverter(spec)
        T0 = 0.25 / np.maximum(np.abs(xs - edge), 2.0 * max(map(abs, spec.alphas)))
        fallback += int(np.sum(ref._stops(T0, xs)[3] == 1))
    assert fallback > 0


class AllocatingInverter(TargetLaw):
    """The CDF inverter with rho, theta and each block as one-line
    formulas, kept as its reference: no array is written in place."""

    def _rho(self, t):
        return np.exp(-0.25 * np.sum(
            np.log1p(4.0 * (self.alphas[:, None] * t[None, :]) ** 2), axis=0))

    def _theta(self, t, x):
        return 0.5 * np.sum(np.arctan(2.0 * self.alphas[:, None] * t[None, :]),
                            axis=0) - t * (x + self.asum)

    def _block(self, a, b, x, nsub):
        owner = np.repeat(np.arange(len(x)), nsub)
        j = np.arange(len(owner)) - np.repeat(np.cumsum(nsub) - nsub, nsub)
        step = ((b - a) / nsub)[owner]
        left = j * step + a[owner]
        right = np.where(j + 1 == nsub[owner], b[owner], (j + 1) * step + a[owner])
        mid = 0.5 * (right + left)
        half = 0.5 * (right - left)
        ts = (mid[:, None] + half[:, None] * montecarlo._GL_NODES[None, :]).ravel()
        ws = (half[:, None] * montecarlo._GL_WEIGHTS[None, :]).ravel()
        point_owner = np.repeat(owner, len(montecarlo._GL_NODES))
        vals = self._rho(ts) * np.sin(self._theta(ts, x[point_owner])) / ts
        return np.bincount(point_owner, weights=ws * vals, minlength=len(x))


@settings(max_examples=25, deadline=None)
@given(hst.lists(hst.integers(-12, 12).filter(bool), min_size=1, max_size=3,
                 unique=True))
def test_target_cdf_is_bitwise_the_allocating_blocks_property(quarters):
    spec = TargetSpec(tuple(q / 4.0 for q in quarters))
    law, ref = TargetLaw(spec), AllocatingInverter(spec)
    edge = -sum(spec.alphas)
    sd = math.sqrt(2.0 * sum(a * a for a in spec.alphas))
    xs = np.linspace(edge - 6.0 * sd, edge + 6.0 * sd, 400)
    # a long call, then shorter ones on the same law
    assert np.array_equal(law.cdf(xs), ref.cdf(xs))
    for pts in (xs[::37], xs[200:201]):
        assert np.array_equal(law.cdf(pts), ref.cdf(pts))
    # one panel of about 8 000 subpanels, 1.3e5 quadrature points: a block
    # of its own, longer than _BLOCK_POINTS
    zero, one = np.zeros(1), np.ones(1)
    far = np.array([edge + 0.5 * sum(math.atan(2.0 * a) for a in spec.alphas)
                    - 5e4])
    assert np.array_equal(law._panels(zero, one, far), ref._panels(zero, one, far))
    assert np.array_equal(law.cdf(xs[::3]), ref.cdf(xs[::3]))


def _quadrature_points(inverter_cls, spec, xs):
    """Quadrature points the inverter evaluates to invert the CDF at xs."""
    count = 0
    block = TargetLaw._block

    def counting(self, a, b, x, nsub):
        nonlocal count
        count += int(np.sum(nsub)) * 16
        return block(self, a, b, x, nsub)

    with mock.patch.object(TargetLaw, "_block", counting):
        inverter_cls(spec).cdf(xs)
    return count


@pytest.mark.parametrize("scenario", sorted(shipped_scenarios()))
def test_target_cdf_uses_under_035_of_the_quarter_turn_work(scenario):
    spec = load_config(shipped_scenarios()[scenario]).target
    xs = np.quantile(sample_target(spec, 20_000, 5).values,
                     np.linspace(0.0, 1.0, 400))
    new = _quadrature_points(TargetLaw, spec, xs)
    old = _quadrature_points(QuarterTurnInverter, spec, xs)
    assert new <= 0.35 * old, (new, old)


@pytest.mark.parametrize("alphas", [(1.0,), (1.0, 2.0), (0.5, -0.5)])
def test_third_tail_term_cuts_the_work_of_a_1600_point_call_by_1_4(alphas):
    spec = TargetSpec(alphas)
    xs = np.quantile(sample_target(spec, 200_000, 12).values,
                     np.linspace(0.0, 1.0, 1600))
    work = []
    for law in (TargetLaw(spec), TwoTermInverter(spec)):
        law.cdf(xs)
        work.append(law.take_diagnostics()["quadrature_points"])
    assert 1.4 * work[0] <= work[1], work


def test_a_panel_of_up_to_4_pi_of_phase_is_one_subpanel():
    # on [0, 1] the phase change is |arctan(2) / 2 - (x + 1)|; past 4 pi a
    # panel gets one subpanel per 2 pi
    inv = TargetLaw(TargetSpec((1.0,)))
    for phase, nsub in ((1e-3, 1), (2.0 * math.pi + 0.1, 1),
                        (4.0 * math.pi - 1e-9, 1), (4.0 * math.pi + 1e-9, 3),
                        (6.0 * math.pi + 0.1, 4)):
        x = np.array([0.5 * math.atan(2.0) - 1.0 - phase])
        inv._panels(np.zeros(1), np.ones(1), x)
        work = inv.take_diagnostics()
        assert work["max_subpanels"] == nsub, phase
        assert work["quadrature_points"] == 16 * nsub


def test_subpanel_guard_trips_above_2e5_pi_of_phase():
    # one subpanel per 2 pi: 1e5 subpanels cover 2e5 pi rad.  The quarter-turn
    # rule's limit of 4e5 subpanels tripped at the same phase.
    inv = TargetLaw(TargetSpec((1.0,)))
    # on [0, 1] the phase change is |arctan(2) / 2 - (x + 1)|
    x_below, x_above = (0.5 * math.atan(2.0) - 1.0 - (2e5 * math.pi + s)
                        for s in (-1.0, 1.0))
    zeros, ones = np.zeros(1), np.ones(1)
    assert np.isfinite(inv._panels(zeros, ones, np.array([x_below]))).all()
    with pytest.raises(NumericalError,
                       match=rf"at x={re.escape(f'{x_above:g}')} would need "
                             r"100001 subpanels"):
        inv._panels(np.zeros(2), np.ones(2), np.array([x_below, x_above]))


def test_target_cdf_guards_raise_numerical_error():
    spec = TargetSpec((1.0, 2.0))
    with mock.patch.object(montecarlo, "_MAX_DOUBLINGS", 2), \
            pytest.raises(NumericalError, match=r"x=0\.3\b"):
        TargetLaw(spec).cdf(np.array([0.3, 1.7]))
    inv = TargetLaw(spec)
    with pytest.raises(NumericalError, match=r"at x=5\b.*subpanels"):
        inv._panels(np.array([0.0, 0.0]), np.array([1.0, 1e6]),
                    np.array([1.0, 5.0]))


def test_target_cdf_memory_is_flat_in_the_number_of_points(peak_mb):
    # the stop search and the panel list run on chunks of points; one flat
    # list of every point's panels took about 790 MB here, chunks of 4 096
    # points 13.5 MB, chunks whose panels fit one block of 2^16 points
    # 11.7 MB, with blocks of 2^15 points 9.0 MB, and 8.6 MB while cdf held
    # three more arrays of every point besides the values; 4.0 MB without
    spec = TargetSpec((1.0, -0.6, 2.2))
    xs = sample_target(spec, 200_000, 51).values
    assert peak_mb(lambda: TargetLaw(spec).cdf(xs)) < 5.0


def test_target_cdf_phase_pass_is_bounded_by_the_chunk(peak_mb):
    # points within 1 of -sum a take the most doublings, so a chunk holds
    # the most panels, and the phase pass takes theta at both ends of all
    # of them in (k, panels) work arrays.  Chunks of 4 096 points, whose
    # panels went through that pass in slices of 4 096, peaked at 14.8 MB;
    # chunks of 1 008 points, at most 65 520 panels, at 12.0 MB, and chunks
    # of 504 points, at most 32 760 panels, at 9.1 MB, or 8.8 MB while cdf
    # held three more arrays of every point besides the values; 4.2 MB
    # without.
    spec = TargetSpec((1.0, -0.6, 2.2))
    xs = np.linspace(-3.6, -1.6, 200_000)
    assert peak_mb(lambda: TargetLaw(spec).cdf(xs)) < 5.0


def _product_normal_cdf(x, a):
    """P(a (N_1^2 - N_2^2) <= x): the law of 2 a U V for independent
    standard normals U, V, so 2 int_0^inf phi(v) Phi(x / (2 a v)) dv."""
    y = x / (2.0 * a)
    value, _ = integrate.quad(lambda v: st.norm.pdf(v) * special.ndtr(y / v),
                              0.0, 40.0, points=[abs(y)] if 0 < abs(y) < 40 else None,
                              epsabs=1e-13, epsrel=1e-13, limit=500)
    return 2.0 * value


def _chi2_12_cdf(x):
    """P(N_1^2 + 2 N_2^2 - 3 <= x) = int phi(z) erf(sqrt((x + 3 - 2 z^2) / 2)) dz
    over 2 z^2 < x + 3."""
    edge = math.sqrt((x + 3.0) / 2.0)
    value, _ = integrate.quad(
        lambda z: st.norm.pdf(z) * special.erf(math.sqrt(max(0.0, (x + 3.0 - 2.0 * z * z) / 2.0))),
        0.0, edge, epsabs=1e-13, epsrel=1e-13, limit=500)
    return 2.0 * value


@pytest.mark.parametrize("a", [0.25, 0.5, 1.5])
def test_target_cdf_product_normal_oracle(a):
    # -sum a = 0 is where theta' -> 0; the standard deviation is 2a
    xs = np.array([-13.0 * a, -3.0 * a, -1e-7, 0.0, 1e-7, 5e-7, 0.4 * a,
                   2.0 * a, 13.0 * a, 20.0 * a])
    got = TargetLaw(TargetSpec((a, -a))).cdf(xs)
    want = np.array([_product_normal_cdf(x, a) for x in xs])
    assert np.max(np.abs(got - want)) < 1e-6


def test_target_cdf_chi2_12_oracle_to_the_edge_and_beyond_6_sd():
    # support edge -3; the standard deviation is sqrt(10)
    xs = np.array([-3.0 + 1e-7, -3.0 + 5e-7, -3.0 + 1e-6, -2.9, -1.0, 0.0,
                   2.0, 8.0, 20.0, 30.0, 45.0])
    got = TargetLaw(TargetSpec((1.0, 2.0))).cdf(xs)
    want = np.array([_chi2_12_cdf(x) for x in xs])
    assert np.max(np.abs(got - want)) < 1e-6


def _tight_cdf(spec, xs):
    """The CDF with the stop tolerance at 1e-10 instead of 1e-6."""
    with mock.patch.object(montecarlo, "_TOL", 1e-10):
        return TargetLaw(spec).cdf(xs)


@settings(max_examples=30, deadline=None)
@given(hst.lists(hst.integers(-12, 12).filter(bool), min_size=1, max_size=3,
                 unique=True))
def test_target_cdf_is_within_1e_6_of_a_tight_tolerance_property(quarters):
    spec = TargetSpec(tuple(q / 4.0 for q in quarters))
    edge = -sum(spec.alphas)
    sd = math.sqrt(2.0 * sum(a * a for a in spec.alphas))
    # at x = -sum a +- 1e-3, theta' -> 1e-3: only the envelope bound can stop
    # the point until T is about 2e4
    xs = np.concatenate([np.linspace(edge - 6.0 * sd, edge + 6.0 * sd, 41),
                         [edge - 1e-3, edge + 1e-3]])
    assert np.max(np.abs(TargetLaw(spec).cdf(xs) - _tight_cdf(spec, xs))) <= 1e-6


def test_target_cdf_light_tail_is_within_1e_6_of_a_tight_tolerance():
    # far in this tail the two-term stop left values that fell by a few
    # 1e-10 from point to point, within the bound
    spec = TargetSpec((-3.0, -2.75, 0.25))
    xs = np.linspace(10.0, 30.0, 81)
    assert np.max(np.abs(TargetLaw(spec).cdf(xs) - _tight_cdf(spec, xs))) <= 1e-6


def _h(alphas, x, t):
    """h = (env/theta')'/theta' with env = rho/t, from the closed forms of
    theta' and rho'/rho: the second tail term's coefficient."""
    a = np.asarray(alphas)[:, None]
    q = 1.0 / (1.0 + 4.0 * (a * t) ** 2)
    dtheta = np.sum(a * q, axis=0) - (x + float(np.sum(alphas)))
    d2theta = -8.0 * t * np.sum(a ** 3 * q ** 2, axis=0)
    env = np.exp(-0.25 * np.sum(np.log1p(4.0 * (a * t) ** 2), axis=0)) / t
    denv = env * (-2.0 * t * np.sum(a ** 2 * q, axis=0) - 1.0 / t)
    return (denv * dtheta - env * d2theta) / dtheta ** 3


def _u(alphas, x, t):
    """u = h'/theta', with h' by a complex step of :func:`_h`: the three
    tail terms leave out -int_T^inf u' cos theta."""
    a = np.asarray(alphas)[:, None]
    dtheta = np.sum(a / (1.0 + 4.0 * (a * t) ** 2), axis=0) - (x + sum(alphas))
    step = 1e-30 * t
    return _h(alphas, x, t + 1j * step).imag / step / dtheta


def test_tail_bound_is_u_at_t_where_u_is_monotone_beyond_it():
    rng = np.random.default_rng(52)
    finite = 0
    for _ in range(300):
        k = int(rng.integers(1, 9))
        alphas = tuple(rng.uniform(0.05, 3.0, k) * rng.choice([-1.0, 1.0], k))
        law = TargetLaw(TargetSpec(alphas))
        x = -sum(alphas) + rng.normal() * 10.0 ** rng.uniform(-3, 2)
        T = 10.0 ** rng.uniform(-2, 4)
        tail, bound, rule = law._tails(np.array([T]), np.array([x]))
        if tail[0] == 0.0:
            assert rule[0] == 0
            continue  # the envelope bound
        assert rule[0] == 1
        # |theta'(T)| T >= 20 then already shows u monotone for k <= 2
        if k <= 2:
            assert np.isfinite(bound[0])
        if np.isfinite(bound[0]):
            finite += 1
            u = _u(alphas, x, T * np.logspace(0.0, 6.0, 4000))
            assert bound[0] == pytest.approx(abs(u[0]), rel=1e-11)
            # u -> 0, so monotone means it moves toward 0 throughout
            assert np.all(np.diff(u) * np.sign(u[0]) <= 1e-12 * np.max(np.abs(u)))
    assert finite > 50


def test_three_term_monotonicity_constants():
    # -L >= lam (lam+1) (lam+2) - (3 lam + 2) P - 9 P/16, P = 2 (lam - 1),
    # stays above 0.56 (lam+1) (lam+2) for lam >= 1, and the terms in w_j
    # stay below 0.53 (lam+1) (lam+2) for e <= 1/25
    lam = np.polynomial.Polynomial([0.0, 1.0])
    P = 2.0 * (lam - 1.0)
    gap = (lam * (lam + 1.0) * (lam + 2.0) - (3.0 * lam + 2.0) * P - 9.0 * P / 16.0
           - 0.56 * (lam + 1.0) * (lam + 2.0))
    assert gap(1.0) > 0.0
    roots = gap.roots()
    assert not np.any((np.abs(roots.imag) < 1e-9) & (roots.real >= 1.0)), roots
    e = 1.0 / 25.0
    assert 12.0 * e + 30.0 * e ** 2 + 20.0 * e ** 3 < 0.53


@settings(max_examples=20, deadline=None)
@given(hst.lists(hst.integers(-12, 12).filter(bool), min_size=1, max_size=5,
                 unique=True))
def test_three_term_estimate_is_within_its_bound_at_every_rung_property(quarters):
    # at every rung where the three-term bound is used, the estimate is
    # within it of the inversion at 1e-10 (whose own bound is below 1e-10);
    # bounds under 1e-11 are beyond what that reference resolves
    spec = TargetSpec(tuple(q / 4.0 for q in quarters))
    law = TargetLaw(spec)
    edge = -sum(spec.alphas)
    sd = math.sqrt(2.0 * sum(a * a for a in spec.alphas))
    xs = np.concatenate([np.linspace(edge - 6.0 * sd, edge + 6.0 * sd, 13),
                         [edge - 1e-3, edge + 1e-3]])
    T0 = 0.25 / np.maximum(np.abs(xs - edge), 2.0 * max(map(abs, spec.alphas)))
    rungs = np.arange(1, montecarlo._MAX_DOUBLINGS + 1)
    checked = 0
    for x, t0, want in zip(xs, T0, _tight_cdf(spec, xs)):
        tail, bound, rule = law._tails(np.ldexp(t0, rungs), np.full(len(rungs), x))
        bound /= math.pi
        for m in rungs[(rule == 1) & (bound > 1e-11) & (bound < 1e-2)]:
            # the panels [0, T0], [T0, 2 T0], ..., [T0 2^{m-1}, T0 2^m]
            b = np.ldexp(t0, np.arange(m + 1))
            a = np.concatenate([[0.0], b[:-1]])
            integral = np.sum(law._panels(a, b, np.full(m + 1, x)))
            est = 0.5 - (integral + tail[m - 1]) / math.pi
            assert abs(est - want) <= bound[m - 1] + 1e-10 + 1e-13, (x, m)
            checked += 1
    assert checked > 0


@settings(max_examples=30, deadline=None)
@given(hst.lists(hst.integers(-12, 12).filter(bool), min_size=1, max_size=3,
                 unique=True))
def test_stop_rung_is_the_first_rung_whose_bound_is_below_tol_property(quarters):
    # the search skips the rungs below its closed-form start; checking every
    # rung from 1 must find the same first one
    spec = TargetSpec(tuple(q / 4.0 for q in quarters))
    law = TargetLaw(spec)
    edge = -sum(spec.alphas)
    sd = math.sqrt(2.0 * sum(a * a for a in spec.alphas))
    xs = np.concatenate([np.linspace(edge - 6.0 * sd, edge + 6.0 * sd, 41),
                         [edge - 1e-3, edge + 1e-3]])
    T0 = 0.25 / np.maximum(np.abs(xs - edge), 2.0 * max(map(abs, spec.alphas)))
    rung, _, _, _ = law._stops(T0, xs)
    rungs = np.arange(1, montecarlo._MAX_DOUBLINGS + 1)
    for x, t0, m in zip(xs, T0, rung):
        _, bound, _ = law._tails(np.ldexp(t0, rungs), np.full(len(rungs), x))
        assert m == rungs[np.argmax(bound / math.pi < montecarlo._TOL)], x


def _doubling_loop_cdf(law, x):
    """The CDF at one point as the doubling loop summed it: the panel
    [0, T0], then one panel [T, 2T] per doubling, each added to the running
    integral, up to the point's stop rung; kept as the one-pass reference."""
    xs = np.array([x])
    T = 0.25 / np.maximum(np.abs(xs + law.asum), 2.0 * np.max(np.abs(law.alphas)))
    rung, _, _, _ = law._stops(T, xs)
    integral = law._panels(np.zeros(1), T, xs)
    for _ in range(int(rung[0])):
        integral = integral + law._panels(T, 2.0 * T, xs)
        T = 2.0 * T
    tail, _, _ = law._tails(T, xs)
    return float(np.clip(0.5 - (integral + tail) / math.pi, 0.0, 1.0)[0])


@pytest.mark.parametrize("alphas", [(1.0,), (1.0, 2.0), (0.5, -0.5),
                                    (1.0, -0.6, 2.2)])
def test_target_cdf_is_bitwise_the_doubling_loop_to_the_same_rung(alphas):
    spec = TargetSpec(alphas)
    law = TargetLaw(spec)
    xs = np.quantile(sample_target(spec, 20_000, 53).values,
                     np.linspace(0.0, 1.0, 60))
    assert np.array_equal(law.cdf(xs), [_doubling_loop_cdf(law, x) for x in xs])


def test_tail_bound_does_not_count_where_monotonicity_is_not_shown():
    # eight weights with 2 a T near 1 at T = 1: S = sum |a| q is about 2, and
    # (14 + 3k) S < 2 |x + sum a| fails although |theta'(T)| T is about 21
    alphas = tuple(0.5 + 0.01 * i for i in range(8))
    law = TargetLaw(TargetSpec(alphas))
    x = np.array([-sum(alphas) - 19.0])
    tail, bound, _ = law._tails(np.array([1.0]), x)
    assert tail[0] != 0.0 and bound[0] == np.inf
    tail, bound, _ = law._tails(np.array([4.0]), x)
    assert tail[0] != 0.0 and np.isfinite(bound[0])


def test_tail_bound_is_inf_at_t_where_u_is_not_shown_monotone():
    # the eight weights above at T = 2: S is about 0.86, so 26 S < 19 fails
    # and the rung does not count, although the removed two-term rule
    # (14 + 3k) S < 2 |x + sum a| = 38 would have shown h monotone there
    alphas = tuple(0.5 + 0.01 * i for i in range(8))
    law, ref = TargetLaw(TargetSpec(alphas)), TwoTermInverter(TargetSpec(alphas))
    x = np.array([-sum(alphas) - 19.0])
    tail, bound, rule = law._tails(np.array([2.0]), x)
    assert rule[0] == 1 and tail[0] != 0.0 and bound[0] == np.inf
    assert np.isfinite(ref._tails(np.array([2.0]), x)[1][0])
    # at T = 4 u is shown monotone: the third term is -u(T) cos theta(T)
    T = np.array([4.0])
    tail, bound, rule = law._tails(T, x)
    two, _, _ = ref._tails(T, x)
    u = _u(alphas, x[0], T)
    assert rule[0] == 1 and bound[0] == pytest.approx(abs(u[0]), rel=1e-11)
    third = -u[0] * math.cos(law._theta(T, x)[0])
    assert tail[0] - two[0] == pytest.approx(third, rel=1e-9)


def test_target_cdf_stops_on_a_remainder_bound_below_tol():
    law = TargetLaw(TargetSpec((1.0, -0.6, 2.2)))
    xs = np.linspace(-20.0, 30.0, 300)
    law.cdf(xs)
    work = law.take_diagnostics()
    assert work["points"] == 300
    assert 0.0 < work["max_bound"] < montecarlo._TOL
    assert 0 < work["max_doublings"] <= montecarlo._MAX_DOUBLINGS
    assert 0 < work["max_subpanels"] <= montecarlo._MAX_SUBPANELS
    assert work["quadrature_points"] % len(montecarlo._GL_NODES) == 0
    assert set(work["stopped_on"]) == set(montecarlo._STOP_RULES)
    assert sum(work["stopped_on"].values()) == 300
    assert work["stopped_on"]["three_terms"] > 250
    # taking the counts starts them afresh
    assert law.take_diagnostics()["points"] == 0


def test_target_cdf_rejects_non_finite_points():
    law = TargetLaw(TargetSpec((1.0, 2.0)))
    assert law.cdf(-np.inf) == 0.0
    with pytest.raises(ValueError, match="finite"):
        law.cdf(np.array([0.0, np.nan]))
    with pytest.raises(ValueError, match="finite"):
        law.cdf(np.inf)


def test_sampling_isometry():
    # k2 of a sampled expansion sits on sum_q q! ||f_q||^2
    rng = np.random.default_rng(33)
    kernels = {1: random_kernel(1, 3, rng).coeffs,
               2: random_kernel(2, 3, rng).coeffs}
    F = ChaosExpansion(3, kernels)
    truth = sum(math.factorial(q) * float(np.sum(F.kernel(q) ** 2))
                for q in (1, 2))
    batch = sample_chaos(F, 500_000, 9)
    k = k_statistics(batch, 2)
    se = k_statistic_errors(batch, 2)
    assert abs(k[1] - truth) < 4 * se[1]


def test_batch_immutable():
    batch = sample_target(TargetSpec((1.0,)), 10, 5)
    with pytest.raises(ValueError):
        batch.values[0] = 0.0
