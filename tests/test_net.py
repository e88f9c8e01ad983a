import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairexperts.net import (
    APPLY_BLOCK,
    Layer,
    Mlp,
    TrainingDivergence,
    init_mlp,
    log_softmax,
    row_blocks,
    sgd_step,
    softmax_cross_entropy,
)

from helpers import central_difference, max_relative_error


def test_identity_layer_passes_input_through():
    net = Mlp([Layer(np.eye(3), np.zeros(3), "identity")])
    x = np.array([[0.5, -1.0, 2.0]])
    out, _ = net.forward(x)
    assert np.array_equal(out, x)


def test_relu_zeroes_negative_preactivations():
    net = Mlp([Layer(np.eye(2), np.array([-5.0, -5.0]), "relu")])
    out, _ = net.forward(np.array([[1.0, 2.0]]))
    assert np.array_equal(out, np.zeros((1, 2)))


def test_two_layer_forward_matches_hand_computation():
    # x=(1,0): z1 = W1 x + b1 = (1.5, 2.5, 0), relu keeps all,
    # out = 1*1.5 - 1*2.5 + 2*0 + 0.25 = -0.75
    w1 = np.array([[1.0, 2.0], [3.0, 4.0], [0.0, -1.0]])
    b1 = np.array([0.5, -0.5, 0.0])
    w2 = np.array([[1.0, -1.0, 2.0]])
    b2 = np.array([0.25])
    net = Mlp([Layer(w1, b1, "relu"), Layer(w2, b2, "identity")])
    out, _ = net.forward(np.array([[1.0, 0.0]]))
    assert out.shape == (1, 1)
    assert out[0, 0] == pytest.approx(-0.75, abs=1e-15)


def test_forward_rejects_wrong_dimension():
    net = Mlp([Layer(np.eye(3), np.zeros(3), "identity")])
    with pytest.raises(ValueError):
        net.forward(np.zeros((1, 4)))


@pytest.mark.parametrize("shape", [(3,), (2, 1, 3)], ids=["1-d", "3-d"])
def test_forward_accepts_only_a_matrix(shape):
    net = Mlp([Layer(np.eye(3), np.zeros(3), "identity")])
    for cache in (True, False):
        with pytest.raises(ValueError, match=f"2-d matrix, got ndim {len(shape)}"):
            net.forward(np.zeros(shape), cache=cache)


def test_backward_zero_gradient_gives_zero_parameter_gradients():
    rng = np.random.default_rng(0)
    net = init_mlp([3, 4, 2], ["relu", "identity"], rng)
    out, cache = net.forward(rng.standard_normal((5, 3)))
    grads, dx = net.backward(cache, np.zeros_like(out))
    assert all(np.all(g == 0) for g in grads)
    assert np.all(dx == 0)


def test_single_linear_layer_gradient_closed_form():
    # loss = c . out  =>  dW = outer(c, x), db = c
    net = Mlp([Layer(np.zeros((2, 3)), np.zeros(2), "identity")])
    x = np.array([[1.0, -2.0, 0.5]])
    c = np.array([[0.3, -0.7]])
    _, cache = net.forward(x)
    grads, _ = net.backward(cache, c)
    assert np.allclose(grads[0], np.outer(c, x), atol=1e-15)
    assert np.allclose(grads[1], c[0], atol=1e-15)


def test_backward_matches_finite_differences_many_seeds():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        dims = [int(rng.integers(2, 6)) for _ in range(3)]
        net = init_mlp(dims, ["relu", "identity"], rng)
        x = rng.standard_normal((4, dims[0]))
        direction = rng.standard_normal((4, dims[-1]))

        def loss():
            out, _ = net.forward(x)
            return float((out * direction).sum())

        out, cache = net.forward(x)
        grads, _ = net.backward(cache, direction)
        for param, grad in zip(net.params(), grads):
            numeric = central_difference(loss, param)
            assert max_relative_error(grad, numeric) < 1e-4


def test_forward_is_deterministic_bitwise():
    rng = np.random.default_rng(3)
    net = init_mlp([4, 8, 3], ["relu", "identity"], rng)
    x = rng.standard_normal((10, 4))
    a, _ = net.forward(x)
    b, _ = net.forward(x)
    assert np.array_equal(a, b)


BLOCK_ROW_COUNTS = (
    APPLY_BLOCK - 1,
    APPLY_BLOCK,
    APPLY_BLOCK + 1,  # the smallest blocks: 512 + 513 rows
    2000,  # one 2,000-row split of the reference config
    2 * APPLY_BLOCK - 1,
    2 * APPLY_BLOCK,
    2 * APPLY_BLOCK + 1,
    5 * APPLY_BLOCK + 3,
)


def test_forward_without_cache_is_bit_identical_in_blocks():
    rng = np.random.default_rng(21)
    shapes = [([10, 32, 8], ["relu", "identity"]), ([8, 2], ["identity"]),
              ([3, 6, 6, 2], ["relu", "relu", "identity"])]
    for dims, acts in shapes:
        net = init_mlp(dims, acts, rng)
        inputs = [rng.standard_normal((1, dims[0]))]
        inputs += [rng.standard_normal((n, dims[0])) for n in BLOCK_ROW_COUNTS]
        for x in inputs:
            want, _ = net.forward(x)
            got, cache = net.forward(x, cache=False)
            assert cache is None
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 20 * APPLY_BLOCK), st.integers(1, 3 * APPLY_BLOCK))
def test_row_blocks_partition_rows_into_near_equal_blocks_of_at_most_size(rows, size):
    blocks = list(row_blocks(rows, size))
    assert blocks[0].start == 0 and blocks[-1].stop == rows
    for before, after in zip(blocks, blocks[1:]):
        assert before.stop == after.start
    assert len(blocks) == max(math.ceil(rows / size), 1)
    lengths = [b.stop - b.start for b in blocks]
    assert max(lengths) <= size
    if len(blocks) > 1:
        assert 2 * min(lengths) >= size
    assert max(lengths) - min(lengths) <= 1


def test_forward_without_cache_gives_no_block_more_than_apply_block_rows(monkeypatch):
    # with OpenBLAS 0.3.31 a product from about 1,700 rows wakes a worker
    # thread, which then spin-waits; no cache-free block may reach that.
    # Only the block sizes matter here, so the arithmetic is skipped.
    seen = []

    def recorded(self, a, out, saved):
        seen.append(a.shape[0])

    monkeypatch.setattr(Mlp, "_forward_block", recorded)
    net = init_mlp([3, 4, 2], ["relu", "identity"], np.random.default_rng(6))
    x = np.zeros((20 * APPLY_BLOCK, 3))
    for rows in range(20 * APPLY_BLOCK + 1):
        seen.clear()
        net.forward(x[:rows], cache=False)
        assert sum(seen) == rows and max(seen) <= APPLY_BLOCK


def test_forward_without_cache_is_one_public_call(monkeypatch):
    # the blocks go through a private helper, so a wrapper around
    # Mlp.forward (as a tracer installs) sees one call per pass
    calls = []
    original = Mlp.forward

    def counted(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Mlp, "forward", counted)
    net = init_mlp([4, 5, 2], ["relu", "identity"], np.random.default_rng(2))
    net.forward(np.zeros((5 * APPLY_BLOCK + 3, 4)), cache=False)
    assert len(calls) == 1


def test_forward_without_cache_bounds_memory_by_the_output():
    rows, hidden = 50_000, 256
    rng = np.random.default_rng(4)
    net = init_mlp([10, hidden, 8], ["relu", "identity"], rng)
    x = rng.standard_normal((rows, 10))
    tracemalloc.start()
    try:
        out, _ = net.forward(x, cache=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one block's hidden layer plus its matmul temporary; the cached pass
    # holds two rows x hidden arrays (about 200 MB here)
    assert peak < out.nbytes + 2 * APPLY_BLOCK * hidden * 8


def test_backward_without_input_gradient_keeps_parameter_gradients_bit_identical():
    rng = np.random.default_rng(12)
    shapes = [([5, 7, 3], ["relu", "identity"]), ([4, 2], ["identity"]),
              ([3, 6, 6, 2], ["relu", "relu", "identity"])]
    for dims, acts in shapes:
        net = init_mlp(dims, acts, rng)
        for x in (rng.standard_normal((9, dims[0])), rng.standard_normal((1, dims[0]))):
            out, cache = net.forward(x)
            dout = rng.standard_normal(out.shape)
            full, dx = net.backward(cache, dout)
            grads, skipped = net.backward(cache, dout, input_grad=False)
            assert dx.shape == x.shape and skipped is None
            assert len(grads) == len(full)
            for a, b in zip(full, grads):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_relu_at_exact_zero_pre_activations_is_bit_identical_in_every_pass():
    # hidden unit 2 sits at exactly zero on rows 0 and 2, unit 0 on row 0
    w1 = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]])
    b1 = np.array([0.0, -1.0, 0.0])
    w2 = np.array([[0.5, -2.0, 3.0], [1.5, 0.25, -1.0]])
    net = Mlp([Layer(w1, b1, "relu"), Layer(w2, np.array([0.1, -0.2]), "identity")])
    x = np.array([[0.0, 0.0], [2.0, 1.0], [3.0, 3.0], [-1.0, 4.0]])
    dout = np.array([[1.0, -1.0], [0.5, 2.0], [-3.0, 1.0], [0.25, 0.75]])
    for rows, d in ((x, dout), (x[2:3], dout[2:3])):
        # the reference arithmetic: mask the gradient by pre-activation > 0
        z1 = rows @ w1.T + b1
        h = np.maximum(z1, 0.0)
        want_out = h @ w2.T + net.layers[1].bias
        dz1 = (d @ w2) * (z1 > 0.0)
        want = [dz1.T @ rows, np.add.reduce(dz1, axis=0), d.T @ h, np.add.reduce(d, axis=0)]
        want.append(dz1 @ w1)
        out, cache = net.forward(rows)
        uncached, _ = net.forward(rows, cache=False)
        grads, dx = net.backward(cache, d)
        assert (z1 == 0.0).any()
        for got, ref in zip([out, uncached, *grads, dx], [want_out, want_out, *want]):
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def test_backward_rejects_mismatched_cache():
    rng = np.random.default_rng(1)
    net = init_mlp([3, 2], ["identity"], rng)
    _, cache = net.forward(np.zeros((1, 3)))
    with pytest.raises(ValueError):
        net.backward(cache[:0], np.zeros((1, 2)))


def test_backward_rejects_an_output_gradient_of_another_shape():
    # a 1-D gradient of the output width once broadcast into a (2, 6)
    # weight gradient for a (2, 3) weight
    net = init_mlp([3, 2], ["identity"], np.random.default_rng(1))
    out, cache = net.forward(np.ones((2, 3)))
    for dout in (np.ones(2), np.ones((1, 2)), np.ones((2, 2, 1))):
        with pytest.raises(ValueError, match="output gradient has shape"):
            net.backward(cache, dout)
    grads, _ = net.backward(cache, np.ones(out.shape))
    assert [g.shape for g in grads] == [p.shape for p in net.params()]


def test_sgd_zero_gradients_zero_buffers_is_fixed_point():
    rng = np.random.default_rng(2)
    net = init_mlp([3, 2], ["identity"], rng)
    before = [p.copy() for p in net.params()]
    for p in net.params():
        sgd_step(p, np.zeros_like(p), np.zeros_like(p), 0.1, 0.9)
    for p, q in zip(net.params(), before):
        assert np.array_equal(p, q)


def test_sgd_without_momentum_is_plain_gradient_descent():
    rng = np.random.default_rng(2)
    net = init_mlp([3, 2], ["identity"], rng)
    before = [p.copy() for p in net.params()]
    grads = [rng.standard_normal(p.shape) for p in net.params()]
    for p, g in zip(net.params(), grads):
        sgd_step(p, np.zeros_like(p), g, 0.05, 0.0)
    for p, q, g in zip(net.params(), before, grads):
        assert np.allclose(p, q - 0.05 * g, atol=1e-15)


def test_sgd_momentum_two_identical_gradients():
    # buffer after step 1 is g, after step 2 is 1.9 g, so the second
    # displacement is lr * 1.9 * g
    param = np.array([1.0, -1.0])
    velocity = np.zeros(2)
    g = np.array([0.5, 0.25])
    sgd_step(param, velocity, g.copy(), 0.1, 0.9)
    after_first = param.copy()
    sgd_step(param, velocity, g.copy(), 0.1, 0.9)
    assert np.allclose(after_first - param, 0.1 * 1.9 * g, atol=1e-15)


def test_sgd_zero_learning_rate_is_identity():
    rng = np.random.default_rng(4)
    param = rng.standard_normal(5)
    before = param.copy()
    sgd_step(param, np.zeros(5), rng.standard_normal(5), 0.0, 0.9)
    assert np.array_equal(param, before)


def test_sgd_rejects_mismatched_shapes():
    param = np.zeros(2)
    with pytest.raises(ValueError, match="shape"):
        sgd_step(param, np.zeros(2), np.ones(3), 0.1, 0.9)


def test_sgd_rejects_non_finite_gradients():
    param = np.zeros(2)
    with pytest.raises(TrainingDivergence):
        sgd_step(param, np.zeros(2), np.array([1.0, np.nan]), 0.1, 0.9)


def test_softmax_cross_entropy_uniform_logits():
    loss, dlogits = softmax_cross_entropy(np.zeros((2, 4)), np.array([0, 3]))
    assert loss == pytest.approx(math.log(4), abs=1e-15)
    assert dlogits.shape == (2, 4)


def test_softmax_cross_entropy_is_stable_for_huge_logits():
    logits = np.array([[1e4, -1e4, 0.0]])
    loss, dlogits = softmax_cross_entropy(logits, np.array([0]))
    assert np.isfinite(loss) and loss == pytest.approx(0.0, abs=1e-12)
    assert np.all(np.isfinite(dlogits))


def test_log_softmax_rows_normalize():
    rng = np.random.default_rng(9)
    ls = log_softmax(rng.standard_normal((6, 5)) * 10)
    assert np.allclose(np.exp(ls).sum(axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("classes", range(1, 11))
def test_log_softmax_folded_maximum_keeps_the_reduce_bits(classes):
    # ties, signed zeros, infinities and NaN rows, as (n, C) and (n, G, C);
    # at 9 or more columns the fold and the reduce may pick different
    # zeros of a +0/-0 tie, which moves no output bit: the row's sum is
    # then at least 2, so its log is not 0
    rng = np.random.default_rng(classes)
    values = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, 2.5])
    for shape in ((400, classes), (100, 3, classes)):
        logits = rng.choice(values, size=shape)
        logits[:10] = rng.standard_normal(logits[:10].shape)
        logits[10:20] = np.nan
        with np.errstate(invalid="ignore"):
            z = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
            want = z - np.log(np.add.reduce(np.exp(z), axis=-1, keepdims=True))
            assert log_softmax(logits).tobytes() == want.tobytes()


def test_layer_validation():
    with pytest.raises(ValueError):
        Layer(np.zeros((2, 2)), np.zeros(3), "identity")
    with pytest.raises(ValueError):
        Layer(np.zeros((2, 2)), np.zeros(2), "tanh")
    with pytest.raises(ValueError):
        Mlp([Layer(np.zeros((2, 3)), np.zeros(2)), Layer(np.zeros((2, 4)), np.zeros(2))])
