"""Backend tests: stable reductions, per-op gradients, tape behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import composites
from chartlm import autodiff as ad
from chartlm.autodiff import Parameter, Tensor

# frozen from a 50-digit mpmath evaluation
SOFTMAX_123 = np.array([0.090030573170380457998,
                        0.24472847105479765247,
                        0.66524095577482188953])
LSE_50_51 = 51.313261687518222834


def softmax_stable(x):
    """Max-subtracted softmax of a 1-D vector; errors on empty input."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ValueError("empty distribution")
    return ad.softmax_np(x, axis=-1)


def log_sum_exp(a, b):
    """Pairwise log(exp(a) + exp(b)); total on -inf inputs."""
    return float(np.logaddexp(a, b))


# ---------------------------------------------------------------------------
# stable softmax / log-sum-exp scalar kernels
# ---------------------------------------------------------------------------

def test_softmax_symmetry():
    np.testing.assert_allclose(softmax_stable(np.array([0.0, 0.0])), [0.5, 0.5],
                               rtol=0, atol=1e-15)


def test_softmax_shift_invariance_no_overflow():
    out = softmax_stable(np.array([1000.0, 1000.0, 1000.0]))
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out, [1 / 3] * 3, atol=1e-15)


def test_softmax_reference_values():
    np.testing.assert_allclose(softmax_stable(np.array([1.0, 2.0, 3.0])),
                               SOFTMAX_123, rtol=0, atol=1e-15)


def test_softmax_empty_errors():
    with pytest.raises(ValueError, match="empty distribution"):
        softmax_stable(np.array([]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-300, 300, allow_nan=False), min_size=1, max_size=200))
def test_softmax_is_distribution(xs):
    out = softmax_stable(np.array(xs))
    assert np.all(out >= 0)
    assert abs(out.sum() - 1.0) < 1e-6


def test_softmax_long_vector_sums_to_one():
    out = softmax_stable(np.linspace(-50, 50, 10 ** 4))
    assert abs(out.sum() - 1.0) < 1e-6


def test_log_sum_exp_identities():
    assert log_sum_exp(-np.inf, 0.0) == 0.0
    assert log_sum_exp(0.0, -np.inf) == 0.0
    assert log_sum_exp(-np.inf, -np.inf) == -np.inf
    np.testing.assert_allclose(log_sum_exp(0.0, 0.0), np.log(2), atol=1e-15)
    np.testing.assert_allclose(log_sum_exp(50.0, 51.0), LSE_50_51, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.floats(-1e6, 1e6, allow_nan=False), st.floats(-1e6, 1e6, allow_nan=False))
def test_log_sum_exp_bounds(a, b):
    out = log_sum_exp(a, b)
    assert max(a, b) <= out <= max(a, b) + np.log(2) + 1e-12


# ---------------------------------------------------------------------------
# tape: trivial gradients, determinism
# ---------------------------------------------------------------------------

def test_grad_of_sum_is_ones():
    p = Parameter("p", np.arange(6.0).reshape(2, 3))
    ad.tsum(p).backward()
    np.testing.assert_array_equal(p.grad, np.ones((2, 3)))


def test_grad_of_zero_times_param_is_zero():
    p = Parameter("p", np.arange(4.0))
    ad.tsum(p * 0.0).backward()
    np.testing.assert_array_equal(p.grad, np.zeros(4))


def test_backward_without_seed_requires_scalar():
    p = Parameter("p", np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="scalar"):
        (p * 2.0).backward()


def test_forward_determinism_bit_identical():
    def run():
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((4, 8)))
        w = Tensor(rng.standard_normal((8, 8)))
        return ad.tsum(ad.softmax(ad.matmul(x, w), axis=-1) * x.data[:, :8]).item()

    assert run() == run()


def test_grad_accumulates_across_uses():
    p = Parameter("p", np.array([2.0, 3.0]))
    (ad.tsum(p * p) + ad.tsum(p)).backward()
    np.testing.assert_allclose(p.grad, 2 * p.data + 1)


def test_no_grad_suppresses_tape():
    p = Parameter("p", np.array([1.0, 2.0]))
    with ad.no_grad():
        out = ad.tsum(p * p)
    assert not out.requires_grad
    assert out._prev == ()


# ---------------------------------------------------------------------------
# per-op finite-difference checks on random small shapes
# ---------------------------------------------------------------------------

def _check(build, params, seed=0, tol=1e-6):
    report = ad.gradient_check(build, params, np.random.default_rng(seed),
                               samples_per_param=6)
    worst = max(report.values())
    assert worst < tol, report


def test_elementwise_op_gradients():
    rng = np.random.default_rng(0)
    a = Parameter("a", rng.standard_normal((3, 4)) + 2.5)  # keep b / a away from a = 0
    b = Parameter("b", rng.standard_normal((3, 4)))

    cases = {
        "add": lambda: ad.tsum(a + b),
        "sub": lambda: ad.tsum(a - b),
        "mul": lambda: ad.tsum(a * b),
        "div": lambda: ad.tsum(b / a),
        "tanh": lambda: ad.tsum(composites.tanh(b)),
        "sigmoid": lambda: ad.tsum(composites.sigmoid(b)),
        "gelu": lambda: ad.tsum(ad.gelu(b)),
        "mean": lambda: ad.tmean(a * b),
    }
    for name, build in cases.items():
        _check(build, [a, b])


def test_broadcast_gradients():
    rng = np.random.default_rng(1)
    a = Parameter("a", rng.standard_normal((3, 4)))
    b = Parameter("b", rng.standard_normal((4,)))
    _check(lambda: ad.tsum(a * b + b), [a, b])


def test_shape_op_gradients():
    rng = np.random.default_rng(2)
    a = Parameter("a", rng.standard_normal((2, 3, 4)))
    cases = [
        lambda: ad.tsum(ad.reshape(a, (6, 4)) * 1.5),
        lambda: ad.tsum(ad.transpose(a, (2, 0, 1)) * 2.0),
        lambda: ad.tsum(ad.broadcast_to(ad.reshape(a, (2, 3, 4, 1)), (2, 3, 4, 2))),
        lambda: ad.tsum(a[1, 0:2] * 3.0),
    ]
    for build in cases:
        _check(build, [a])


def test_gather_duplicate_indices_gradient():
    rng = np.random.default_rng(3)
    a = Parameter("a", rng.standard_normal((5, 3)))
    idx = np.array([0, 2, 2, 4, 0, 0])
    w = rng.standard_normal((6, 3))
    _check(lambda: ad.tsum(ad.gather(a, idx) * w), [a])
    a.grad = None  # duplicate rows must sum, not overwrite
    ad.tsum(ad.gather(a, idx)).backward()
    np.testing.assert_array_equal(a.grad[:, 0], [3.0, 0.0, 2.0, 0.0, 1.0])


def test_take_pairs_gradient():
    rng = np.random.default_rng(4)
    a = Parameter("a", rng.standard_normal((4, 5)))
    rows = np.array([0, 1, 3, 3])
    cols = np.array([2, 2, 0, 4])
    _check(lambda: ad.tsum(ad.gather(a, (rows, cols)) * np.array([1.0, -2, 3, 0.5])), [a])


def test_concat_stack_gradients():
    rng = np.random.default_rng(5)
    a = Parameter("a", rng.standard_normal((2, 3)))
    b = Parameter("b", rng.standard_normal((2, 3)))
    w6 = rng.standard_normal((4, 3))
    _check(lambda: ad.tsum(ad.concat([a, b], axis=0) * w6), [a, b])
    w7 = rng.standard_normal((2, 2, 3))
    _check(lambda: ad.tsum(ad.stack([a, b], axis=0) * w7), [a, b])


def test_concat_stack_axis_1_gradients():
    rng = np.random.default_rng(10)
    a = Parameter("a", rng.standard_normal((2, 3)))
    b = Parameter("b", rng.standard_normal((2, 1)))
    c = Parameter("c", rng.standard_normal((2, 3)))
    w = rng.standard_normal((2, 7))
    _check(lambda: ad.tsum(ad.concat([a, b, c], axis=1) * w), [a, b, c])
    w = rng.standard_normal((2, 2, 3))
    _check(lambda: ad.tsum(ad.stack([a, c], axis=1) * w), [a, c])


@pytest.mark.parametrize("as_array", [True, False], ids=["array", "tensor"])
@pytest.mark.parametrize("param_first", [True, False], ids=["param_first", "const_first"])
@pytest.mark.parametrize("op", ["add", "sub", "mul", "div", "matmul"])
def test_constant_operand_gets_no_grad(op, param_first, as_array):
    rng = np.random.default_rng(11)
    p = Parameter("p", rng.standard_normal((3, 3)) + 3.0)
    data = rng.standard_normal((3, 3)) + 3.0
    const = data if as_array else Tensor(data)
    operands = (p, const) if param_first else (const, p)
    w = rng.standard_normal((3, 3))
    _check(lambda: ad.tsum(getattr(ad, op)(*operands) * w), [p])
    p.grad = None
    out = getattr(ad, op)(*operands)
    ad.tsum(out * w).backward()
    assert p.grad is not None
    assert out._prev[1 if param_first else 0].grad is None


def test_matmul_gradient():
    rng = np.random.default_rng(6)
    a = Parameter("a", rng.standard_normal((3, 4)))
    b = Parameter("b", rng.standard_normal((4, 2)))
    w = rng.standard_normal((3, 2))
    _check(lambda: ad.tsum(ad.matmul(a, b) * w), [a, b])
    # batched
    c = Parameter("c", rng.standard_normal((2, 3, 4)))
    d = Parameter("d", rng.standard_normal((2, 4, 5)))
    wb = rng.standard_normal((2, 3, 5))
    _check(lambda: ad.tsum(ad.matmul(c, d) * wb), [c, d])


def test_softmax_family_gradients():
    rng = np.random.default_rng(7)
    a = Parameter("a", rng.standard_normal((3, 5)) * 3)
    w = rng.standard_normal((3, 5))
    _check(lambda: ad.tsum(ad.softmax(a, axis=-1) * w), [a])
    _check(lambda: ad.tsum(ad.log_softmax(a, axis=-1) * w), [a])


def test_softmax_handles_minus_inf_pads():
    x = Tensor(np.array([[0.0, -np.inf, 1.0]]))
    out = ad.softmax(x, axis=-1)
    assert out.data[0, 1] == 0.0
    np.testing.assert_allclose(out.data[0, [0, 2]],
                               softmax_stable(np.array([0.0, 1.0])), atol=1e-15)


def test_layer_norm_gradient():
    rng = np.random.default_rng(8)
    x = Parameter("x", rng.standard_normal((4, 6)))
    g = Parameter("g", rng.standard_normal(6) + 1.0)
    b = Parameter("b", rng.standard_normal(6))
    w = rng.standard_normal((4, 6))
    _check(lambda: ad.tsum(composites.layer_norm(x, g, b) * w), [x, g, b])


def test_gather_mixed_key_gradient():
    # run_stack reads one compose slot of a (pairs, 3, d) block this way
    rng = np.random.default_rng(9)
    a = Parameter("a", rng.standard_normal((4, 3, 5)))
    w = rng.standard_normal((4, 5))
    _check(lambda: ad.tsum(ad.gather(a, (slice(None), 1, slice(None))) * w), [a])


def test_basic_key_gather_returns_a_copy():
    src = np.arange(12.0).reshape(3, 4)
    out = ad.gather(Tensor(src), (slice(None), 1))
    src[:, 1] = -1.0
    np.testing.assert_array_equal(out.data, [1.0, 5.0, 9.0])


def test_index_scatter_backward():
    p = Parameter("p", np.arange(12.0).reshape(3, 4))
    ad.tsum(p[1] * np.array([1.0, 2, 3, 4])).backward()
    expect = np.zeros((3, 4))
    expect[1] = [1, 2, 3, 4]
    np.testing.assert_array_equal(p.grad, expect)


@pytest.mark.parametrize("key", [(slice(None), 1), (slice(None), 1, slice(1, 4)), 2,
                                 (np.int64(1), slice(None))])
def test_basic_key_scatter_has_the_bits_of_add_at(key):
    # a basic read scatters with `full[key] += g`: the same 0 + g per
    # element as np.add.at, so -0.0 becomes +0.0 on both paths
    a = Parameter("a", np.ones((3, 3, 5), dtype=np.float32))
    g = np.random.default_rng(10).standard_normal(a.data[key].shape).astype(np.float32)
    g.reshape(-1)[::3] = -0.0
    ad.gather(a, key).backward(g)
    expect = np.zeros_like(a.data)
    np.add.at(expect, key, g)
    assert a.grad.tobytes() == expect.tobytes()
    assert not np.signbit(a.grad[a.grad == 0]).any()


# ---------------------------------------------------------------------------
# the plain-array formulas' shortcuts keep numpy's bits
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_grad_from_the_forward_equals_the_erf_formula(dtype):
    from math import pi, sqrt

    from scipy.special import erf
    x = (np.random.default_rng(11).standard_normal(20000) * 3).astype(dtype)
    x[:4] = [0.0, -0.0, 8.0, -8.0]
    out, e = ad.gelu_np(x)
    ref = 0.5 * (1.0 + erf(x / sqrt(2.0))) + x * (1.0 / sqrt(2.0 * pi)) * np.exp(-0.5 * x * x)
    assert ad.gelu_grad(x, e).dtype == dtype
    assert ad.gelu_grad(x, e).tobytes() == ref.tobytes()
    assert out.tobytes() == (0.5 * x * (1.0 + erf(x / sqrt(2.0)))).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(3,), (1, 3), (7, 3), (1, 4, 3, 3), (30, 4, 3, 3)])
def test_width_3_softmax_has_the_bits_of_the_reductions(shape, dtype):
    rng = np.random.default_rng(12)
    x = (rng.standard_normal((200,) + shape) * 4).astype(dtype)
    x[:50, ..., 1:] = np.where(rng.random(x[:50, ..., 1:].shape) < 0.5, -np.inf,
                               x[:50, ..., 1:])
    x[50:60] = -np.inf
    m = np.max(x, axis=-1, keepdims=True)
    e = np.exp(x - np.where(np.isfinite(m), m, 0.0))
    with np.errstate(invalid="ignore"):
        assert ad.softmax_np(x).tobytes() == (e / e.sum(axis=-1, keepdims=True)).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(1, 64), (9, 64), (2, 3, 64), (5, 7)])
def test_layer_norm_means_have_the_bits_of_np_mean(shape, dtype):
    rng = np.random.default_rng(13)
    x = (rng.standard_normal(shape) * 3 + 1).astype(dtype)
    gain, bias = np.ones(shape[-1], dtype), np.zeros(shape[-1], dtype)
    xc = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + ad.LAYER_NORM_EPS)
    _, xhat, inv_np = ad.layer_norm_np(x, gain, bias)
    assert inv_np.tobytes() == inv.tobytes()
    assert xhat.tobytes() == (xc * inv).tobytes()
