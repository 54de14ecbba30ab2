import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import matmul, mul, stack_rows, sum_all
from coldgraph.autodiff import (
    AdamState,
    Tape,
    Tensor,
    activation,
    adam_step,
    affine,
    backward,
    bce_loss,
    concat_cols,
    const_matmul,
    dropout,
    finite_diff_check,
    parameter,
    record,
    scale,
    sgd_step,
    take_rows,
)


def test_affine_known_values():
    x = Tensor([[1.0, 1.0]])
    w = Tensor([[2.0, 3.0], [4.0, 5.0]])
    b = Tensor([1.0, 1.0])
    out = affine(x, w, b)
    np.testing.assert_allclose(out.data, [[7.0, 9.0]])


def test_affine_shape_mismatch():
    with pytest.raises(ValueError):
        affine(Tensor([[1.0, 2.0]]), Tensor([[1.0], [2.0], [3.0]]), Tensor([0.0]))


def test_sigmoid_known_value():
    out = activation(Tensor([[math.log(3.0)]], dtype=np.float64), "sigmoid")
    np.testing.assert_allclose(out.data, [[0.75]], rtol=1e-12)


def test_sigmoid_strictly_inside_unit_interval():
    for dtype in (np.float32, np.float64):
        out = activation(Tensor([-1000.0, 0.0, 1000.0], dtype=dtype), "sigmoid")
        assert (out.data > 0).all() and (out.data < 1).all()


def test_relu_and_identity():
    x = Tensor([[-2.0, 3.0]])
    np.testing.assert_allclose(activation(x, "relu").data, [[0.0, 3.0]])
    for kind in ("identity", "tanh"):
        with pytest.raises(ValueError, match="unknown activation"):
            activation(x, kind)


def test_bce_known_values():
    # p = 0.5, z = 1 -> ln 2
    loss = bce_loss(Tensor(np.array([[0.5]], dtype=np.float64)), np.array([[1.0]]))
    np.testing.assert_allclose(loss.item(), math.log(2.0), rtol=1e-12)
    loss2 = bce_loss(
        Tensor(np.array([0.5, 0.5], dtype=np.float64)), np.array([1.0, 0.0])
    )
    np.testing.assert_allclose(loss2.item(), math.log(2.0), rtol=1e-12)


def test_bce_perfect_prediction_near_zero():
    p = Tensor(np.array([0.0, 1.0], dtype=np.float64))
    z = np.array([0.0, 1.0])
    assert 0.0 <= bce_loss(p, z).item() <= 1e-6


def test_bce_loss_nonnegative_random():
    rng = np.random.default_rng(0)
    p = Tensor(rng.random((13, 9)))
    z = (rng.random((13, 9)) < 0.3).astype(np.float32)
    assert bce_loss(p, z).item() >= 0.0


def test_backward_square():
    w = parameter(np.array([[3.0]]), dtype=np.float64)
    with Tape() as tape:
        loss = sum_all(mul(w, w))
    grads = backward(tape, loss)
    assert list(grads) == [w]
    np.testing.assert_allclose(grads[w], [[6.0]])


def test_backward_requires_taped_scalar():
    w = parameter([[1.0]])
    with Tape() as tape:
        out = mul(w, w)
    with pytest.raises(ValueError):
        backward(tape, out if out.data.size != 1 else Tensor([[1.0, 2.0]]))
    stray = Tensor(5.0)
    with pytest.raises(ValueError):
        backward(tape, stray)


def test_second_backward_on_consumed_tape_raises():
    w = parameter(np.array([[3.0]]), dtype=np.float64)
    with Tape() as tape:
        loss = sum_all(mul(w, w))
    n = len(tape)
    np.testing.assert_allclose(backward(tape, loss)[w], [[6.0]])
    # the sweep drops every entry but keeps the tape's length
    assert len(tape) == n and all(e is None for e in tape._entries)
    with pytest.raises(ValueError, match="consumed"):
        backward(tape, loss)


def _scale_in_place(x, c):
    """Taped ``c * x`` whose backward overwrites the gradient it receives."""
    def bwd(g, needs):
        g *= c
        return (g,)
    return record(Tensor(x.data * c), (x,), bwd)


def _add_same_grad(a, b):
    """Taped ``a + b`` whose backward returns one array object for both inputs."""
    return record(Tensor(a.data + b.data), (a, b), lambda g, needs: (g, g))


def test_one_gradient_object_for_two_inputs_is_not_shared():
    a = parameter([[1.0, 2.0]], dtype=np.float64)
    b = parameter([[3.0, 4.0]], dtype=np.float64)
    with Tape() as tape:
        loss = sum_all(_add_same_grad(_scale_in_place(a, 3.0), _scale_in_place(b, 5.0)))
    grads = backward(tape, loss)
    np.testing.assert_array_equal(grads[a], [[3.0, 3.0]])
    np.testing.assert_array_equal(grads[b], [[5.0, 5.0]])


def test_untaped_ops_are_pure_forward():
    w = parameter([[2.0]])
    out = mul(w, w)
    # a result computed with no tape active is a constant to any later tape
    with Tape() as tape:
        loss = sum_all(out)
    assert len(tape) == 0 and not tape.produced(out) and not tape.produced(loss)


def test_concat_cols_vectors_and_empty():
    with pytest.raises(ValueError, match="rank-2"):
        concat_cols([Tensor([1.0]), Tensor([2.0])])
    x = Tensor([[1.0, 2.0]])
    empty = Tensor(np.zeros((1, 0)))
    np.testing.assert_allclose(concat_cols([x, empty]).data, x.data)
    with pytest.raises(ValueError):
        concat_cols([x, Tensor([[1.0], [2.0]])])


def test_concat_cols_gradient_splits():
    a = parameter([[1.0, 2.0]])
    b = parameter([[3.0]])
    with Tape() as tape:
        out = concat_cols([a, b])
        loss = sum_all(mul(out, out))
    grads = backward(tape, loss)
    np.testing.assert_allclose(grads[a], [[2.0, 4.0]])
    np.testing.assert_allclose(grads[b], [[6.0]])


def test_take_rows_duplicate_gradient_accumulates():
    x = parameter([[1.0, 2.0], [3.0, 4.0]])
    idx = np.array([0, 0, 1])
    with Tape() as tape:
        loss = sum_all(take_rows(x, idx))
    grads = backward(tape, loss)
    np.testing.assert_allclose(grads[x], [[2.0, 2.0], [1.0, 1.0]])
    with pytest.raises(ValueError):
        take_rows(x, np.array([2]))


def test_stack_rows_round_trip_gradient():
    a = parameter([[1.0, 2.0]])
    b = parameter([[3.0, 4.0], [5.0, 6.0]])
    with Tape() as tape:
        out = stack_rows([a, b])
        loss = sum_all(mul(out, out))
    grads = backward(tape, loss)
    np.testing.assert_allclose(grads[a], 2 * a.data)
    np.testing.assert_allclose(grads[b], 2 * b.data)


def test_const_matmul_sparse_matches_dense():
    rng = np.random.default_rng(5)
    dense = (rng.random((4, 3)) < 0.5) * rng.normal(size=(4, 3))
    m = sp.csr_matrix(dense)
    x = parameter(rng.normal(size=(3, 2)), dtype=np.float64)
    with Tape() as tape:
        loss = sum_all(const_matmul(m, x))
    grads = backward(tape, loss)
    expected = dense.T @ np.ones((4, 2))
    np.testing.assert_allclose(grads[x], expected, rtol=1e-12)
    np.testing.assert_allclose(const_matmul(m, x).data, dense @ x.data, rtol=1e-12)


def test_scale_and_sum_all():
    x = parameter([[1.0, -2.0]])
    with Tape() as tape:
        loss = sum_all(scale(x, 2.5))
    grads = backward(tape, loss)
    np.testing.assert_allclose(grads[x], [[2.5, 2.5]])


def test_dropout_zero_probability_is_identity():
    x = parameter([[1.0, 2.0]])
    rng = np.random.default_rng(0)
    assert dropout(x, 0.0, rng) is x
    out = dropout(x, 0.5, np.random.default_rng(1))
    kept = out.data != 0
    np.testing.assert_allclose(out.data[kept], (x.data * 2.0)[kept])


def test_rank_limit_enforced():
    with pytest.raises(ValueError):
        Tensor(np.zeros((2, 2, 2)))


def test_adam_first_step_approximates_signed_lr():
    for g in (0.31, -4.2):
        p = parameter(np.array([1.0]))
        state = AdamState(lr=1e-3)
        adam_step({"p": p}, {"p": np.array([g], dtype=np.float32)}, state)
        delta = float(p.data[0]) - 1.0
        assert abs(delta + 1e-3 * math.copysign(1.0, g)) < 1e-6
        assert state.t == 1


def test_adam_zero_gradient_fresh_state_no_move():
    p = parameter(np.array([2.0, -3.0]))
    before = p.data.copy()
    state = AdamState()
    adam_step({"p": p}, {"p": np.zeros(2, dtype=np.float32)}, state)
    assert state.t == 1
    np.testing.assert_array_equal(p.data, before)


def test_adam_zero_lr_bitwise_identity():
    rng = np.random.default_rng(9)
    p = parameter(rng.normal(size=(3, 2)))
    raw = p.data.tobytes()
    state = AdamState(lr=0.0)
    adam_step({"p": p}, {"p": rng.normal(size=(3, 2)).astype(np.float32)}, state)
    assert p.data.tobytes() == raw


def test_adam_deterministic_given_state():
    def run():
        rng = np.random.default_rng(11)
        p = parameter(rng.normal(size=(4, 4)))
        state = AdamState(lr=1e-2)
        for _ in range(5):
            adam_step({"p": p}, {"p": rng.normal(size=(4, 4)).astype(np.float32)}, state)
        return p.data.tobytes()

    assert run() == run()


def test_adam_gradient_shape_mismatch():
    p = parameter(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        adam_step({"p": p}, {"p": np.zeros(3, dtype=np.float32)}, AdamState())


def test_sgd_step_exact():
    p = parameter(np.array([1.0, 2.0]), dtype=np.float64)
    sgd_step({"p": p}, {"p": np.array([0.5, -0.5])}, lr=0.1)
    np.testing.assert_allclose(p.data, [0.95, 2.05])


def test_finite_diff_quadratic_f64():
    rng = np.random.default_rng(21)
    w = parameter(rng.normal(size=5), dtype=np.float64)

    def f():
        return sum_all(mul(w, w))

    err = finite_diff_check(f, [w], h=1e-6)
    assert err < 1e-8


def test_finite_diff_constant_function_zero():
    w = parameter(np.array([1.0, 2.0]), dtype=np.float64)

    def f():
        return sum_all(mul(Tensor(np.array([3.0])), Tensor(np.array([3.0]))))

    assert finite_diff_check(f, [w], h=1e-6) == 0.0


def _mlp_program(seed, dtype, act):
    """Two-layer MLP with a BCE head, returning (loss_fn, params)."""
    rng = np.random.default_rng(seed)
    n, a, b = 3, 4, 3
    x = np.asarray(rng.uniform(-1.0, 1.0, size=(n, a)), dtype=dtype)
    z = (rng.random((n, 1)) < 0.5).astype(dtype)
    params = {
        "w1": parameter(rng.uniform(0.2, 0.9, size=(a, b)) * rng.choice([-1, 1], size=(a, b)), dtype=dtype),
        "b1": parameter(rng.uniform(0.3, 0.6, size=b), dtype=dtype),
        "w2": parameter(rng.uniform(0.2, 0.9, size=(b, 1)), dtype=dtype),
        "b2": parameter(np.zeros(1), dtype=dtype),
    }

    def f():
        h = activation(affine(Tensor(x), params["w1"], params["b1"]), act)
        p = activation(affine(h, params["w2"], params["b2"]), "sigmoid")
        return bce_loss(p, z)

    return f, params


def test_finite_diff_mlp_f32_and_f64():
    f32, p32 = _mlp_program(7, np.float32, "relu")
    assert finite_diff_check(f32, p32, h=1e-2) < 1e-3
    f64, p64 = _mlp_program(7, np.float64, "relu")
    assert finite_diff_check(f64, p64, h=1e-5) < 1e-7


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_random_program_gradients_match_finite_differences(seed):
    """Composite programs over the primitive set agree with central differences."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    a = int(rng.integers(1, 4))
    b = int(rng.integers(1, 4))
    c = int(rng.integers(1, 3))
    x = rng.uniform(-1.0, 1.0, size=(n, a))
    m = sp.csr_matrix((rng.random((2, n)) < 0.6).astype(np.float64))
    z = (rng.random((2, 2 * c)) < 0.5).astype(np.float64)
    idx = rng.integers(0, n, size=2)
    params = {
        "w1": parameter(rng.normal(scale=0.8, size=(a, b)), dtype=np.float64),
        "b1": parameter(rng.normal(scale=0.2, size=b), dtype=np.float64),
        "w2": parameter(rng.normal(scale=0.8, size=(2 * b, c)), dtype=np.float64),
    }
    variant = int(rng.integers(0, 3))

    def f():
        h = activation(affine(Tensor(x), params["w1"], params["b1"]), "sigmoid")
        h = concat_cols([h, mul(h, h)])
        y = matmul(h, params["w2"])
        if variant == 0:
            y = const_matmul(m, y)
        elif variant == 1:
            y = take_rows(y, idx)
        else:
            y = stack_rows([take_rows(y, idx[:1]), take_rows(y, idx[1:])])
        p = activation(concat_cols([y, scale(y, 0.5)]), "sigmoid")
        return bce_loss(p, z)

    err = finite_diff_check(f, params, h=1e-5)
    assert err < 1e-6
