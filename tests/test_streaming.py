"""Task fields, stream models, sampling, and stochastic gradients."""

import numpy as np
import pytest
from scipy.special import expit

from adaptnets.graphs import build_laplacian, graph_fourier, ring_graph, smoothness
from adaptnets.streaming import (
    StreamModel,
    TaskField,
    draw_horizon,
    load_tasks,
    network_gradient,
    pad_blocks,
    save_tasks,
    sigmoid,
    synth_smooth_tasks,
)

EXACT_TOL = 1e-12
MOMENT_SIGMAS = 4.0


def mse_model(truth, noise=0.1, r_u=None):
    return StreamModel(kind="mse", truth=truth, r_u=r_u, noise_var=noise)


# ---------------------------------------------------------------------------
# sigmoid
# ---------------------------------------------------------------------------

def test_sigmoid_basic_values():
    assert sigmoid(0.0) == pytest.approx(0.5)
    assert sigmoid(1e4) == pytest.approx(1.0)
    assert sigmoid(-1e4) == pytest.approx(0.0)


def test_sigmoid_symmetry():
    x = np.linspace(-30, 30, 101)
    assert np.max(np.abs(sigmoid(x) + sigmoid(-x) - 1.0)) < 1e-15


def test_sigmoid_matches_expit():
    x = np.random.default_rng(0).standard_normal(1000) * 10
    assert np.max(np.abs(sigmoid(x) - expit(x))) < 1e-15


def test_sigmoid_no_overflow():
    with np.errstate(over="raise"):
        sigmoid(np.array([-1e8, 1e8]))


# ---------------------------------------------------------------------------
# Task fields
# ---------------------------------------------------------------------------

def test_taskfield_matrix_roundtrip():
    mat = np.arange(12, dtype=float).reshape(4, 3)
    field = TaskField.from_matrix(mat)
    assert field.n_agents == 4
    assert field.uniform_size == 3
    assert np.array_equal(field.as_matrix(), mat)
    assert np.array_equal(field.stacked(), mat.ravel())


def test_taskfield_unequal_blocks():
    field = TaskField((np.ones(2), np.ones(3)))
    assert field.block_sizes == (2, 3)
    assert field.uniform_size is None
    with pytest.raises(ValueError):
        field.as_matrix()
    assert field.stacked().size == 5
    assert np.array_equal(field.padded, [[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
    assert not field.padded.flags.writeable


def test_padded_view_of_uniform_field_is_the_matrix():
    mat = np.arange(12, dtype=float).reshape(4, 3)
    field = TaskField.from_matrix(mat)
    assert np.array_equal(field.padded, field.as_matrix())
    assert np.array_equal(pad_blocks(mat), mat)


def test_taskfield_rejects_bad_blocks():
    with pytest.raises(ValueError):
        TaskField((np.array([]),))
    with pytest.raises(ValueError):
        TaskField((np.array([np.nan]),))
    with pytest.raises(ValueError):
        TaskField(())


@pytest.mark.parametrize("sizes", [(2,) * 7, (2, 3, 1, 3, 2, 1, 2)],
                         ids=["uniform", "ragged"])
@pytest.mark.parametrize("agent", [0, 3, 6])
@pytest.mark.parametrize("defect, message", [
    ("empty", "agent {k} has an empty block"),
    ("nan", "agent {k} block has non-finite entries"),
    ("inf", "agent {k} block has non-finite entries"),
])
def test_taskfield_refusal_names_the_first_bad_agent(sizes, agent, defect,
                                                     message):
    blocks = [np.arange(1.0, size + 1.0) for size in sizes]
    blocks[agent] = (np.array([]) if defect == "empty"
                     else np.append(blocks[agent][:-1], float(defect)))
    # a later bad agent is not the one named
    if agent < 6:
        blocks[6] = np.array([])
    with pytest.raises(ValueError, match=f"^{message.format(k=agent)}$"):
        TaskField(tuple(blocks))
    if defect != "empty" and len(set(sizes)) == 1:
        # the same refusal from the rows of one matrix
        mat = np.ones((7, 2))
        mat[agent, 1] = float(defect)
        mat[6, 0] = np.nan
        with pytest.raises(ValueError,
                           match=f"^{message.format(k=agent)}$"):
            TaskField.from_matrix(mat)


def test_taskfield_json_roundtrip(tmp_path):
    field = TaskField.from_matrix(np.random.default_rng(1).standard_normal((5, 2)))
    path = tmp_path / "tasks.json"
    save_tasks(field, path)
    loaded = load_tasks(path)
    assert np.array_equal(loaded.as_matrix(), field.as_matrix())


def test_taskfield_json_rejects_mismatched_m(tmp_path):
    path = tmp_path / "tasks.json"
    path.write_text('{"M": 3, "blocks": [[1.0, 2.0]]}')
    with pytest.raises(ValueError):
        load_tasks(path)


def test_taskfield_json_rejects_non_integral_m(tmp_path):
    # M = 2.5 is refused, not truncated to the blocks' length 2
    path = tmp_path / "tasks.json"
    path.write_text('{"M": 2.5, "blocks": [[1.0, 2.0], [3.0, 4.0]]}')
    with pytest.raises(ValueError, match="M=2.5"):
        load_tasks(path)


# ---------------------------------------------------------------------------
# Smooth synthesis
# ---------------------------------------------------------------------------

def test_smooth_tasks_bandlimited():
    spec = build_laplacian(ring_graph(12))
    bandwidth = float(spec.eigenvalues[4])
    field = synth_smooth_tasks(spec, 2, bandwidth, np.random.default_rng(3))
    coeffs = graph_fourier(field.as_matrix(), spec)
    high = spec.eigenvalues > bandwidth + 1e-8
    # the analysis round trip V^T (V c) leaves only float noise above the band
    scale = np.max(np.abs(coeffs))
    assert np.max(np.abs(coeffs[high])) < EXACT_TOL * scale
    assert np.max(np.abs(coeffs[~high])) > 0.0


def test_smooth_tasks_zero_bandwidth_is_constant():
    spec = build_laplacian(ring_graph(9))
    field = synth_smooth_tasks(spec, 3, 0.0, np.random.default_rng(4))
    mat = field.as_matrix()
    assert np.max(np.abs(mat - mat[0])) < EXACT_TOL
    assert abs(smoothness(mat, spec)) < EXACT_TOL


def test_smooth_tasks_deterministic():
    spec = build_laplacian(ring_graph(8))
    a = synth_smooth_tasks(spec, 2, 1.0, np.random.default_rng(5))
    b = synth_smooth_tasks(spec, 2, 1.0, np.random.default_rng(5))
    assert np.array_equal(a.as_matrix(), b.as_matrix())


def test_smooth_tasks_scale_fn():
    spec = build_laplacian(ring_graph(8))
    field = synth_smooth_tasks(spec, 1, spec.lam_max,
                               np.random.default_rng(6),
                               scale_fn=lambda lam: np.zeros_like(lam))
    assert np.max(np.abs(field.as_matrix())) == 0.0


# ---------------------------------------------------------------------------
# Stream model validation
# ---------------------------------------------------------------------------

def test_model_rejects_unknown_kind():
    truth = TaskField.from_matrix(np.ones((3, 2)))
    with pytest.raises(ValueError):
        StreamModel(kind="huber", truth=truth, noise_var=0.1)


def test_mse_model_requires_noise():
    truth = TaskField.from_matrix(np.ones((3, 2)))
    with pytest.raises(ValueError):
        StreamModel(kind="mse", truth=truth)
    with pytest.raises(ValueError):
        StreamModel(kind="mse", truth=truth, noise_var=-0.1)


def test_model_rejects_bad_covariance():
    truth = TaskField.from_matrix(np.ones((3, 2)))
    with pytest.raises(ValueError):
        mse_model(truth, r_u=np.array([[1.0, 0.5], [0.1, 1.0]]))
    with pytest.raises(ValueError):
        mse_model(truth, r_u=-np.eye(2))
    with pytest.raises(ValueError):
        mse_model(truth, r_u=np.eye(3))


def test_logistic_rejects_negative_ridge():
    truth = TaskField.from_matrix(np.ones((3, 2)))
    with pytest.raises(ValueError):
        StreamModel(kind="logistic", truth=truth, reg=-1.0)


def test_noise_broadcast_and_identity_cov():
    truth = TaskField.from_matrix(np.ones((4, 2)))
    model = mse_model(truth, noise=0.2)
    assert np.allclose(model.noise_var, 0.2)
    assert model.noise_var.shape == (4,)
    # without a shared r_u each agent's regressors are its stream's
    # standard normals, identity covariance
    assert model.r_u is None
    streams = [np.random.default_rng(k) for k in range(4)]
    block = draw_horizon(model, [streams], 1).run(0)
    for k in range(4):
        z = np.random.default_rng(k).standard_normal((1, 2))
        assert np.array_equal(block.regressors[0, k], z[0])


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def test_noiseless_responses_exact():
    truth = TaskField.from_matrix(np.array([[1.0, -2.0], [0.5, 3.0]]))
    model = mse_model(truth, noise=0.0)
    rng = np.random.default_rng(7)
    sample = draw_horizon(model, [[rng, rng]], 1).run(0).at(0)
    for k in range(2):
        assert sample.responses[k] == float(
            sample.regressors[k] @ truth.blocks[k])


def test_block_draw_contract():
    """A horizon draw consumes the stream as: all regressors, then all noise."""
    truth = TaskField.from_matrix(np.array([[1.0, -1.0]]))
    r_u = np.array([[2.0, 0.3], [0.3, 1.0]])
    model = mse_model(truth, noise=0.25, r_u=r_u)
    t = 17
    block = draw_horizon(model, [[np.random.default_rng(99)]], t).run(0)
    rng = np.random.default_rng(99)
    z = rng.standard_normal((t, 2))
    regs = z @ np.linalg.cholesky(r_u).T
    noise = rng.standard_normal(t) * 0.5
    assert np.array_equal(block.regressors[:, 0, :], regs)
    assert np.array_equal(block.responses[:, 0],
                          regs @ truth.blocks[0] + noise)


def test_horizon_indexing():
    truth = TaskField.from_matrix(np.ones((3, 2)))
    model = mse_model(truth)
    streams = [np.random.default_rng(s) for s in range(3)]
    block = draw_horizon(model, [streams], 5).run(0)
    assert block.horizon == 5
    net = block.at(2)
    assert net.regressors.shape == (3, 2)
    assert np.array_equal(net.regressors[1], block.regressors[2, 1])
    assert net.responses[1] == block.responses[2, 1]


def test_horizon_requires_one_stream_per_agent():
    truth = TaskField.from_matrix(np.ones((3, 2)))
    model = mse_model(truth)
    with pytest.raises(ValueError):
        draw_horizon(model, [[np.random.default_rng(0)]], 4)
    with pytest.raises(ValueError):
        draw_horizon(model, [[np.random.default_rng(k) for k in range(3)],
                             [np.random.default_rng(0)]], 4)


def test_run_axis_block_is_single_run_blocks_side_by_side():
    correlated = mse_model(TaskField.from_matrix(np.ones((3, 2))),
                           r_u=np.array([[2.0, 0.3], [0.3, 1.0]]))
    ragged = StreamModel(kind="logistic", reg=0.1,
                         truth=TaskField((np.ones(2), np.ones(3), np.ones(1))))
    for model in (correlated, ragged):
        def streams():
            return [[np.random.default_rng((r, k)) for k in range(3)]
                    for r in range(4)]

        block = draw_horizon(model, streams(), 7)
        assert block.regressors.shape == (7, 4, 3, model.truth.padded.shape[1])
        assert block.responses.shape == (7, 4, 3)
        for r, row in enumerate(streams()):
            one = draw_horizon(model, [row], 7)
            assert np.array_equal(block.run(r).regressors, one.regressors[:, 0])
            assert np.array_equal(block.regressors[:, r], one.regressors[:, 0])
            assert np.array_equal(block.responses[:, r], one.responses[:, 0])
        with pytest.raises(ValueError):
            draw_horizon(model, [row[:2] for row in streams()], 7)


def test_unequal_blocks_draw():
    truth = TaskField((np.ones(2), np.ones(4)))
    model = mse_model(truth, noise=0.1)
    streams = [np.random.default_rng(s) for s in range(2)]
    block = draw_horizon(model, [streams], 6).run(0)
    assert block.regressors.shape == (6, 2, 4)
    assert np.all(block.regressors[:, 0, 2:] == 0.0)
    assert block.at(3).regressors.shape == (2, 4)
    # each agent's draw is its own stream's, whatever the padding
    for k, m in enumerate((2, 4)):
        rng = np.random.default_rng(k)
        regs = rng.standard_normal((6, m))
        noise = rng.standard_normal(6) * np.sqrt(0.1)
        assert np.array_equal(block.regressors[:, k, :m], regs)
        assert np.array_equal(block.responses[:, k], regs @ np.ones(m) + noise)


def test_regressor_covariance_moment():
    truth = TaskField.from_matrix(np.zeros((1, 2)))
    r_u = np.array([[1.5, -0.4], [-0.4, 0.8]])
    model = mse_model(truth, noise=0.0, r_u=r_u)
    block = draw_horizon(model, [[np.random.default_rng(11)]], 200_000).run(0)
    regs = block.regressors[:, 0, :]
    emp = regs.T @ regs / regs.shape[0]
    # second-moment scatter of Gaussian products is ~ sqrt(2)/sqrt(T)
    se = MOMENT_SIGMAS * np.sqrt(2.0) * np.max(np.abs(r_u)) / np.sqrt(regs.shape[0])
    assert np.max(np.abs(emp - r_u)) < se


def test_logistic_labels_and_rates():
    truth = TaskField.from_matrix(np.array([[3.0, 0.0]]))
    model = StreamModel(kind="logistic", truth=truth)
    block = draw_horizon(model, [[np.random.default_rng(12)]], 100_000).run(0)
    labels = block.responses[:, 0]
    assert set(np.unique(labels)) <= {-1.0, 1.0}
    # empirical P(gamma = 1 | h) should track sigmoid(h^T w^o)
    scores = block.regressors[:, 0, :] @ truth.blocks[0]
    strong = np.abs(scores) > 2.0
    agree = labels[strong] == np.sign(scores[strong])
    assert np.mean(agree) > 0.85


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------

def test_mse_gradient_formula():
    truth = TaskField.from_matrix(np.ones((1, 3)))
    model = mse_model(truth)
    u = np.array([1.0, -2.0, 0.5])
    w = np.array([0.2, 0.1, -0.3])
    grad = network_gradient(model, w[None, :], u[None, :], np.array([1.7]))
    assert np.array_equal(grad[0], -u * (1.7 - u @ w))


def test_logistic_gradient_formula():
    truth = TaskField.from_matrix(np.ones((1, 2)))
    model = StreamModel(kind="logistic", truth=truth, reg=0.3)
    h = np.array([0.4, -1.1])
    w = np.array([0.6, 0.2])
    grad = network_gradient(model, w[None, :], h[None, :], np.array([-1.0]))
    expected = 0.3 * w + h * sigmoid(h @ w)
    assert np.max(np.abs(grad[0] - expected)) < EXACT_TOL


def test_mse_gradient_mean():
    """E[-u (d - u^T w)] = R_u (w - w^o)."""
    w_o = np.array([0.8, -0.5])
    truth = TaskField.from_matrix(w_o[None, :])
    r_u = np.array([[1.2, 0.3], [0.3, 0.9]])
    model = mse_model(truth, noise=0.05, r_u=r_u)
    w = np.array([0.3, 0.4])
    block = draw_horizon(model, [[np.random.default_rng(21)]], 150_000).run(0)
    regs = block.regressors[:, 0, :]
    errs = block.responses[:, 0] - regs @ w
    grads = -regs * errs[:, None]
    emp = grads.mean(axis=0)
    expected = r_u @ (w - w_o)
    se = MOMENT_SIGMAS * grads.std(axis=0) / np.sqrt(grads.shape[0])
    assert np.all(np.abs(emp - expected) < se)


def test_logistic_gradient_zero_mean_at_truth():
    """At w = w^o with no ridge, the logistic score has zero mean."""
    w_o = np.array([1.0, -0.7])
    truth = TaskField.from_matrix(w_o[None, :])
    model = StreamModel(kind="logistic", truth=truth)
    block = draw_horizon(model, [[np.random.default_rng(22)]], 150_000).run(0)
    regs = block.regressors[:, 0, :]
    labels = block.responses[:, 0]
    grads = -labels[:, None] * regs * sigmoid(-labels * (regs @ w_o))[:, None]
    emp = grads.mean(axis=0)
    se = MOMENT_SIGMAS * grads.std(axis=0) / np.sqrt(grads.shape[0])
    assert np.all(np.abs(emp) < se)
