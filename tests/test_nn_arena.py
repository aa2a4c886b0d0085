"""Parameter arenas: layout, copy safety, and per-tensor oracle parity.

Every :class:`~repro.nn.network.Module` keeps its parameters and gradients
in two flat arenas, and the optimizers, ``clip_grad_norm``, the Polyak
update and zero-grad work on those arenas as whole vectors.  The oracle
tests here train the same networks once through that code and once
through the per-tensor loops in :mod:`tests.nn_reference`, and require
bit-equal weights, optimizer slots and returned gradient norms.
"""

from __future__ import annotations

import copy
import importlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.predictors import MlpServicePredictor
from repro.core.agent import build_actor
from repro.nn import (
    MLP,
    SGD,
    Adam,
    Module,
    Parameter,
    Sigmoid,
    TwoHeadMLP,
    clip_grad_norm,
    mse_loss,
)
from repro.rl.critics import StateActionCritic, TwinCritic
from repro.rl.ddpg import DdpgAgent, DdpgConfig
from repro.rl.dqn import DqnAgent, DqnConfig
from repro.rl.sac import SacAgent, SacConfig
from repro.rl.td3 import Td3Agent, Td3Config

from .nn_reference import (
    ParamList,
    RefAdam,
    RefSGD,
    ref_clip_grad_norm,
    ref_soft_update,
    ref_zero_grad,
)


def _bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


def _assert_bit_equal(a, b) -> None:
    assert np.shape(a) == np.shape(b)
    assert _bits(a) == _bits(b)


# ---------------------------------------------------------------- layout


class TestArenaLayout:
    def test_parameters_are_views_in_order(self, rng):
        net = MLP([3, 5, 2], rng)
        off = 0
        for p, (start, stop) in zip(net.parameters(), net.tensor_bounds):
            assert np.shares_memory(p.data, net.flat_data)
            assert np.shares_memory(p.grad, net.flat_grad)
            assert (start, stop) == (off, off + p.size)
            _assert_bit_equal(p.data.ravel(), net.flat_data[start:stop])
            off = stop
        assert off == net.flat_data.size == net.num_parameters()

    def test_in_place_writes_reach_the_arena(self, rng):
        net = MLP([2, 3, 1], rng)
        net.parameters()[1].data[...] = 7.0
        start, stop = net.tensor_bounds[1]
        assert np.all(net.flat_data[start:stop] == 7.0)
        net.parameters()[0].grad += 1.0
        start, stop = net.tensor_bounds[0]
        assert np.all(net.flat_grad[start:stop] == 1.0)

    def test_nested_modules_share_the_parent_arena(self, rng):
        actor = TwoHeadMLP(8, [32], [24, 16], rng)
        off = 0
        for child in (actor.trunk, actor.head_a, actor.head_b):
            n = child.num_parameters()
            assert np.shares_memory(child.flat_data, actor.flat_data)
            _assert_bit_equal(child.flat_data, actor.flat_data[off : off + n])
            off += n
        critic = TwinCritic(8, 2, rng)
        for q in (critic.q1, critic.q2):
            assert np.shares_memory(q.flat_grad, critic.flat_grad)
            assert np.shares_memory(q.tail.flat_data, critic.flat_data)

    def test_submodule_zero_grad_clears_only_its_slice(self, rng):
        critic = TwinCritic(4, 2, rng)
        critic.flat_grad[...] = 1.0
        critic.q1.zero_grad()
        n1 = critic.q1.num_parameters()
        assert np.all(critic.flat_grad[:n1] == 0.0)
        assert np.all(critic.flat_grad[n1:] == 1.0)
        assert all(np.all(p.grad == 1.0) for p in critic.q2.parameters())

    def test_non_contiguous_submodule_is_rejected(self, rng):
        class Interleaved(Module):
            def __init__(self):
                self.a = MLP([2, 2], rng)
                self.b = MLP([2, 2], rng)

            def parameters(self):
                pa, pb = self.a.parameters(), self.b.parameters()
                return [pa[0], pb[0], pa[1], pb[1]]

        with pytest.raises(ValueError, match="contiguous"):
            Interleaved()

    def test_optimizer_state_keeps_per_tensor_layout(self, rng):
        net = MLP([3, 4, 2], rng)
        opt = Adam(net, lr=1e-2)
        state = opt.state_dict()
        assert state["m"] == [None] * 4 and state["v"] == [None] * 4
        net.flat_grad[...] = rng.standard_normal(net.flat_grad.size)
        opt.step()
        state = opt.state_dict()
        assert [m.shape for m in state["m"]] == [p.data.shape for p in net.parameters()]
        other = Adam(MLP([3, 4, 2], rng), lr=1e-2)
        other.load_state_dict(state)
        for a, b in zip(state["v"], other.state_dict()["v"]):
            _assert_bit_equal(a, b)

    def test_optimizer_slot_size_mismatch_raises(self, rng):
        net = MLP([3, 4, 2], rng)
        opt = Adam(net)
        net.flat_grad[...] = 1.0
        opt.step()
        state = opt.state_dict()
        state["m"][0] = np.zeros(3)
        with pytest.raises(ValueError, match="slot"):
            Adam(MLP([3, 4, 2], rng)).load_state_dict(state)


# ----------------------------------------------------------- copy safety


def _round_trips():
    return [
        pytest.param(copy.deepcopy, id="deepcopy"),
        pytest.param(lambda m: pickle.loads(pickle.dumps(m)), id="pickle"),
    ]


class TestCopySafety:
    @pytest.mark.parametrize("clone", _round_trips())
    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda rng: MLP([4, 6, 2], rng), id="mlp"),
            pytest.param(lambda rng: TwoHeadMLP(4, [6], [5], rng), id="two-head"),
        ],
    )
    def test_copied_module_trains_independently(self, clone, make, rng):
        net = make(rng)
        twin = clone(net)
        for p in twin.parameters():
            assert np.shares_memory(p.data, twin.flat_data)
            assert not np.shares_memory(p.data, net.flat_data)
        x = rng.standard_normal((5, 4))
        before, original = twin.forward(x).copy(), net.forward(x).copy()
        opt = Adam(twin, lr=1e-1)
        twin.zero_grad()
        _, grad = mse_loss(twin.forward(x), np.ones_like(before))
        twin.backward(grad)
        opt.step()
        assert not np.allclose(twin.forward(x), before)
        _assert_bit_equal(net.forward(x), original)

    @pytest.mark.parametrize("clone", _round_trips())
    def test_copied_twin_critic_keeps_nested_views(self, clone, rng):
        critic = clone(TwinCritic(4, 2, rng))
        assert np.shares_memory(critic.q1.flat_data, critic.flat_data)
        assert np.shares_memory(critic.q2.tail.flat_grad, critic.flat_grad)
        critic.flat_grad[...] = 1.0
        critic.q1.zero_grad()
        assert all(np.all(p.grad == 0.0) for p in critic.q1.parameters())

    def test_copied_agent_steps_its_own_networks(self, rng):
        agent = DdpgAgent(lambda: build_actor(np.random.default_rng(1)), _ddpg_cfg(), rng)
        _fill(agent, np.random.default_rng(2), 40)
        twin = copy.deepcopy(agent)
        before = agent.actor.get_flat()
        assert twin.update() is not None
        assert twin.actor_opt.module is twin.actor
        assert not np.array_equal(twin.actor.get_flat(), before)
        _assert_bit_equal(agent.actor.get_flat(), before)

    def test_shallow_copy_is_rejected(self, rng):
        with pytest.raises(TypeError, match="deepcopy"):
            copy.copy(MLP([2, 2], rng))


# ----------------------------------------------------------- sigmoid


def _old_sigmoid(x: np.ndarray) -> np.ndarray:
    """The boolean-indexing formula ``Sigmoid.forward`` used to run."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


_SPECIAL = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 750.5, -750.5, 1e308, -1e308]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.floats(allow_nan=True, allow_infinity=True),
            st.floats(min_value=-800.0, max_value=800.0),
            st.sampled_from(_SPECIAL),
        ),
        min_size=1,
        max_size=64,
    )
)
def test_property_sigmoid_bitwise_equals_old_formula(values):
    x = np.array(values + _SPECIAL, dtype=np.float64).reshape(-1, 1)
    with np.errstate(all="ignore"):
        old = _old_sigmoid(x)
        new = Sigmoid().forward(x)
    assert new.shape == x.shape
    _assert_bit_equal(new, old)


# -------------------------------------------------- per-tensor oracles


def _random_params(rng: np.random.Generator, n: int):
    shapes = [
        (int(rng.integers(1, 30)),)
        if rng.random() < 0.5
        else (int(rng.integers(1, 20)), int(rng.integers(1, 20)))
        for _ in range(n)
    ]
    return [Parameter(rng.standard_normal(s)) for s in shapes]


def _twin_params(params):
    return [Parameter(p.data.copy()) for p in params]


class TestOptimizerOracles:
    @pytest.mark.parametrize("seed", range(6))
    def test_clip_grad_norm_matches_per_tensor(self, seed):
        rng = np.random.default_rng(seed)
        params = _random_params(rng, int(rng.integers(1, 15)))
        ref = _twin_params(params)
        module = ParamList(params)
        clipped = 0
        for _ in range(6):
            scale = 10.0 ** rng.uniform(-3, 4)
            for p, q in zip(params, ref):
                p.grad[...] = rng.standard_normal(p.data.shape) * scale
                q.grad[...] = p.grad
            max_norm = float(rng.uniform(0.1, 5.0))
            norm = clip_grad_norm(module, max_norm)
            assert norm == ref_clip_grad_norm(ref, max_norm)
            for p, q in zip(params, ref):
                _assert_bit_equal(p.grad, q.grad)
            clipped += norm > max_norm
            expected = min(norm, max_norm)
            assert np.linalg.norm(module.flat_grad) == pytest.approx(expected, rel=1e-6)
        assert clipped > 0

    @pytest.mark.parametrize(
        "make, make_ref",
        [
            pytest.param(
                lambda m: Adam(m, lr=3e-2, weight_decay=0.1),
                lambda ps: RefAdam(ps, lr=3e-2, weight_decay=0.1),
                id="adam-weight-decay",
            ),
            pytest.param(
                lambda m: Adam(m, lr=1e-2, betas=(0.8, 0.99), eps=1e-6),
                lambda ps: RefAdam(ps, lr=1e-2, betas=(0.8, 0.99), eps=1e-6),
                id="adam",
            ),
            pytest.param(
                lambda m: SGD(m, lr=0.05, momentum=0.9),
                lambda ps: RefSGD(ps, lr=0.05, momentum=0.9),
                id="sgd-momentum",
            ),
            pytest.param(
                lambda m: SGD(m, lr=0.05), lambda ps: RefSGD(ps, lr=0.05), id="sgd"
            ),
        ],
    )
    def test_optimizer_matches_per_tensor(self, make, make_ref):
        rng = np.random.default_rng(7)
        params = _random_params(rng, 9)
        ref = _twin_params(params)
        opt, ref_opt = make(ParamList(params)), make_ref(ref)
        for _ in range(25):
            for p, q in zip(params, ref):
                p.grad[...] = rng.standard_normal(p.data.shape)
                q.grad[...] = p.grad
            opt.step()
            ref_opt.step()
        for p, q in zip(params, ref):
            _assert_bit_equal(p.data, q.data)
        state = opt.state_dict()
        if isinstance(ref_opt, RefAdam):
            assert state["t"] == ref_opt.t
            slots = [(state["m"], ref_opt.m), (state["v"], ref_opt.v)]
        else:
            slots = [(state["velocity"], ref_opt.velocity)]
        for ours, theirs in slots:
            for a, b in zip(ours, theirs):
                assert (a is None) == (b is None)
                if a is not None:
                    _assert_bit_equal(a, b)


def _ddpg_cfg() -> DdpgConfig:
    return DdpgConfig(batch_size=16, warmup=16, buffer_capacity=256, grad_clip=0.5)


def _fill(agent, rng: np.random.Generator, n: int, discrete: int = 0) -> None:
    for _ in range(n):
        s, s2 = rng.standard_normal(8), rng.standard_normal(8)
        a = int(rng.integers(discrete)) if discrete else rng.random(2)
        agent.observe(s, a, float(rng.standard_normal() * 20.0), s2, bool(rng.random() < 0.1))


AGENTS = {
    "ddpg": (
        "repro.rl.ddpg",
        lambda: DdpgAgent(
            lambda: build_actor(np.random.default_rng(1)),
            _ddpg_cfg(),
            np.random.default_rng(2),
            critic_rng=np.random.default_rng(3),
        ),
        ("actor_opt", "critic_opt"),
    ),
    "td3": (
        "repro.rl.td3",
        lambda: Td3Agent(
            lambda: build_actor(np.random.default_rng(1)),
            Td3Config(batch_size=16, warmup=16, buffer_capacity=256, grad_clip=0.5),
            np.random.default_rng(2),
        ),
        ("actor_opt", "critic_opt"),
    ),
    "sac": (
        "repro.rl.sac",
        lambda: SacAgent(
            SacConfig(batch_size=16, warmup=16, buffer_capacity=256, grad_clip=0.5),
            np.random.default_rng(2),
        ),
        ("actor_opt", "critic_opt"),
    ),
    "dqn": (
        "repro.rl.dqn",
        lambda: DqnAgent(
            DqnConfig(
                num_actions=5,
                batch_size=16,
                warmup=16,
                buffer_capacity=256,
                grad_clip=0.5,
                target_sync_interval=7,
            ),
            np.random.default_rng(2),
        ),
        ("opt",),
    ),
}


def _reference_mode(monkeypatch) -> None:
    """Route zero-grad and the Polyak update through per-tensor loops."""
    monkeypatch.setattr(Module, "zero_grad", lambda self: ref_zero_grad(self.parameters()))
    monkeypatch.setattr(
        Module,
        "soft_update_from",
        lambda self, other, tau: ref_soft_update(self.parameters(), other.parameters(), tau),
    )


def _train_agent(name: str, reference: bool, monkeypatch, updates: int = 30):
    module_name, make, opt_names = AGENTS[name]
    mod = importlib.import_module(module_name)
    agent = make()
    norms = []
    if reference:
        _reference_mode(monkeypatch)

        def clip(module, max_norm):
            norms.append(ref_clip_grad_norm(module.parameters(), max_norm))
            return norms[-1]

        for opt_name in opt_names:
            opt = getattr(agent, opt_name)
            setattr(agent, opt_name, RefAdam(opt.module.parameters(), lr=opt.lr))
    else:
        real_clip = mod.clip_grad_norm

        def clip(module, max_norm):
            norms.append(real_clip(module, max_norm))
            return norms[-1]

    monkeypatch.setattr(mod, "clip_grad_norm", clip)
    rng = np.random.default_rng(4)
    _fill(agent, rng, 40, discrete=5 if name == "dqn" else 0)
    for _ in range(updates):
        agent.update()
        _fill(agent, rng, 2, discrete=5 if name == "dqn" else 0)
    monkeypatch.undo()
    return agent, norms


def _networks(agent):
    names = ("actor", "actor_target", "critic", "critic_target", "policy", "q", "q_target")
    return {n: getattr(agent, n) for n in names if hasattr(agent, n)}


@pytest.mark.parametrize("name", sorted(AGENTS))
def test_agent_training_matches_per_tensor_oracle(name, monkeypatch):
    ours, our_norms = _train_agent(name, reference=False, monkeypatch=monkeypatch)
    ref, ref_norms = _train_agent(name, reference=True, monkeypatch=monkeypatch)
    assert our_norms == ref_norms
    assert max(our_norms) > 0.5, "clipping never triggered"
    for key, net in _networks(ours).items():
        other = _networks(ref)[key]
        for p, q in zip(net.parameters(), other.parameters()):
            _assert_bit_equal(p.data, q.data)
    for opt_name in AGENTS[name][2]:
        state, ref_opt = getattr(ours, opt_name).state_dict(), getattr(ref, opt_name)
        assert state["t"] == ref_opt.t > 0
        for ours_slots, ref_slots in ((state["m"], ref_opt.m), (state["v"], ref_opt.v)):
            for a, b in zip(ours_slots, ref_slots):
                _assert_bit_equal(a, b)


def test_gemini_predictor_training_matches_per_tensor_oracle(monkeypatch):
    data_rng = np.random.default_rng(5)
    x = data_rng.standard_normal((300, 4))
    y = np.exp(0.5 * x[:, 0]) + x[:, 1] ** 2 + 0.1 * data_rng.standard_normal(300)

    def fit(reference: bool) -> MlpServicePredictor:
        if reference:
            _reference_mode(monkeypatch)
            monkeypatch.setattr(
                "repro.baselines.predictors.Adam",
                lambda module, lr: RefAdam(module.parameters(), lr=lr),
            )
        pred = MlpServicePredictor(np.random.default_rng(6), epochs=5, batch_size=32)
        pred.fit(x, y)
        monkeypatch.undo()
        return pred

    ours, ref = fit(False), fit(True)
    for p, q in zip(ours.net.parameters(), ref.net.parameters()):
        _assert_bit_equal(p.data, q.data)
    _assert_bit_equal(ours.predict(x[:20]), ref.predict(x[:20]))


def test_critic_soft_update_matches_per_tensor(rng):
    src, dst = StateActionCritic(8, 2, rng), StateActionCritic(8, 2, rng)
    ref = copy.deepcopy(dst)
    for _ in range(5):
        src.flat_data[...] = rng.standard_normal(src.flat_data.size)
        dst.soft_update_from(src, 0.01)
        ref_soft_update(ref.parameters(), src.parameters(), 0.01)
    _assert_bit_equal(dst.flat_data, ref.flat_data)
