"""Projection, mapping and search-contract tests for the attack module."""

import pickle

import numpy as np
import pytest

import risae.attack
from risae.attack import (
    AttackBudget,
    AttackResult,
    AttackSettings,
    PerturbationVector,
    enforce_power,
    export_perturbation,
    jamming,
    load_perturbation,
    pgd_minimal_perturbation,
    project_band,
    receiver_to_transmit,
    rmaef,
    rmaep,
)
from risae.autoencoder import (
    adversary_cascade_set,
    build_autoencoder,
    pipeline_forward,
    random_message_blocks,
    train,
)
from risae.channel import ChannelModel, crandn
from risae.config import SystemConfig
from risae.errors import AllTargetsFailed, InvariantViolation, SingularSystem
from risae.neural import Conv1D, Network, Softmax


def tiny_config(**kwargs) -> SystemConfig:
    base = dict(n_t=2, n_r=2, a1_v=1, a1_h=2, a2_v=1, a2_h=2, m=4, block_len=3,
                num_scatterers=3, hidden_width=8, sigma2=0.1)
    base.update(kwargs)
    return SystemConfig(**base)


def crand(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestAttackBudget:
    def test_linear_conversion(self):
        budget = AttackBudget(psr_db=-7.0, reference_power=1.0)
        assert budget.linear == pytest.approx(10 ** (-0.7))

    def test_reference_scaling(self):
        assert AttackBudget(-3.0, reference_power=4.0).linear == pytest.approx(4.0 * 10 ** (-0.3))

    def test_rejects_nonpositive_reference(self):
        with pytest.raises(ValueError):
            AttackBudget(-7.0, reference_power=0.0)


class TestPerturbationVector:
    def test_budget_invariant(self):
        PerturbationVector(np.array([0.1 + 0.1j, 0.0]), budget=0.1)
        with pytest.raises(AssertionError):
            PerturbationVector(np.array([1.0 + 0j, 1.0]), budget=0.1)


def band_oracle(w_adv, w, beta):
    """One row of the band clamp by the three-branch definition."""
    low, up = w - beta, w + beta
    if np.linalg.norm(w_adv) < np.linalg.norm(low):
        return low
    if np.linalg.norm(w_adv) > np.linalg.norm(up):
        return up
    return w_adv


class TestProjectBall:
    def test_inside_band_unchanged(self):
        # beta aligned with w guarantees ||w - beta|| < ||w|| < ||w + beta||
        rng = np.random.default_rng(0)
        w = crand(rng, 1, 2, 3)
        beta = 0.01 * w
        w_adv = w.copy()
        assert np.array_equal(project_band(w_adv, w, beta), w_adv)

    def test_lower_clamp(self):
        rng = np.random.default_rng(1)
        w = crand(rng, 1, 2, 2)
        beta = 0.1 * crand(rng, 1, 2, 2)
        out = project_band(np.zeros_like(w), w, beta)
        assert np.array_equal(out, w - beta)

    def test_randomized_three_branch_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            w = crand(rng, 1, 3)
            beta = rng.uniform(0.01, 2.0) * crand(rng, 1, 3)
            w_adv = rng.uniform(0.0, 3.0) * crand(rng, 1, 3)
            expected = band_oracle(w_adv[0], w[0], beta[0])
            assert np.array_equal(project_band(w_adv, w, beta)[0], expected)

    def test_batch_rows_clamp_independently(self):
        # rows chosen to hit all three branches in one call
        rng = np.random.default_rng(3)
        w = crand(rng, 3, 2, 4)
        beta = 0.1 * w
        w_adv = np.stack([0.5 * w[0], w[1], 2.0 * w[2]])
        out = project_band(w_adv, w, beta)
        assert np.array_equal(out[0], w[0] - beta[0])
        assert np.array_equal(out[1], w_adv[1])
        assert np.array_equal(out[2], w[2] + beta[2])
        for b in range(3):
            assert np.array_equal(out[b], band_oracle(w_adv[b], w[b], beta[b]))

    def test_shape_mismatch(self):
        w = np.ones((2, 3), dtype=complex)
        with pytest.raises(ValueError):
            project_band(w, w, np.ones((2, 4), dtype=complex))


class TestEnforcePower:
    def test_in_budget_unchanged(self):
        p = np.array([0.1 + 0.0j, 0.2j])
        assert enforce_power(p, 1.0) is p

    def test_rescale_to_budget(self):
        rng = np.random.default_rng(3)
        p = 10.0 * crand(rng, 5)
        out = enforce_power(p, 0.3)
        assert np.sum(np.abs(out) ** 2) == pytest.approx(0.3, abs=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        p = 10.0 * crand(rng, 5)
        once = enforce_power(p, 0.3)
        twice = enforce_power(once, 0.3)
        assert np.allclose(once, twice, atol=1e-12)


class TestJamming:
    def test_exact_budget_norm(self):
        rng = np.random.default_rng(5)
        for budget in (0.01, 0.2, 3.0):
            p = jamming(budget, 8, rng)
            assert p.power == pytest.approx(budget, rel=1e-12)

    def test_directions_are_isotropic(self):
        rng = np.random.default_rng(6)
        draws = np.stack([jamming(1.0, 32, rng).values for _ in range(1000)])
        gram = np.abs(draws @ draws.conj().T)
        off_diag = gram[~np.eye(1000, dtype=bool)]
        assert off_diag.mean() < 0.25


class TestReceiverToTransmit:
    def test_identity_channel_returns_average(self):
        rng = np.random.default_rng(7)
        ptilde = crand(rng, 3, 5)
        out = receiver_to_transmit(None, ptilde)
        assert np.allclose(out, ptilde.mean(axis=1))

    def test_identity_matrices_behave_like_average(self):
        rng = np.random.default_rng(8)
        ptilde = crand(rng, 3, 4)
        g_set = np.broadcast_to(np.eye(3), (4, 3, 3))
        out = receiver_to_transmit(g_set, ptilde, ridge=0.0)
        assert np.allclose(out, ptilde.mean(axis=1), atol=1e-12)

    def test_normal_equation_residual(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            g_set = crand(rng, 4, 6, 3)
            ptilde = crand(rng, 6, 4)
            ridge = 1e-6
            p = receiver_to_transmit(g_set, ptilde, ridge=ridge)
            gbar = g_set.mean(axis=0)
            pbar = ptilde.mean(axis=1)
            residual = np.linalg.norm(gbar.conj().T @ (gbar @ p - pbar))
            assert residual <= ridge * np.linalg.norm(p) + 1e-9

    def test_normal_equation_residual_on_adversary_cascade(self):
        # g_set as the attacks pass it: one block of adversary_cascade_set,
        # whose symbol mean is not C-contiguous
        cfg = tiny_config()
        rng = np.random.default_rng(12)
        nets = build_autoencoder(cfg, rng)
        chan = ChannelModel(cfg).sample_batch(8, rng)
        blocks, _ = random_message_blocks(cfg, 8, rng)
        rec = pipeline_forward(nets, cfg, blocks, chan, cfg.sigma2, rng=rng, train=False)
        ridge = 1e-6
        for g_set in adversary_cascade_set(chan, rec.c1, rec.c2):
            ptilde = crand(rng, cfg.n_r, cfg.block_len)
            p = receiver_to_transmit(g_set, ptilde, ridge=ridge)
            assert p.shape == (cfg.adversary_antennas,)
            gbar = g_set.mean(axis=0)
            pbar = ptilde.mean(axis=1)
            residual = np.linalg.norm(gbar.conj().T @ (gbar @ p - pbar))
            assert residual <= ridge * np.linalg.norm(p) + 1e-9

    def test_rank_deficient_with_default_ridge(self):
        rng = np.random.default_rng(10)
        col = crand(rng, 4, 1)
        gbar = np.hstack([col, col])
        out = receiver_to_transmit(gbar, crand(rng, 4))
        assert np.all(np.isfinite(out))

    def test_rank_deficient_without_ridge_raises(self):
        rng = np.random.default_rng(11)
        col = crand(rng, 4, 1)
        gbar = np.hstack([col, col])
        with pytest.raises(SingularSystem):
            receiver_to_transmit(gbar, crand(rng, 4), ridge=0.0)


def linear_toy_decoder(gain=2.0):
    """Two-class decoder that reads only Re(r): boundary at Re(r) = 0."""
    conv = Conv1D(4, 2, 1)
    conv.weight = np.zeros((2, 4, 1))
    conv.weight[0, 0, 0] = gain
    conv.weight[1, 0, 0] = -gain
    return Network([conv, Softmax()])


def toy_cfg():
    return SystemConfig(n_t=1, n_r=1, a1_v=1, a1_h=1, a2_v=1, a2_h=1, m=2,
                        block_len=1, num_scatterers=1, hidden_width=4, sigma2=0.1)


class TestPgdMinimalPerturbation:
    def test_linear_toy_matches_analytic_margin(self):
        decoder = linear_toy_decoder()
        cfg = toy_cfg()
        w = np.array([[1.3 + 0.4j]])
        k_set = np.array([[[0.7 + 0.2j]]])
        pgd = AttackSettings(n_p=1, n_s=1, p_max=4.0, eps_acc=1e-3)
        out = pgd_minimal_perturbation(decoder, cfg, w, k_set, pgd)
        assert out.target == 1
        assert abs(out.eps_star - 1.3) <= 2e-3
        assert out.ray_verified

    def test_flip_contract_and_probe_count(self):
        decoder = linear_toy_decoder()
        cfg = toy_cfg()
        w = np.array([[0.9 - 0.2j]])
        k_set = np.array([[[0.5 + 0.1j]]])
        pgd = AttackSettings(n_p=1, n_s=1, p_max=4.0, eps_acc=1e-3)
        out = pgd_minimal_perturbation(decoder, cfg, w, k_set, pgd)
        assert out.probes_per_class == int(np.ceil(np.log2(4.0 / 1e-3)))
        assert out.eps_star <= 4.0
        # w - p_add flips the decision to the reported target
        perturbed = w - out.p_add
        d_in = np.array([perturbed[0, 0].real, perturbed[0, 0].imag,
                         k_set[0, 0, 0].real, k_set[0, 0, 0].imag]).reshape(1, 4, 1)
        probs, _ = decoder.forward(d_in, train=False)
        assert probs[0].argmax(axis=0)[0] == out.target

    def test_all_targets_failed(self):
        decoder = linear_toy_decoder()
        cfg = toy_cfg()
        w = np.array([[1.3 + 0.0j]])
        k_set = np.array([[[0.5 + 0.0j]]])
        pgd = AttackSettings(n_p=1, n_s=1, p_max=0.5, eps_acc=1e-2)
        with pytest.raises(AllTargetsFailed) as err:
            pgd_minimal_perturbation(decoder, cfg, w, k_set, pgd)
        # the failed search reports what it spent, also across a pickle
        probes = pgd.search_radius(1.3)[2]
        assert err.value.grad_evals == cfg.m * (1 + probes * pgd.n_s)
        assert pickle.loads(pickle.dumps(err.value)).grad_evals == err.value.grad_evals

    def test_gradient_evaluation_bound(self):
        cfg = tiny_config()
        nets = build_autoencoder(cfg, np.random.default_rng(12))
        rng = np.random.default_rng(14)
        chan = ChannelModel(cfg).sample_batch(1, rng)
        blocks, _ = random_message_blocks(cfg, 1, rng)
        rec = pipeline_forward(nets, cfg, blocks, chan, cfg.sigma2, rng=rng)
        w = (rec.z + rec.noise)[0]
        pgd = AttackSettings(n_p=1, n_s=2, p_max=8.0, eps_acc=0.5)
        probes = int(np.ceil(np.log2(8.0 / 0.5)))
        try:
            out = pgd_minimal_perturbation(nets.decoder, cfg, w, rec.k[0], pgd,
                                           loss_kind=cfg.loss)
        except AllTargetsFailed:
            pytest.skip("random system produced no flip for this seed")
        assert out.probes_per_class == probes
        assert out.grad_evals == cfg.m * (1 + probes * pgd.n_s)

    def test_eps_acc_above_default_radius_runs_one_probe(self):
        pgd = AttackSettings(n_p=1, n_s=1, eps_acc=100.0)
        assert pgd.search_radius(3.0) == (6.0, 100.0, 1)
        decoder = linear_toy_decoder()
        w = np.array([[1.3 + 0.4j]])
        out = pgd_minimal_perturbation(decoder, toy_cfg(), w, np.array([[[0.7 + 0.2j]]]), pgd)
        # the single bisection probe sits at p_max / 2 = ||w||, past the 1.3 margin
        assert out.probes_per_class == 1
        assert out.target == 1
        assert out.eps_star == pytest.approx(np.abs(w).item())

    def test_binary_search_interval_width(self):
        decoder = linear_toy_decoder()
        cfg = toy_cfg()
        w = np.array([[0.6 + 0.3j]])
        k_set = np.array([[[0.4 - 0.6j]]])
        pgd = AttackSettings(n_p=1, n_s=1, p_max=2.0, eps_acc=1e-3)
        out = pgd_minimal_perturbation(decoder, cfg, w, k_set, pgd)
        # interval width after T probes is p_max / 2^T <= eps_acc
        assert 2.0 / 2 ** out.probes_per_class <= 1e-3


class TestUniversalAttacks:
    def _system(self, seed=14):
        cfg = tiny_config()
        nets = build_autoencoder(cfg, np.random.default_rng(seed))
        return cfg, nets

    @pytest.mark.parametrize("mode", ["double", "ideal"])
    def test_rmaep_budget_and_bookkeeping(self, mode):
        cfg, nets = self._system()
        budget = AttackBudget(-7.0, reference_power=cfg.power)
        pgd = AttackSettings(n_p=4, n_s=2, p_max=None, eps_acc=None)
        result = rmaep(nets, cfg, budget, pgd, np.random.default_rng(15), channel_mode=mode)
        assert result.perturbation.power <= budget.linear + 1e-9
        assert result.iterations == 4
        assert result.success_count <= result.iterations
        assert result.channel_mode == mode
        expected_dim = cfg.n_r if mode == "ideal" else cfg.adversary_antennas
        assert result.perturbation.values.shape == (expected_dim,)

    def test_rmaep_double_maps_flips_to_transmit_domain(self):
        """On a briefly trained system the probes decode cleanly, so rmaep
        reaches the search and maps each flip back through the double-RIS
        adversary channel. Before as_matrix accepted non-contiguous matrices
        this raised ValueError in receiver_to_transmit; an untrained network
        breaks every probe and never gets that far."""
        cfg = tiny_config(m=2, sigma2=0.01)
        nets = build_autoencoder(cfg, np.random.default_rng(30))
        train(nets, cfg, num_symbols=768, epochs=30, lr=1e-2, rng=np.random.default_rng(31))
        budget = AttackBudget(-7.0, reference_power=cfg.power)
        pgd = AttackSettings(n_p=8, n_s=2)
        result = rmaep(nets, cfg, budget, pgd, np.random.default_rng(32), channel_mode="double")
        assert result.flips_found >= 1
        assert result.perturbation.power <= budget.linear + 1e-9
        assert result.perturbation.values.shape == (cfg.adversary_antennas,)

    def test_rmaep_counts_gradients_of_failed_searches(self, monkeypatch):
        # an untrained m=2, block_len=1 system decodes about half the probes,
        # and a radius of 1e-6 flips none, so every search that runs fails
        cfg = tiny_config(m=2, block_len=1)
        nets = build_autoencoder(cfg, np.random.default_rng(40))
        rows = []
        gradient = risae.attack.decoder_input_gradient

        def counting(decoder, d_input, *args):
            rows.append(d_input.shape[0])
            return gradient(decoder, d_input, *args)

        monkeypatch.setattr(risae.attack, "decoder_input_gradient", counting)
        pgd = AttackSettings(n_p=8, n_s=2, p_max=1e-6, eps_acc=1e-7)
        result = rmaep(nets, cfg, AttackBudget(-7.0, reference_power=cfg.power), pgd,
                       np.random.default_rng(41), channel_mode="ideal")
        assert result.skipped >= 1 and result.flips_found == 0
        assert result.grad_evals == sum(rows)

    def test_result_accounts_for_every_probe(self):
        vector = PerturbationVector(np.zeros(2, dtype=complex), budget=1.0)
        result = AttackResult(vector, "ideal", iterations=5, flips_found=2, already_broken=1,
                              skipped=2, grad_evals=0)
        assert result.success_count == 3
        with pytest.raises(InvariantViolation):
            AttackResult(vector, "ideal", iterations=5, flips_found=2, already_broken=1,
                         skipped=1, grad_evals=0)

    def test_rmaep_grad_eval_bound(self):
        cfg, nets = self._system(seed=16)
        budget = AttackBudget(-7.0, reference_power=cfg.power)
        pgd = AttackSettings(n_p=3, n_s=2, p_max=8.0, eps_acc=0.5)
        result = rmaep(nets, cfg, budget, pgd, np.random.default_rng(17), channel_mode="ideal")
        probes = int(np.ceil(np.log2(8.0 / 0.5)))
        assert result.grad_evals <= pgd.n_p * cfg.m * (1 + probes * pgd.n_s)

    def test_rmaep_vanishing_budget(self):
        cfg, nets = self._system(seed=18)
        budget = AttackBudget(-200.0, reference_power=cfg.power)
        pgd = AttackSettings(n_p=2, n_s=1)
        result = rmaep(nets, cfg, budget, pgd, np.random.default_rng(19), channel_mode="ideal")
        assert result.perturbation.power <= budget.linear + 1e-9
        assert result.perturbation.power < 1e-19

    @pytest.mark.parametrize("mode", ["double", "ideal"])
    def test_rmaef_budget(self, mode):
        cfg, nets = self._system(seed=20)
        budget = AttackBudget(-7.0, reference_power=cfg.power)
        pgd = AttackSettings(n_p=5, n_s=1)
        result = rmaef(nets, cfg, budget, pgd, np.random.default_rng(21), channel_mode=mode)
        assert result.perturbation.power <= budget.linear + 1e-9
        assert result.grad_evals == 5

    def test_export_round_trip(self, tmp_path):
        cfg, nets = self._system(seed=22)
        budget = AttackBudget(-7.0, reference_power=cfg.power)
        result = rmaef(nets, cfg, budget, AttackSettings(n_p=3, n_s=1),
                       np.random.default_rng(23), channel_mode="double")
        path = tmp_path / "perturbation.csv"
        export_perturbation(path, result.perturbation, "double", psr_db=-7.0)
        loaded, meta = load_perturbation(path)
        assert np.array_equal(loaded.values, result.perturbation.values)
        assert meta["psr_db"] == -7.0
        assert meta["channel_mode"] == "double"
