"""Commitment-round compilation: honest equality with the base protocol,
binding detection of commitment substitution, pipeline composition."""

import numpy as np
import pytest

from qpzk.core import rng_from, random_unitary
from qpzk.errors import ConfigError, DimensionMismatchError, StateValidationError
from qpzk.crypto.commitments import CanonicalCommitment, bell_ancilla_scheme
from qpzk.compilers.commit_rounds import CommitRoundProtocol, fresh_c_substitution_strategy
from qpzk.compilers.examples import copier_base, rotated_copier_base
from qpzk.compilers.pipeline import (
    build_pipeline,
    composite_bound,
    pipeline_cheat_strategies,
)
from qpzk.protocol import Strategy, run_protocol


def one_qubit_scheme() -> CanonicalCommitment:
    # One message qubit and one plain ancilla: Com entangles the ancilla
    # with nothing, keeping verification exact while the message hides in C.
    com = np.kron(np.eye(2, dtype=complex), np.eye(2, dtype=complex))
    return CanonicalCommitment("plain", 1, 1, com, c_wires=(0,), d_wires=(1,))


class TestHonestExecution:
    def test_perfect_completeness_preserved(self):
        proto = CommitRoundProtocol(copier_base(), one_qubit_scheme())
        result = proto.execute(proto.base.honest)
        assert result.accept_probability == pytest.approx(1.0, abs=1e-9)
        assert result.abort_probability == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_ideal_world_equals_base_for_any_rm_strategy(self, seed):
        g = rng_from(3200, seed)
        base = copier_base()
        proto = CommitRoundProtocol(base, one_qubit_scheme())
        # Gate lists on local wires (0, 1) of a slot: (R, M) in both runs.
        strat = Strategy({f"P{i}": [(random_unitary(4, g), (0, 1))] for i in (1, 2)},
                         name="random-rm")
        result = proto.execute(strat)
        want = run_protocol(base, strat)
        assert result.accept_probability == pytest.approx(want, abs=1e-9)
        assert result.abort_probability == pytest.approx(0.0, abs=1e-12)

    def test_bell_scheme_roundtrips(self):
        proto = CommitRoundProtocol(rotated_copier_base(0.6), bell_ancilla_scheme(1))
        result = proto.execute(proto.base.honest)
        want = run_protocol(rotated_copier_base(0.6))
        assert result.accept_probability == pytest.approx(want, abs=1e-9)


class TestProverOperationChecks:
    @pytest.mark.parametrize("mat,error", [
        (2 * np.eye(8), StateValidationError),
        (np.eye(8)[:, :2], DimensionMismatchError),
        (np.eye(2), DimensionMismatchError),
        (np.eye(4), DimensionMismatchError),
    ], ids=["not-unitary", "not-square", "wrong-size", "without-c"])
    def test_bad_prover_operation_rejected(self, mat, error):
        # A matrix slot acts on all of (R, M, C), three qubits here.
        proto = CommitRoundProtocol(copier_base(), bell_ancilla_scheme(1))
        with pytest.raises(error, match="strategy 'bad'"):
            proto.execute(Strategy({"P1": mat, "P2": np.eye(8)}, name="bad"))

    def test_substitution_round_outside_the_run_rejected(self):
        proto = CommitRoundProtocol(copier_base(), bell_ancilla_scheme(1))
        with pytest.raises(ConfigError, match=r"at_round 3 outside 1\.\.2"):
            fresh_c_substitution_strategy(proto, at_round=3)


class TestBindingDetection:
    def test_fresh_commitment_substitution_detected(self):
        # Swapping the kept commitment wire for fresh zeros before reopening
        # is caught by the ancilla check with an exactly computable rate.
        base = copier_base()
        scheme = bell_ancilla_scheme(1)
        proto = CommitRoundProtocol(base, scheme)
        strat = fresh_c_substitution_strategy(proto, at_round=1)
        result = proto.execute(strat)
        assert result.abort_probabilities[0] > 0.1
        # Independent check of the round-1 abort: replace the C wires of the
        # committed |psi_w 0 0> state by zeros and reopen, all with raw
        # matrix arithmetic.
        from qpzk.core import linalg

        committed = scheme.com @ np.kron(
            np.array([1, 0], dtype=complex),        # psi_w = |0>
            linalg.basis_vector(0, 4))              # two ancillas
        rho = np.outer(committed, committed.conj())
        c_pos = list(scheme.c_wires)
        keep_d = [q for q in range(3) if q not in c_pos]
        red_d = linalg.partial_trace_matrix(rho, keep_d, 3)
        fresh = linalg.basis_vector(0, 2 ** len(c_pos))
        rebuilt = np.kron(np.outer(fresh, fresh.conj()), red_d)
        order = c_pos + keep_d
        inv = list(np.argsort(order))
        rebuilt = linalg.permute_matrix(rebuilt, inv, 3)
        opened = scheme.com.conj().T @ rebuilt @ scheme.com
        zero_anc = np.kron(np.eye(2), np.diag([1, 0, 0, 0]))  # message, ancillas
        pass_prob = float(np.trace(zero_anc @ opened).real)
        assert result.abort_probabilities[0] == pytest.approx(1.0 - pass_prob, abs=1e-9)

    def test_untouched_commitment_never_aborts(self):
        proto = CommitRoundProtocol(copier_base(), bell_ancilla_scheme(1))
        result = proto.execute(proto.base.honest)
        assert result.abort_probability == pytest.approx(0.0, abs=1e-12)


class TestPipeline:
    def test_composite_bound_formula(self):
        # collapsed(0.5, 2) = 1 - 1/64 = 0.984375; squared then through the
        # public-coin formula.
        inner = 0.984375 ** 2
        want = 0.75 + np.sqrt(inner) / 2
        assert composite_bound(0.5, 2, 2) == pytest.approx(want, abs=1e-12)

    def test_executable_pipeline_cheats_below_composite(self):
        from qpzk.optimize import brute_force_prover_value

        base = rotated_copier_base(np.pi / 3)
        pc = build_pipeline(base)
        zeta = brute_force_prover_value(base, rng_from(3300), restarts=6, iters=100)
        bound = composite_bound(min(zeta, 1.0), 2, 1)
        rng = rng_from(3301)
        for strat in pipeline_cheat_strategies(pc, rng):
            value = pc.acceptance(strat)
            assert value <= bound + 1e-9

    def test_pipeline_honest_completeness(self):
        pc = build_pipeline(copier_base())
        hon = pc.honest_strategy()
        assert pc.acceptance(hon) == pytest.approx(1.0, abs=1e-9)
