"""mac: the trap MAC's round trip over all keys, its detection of a single
flip, and its natural simulator against a trap-flip attack."""

from __future__ import annotations

import numpy as np

from qpzk.core.metrics import trace_distance
from qpzk.core.operators import X
from qpzk.core.registers import RegisterLayout
from qpzk.core.states import random_pure_state
from qpzk.crypto.mac import QuantumMac, mac_real_vs_ideal, natural_simulator
from qpzk.harness.config import ExperimentConfig
from qpzk.harness.experiments import _stream
from qpzk.harness.records import ExperimentRecord, equality_row, threshold_row, upper_bound_row


def run(config: ExperimentConfig, record: ExperimentRecord) -> None:
    mac = QuantumMac(config.param("message_qubits"), config.param("traps"))
    rng = _stream(config, 0)
    msg = random_pure_state(RegisterLayout.single("Msg", mac.message_qubits), rng)
    want = msg.to_mixed()
    worst = 0.0
    for key in mac.keys:
        p, post = mac.decode(key, mac.encode(key, msg))
        worst = max(worst, abs(p - 1.0), trace_distance(post, want))
    record.add(equality_row("roundtrip-worst-error-over-all-keys", worst, 0.0,
                            config.tolerance("identity", 1e-9),
                            "exact:key-enumeration"))

    attack = np.kron(X, np.eye(2 ** (mac.code_qubits - 1), dtype=complex))
    det = mac.detection_probability(attack)
    want = mac.traps / mac.code_qubits
    record.add(equality_row("single-wire-flip-detection", det, want, 1e-12,
                            "exact:pauli-twirl"))

    rho = random_pure_state(RegisterLayout.of(("M", mac.message_qubits),
                                              ("R", 1)), rng).to_mixed()
    x_all = np.eye(1, dtype=complex)
    for _ in range(mac.code_qubits):
        x_all = np.kron(x_all, X)
    acc, rej = natural_simulator(mac, x_all, r_qubits=1)
    dist = mac_real_vs_ideal(mac, np.kron(x_all, np.eye(2, dtype=complex)),
                             rho, acc, rej, r_qubits=1)
    record.add(upper_bound_row("trap-flip-attack-simulation-distance", dist,
                               0.05, 0.0, "exact:pauli-twirl"))

    dist_wrong = mac_real_vs_ideal(mac, np.kron(attack, np.eye(2, dtype=complex)),
                                   rho, [np.eye(2, dtype=complex)], [], r_qubits=1)
    record.add(threshold_row("wrong-simulator-distance-near-detection-gap",
                             dist_wrong, 0.5, "exact:pauli-twirl", above=True))
