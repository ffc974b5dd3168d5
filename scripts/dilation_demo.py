"""Dilation walkthrough: Naimark on the trine POVM, a simultaneous dilation
of a noisy two-input channel, and a joint commuting dilation, with residuals.

Usage:  python scripts/dilation_demo.py [--eta 0.8]
"""

import argparse

import numpy as np

import nsgames as ng

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)
I2 = np.eye(2, dtype=complex)


def trine() -> ng.Povm:
    effects = []
    for theta in (0.0, 2 * np.pi / 3, 4 * np.pi / 3):
        ket = np.array([np.cos(theta / 2), np.sin(theta / 2)], dtype=complex)
        effects.append((2.0 / 3.0) * np.outer(ket, ket.conj()))
    return ng.Povm(effects)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--eta", type=float, default=0.8,
                        help="noise parameter of the Z/X channel")
    args = parser.parse_args()

    povm = trine()
    dil = ng.naimark(povm)
    print(f"trine POVM on C^2 -> Naimark PVM on C^{dil.dilation_dim}")
    print(f"  reconstruction residual: {dil.residual:.3e}")
    print(f"  isometry residual:       {dil.isometry_residual:.3e}")

    eta = args.eta
    noisy_z = ng.Povm([(I2 + eta * PAULI_Z) / 2, (I2 - eta * PAULI_Z) / 2])
    noisy_x = ng.Povm([(I2 + eta * PAULI_X) / 2, (I2 - eta * PAULI_X) / 2])
    channel = ng.FiniteChannel([noisy_z, noisy_x])
    sim = ng.simultaneous_naimark(channel)
    print(f"\nnoisy Z/X channel (eta={eta}) -> one isometry, "
          f"{len(sim.dilated)} PVMs on C^{sim.dilation_dim}")
    print(f"  worst reconstruction residual: {sim.residual:.3e}")

    z_big = ng.Povm([np.kron(e, I2) for e in noisy_z.effects])
    x_big = ng.Povm([np.kron(I2, e) for e in noisy_x.effects])
    joint = ng.joint_commuting_dilation(z_big, x_big)
    print(f"\njoint commuting dilation of Z(x)I / I(x)X on C^4 -> "
          f"C^{joint.dilation_dim}")
    print(f"  cross-commutation residual: {joint.cross_residual:.3e}")
    print(f"  reconstruction residual:    {joint.residual:.3e}")


if __name__ == "__main__":
    main()
