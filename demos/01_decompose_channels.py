"""Walk through the canonical decomposition on a pair of qubit channels.

Amplitude damping is the textbook covariant channel: its two Kraus operators
already live in single energy sectors, so the extracted masks can be checked
against hand arithmetic.  A Hadamard gate is the counterexample.
"""
import numpy as np

import covchan as cc
from covchan import covariant as cov
from covchan.errors import NotCovariant

spectrum = cc.Spectrum(np.array([0.0, 1.0]))

gamma = 0.3
a0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex)
a1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
damping = cc.Channel((a0, a1))

print(f"amplitude damping, gamma = {gamma}")
print(f"  covariance defect: {cov.covariance_defect(damping, spectrum):.3e}")

decomp = cov.decompose(damping, spectrum)
for shift, mask in decomp.sectors:
    print(f"  sector sigma = {shift.sigma:+.0f}, domain {shift.domain}")
    print("   ", np.array2string(mask.mask.real, precision=4, suppress_small=True)
          .replace("\n", "\n    "))

# Trace preservation shows up as the mask diagonals summing to one per level.
print(f"  diagonal sums: {decomp.diagonal_sums()}")

rebuilt = cov.reconstruct(decomp)
dist = np.linalg.norm(cc.choi_of(rebuilt).matrix - cc.choi_of(damping).matrix)
print(f"  round-trip Choi distance: {dist:.3e}")

# The energy given away is itself observable: excite the qubit and watch
# sigma = -1 carry weight gamma.
excited = cc.DensityMatrix(np.diag([0.0, 1.0]))
dist_out = cov.shift_distribution(decomp, excited)
print(f"  shift distribution from |1><1|: {dist_out.as_dict()}")

print()
print("Hadamard gate (not covariant):")
h = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
gate = cc.Channel((h,))
print(f"  covariance defect: {cov.covariance_defect(gate, spectrum):.3f}")
try:
    cov.decompose(gate, spectrum)
except NotCovariant as exc:
    print(f"  decompose refuses: {exc}")
