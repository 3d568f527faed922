"""The truncated random-displacement channel, three ways.

The channel averages displacements D(z, r) over a uniform phase z and a
Rayleigh-distributed radius r.  Rotation invariance makes it covariant for
the number operator, so it has integer energy-shift sectors whose masks come
in closed form from its factorisation into a pure loss and an amplifier.
Monte Carlo over actual displacement matrices is the independent check.
"""
import numpy as np

import covchan as cc
from covchan import covariant as cov
from covchan import fock

params = fock.FockParams(dim=12, std_dev=0.3, mc_samples=50_000, seed=1)
print(f"dim {params.dim}, std_dev {params.std_dev}")

decomp = fock.gaussian_decomposition(params)
m0 = decomp.mask(0)
print(f"M0(0,0) = {m0.mask[0, 0].real:.10f}  "
      f"(closed form 1/(1+2s^2) = {1.0 / (1.0 + 2.0 * params.std_dev**2):.10f})")

print("per-level truncation defect:")
print(" ", np.array2string(decomp.truncation_defect, precision=2))

# The decomposition is a SectorDecomposition, so the covariant machinery takes it as is.
chan = cov.reconstruct(decomp)
print(f"reconstructed channel: {len(chan.kraus)} Kraus operators, "
      f"covariance defect {cov.covariance_defect(chan, decomp.spectrum):.2e}")

# Vacuum input: the diagonal of the output is the photon number distribution
# after the random kicks.
vac = np.zeros((params.dim, params.dim), dtype=complex)
vac[0, 0] = 1.0
out = cc.apply_matrix(chan, vac)
print("output diagonal from vacuum:")
print(" ", np.array2string(np.real(np.diag(out))[:6], precision=5))

print()
print(f"Monte Carlo with {params.mc_samples} samples...")
rep = fock.compare_decomposition_to_mc(params, cc.DensityMatrix(vac))
print(f"  worst deviation {rep.max_entry_deviation:.2e} vs allowance "
      f"{rep.max_allowed:.2e} (ratio {rep.worst_ratio:.2f}) -> "
      f"{'agree' if rep.ok else 'DISAGREE'}")
