"""
Spectral kernels and Chebyshev graph filters
============================================

The smooth social step generalizes from r(lambda) = lambda to any
nonnegative polynomial kernel of the Laplacian, executed in S local
exchange rounds per iteration (agents only ever talk to neighbors).
Steeper kernels suppress high graph frequencies harder; the per-mode
low-pass ratio lam_u / (lam_u + eta r(lambda_m)) makes that concrete.

Non-polynomial kernels get a Chebyshev fit first. The fit error on the
spectrum interval bounds how far the filtered field can deviate.
"""

import numpy as np

from adaptnets import (
    SpectralKernel,
    TheoryInputs,
    apply_spectral_kernel,
    filter_bound,
    random_geometric_graph,
    synth_smooth_tasks,
)
from adaptnets.strategies import social_spectral

rng = np.random.default_rng(11)
graph = random_geometric_graph(20, 0.45, rng)
spectrum = graph.spectrum
lam_max = float(spectrum.eigenvalues[-1])

# ---------------------------------------------------------------------------
# distributed recursion == dense operator
# ---------------------------------------------------------------------------

beta = np.array([0.0, 0.5, 0.25]) / (1 + lam_max) ** np.arange(3)
psi = rng.standard_normal((20, 2))
w = social_spectral(psi, graph, beta, mu_eta=0.05)
r_l = sum(b * np.linalg.matrix_power(spectrum.laplacian, s)
          for s, b in enumerate(beta))
oracle = psi - 0.05 * r_l @ psi
print(f"2-hop recursion vs dense operator: "
      f"{np.abs(w - oracle).max():.2e} max gap")

# ---------------------------------------------------------------------------
# fitting a non-polynomial kernel
# ---------------------------------------------------------------------------

# degree 6: odd degrees happen to dip negative near lam = 0 here, and
# kernels must stay nonnegative on the spectrum
heat = SpectralKernel.from_function(
    lambda lam: np.expm1(0.6 * lam), spectrum, degree=6)
print(f"\nChebyshev fit of exp(0.6 lam) - 1, degree 6: "
      f"max error {heat.fit_error:.2e} on [0, {lam_max:.2f}]")
print("coefficients:", np.array2string(heat.coefficients, precision=5))

# ---------------------------------------------------------------------------
# kernel shape decides how hard each graph frequency is filtered
# ---------------------------------------------------------------------------

truth = synth_smooth_tasks(spectrum, m=2, bandwidth=spectrum.eigenvalues[5],
                           rng=rng, scale_fn=lambda lam: 0.1 / (1 + lam))
kernels = [
    ("linear  r=lam", SpectralKernel.polynomial([0.0, 1.0])),
    ("cubic   r=lam^3/10", SpectralKernel.polynomial([0.0, 0.0, 0.0, 0.1])),
    ("fitted  exp(0.6 lam)-1", heat),
]
modes = [1, 3, 6, 12, 19]
print(f"\nlow-pass ratios at eta = 1 "
      f"(modes {', '.join(str(m) for m in modes)}):")
for name, kernel in kernels:
    inputs = TheoryInputs(mu=0.002, eta=1.0, m=2, noise_var=np.full(20, 0.1),
                          r_u=np.eye(2), spectrum=spectrum, kernel=kernel,
                          truth=truth.as_matrix())
    report = filter_bound(inputs)
    row = " ".join(f"{report.ratios[m]:.3f}" for m in modes)
    print(f"  {name:<24s} {row}")

print("\nsteeper kernels push high-frequency ratios toward zero while")
print("leaving the low modes (where smooth tasks live) almost untouched.")

# apply_spectral_kernel is the eigen-domain reference for r(L) @ field:
# the cubic kernel barely reacts to a smooth field but amplifies a
# full-band one, which is exactly what a smoothness penalty should do
rough = synth_smooth_tasks(spectrum, m=2, bandwidth=lam_max, rng=rng,
                           scale_fn=lambda lam: 0.1 / (1 + lam))
r_cubic = apply_spectral_kernel(kernels[1][1], spectrum)
print()
for name, field in [("smooth", truth.as_matrix()),
                    ("rough ", rough.as_matrix())]:
    gain = np.sum((r_cubic @ field) ** 2) / np.sum(field ** 2)
    print(f"cubic kernel energy gain on the {name} field: {gain:8.2f}")
