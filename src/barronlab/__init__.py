"""Constructive shallow-network approximation experiments.

Import the submodules directly, for example ``from barronlab import
lower_bounds``; the package itself re-exports nothing.

Submodules
----------
numerics        box quadrature, Sobolev mode weights, log-log rate fits
barron          lattice Fourier expansions, bump mollifier, periodization
exponents       closed-form rate exponents, without NumPy
greedy_fourier  greedy n-term truncation
relu_nets       powered-rectifier dictionary, exact monomial algebra,
                cube-partition compiler, norm certificates
sphere_geom     greedy direction nets and separated subsets on the sphere
subsample       Hoeffding-certified subsampling of convex combinations
lower_bounds    witness families, dyadic blocks, gap probes, tail-mass
                integrals
rates           experiment harness with verdicts
cli             command-line interface over all of the above
"""
