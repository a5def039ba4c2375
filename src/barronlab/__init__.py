"""Constructive shallow-network approximation experiments.

Submodules
----------
numerics        box quadrature, Sobolev mode weights, log-log rate fits
barron          lattice Fourier expansions, bump mollifier, periodization
greedy_fourier  greedy n-term truncation and closed-form rate exponents
relu_nets       powered-rectifier dictionary, exact monomial algebra,
                cube-partition compiler, norm certificates
sphere_geom     greedy direction nets and separated subsets on the sphere
subsample       dictionary truncation and Hoeffding-certified subsampling
lower_bounds    witness families, dyadic blocks, gap probes, tail-mass
                integrals
rates           experiment harness with verdicts
cli             command-line interface over all of the above
"""

from .numerics import RateFit, integrate, loglog_fit, sobolev_weight
from .barron import (
    FourierSum,
    WeightSpec,
    barron_norm,
    bump_value,
    evaluate_sum,
    fourier_sum,
    from_arrays,
    hm_norm_exact,
    mollified_cutoff,
    periodize_expand,
)
from .greedy_fourier import (
    ExponentTable,
    GreedySelection,
    order_frequencies,
    rate_exponents,
    synthetic_heavy_tail,
    tail_error_hm,
    tail_errors_hm,
    truncate_top_n,
)
from .relu_nets import (
    CubePartition,
    ReluNetwork,
    compile_sobolev_approximant,
    evaluate_network,
    indicator_bump,
    monomial_network_1d,
    monomial_product_expansion,
    network_hm_upper,
    ridge_local_taylor,
    sigma_k,
)
from .sphere_geom import SphericalNet, covering_radius, greedy_net, separated_subset
from .subsample import (
    AtomicMeasure,
    hoeffding_delta,
    maurey_subsample,
    truncate_dictionary_measure,
)
from .lower_bounds import (
    PackingFamily,
    build_packing,
    dyadic_blocks,
    example2_tail_mass,
    exp_ridge_fourier,
    fano_lower_bound,
    highfreq_gap,
    oscillatory_witness,
    pairwise_separation,
    residual_tail_norm,
)
from .rates import ExperimentReport, run_experiment

__all__ = [name for name in dir() if not name.startswith("_")]
