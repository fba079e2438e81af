"""relu3d: constructive synthesis and verification of intra-linked
("height-augmented") ReLU approximation networks.

Module map:
    net          network representation, evaluation, serialization, transforms
    blocks       sawtooth / square / product / folding / clipping gadgets
    chebyshev, hermite, jackson, trig_operator, smoothness, targets, polynd
                 classical expansion machinery feeding the builders
    builders     one constructor per approximation statement, with size and
                 error-bound bookkeeping
    verify       error oracles, parameter sweeps, comparison reports
    cli          command-line front end
"""

from .net import (Net3D, Layer, Neuron, SizeMetrics, NetFormatError,
                  evaluate, evaluate_batch, evaluate_array, evaluate_exact,
                  metrics, serialize, deserialize, flatten_to_2d,
                  linear_combine, chain, parallel, parallel_shared,
                  identity_net)
from .blocks import (sawtooth_net, square_net, product2_unit, product_d_net,
                     power_chain_net, periodic_fold_net, clip_window_net)
from .targets import TargetSpec, ParityComponent, parity_decompose, catalog_ids
from .polynd import PolyND
from .builders import (BuildReport, HermiteParams, build_poly1d,
                       build_polyNd, build_smooth1d, build_analytic_cube,
                       build_analytic_ellipse, build_clipped_hermite,
                       choose_hermite_params, build_hermite_gauss,
                       build_trig, build_lp, expected_size, expected_bound,
                       TheoremSpec, THEOREMS, THEOREM_IDS, BASELINE_IDS)
from .verify import (ErrorReport, SweepRow, SweepTable, FitResult,
                     sup_error, lp_error, lp_errors, gauss_l2_error,
                     sweep, fit_and_check, table1_report)

__version__ = "0.1.0"
