"""Exact-arithmetic laboratory for rank-two false theta functions.

Truncated q-series and bivariate Laurent expansions with exact rational
coefficients, the theta-quotient kernels built from them, the families
of weighted lattice sums they generate, a registry of verifiable
q-series identities, and double-precision checks of the modular and
elliptic transformation laws.
"""

from .rat import Rat, rat, rat_str, parse_rat
from .series import (
    PuiseuxSeries,
    pochhammer,
    eta_product,
    eta_quotient,
    series_to_json,
    series_from_json,
)
from .bilaurent import (
    BiLaurentSeries,
    bl_on_unit,
    expand_inverse_one_minus,
    bl_elliptic_shift,
    bl_to_json,
    bl_from_json,
)
from .thetas import (
    theta_hat,
    theta_hat_sum,
    theta01,
    calT,
    t2t_factor,
    s01_factor,
    f_series,
    J_series,
    kw_character_N3,
)
from .families import (
    G_frak,
    G_frak_rewrite_p2,
    G_frak_closed_p2,
    G_hyper,
    H_frak,
    coeff_F,
    F_constant_term,
    F0_series,
    rank_one_coeff,
    rogers_false_theta,
)
from .identities import (
    IdentityReport,
    report_to_json,
    registered_ids,
    identity_grid,
    identity_default_order,
    verify_identity,
    run_suite,
)
from .numeric import (
    eval_theta,
    eval_eta,
    eval_f,
    eval_T,
    eval_J,
    eval_q_series,
    eval_bilaurent,
    dedekind_sum,
    eta_multiplier,
    EtaMultiplierValidationError,
    TransformationResidual,
    check_transformation,
    run_transformation_checks,
    residual_report_to_json,
    LAW_IDS,
)

__version__ = "0.1.0"
