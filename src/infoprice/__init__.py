"""Indifference pricing of income streams in a Merton jump-diffusion market
under three information regimes, and the value of the extra information."""

__version__ = "0.1.0"

from .model import (  # noqa: F401
    ConstantStream,
    ExpUntilFirstJumpStream,
    IncomeStream,
    ModelParams,
    PostFirstJumpSignalStream,
    ValidationReport,
    read_params_file,
    validate_params,
)
from .quadrature import (  # noqa: F401
    QuadratureRule,
    default_rule,
    expect_gaussian,
    g_of_q,
    gauss_hermite,
    phi2,
    psi_double_integral,
)
from .optimize import SolveResult, fixed_point_scalar, maximize_bounded  # noqa: F401
from .agents import (  # noqa: F401
    MertonSolution,
    RegimeSolutions,
    SignalInsiderSolution,
    TimingInsiderSolution,
    UninformedSolution,
    posterior_of_jump,
    q_bar_signal,
    signal_deflator,
    solve_all,
    solve_merton,
    solve_signal_insider,
    solve_timing_insider,
    solve_uninformed,
    timing_deflator,
    uninformed_deflator,
)
from .simulate import (  # noqa: F401
    PathRecord,
    SimConfig,
    deflator_at_times,
    draw_scenario,
    path_integrals,
    simulate_path,
)
from .pricing import (  # noqa: F401
    Conditioning,
    InfoValueReport,
    PriceEstimate,
    alpha_coef,
    beta_coef,
    closed_form_price,
    info_value_report,
    price_mc,
    truncation_bound,
)
