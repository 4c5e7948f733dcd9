"""Detection of long-range dependence in stationary time series.

Two classifiers — the time-domain variance-plot estimator and the
spectral-domain GPH estimator — plus exact fractional Gaussian noise
simulation, an excursion-count transform that extends detection to
infinite-variance series, and a Monte Carlo benchmark harness.
"""

from .errors import (
    ConfigError,
    DegenerateBlockVariance,
    DegenerateDesign,
    EmbeddingFailure,
    LrdetectError,
    OutOfRangeTheta,
    OverflowValue,
    WindowExceedsSeries,
    ZeroPeriodogramOrdinate,
)
from .excursion import (
    QuantileMeasure,
    draw_levels,
    ie_pipeline,
    resolve_quantiles,
    transform_series,
)
from .fgn import (
    FgnParams,
    SubordinationParams,
    fgn_autocovariance,
    simulate_fgn,
    subordinate,
)
from .gph import (
    GPH_LRD_THRESHOLD,
    GphConfig,
    Periodogram,
    classify_lrd_gph,
    full_ordinates,
    gph_estimate,
    gph_from_ordinates,
    periodogram,
)
from .series import (
    RegressionFit,
    TimeSeries,
    ols_slope,
    read_series_csv,
    write_series_csv,
)
from .study import (
    MetricsReport,
    StudyConfig,
    StudyReports,
    default_gph_grid,
    default_hurst_grid,
    default_variance_grid,
    ground_truth_label,
    rank_cutoffs,
    read_report_csv,
    replication_seed,
    run_study,
    write_study_outputs,
)
from .varplot import (
    VARIANCE_LRD_THRESHOLD,
    BlockVarianceCurve,
    VariancePlotConfig,
    admissible_delta_bound,
    block_mean_variances,
    classify_lrd_variance,
    curve_slope,
    variance_plot_slope,
)

__version__ = "0.1.0"
