"""walkchain: Markov-chain walking simulation and localization toolkit.

Models pedestrian movement on campus path networks as random walks, analyzes
the resulting chains (stationary behavior, hitting times, continuous-time
transients), calibrates normal and low-vision walking paces, and recovers
walked paths from noisy position fixes with obstacle-aware guidance alerts.
"""

from .chains import (
    ChainAnalysis,
    Distribution,
    StochasticMatrix,
    UnreachableStateError,
    accessible,
    analyze,
    array_from_csv,
    array_to_csv,
    commute_time,
    distribution_from_csv,
    distribution_to_csv,
    evolve,
    hitting_time,
    hitting_times,
    matrix_from_csv,
    matrix_to_csv,
    mixing_rate,
    mixing_time,
    n_step,
    sample_path,
    stationary_distribution,
    total_variation,
)
from .ctmc import (
    GeneratorMatrix,
    PoissonWindowError,
    UniformizedChain,
    generator,
    poisson_pmf,
    poisson_truncation,
    poisson_window,
    sample_arrivals,
    sojourn_mean,
    transient,
)
from .mapgraph import (
    EARTH_RADIUS_M,
    GeoPoint,
    LocalPoint,
    MapSchemaError,
    MapValidationError,
    PathGraph,
    Vertex,
    degree_sum,
    grid_graph,
    load_map,
    project,
    random_walk_matrix,
    unproject,
)
from .pipeline import (
    ALERT_KINDS,
    DEFAULT_SAFER_DISTANCE_M,
    NO_TRUTH,
    REFERENCE_FIELD_ERROR_M,
    AlertEvent,
    DeliveryReport,
    FileSink,
    FixError,
    Obstacle,
    SinkReport,
    Trace,
    TrellisError,
    WebhookSink,
    add_noise,
    detect,
    dispatch,
    format_alert_line,
    hold_on_obstacle,
    localization_error,
    obstacles_from_json,
    sequence_log_score,
    simulate_walk,
    smooth,
    snap,
    trace_from_csv,
    trace_to_csv,
)
from .profiles import (
    BLIND,
    MODE_EXACT,
    MODE_PAPER_ROUNDED,
    MODES,
    NORMAL,
    SURVEY_DISTANCES_M,
    ComparisonRow,
    WalkingProfile,
    builtin_profiles,
    comparison_table,
    distance_of_steps,
    get_profile,
    load_profile,
    steps_for_distance,
    table_to_csv,
    travel_time,
)
from .svgplot import line_plot

__version__ = "0.1.0"
