"""The paper's nine analytics applications (plus min/max, Section 5.1).

========================  ==========================================
Class of analytics        Application
========================  ==========================================
visualization             :class:`GridAggregation`
statistical               :class:`Histogram`
similarity                :class:`MutualInformation`
feature                   :class:`LogisticRegression`
clustering                :class:`KMeans`
window-based              :class:`MovingAverage`, :class:`MovingMedian`,
                          :class:`GaussianKernelSmoother`,
                          :class:`SavitzkyGolay`
========================  ==========================================

Every application ships a pure-numpy ``reference_*`` ground-truth
implementation used by the tests and a numpy batch kernel
(``make_accumulator`` + ``batch_reduce``) where the reduction is
algebraic; :class:`MovingAverage` and :class:`GaussianKernelSmoother`
share one, ``WindowScheduler.scatter_window``.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".grid_aggregation": ("GridAggregation", "reference_grid_aggregation"),
    ".histogram": ("Histogram", "reference_histogram"),
    ".kernel_density": ("GaussianKernelSmoother", "ValueGridKDE",
                        "reference_gaussian_smoother", "reference_value_grid_kde"),
    ".kmeans": ("KMeans", "make_blobs", "reference_kmeans"),
    ".logistic_regression": ("LogisticRegression", "make_logreg_samples",
                             "reference_logreg"),
    ".minmax": ("MinMax", "MinMaxObj"),
    ".moving_average": ("MovingAverage", "reference_moving_average"),
    ".moving_median": ("MovingMedian", "reference_moving_median"),
    ".mutual_information": ("MutualInformation", "mutual_information_from_counts",
                            "reference_mutual_information"),
    ".objects": ("ClusterObj", "CountObj", "GradientObj", "HoldAllObj", "SavGolObj",
                 "SumCountObj", "WeightedWindowObj", "WindowSumObj"),
    ".savgol": ("SavitzkyGolay", "reference_savgol"),
    ".structured": ("MovingAverage3D", "TileAggregation3D", "reference_moving_average_3d",
                    "reference_tile_aggregation_3d"),
    ".window": ("WindowScheduler", "sliding_window_apply", "window_bounds",
                "window_coverage"),
})

__all__ = [
    "ClusterObj",
    "CountObj",
    "GaussianKernelSmoother",
    "GradientObj",
    "GridAggregation",
    "Histogram",
    "HoldAllObj",
    "KMeans",
    "LogisticRegression",
    "MinMax",
    "MinMaxObj",
    "MovingAverage",
    "MovingAverage3D",
    "MovingMedian",
    "MutualInformation",
    "SavGolObj",
    "SavitzkyGolay",
    "SumCountObj",
    "TileAggregation3D",
    "ValueGridKDE",
    "WeightedWindowObj",
    "WindowScheduler",
    "WindowSumObj",
    "make_blobs",
    "make_logreg_samples",
    "mutual_information_from_counts",
    "reference_gaussian_smoother",
    "reference_grid_aggregation",
    "reference_histogram",
    "reference_kmeans",
    "reference_logreg",
    "reference_moving_average",
    "reference_moving_average_3d",
    "reference_moving_median",
    "reference_mutual_information",
    "reference_savgol",
    "reference_tile_aggregation_3d",
    "reference_value_grid_kde",
    "sliding_window_apply",
    "window_bounds",
    "window_coverage",
]
