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

from .grid_aggregation import GridAggregation, reference_grid_aggregation
from .histogram import Histogram, reference_histogram
from .kernel_density import (
    GaussianKernelSmoother,
    ValueGridKDE,
    reference_gaussian_smoother,
    reference_value_grid_kde,
)
from .kmeans import KMeans, make_blobs, reference_kmeans
from .logistic_regression import (
    LogisticRegression,
    make_logreg_samples,
    reference_logreg,
)
from .minmax import MinMax, MinMaxObj
from .moving_average import MovingAverage, reference_moving_average
from .moving_median import MovingMedian, reference_moving_median
from .mutual_information import (
    MutualInformation,
    mutual_information_from_counts,
    reference_mutual_information,
)
from .objects import (
    ClusterObj,
    CountObj,
    GradientObj,
    HoldAllObj,
    SavGolObj,
    SumCountObj,
    WeightedWindowObj,
    WindowSumObj,
)
from .savgol import SavitzkyGolay, reference_savgol
from .structured import (
    MovingAverage3D,
    TileAggregation3D,
    reference_moving_average_3d,
    reference_tile_aggregation_3d,
)
from .window import (
    WindowScheduler,
    sliding_window_apply,
    window_bounds,
    window_coverage,
)

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
