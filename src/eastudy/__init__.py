"""Earnings-announcement event studies driven by close-aligned tweet sentiment.

Library surface re-exported here; the ``eastudy`` console script in
``eastudy.cli`` drives the same code end to end.
"""

from .alignment import EventAnchor, TradingCalendar, anchor_event, relative_day
from .errors import EastudyError
from .event_study import (
    EventStudyResult,
    LabeledEvent,
    MarketModelFit,
    StudyConfig,
    abnormal_returns,
    aggregate_study,
    fit_market_model,
    summarize_car,
)
from .ingest import load_dataset, validate_event_coverage, write_dataset
from .model import (
    DailyBar,
    Dataset,
    EarningsEvent,
    IndexBar,
    Timing,
    TweetBucket,
    TweetBuckets,
)
from .regression import RegressionFit, fit_es_regression
from .returns import ReturnSeries, Surprise, daily_returns, earnings_surprise, trading_return
from .sentiment import (
    DailyCounts,
    DailyTweetCounts,
    EventPolarity,
    PolarityThresholds,
    categorize_event,
    categorize_event_by_surprise,
    daily_counts,
    sentiment_polarity_score,
    sentiment_score,
    tercile_thresholds,
)
from .synth import PlantedEvent, SynthSpec, generate, generate_with_truth
from .trading import Trade, TradeLedger, TradeReturnCurves, run_strategy, trade_return_curves

__version__ = "0.1.0"

__all__ = [
    "DailyBar",
    "DailyCounts",
    "DailyTweetCounts",
    "Dataset",
    "EarningsEvent",
    "EastudyError",
    "EventAnchor",
    "EventPolarity",
    "EventStudyResult",
    "IndexBar",
    "LabeledEvent",
    "MarketModelFit",
    "PlantedEvent",
    "PolarityThresholds",
    "RegressionFit",
    "ReturnSeries",
    "StudyConfig",
    "Surprise",
    "SynthSpec",
    "Timing",
    "Trade",
    "TradeLedger",
    "TradeReturnCurves",
    "TradingCalendar",
    "TweetBucket",
    "TweetBuckets",
    "abnormal_returns",
    "aggregate_study",
    "anchor_event",
    "categorize_event",
    "categorize_event_by_surprise",
    "daily_counts",
    "daily_returns",
    "earnings_surprise",
    "fit_es_regression",
    "fit_market_model",
    "generate",
    "generate_with_truth",
    "load_dataset",
    "relative_day",
    "run_strategy",
    "sentiment_polarity_score",
    "sentiment_score",
    "summarize_car",
    "tercile_thresholds",
    "trade_return_curves",
    "trading_return",
    "validate_event_coverage",
    "write_dataset",
]
