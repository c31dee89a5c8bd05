"""Earnings-announcement event studies driven by close-aligned tweet sentiment.

The library lives in the submodules (``eastudy.event_study``,
``eastudy.trading``, ``eastudy.reports`` and the rest); the ``eastudy``
console script in ``eastudy.cli`` drives the same code end to end.
"""

__version__ = "0.1.0"
