"""Median and quartiles of a sample, as every result row carries them."""

from __future__ import annotations

import statistics


def summarize(values: list[float]) -> dict:
    """``{"median", "q1", "q3", "min", "max", "n"}``; quartiles as Python's
    ``statistics.quantiles(values, n=4)`` gives them (the same estimator
    the PR driver applies across runs)."""
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def spread(row: dict) -> float:
    """Interquartile distance as a share of the median."""
    return (row["q3"] - row["q1"]) / row["median"] if row["median"] else 0.0
