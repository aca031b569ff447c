"""Scoring harness for specialization discovery (paper Table 4, Sec. 6.2).

The paper normalizes the structure of specialization points, compares the
LLM's findings against a ground truth, counts true/false positives and
negatives, and reports precision, recall and F1 aggregated over repeated
runs. This module is that harness — it is exercised identically whether the
analyst is the rule-based extractor, a simulated LLM, or (in the original
work) a remote model.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from repro.discovery.schema import DICT_CATEGORIES, LIST_CATEGORIES


def _normalize_name(name: str) -> str:
    return name.lower().replace("-", "_").replace(" ", "_")


def _normalize_flag(flag: str | None) -> str:
    """Canonical flag form: ensure -D prefix, unify hyphen/underscore."""
    if not flag:
        return ""
    flag = flag.strip()
    if not flag.startswith("-"):
        flag = "-D" + flag
    name, eq, value = flag.partition("=")
    return _normalize_name(name.lstrip("-D")) + (eq + value if eq else "")


def report_items(report: dict, normalize: bool = True) -> set[tuple[str, str]]:
    """Flatten a specialization report into comparable (category, item) pairs.

    With ``normalize=False`` the raw names/flags are compared verbatim —
    which is how minor formatting discrepancies (hyphen vs underscore,
    missing ``-D``) hurt un-normalized scores in the paper's llama.cpp
    generalization experiment.
    """
    items: set[tuple[str, str]] = set()
    norm_name = _normalize_name if normalize else (lambda s: s)
    norm_flag = _normalize_flag if normalize else (lambda s: s or "")
    for category in DICT_CATEGORIES:
        for name, entry in report.get(category, {}).items():
            flag = entry.get("build_flag") if isinstance(entry, dict) else None
            items.add((category, f"{norm_name(name)}|{norm_flag(flag)}"))
    for category in LIST_CATEGORIES:
        for flag in report.get(category, []):
            items.add((category, norm_flag(flag) if normalize else flag))
    gpu = report.get("gpu_build", {})
    if isinstance(gpu, dict) and gpu.get("value"):
        items.add(("gpu_build", norm_flag(gpu.get("build_flag"))))
    bs = report.get("build_system", {})
    if isinstance(bs, dict) and bs.get("type") and bs["type"] != "undetermined":
        items.add(("build_system", bs["type"]))
    return items


@dataclass(frozen=True)
class Score:
    true_positives: int
    false_positives: int
    false_negatives: int

    @property
    def precision(self) -> float:
        denom = self.true_positives + self.false_positives
        return self.true_positives / denom if denom else 0.0

    @property
    def recall(self) -> float:
        denom = self.true_positives + self.false_negatives
        return self.true_positives / denom if denom else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0


def score_report(predicted: dict, truth: dict, normalize: bool = True) -> Score:
    """Compare a predicted report against the ground truth."""
    pred_items = report_items(predicted, normalize)
    true_items = report_items(truth, normalize)
    tp = len(pred_items & true_items)
    return Score(tp, len(pred_items - true_items), len(true_items - pred_items))


@dataclass
class AggregateScore:
    """Min/median/max over repeated runs, as Table 4 reports."""

    f1: tuple[float, float, float]
    precision: tuple[float, float, float]
    recall: tuple[float, float, float]
    runs: int

    @staticmethod
    def from_scores(scores: list[Score]) -> "AggregateScore":
        if not scores:
            raise ValueError("no scores to aggregate")

        def mmm(values: list[float]) -> tuple[float, float, float]:
            return (min(values), statistics.median(values), max(values))

        return AggregateScore(
            f1=mmm([s.f1 for s in scores]),
            precision=mmm([s.precision for s in scores]),
            recall=mmm([s.recall for s in scores]),
            runs=len(scores),
        )


@dataclass
class EvaluationRow:
    """One Table 4 row: a model's cost/latency/accuracy on one project."""

    model: str
    tokens_in_mean: float
    tokens_in_std: float
    tokens_out_mean: float
    tokens_out_std: float
    latency_mean: float
    latency_std: float
    cost_usd: float
    scores: AggregateScore
    extra: dict = field(default_factory=dict)
