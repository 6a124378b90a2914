"""The paper's findings as named predicates over the artifacts' data.

Each predicate reads one artifact's ``data`` in the form
``repro-experiments all --json DIR`` writes it (``DIR/<artifact>.json``,
every key a string) and carries a tag:

* ``F1``-``F7``: the paper's findings, as DESIGN.md Section 1 states them;
* ``T1``/``T3``: the Table 1 and Table 3 calibration checks;
* ``A1``-``A5``: the ablations, as DESIGN.md numbers them.

A predicate yields a measured value and the bound it must meet, or one
pair per benchmark (per window size, per suite, ...); a per-item
predicate holds when every item does, and reports its worst item by
name. ``repro-experiments check findings DIR`` prints every predicate.

The thresholds are the shapes the reproduction claims. Runs of 6000
timed and 4000 warm-up instructions (``--quick``) and the CLI default
(16000/10000) hold them all; 3000/1875 does not (EXPERIMENTS.md).
"""

from __future__ import annotations

import json
import operator
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.stats.summary import geometric_mean
from repro.workloads.spec95 import (
    ALL_BENCHMARKS, FP_BENCHMARKS, INT_BENCHMARKS,
)

#: A bound is a number, or an open interval ``(low, high)`` for ``in``.
Bound = Union[float, Tuple[float, float]]

_OPS: Dict[str, Callable[[float, Bound], bool]] = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "in": lambda value, bound: bound[0] < value < bound[1],
}


def _margin(op: str, value: float, bound: Bound) -> float:
    """How far *value* is inside *bound*; the smallest is the worst."""
    if op == "in":
        return min(value - bound[0], bound[1] - value)
    if op == "==":
        return -abs(value - bound)
    return bound - value if op in ("<", "<=") else value - bound


class ArtifactError(Exception):
    """An artifact a predicate reads is missing or unreadable."""

    def __init__(self, artifact: str, reason: str) -> None:
        super().__init__(f"{artifact}: {reason}")
        self.artifact = artifact
        self.reason = reason


@dataclass(frozen=True)
class Finding:
    """One claim: *measure* maps an artifact's data to ``(value,
    bound)``, or to ``{item: (value, bound)}`` when it holds per item,
    and the claim is ``value <op> bound``."""

    tag: str
    artifact: str
    name: str
    op: str
    measure: Callable[[Mapping], object]

    def evaluate(self, data: Mapping) -> "Outcome":
        try:
            measured = self.measure(data)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ArtifactError(
                self.artifact,
                f"{self.name} cannot read its data "
                f"({type(exc).__name__}: {exc})",
            ) from None
        items = measured if isinstance(measured, dict) else {None: measured}
        if not items:
            return Outcome(self, None, None, None, True)
        test = _OPS[self.op]
        failing = {k: vb for k, vb in items.items() if not test(*vb)}
        where, (value, bound) = min(
            (failing or items).items(),
            key=lambda item: _margin(self.op, *item[1]),
        )
        return Outcome(self, value, bound, where, not failing)


@dataclass(frozen=True)
class Outcome:
    """A finding evaluated on one run: the worst item's value and bound
    (None for a per-item finding that no item applies to)."""

    finding: Finding
    value: Optional[float]
    bound: Optional[Bound]
    where: Optional[str]
    holds: bool

    def render(self) -> str:
        finding = self.finding
        if self.value is None:
            claim = "(no item applies)"
        else:
            claim = f"{_num(self.value)} {finding.op} {_num(self.bound)}"
            if self.where is not None:
                claim += f"  at {self.where}"
        return (
            f"{'holds' if self.holds else 'FAILS'}  {finding.tag:3s} "
            f"{finding.artifact:20s} {finding.name:34s} {claim}"
        )


def _num(value) -> str:
    if isinstance(value, tuple):
        return f"({', '.join(_num(v) for v in value)})"
    if isinstance(value, int):
        return str(value)
    return f"{value:.4g}"


#: Every finding, in the artifacts' order.
FINDINGS: List[Finding] = []


def _finding(tag: str, artifact: str, op: str):
    def register(measure):
        FINDINGS.append(Finding(tag, artifact, measure.__name__, op, measure))
        return measure
    return register


def _gmean(values: Mapping[str, float], names) -> float:
    return geometric_mean([values[name] for name in names])


def _numeric(data: Mapping[str, object]) -> List[Tuple[str, object]]:
    """*data*'s items by numeric key: JSON keys a window size, penalty
    or unit count as a string, and ``"128" < "32"``."""
    return sorted(data.items(), key=lambda item: float(item[0]))


def _steps(data: Mapping[str, float], bound: Callable[[float], float]):
    """``{"A->B": (value at B, bound(value at A))}`` over consecutive
    numeric keys."""
    ordered = _numeric(data)
    return {
        f"{a}->{b}": (vb, bound(va))
        for (a, va), (b, vb) in zip(ordered, ordered[1:])
    }


# -- Table 1: every stand-in trace matches its calibration -----------------

@_finding("T1", "table1", "==")
def one_record_per_benchmark(data):
    return len(data), len(ALL_BENCHMARKS)


@_finding("T1", "table1", "<")
def load_fraction_calibrated(data):
    """Load fraction within 6 points of Table 1's."""
    return {
        name: (abs(r["loads"] - r["loads_paper"]), 0.06)
        for name, r in data.items()
    }


@_finding("T1", "table1", "<")
def store_fraction_calibrated(data):
    """Store fraction within 6 points of Table 1's."""
    return {
        name: (abs(r["stores"] - r["stores_paper"]), 0.06)
        for name, r in data.items()
    }


# -- Figure 1: the payoff of load/store parallelism (F1) -------------------

@_finding("F1", "figure1", ">")
def oracle_wins_at_128(data):
    """NAS/ORACLE beats NAS/NO on every benchmark at 128 entries."""
    return {name: (s, 1.0) for name, s in data["speedup128"].items()}


@_finding("F1", "figure1", ">")
def payoff_grows_64_to_128(data):
    """The oracle's geo-mean speedup is larger at 128 than at 64."""
    return (
        geometric_mean(list(data["speedup128"].values())),
        geometric_mean(list(data["speedup64"].values())),
    )


@_finding("F1", "figure1", ">")
def fp_gains_more_than_int(data):
    speedup = data["speedup128"]
    return (
        _gmean(speedup, FP_BENCHMARKS), _gmean(speedup, INT_BENCHMARKS)
    )


@_finding("F1", "figure1", "in")
def int_payoff_near_paper(data):
    """Paper: about +55%."""
    return _gmean(data["speedup128"], INT_BENCHMARKS), (1.15, 2.3)


@_finding("F1", "figure1", "in")
def fp_payoff_near_paper(data):
    """Paper: about +154%."""
    return _gmean(data["speedup128"], FP_BENCHMARKS), (1.3, 3.4)


# -- Table 3: false dependences are common and slow (T3) -------------------

@_finding("T3", "table3", ">")
def false_dependences_common(data):
    """FD above 20% of loads on every benchmark."""
    return {name: (r["fd"], 20.0) for name, r in data.items()}


@_finding("T3", "table3", ">")
def false_dependences_slow(data):
    """RL above 3 cycles on every benchmark."""
    return {name: (r["rl"], 3.0) for name, r in data.items()}


@_finding("T3", "table3", ">")
def fp_fd_above_int(data):
    """Mean FD of the fp programs above the int programs'."""
    return (
        sum(data[b]["fd"] for b in FP_BENCHMARKS) / len(FP_BENCHMARKS),
        sum(data[b]["fd"] for b in INT_BENCHMARKS) / len(INT_BENCHMARKS),
    )


# -- Figure 2: naive speculation recovers part of it (F2) ------------------

@_finding("F2", "figure2", ">=")
def nav_beats_no_mostly(data):
    """NAS/NAV beats NAS/NO on all but at most 3 benchmarks."""
    ipc = data["ipc"]
    wins = sum(1 for b in ALL_BENCHMARKS if ipc[b]["NAV"] > ipc[b]["NO"])
    return wins, len(ALL_BENCHMARKS) - 3


@_finding("F2", "figure2", ">")
def oracle_keeps_edge_over_nav(data):
    ipc = data["ipc"]
    return geometric_mean(
        [ipc[b]["ORACLE"] / ipc[b]["NAV"] for b in ALL_BENCHMARKS]
    ), 1.05


@_finding("F2", "figure2", ">")
def nav_fp_gain(data):
    """NAS/NAV over NAS/NO, fp geo-mean."""
    ipc = data["ipc"]
    return geometric_mean(
        [ipc[b]["NAV"] / ipc[b]["NO"] for b in FP_BENCHMARKS]
    ), 1.15


# -- Table 4: miss-speculation rates (F2 NAV column, F6 SYNC column) -------

@_finding("F2", "table4", "<")
def nav_misses_below_25pct(data):
    return {name: (r["nav"], 25.0) for name, r in data.items()}


@_finding("F2", "table4", ">=")
def nav_misses_on_most(data):
    """NAV miss-speculates on more than 0.05% of loads on 12 or more."""
    return sum(1 for r in data.values() if r["nav"] > 0.05), 12


@_finding("F6", "table4", "<")
def sync_tenth_of_nav_misses(data):
    """SYNC's summed miss-speculation rate below a tenth of NAV's."""
    return (
        sum(r["sync"] for r in data.values()),
        sum(r["nav"] for r in data.values()) / 10,
    )


@_finding("F6", "table4", "<=")
def sync_misses_at_most_nav(data):
    return {name: (r["sync"], r["nav"] + 1e-9) for name, r in data.items()}


# -- Figure 3: AS/NAV is a small win over AS/NO (F3) -----------------------

@_finding("F3", "figure3", "in")
def asnav_small_win_0cy(data):
    """AS/NAV over AS/NO at a 0-cycle scheduler, geo-mean."""
    rel = data["relative"]["0"]
    return _gmean(rel, ALL_BENCHMARKS), (0.99, 1.25)


@_finding("F3", "figure3", "in")
def as_no_ipc_sane(data):
    return {name: (ipc, (0.3, 6.0)) for name, ipc in data["base_ipc"].items()}


# -- Figure 4: AS/NAV at 0 cycles tracks the oracle (F4) -------------------

def _figure4_means(data) -> Dict[str, float]:
    rel = data["relative"]
    return {label: _gmean(rel[label], ALL_BENCHMARKS) for label in rel}


@_finding("F4", "figure4", "<")
def asnav_0cy_tracks_oracle(data):
    """|AS/NAV 0cy - NAS/ORACLE| / NAS/ORACLE, geo-means over AS/NO."""
    means = _figure4_means(data)
    oracle = means["NAS/ORACLE"]
    return abs(means["AS/NAV 0cy"] - oracle) / oracle, 0.12


@_finding("F3", "figure4", "<")
def scheduler_latency_hurts(data):
    """Each scheduler cycle lowers AS/NAV's geo-mean."""
    means = _figure4_means(data)
    return {
        f"{a}cy->{b}cy": (means[f"AS/NAV {b}cy"], means[f"AS/NAV {a}cy"])
        for a, b in ((0, 1), (1, 2))
    }


# -- Figure 5: selective and store-barrier speculation (F5) ----------------

def _figure5_means(data) -> Tuple[float, float, float]:
    sel, store = data["sel"], data["store"]
    return (
        _gmean(sel["relative"], ALL_BENCHMARKS),
        _gmean(store["relative"], ALL_BENCHMARKS),
        _gmean(sel["oracle"], ALL_BENCHMARKS),
    )


@_finding("F5", "figure5", "<")
def sel_below_oracle(data):
    """SEL's geo-mean over NAS/NAV below the oracle's headroom."""
    sel, _, oracle = _figure5_means(data)
    return sel, oracle


@_finding("F5", "figure5", "<")
def store_below_oracle(data):
    """STORE's geo-mean at least 0.02 below the oracle's headroom."""
    _, store, oracle = _figure5_means(data)
    return store, oracle - 0.02


@_finding("F5", "figure5", ">=")
def store_loses_somewhere(data):
    """STORE below 0.995 of NAS/NAV on 3 or more benchmarks."""
    rel = data["store"]["relative"]
    return sum(1 for b in ALL_BENCHMARKS if rel[b] < 0.995), 3


@_finding("F5", "figure5", "<")
def store_no_large_win(data):
    return _figure5_means(data)[1], 1.05


# -- Figure 6: SYNC captures nearly all of the oracle's gain (F6) ----------

@_finding("F6", "figure6", ">")
def sync_captures_oracle_gain(data):
    """SYNC's share of the oracle's geo-mean gain over NAS/NAV."""
    sync = data["sync"]
    sync_mean = _gmean(sync["relative"], ALL_BENCHMARKS)
    oracle_mean = _gmean(sync["oracle"], ALL_BENCHMARKS)
    return (sync_mean - 1) / max(oracle_mean - 1, 1e-9), 0.6


@_finding("F6", "figure6", ">")
def sync_never_loses_badly(data):
    """SYNC above 0.9 of NAS/NAV on every benchmark."""
    rel = data["sync"]["relative"]
    return {name: (rel[name], 0.9) for name in ALL_BENCHMARKS}


@_finding("F6", "figure6", "<")
def sync_misses_below_1pct(data):
    miss = data["sync"]["miss"]
    return {name: (miss[name], 1.0) for name in ALL_BENCHMARKS}


# -- Figure 7: a split window miss-speculates at 0 cycles (F7) -------------

@_finding("F7", "figure7", "<")
def continuous_does_not_miss(data):
    return {name: (r["cont_miss"], 0.002) for name, r in data.items()}


@_finding("F7", "figure7", ">=")
def split_misses(data):
    """Split runs miss-speculating above 0.5%: all but one."""
    misses = sum(1 for r in data.values() if r["split_miss"] > 0.005)
    return misses, len(data) - 1


# -- Section 4 summary: average speedups in percent ------------------------

def _pct(data, key: str) -> float:
    return data[key]["measured"]


@_finding("F1", "summary", ">")
def oracle_over_no_int(data):
    return _pct(data, "oracle_over_no_int"), 10


@_finding("F1", "summary", ">")
def oracle_over_no_fp_above_int(data):
    return _pct(data, "oracle_over_no_fp"), _pct(data, "oracle_over_no_int")


@_finding("F2", "summary", ">")
def nav_over_no_int(data):
    return _pct(data, "nav_over_no_int"), 0


@_finding("F2", "summary", ">")
def nav_over_no_fp(data):
    return _pct(data, "nav_over_no_fp"), 15


@_finding("F2", "summary", "<")
def nav_over_no_fp_below_oracle(data):
    return _pct(data, "nav_over_no_fp"), _pct(data, "oracle_over_no_fp")


@_finding("F3", "summary", "in")
def asnav_over_asno_int(data):
    return _pct(data, "asnav_over_asno_int"), (-2, 25)


@_finding("F6", "summary", ">")
def sync_over_nav_half_oracle(data):
    """Per suite: SYNC's gain over NAV above half of ORACLE's."""
    return {
        suite: (_pct(data, f"sync_over_nav_{suite}"),
                0.5 * _pct(data, f"oracle_over_nav_{suite}"))
        for suite in ("int", "fp")
    }


@_finding("F6", "summary", "<=")
def sync_over_nav_within_oracle(data):
    """Per suite: SYNC's gain over NAV at most ORACLE's plus 3 points."""
    return {
        suite: (_pct(data, f"sync_over_nav_{suite}"),
                _pct(data, f"oracle_over_nav_{suite}") + 3.0)
        for suite in ("int", "fp")
    }


# -- Ablations --------------------------------------------------------------

@_finding("A1", "ablation-recovery", ">=")
def selective_not_worse(data):
    """Selective recovery at least 0.99 of squash recovery."""
    return {
        name: (r["selective"], r["squash"] * 0.99)
        for name, r in data.items()
    }


@_finding("A1", "ablation-recovery", "<")
def selective_closes_gap(data):
    """Where squash trails ORACLE by more than 0.05 IPC, selective
    recovery trails it by less."""
    gaps = {
        name: (r["oracle"] - r["selective"], r["oracle"] - r["squash"])
        for name, r in data.items()
    }
    return {name: gap for name, gap in gaps.items() if gap[1] > 0.05}


@_finding("A2", "ablation-predictors", ">=")
def sync_4k_vs_nav(data):
    """SYNC with a 4K MDPT at least 0.97 of NAS/NAV."""
    return {
        name: (r["SYNC 4K"], r["nav"] * 0.97) for name, r in data.items()
    }


@_finding("A2", "ablation-predictors", ">=")
def sset_4k_vs_nav(data):
    """Store sets at least 0.97 of NAS/NAV."""
    return {
        name: (r["SSET 4K"], r["nav"] * 0.97) for name, r in data.items()
    }


@_finding("A2", "ablation-predictors", "<")
def sset_close_to_sync(data):
    """|SSET 4K - SYNC 4K| below 15% of SYNC 4K."""
    return {
        name: (abs(r["SSET 4K"] - r["SYNC 4K"]), 0.15 * r["SYNC 4K"])
        for name, r in data.items()
    }


@_finding("A2", "ablation-predictors", ">=")
def small_mdpt_suffices(data):
    """SYNC with a 256-entry MDPT at least 0.9 of a 4K one."""
    return {
        name: (r["SYNC 256"], r["SYNC 4K"] * 0.9)
        for name, r in data.items()
    }


@_finding("A3", "ablation-window", ">")
def payoff_grows_with_window(data):
    """The largest window's payoff above the smallest's."""
    ordered = _numeric(data)
    return ordered[-1][1], ordered[0][1]


@_finding("A3", "ablation-window", ">")
def window_steps_keep_payoff(data):
    """Each larger window keeps more than 0.93 of the payoff."""
    return _steps(data, lambda smaller: smaller * 0.93)


@_finding("A4", "ablation-squash", "<=")
def costlier_squash_never_helps(data):
    """NAV/ORACLE at each costlier penalty at most 1.02 of the next
    cheaper one's."""
    ratios = {key: r["nav_vs_oracle"] for key, r in data.items()}
    return _steps(ratios, lambda cheaper: cheaper * 1.02)


@_finding("A4", "ablation-squash", "<")
def squash_spread_visible(data):
    """NAV/ORACLE at the costliest penalty below the cheapest's."""
    ordered = _numeric(data)
    return ordered[-1][1]["nav_vs_oracle"], ordered[0][1]["nav_vs_oracle"]


@_finding("A5", "ablation-split", ">")
def every_geometry_misses(data):
    return {f"{units} units": (rate, 0) for units, rate in _numeric(data)}


@_finding("A5", "ablation-split", ">=")
def distribution_misses_more(data):
    """The most distributed split at least 0.8 of the least's rate."""
    ordered = _numeric(data)
    return ordered[-1][1], ordered[0][1] * 0.8


def artifacts() -> List[str]:
    """The artifacts the findings read, in order."""
    return list(dict.fromkeys(finding.artifact for finding in FINDINGS))


def read_artifacts(directory: str) -> Dict[str, Mapping]:
    """The ``data`` of each artifact of :func:`artifacts` from
    ``directory/<artifact>.json``; raises :class:`ArtifactError` for a
    file that is missing or holds no data object."""
    read = {}
    for name in artifacts():
        path = os.path.join(directory, f"{name}.json")
        try:
            with open(path, encoding="utf-8") as handle:
                doc = json.load(handle)
        except OSError as exc:
            raise ArtifactError(name, exc.strerror or str(exc)) from None
        except ValueError as exc:
            raise ArtifactError(name, f"not JSON ({exc})") from None
        if not isinstance(doc, dict) or not isinstance(doc.get("data"), dict):
            raise ArtifactError(name, "no data object")
        read[name] = doc["data"]
    return read


def evaluate(data: Mapping[str, Mapping]) -> List[Outcome]:
    """Every finding over *data*, which maps an artifact to its data."""
    outcomes = []
    for finding in FINDINGS:
        if finding.artifact not in data:
            raise ArtifactError(finding.artifact, "missing")
        outcomes.append(finding.evaluate(data[finding.artifact]))
    return outcomes


def render(outcomes: List[Outcome]) -> str:
    """One line per finding, then a verdict naming the failing tags."""
    failing = [o.finding.tag for o in outcomes if not o.holds]
    held = len(outcomes) - len(failing)
    verdict = f"findings: {held} of {len(outcomes)} hold"
    if failing:
        verdict += f"; failing: {', '.join(dict.fromkeys(failing))}"
    return "\n".join([*(o.render() for o in outcomes), verdict])
