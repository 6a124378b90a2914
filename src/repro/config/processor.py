"""Configuration dataclasses mirroring Table 2 of the paper.

The paper names each configuration ``A/B`` where ``A`` says whether an
address-based load/store scheduler is present (``AS``) or absent (``NAS``)
and ``B`` names the memory dependence speculation policy. Those two axes
are :class:`SchedulingModel` and :class:`SpeculationPolicy` here; the rest
of the dataclasses capture the fixed machine of Table 2.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.isa.latencies import LatencyTable, DEFAULT_LATENCIES


class SchedulingModel(enum.Enum):
    """Whether an address-based load/store scheduler is used."""

    AS = "AS"  # address-based scheduler present
    NAS = "NAS"  # no address-based scheduler


class SpeculationPolicy(enum.Enum):
    """Memory dependence speculation policy (Section 2.1)."""

    NO = "NO"  # never speculate: loads wait for all older stores
    NAIVE = "NAV"  # speculate every load as soon as its address is ready
    SELECTIVE = "SEL"  # predict dependence-prone loads; they do not speculate
    STORE_BARRIER = "STORE"  # predict dependence-prone stores; they barrier
    SYNC = "SYNC"  # speculation/synchronization via MDPT synonyms
    ORACLE = "ORACLE"  # perfect a-priori dependence knowledge
    #: Extension (not in the paper's evaluation): the store-set
    #: predictor of Chrysos & Emer [4], for head-to-head ablations
    #: against the MDPT scheme.
    STORE_SETS = "SSET"


@dataclass(frozen=True)
class FetchConfig:
    """Fetch unit (Table 2): 8-wide, 4 outstanding requests."""

    width: int = 8
    max_outstanding_requests: int = 4
    #: Combining of up to 4 non-continuous blocks per cycle.
    max_blocks_per_cycle: int = 4
    #: Combined fetch + place-into-window latency ("a combined 4 cycles").
    front_end_depth: int = 4


@dataclass(frozen=True)
class BranchPredictorConfig:
    """64K-entry McFarling combined predictor (Table 2)."""

    meta_entries: int = 64 * 1024
    bimodal_entries: int = 64 * 1024
    gselect_entries: int = 64 * 1024
    global_history_bits: int = 5
    btb_entries: int = 2048
    btb_assoc: int = 2
    ras_entries: int = 64
    max_predictions_per_cycle: int = 4
    max_resolutions_per_cycle: int = 4


@dataclass(frozen=True)
class CacheConfig:
    """One cache level (geometry + timing + MSHR limits)."""

    name: str
    size_bytes: int
    assoc: int
    block_bytes: int
    banks: int
    hit_latency: int
    #: Latency of a miss serviced by the next level (paper quotes fixed
    #: miss costs per level; transfer time is added by the hierarchy).
    miss_latency: int
    mshr_primary_per_bank: int
    mshr_secondary_per_primary: int

    @property
    def sets_per_bank(self) -> int:
        total_blocks = self.size_bytes // self.block_bytes
        return total_blocks // (self.assoc * self.banks)

    def __post_init__(self) -> None:
        if self.size_bytes % self.block_bytes:
            raise ValueError(f"{self.name}: size not a multiple of block")
        total_blocks = self.size_bytes // self.block_bytes
        if total_blocks % (self.assoc * self.banks):
            raise ValueError(
                f"{self.name}: blocks not divisible by assoc*banks"
            )
        if self.sets_per_bank & (self.sets_per_bank - 1):
            raise ValueError(f"{self.name}: sets per bank not a power of 2")


@dataclass(frozen=True)
class MainMemoryConfig:
    """Infinite main memory: 34 cycles + 2 cycles per 4-word transfer."""

    base_latency: int = 34
    cycles_per_transfer: int = 2
    transfer_words: int = 4


@dataclass(frozen=True)
class WindowConfig:
    """Reorder buffer / issue resources (Table 2 "OOO core")."""

    size: int = 128  # reorder-buffer entries
    issue_width: int = 8  # operations per cycle
    memory_ports: int = 4
    #: Copies of every functional unit (all fully pipelined).
    fu_copies: int = 8

    def __post_init__(self) -> None:
        # With none of any of these some instruction can never issue,
        # and the core's clock steps one cycle at a time while work
        # waits, so the run would never end.
        for name in ("issue_width", "memory_ports", "fu_copies"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass(frozen=True)
class MemDepConfig:
    """Memory dependence machinery (Sections 3.3-3.6)."""

    scheduling: SchedulingModel = SchedulingModel.NAS
    policy: SpeculationPolicy = SpeculationPolicy.NO
    #: Extra cycles through the address-based scheduler (0, 1 or 2).
    addr_scheduler_latency: int = 0
    #: Predictor geometry: "4K, 2-way set associative" for SEL/STORE/SYNC.
    predictor_entries: int = 4096
    predictor_assoc: int = 2
    #: LFST size for the store-set extension policy.
    lfst_entries: int = 256
    #: SEL/STORE confidence: 3 miss-speculations before predicting.
    confidence_threshold: int = 3
    #: Counters/MDPT flushed every this many cycles (paper: 1M cycles;
    #: scaled down by default because our samples are far shorter).
    flush_interval: int = 100_000
    #: Squash re-dispatch penalty: cycles before the squashed load and its
    #: successors re-enter the window (front-end refill).
    squash_refill_penalty: int = 4
    #: Miss-speculation recovery: "squash" (invalidate everything after
    #: the load — the paper's model) or "selective" (re-execute only the
    #: load and its dependents — the Section 2 alternative, an ablation
    #: extension here).
    recovery: str = "squash"

    def __post_init__(self) -> None:
        if self.addr_scheduler_latency < 0:
            raise ValueError("addr_scheduler_latency must be >= 0")
        if self.recovery not in ("squash", "selective"):
            raise ValueError(
                f"unknown recovery model {self.recovery!r}"
            )
        if (
            self.scheduling is SchedulingModel.NAS
            and self.addr_scheduler_latency
        ):
            raise ValueError("NAS model has no address scheduler latency")
        if self.policy in (
            SpeculationPolicy.SELECTIVE,
            SpeculationPolicy.STORE_BARRIER,
            SpeculationPolicy.SYNC,
            SpeculationPolicy.STORE_SETS,
        ) and self.scheduling is SchedulingModel.AS:
            raise ValueError(
                f"paper only evaluates {self.policy.value} without an "
                "address-based scheduler (NAS)"
            )


@dataclass(frozen=True)
class SplitWindowConfig:
    """Distributed split-window parameters (Section 3.7).

    The fabric fields parameterize the cross-window synchronization
    fabric of :class:`repro.splitwindow.processor.SplitWindowProcessor`
    (:mod:`repro.splitwindow.fabric`): how long a posted store address
    takes to cross between units (``link_latency``), how many such
    messages the fabric can deliver per cycle (``sync_bandwidth``), and
    whether main-memory accesses contend for banks (``mem_banks`` /
    ``bank_ports``). All default to the *ideal* fabric (0-latency
    links, unbounded bandwidth, no bank contention), where a posted
    address is visible to every unit without a message.
    """

    enabled: bool = False
    num_units: int = 4
    #: Dynamic instructions assigned to each sub-window task.
    task_size: int = 32
    #: Extra cycles for a posted store address to cross the sync fabric
    #: between units (on top of the address scheduler's own latency).
    link_latency: int = 0
    #: Cross-window sync-fabric bandwidth in messages per cycle
    #: (0 = unbounded; excess messages queue FIFO behind earlier ones).
    sync_bandwidth: int = 0
    #: Interleaved data-memory banks contended by load accesses
    #: (0 = no contention modelled).
    mem_banks: int = 0
    #: Accesses each bank can accept per cycle when ``mem_banks`` > 0.
    bank_ports: int = 1

    def __post_init__(self) -> None:
        if self.num_units < 1:
            raise ValueError("num_units must be >= 1")
        if self.task_size < 1:
            raise ValueError("task_size must be >= 1")
        if self.link_latency < 0:
            raise ValueError("link_latency must be >= 0")
        if self.sync_bandwidth < 0:
            raise ValueError("sync_bandwidth must be >= 0 (0 = unbounded)")
        if self.mem_banks < 0:
            raise ValueError("mem_banks must be >= 0 (0 = no contention)")
        if self.bank_ports < 1:
            raise ValueError("bank_ports must be >= 1")


def _default_l1i() -> CacheConfig:
    return CacheConfig(
        name="L1I",
        size_bytes=64 * 1024,
        assoc=2,
        block_bytes=32,
        banks=8,
        hit_latency=2,
        miss_latency=10,
        mshr_primary_per_bank=2,
        mshr_secondary_per_primary=1,
    )


def _default_l1d() -> CacheConfig:
    return CacheConfig(
        name="L1D",
        size_bytes=32 * 1024,
        assoc=2,
        block_bytes=32,
        banks=4,
        hit_latency=2,
        miss_latency=10,
        mshr_primary_per_bank=8,
        mshr_secondary_per_primary=8,
    )


def _default_l2() -> CacheConfig:
    return CacheConfig(
        name="L2",
        size_bytes=4 * 1024 * 1024,
        assoc=2,
        block_bytes=128,
        banks=4,
        hit_latency=8,
        miss_latency=50,
        mshr_primary_per_bank=4,
        mshr_secondary_per_primary=3,
    )


@dataclass(frozen=True)
class ProcessorConfig:
    """Complete machine description.

    The default values reproduce the paper's Table 2 (128-entry continuous
    window). Use :mod:`repro.config.presets` for the named configurations.
    """

    fetch: FetchConfig = field(default_factory=FetchConfig)
    branch: BranchPredictorConfig = field(
        default_factory=BranchPredictorConfig
    )
    window: WindowConfig = field(default_factory=WindowConfig)
    icache: CacheConfig = field(default_factory=_default_l1i)
    dcache: CacheConfig = field(default_factory=_default_l1d)
    l2: CacheConfig = field(default_factory=_default_l2)
    main_memory: MainMemoryConfig = field(default_factory=MainMemoryConfig)
    memdep: MemDepConfig = field(default_factory=MemDepConfig)
    split: SplitWindowConfig = field(default_factory=SplitWindowConfig)
    latencies: LatencyTable = DEFAULT_LATENCIES
    #: Cycles from branch mispredict resolution to corrected fetch reaching
    #: the window (front-end redirect penalty).
    branch_redirect_penalty: int = 4
    #: Attach the default observability bus (stall attribution — see
    #: :mod:`repro.observe`). Purely additive: timing is bit-identical
    #: with or without it; results gain an ``extra["observe"]`` summary.
    observe: bool = False
    #: Preferred simulator backend (``"reference"`` or ``"vector"``);
    #: None defers to ``$REPRO_BACKEND`` / the default. Backends are
    #: bit-identical, so this field is deliberately *excluded* from
    #: result-store keys and does not affect ``label``.
    backend: Optional[str] = None

    def with_memdep(
        self,
        scheduling: Optional[SchedulingModel] = None,
        policy: Optional[SpeculationPolicy] = None,
        addr_scheduler_latency: Optional[int] = None,
        **kwargs,
    ) -> "ProcessorConfig":
        """A copy of this config with memory-dependence fields replaced."""
        updates = dict(kwargs)
        if scheduling is not None:
            updates["scheduling"] = scheduling
        if policy is not None:
            updates["policy"] = policy
        if addr_scheduler_latency is not None:
            updates["addr_scheduler_latency"] = addr_scheduler_latency
        return replace(self, memdep=replace(self.memdep, **updates))

    @property
    def label(self) -> str:
        """Paper-style ``A/B`` name, e.g. ``NAS/SYNC`` or ``AS/NAV+1cy``."""
        name = f"{self.memdep.scheduling.value}/{self.memdep.policy.value}"
        if (
            self.memdep.scheduling is SchedulingModel.AS
            and self.memdep.addr_scheduler_latency
        ):
            name += f"+{self.memdep.addr_scheduler_latency}cy"
        return name
