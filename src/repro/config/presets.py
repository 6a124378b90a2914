"""Named machine presets used throughout the evaluation.

The paper evaluates two continuous-window machines:

* the default **128-entry** window of Table 2 (issue width 8, 4 memory
  ports, 8 copies of each functional unit), and
* a **64-entry** derivative ("derived from Table 2, by reducing issue
  width to 4, load/store ports to 2, and all functional units to 2").

Section 3.7 additionally discusses a **split-window** machine, which we
model by partitioning the same window into sub-windows with independent
fetch.
"""

from __future__ import annotations

from dataclasses import replace

from repro.config.processor import (
    MemDepConfig,
    ProcessorConfig,
    SchedulingModel,
    SpeculationPolicy,
    SplitWindowConfig,
    WindowConfig,
)


def continuous_window_128(
    scheduling: SchedulingModel = SchedulingModel.NAS,
    policy: SpeculationPolicy = SpeculationPolicy.NO,
    addr_scheduler_latency: int = 0,
    **memdep_kwargs,
) -> ProcessorConfig:
    """The paper's default machine (Table 2): 128-entry window."""
    return ProcessorConfig(
        memdep=MemDepConfig(
            scheduling=scheduling,
            policy=policy,
            addr_scheduler_latency=addr_scheduler_latency,
            **memdep_kwargs,
        )
    )


def continuous_window_64(
    scheduling: SchedulingModel = SchedulingModel.NAS,
    policy: SpeculationPolicy = SpeculationPolicy.NO,
    addr_scheduler_latency: int = 0,
    **memdep_kwargs,
) -> ProcessorConfig:
    """64-entry window: issue width 4, 2 memory ports, 2 FU copies."""
    base = continuous_window_128(
        scheduling, policy, addr_scheduler_latency, **memdep_kwargs
    )
    window = WindowConfig(
        size=64,
        issue_width=4,
        memory_ports=2,
        fu_copies=2,
        store_buffer_size=64,
    )
    return replace(base, window=window)


def split_window(
    scheduling: SchedulingModel = SchedulingModel.AS,
    policy: SpeculationPolicy = SpeculationPolicy.NAIVE,
    addr_scheduler_latency: int = 0,
    num_units: int = 4,
    task_size: int = 32,
    link_latency: int = 0,
    sync_bandwidth: int = 0,
    mem_banks: int = 0,
    bank_ports: int = 1,
    **memdep_kwargs,
) -> ProcessorConfig:
    """Distributed split-window machine for the Section 3.7 comparison.

    Total window capacity matches the 128-entry continuous machine, but is
    partitioned into *num_units* sub-windows that fetch independently.
    The fabric knobs (*link_latency*, *sync_bandwidth*, *mem_banks*,
    *bank_ports*) parameterize the cross-window sync fabric
    (:mod:`repro.splitwindow.fabric`); the defaults are the ideal fabric.
    """
    base = continuous_window_128(
        scheduling, policy, addr_scheduler_latency, **memdep_kwargs
    )
    return replace(
        base,
        split=SplitWindowConfig(
            enabled=True,
            num_units=num_units,
            task_size=task_size,
            link_latency=link_latency,
            sync_bandwidth=sync_bandwidth,
            mem_banks=mem_banks,
            bank_ports=bank_ports,
        ),
    )


def config_name(config: ProcessorConfig) -> str:
    """Stable display name, e.g. ``w128 NAS/SYNC`` or ``split AS/NAV``."""
    if config.split.enabled:
        prefix = f"split{config.split.num_units}"
    else:
        prefix = f"w{config.window.size}"
    return f"{prefix} {config.label}"
