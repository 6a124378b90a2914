"""Tests for the utilisation sampler on the observer bus."""

from repro.config import (
    continuous_window_128,
    SchedulingModel,
    SpeculationPolicy,
)
from repro.core import Processor
from repro.observe import ObserverBus, StallAccountant, UtilisationSampler


def _config(policy=SpeculationPolicy.ORACLE):
    return continuous_window_128(SchedulingModel.NAS, policy)


def _run(trace, policy=SpeculationPolicy.ORACLE):
    config = _config(policy)
    sampler = UtilisationSampler(config)
    Processor(config, trace, observer=ObserverBus([sampler])).run()
    return sampler


def test_samples_collected(memcopy_trace):
    sampler = _run(memcopy_trace)
    assert sampler.window.samples > 0
    assert 0 < sampler.window.mean <= 128
    assert sampler.window.max <= 128
    assert 0 <= sampler.issued.mean <= 8
    assert 0 <= sampler.ports.mean <= 4


def test_samples_every_simulated_cycle(memcopy_trace):
    """One sample per simulated cycle; fast-forwarded cycles get none."""
    config = _config()
    sampler = UtilisationSampler(config)
    accountant = StallAccountant(config)
    Processor(
        config, memcopy_trace, observer=ObserverBus([sampler, accountant])
    ).run()
    assert sampler.window.samples == (
        accountant.cycles_observed - accountant.skipped_cycles
    )


def test_histograms_cover_samples(memcopy_trace):
    sampler = _run(memcopy_trace)
    for histogram in (sampler.issued, sampler.ports):
        assert sum(histogram.counts.values()) == sampler.window.samples


def test_blocked_machine_has_fuller_window(memcopy_trace):
    """Under NAS/NO the window backs up behind blocked loads."""
    blocked = _run(memcopy_trace, SpeculationPolicy.NO)
    free = _run(memcopy_trace, SpeculationPolicy.ORACLE)
    assert blocked.window.mean > free.window.mean


def test_render(memcopy_trace):
    text = _run(memcopy_trace).render()
    assert "window occupancy" in text
    assert "issue-width histogram" in text


def test_empty_telemetry_zeroes():
    sampler = UtilisationSampler(_config())
    assert sampler.window.mean == 0.0
    assert sampler.issued.mean == 0.0
    assert sampler.ports.mean == 0.0
