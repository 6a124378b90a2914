#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md: paper-vs-measured for every artifact.

Runs every table/figure driver at the given settings and writes the
rendered reports, plus the standing notes about scale and known
deviations, to EXPERIMENTS.md.

Usage::

    python tools/make_experiments_md.py [--timing N] [--warmup N] [-o PATH]
"""

import argparse
import sys
import time

from repro.experiments.cli import ARTIFACTS, _ORDER
from repro.experiments.runner import ExperimentSettings

_PREAMBLE = """\
# EXPERIMENTS — paper vs measured

Reproduction of every evaluation artifact in Moshovos & Sohi,
"Memory Dependence Speculation Tradeoffs in Centralized,
Continuous-Window Superscalar Processors" (HPCA 2000).

Regenerate this file with::

    python tools/make_experiments_md.py

Scale: the paper simulates ~100M instructions per (program, config)
point on an execution-driven Multiscalar-derived simulator; each of our
points runs a deterministic synthetic stand-in trace of
{timing:,} timed instructions after {warmup:,} instructions of
functional cache/predictor warm-up (the paper's own sampling
methodology, Section 3.1, scaled down). Absolute IPCs are therefore
not comparable point-for-point; the claims under reproduction are the
*shapes*: who wins, by roughly what factor, and where the crossovers
fall. Each artifact below prints measured values next to the paper's
where the paper gives them.

`repro-experiments check findings DIR` checks those shapes: each
finding is a named predicate over the data that
`repro-experiments all --json DIR` writes. Runs of 6,000 timed and
4,000 warm-up instructions (`--quick`) and the CLI default
(16,000/10,000) hold every predicate; 3,000/1,875 does not (two F6
predicates fail, for the reason of deviation 1).

## Known deviations (and why)

1. **NAS/SYNC miss-speculation rates (Table 4) are higher than the
   paper's in absolute terms.** Speculation/synchronization pays
   roughly one training miss-speculation per static (load, store) pair
   (verified: no static pair in our runs miss-speculates more than
   twice). The paper amortises that constant over ~10^8 instructions;
   a {timing:,}-instruction sample cannot. The claim that survives —
   and is checked by the F6 predicate `sync_tenth_of_nav_misses` — is
   the order-of-magnitude reduction relative to naive speculation.
2. **NAS/SEL is milder here than in the paper.** Our synthetic
   dependence sets are stable per PC, so a selective predictor rarely
   over-blocks; the paper's real traces make it oscillate (periodic
   counter resets, aliasing). The store-barrier policy's non-robustness
   (losses on many programs) does reproduce.
3. **Figure 3's AS/NAV-over-AS/NO gap** is sensitive to how many store
   addresses arrive late (pointer stores); it reproduces in sign and
   rough size but not per-benchmark.

"""


#: Prose appended after specific artifacts' rendered tables.
_COMMENTARY = {
    "stalls": """\
**Where the cycles go.** The table restates the paper's first two
findings as a cycle ledger. Under `NO`, every slot in the
`memdep-wait` column is a load (and everything serialised behind it)
held behind older stores *not known* to conflict — the full price of
not speculating, and it grows with the window (compare the w64 and
w128 rows). Naive speculation (`NAV`) zeroes that column by
construction and pays instead in `squash-recovery`, a far smaller
bill — that trade is **F1**: naive speculation is highly profitable,
increasingly so with window size. The `ORACLE` rows price perfect
dependence knowledge: no memdep-wait, no squash-recovery, only the
irreducible `sync-wait` on true dependences. The remaining gap
between NAV and ORACLE (squash-recovery plus its refill knock-on) is
exactly what the paper's smarter policies (SEL/STORE/SYNC,
Figures 5–6) compete to recover — **F2**. Conservation
(`commit + stall causes = 100%` of width × cycles) is exact per row;
`docs/OBSERVABILITY.md` documents the attribution rules.
""",
    "figure7-sweep": """\
**What a real fabric costs.** Figure 7 proper shows the split window
miss-speculating where the continuous window does not, even with a
0-cycle scheduler. This sweep prices the axes the paper holds ideal.
The `inf`-bandwidth column is the ideal fabric: posted store
addresses appear everywhere at once, so extra scheduler latency only
lets a few more loads slip past the gate before visibility and the
rate barely moves. In the bounded columns a posted address is a
*message* through the split window's sync fabric
(`docs/SPLITWINDOW.md`): a dependent load issuing after the store but
before the message arrives consumed a value the fabric had not yet
shown it — a miss-speculation no continuous window would commit. That visibility
window roughly doubles the miss-speculation rate the moment the
scheduler has any latency at all, and tightening bandwidth from 4 to
1 message/cycle adds queueing delay on top (monotonically — the note
line records the per-column R6 monotonicity check, which
`tests/test_figure7_sweep.py` asserts). IPC moves far less than the
miss-speculation rate: task-granular squash keeps re-execution off
the commit critical path at these trace lengths, so the fabric's
price is paid in wasted work and memory traffic, not raw cycles —
consistent with the paper's framing that the split window's problem
is *speculation quality*, not throughput.
""",
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--timing", type=int, default=16_000)
    parser.add_argument("--warmup", type=int, default=10_000)
    parser.add_argument("-o", "--output", default="EXPERIMENTS.md")
    args = parser.parse_args()
    settings = ExperimentSettings(args.timing, args.warmup)

    sections = [
        _PREAMBLE.format(
            timing=settings.timing_instructions,
            warmup=settings.warmup_instructions,
        )
    ]
    for name in _ORDER:
        started = time.time()
        report = ARTIFACTS[name](settings)
        elapsed = time.time() - started
        print(f"[{name}: {elapsed:.1f}s]", file=sys.stderr)
        sections.append(f"## {report.experiment}: {report.title}\n")
        sections.append("```")
        sections.append(report.render())
        sections.append("```\n")
        if name in _COMMENTARY:
            sections.append(_COMMENTARY[name] + "\n")

    with open(args.output, "w") as handle:
        handle.write("\n".join(sections))
    print(f"wrote {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
