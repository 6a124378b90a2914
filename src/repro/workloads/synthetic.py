"""Synthetic-CFG trace generator.

Builds, per workload profile, a synthetic *static program* — a sequence of
loops whose bodies contain address computation, loads, compute chains,
stores and branches, optionally with a called function — and then executes
it abstractly to emit a dynamic trace with real PCs, register dependences,
runtime-computed addresses and memory values.

The generator is engineered so each mechanism under study sees the same
structure it would in a real trace:

* **addresses are ready early, store data late** — address registers are
  produced near the body top from the induction variable, while store data
  comes from the tail of a (possibly long-latency, possibly FP/divide)
  compute chain. This asymmetry is what makes "loads wait for all older
  stores" (NAS/NO) expensive and address-based scheduling (AS) useful.
* **true dependences are stable per static (load PC, store PC) pair** —
  dependence pairs are dedicated store/load slot pairs reading and writing
  a small circular buffer, activated with a calibrated probability. The
  MDPT (NAS/SYNC) and the SEL/STORE predictors have something to learn.
* **same-iteration pairs violate under naive speculation** — the load's
  address is ready long before the store's chain-fed data, so NAS/NAV
  squashes; cross-iteration (lagged) pairs usually resolve in time.
* **calls produce the classic stack dependences of integer code** —
  argument stores in the caller feed argument loads in the callee a few
  instructions later.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.isa.instruction import DynInst
from repro.isa.opcodes import OpClass
from repro.isa.registers import fp_reg, int_reg
from repro.trace.events import Trace
from repro.workloads.profiles import WorkloadProfile

_MASK32 = 0xFFFFFFFF
_DEP_BUF_WORDS = 32

# Register plan (flat namespace).
_R_IND = int_reg(1)  # induction variable
_R_TRIP = int_reg(2)  # trip-count limit
_R_ADDR = tuple(int_reg(n) for n in (3, 4, 5, 6))  # address registers
_R_EARLY = int_reg(7)  # early data (ready at body top)
_R_CHAIN = tuple(int_reg(n) for n in range(8, 16))  # integer chain
_F_CHAIN = tuple(fp_reg(n) for n in range(0, 8))  # fp chain
_R_LOAD = tuple(int_reg(n) for n in range(16, 24))  # int load destinations
_F_LOAD = tuple(fp_reg(n) for n in range(8, 16))  # fp load destinations
_R_ARG = (int_reg(24), int_reg(25))  # call arguments
_R_RESULT = int_reg(26)  # callee result
_R_FRAME = int_reg(27)  # callee frame pointer
_R_SP = int_reg(29)  # stack pointer
_R_BASE = int_reg(28)  # region base (preamble)


@dataclass
class _Slot:
    """One static instruction slot of the synthetic program."""

    kind: str
    op: OpClass
    pc: int = 0
    dest: Optional[int] = None
    srcs: Tuple[int, ...] = ()
    # memory behaviour
    region: int = 0
    region_words: int = 0
    stride: int = 1
    offset: int = 0
    pair: int = -1  # dependence-pair index, or -1
    lag: int = 0
    # branch behaviour
    bias: float = 0.0
    skip: int = 0
    target: int = 0  # branch target pc


@dataclass
class _DepPair:
    """A calibrated (store slot, load slot) dependence pair."""

    buffer_base: int
    lag: int
    activation: float
    history: List[bool] = field(default_factory=list)


@dataclass
class _Loop:
    """One synthetic loop: preamble + body (+ optional callee slots)."""

    preamble: List[_Slot]
    body: List[_Slot]
    callee: List[_Slot]
    trip_count: int
    pairs: List[_DepPair]
    body_start_pc: int = 0


class SyntheticProgram:
    """Deterministic synthetic workload for one profile.

    The same (profile, seed) pair always generates the same trace, so
    every processor configuration is compared on identical instruction
    streams — the paper's methodology.
    """

    def __init__(self, profile: WorkloadProfile, seed: int = 0) -> None:
        self.profile = profile
        name_key = zlib.crc32(profile.name.encode())
        self._build_rng = random.Random(name_key * 7919 + seed * 2 + 1)
        self._region_cursor = 0x1000_0000
        self._region_count = 0
        self._random_base = self._alloc_region(
            profile.random_region_kb * 1024
        )
        self._stack_base = self._alloc_region(4096)
        self._pc_cursor = 0
        self._loops = [
            self._build_loop(i) for i in range(profile.num_loops)
        ]
        self._outer_jump_pc = self._alloc_pcs(1)
        # Functions live after the loops: assign callee PCs and resolve
        # each call slot's target now.
        for loop in self._loops:
            if not loop.callee:
                continue
            base = self._alloc_pcs(len(loop.callee))
            for i, slot in enumerate(loop.callee):
                slot.pc = base + i * 4
            for slot in loop.body:
                if slot.kind == "call":
                    slot.target = loop.callee[0].pc
        self._seed = seed

    # -- construction -------------------------------------------------------

    def _alloc_region(self, size_bytes: int) -> int:
        # Stagger region bases by a non-power-of-two stride so different
        # regions do not all map their first blocks onto cache set 0
        # (real heaps and arrays are not mutually set-aligned either).
        self._region_count += 1
        stagger = (self._region_count * 2080) & 0x7FE0
        base = self._region_cursor + stagger
        self._region_cursor += (
            (size_bytes + stagger + 0xFFFF) & ~0xFFFF
        ) + 0x10000
        return base

    def _alloc_pcs(self, count: int) -> int:
        start = self._pc_cursor
        self._pc_cursor += count * 4
        return start

    def _build_loop(self, loop_index: int) -> _Loop:
        profile = self.profile
        rng = self._build_rng
        fp = profile.suite == "fp"

        has_call = rng.random() < profile.call_fraction
        branch_density = 0.16 if profile.suite == "int" else 0.045
        call_part = 11 if has_call else 0  # caller 5 + callee 6

        # Fixed point on the per-iteration instruction count so the
        # dynamic load/store fractions land on the Table 1 calibration
        # regardless of call blocks and dependence-pair slots.
        total = profile.body_size + (6 if has_call else 0)
        chain_target = min(profile.chain_length, 8)
        for _ in range(4):
            loads_total = max(1, round(profile.load_fraction * total))
            stores_total = max(1, round(profile.store_fraction * total))
            branch_target = max(1, round(branch_density * total))
            load_target = max(0, loads_total - (2 if has_call else 0))
            store_target = max(0, stores_total - (3 if has_call else 0))
            n_addr_plan = min(len(_R_ADDR), 2 + load_target // 3)
            overhead = 1 + n_addr_plan + 1 + 1  # ind, addrs, early, loop
            count = (
                overhead + load_target + store_target + chain_target
                + (branch_target - 1) + call_part
            )
            if count > total:
                total = count
            else:
                break
        filler_budget = max(0, total - count)

        data_branches = round(
            (branch_target - 1) * profile.data_branch_fraction
        )
        pred_branches = max(0, branch_target - 1 - data_branches)
        # Taken data branches skip filler; add replacement filler so the
        # expected dynamic size still matches.
        expected_skips = round(
            data_branches * profile.branch_bias * 1.5
            + pred_branches * 0.04
        )
        filler_budget += expected_skips

        # Dependence pairs: expected dependent loads per iteration.
        expected_dep = profile.dep_load_fraction * max(load_target, 1)
        pairs: List[_DepPair] = []
        pair_slots: List[Tuple[int, int]] = []  # (store pair idx, lag)
        if expected_dep > 0 and load_target >= 1:
            same_iter = profile.dep_same_iter_fraction
            lag_choices = profile.dep_lags or (1,)
            n_pairs = max(1, min(2, round(expected_dep + 0.49)))
            for p in range(n_pairs):
                if rng.random() < same_iter:
                    lag = 0
                else:
                    lag = rng.choice(lag_choices)
                activation = min(1.0, expected_dep / n_pairs)
                pairs.append(_DepPair(
                    buffer_base=self._alloc_region(
                        _DEP_BUF_WORDS * 4 + 4096
                    ),
                    lag=lag,
                    activation=activation,
                ))
                pair_slots.append((p, lag))

        stream_regions = [
            self._alloc_region(profile.stream_region_kb * 1024)
            for _ in range(2)
        ]
        chain_regs = _F_CHAIN if fp else _R_CHAIN
        load_regs = _F_LOAD if fp else _R_LOAD

        # ---- preamble ------------------------------------------------------
        preamble_pc = self._alloc_pcs(4)
        preamble = [
            _Slot("li", OpClass.IALU, preamble_pc + 0, dest=_R_IND),
            _Slot("li", OpClass.IALU, preamble_pc + 4, dest=_R_TRIP),
            _Slot("li", OpClass.IALU, preamble_pc + 8, dest=_R_BASE),
            _Slot("li", OpClass.IALU, preamble_pc + 12, dest=_R_SP),
        ]

        # ---- body ----------------------------------------------------------
        body: List[_Slot] = []

        def add(slot: _Slot) -> _Slot:
            body.append(slot)
            return slot

        add(_Slot("ind", OpClass.IALU, dest=_R_IND, srcs=(_R_IND,)))
        n_addr = min(len(_R_ADDR), 2 + load_target // 3)
        for a in range(n_addr):
            add(_Slot("addr", OpClass.IALU, dest=_R_ADDR[a],
                      srcs=(_R_IND,)))
        add(_Slot("early", OpClass.IALU, dest=_R_EARLY, srcs=(_R_IND,)))

        # Loads. One may be a random-region load whose value feeds a store.
        n_random = max(
            (1 if profile.store_data_from_load_fraction > 0 else 0),
            round(load_target * profile.random_load_fraction),
        )
        n_random = min(n_random, load_target)
        n_dep_loads = len(pair_slots)
        n_stream_loads = max(0, load_target - n_random - n_dep_loads)

        load_slots: List[_Slot] = []
        random_load_slot: Optional[_Slot] = None
        for i in range(n_stream_loads):
            addr_src = _R_ADDR[i % n_addr]
            if load_slots and (
                rng.random() < profile.late_addr_load_fraction
            ):
                # Pointer-style load: address comes from an earlier load.
                addr_src = load_slots[-1].dest
            slot = add(_Slot(
                "load_stream", OpClass.LOAD,
                dest=load_regs[i % len(load_regs)],
                srcs=(addr_src,),
                region=stream_regions[i % 2],
                region_words=(profile.stream_region_kb * 1024) // 4,
                stride=rng.choice((1, 1, 1, 2)),
                offset=rng.randrange(64),
            ))
            load_slots.append(slot)
        for i in range(n_random):
            addr_src = _R_ADDR[(n_stream_loads + i) % n_addr]
            if load_slots and (
                rng.random() < profile.late_addr_load_fraction
            ):
                addr_src = load_slots[-1].dest
            slot = add(_Slot(
                "load_random", OpClass.LOAD,
                dest=_R_LOAD[(n_stream_loads + i) % len(_R_LOAD)],
                srcs=(addr_src,),
                region=self._random_base,
                region_words=(profile.random_region_kb * 1024) // 4,
            ))
            load_slots.append(slot)
            if random_load_slot is None:
                random_load_slot = slot

        # Compute chain feeding store data.
        chain_len = min(profile.chain_length, len(chain_regs))
        has_divide = rng.random() < profile.divide_fraction
        chain_tail = _R_EARLY
        chain_first = _R_EARLY
        first_load_dest = (
            load_slots[0].dest if load_slots else load_regs[0]
        )
        for c in range(chain_len):
            if fp and rng.random() < profile.fp_compute_fraction:
                if has_divide and c == chain_len // 2:
                    op = OpClass.FDIV_DP
                else:
                    op = rng.choice(
                        (OpClass.FADD, OpClass.FMUL_DP, OpClass.FADD)
                    )
            else:
                if has_divide and c == chain_len // 2:
                    op = OpClass.IDIV
                elif rng.random() < 0.2:
                    op = OpClass.IMUL
                else:
                    op = OpClass.IALU
            dest = chain_regs[c % len(chain_regs)]
            srcs = (chain_tail,) if c else (first_load_dest, _R_EARLY)
            add(_Slot("chain", op, dest=dest, srcs=srcs))
            chain_tail = dest
            if c == 0:
                chain_first = dest

        # Dependence-pair stores and loads.
        dep_store_value_src = chain_tail
        for pair_index, lag in pair_slots:
            add(_Slot(
                "store_dep", OpClass.STORE,
                srcs=(_R_ADDR[0], dep_store_value_src),
                pair=pair_index,
            ))
        # Stream stores (some fed by the random load, some early data).
        n_plain_stores = max(0, store_target - len(pair_slots))
        for i in range(n_plain_stores):
            if (
                random_load_slot is not None
                and rng.random() < profile.store_data_from_load_fraction
            ):
                data_src = random_load_slot.dest
            elif rng.random() < 0.15:
                data_src = _R_EARLY
            else:
                data_src = chain_tail
            addr_src = _R_ADDR[i % n_addr]
            if load_slots and (
                rng.random() < profile.store_late_addr_fraction
            ):
                # Store through a pointer or computed index: the address
                # register arrives moderately late, so under the AS
                # models this store posts late (AS/NO blocks younger
                # loads on it; AS/NAV speculates past it — Figure 3's
                # effect). The early-chain register keeps the delay in
                # the few-cycle range the paper's ~5% gap implies.
                if rng.random() < 0.5:
                    addr_src = chain_first
                else:
                    addr_src = load_slots[i % len(load_slots)].dest
            add(_Slot(
                "store_stream", OpClass.STORE,
                srcs=(addr_src, data_src),
                region=stream_regions[(i + 1) % 2],
                region_words=(profile.stream_region_kb * 1024) // 4,
                stride=1,
                offset=rng.randrange(64) + 4096,
            ))
        # Dependence-pair loads come after the stores (same-iteration pairs
        # must follow their producing store in program order).
        for pair_index, lag in pair_slots:
            add(_Slot(
                "load_dep", OpClass.LOAD,
                dest=load_regs[-1],
                srcs=(_R_ADDR[0],),
                pair=pair_index,
                lag=lag,
            ))

        # Filler compute to reach the planned size (plus if-block targets
        # and replacement for expected skipped slots). Filler consumes
        # load results: delaying a load delays real work, exactly the
        # cost structure that makes blocked loads expensive.
        filler = filler_budget
        for i in range(filler):
            if fp and rng.random() < profile.fp_compute_fraction:
                op = rng.choice((OpClass.FADD, OpClass.FMUL_SP))
                dest = chain_regs[(i + 3) % len(chain_regs)]
            else:
                op = OpClass.IALU
                dest = _R_CHAIN[(i + 3) % len(_R_CHAIN)]
            if load_slots and i % 2 == 0:
                srcs = (load_slots[i % len(load_slots)].dest, _R_EARLY)
            else:
                srcs = (_R_EARLY,)
            add(_Slot("chain", op, dest=dest, srcs=srcs))

        # Data-dependent branches guard short if-blocks of filler work.
        insert_at = len(body) - max(1, filler // 2)
        for b in range(data_branches):
            skip = min(2, max(1, filler // max(1, data_branches) - 1))
            body.insert(
                insert_at,
                _Slot("branch_data", OpClass.BRANCH,
                      srcs=(first_load_dest, _R_EARLY),
                      bias=profile.branch_bias, skip=skip),
            )
        for b in range(pred_branches):
            body.insert(
                max(1, len(body) // 2),
                _Slot("branch_pred", OpClass.BRANCH,
                      srcs=(_R_IND, _R_TRIP), bias=0.04, skip=1),
            )

        # Call block (caller side) placed before the loop branch.
        callee: List[_Slot] = []
        if has_call:
            body.append(_Slot("arg", OpClass.IALU, dest=_R_ARG[0],
                              srcs=(_R_IND,)))
            body.append(_Slot("arg", OpClass.IALU, dest=_R_ARG[1],
                              srcs=(_R_EARLY,)))
            body.append(_Slot("store_arg", OpClass.STORE,
                              srcs=(_R_SP, _R_ARG[0]), offset=0))
            body.append(_Slot("store_arg", OpClass.STORE,
                              srcs=(_R_SP, _R_ARG[1]), offset=4))
            body.append(_Slot("call", OpClass.CALL, dest=int_reg(31)))
            # Callee PCs are assigned after every loop is laid out (all
            # functions live past the loops), keeping each loop's
            # preamble -> body -> next-preamble fall-through contiguous.
            callee = [
                _Slot("fn_frame", OpClass.IALU,
                      dest=_R_FRAME, srcs=(_R_SP,)),
                _Slot("load_arg", OpClass.LOAD,
                      dest=_R_LOAD[0], srcs=(_R_FRAME,), offset=0),
                _Slot("load_arg", OpClass.LOAD,
                      dest=_R_LOAD[1], srcs=(_R_FRAME,), offset=4),
                _Slot("fn_chain", OpClass.IMUL,
                      dest=_R_RESULT, srcs=(_R_LOAD[0], _R_LOAD[1])),
                _Slot("store_result", OpClass.STORE,
                      srcs=(_R_FRAME, _R_RESULT), offset=8),
                _Slot("ret", OpClass.RETURN,
                      srcs=(int_reg(31),)),
            ]

        # Loop-closing branch.
        body.append(_Slot("branch_loop", OpClass.BRANCH,
                          srcs=(_R_IND, _R_TRIP)))

        # Assign body PCs and resolve intra-body branch targets.
        body_start = self._alloc_pcs(len(body))
        for i, slot in enumerate(body):
            slot.pc = body_start + i * 4
        for i, slot in enumerate(body):
            if slot.kind in ("branch_data", "branch_pred"):
                # Never let a skip jump past the loop-closing branch.
                slot.skip = max(0, min(slot.skip, len(body) - 2 - i))
                slot.target = body[i + 1 + slot.skip].pc
            elif slot.kind == "branch_loop":
                slot.target = body_start

        trip = max(4, int(profile.trip_count
                          * (0.75 + 0.5 * rng.random())))
        return _Loop(
            preamble=preamble,
            body=body,
            callee=callee,
            trip_count=trip,
            pairs=pairs,
            body_start_pc=body_start,
        )

    # -- dynamic emission -----------------------------------------------------

    def generate(self, length: int, seed: Optional[int] = None) -> Trace:
        """Emit a dynamic trace of exactly *length* instructions."""
        if length < 1:
            raise ValueError("length must be positive")
        name_key = zlib.crc32(self.profile.name.encode())
        emit_seed = seed if seed is not None else self._seed
        rng = random.Random(name_key * 104729 + emit_seed * 2)
        mem: Dict[int, int] = {}
        out: List[DynInst] = []
        profile = self.profile
        silent = profile.silent_store_fraction

        def store_value(addr: int, seq: int) -> int:
            if silent and rng.random() < silent:
                return mem.get(addr, 0)
            return ((seq * 2654435761) & _MASK32) | 1

        while len(out) < length:
            for loop in self._loops:
                if len(out) >= length:
                    break
                self._emit_loop(loop, rng, mem, out, length, store_value)
            if len(out) < length:
                out.append(DynInst(
                    seq=len(out), pc=self._outer_jump_pc,
                    op=OpClass.JUMP, taken=True,
                    target=self._loops[0].preamble[0].pc,
                ))
        del out[length:]
        return Trace.trusted(
            out, name=self.profile.name, suite=self.profile.suite
        )

    def _emit_loop(self, loop, rng, mem, out, length, store_value) -> None:
        profile = self.profile
        for slot in loop.preamble:
            if len(out) >= length:
                return
            out.append(DynInst(
                seq=len(out), pc=slot.pc, op=slot.op,
                dest=slot.dest, srcs=slot.srcs,
            ))
        for pair in loop.pairs:
            pair.history.clear()

        for it in range(loop.trip_count):
            if len(out) >= length:
                return
            # Draw this iteration's dependence-pair activations.
            active = [rng.random() < p.activation for p in loop.pairs]
            for pair, act in zip(loop.pairs, active):
                pair.history.append(act)

            body = loop.body
            i = 0
            while i < len(body):
                if len(out) >= length:
                    return
                slot = body[i]
                seq = len(out)
                kind = slot.kind

                if kind in ("ind", "addr", "early", "chain", "li", "arg",
                            "fn_frame", "fn_chain"):
                    out.append(DynInst(
                        seq=seq, pc=slot.pc, op=slot.op,
                        dest=slot.dest, srcs=slot.srcs,
                    ))

                elif kind == "load_stream":
                    # Loads stream through the lower half of the region;
                    # stores through the upper half — structurally
                    # disjoint regardless of region size.
                    half = slot.region_words // 2
                    addr = slot.region + 4 * (
                        (it * slot.stride + slot.offset) % half
                    )
                    out.append(DynInst(
                        seq=seq, pc=slot.pc, op=OpClass.LOAD,
                        dest=slot.dest, srcs=slot.srcs,
                        addr=addr, value=mem.get(addr, 0),
                    ))

                elif kind == "load_random":
                    if rng.random() < profile.random_hot_fraction:
                        hot_words = min(slot.region_words, 2048)
                        addr = slot.region + 4 * rng.randrange(hot_words)
                    else:
                        addr = slot.region + 4 * rng.randrange(
                            slot.region_words
                        )
                    out.append(DynInst(
                        seq=seq, pc=slot.pc, op=OpClass.LOAD,
                        dest=slot.dest, srcs=slot.srcs,
                        addr=addr, value=mem.get(addr, 0),
                    ))

                elif kind == "store_dep":
                    pair = loop.pairs[slot.pair]
                    if active[slot.pair]:
                        addr = pair.buffer_base + 4 * (
                            it % _DEP_BUF_WORDS
                        )
                    else:
                        addr = pair.buffer_base + 2048 + 4 * (
                            it % _DEP_BUF_WORDS
                        )
                    value = store_value(addr, seq)
                    mem[addr] = value
                    out.append(DynInst(
                        seq=seq, pc=slot.pc, op=OpClass.STORE,
                        srcs=slot.srcs, addr=addr, value=value,
                    ))

                elif kind == "load_dep":
                    pair = loop.pairs[slot.pair]
                    lagged_it = it - slot.lag
                    was_active = (
                        lagged_it >= 0
                        and lagged_it < len(pair.history)
                        and pair.history[lagged_it]
                    )
                    if was_active:
                        addr = pair.buffer_base + 4 * (
                            lagged_it % _DEP_BUF_WORDS
                        )
                    else:
                        addr = pair.buffer_base + 1024 + 4 * (
                            it % _DEP_BUF_WORDS
                        )
                    out.append(DynInst(
                        seq=seq, pc=slot.pc, op=OpClass.LOAD,
                        dest=slot.dest, srcs=slot.srcs,
                        addr=addr, value=mem.get(addr, 0),
                    ))

                elif kind == "store_stream":
                    half = slot.region_words // 2
                    addr = slot.region + 4 * (
                        half + (it * slot.stride + slot.offset) % half
                    )
                    value = store_value(addr, seq)
                    mem[addr] = value
                    out.append(DynInst(
                        seq=seq, pc=slot.pc, op=OpClass.STORE,
                        srcs=slot.srcs, addr=addr, value=value,
                    ))

                elif kind == "store_arg" or kind == "store_result":
                    addr = self._stack_base + slot.offset
                    value = store_value(addr, seq)
                    mem[addr] = value
                    out.append(DynInst(
                        seq=seq, pc=slot.pc, op=OpClass.STORE,
                        srcs=slot.srcs, addr=addr, value=value,
                    ))

                elif kind == "load_arg":
                    addr = self._stack_base + slot.offset
                    out.append(DynInst(
                        seq=seq, pc=slot.pc, op=OpClass.LOAD,
                        dest=slot.dest, srcs=slot.srcs,
                        addr=addr, value=mem.get(addr, 0),
                    ))

                elif kind in ("branch_data", "branch_pred"):
                    taken = rng.random() < slot.bias
                    target = slot.target if taken else slot.pc + 4
                    out.append(DynInst(
                        seq=seq, pc=slot.pc, op=OpClass.BRANCH,
                        srcs=slot.srcs, taken=taken, target=target,
                    ))
                    if taken:
                        i += 1 + slot.skip
                        continue

                elif kind == "branch_loop":
                    taken = it + 1 < loop.trip_count
                    target = slot.target if taken else slot.pc + 4
                    out.append(DynInst(
                        seq=seq, pc=slot.pc, op=OpClass.BRANCH,
                        srcs=slot.srcs, taken=taken, target=target,
                    ))

                elif kind == "call":
                    out.append(DynInst(
                        seq=seq, pc=slot.pc, op=OpClass.CALL,
                        dest=slot.dest, taken=True, target=slot.target,
                    ))
                    # Emit the callee inline, then continue the body.
                    for fn_slot in loop.callee:
                        if len(out) >= length:
                            return
                        fseq = len(out)
                        if fn_slot.kind == "load_arg":
                            addr = self._stack_base + fn_slot.offset
                            out.append(DynInst(
                                seq=fseq, pc=fn_slot.pc, op=OpClass.LOAD,
                                dest=fn_slot.dest, srcs=fn_slot.srcs,
                                addr=addr, value=mem.get(addr, 0),
                            ))
                        elif fn_slot.kind == "store_result":
                            addr = self._stack_base + fn_slot.offset
                            value = store_value(addr, fseq)
                            mem[addr] = value
                            out.append(DynInst(
                                seq=fseq, pc=fn_slot.pc,
                                op=OpClass.STORE, srcs=fn_slot.srcs,
                                addr=addr, value=value,
                            ))
                        elif fn_slot.kind == "ret":
                            out.append(DynInst(
                                seq=fseq, pc=fn_slot.pc,
                                op=OpClass.RETURN, srcs=fn_slot.srcs,
                                taken=True, target=slot.pc + 4,
                            ))
                        else:
                            out.append(DynInst(
                                seq=fseq, pc=fn_slot.pc, op=fn_slot.op,
                                dest=fn_slot.dest, srcs=fn_slot.srcs,
                            ))

                else:  # pragma: no cover - construction guarantees coverage
                    raise AssertionError(f"unknown slot kind {kind!r}")

                i += 1
