"""Mutation harness: prove the static verifier has teeth.

Each mutator takes a known-good :class:`CompiledProgram`, breaks its
communication in one targeted way (the classic miscompiles: a dropped or
duplicated queue op, a send routed to the wrong core, a PUT knocked off
its lock-step cycle, a deleted memory-sync pair, a missing MODE_SWITCH,
a lost TX_COMMIT), and returns a :class:`MutationRecord` naming the
mutated site plus the finding kinds the verifier must now report there.
The tests assert the verifier flags every mutation with a diagnostic
naming the mutated region and core -- if a mutator ever stops being
caught, the corresponding check has silently lost coverage.

:data:`CONSTRUCTION_MUTATIONS` break a coupled block in the ways the
simulator's lock-step kernel is proved safe against when a machine is
built (a slot-count mismatch across cores, a queue op, an op with no
handler): ``VoltronMachine(...)`` must reject each one, naming the
function, block and core.

Mutators edit the compiled streams in place (callers compile a fresh
program per mutation) and return ``None`` when the program has no
applicable site, so the harness can sweep benchmarks with different
region mixes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, Iterator, Optional, Tuple

from ..isa.machinecode import CompiledProgram, CoreBlock
from ..isa.operations import Opcode, Operation


@dataclass
class MutationRecord:
    """What was broken, where, and what the verifier must say about it."""

    name: str
    function: str
    block: str
    region: int
    core: int
    description: str
    #: The verifier must report at least one finding with a kind in this
    #: set, in this region (empty for a construction mutation).
    expect_kinds: Tuple[str, ...]
    #: Acceptable ``Finding.core`` values for that finding (a pair
    #: mutation may legitimately be blamed on either endpoint).
    expect_cores: Tuple[int, ...]

    def matches(self, finding) -> bool:
        return (
            finding.kind in self.expect_kinds
            and finding.region == self.region
            and finding.core in self.expect_cores
        )


def _iter_ops(
    compiled: CompiledProgram,
) -> Iterator[Tuple[int, str, CoreBlock, Operation]]:
    for core, stream in enumerate(compiled.streams):
        for name, function in stream.items():
            for label in function.block_order:
                block = function.blocks[label]
                for op in block.slots:
                    if op is not None:
                        yield core, name, block, op


def _remove(block: CoreBlock, op: Operation) -> None:
    index = next(i for i, slot in enumerate(block.slots) if slot is op)
    del block.slots[index]


def drop_send(compiled: CompiledProgram) -> Optional[MutationRecord]:
    """Delete one SEND: its RECV starves forever (deadlock)."""
    for core, name, block, op in _iter_ops(compiled):
        if op.opcode is Opcode.SEND:
            dst = op.attrs["target_core"]
            _remove(block, op)
            return MutationRecord(
                name="drop_send",
                function=name,
                block=block.label,
                region=block.region,
                core=core,
                description=f"deleted {op!r} (core {core} -> {dst})",
                expect_kinds=("orphan-recv",),
                expect_cores=(dst,),
            )
    return None


def drop_recv(compiled: CompiledProgram) -> Optional[MutationRecord]:
    """Delete one RECV: the SEND's message leaks, and any value it was
    to deliver is never defined on the receiving core."""
    for core, name, block, op in _iter_ops(compiled):
        if op.opcode is Opcode.RECV:
            src = op.attrs["source_core"]
            _remove(block, op)
            return MutationRecord(
                name="drop_recv",
                function=name,
                block=block.label,
                region=block.region,
                core=core,
                description=f"deleted {op!r} (core {src} -> {core})",
                expect_kinds=("orphan-send", "unrouted-value"),
                expect_cores=(src, core),
            )
    return None


def retarget_send(compiled: CompiledProgram) -> Optional[MutationRecord]:
    """Swap a SEND's queue id: the intended receiver starves while the
    accidental one leaks (or, on 2 cores, the send targets itself)."""
    n = compiled.n_cores
    if n < 2:
        return None
    for core, name, block, op in _iter_ops(compiled):
        if op.opcode is Opcode.SEND:
            old = op.attrs["target_core"]
            new = next(
                (c for c in range(n) if c != old and c != core),
                next(c for c in range(n) if c != old),
            )
            op.attrs["target_core"] = new
            return MutationRecord(
                name="retarget_send",
                function=name,
                block=block.label,
                region=block.region,
                core=core,
                description=f"retargeted {op!r} from core {old} to {new}",
                expect_kinds=("orphan-recv", "orphan-send", "self-send"),
                expect_cores=(old, new, core),
            )
    return None


def duplicate_send(compiled: CompiledProgram) -> Optional[MutationRecord]:
    """Issue a SEND twice: one extra message leaks on the channel."""
    for core, name, block, op in _iter_ops(compiled):
        if op.opcode is Opcode.SEND:
            index = next(
                i for i, slot in enumerate(block.slots) if slot is op
            )
            block.slots.insert(index + 1, op.clone())
            return MutationRecord(
                name="duplicate_send",
                function=name,
                block=block.label,
                region=block.region,
                core=core,
                description=f"duplicated {op!r}",
                expect_kinds=("orphan-send",),
                expect_cores=(core,),
            )
    return None


def misalign_put(compiled: CompiledProgram) -> Optional[MutationRecord]:
    """Push a PUT one lock-step cycle late: its GET samples an undriven
    wire (the DVLIW alignment contract)."""
    for core, name, block, op in _iter_ops(compiled):
        if op.opcode is Opcode.PUT and block.mode == "coupled":
            align = op.attrs.get("align")
            partner_cores = tuple(
                ocore
                for ocore, oname, oblock, oop in _iter_ops(compiled)
                if oname == name
                and oblock.label == block.label
                and oop.attrs.get("align") == align
            )
            index = next(
                i for i, slot in enumerate(block.slots) if slot is op
            )
            block.slots.insert(index, None)
            return MutationRecord(
                name="misalign_put",
                function=name,
                block=block.label,
                region=block.region,
                core=core,
                description=(
                    f"delayed {op!r} by one cycle (align group {align})"
                ),
                expect_kinds=("misaligned-pair",),
                expect_cores=partner_cores,
            )
    return None


def drop_sync_pair(compiled: CompiledProgram) -> Optional[MutationRecord]:
    """Delete a memory-sync SEND *and* its RECV: the channels stay
    balanced, but the cross-core memory dependence the pair ordered is
    now a data race only the happens-before analysis can see."""
    for core, name, block, op in _iter_ops(compiled):
        if op.opcode is Opcode.SEND and op.attrs.get("sync") == "mem":
            dst = op.attrs["target_core"]
            recv_site = next(
                (
                    (rcore, rblock, rop)
                    for rcore, rname, rblock, rop in _iter_ops(compiled)
                    if rname == name
                    and rop.opcode is Opcode.RECV
                    and rop.attrs.get("sync") == "mem"
                    and rcore == dst
                    and rop.attrs["source_core"] == core
                ),
                None,
            )
            if recv_site is None:
                continue
            _remove(block, op)
            _remove(recv_site[1], recv_site[2])
            return MutationRecord(
                name="drop_sync_pair",
                function=name,
                block=block.label,
                region=block.region,
                core=core,
                description=(
                    f"deleted mem-sync pair core {core} -> {dst} "
                    f"({op!r} / {recv_site[2]!r})"
                ),
                expect_kinds=("missing-sync",),
                expect_cores=(core, dst),
            )
    return None


def drop_mode_switch(compiled: CompiledProgram) -> Optional[MutationRecord]:
    """Delete one core's MODE_SWITCH: that core misses the barrier and
    diverges from the machine's execution mode."""
    for core, name, block, op in _iter_ops(compiled):
        if op.opcode is Opcode.MODE_SWITCH:
            _remove(block, op)
            return MutationRecord(
                name="drop_mode_switch",
                function=name,
                block=block.label,
                region=block.region,
                core=core,
                description=(
                    f"deleted {op!r} "
                    f"(-> {op.attrs.get('mode')}) on core {core}"
                ),
                expect_kinds=("missing-mode-switch",),
                expect_cores=(core,),
            )
    return None


def drop_tx_commit(compiled: CompiledProgram) -> Optional[MutationRecord]:
    """Delete one core's TX_COMMIT: its DOALL chunk never leaves
    speculation (and its writes never publish)."""
    for core, name, block, op in _iter_ops(compiled):
        if op.opcode is Opcode.TX_COMMIT:
            _remove(block, op)
            return MutationRecord(
                name="drop_tx_commit",
                function=name,
                block=block.label,
                region=block.region,
                core=core,
                description=f"deleted {op!r} on core {core}",
                expect_kinds=("missing-tx",),
                expect_cores=(core,),
            )
    return None


#: An opcode from outside the ISA: no simulator handler exists for it.
_FOREIGN = Enum("Opcode", {"VMAC": "vmac"}).VMAC


def _coupled_site(
    compiled: CompiledProgram, core: int, want_nop: bool = False,
) -> Optional[Tuple[str, CoreBlock]]:
    """(function, block) of the first coupled block with slots on
    ``core`` (with a NOP slot, if ``want_nop``)."""
    for name, function in compiled.streams[core].items():
        for block in function.ordered_blocks():
            if block.mode == "coupled" and block.slots and (
                not want_nop or None in block.slots
            ):
                return name, block
    return None


def _construction_record(name, function, block, core, description):
    return MutationRecord(
        name=name, function=function, block=block.label, region=block.region,
        core=core, description=description,
        expect_kinds=(), expect_cores=(core,),
    )


def pad_coupled_block(compiled: CompiledProgram) -> Optional[MutationRecord]:
    """Append a NOP to one core's copy of a coupled block: its slot
    count no longer matches the other cores', so lock-step breaks."""
    site = _coupled_site(compiled, compiled.n_cores - 1)
    if compiled.n_cores < 2 or site is None:
        return None
    name, block = site
    block.slots.append(None)
    return _construction_record(
        "pad_coupled_block", name, block, compiled.n_cores - 1,
        f"appended a NOP to {name}:{block.label}",
    )


def coupled_recv(compiled: CompiledProgram) -> Optional[MutationRecord]:
    """Replace a NOP in a coupled block with a RECV: a queue op that
    could stall one core while lock-step moves the others on."""
    site = _coupled_site(compiled, 0, want_nop=True)
    if compiled.n_cores < 2 or site is None:
        return None
    name, block = site
    recv = Operation(Opcode.RECV, attrs={"source_core": 1})
    block.slots[block.slots.index(None)] = recv
    return _construction_record(
        "coupled_recv", name, block, 0,
        f"planted {recv!r} in {name}:{block.label}",
    )


def foreign_opcode(compiled: CompiledProgram) -> Optional[MutationRecord]:
    """Replace a coupled block's op with one the simulator has no
    handler for."""
    site = _coupled_site(compiled, 0)
    if site is None:
        return None
    name, block = site
    index = next(i for i, op in enumerate(block.slots) if op is not None)
    block.slots[index] = block.slots[index].clone(opcode=_FOREIGN)
    return _construction_record(
        "foreign_opcode", name, block, 0,
        f"planted {block.slots[index]!r} in {name}:{block.label}",
    )


CONSTRUCTION_MUTATIONS: Dict[
    str, Callable[[CompiledProgram], Optional[MutationRecord]]
] = {
    "pad_coupled_block": pad_coupled_block,
    "coupled_recv": coupled_recv,
    "foreign_opcode": foreign_opcode,
}


MUTATIONS: Dict[str, Callable[[CompiledProgram], Optional[MutationRecord]]] = {
    "drop_send": drop_send,
    "drop_recv": drop_recv,
    "retarget_send": retarget_send,
    "duplicate_send": duplicate_send,
    "misalign_put": misalign_put,
    "drop_sync_pair": drop_sync_pair,
    "drop_mode_switch": drop_mode_switch,
    "drop_tx_commit": drop_tx_commit,
}


def apply_mutation(
    compiled: CompiledProgram, name: str
) -> Optional[MutationRecord]:
    """Apply one named mutation (of either registry) in place; None if
    no applicable site."""
    return {**MUTATIONS, **CONSTRUCTION_MUTATIONS}[name](compiled)
