"""voltlint: static verification of compiled Voltron programs.

The compiler's whole correctness story is orchestrated communication
(paper Sections 3.1-3.3): every cross-core register value must ride a
matching comm pair, decoupled-mode memory dependences need a dummy sync
SEND/RECV on the path, coupled-mode PUT/GET pairs must co-issue, and
mode changes must pass through MODE_SWITCH barriers.  This module proves
those properties directly on the per-core machine code, so a miscompile
surfaces as a named diagnostic instead of an end-to-end deadlock:

* **channel accounting** -- per (src, dst, tag) queue channel, SENDs and
  RECVs must balance inside every self-loop block and net to zero over a
  region; an orphan RECV is a reported deadlock, an orphan SEND a leak.
* **wire alignment** -- coupled-mode PUT/GET and BCAST/GET groups must
  occupy the same issue slot on mesh-adjacent cores (the DVLIW model:
  the wire is only driven for the producing cycle).
* **sync coverage** -- cross-core may-alias memory pairs in decoupled
  blocks must be connected in the happens-before relation generated by
  per-core program order plus matched send->recv edges (the FIFO channel
  discipline of :mod:`repro.compiler.comm`); a missing path is a data
  race.  The same pass detects static deadlock cycles (a RECV that can
  only be fed by a SEND scheduled behind another circular wait).
* **mode bracketing** -- every CFG edge between blocks of different
  modes must carry the matching MODE_SWITCH on that core.
* **DOALL speculation** -- chunked loops must keep their TX_BEGIN /
  TX_COMMIT bracket per participating core, and no register may be both
  consumed-before-defined and redefined inside the chunk body without a
  per-core initialization (an un-speculated cross-iteration dependence).
* **value routing** -- a register read on a core that never defines it
  (function parameters and call results count as definitions) means the
  forwarding RECV/GET was lost.

The address reasoning reuses :mod:`repro.compiler.dependence` and is
strictly *stronger* than what the compiler had at insertion time: the
verifier additionally propagates constants through matched comm pairs,
so every dependence it derives is one the compiler also saw (and must
have synchronized) -- which is what makes a ``missing-sync`` finding a
real defect rather than an analysis gap.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..arch.config import MachineConfig, mesh
from ..arch.mesh import Mesh, opposite
from ..compiler.dependence import (
    ConstantTracker,
    SymbolicAddress,
    may_alias,
    resolve_address,
)
from ..isa.machinecode import CompiledProgram, CoreBlock
from ..isa.operations import Opcode, Operation, Reg

from .findings import Finding, VerificationReport, match_suppression
from .sanitizer import run_sanitized

_QUEUE_OPS = (Opcode.SEND, Opcode.RECV)
_WIRE_OPS = (Opcode.PUT, Opcode.GET, Opcode.BCAST)

#: Channel tags that synchronize *across* iterations (DSWP loop-carried
#: values: the in-block RECV matches the previous iteration's SEND), so
#: they must not contribute intra-iteration happens-before edges.
def _is_carried_tag(tag: object) -> bool:
    return isinstance(tag, str) and tag.startswith("carried_")


def _channel(op: Operation) -> Tuple[int, int, object]:
    """(src, dst, tag) queue-channel key -- the CAM match key of
    :meth:`repro.sim.network.OperandNetwork.try_receive`."""
    if op.opcode is Opcode.SEND:
        return (op.core, op.attrs["target_core"], op.attrs.get("tag"))
    return (op.attrs["source_core"], op.core, op.attrs.get("tag"))


class _BlockView:
    """One logical block: the per-core CoreBlocks sharing a label."""

    def __init__(self, label: str) -> None:
        self.label = label
        self.cores: Dict[int, CoreBlock] = {}

    @property
    def mode(self) -> str:
        return next(iter(self.cores.values())).mode

    @property
    def region(self) -> int:
        return next(iter(self.cores.values())).region

    def is_self_loop(self) -> bool:
        return any(cb.taken == self.label for cb in self.cores.values())

    def per_core_ops(self) -> Dict[int, List[Operation]]:
        return {
            core: [op for op in cb.slots if op is not None]
            for core, cb in self.cores.items()
        }


class _FunctionView:
    """All cores' clones of one function, merged by block label."""

    def __init__(self, compiled: CompiledProgram, name: str) -> None:
        self.name = name
        self.order: List[str] = []
        self.blocks: Dict[str, _BlockView] = {}
        for core, stream in enumerate(compiled.streams):
            function = stream[name]
            for label in function.block_order:
                view = self.blocks.get(label)
                if view is None:
                    view = self.blocks[label] = _BlockView(label)
                    self.order.append(label)
                view.cores[core] = function.blocks[label]

    def ordered(self) -> List[_BlockView]:
        return [self.blocks[label] for label in self.order]


class ProgramVerifier:
    """Static verifier over one :class:`CompiledProgram`."""

    def __init__(
        self,
        compiled: CompiledProgram,
        config: Optional[MachineConfig] = None,
        suppressions: Sequence[str] = (),
    ) -> None:
        if config is None:
            config = mesh(compiled.n_cores)
        self.compiled = compiled
        self.program = compiled.program
        self.n_cores = compiled.n_cores
        self.config = config
        #: Virtual-Link queues are multi-producer: channel *balance* is a
        #: per-(dst, tag) virtual-link property, not a per-pair one (see
        #: :mod:`repro.sim.network`); happens-before matching stays
        #: per-pair (the receive CAM still matches on the sender id).
        self._vlink = config.network.queue_policy == "vlink"
        rows, cols = config.mesh_shape
        self.mesh = Mesh(rows, cols, compiled.n_cores)
        self.suppressions = tuple(suppressions)
        self.region_table: Dict[Tuple[str, str], Dict[str, object]] = (
            compiled.attrs.get("regions", {})
        )
        self.report = VerificationReport(
            cores=compiled.n_cores,
            strategy=compiled.attrs.get("strategy"),
        )

    # -- entry point -------------------------------------------------------------

    def verify(self) -> VerificationReport:
        for name in self.compiled.program.functions:
            view = _FunctionView(self.compiled, name)
            self._check_block_consistency(view)
            self._check_channels(view)
            self._check_mode_switches(view)
            for block in view.ordered():
                if block.mode == "coupled":
                    self._check_coupled_block(view, block)
                else:
                    self._check_decoupled_block(view, block)
            self._check_value_routing(view)
            self._check_doall_regions(view)
        return self.report

    # -- plumbing ----------------------------------------------------------------

    def _region_strategy(self, function: str, label: str) -> Optional[str]:
        entry = self.region_table.get((function, label))
        return entry["strategy"] if entry else None

    def _finding(
        self,
        kind: str,
        function: str,
        block: _BlockView,
        core: Optional[int],
        message: str,
        op: Optional[Operation] = None,
    ) -> Finding:
        finding = Finding(
            kind=kind,
            function=function,
            block=block.label,
            region=block.region,
            core=core,
            message=message,
            op=repr(op) if op is not None else None,
        )
        finding.suppressed = match_suppression(finding, self.suppressions)
        return self.report.add(finding)

    # -- structural consistency ----------------------------------------------------

    def _check_block_consistency(self, view: _FunctionView) -> None:
        for block in view.ordered():
            modes = {cb.mode for cb in block.cores.values()}
            regions = {cb.region for cb in block.cores.values()}
            if len(modes) > 1 or len(regions) > 1:
                self._finding(
                    "mode-mismatch",
                    view.name,
                    block,
                    None,
                    f"cores disagree on mode/region: modes={sorted(modes)} "
                    f"regions={sorted(regions)}",
                )
            self.report.count("blocks")

    # -- (a) queue-channel accounting ---------------------------------------------

    def _check_channels(self, view: _FunctionView) -> None:
        """SEND/RECV balance.  Self-loop blocks iterate an unknown number
        of times, so each must balance every channel on its own; the
        remaining once-per-entry blocks of a region must net to zero as a
        group (DSWP prologue/drain and DOALL commit/join legitimately
        split pairs across blocks)."""
        scopes: Dict[int, List[_BlockView]] = {}
        for block in view.ordered():
            scopes.setdefault(block.region, []).append(block)

        for region, blocks in scopes.items():
            net: Dict[Tuple[int, int, object], int] = {}
            sample: Dict[Tuple[int, int, object], Operation] = {}
            sample_block: Dict[Tuple[int, int, object], _BlockView] = {}
            control_sent: Dict[int, int] = {}
            control_consumed: Dict[int, int] = {}
            control_block: Optional[_BlockView] = None
            for block in blocks:
                local: Dict[Tuple[int, int, object], int] = {}
                local_sample: Dict[Tuple[int, int, object], Operation] = {}
                for core, ops in block.per_core_ops().items():
                    for op in ops:
                        if op.opcode in _QUEUE_OPS:
                            channel = _channel(op)
                            src, dst, _tag = channel
                            if src == dst:
                                self._finding(
                                    "self-send",
                                    view.name,
                                    block,
                                    core,
                                    f"queue op targets its own core {src}",
                                    op,
                                )
                                continue
                            delta = 1 if op.opcode is Opcode.SEND else -1
                            key = self._balance_key(channel)
                            local[key] = local.get(key, 0) + delta
                            local_sample.setdefault(key, op)
                            self.report.count("queue_ops")
                        elif op.opcode in (Opcode.SPAWN, Opcode.RELEASE):
                            target = op.attrs["target_core"]
                            control_sent[target] = control_sent.get(target, 0) + 1
                            control_block = control_block or block
                            if op.opcode is Opcode.SPAWN:
                                self._check_spawn_target(view, block, op)
                        elif op.opcode in (Opcode.LISTEN, Opcode.SLEEP):
                            control_consumed[core] = (
                                control_consumed.get(core, 0) + 1
                            )
                            control_block = control_block or block
                if block.is_self_loop():
                    # Every iteration must consume exactly what it feeds.
                    for channel, delta in local.items():
                        if delta:
                            self._report_imbalance(
                                view, block, channel, delta, local_sample[channel],
                                scope="loop block",
                            )
                else:
                    for channel, delta in local.items():
                        net[channel] = net.get(channel, 0) + delta
                        sample.setdefault(channel, local_sample[channel])
                        sample_block.setdefault(channel, block)
            for channel, delta in net.items():
                if delta:
                    self._report_imbalance(
                        view,
                        sample_block[channel],
                        channel,
                        delta,
                        sample[channel],
                        scope=f"region {region}",
                    )
            for target in set(control_sent) | set(control_consumed):
                sent = control_sent.get(target, 0)
                consumed = control_consumed.get(target, 0)
                if sent != consumed and control_block is not None:
                    self._finding(
                        "control-imbalance",
                        view.name,
                        control_block,
                        target,
                        f"core {target} consumes {consumed} control "
                        f"message(s) (LISTEN/SLEEP) but is sent {sent} "
                        f"(SPAWN/RELEASE) in region {region}",
                    )

    def _balance_key(
        self, channel: Tuple[int, int, object]
    ) -> Tuple[Optional[int], int, object]:
        """The key channel balance is accounted under: the exact (src,
        dst, tag) channel for per-pair FIFOs, or the (dst, tag) virtual
        link under the multi-producer ``vlink`` policy -- any producer's
        SEND may fill any same-link RECV's slot, so only the link's net
        balance is a structural property."""
        if self._vlink:
            _src, dst, tag = channel
            return (None, dst, tag)
        return channel

    def _report_imbalance(
        self,
        view: _FunctionView,
        block: _BlockView,
        channel: Tuple[Optional[int], int, object],
        delta: int,
        op: Operation,
        scope: str,
    ) -> None:
        src, dst, tag = channel
        if src is None:
            src = "*"  # vlink virtual link: any producer
        tag_text = f" tag={tag!r}" if tag is not None else ""
        if delta > 0:
            self._finding(
                "orphan-send",
                view.name,
                block,
                src if isinstance(src, int) else None,
                f"channel {src}->{dst}{tag_text} leaks {delta} message(s) "
                f"per execution of {scope}: SEND without a matching RECV",
                op,
            )
        else:
            self._finding(
                "orphan-recv",
                view.name,
                block,
                dst,
                f"channel {src}->{dst}{tag_text} starves: {-delta} RECV(s) "
                f"per execution of {scope} have no matching SEND (deadlock)",
                op,
            )

    def _check_spawn_target(
        self, view: _FunctionView, block: _BlockView, op: Operation
    ) -> None:
        target_core = op.attrs["target_core"]
        target_block = op.attrs.get("target_block")
        stream = self.compiled.streams[target_core].get(view.name)
        if (
            target_block is not None
            and (stream is None or target_block not in stream.blocks)
        ):
            self._finding(
                "bad-spawn-target",
                view.name,
                block,
                op.core,
                f"SPAWN targets unknown block {target_block!r} on core "
                f"{target_core}",
                op,
            )

    # -- (b) coupled-mode wire alignment --------------------------------------------

    def _check_coupled_block(self, view: _FunctionView, block: _BlockView) -> None:
        groups: Dict[object, List[Tuple[int, int, Operation]]] = {}
        for core, cb in block.cores.items():
            for slot, op in enumerate(cb.slots):
                if op is None:
                    continue
                if op.opcode in _QUEUE_OPS:
                    self._finding(
                        "queue-op-in-coupled",
                        view.name,
                        block,
                        core,
                        "SEND/RECV cannot execute in a coupled (lock-step) "
                        "block",
                        op,
                    )
                align = op.attrs.get("align")
                if align is not None:
                    groups.setdefault(align, []).append((core, slot, op))
                elif op.opcode in _WIRE_OPS:
                    self._finding(
                        "orphan-" + op.opcode.value,
                        view.name,
                        block,
                        core,
                        "direct-wire op carries no alignment group, so no "
                        "partner can co-issue with it",
                        op,
                    )
        for members in groups.values():
            self._check_align_group(view, block, members)
        self._check_coupled_memory(view, block)

    def _check_align_group(
        self,
        view: _FunctionView,
        block: _BlockView,
        members: List[Tuple[int, int, Operation]],
    ) -> None:
        self.report.count("align_groups")
        slots = {slot for _, slot, _ in members}
        if len(slots) > 1:
            detail = ", ".join(
                f"core {core}@slot {slot} {op.opcode.value}"
                for core, slot, op in members
            )
            self._finding(
                "misaligned-pair",
                view.name,
                block,
                members[0][0],
                f"co-issue group is split across cycles: {detail}",
                members[0][2],
            )
        puts = [(c, s, op) for c, s, op in members if op.opcode is Opcode.PUT]
        gets = [(c, s, op) for c, s, op in members if op.opcode is Opcode.GET]
        bcasts = [
            (c, s, op) for c, s, op in members if op.opcode is Opcode.BCAST
        ]
        if puts:
            if len(puts) != 1 or len(gets) != 1 or bcasts:
                self._finding(
                    "orphan-put" if not gets else "bad-wire-pair",
                    view.name,
                    block,
                    puts[0][0],
                    f"PUT group needs exactly one partner GET; found "
                    f"{len(puts)} PUT / {len(gets)} GET / {len(bcasts)} BCAST",
                    puts[0][2],
                )
                return
            put_core, _, put = puts[0]
            get_core, _, get = gets[0]
            try:
                expected = self.mesh.neighbor(put_core, put.attrs["direction"])
            except (KeyError, ValueError):
                expected = None
            if get_core != expected or get.attrs.get("direction") != opposite(
                put.attrs["direction"]
            ):
                self._finding(
                    "bad-wire-pair",
                    view.name,
                    block,
                    get_core,
                    f"GET does not sit at the far end of the PUT wire "
                    f"(PUT core {put_core} dir {put.attrs['direction']}; "
                    f"GET core {get_core} dir {get.attrs.get('direction')})",
                    get,
                )
        elif bcasts:
            bcast_core = bcasts[0][0]
            bad = [
                (c, op)
                for c, _, op in gets
                if op.attrs.get("direction") != "bcast"
                or op.attrs.get("bcast_src") != bcast_core
            ]
            if len(bcasts) != 1 or not gets or bad:
                self._finding(
                    "bad-wire-pair" if gets else "orphan-bcast",
                    view.name,
                    block,
                    bcast_core,
                    f"BCAST group malformed: {len(bcasts)} BCAST, "
                    f"{len(gets)} GET, {len(bad)} mismatched",
                    bcasts[0][2],
                )
        elif gets:
            self._finding(
                "orphan-get",
                view.name,
                block,
                gets[0][0],
                "GET has no producing PUT/BCAST in its co-issue group "
                "(the wire will be undriven: deadlock at runtime)",
                gets[0][2],
            )

    def _check_coupled_memory(
        self, view: _FunctionView, block: _BlockView
    ) -> None:
        """Lock-step cycles order cross-core accesses by slot; two
        conflicting accesses in the *same* slot are unordered."""
        trackers = {core: ConstantTracker() for core in block.cores}
        accesses: List[Tuple[int, int, Operation, SymbolicAddress]] = []
        n_slots = max((len(cb.slots) for cb in block.cores.values()), default=0)
        wire_values: Dict[object, Optional[int]] = {}
        for slot in range(n_slots):
            at_slot = [
                (core, cb.slots[slot])
                for core, cb in block.cores.items()
                if slot < len(cb.slots) and cb.slots[slot] is not None
            ]
            # Phase A: producers drive wires (the simulator issues
            # PUT/BCAST before same-cycle GETs for exactly this reason).
            for core, op in at_slot:
                if op.opcode in (Opcode.PUT, Opcode.BCAST):
                    align = op.attrs.get("align")
                    if align is not None and op.srcs:
                        wire_values[align] = trackers[core].value_of(op.srcs[0])
            for core, op in at_slot:
                tracker = trackers[core]
                if op.opcode is Opcode.GET:
                    value = wire_values.get(op.attrs.get("align"))
                    if op.dests and value is not None:
                        tracker._known[op.dest] = value
                        continue
                if op.is_memory():
                    accesses.append(
                        (core, slot, op, resolve_address(self.program, op, tracker))
                    )
                tracker.observe(op)
        for i, (core_a, slot_a, op_a, addr_a) in enumerate(accesses):
            for core_b, slot_b, op_b, addr_b in accesses[i + 1 :]:
                if core_a == core_b or slot_a != slot_b:
                    continue
                if op_a.opcode is Opcode.LOAD and op_b.opcode is Opcode.LOAD:
                    continue
                if may_alias(addr_a, addr_b):
                    self._finding(
                        "same-cycle-conflict",
                        view.name,
                        block,
                        core_b,
                        f"conflicting accesses issue in the same lock-step "
                        f"cycle (slot {slot_a}) on cores {core_a} and "
                        f"{core_b}: {op_a!r} vs {op_b!r}",
                        op_b,
                    )
                    self.report.count("coupled_conflicts_found")
        self.report.count("coupled_mem_pairs", len(accesses))

    # -- (c) decoupled-mode sync coverage -------------------------------------------

    def _check_decoupled_block(
        self, view: _FunctionView, block: _BlockView
    ) -> None:
        for core, cb in block.cores.items():
            for op in cb.ops():
                if op.opcode in _WIRE_OPS:
                    self._finding(
                        "wire-op-in-decoupled",
                        view.name,
                        block,
                        core,
                        "PUT/GET/BCAST need lock-step cycle alignment and "
                        "cannot execute in a decoupled block",
                        op,
                    )
        if self._region_strategy(view.name, block.label) == "doall":
            # Chunk bodies run under the TM bracket: cross-core memory
            # conflicts are *speculated*, detected and replayed at commit
            # (checked structurally by the DOALL pass below).
            return
        self._check_decoupled_sync(view, block)

    def _check_decoupled_sync(
        self, view: _FunctionView, block: _BlockView
    ) -> None:
        per_core = block.per_core_ops()
        order = sorted(per_core)
        nodes: List[Tuple[int, int, Operation]] = []  # (core, pos, op)
        index: Dict[Tuple[int, int], int] = {}
        for core in order:
            for pos, op in enumerate(per_core[core]):
                index[(core, pos)] = len(nodes)
                nodes.append((core, pos, op))
        n = len(nodes)
        succs: List[List[int]] = [[] for _ in range(n)]
        indeg = [0] * n
        for core in order:
            for pos in range(len(per_core[core]) - 1):
                a, b = index[(core, pos)], index[(core, pos + 1)]
                succs[a].append(b)
                indeg[b] += 1
        # Matched send->recv pairs, FIFO per channel (CAM discipline).
        sends: Dict[Tuple[int, int, object], List[int]] = {}
        recvs: Dict[Tuple[int, int, object], List[int]] = {}
        for i, (core, _pos, op) in enumerate(nodes):
            if op.opcode not in _QUEUE_OPS:
                continue
            channel = _channel(op)
            if channel[0] == channel[1] or _is_carried_tag(channel[2]):
                continue
            (sends if op.opcode is Opcode.SEND else recvs).setdefault(
                channel, []
            ).append(i)
        recv_pair: Dict[int, int] = {}
        for channel, send_nodes in sends.items():
            for s, r in zip(send_nodes, recvs.get(channel, [])):
                succs[s].append(r)
                indeg[r] += 1
                recv_pair[r] = s

        # Kahn topological order; a residue is a circular wait (RECVs that
        # can only be fed by SENDs scheduled behind them).
        topo: List[int] = []
        stack = [i for i in range(n) if indeg[i] == 0]
        while stack:
            i = stack.pop()
            topo.append(i)
            for j in succs[i]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    stack.append(j)
        if len(topo) < n:
            stuck = next(
                nodes[i] for i in range(n) if indeg[i] > 0
            )
            self._finding(
                "deadlock-cycle",
                view.name,
                block,
                stuck[0],
                "communication forms a circular wait (a RECV precedes the "
                "SEND that feeds it on a core that is itself waiting)",
                stuck[2],
            )
            return

        # Forward pass in happens-before order: per-core constant
        # propagation, extended through matched comm pairs so received
        # bases/offsets resolve exactly as the sender computed them.
        trackers = {core: ConstantTracker() for core in order}
        sent_value: Dict[int, Optional[int]] = {}
        addr_of: Dict[int, SymbolicAddress] = {}
        for i in topo:
            core, _pos, op = nodes[i]
            tracker = trackers[core]
            if op.opcode is Opcode.SEND and op.srcs:
                sent_value[i] = tracker.value_of(op.srcs[0])
            if op.opcode is Opcode.RECV and op.dests:
                value = sent_value.get(recv_pair.get(i, -1))
                if value is not None:
                    tracker._known[op.dest] = value
                    continue
            if op.is_memory():
                addr_of[i] = resolve_address(self.program, op, tracker)
            tracker.observe(op)

        # Reverse pass: earliest position on every core reachable in the
        # happens-before relation from each node.
        inf = float("inf")
        reach = [[inf] * self.n_cores for _ in range(n)]
        for i in reversed(topo):
            row = reach[i]
            core, pos, _op = nodes[i]
            if pos < row[core]:
                row[core] = pos
            for j in succs[i]:
                other = reach[j]
                for c in range(self.n_cores):
                    if other[c] < row[c]:
                        row[c] = other[c]

        mem_nodes = [i for i in range(n) if nodes[i][2].is_memory()]
        self.report.count("sync_mem_ops", len(mem_nodes))
        for a_i, i in enumerate(mem_nodes):
            core_i, pos_i, op_i = nodes[i]
            for j in mem_nodes[a_i + 1 :]:
                core_j, pos_j, op_j = nodes[j]
                if core_i == core_j:
                    continue
                if (
                    op_i.opcode is Opcode.LOAD
                    and op_j.opcode is Opcode.LOAD
                ):
                    continue
                if not may_alias(addr_of[i], addr_of[j]):
                    continue
                self.report.count("sync_pairs")
                if reach[i][core_j] <= pos_j or reach[j][core_i] <= pos_i:
                    continue
                self._finding(
                    "missing-sync",
                    view.name,
                    block,
                    core_j,
                    f"cross-core memory dependence has no SEND/RECV sync "
                    f"path: {op_i!r} on core {core_i} vs {op_j!r} on core "
                    f"{core_j} (data race)",
                    op_j,
                )

    # -- (d) mode bracketing --------------------------------------------------------

    def _check_mode_switches(self, view: _FunctionView) -> None:
        for block in view.ordered():
            for core, cb in block.cores.items():
                switches = {
                    op.attrs.get("mode")
                    for op in cb.ops()
                    if op.opcode is Opcode.MODE_SWITCH
                }
                for succ_label in {cb.taken, cb.fall}:
                    if succ_label is None:
                        continue
                    succ_view = view.blocks.get(succ_label)
                    if succ_view is None or core not in succ_view.cores:
                        continue
                    succ_mode = succ_view.cores[core].mode
                    if succ_mode == cb.mode:
                        continue
                    self.report.count("mode_edges")
                    if succ_mode not in switches:
                        self._finding(
                            "missing-mode-switch",
                            view.name,
                            block,
                            core,
                            f"edge to {succ_label!r} changes mode "
                            f"{cb.mode}->{succ_mode} but core {core} "
                            f"executes no MODE_SWITCH {succ_mode} barrier "
                            f"(lock-step divergence / missed barrier)",
                        )

    # -- (e) DOALL speculation -------------------------------------------------------

    def _check_doall_regions(self, view: _FunctionView) -> None:
        regions: Dict[int, List[_BlockView]] = {}
        for block in view.ordered():
            if self._region_strategy(view.name, block.label) == "doall":
                regions.setdefault(block.region, []).append(block)
        for rid, blocks in regions.items():
            self._check_doall_region(view, rid, blocks)

    def _check_doall_region(
        self, view: _FunctionView, rid: int, blocks: List[_BlockView]
    ) -> None:
        self.report.count("doall_regions")
        chunk = next(
            (
                b
                for b in blocks
                if any(
                    op.opcode is Opcode.TX_BEGIN
                    for ops in b.per_core_ops().values()
                    for op in ops
                )
            ),
            None,
        )
        commit = next(
            (
                b
                for b in blocks
                if any(
                    op.opcode is Opcode.TX_COMMIT
                    for ops in b.per_core_ops().values()
                    for op in ops
                )
            ),
            None,
        )
        body = next((b for b in blocks if b.is_self_loop()), None)
        if chunk is None or commit is None:
            self._finding(
                "missing-tx",
                view.name,
                blocks[0],
                None,
                f"DOALL region {rid} lacks a TX_BEGIN/TX_COMMIT bracket "
                f"(chunk={'ok' if chunk else 'missing'}, "
                f"commit={'ok' if commit else 'missing'}): cross-iteration "
                f"memory dependences would run unspeculated",
            )
            return
        chunk_ops = chunk.per_core_ops()
        commit_ops = commit.per_core_ops()
        orders: Set[object] = set()
        for core in chunk.cores:
            begins = [
                op for op in chunk_ops[core] if op.opcode is Opcode.TX_BEGIN
            ]
            if len(begins) != 1:
                self._finding(
                    "missing-tx",
                    view.name,
                    chunk,
                    core,
                    f"core {core} has {len(begins)} TX_BEGIN ops in the "
                    f"chunk header (expected exactly 1)",
                )
                continue
            begin = begins[0]
            orders.add(begin.attrs.get("order"))
            restart = begin.attrs.get("restart")
            stream = self.compiled.streams[core][view.name]
            if restart not in stream.blocks:
                self._finding(
                    "missing-tx",
                    view.name,
                    chunk,
                    core,
                    f"TX_BEGIN restart target {restart!r} does not exist "
                    f"on core {core}",
                    begin,
                )
            commits = [
                op
                for op in commit_ops.get(core, [])
                if op.opcode is Opcode.TX_COMMIT
            ]
            if len(commits) != 1:
                self._finding(
                    "missing-tx",
                    view.name,
                    commit,
                    core,
                    f"core {core} has {len(commits)} TX_COMMIT ops "
                    f"(expected exactly 1): its chunk never leaves "
                    f"speculation",
                )
        if len(orders) != len(chunk.cores):
            self._finding(
                "missing-tx",
                view.name,
                chunk,
                None,
                f"TX_BEGIN commit orders are not distinct per core: "
                f"{sorted(map(str, orders))}",
            )
        if body is not None:
            self._check_doall_carried(view, chunk, body)

    def _check_doall_carried(
        self, view: _FunctionView, chunk: _BlockView, body: _BlockView
    ) -> None:
        """A register consumed before its first in-body definition *and*
        redefined inside the body is loop-carried; unless every core
        privatizes it in the chunk header (induction resets, accumulator
        identities), iterations on different cores would race through it
        -- and the TM bracket only speculates memory, not registers."""
        chunk_defs: Dict[int, Set[Reg]] = {}
        for core, ops in chunk.per_core_ops().items():
            chunk_defs[core] = {reg for op in ops for reg in op.dests}
        for core, ops in body.per_core_ops().items():
            written = {reg for op in ops for reg in op.dests}
            defined = set(chunk_defs.get(core, set()))
            for op in ops:
                for reg in op.src_regs():
                    if reg in written and reg not in defined:
                        self._finding(
                            "unspeculated-carried",
                            view.name,
                            body,
                            core,
                            f"register {reg!r} is read before its in-chunk "
                            f"definition and redefined each iteration, but "
                            f"core {core} never privatizes it in the chunk "
                            f"header: un-speculated cross-iteration "
                            f"dependence",
                            op,
                        )
                        defined.add(reg)  # report once per core
                defined.update(op.dests)
        self.report.count("doall_bodies")

    # -- value routing (uncovered DFG edges) ------------------------------------------

    def _check_value_routing(self, view: _FunctionView) -> None:
        """A register a core reads but never defines anywhere in its clone
        of the function (parameters, call results, RECV/GET landings all
        count) can only hold garbage: the forwarding comm op for that DFG
        edge is missing."""
        function = self.program.function(view.name)
        params = set(function.params)
        for core in range(self.n_cores):
            stream = self.compiled.streams[core].get(view.name)
            if stream is None:
                continue
            defined: Set[Reg] = set(params)
            reads: List[Tuple[_BlockView, Operation, Reg]] = []
            for label in stream.block_order:
                block_view = view.blocks[label]
                for op in stream.blocks[label].ops():
                    for reg in op.src_regs():
                        reads.append((block_view, op, reg))
                    defined.update(op.dests)
            missing: Set[Reg] = set()
            for block_view, op, reg in reads:
                if reg not in defined and reg not in missing:
                    missing.add(reg)
                    self._finding(
                        "unrouted-value",
                        view.name,
                        block_view,
                        core,
                        f"core {core} reads {reg!r} but no op on this core "
                        f"ever defines it (dropped RECV/GET or missing "
                        f"transfer for the inter-core DFG edge)",
                        op,
                    )
            self.report.count("routed_regs", len(defined))


def verify_compiled(
    compiled: CompiledProgram,
    config: Optional[MachineConfig] = None,
    suppressions: Sequence[str] = (),
) -> VerificationReport:
    """Run every static check over ``compiled``; returns the report."""
    return ProgramVerifier(compiled, config, suppressions).verify()


def verify_cell(
    compiled: CompiledProgram,
    config: MachineConfig,
    suppressions: Sequence[str] = (),
    *,
    dynamic: bool = False,
    max_cycles: int = 50_000_000,
) -> VerificationReport:
    """Verify one compiled cell statically and, with ``dynamic=True``,
    by executing it under the race sanitizer (:func:`run_sanitized`);
    the dynamic findings join the same report, suppressions applied."""
    report = verify_compiled(compiled, config, suppressions)
    if dynamic:
        machine, findings = run_sanitized(compiled, config, max_cycles)
        report.count("dynamic_accesses", machine.obs.checked_accesses)
        for finding in findings:
            finding.suppressed = match_suppression(finding, suppressions)
            report.add(finding)
    return report
