"""Communication insertion: PUT/GET chains, BCAST groups, SEND/RECV pairs,
and dummy memory-synchronization pairs.

Transfer policy (both modes): a definition of register ``r`` on core ``c``
is forwarded *at the definition site* to every core that may consume ``r``.
Because a consuming core always executes the forwarding GET/RECV of the
reaching definition before the use (program order is preserved on each
core), the value arrives regardless of the control path taken -- the
property that makes the rule safe for arbitrary CFGs.

Queue-mode FIFO discipline: the receive queue CAM matches only on sender
id, so the k-th RECV from a sender must correspond to its k-th SEND.  Both
sides are emitted in the same program-order walk and the decoupled
scheduler never reorders ops, so the discipline holds by construction.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from ..arch.mesh import Mesh, opposite
from ..isa.operations import Imm, Opcode, Operation, Reg, RegFile, make_op
from ..isa.registers import RegisterAllocator
from .schedule import fresh_align_id


def coupled_transfer(
    mesh: Mesh, src_core: int, dst_cores: Iterable[int], reg: Reg
) -> List[Operation]:
    """Direct-mode transfer ops moving ``reg`` from ``src_core`` to each
    destination.  Predicate registers with several destinations use the
    one-cycle BCAST; scalar values use per-destination PUT/GET hop chains."""
    dst_cores = sorted(set(dst_cores) - {src_core})
    if not dst_cores:
        return []
    if reg.file is RegFile.PR and len(dst_cores) >= 1:
        return broadcast_group(src_core, dst_cores, reg)

    ops: List[Operation] = []
    for dst in dst_cores:
        current = src_core
        for direction in mesh.direct_path_directions(src_core, dst):
            align = fresh_align_id()
            neighbor = mesh.neighbor(current, direction)
            put = make_op(Opcode.PUT, [], [reg], direction=direction)
            put.core = current
            put.attrs["align"] = align
            put.attrs["transfer"] = True
            get = make_op(Opcode.GET, [reg], [], direction=opposite(direction))
            get.core = neighbor
            get.attrs["align"] = align
            get.attrs["transfer"] = True
            ops.extend((put, get))
            current = neighbor
    return ops


def broadcast_group(
    src_core: int, dst_cores: Iterable[int], reg: Reg
) -> List[Operation]:
    """BCAST on the source plus a same-cycle GET on every destination."""
    align = fresh_align_id()
    bcast = make_op(Opcode.BCAST, [], [reg])
    bcast.core = src_core
    bcast.attrs["align"] = align
    bcast.attrs["transfer"] = True
    ops = [bcast]
    for dst in sorted(set(dst_cores) - {src_core}):
        get = make_op(
            Opcode.GET, [reg], [], direction="bcast", bcast_src=src_core
        )
        get.core = dst
        get.attrs["align"] = align
        get.attrs["transfer"] = True
        ops.append(get)
    return ops


def decoupled_transfer(
    src_core: int,
    dst_cores: Iterable[int],
    reg: Reg,
    sync: Optional[str] = None,
) -> List[Operation]:
    """Queue-mode SEND on the source plus a RECV on each destination."""
    ops: List[Operation] = []
    for dst in sorted(set(dst_cores) - {src_core}):
        send = make_op(Opcode.SEND, [], [reg], target_core=dst)
        send.core = src_core
        send.attrs["transfer"] = True
        recv = make_op(Opcode.RECV, [reg], [], source_core=src_core)
        recv.core = dst
        recv.attrs["transfer"] = True
        if sync is not None:
            send.attrs["sync"] = sync
            recv.attrs["sync"] = sync
        ops.extend((send, recv))
    return ops


def memory_sync_pair(
    src_core: int, dst_core: int, regs: RegisterAllocator
) -> Tuple[Operation, Operation]:
    """Dummy SEND/RECV enforcing a cross-core memory dependence (paper
    Section 3.3).  The token value is meaningless; the RECV's completion
    orders the dependent access behind the source access."""
    send = make_op(Opcode.SEND, [], [Imm(0)], target_core=dst_core, sync="mem")
    send.core = src_core
    send.attrs["transfer"] = True
    scratch = regs.gpr()
    recv = make_op(Opcode.RECV, [scratch], [], source_core=src_core, sync="mem")
    recv.core = dst_core
    recv.attrs["transfer"] = True
    return send, recv


def send_value(
    src_core: int,
    dst_core: int,
    reg: Reg,
    sync: Optional[str] = None,
    tag: Optional[str] = None,
) -> Operation:
    op = make_op(Opcode.SEND, [], [reg], target_core=dst_core)
    op.core = src_core
    op.attrs["transfer"] = True
    if sync is not None:
        op.attrs["sync"] = sync
    if tag is not None:
        op.attrs["tag"] = tag
    return op


def recv_value(
    dst_core: int,
    src_core: int,
    reg: Reg,
    sync: Optional[str] = None,
    tag: Optional[str] = None,
) -> Operation:
    op = make_op(Opcode.RECV, [reg], [], source_core=src_core)
    op.core = dst_core
    op.attrs["transfer"] = True
    if sync is not None:
        op.attrs["sync"] = sync
    if tag is not None:
        op.attrs["tag"] = tag
    return op
