"""Parameterized IR kernels: the building blocks of the synthetic suite.

Each kernel emits one region (usually a single-block loop) into a
function under construction, shaped to exhibit one of the paper's
parallelism classes:

* :func:`ilp_kernel` -- wide independent arithmetic chains, cache
  resident: coupled-mode ILP wins (paper Fig. 9).
* :func:`doall_kernel` / :func:`reduction_kernel` -- elementwise array
  loops with no cross-iteration dependence: statistical DOALL / LLP
  (paper Figs. 2 and 7; the reduction exercises accumulator expansion).
* :func:`match_kernel` -- the 164.gzip Figure 8 shape: two pointer-chased
  load streams joined by a compare that controls the back branch;
  decoupled mode overlaps the misses (MLP) at the price of a predicate
  round trip.
* :func:`strand_kernel` -- multi-stream miss-heavy loop with a serial
  combine: fine-grain TLP via eBUG strands.
* :func:`dswp_kernel` -- a linked-list traversal feeding a deep work
  chain: pipeline parallelism with a loop-carried cross-stage value.
* :func:`serial_kernel` -- a tight recurrence with data-dependent
  addressing: best on a single core.
* :func:`call_kernel` -- a loop calling a helper function: decoupled mode
  pays call/return synchronization (Fig. 12's call-sync stalls).

Sizing rules of thumb (default machine): L1-D holds 1024 words, so arrays
of ``MISS_ARRAY`` words miss roughly once per 8-word line when streamed;
``RESIDENT_ARRAY``-sized tables stay hot after the first pass.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional

from ..isa.builder import FunctionBuilder, ProgramBuilder

MISS_ARRAY = 4096
RESIDENT_ARRAY = 64

_kernel_ids = itertools.count()


@dataclass
class KernelContext:
    """Shared state while assembling one benchmark program."""

    pb: ProgramBuilder
    fb: FunctionBuilder
    seed: int = 1
    _counter: int = 0
    #: The seed's LCG states so far, extended on demand.
    _stream: List[int] = field(default_factory=list, repr=False)

    def unique(self, stem: str) -> str:
        # Per-context numbering keeps builds of the same recipe identical.
        self._counter += 1
        return f"{stem}_{self._counter}"

    def rand_init(self, size: int, modulus: int = 251) -> List[int]:
        """Deterministic pseudo-random contents (no RNG dependency): the
        seed's LCG stream from its start, mapped into ``1..modulus``."""
        stream = self._stream
        value = stream[-1] if stream else self.seed * 2654435761 % 2**32
        for _ in range(size - len(stream)):
            value = (value * 1103515245 + 12345) % 2**31
            stream.append(value)
        return [value % modulus + 1 for value in stream[:size]]


def ilp_kernel(
    ctx: KernelContext,
    trips: int = 128,
    chains: int = 4,
    depth: int = 3,
    shuffle: bool = True,
    out: Optional[str] = None,
) -> str:
    """Wide arithmetic with fine-grained cross-chain dataflow.

    Each iteration runs ``chains`` parallel mul/add/xor strands and then
    (with ``shuffle``) exchanges values between neighbouring strands.  The
    shuffle links every strand into one recurrence, so neither DOALL nor
    DSWP applies -- the region's parallelism is pure ILP, and exploiting
    it across cores takes the one-cycle direct network of coupled mode
    (the paper's "complicated data/memory dependences ... benefit from the
    low communication latency")."""
    fb, pb = ctx.fb, ctx.pb
    name = ctx.unique("ilp")
    consts = pb.alloc(f"{name}_c", chains, init=ctx.rand_init(chains, 13))
    out_name = out or f"{name}_out"
    output = pb.alloc(out_name, chains)
    accs = [fb.mov(k + 1) for k in range(chains)]
    coeffs = [fb.load(consts.base, k) for k in range(chains)]
    with fb.counted_loop(name, 0, trips) as i:
        temps = []
        for k in range(chains):
            t = fb.mul(accs[k], coeffs[k])
            for _ in range(depth - 1):
                t = fb.xor(fb.add(t, k + 1), i)
            temps.append(t)
        for k in range(chains):
            mixed = (
                fb.xor(temps[k], temps[(k + 1) % chains])
                if shuffle and chains > 1
                else temps[k]
            )
            fb.and_(mixed, 0xFFFF, dest=accs[k])
    for k in range(chains):
        fb.store(output.base, k, accs[k])
    return out_name


def doall_kernel(
    ctx: KernelContext,
    trips: int = 256,
    work: int = 3,
    miss_heavy: bool = False,
    out: Optional[str] = None,
) -> str:
    """Elementwise `c[i] = f(a[i], b[i])`: statistical DOALL (Fig. 7)."""
    fb, pb = ctx.fb, ctx.pb
    name = ctx.unique("doall")
    size = max(trips, MISS_ARRAY if miss_heavy else trips)
    a = pb.alloc(f"{name}_a", size, init=ctx.rand_init(size))
    b = pb.alloc(f"{name}_b", size, init=ctx.rand_init(size, 97))
    out_name = out or f"{name}_out"
    c = pb.alloc(out_name, size)
    scale = fb.mov(3)
    with fb.counted_loop(name, 0, trips) as i:
        va = fb.load(a.base, i)
        vb = fb.load(b.base, i)
        t = fb.mul(va, scale)
        for _ in range(work - 1):
            t = fb.add(t, vb)
        fb.store(c.base, i, t)
    return out_name


def reduction_kernel(
    ctx: KernelContext,
    trips: int = 256,
    miss_heavy: bool = False,
    out: Optional[str] = None,
) -> str:
    """Dot-product style reduction: DOALL with accumulator expansion."""
    fb, pb = ctx.fb, ctx.pb
    name = ctx.unique("red")
    size = max(trips, MISS_ARRAY if miss_heavy else trips)
    a = pb.alloc(f"{name}_a", size, init=ctx.rand_init(size))
    b = pb.alloc(f"{name}_b", size, init=ctx.rand_init(size, 89))
    out_name = out or f"{name}_out"
    c = pb.alloc(out_name, 1)
    acc = fb.mov(0)
    with fb.counted_loop(name, 0, trips) as i:
        va = fb.load(a.base, i)
        vb = fb.load(b.base, i)
        t = fb.mul(va, vb)
        fb.add(acc, t, dest=acc)
    fb.store(c.base, 0, acc)
    return out_name


def match_kernel(
    ctx: KernelContext,
    length: int = 192,
    mismatch_at: Optional[int] = None,
    out: Optional[str] = None,
) -> str:
    """The 164.gzip Figure 8 loop: compare two strided streams until they
    differ.  Decoupled strands overlap the two load streams' misses."""
    fb, pb = ctx.fb, ctx.pb
    name = ctx.unique("match")
    size = max(length + 8, MISS_ARRAY)
    data = ctx.rand_init(size, 7)
    scan_init = list(data)
    match_init = list(data)
    stop = mismatch_at if mismatch_at is not None else length - 2
    match_init[stop] = 999  # force the eventual mismatch
    scan = pb.alloc(f"{name}_scan", size, init=scan_init)
    match = pb.alloc(f"{name}_match", size, init=match_init)
    out_name = out or f"{name}_out"
    output = pb.alloc(out_name, 1)

    ps = fb.mov(scan.base)
    pm = fb.mov(match.base)
    count = fb.mov(0)
    loop = fb.block(name)
    vs = fb.load(ps, 0)
    vm = fb.load(pm, 0)
    fb.add(ps, 2, dest=ps)
    fb.add(pm, 2, dest=pm)
    eq = fb.cmp_eq(vs, vm)
    lim = fb.cmp_lt(ps, scan.base + length)
    cont = fb.pand(eq, lim)
    fb.add(count, 1, dest=count)
    fb.branch_if(cont, name)
    fb.block(ctx.unique(f"{name}_done"))
    fb.store(output.base, 0, count)
    return out_name


def strand_kernel(
    ctx: KernelContext,
    trips: int = 128,
    streams: int = 2,
    out: Optional[str] = None,
) -> str:
    """Miss-heavy multi-stream loop with a serial combine: the per-stream
    loads live on different cores so their misses overlap (eBUG)."""
    fb, pb = ctx.fb, ctx.pb
    name = ctx.unique("strand")
    arrays = [
        pb.alloc(f"{name}_s{k}", MISS_ARRAY, init=ctx.rand_init(MISS_ARRAY))
        for k in range(streams)
    ]
    out_name = out or f"{name}_out"
    output = pb.alloc(out_name, trips)
    stride = 8  # one L1 line per access: every load likely misses
    acc = fb.mov(1)
    with fb.counted_loop(name, 0, trips) as i:
        offset = fb.mul(i, stride)
        values = []
        for k, array in enumerate(arrays):
            v = fb.load(array.base, offset)
            values.append(fb.add(v, k))
        t = values[0]
        for v in values[1:]:
            t = fb.xor(t, v)
        # A serial combine through the accumulator keeps one SCC heavy so
        # the DSWP estimate stays below threshold and eBUG strands win.
        fb.mul(acc, 3, dest=acc)
        fb.and_(acc, 0xFFF, dest=acc)
        fb.add(acc, t, dest=acc)
        fb.store(output.base, i, t)
    fb.store(output.base, 0, acc)
    return out_name


def dswp_kernel(
    ctx: KernelContext,
    trips: int = 160,
    work_depth: int = 6,
    chase_depth: int = 2,
    out: Optional[str] = None,
) -> str:
    """Linked-list traversal feeding a deep work chain: classic DSWP.

    The pointer chase (``chase_depth`` chained link loads) forms one SCC --
    the pipeline's first stage; the work chain is acyclic and pipelines
    behind it.  With a heavy enough chase the carried pointer crosses
    stages through the prologue / per-iteration / drain channel protocol.
    """
    fb, pb = ctx.fb, ctx.pb
    name = ctx.unique("dswp")
    size = max(trips + 1, 256)
    # next[i] links i -> i + 1 ... a simple chain keeps it DOALL-opaque
    # (the address of iteration n+1 depends on iteration n's load).
    links = pb.alloc(f"{name}_next", size, init=[(i + 1) % size for i in range(size)])
    payload = pb.alloc(f"{name}_val", size, init=ctx.rand_init(size))
    out_name = out or f"{name}_out"
    output = pb.alloc(out_name, trips)
    node = fb.mov(0)
    with fb.counted_loop(name, 0, trips) as i:
        v = fb.load(payload.base, node)
        t = v
        for d in range(work_depth):
            t = fb.add(fb.mul(t, 3), d)
        fb.and_(t, 0xFFFF, dest=t)
        # Mixing the (carried) node id into the output puts a consumer of
        # the recurrence in the last pipeline stage, exercising the carried
        # cross-stage channel (prologue / per-iteration / drain).
        mixed = fb.xor(t, node)
        fb.store(output.base, i, mixed)
        # p = p->next->...->next: the whole chase is one recurrence SCC.
        hop = node
        for _ in range(max(chase_depth - 1, 0)):
            hop = fb.load(links.base, hop)
        fb.load(links.base, hop, dest=node)
    return out_name


def serial_kernel(
    ctx: KernelContext,
    trips: int = 96,
    out: Optional[str] = None,
) -> str:
    """A tight data-dependent recurrence: no exploitable parallelism."""
    fb, pb = ctx.fb, ctx.pb
    name = ctx.unique("serial")
    table = pb.alloc(
        f"{name}_t", RESIDENT_ARRAY, init=ctx.rand_init(RESIDENT_ARRAY, 63)
    )
    out_name = out or f"{name}_out"
    output = pb.alloc(out_name, 1)
    acc = fb.mov(ctx.seed % 17 + 1)
    with fb.counted_loop(name, 0, trips) as i:
        idx = fb.and_(acc, RESIDENT_ARRAY - 1)
        v = fb.load(table.base, idx)
        fb.add(acc, v, dest=acc)
        fb.mul(acc, 5, dest=acc)
        fb.and_(acc, 0xFFFF, dest=acc)
    fb.store(output.base, 0, acc)
    return out_name


def call_kernel(
    ctx: KernelContext,
    trips: int = 48,
    out: Optional[str] = None,
) -> str:
    """A loop around a helper call (parser/vortex-style small functions);
    decoupled compilations pay call/return synchronization here."""
    fb, pb = ctx.fb, ctx.pb
    name = ctx.unique("call")
    helper_name = f"{name}_helper"
    helper = pb.function(helper_name, n_params=2)
    helper.block(f"{helper_name}_entry")
    x, y = helper.function.params
    r = helper.mul(x, y)
    r = helper.add(r, 7)
    r = helper.and_(r, 0xFFFF)
    helper.ret(r)

    data = pb.alloc(f"{name}_a", max(trips, RESIDENT_ARRAY), init=ctx.rand_init(max(trips, RESIDENT_ARRAY)))
    out_name = out or f"{name}_out"
    output = pb.alloc(out_name, trips)
    with fb.counted_loop(name, 0, trips) as i:
        v = fb.load(data.base, i)
        w = fb.call(helper_name, [v, 3])
        fb.store(output.base, i, w)
    return out_name


def stencil_kernel(
    ctx: KernelContext,
    trips: int = 128,
    miss_heavy: bool = False,
    out: Optional[str] = None,
) -> str:
    """Three-point stencil `c[i] = (a[i-1] + 2a[i] + a[i+1]) / 4`.

    Reads of neighbouring elements do not conflict with the (disjoint)
    output array, so the loop is DOALL -- the shape behind the paper's
    swim/mgrid LLP (statistical DOALL catches it even though the compiler
    cannot prove the read offsets disjoint from other iterations' reads).
    """
    fb, pb = ctx.fb, ctx.pb
    name = ctx.unique("stencil")
    size = max(trips + 2, MISS_ARRAY if miss_heavy else trips + 2)
    a = pb.alloc(f"{name}_a", size, init=ctx.rand_init(size))
    out_name = out or f"{name}_out"
    c = pb.alloc(out_name, size)
    with fb.counted_loop(name, 1, trips + 1) as i:
        left = fb.load(a.base, fb.sub(i, 1))
        mid = fb.load(a.base, i)
        right = fb.load(a.base, fb.add(i, 1))
        total = fb.add(fb.add(left, fb.mul(mid, 2)), right)
        fb.store(c.base, i, fb.div(total, 4))
    return out_name


def histogram_kernel(
    ctx: KernelContext,
    trips: int = 96,
    bins: int = 64,
    out: Optional[str] = None,
) -> str:
    """Scatter update `h[key[i]] += 1` with data-dependent keys.

    Iterations *do* occasionally collide (the profile observes it), so the
    loop is rejected for speculation and exercises the selection policy's
    conservative path -- the scatter shape of vpr/equake update phases.
    """
    fb, pb = ctx.fb, ctx.pb
    name = ctx.unique("hist")
    keys = pb.alloc(
        f"{name}_k", trips, init=[v % bins for v in ctx.rand_init(trips, 509)]
    )
    out_name = out or f"{name}_out"
    table = pb.alloc(out_name, bins)
    with fb.counted_loop(name, 0, trips) as i:
        key = fb.load(keys.base, i)
        count = fb.load(table.base, key)
        fb.store(table.base, key, fb.add(count, 1))
    return out_name


#: Kernel registry used by benchmark recipes.
KERNELS = {
    "ilp": ilp_kernel,
    "doall": doall_kernel,
    "reduction": reduction_kernel,
    "match": match_kernel,
    "strand": strand_kernel,
    "dswp": dswp_kernel,
    "serial": serial_kernel,
    "call": call_kernel,
    "stencil": stencil_kernel,
    "histogram": histogram_kernel,
}
