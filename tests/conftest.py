"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import pytest

from repro.arch import MachineConfig, mesh
from repro.compiler import VoltronCompiler, compile_program
from repro.isa import ProgramBuilder, Program, run_program
from repro.sim import VoltronMachine


def build_square_sum(n: int = 16) -> Tuple[Program, str]:
    """Canonical little program: out[i] = a[i]^2, out[0] = sum of squares."""
    pb = ProgramBuilder("square_sum")
    a = pb.alloc("a", n, init=range(n))
    out = pb.alloc("out", n)
    fb = pb.function("main")
    fb.block("entry")
    total = fb.mov(0)
    with fb.counted_loop("L1", 0, n) as i:
        v = fb.load(a.base, i)
        sq = fb.mul(v, v)
        fb.store(out.base, i, sq)
        fb.add(total, sq, dest=total)
    fb.store(out.base, 0, total)
    fb.halt()
    return pb.finish(), "out"


def build_strand_block() -> Tuple[Program, str]:
    """A miss-heavy straight-line helper called 48 times: the helper's
    entry block is the one shape the region selector compiles as a
    ``strand_block`` region (no suite benchmark reaches it).

    ``gather(x)`` makes three loads 2,048 words apart from an 8,192-word
    array (each touches a fresh line), combines them, stores
    ``out[x]`` and falls through to a block holding only the RET."""
    pb = ProgramBuilder("strand_block")
    data = pb.alloc("a", 8192, init=[(i * 37) % 1000 for i in range(8192)])
    out = pb.alloc("out", 48)
    helper = pb.function("gather", n_params=1)
    helper.block("gather_entry")
    (x,) = helper.function.params
    base = helper.mul(x, 64)
    first = helper.load(data.base, base)
    second = helper.load(data.base, helper.add(base, 2048))
    third = helper.load(data.base, helper.add(base, 4096))
    helper.store(out.base, x, helper.xor(helper.add(first, second), third))
    helper.block("gather_ret")
    helper.ret()
    fb = pb.function("main")
    fb.block("entry")
    with fb.counted_loop("calls", 0, 48) as i:
        fb.call("gather", [i], want_result=False)
    fb.halt()
    return pb.finish(), "out"


def simulate(
    program: Program,
    n_cores: int,
    strategy: str,
    args: Tuple = (),
    max_cycles: int = 3_000_000,
) -> VoltronMachine:
    compiled = compile_program(program, n_cores, strategy, profile_args=args)
    config = mesh(1) if n_cores == 1 else mesh(n_cores)
    machine = VoltronMachine(compiled, config, max_cycles=max_cycles, args=args)
    machine.run()
    return machine


def assert_strategies_match_reference(
    program: Program,
    arrays: Sequence[str],
    cores_strategies: Iterable[Tuple[int, str]] = (
        (1, "baseline"),
        (2, "ilp"),
        (2, "tlp"),
        (2, "llp"),
        (2, "hybrid"),
        (4, "ilp"),
        (4, "tlp"),
        (4, "llp"),
        (4, "hybrid"),
    ),
    args: Tuple = (),
) -> Dict[Tuple[int, str], int]:
    """Simulate under every (cores, strategy) pair and compare each output
    array against the reference interpreter.  Returns cycle counts."""
    reference = run_program(program, args)
    expected = {name: reference.array_values(program, name) for name in arrays}
    cycles = {}
    for n_cores, strategy in cores_strategies:
        machine = simulate(program, n_cores, strategy, args=args)
        for name, values in expected.items():
            got = machine.array_values(name)
            assert got == values, (
                f"{n_cores}-core {strategy}: array {name} mismatch: "
                f"{got[:8]} != {values[:8]}"
            )
        cycles[(n_cores, strategy)] = machine.stats.cycles
    return cycles


@pytest.fixture
def square_sum():
    return build_square_sum()


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite the golden machine-stats files under tests/sim/golden "
        "instead of comparing against them",
    )


@pytest.fixture
def update_golden(request) -> bool:
    return request.config.getoption("--update-golden")


# ---- voltlint fixtures (tests/analysis) ------------------------------------
#
# The compiler deliberately never splits compiler-visible memory
# dependences across cores (eBUG's memory_dep_weight keeps conflicting
# accesses co-located), so no benchmark cell exercises the memory-sync
# pair machinery end to end.  inject_sync_fixture manufactures that
# situation by hand: it appends a cross-core STORE/LOAD conflict to a
# decoupled block of a real compiled cell, with or without the
# memory_sync_pair ordering it.  Editing compiled streams pre-run is
# safe -- CoreBlock.decoded is only materialized by the simulator.

#: Word address used by the injected conflict; far above the suite's
#: static arrays so the extra store cannot perturb program results.
FIXTURE_ADDR = 1 << 20


def _shared_decoupled_block(compiled) -> Tuple[str, str]:
    """(function, label) of a decoupled, non-speculative block that both
    core 0 and core 1 execute -- the injection site."""
    from repro.isa.operations import Opcode

    for name, f0 in compiled.streams[0].items():
        f1 = compiled.streams[1].get(name)
        if f1 is None:
            continue
        for label in f0.block_order:
            b0 = f0.blocks[label]
            b1 = f1.blocks.get(label)
            if b1 is None or b0.mode != "decoupled":
                continue
            if b0.taken == label or b0.fall == label:
                continue  # self-loops would add a loop-carried WAR
            if any(
                op is not None
                and op.opcode in (Opcode.TX_BEGIN, Opcode.TX_COMMIT)
                for op in b0.slots + b1.slots
            ):
                continue
            return name, label
    raise AssertionError("no decoupled block shared by cores 0 and 1")


def inject_sync_fixture(compiled, with_sync: bool = True) -> Tuple[str, str]:
    """Append a core-0 STORE / core-1 LOAD of the same address to a
    decoupled block; with ``with_sync`` the pair is ordered by a
    ``memory_sync_pair``, without it the accesses race.  Returns the
    (function, label) injection site."""
    from repro.compiler.comm import memory_sync_pair
    from repro.isa.operations import Imm, Opcode, make_op

    name, label = _shared_decoupled_block(compiled)
    b0 = compiled.streams[0][name].blocks[label]
    b1 = compiled.streams[1][name].blocks[label]
    regs = compiled.program.functions[name].regs
    store = make_op(Opcode.STORE, [], [Imm(FIXTURE_ADDR), Imm(0), Imm(7)])
    store.core = 0
    load = make_op(Opcode.LOAD, [regs.gpr()], [Imm(FIXTURE_ADDR), Imm(0)])
    load.core = 1
    b0.slots.insert(0, store)
    if with_sync:
        send, recv = memory_sync_pair(0, 1, regs)
        # A distinct tag keeps the token off the compiler's untagged
        # transfer channel (the runtime RECV CAM matches on tag).
        send.attrs["tag"] = "fixture_sync"
        recv.attrs["tag"] = "fixture_sync"
        b0.slots.insert(1, send)
        b1.slots.insert(0, recv)
        b1.slots.insert(1, load)
    else:
        b1.slots.insert(0, load)
    return name, label


@pytest.fixture
def tlp_cell():
    """A fresh 4-core TLP compile of rawcaudio (cheap, queue-heavy)."""
    from repro.api import compile_benchmark

    return compile_benchmark("rawcaudio", 4, "tlp")


@pytest.fixture
def inject_sync():
    """The injection helper, as a fixture (tests are not a package)."""
    return inject_sync_fixture


@pytest.fixture
def fixture_addr():
    return FIXTURE_ADDR
