"""repro: reproduction of Voltron (HPCA 2007).

Voltron extends a conventional multicore with a dual-mode scalar operand
network and two execution modes (coupled DVLIW / decoupled fine-grain
threads) to exploit hybrid parallelism -- ILP, fine-grain TLP, and
statistical loop-level parallelism -- in single-thread applications.

The stable entry points live in :mod:`repro.api` and are re-exported
here: ``repro.run_cell(...)``, ``repro.run_figure(...)``,
``repro.list_benchmarks()``, ``repro.compile_benchmark(...)``, and
``repro.session(...)`` (the :class:`~repro.harness.ExperimentRunner`
class itself: one session, one machine template).  Their signatures are
the compatibility contract, and run settings (seed, cache, pool, faults,
journal) are spelled once, on the session.

Internal layers (importable, but their signatures are not the contract):

* :mod:`repro.isa` -- the HPL-PD-flavoured virtual ISA, IR builder, and
  reference interpreter.
* :mod:`repro.arch` -- machine configurations (cores, mesh, caches, network).
* :mod:`repro.sim` -- the cycle-level Voltron simulator.
* :mod:`repro.obs` -- observability: event probes, metrics series, and
  Perfetto trace export.
* :mod:`repro.analysis` -- voltlint: the static communication verifier,
  the dynamic race sanitizer, and the mutation harness that keeps both
  honest.
* :mod:`repro.compiler` -- BUG/eBUG/DSWP/DOALL partitioners, the joint VLIW
  scheduler, communication insertion, and the parallelism selection driver.
* :mod:`repro.workloads` -- the 25-benchmark synthetic suite standing in for
  the paper's SPEC/MediaBench programs.
* :mod:`repro.harness` -- experiment drivers regenerating each paper figure.
"""

__version__ = "1.0.0"

#: Facade names resolved lazily (PEP 562): ``import repro`` stays cheap
#: for consumers that only want a submodule, while ``repro.run_cell``
#: et al. pull in the harness on first touch.
_API_EXPORTS = (
    "FIGURES",
    "RunResult",
    "compile_benchmark",
    "generate_workload",
    "list_benchmarks",
    "list_presets",
    "run_cell",
    "run_figure",
    "session",
    "sweep",
    "verify_benchmark",
)

__all__ = list(_API_EXPORTS) + ["__version__"]


def __getattr__(name):
    if name in _API_EXPORTS:
        from . import api

        return getattr(api, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_API_EXPORTS))
