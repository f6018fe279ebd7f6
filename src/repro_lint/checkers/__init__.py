"""Built-in checkers; importing this package registers the nine rules.

============ ========================== =====================================
Code         Name                       Hazard class
============ ========================== =====================================
``RL001``    duplicate-index-write      numpy fancy-indexing writes that keep
                                        only the last duplicate index
``RL002``    stale-cache-latch          build-once latches whose inputs change
                                        without invalidation
``RL004``    caller-owned-mutation      in-place mutation of dict/array
                                        parameters that were never copied
``RL005``    float-equality             exact ``==``/``!=`` against float
                                        literals in numeric code
``RL007``    lockset-discipline         guarded attribute accessed where the
                                        computed lockset lacks its lock
``RL010``    resource-lifecycle         file/mmap/socket acquired on a path
                                        that can exit without release
``RL011``    interprocedural-lock-order lock-order deadlock cycles (within
                                        a method or across call chains),
                                        self-deadlock re-acquisition and
                                        unheld ``*_locked`` helpers
``RL013``    blocking-under-lock        I/O, subprocess, sleep or fixpoint
                                        solve reachable while a lock is held
``RL015``    zero-denominator           division by an accumulated total or
                                        ``len()`` not provably non-zero
============ ========================== =====================================

RL003 (lexical lock discipline) is retired: RL007 reports its findings.
Seven more are retired because their hazard can no longer be written:

* RL012 (cache-key fencing): every serve cache key is built by
  :meth:`repro.serve.cache.Fence.key`, so a key missing a freshness
  component cannot be written (``tests/test_layering.py`` guards the
  construction);
* RL014 (wire input to a sink): every value ``repro.serve.http_server``
  hands the service comes out of a typed parser (guarded in
  ``tests/test_layering.py``, fuzzed in ``tests/serve/test_wire.py``);
* RL006 and RL016 (literal / computed rates and damping out of range):
  ``check_damping`` refuses a damping outside (0, 1) at every Eq. 4 and
  Eq. 10 entry and ``AuthorityTransferSchemaGraph`` refuses a negative or
  non-finite rate, both before any iteration
  (``tests/properties/test_range_check_properties.py``);
* RL008 (unbounded fixpoint loop): ``check_max_iterations`` runs at every
  fixpoint entry and every residual ``while`` tests ``max_iterations``
  (guarded in ``tests/test_layering.py``, pinned under ``Tolerance(0.0)``
  by ``tests/properties/test_fixpoint_cap_properties.py``);
* RL009 (use after invalidate): rates are values — no setter resets a
  lazily built structure, a view under new rates owns new ones
  (``tests/test_layering.py`` refuses a ``None`` reset of a latch,
  ``tests/properties/test_graph_properties.py`` pins the views);
* RL017 (index out of bounds): the store reader checks every section
  entry, meta field and offsets array it maps, and raw buffer access stays
  in the storage modules (``tests/test_layering.py``,
  ``tests/properties/test_store_fault_properties.py``).

RL001, RL002, RL004 and RL005 are per-node AST visitors; RL007 is
flow-sensitive — it consumes the per-function CFGs of
:mod:`repro_lint.cfg` through the fixpoint solver of
:mod:`repro_lint.dataflow`.  RL010, RL011 and RL013 are *interprocedural*
(:class:`~repro_lint.base.ProjectChecker`) — the runner builds one :class:`~repro_lint.callgraph.Project` (call graph +
bottom-up :mod:`~repro_lint.summaries`) and runs them once over the
whole file set, serially, after the per-file phase.  RL015 is the
per-file instance of the abstract interpreter (:mod:`repro_lint.absint`):
one cached value-domain solve per function
(:meth:`~repro_lint.base.SourceFile.solution_cache`).
"""

from repro_lint.checkers.blocking_under_lock import BlockingUnderLockChecker
from repro_lint.checkers.cache_latch import CacheLatchChecker
from repro_lint.checkers.duplicate_index import DuplicateIndexWriteChecker
from repro_lint.checkers.float_equality import FloatEqualityChecker
from repro_lint.checkers.interprocedural_locks import InterproceduralLockChecker
from repro_lint.checkers.lockset_discipline import LocksetDisciplineChecker
from repro_lint.checkers.param_mutation import ParamMutationChecker
from repro_lint.checkers.resource_lifecycle import ResourceLifecycleChecker
from repro_lint.checkers.zero_denominator import ZeroDenominatorChecker

__all__ = [
    "BlockingUnderLockChecker",
    "CacheLatchChecker",
    "DuplicateIndexWriteChecker",
    "FloatEqualityChecker",
    "InterproceduralLockChecker",
    "LocksetDisciplineChecker",
    "ParamMutationChecker",
    "ResourceLifecycleChecker",
    "ZeroDenominatorChecker",
]
