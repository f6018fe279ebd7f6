"""Built-in checkers; importing this package registers the six rules.

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
``RL010``    resource-lifecycle         file/mmap/socket acquired on a path
                                        that can exit without release
``RL015``    zero-denominator           division by an accumulated total or
                                        ``len()`` not provably non-zero
============ ========================== =====================================

RL003 (lexical lock discipline), RL007 (flow-sensitive lock discipline),
RL011 (lock order, re-acquisition, unheld ``*_locked`` helpers) and RL013
(blocking work under a lock) are retired: the test suite's lockdep
(``tests/lockdep.py``) checks every lock under ``repro.`` where it runs —
each acquire against one global lock-order graph and the thread's held
locks, each access to a ``#: guarded by`` attribute against the lock it
names, each blocking primitive and fixpoint entry against the held locks
not annotated ``#: may block`` — and ``tests/test_layering.py`` requires
every lock in ``src/repro`` to be a ``threading.Lock()`` it can reach.
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

RL001, RL002, RL004 and RL005 are per-node AST visitors.  RL010 follows
each acquisition through its function's CFG
(:meth:`~repro_lint.base.SourceFile.cfg_for`); no rule needs more than the
one file it reads.  RL015 is the per-file instance of the abstract
interpreter (:mod:`repro_lint.absint`): one cached value-domain solve per
function (:meth:`~repro_lint.base.SourceFile.solution_cache`).
"""

from repro_lint.checkers.cache_latch import CacheLatchChecker
from repro_lint.checkers.duplicate_index import DuplicateIndexWriteChecker
from repro_lint.checkers.float_equality import FloatEqualityChecker
from repro_lint.checkers.param_mutation import ParamMutationChecker
from repro_lint.checkers.resource_lifecycle import ResourceLifecycleChecker
from repro_lint.checkers.zero_denominator import ZeroDenominatorChecker

__all__ = [
    "CacheLatchChecker",
    "DuplicateIndexWriteChecker",
    "FloatEqualityChecker",
    "ParamMutationChecker",
    "ResourceLifecycleChecker",
    "ZeroDenominatorChecker",
]
