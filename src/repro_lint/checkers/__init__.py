"""Built-in checkers; importing this package registers the fourteen rules.

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
``RL008``    unbounded-fixpoint-loop    residual-testing ``while`` loops with
                                        no iteration cap on any path
``RL009``    use-after-invalidate       cached attribute read on a path after
                                        ``None``/clear with no rebuild
``RL010``    resource-lifecycle         file/mmap/socket acquired on a path
                                        that can exit without release
``RL011``    interprocedural-lock-order lock-order deadlock cycles (within
                                        a method or across call chains),
                                        self-deadlock re-acquisition and
                                        unheld ``*_locked`` helpers
``RL013``    blocking-under-lock        I/O, subprocess, sleep or fixpoint
                                        solve reachable while a lock is held
``RL014``    wire-input-to-sink         wire-parsed input reaching an index/
                                        offset/path/rate sink unvalidated
``RL015``    zero-denominator           division by an accumulated total or
                                        ``len()`` not provably non-zero
``RL016``    rate-out-of-range          damping/rate/epsilon argument whose
                                        interval is provably out of range
                                        (rate > 1 allowed where the scope
                                        normalizes)
``RL017``    index-out-of-bounds        index/offset into slab/array storage
                                        provably negative or past the length
============ ========================== =====================================

RL003 (lexical lock discipline) and RL006 (literal transfer rates) are
retired: RL007 and RL016 report their findings.  RL012 (cache-key fencing)
is retired too: every serve cache key is built by
:meth:`repro.serve.cache.Fence.key`, so a key missing a freshness component
cannot be written (``tests/test_layering.py`` guards the construction).

RL001, RL002, RL004 and RL005 are per-node AST visitors; RL007–RL009 are
flow-sensitive — they consume the per-function CFGs of
:mod:`repro_lint.cfg` through the fixpoint solver of
:mod:`repro_lint.dataflow`.  RL010, RL011, RL013, RL014 and
RL016 are *interprocedural* (:class:`~repro_lint.base.ProjectChecker`) — the
runner builds one :class:`~repro_lint.callgraph.Project` (call graph +
bottom-up :mod:`~repro_lint.summaries`) and runs them once over the
whole file set, serially, after the per-file phase.  RL015 and RL017 are
per-file instances of the abstract interpreter
(:mod:`repro_lint.absint`): they share one value-domain solve per
function through :meth:`~repro_lint.base.SourceFile.solution_cache`.
"""

from repro_lint.checkers.blocking_under_lock import BlockingUnderLockChecker
from repro_lint.checkers.cache_latch import CacheLatchChecker
from repro_lint.checkers.duplicate_index import DuplicateIndexWriteChecker
from repro_lint.checkers.fixpoint_loops import FixpointLoopChecker
from repro_lint.checkers.float_equality import FloatEqualityChecker
from repro_lint.checkers.index_bounds import IndexBoundsChecker
from repro_lint.checkers.interprocedural_locks import InterproceduralLockChecker
from repro_lint.checkers.lockset_discipline import LocksetDisciplineChecker
from repro_lint.checkers.numeric_ranges import NumericRangeChecker
from repro_lint.checkers.param_mutation import ParamMutationChecker
from repro_lint.checkers.resource_lifecycle import ResourceLifecycleChecker
from repro_lint.checkers.use_after_invalidate import UseAfterInvalidateChecker
from repro_lint.checkers.wire_taint import WireTaintChecker
from repro_lint.checkers.zero_denominator import ZeroDenominatorChecker

__all__ = [
    "BlockingUnderLockChecker",
    "CacheLatchChecker",
    "DuplicateIndexWriteChecker",
    "FixpointLoopChecker",
    "FloatEqualityChecker",
    "IndexBoundsChecker",
    "InterproceduralLockChecker",
    "LocksetDisciplineChecker",
    "NumericRangeChecker",
    "ParamMutationChecker",
    "ResourceLifecycleChecker",
    "UseAfterInvalidateChecker",
    "WireTaintChecker",
    "ZeroDenominatorChecker",
]
