"""Built-in checkers; importing this package registers the fifteen rules.

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
``RL012``    cache-key-fencing          serve-tier cache key missing the rate
                                        fingerprint or ingest-epoch component
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
retired: RL007 and RL016 report their findings.

RL001, RL002, RL004 and RL005 are per-node AST visitors; RL007–RL009 are
flow-sensitive — they consume the per-function CFGs of
:mod:`repro.analysis.cfg` through the fixpoint solver of
:mod:`repro.analysis.dataflow`.  RL010–RL014 and RL016
are *interprocedural* (:class:`~repro.analysis.base.ProjectChecker`) — the
runner builds one :class:`~repro.analysis.callgraph.Project` (call graph +
bottom-up :mod:`~repro.analysis.summaries`) and runs them once over the
whole file set, serially, after the per-file phase.  RL015 and RL017 are
per-file instances of the abstract interpreter
(:mod:`repro.analysis.absint`): they share one value-domain solve per
function through :meth:`~repro.analysis.base.SourceFile.solution_cache`.
"""

from repro.analysis.checkers.blocking_under_lock import BlockingUnderLockChecker
from repro.analysis.checkers.cache_key_fencing import CacheKeyFencingChecker
from repro.analysis.checkers.cache_latch import CacheLatchChecker
from repro.analysis.checkers.duplicate_index import DuplicateIndexWriteChecker
from repro.analysis.checkers.fixpoint_loops import FixpointLoopChecker
from repro.analysis.checkers.float_equality import FloatEqualityChecker
from repro.analysis.checkers.index_bounds import IndexBoundsChecker
from repro.analysis.checkers.interprocedural_locks import InterproceduralLockChecker
from repro.analysis.checkers.lockset_discipline import LocksetDisciplineChecker
from repro.analysis.checkers.numeric_ranges import NumericRangeChecker
from repro.analysis.checkers.param_mutation import ParamMutationChecker
from repro.analysis.checkers.resource_lifecycle import ResourceLifecycleChecker
from repro.analysis.checkers.use_after_invalidate import UseAfterInvalidateChecker
from repro.analysis.checkers.wire_taint import WireTaintChecker
from repro.analysis.checkers.zero_denominator import ZeroDenominatorChecker

__all__ = [
    "BlockingUnderLockChecker",
    "CacheKeyFencingChecker",
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
