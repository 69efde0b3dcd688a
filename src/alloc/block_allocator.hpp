// Fine-grained recoverable block allocator (thesis §4.3.3, Functions 4–6).
//
// Memory inside chunks is divided into node-sized blocks linked into
// per-arena FIFO free lists (pop at head, push at tail). Following the
// thesis' thread-to-arena mapping, arenas are sized so that every thread id
// owns exactly one arena per virtual NUMA node:
//
//   pool  = threadID % num_pools          (round-robin NUMA placement)
//   arena = threadID / num_pools          (must be < arenas_per_pool)
//
// This makes each arena single-consumer: only its owning thread id pops from
// it or provisions chunks into it, while *pushes* (deallocations, which a
// thread always directs at its own arena) are the only concurrent writers at
// the tail. Single-consumer pops are what make deferred crash recovery of
// allocations race-free: a stale allocation log can be resolved by its
// owning thread id without any other thread being able to pop the same block
// concurrently. The FIFO shape is also the ABA mitigation for the tail-push
// CAS.
//
// Recoverability:
//  * every allocation is preceded by a persisted single-line ThreadLog entry
//    (LogChangeAttempt, Function 3); stale entries from earlier epochs are
//    resolved on the owning thread id's next allocation,
//  * allocated objects are stamped with (epoch, owner_tag) that become
//    durable with the object's initialization, letting recovery distinguish
//    "my pop became durable" from "my pop was lost in the crash",
//  * chunk provisioning follows claim -> log -> format -> link -> commit,
//    with the directory entry and the chunk header's `committed` flag
//    bracketing the durable link CAS so every crash point is recoverable,
//  * deallocation is idempotent so a failed recovery can be re-run.
//
// Magazine fast path (optional, see MagazineDesc in layout.hpp): when the
// store hands the allocator per-thread persistent magazine descriptors,
// pops are batched — one refill moves up to kMagazineSlots blocks from the
// arena head into the thread's magazine under a single persisted descriptor
// write (one fence per batch instead of one log persist + head persist per
// block), and frees accumulate in a return magazine that is converted
// per-block without fences and linked into the arena tail as one chain.
// Crash recovery extends the deferred per-thread walk with a magazine scan:
// a stale descriptor's alloc and return entries are classified exactly like
// stale kNodeAlloc logs (free-list membership, durable object state,
// structure reachability) and reclaimed, bounding the post-crash leak to
// one magazine's worth of blocks per thread — all recovered.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "alloc/alloc_log.hpp"
#include "alloc/block.hpp"
#include "alloc/layout.hpp"
#include "common/thread_registry.hpp"

namespace upsl::alloc {

class BlockAllocator {
 public:
  struct Config {
    std::uint64_t block_size = 512;
    /// Max supported thread ids = arenas_per_pool * num_pools.
    std::uint32_t arenas_per_pool = 64;
    /// Blocks per thread-local magazine batch (clamped to kMagazineSlots).
    /// Only meaningful when the allocator is given magazine descriptors.
    std::uint32_t magazine_capacity = kMagazineSlots;
  };

  /// Decides whether the block named by a stale kNodeAlloc log entry is
  /// reachable in the data structure (UPSkipList walks its bottom level from
  /// the logged predecessor). Installed by the owning store.
  using ReachabilityFn = std::function<bool(const ThreadLog&)>;

  /// Decides whether an arbitrary block named by a stale magazine descriptor
  /// entry is reachable in the data structure. Unlike ReachabilityFn there
  /// is no log record to consult — the magazine fast path writes none — so
  /// the store must classify the block from its (possibly garbage) contents.
  using BlockReachabilityFn = std::function<bool(std::uint64_t block_riv)>;

  /// `arenas` must point at pools.size() * cfg.arenas_per_pool persistent
  /// ArenaHeaders and `logs` at kMaxThreads persistent ThreadLogs, both
  /// inside one of the pools (the store root area). `epoch_word` is the
  /// PMEM-resident failure-free epoch id. `magazines`, when non-null, must
  /// point at kMaxThreads persistent MagazineDescs and enables the
  /// thread-local magazine fast path (unless UPSL_DISABLE_MAGAZINES is set
  /// in the environment, which keeps the descriptors recoverable but routes
  /// every operation through the legacy per-block protocol).
  BlockAllocator(std::vector<ChunkAllocator*> pools, ArenaHeader* arenas,
                 ThreadLog* logs, const std::uint64_t* epoch_word, Config cfg,
                 MagazineDesc* magazines = nullptr);

  void set_reachability_fn(ReachabilityFn fn) { reach_fn_ = std::move(fn); }
  void set_block_reachability_fn(BlockReachabilityFn fn) {
    block_reach_fn_ = std::move(fn);
  }

  /// Create-path initialization: provisions one chunk per pool and seeds
  /// every arena's free list (round-robin). Single-threaded.
  void bootstrap();

  /// Crash repair for every arena's FIFO tail hint. A crash inside
  /// LinkInTail can leave the chain CAS durable while the tail advance
  /// never ran (under partial-eviction crashes the unflushed CAS line may
  /// survive on its own), so ah.tail points mid-list. Pops never consult
  /// the tail, so the lagging tail block can be popped — after which every
  /// future link appends to an orphan chain unreachable from the head.
  /// Walking each list to its real anchor and re-pointing the tail restores
  /// the "tail is in-list" invariant LinkInTail relies on. With magazine
  /// descriptors present this runs lazily per-arena from the owning
  /// thread's epoch sync (keeping open O(1)); stores without descriptors
  /// never sync, so the open path calls this eagerly instead. Idempotent.
  void repair_tails();

  /// MakeLinkedObject's allocation steps (Function 4 lines 29–41): logs the
  /// attempt, pops a block from the calling thread's arena (provisioning a
  /// new chunk when the list runs dry) and returns it zeroed except for the
  /// (epoch_id, owner_tag) stamps. The caller initializes the object and
  /// persists it before linking it into the structure.
  void* allocate(std::uint64_t pred_riv, std::uint64_t key,
                 std::uint64_t* out_riv);

  /// DeleteLinkedObject (Function 5): returns an object to the calling
  /// thread's free list. Idempotent.
  void deallocate(std::uint64_t obj_riv);

  std::uint64_t riv_of(const void* p) const;
  std::uint64_t current_epoch() const { return pmem::pm_load(*epoch_word_); }
  std::uint64_t block_size() const { return cfg_.block_size; }
  std::uint32_t arenas_per_pool() const { return cfg_.arenas_per_pool; }
  std::uint32_t num_pools() const {
    return static_cast<std::uint32_t>(pools_.size());
  }

  /// Virtual NUMA node of the calling thread (round-robin by id, §5.1.2).
  std::uint32_t node_of_current_thread() const {
    return static_cast<std::uint32_t>(ThreadRegistry::id()) % num_pools();
  }

  /// True when the magazine fast path is active for allocate()/deallocate().
  bool magazines_enabled() const { return magazines_on_; }
  std::uint32_t magazine_capacity() const { return cfg_.magazine_capacity; }

  /// DRAM fast-path counters (relaxed; for benches and tests).
  struct Counters {
    std::atomic<std::uint64_t> magazine_allocs{0};
    std::atomic<std::uint64_t> legacy_allocs{0};
    std::atomic<std::uint64_t> magazine_frees{0};
    std::atomic<std::uint64_t> legacy_frees{0};
    std::atomic<std::uint64_t> refills{0};
    std::atomic<std::uint64_t> return_flushes{0};
    std::atomic<std::uint64_t> magazine_recoveries{0};
    /// Descriptors whose integrity stamp failed at recovery: reclamation is
    /// skipped (a garbage riv must not be dereferenced) and the named blocks
    /// are deliberately leaked, bounded at 2 * kMagazineSlots per descriptor.
    std::atomic<std::uint64_t> quarantined_magazines{0};
    std::atomic<std::uint64_t> quarantined_blocks{0};
  };
  const Counters& counters() const { return counters_; }

  /// Test/diagnostic helpers.
  std::size_t count_free_blocks(std::uint32_t pool_idx, std::uint32_t arena) const;
  std::size_t blocks_per_chunk(std::uint32_t pool_idx) const;
  const ThreadLog& log_of(int thread) const { return logs_[thread]; }
  const MagazineDesc& magazine_of(int thread) const { return mags_[thread]; }
  /// Blocks a thread id currently holds in DRAM magazines: unconsumed alloc
  /// batch slots plus converted-but-unlinked pending returns.
  std::size_t magazine_cached(int thread) const;
  /// Total blocks across all free lists plus blocks cached in thread-local
  /// magazines — used by leak-detection tests.
  std::size_t count_all_free_blocks() const;
  /// Blocks of provisioned chunks that are not free (live nodes, session
  /// tables, blocks in flight) — what space-bound tests watch.
  std::size_t count_used_blocks() const;
  /// Diagnostic flavor of the same accounting: appends every riv counted as
  /// free (free-list members, unconsumed DRAM magazine slots, pending
  /// returns) so leak reports can name the blocks that are *not* there.
  void collect_free_rivs(std::vector<std::uint64_t>* out) const;

 private:
  /// DRAM mirror of one thread's magazines. Lives inside the allocator (not
  /// thread_local) so a simulated in-process crash discards it with the
  /// allocator object, exactly like real DRAM loss.
  struct alignas(kCacheLineSize) DramMagazine {
    std::uint64_t synced_epoch = 0;  // epoch the descriptor was last synced at
    std::uint32_t cursor = 0;        // next unconsumed alloc slot
    std::uint32_t count = 0;         // valid alloc slots
    std::uint64_t rivs[kMagazineSlots] = {};
    std::uint32_t ret_count = 0;     // pending converted returns
    std::uint64_t ret_head = 0;      // newest pending return (chain head)
    std::uint64_t ret_tail = 0;      // oldest pending return (chain tail)
  };
  ArenaHeader& arena(std::uint32_t pool_idx, std::uint32_t arena_idx) const {
    return arenas_[pool_idx * cfg_.arenas_per_pool + arena_idx];
  }
  MemBlock* block_at(std::uint64_t riv) const {
    return riv::Runtime::instance().as<MemBlock>(riv);
  }
  std::uint32_t my_pool() const { return node_of_current_thread(); }
  std::uint32_t my_arena() const;
  static std::uint64_t owner_tag_of(int tid) {
    return static_cast<std::uint64_t>(tid) + 1;
  }

  void* allocate_legacy(std::uint64_t pred_riv, std::uint64_t key,
                        std::uint64_t* out_riv);
  void* allocate_from_magazine(std::uint32_t pool_idx, std::uint32_t arena_idx,
                               std::uint64_t* out_riv);
  void refill_magazine(std::uint32_t pool_idx, std::uint32_t arena_idx);
  void deallocate_to_magazine(std::uint64_t obj_riv);
  void flush_returns(std::uint32_t pool_idx, std::uint32_t arena_idx);
  bool in_my_return_chain(std::uint64_t riv) const;
  /// First allocator call by this thread id in a new epoch: resolves the
  /// stale ThreadLog, the stale magazine descriptor and orphaned chunk
  /// claims, then resets the DRAM magazine mirror.
  void sync_thread_epoch();
  void repair_tail(std::uint32_t pool_idx, std::uint32_t arena_idx);
  void recover_magazine(int tid);
  void retire_magazine(MagazineDesc& d);
  void reclaim_magazine_block(std::uint64_t riv);

  void log_attempt(LogKind kind, std::uint64_t block, std::uint64_t pred,
                   std::uint64_t key, std::uint64_t aux0, std::uint64_t aux1);
  void handle_stale_log(ThreadLog& log);
  void recover_node_alloc(const ThreadLog& log);
  void recover_provision(const ThreadLog& log);
  void sweep_pending_chunks(std::uint64_t stale_epoch);
  bool in_my_free_list(std::uint64_t riv) const;
  /// Re-arm an out-of-list block as free and push it (recovery path).
  void convert_and_link(std::uint64_t obj_riv);

  std::pair<std::uint64_t, std::uint64_t> format_chunk(std::uint32_t pool_idx,
                                                       std::uint32_t c);
  void provision_new_chunk(std::uint32_t pool_idx, std::uint32_t arena_idx);
  void link_in_tail(std::uint32_t pool_idx, std::uint32_t arena_idx,
                    std::uint64_t chain_head, std::uint64_t chain_tail,
                    ThreadLog* provision_log);

  std::vector<ChunkAllocator*> pools_;
  ArenaHeader* arenas_;
  ThreadLog* logs_;
  const std::uint64_t* epoch_word_;
  Config cfg_;
  ReachabilityFn reach_fn_;
  BlockReachabilityFn block_reach_fn_;
  MagazineDesc* mags_ = nullptr;
  bool magazines_on_ = false;
  std::unique_ptr<DramMagazine[]> dram_;
  Counters counters_;
};

}  // namespace upsl::alloc
