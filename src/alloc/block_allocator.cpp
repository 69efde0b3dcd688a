#include "alloc/block_allocator.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

#include "common/checksum.hpp"
#include "common/crashpoint.hpp"

namespace upsl::alloc {

using pmem::persist;
using pmem::pm_cas_value;
using pmem::pm_load;
using pmem::pm_store;

namespace {
bool trace_on() {
  static const bool on = std::getenv("UPSL_ALLOC_TRACE") != nullptr;
  return on;
}
#define ATRACE(...) \
  do { \
    if (trace_on()) std::fprintf(stderr, __VA_ARGS__); \
  } while (0)

/// Integrity stamp over a descriptor's alloc side: (epoch, count,
/// alloc_rivs). Serialized through a local buffer so the stamp is a pure
/// function of the covered values, independent of the packed count word.
std::uint32_t mag_alloc_stamp(std::uint64_t epoch, std::uint32_t count,
                              const std::uint64_t* rivs) {
  std::uint64_t words[2 + kMagazineSlots];
  words[0] = epoch;
  words[1] = count;
  for (std::uint32_t i = 0; i < kMagazineSlots; ++i) words[2 + i] = rivs[i];
  return checksum_stamp(words, sizeof(words));
}
}  // namespace

BlockAllocator::BlockAllocator(std::vector<ChunkAllocator*> pools,
                               ArenaHeader* arenas, ThreadLog* logs,
                               const std::uint64_t* epoch_word, Config cfg,
                               MagazineDesc* magazines)
    : pools_(std::move(pools)),
      arenas_(arenas),
      logs_(logs),
      epoch_word_(epoch_word),
      cfg_(cfg),
      mags_(magazines) {
  if (pools_.empty()) throw std::invalid_argument("allocator needs >= 1 pool");
  if (cfg_.block_size < kCacheLineSize || cfg_.block_size % kCacheLineSize != 0)
    throw std::invalid_argument("block size must be a multiple of 64");
  for (ChunkAllocator* ca : pools_) {
    if (ca->chunk_data_size() < cfg_.block_size)
      throw std::invalid_argument("chunk too small for one block");
  }
  if (cfg_.magazine_capacity < 1) cfg_.magazine_capacity = 1;
  if (cfg_.magazine_capacity > kMagazineSlots)
    cfg_.magazine_capacity = kMagazineSlots;
  if (mags_ != nullptr) {
    // The env kill switch (mirrors UPSL_DISABLE_SIMD) only disables the
    // fast path; stale descriptors from a magazine-mode run are still
    // recovered, so the switch can be flipped across restarts for bisection.
    const char* kill = std::getenv("UPSL_DISABLE_MAGAZINES");
    magazines_on_ = !(kill != nullptr && kill[0] != '\0' && kill[0] != '0');
    dram_ = std::make_unique<DramMagazine[]>(kMaxThreads);
  }
}

std::uint32_t BlockAllocator::my_arena() const {
  const auto arena_idx =
      static_cast<std::uint32_t>(ThreadRegistry::id()) / num_pools();
  if (arena_idx >= cfg_.arenas_per_pool)
    throw std::logic_error(
        "thread id exceeds arenas_per_pool * num_pools; raise max_threads");
  return arena_idx;
}

std::size_t BlockAllocator::blocks_per_chunk(std::uint32_t pool_idx) const {
  return pools_[pool_idx]->chunk_data_size() / cfg_.block_size;
}

std::pair<std::uint64_t, std::uint64_t> BlockAllocator::format_chunk(
    std::uint32_t pool_idx, std::uint32_t c) {
  ChunkAllocator& ca = *pools_[pool_idx];
  const std::uint64_t epoch = current_epoch();
  char* data = ca.chunk_data(c);
  const std::size_t n = blocks_per_chunk(pool_idx);
  std::memset(ca.chunk_base(c), 0, ca.header().chunk_size);

  ChunkHeader* ch = ca.chunk_header(c);
  ch->magic = kChunkMagic;
  ch->chunk_id = c;
  ch->committed = 0;

  const std::uint16_t pool_id = ca.pool().id();
  std::uint64_t head = 0;
  std::uint64_t tail = 0;
  for (std::size_t i = 0; i < n; ++i) {
    auto* b = reinterpret_cast<MemBlock*>(data + i * cfg_.block_size);
    const auto off = static_cast<std::uint32_t>(
        ChunkAllocator::kChunkHeaderSize + i * cfg_.block_size);
    b->self = riv::encode(pool_id, c, off);
    b->next = (i + 1 < n)
                  ? riv::encode(pool_id, c,
                                off + static_cast<std::uint32_t>(cfg_.block_size))
                  : 0;
    b->epoch_id = epoch;
    b->state = MemBlock::kFreeState;
    b->owner_tag = 0;
    if (i == 0) head = b->self;
    if (i + 1 == n) tail = b->self;
  }
  persist(ca.chunk_base(c), ca.header().chunk_size);
  return {head, tail};
}

void BlockAllocator::bootstrap() {
  const std::uint64_t epoch = current_epoch();
  const std::uint32_t A = cfg_.arenas_per_pool;
  for (std::uint32_t p = 0; p < num_pools(); ++p) {
    ChunkAllocator& ca = *pools_[p];
    const std::size_t n = blocks_per_chunk(p);
    if (n < A)
      throw std::invalid_argument(
          "chunk too small to seed one block per arena at bootstrap");
    const std::int64_t claimed = ca.claim_chunk(epoch, 0);
    if (claimed < 0) throw std::bad_alloc();
    const auto c = static_cast<std::uint32_t>(claimed);

    // Carve blocks and deal them round-robin: arena a gets blocks
    // a, a+A, a+2A, ... chained in order, so every arena starts non-empty
    // (the free-list anchor invariant: the last block is never popped).
    char* data = ca.chunk_data(c);
    std::memset(ca.chunk_base(c), 0, ca.header().chunk_size);
    ChunkHeader* ch = ca.chunk_header(c);
    ch->magic = kChunkMagic;
    ch->chunk_id = c;
    ch->owner_arena = 0;
    const std::uint16_t pool_id = ca.pool().id();
    auto riv_at = [&](std::size_t i) {
      return riv::encode(pool_id, c,
                         static_cast<std::uint32_t>(
                             ChunkAllocator::kChunkHeaderSize +
                             i * cfg_.block_size));
    };
    for (std::size_t i = 0; i < n; ++i) {
      auto* b = reinterpret_cast<MemBlock*>(data + i * cfg_.block_size);
      b->self = riv_at(i);
      b->next = (i + A < n) ? riv_at(i + A) : 0;
      b->epoch_id = epoch;
      b->state = MemBlock::kFreeState;
      b->owner_tag = 0;
    }
    ch->committed = 1;
    persist(ca.chunk_base(c), ca.header().chunk_size);
    ca.commit_chunk(c);

    for (std::uint32_t a = 0; a < A; ++a) {
      ArenaHeader& ah = arena(p, a);
      std::size_t last = a;
      while (last + A < n) last += A;
      pm_store(ah.head, riv_at(a));
      pm_store(ah.tail, riv_at(last));
    }
    persist(&arena(p, 0), A * sizeof(ArenaHeader));
  }
}

void BlockAllocator::repair_tail(std::uint32_t pool_idx,
                                 std::uint32_t arena_idx) {
  ArenaHeader& ah = arena(pool_idx, arena_idx);
  std::uint64_t anchor = pm_load(ah.head);
  if (anchor == 0) return;
  std::uint64_t spins = 0;
  while (true) {
    if (++spins > (64u << 20))
      throw std::logic_error("livelock detected in repair_tail");
    const std::uint64_t nxt = pm_load(block_at(anchor)->next);
    if (nxt == 0) break;
    anchor = nxt;
  }
  if (pm_load(ah.tail) != anchor) {
    ATRACE("[repair_tail p=%u a=%u tail %llu -> %llu]\n", pool_idx, arena_idx,
           (unsigned long long)pm_load(ah.tail), (unsigned long long)anchor);
    pm_store(ah.tail, anchor);
    persist(&ah.tail, sizeof(ah.tail));
    UPSL_CRASH_POINT("alloc.tail_repaired");
  }
}

void BlockAllocator::repair_tails() {
  for (std::uint32_t p = 0; p < num_pools(); ++p)
    for (std::uint32_t a = 0; a < cfg_.arenas_per_pool; ++a) repair_tail(p, a);
}

void BlockAllocator::log_attempt(LogKind kind, std::uint64_t block,
                                 std::uint64_t pred, std::uint64_t key,
                                 std::uint64_t aux0, std::uint64_t aux1) {
  ThreadLog& log = logs_[ThreadRegistry::id()];
  const std::uint64_t epoch = current_epoch();
  if (log.kind != static_cast<std::uint64_t>(LogKind::kNone) &&
      pm_load(log.epoch) != epoch) {
    handle_stale_log(log);
  }
  log.kind = static_cast<std::uint64_t>(kind);
  log.block = block;
  log.pred = pred;
  log.key = key;
  log.aux0 = aux0;
  log.aux1 = aux1;
  log.aux2 = 0;
  pm_store(log.epoch, epoch);
  persist(&log, sizeof(log));
  UPSL_CRASH_POINT("alloc.after_log");
}

void BlockAllocator::handle_stale_log(ThreadLog& log) {
  const std::uint64_t stale_epoch = pm_load(log.epoch);
  switch (static_cast<LogKind>(log.kind)) {
    case LogKind::kNodeAlloc:
      recover_node_alloc(log);
      break;
    case LogKind::kChunkProvision:
      recover_provision(log);
      break;
    case LogKind::kNone:
      break;
  }
  // A crash can also land between a chunk claim and the corresponding log
  // write; such chunks are PENDING with our thread id and an old epoch and
  // were certainly never linked — reclaim them.
  sweep_pending_chunks(stale_epoch);
  // Mark the log consumed so the recovery does not run twice in one epoch.
  // (A crash before this line re-runs the recovery, which is idempotent.)
  UPSL_CRASH_POINT("alloc.stale_log_resolved");
  log.kind = static_cast<std::uint64_t>(LogKind::kNone);
  pm_store(log.epoch, current_epoch());
  persist(&log, sizeof(log));
}

bool BlockAllocator::in_my_free_list(std::uint64_t riv) const {
  std::uint64_t cur = pm_load(arena(my_pool(), my_arena()).head);
  while (cur != 0) {
    if (cur == riv) return true;
    cur = pm_load(block_at(cur)->next);
  }
  return false;
}

void BlockAllocator::convert_and_link(std::uint64_t obj_riv) {
  MemBlock* b = block_at(obj_riv);
  std::memset(b, 0, cfg_.block_size);
  b->self = obj_riv;
  b->next = 0;
  b->epoch_id = current_epoch();
  b->owner_tag = 0;
  pm_store(b->state, MemBlock::kFreeState);
  persist(b, cfg_.block_size);
  UPSL_CRASH_POINT("alloc.recover_converted");
  link_in_tail(my_pool(), my_arena(), obj_riv, obj_riv, nullptr);
}

void BlockAllocator::recover_node_alloc(const ThreadLog& log) {
  MemBlock* b = block_at(log.block);
  const std::uint64_t state = pm_load(b->state);
  const std::uint64_t owner = pm_load(b->owner_tag);
  const std::uint64_t my_tag = owner_tag_of(ThreadRegistry::id());

  if (state != MemBlock::kFreeState && owner == my_tag) {
    // The pop and the object's initialization both became durable. The only
    // question is whether the object was linked into the structure.
    if (pm_load(b->epoch_id) == current_epoch()) return;  // re-stamped already
    if (!reach_fn_) return;  // no structure knowledge: leak-safe skip
    if (reach_fn_(log)) return;
    deallocate(log.block);
    return;
  }
  if (state != MemBlock::kFreeState && owner != 0) {
    // Someone else's durable object: our pop attempt lost the pre-crash race
    // and the block was claimed by another thread (whose own log covers it).
    return;
  }
  // Free-looking (or zeroed) content. Either our pop never became durable —
  // then the block is still on our (single-consumer) free list — or it did
  // and the initialization was lost, leaking the block.
  if (in_my_free_list(log.block)) return;
  convert_and_link(log.block);
}

void BlockAllocator::sweep_pending_chunks(std::uint64_t stale_epoch) {
  const auto tid = static_cast<std::uint16_t>(ThreadRegistry::id());
  ThreadLog& log = logs_[ThreadRegistry::id()];
  for (std::uint32_t p = 0; p < num_pools(); ++p) {
    ChunkAllocator& ca = *pools_[p];
    const auto n = static_cast<std::uint32_t>(ca.header().max_chunks);
    for (std::uint32_t c = 0; c < n; ++c) {
      const DirEntry e = ca.dir_entry(c);
      if (e.state != ChunkState::kPending || e.thread != tid ||
          e.epoch > stale_epoch)
        continue;
      // Skip the chunk the log itself describes; recover_provision owns it.
      if (static_cast<LogKind>(log.kind) == LogKind::kChunkProvision &&
          log.aux0 == c && (log.aux1 >> 32) == p)
        continue;
      UPSL_CRASH_POINT("alloc.sweep_pending");
      ca.release_chunk(c);
    }
  }
}

void BlockAllocator::recover_provision(const ThreadLog& log) {
  const auto c = static_cast<std::uint32_t>(log.aux0);
  const auto pool_idx = static_cast<std::uint32_t>(log.aux1 >> 32);
  ChunkAllocator& ca = *pools_[pool_idx];
  const DirEntry e = ca.dir_entry(c);
  if (e.state == ChunkState::kFree) return;  // already reclaimed
  ChunkHeader* ch = ca.chunk_header(c);
  if (e.state == ChunkState::kAllocated) {
    // Provisioning completed; at worst the committed flag lost its flush.
    if (pm_load(ch->committed) == 0) {
      pm_store(ch->committed, std::uint64_t{1});
      persist(&ch->committed, sizeof(ch->committed));
    }
    return;
  }
  // state == kPending.
  if (pm_load(ch->committed) == 1) {
    ca.commit_chunk(c);  // crashed between committed flag and dir update
    return;
  }
  const std::uint64_t chain_head = log.block;
  const std::uint64_t logged_tail = pm_load(log.aux2);
  if (logged_tail != 0) {
    MemBlock* tb = block_at(logged_tail);
    const std::uint64_t tb_next = pm_load(tb->next);
    if (tb_next == chain_head) {
      // The link CAS became durable: the chain is reachable. Finish.
      persist(&tb->next, sizeof(tb->next));
      pm_store(ch->committed, std::uint64_t{1});
      persist(&ch->committed, sizeof(ch->committed));
      ca.commit_chunk(c);
      return;
    }
    if (tb_next != 0) {
      // Defensive: with single-consumer arenas our link CAS cannot lose to
      // another writer, so this indicates the logged tail has been reused.
      // Freeing would risk freeing live memory; keep the chunk allocated
      // (at worst one chunk leaks — bounded, documented in DESIGN.md).
      pm_store(ch->committed, std::uint64_t{1});
      persist(&ch->committed, sizeof(ch->committed));
      ca.commit_chunk(c);
      return;
    }
  }
  // Link never became durable: the chain is unreachable; reclaim the chunk.
  ca.release_chunk(c);
}

void BlockAllocator::provision_new_chunk(std::uint32_t pool_idx,
                                         std::uint32_t arena_idx) {
  ChunkAllocator& ca = *pools_[pool_idx];
  // Resolve any stale log first: the leaked chunk it may describe could be
  // the last free chunk in the pool.
  ThreadLog& mylog = logs_[ThreadRegistry::id()];
  if (mylog.kind != static_cast<std::uint64_t>(LogKind::kNone) &&
      pm_load(mylog.epoch) != current_epoch()) {
    handle_stale_log(mylog);
  }
  const std::uint64_t epoch = current_epoch();
  const auto tid = static_cast<std::uint16_t>(ThreadRegistry::id());
  const std::int64_t claimed = ca.claim_chunk(epoch, tid);
  if (claimed < 0) throw std::bad_alloc();
  const auto c = static_cast<std::uint32_t>(claimed);
  UPSL_CRASH_POINT("alloc.chunk_claimed");

  const std::uint64_t chain_head =
      riv::encode(ca.pool().id(), c,
                  static_cast<std::uint32_t>(ChunkAllocator::kChunkHeaderSize));
  log_attempt(LogKind::kChunkProvision, chain_head, 0, 0, c,
              (static_cast<std::uint64_t>(pool_idx) << 32) | arena_idx);
  UPSL_CRASH_POINT("alloc.chunk_logged");

  auto [head, tail] = format_chunk(pool_idx, c);
  ChunkHeader* ch = ca.chunk_header(c);
  ch->owner_arena = arena_idx;
  persist(ch, sizeof(*ch));
  UPSL_CRASH_POINT("alloc.chunk_formatted");

  link_in_tail(pool_idx, arena_idx, head, tail, &logs_[ThreadRegistry::id()]);
  UPSL_CRASH_POINT("alloc.chunk_linked");

  pm_store(ch->committed, std::uint64_t{1});
  persist(&ch->committed, sizeof(ch->committed));
  UPSL_CRASH_POINT("alloc.chunk_committed");
  ca.commit_chunk(c);
}

void BlockAllocator::link_in_tail(std::uint32_t pool_idx, std::uint32_t arena_idx,
                                  std::uint64_t chain_head,
                                  std::uint64_t chain_tail,
                                  ThreadLog* provision_log) {
  // Function 6 (LinkInTail). We help advance a lagging tail pointer
  // unconditionally rather than only on an epoch mismatch: the thesis' epoch
  // check distinguishes "tail stale because of a crash" from "tail about to
  // be advanced by a live thread"; helping in both cases is safe (the CAS is
  // conditional) and removes the wait on the live thread.
  ArenaHeader& ah = arena(pool_idx, arena_idx);
  std::uint64_t tail_riv;
  std::uint64_t spins = 0;
  while (true) {
    if (++spins > (8u << 20))
      throw std::logic_error("livelock detected in link_in_tail");
    tail_riv = pm_load(ah.tail);
    MemBlock* tb = block_at(tail_riv);
    if (provision_log != nullptr) {
      // Record which block we are about to CAS so recovery can decide
      // whether the link became durable (recover_provision).
      pm_store(provision_log->aux2, tail_riv);
      persist(&provision_log->aux2, sizeof(provision_log->aux2));
    }
    UPSL_CRASH_POINT("alloc.link_before_cas");
    if (pm_cas_value(tb->next, std::uint64_t{0}, chain_head)) {
      UPSL_CRASH_POINT("alloc.link_after_cas");
      persist(&tb->next, sizeof(tb->next));
      break;
    }
    const std::uint64_t nxt = pm_load(tb->next);
    if (nxt != 0 && pm_cas_value(ah.tail, tail_riv, nxt)) {
      persist(&ah.tail, sizeof(ah.tail));
    }
  }
  if (pm_cas_value(ah.tail, tail_riv, chain_tail)) {
    persist(&ah.tail, sizeof(ah.tail));
  }
}

void* BlockAllocator::allocate(std::uint64_t pred_riv, std::uint64_t key,
                               std::uint64_t* out_riv) {
  const std::uint32_t pool_idx = my_pool();
  const std::uint32_t arena_idx = my_arena();
  if (mags_ != nullptr) sync_thread_epoch();
  if (magazines_on_) return allocate_from_magazine(pool_idx, arena_idx, out_riv);
  counters_.legacy_allocs.fetch_add(1, std::memory_order_relaxed);
  return allocate_legacy(pred_riv, key, out_riv);
}

void* BlockAllocator::allocate_legacy(std::uint64_t pred_riv, std::uint64_t key,
                                      std::uint64_t* out_riv) {
  const std::uint32_t pool_idx = my_pool();
  const std::uint32_t arena_idx = my_arena();
  ArenaHeader& ah = arena(pool_idx, arena_idx);

  std::uint64_t spins = 0;
  while (true) {
    if (++spins > (1u << 20))
      throw std::logic_error("livelock detected in allocate");
    const std::uint64_t head_riv = pm_load(ah.head);
    MemBlock* b = block_at(head_riv);
    const std::uint64_t next = pm_load(b->next);
    if (next == 0) {
      // Head is the last resident block; it stays as the LinkInTail anchor
      // (Function 4 line 34) and we grow the arena instead.
      provision_new_chunk(pool_idx, arena_idx);
      continue;
    }
    log_attempt(LogKind::kNodeAlloc, head_riv, pred_riv, key, 0, 0);
    // Crashes after this point cannot leak: the log names the block, and a
    // future allocation by this thread id reclaims it if unreachable.
    if (pm_cas_value(ah.head, head_riv, next)) {
      UPSL_CRASH_POINT("alloc.after_pop");
      persist(&ah.head, sizeof(ah.head));
      std::memset(b, 0, cfg_.block_size);
      b->epoch_id = current_epoch();
      b->owner_tag = owner_tag_of(ThreadRegistry::id());
      if (out_riv != nullptr) *out_riv = head_riv;
      return b;
    }
    // Single-consumer arenas make this unreachable in normal operation, but
    // a mis-bound thread id should fail loudly rather than spin.
    throw std::logic_error("free-list pop CAS failed on single-consumer arena");
  }
}

void BlockAllocator::deallocate(std::uint64_t obj_riv) {
  if (mags_ != nullptr) sync_thread_epoch();
  MemBlock* b = block_at(obj_riv);

  if (!b->looks_free()) {
    if (magazines_on_) {
      deallocate_to_magazine(obj_riv);
      return;
    }
    counters_.legacy_frees.fetch_add(1, std::memory_order_relaxed);
    // ConvertToMemoryBlock: de-initialize the object and re-arm it as a
    // free block (Function 5 lines 46-48), then push it.
    convert_and_link(obj_riv);
    return;
  }
  // Already a block: this deallocation is being re-run after a crash. If
  // the block is visible as our arena's tail or already has a successor, it
  // is linked in — done (Function 5 lines 49-52).
  if (magazines_on_ && in_my_return_chain(obj_riv)) return;
  if (pm_load(arena(my_pool(), my_arena()).tail) == obj_riv) return;
  if (pm_load(b->next) != 0) return;
  if (in_my_free_list(obj_riv)) return;  // it is the head or mid-list
  link_in_tail(my_pool(), my_arena(), obj_riv, obj_riv, nullptr);
}

// ---------------------------------------------------------------------------
// Thread-local magazines
// ---------------------------------------------------------------------------

void* BlockAllocator::allocate_from_magazine(std::uint32_t pool_idx,
                                             std::uint32_t arena_idx,
                                             std::uint64_t* out_riv) {
  DramMagazine& m = dram_[ThreadRegistry::id()];
  if (m.cursor >= m.count) refill_magazine(pool_idx, arena_idx);
  // Fast path: no PMEM metadata writes at all. The block stays covered by
  // the durable descriptor entry written at refill time until the caller's
  // own persist (node initialization) or a return entry takes over.
  const std::uint64_t riv = m.rivs[m.cursor++];
  MemBlock* b = block_at(riv);
  std::memset(b, 0, cfg_.block_size);
  b->epoch_id = current_epoch();
  b->owner_tag = owner_tag_of(ThreadRegistry::id());
  if (out_riv != nullptr) *out_riv = riv;
  counters_.magazine_allocs.fetch_add(1, std::memory_order_relaxed);
  return b;
}

void BlockAllocator::refill_magazine(std::uint32_t pool_idx,
                                     std::uint32_t arena_idx) {
  const int tid = ThreadRegistry::id();
  DramMagazine& m = dram_[tid];
  MagazineDesc& d = mags_[tid];
  // Returns first: their blocks become refill candidates immediately, and
  // an empty return side keeps the descriptor rewrite below the only
  // covering record for every block the thread caches.
  flush_returns(pool_idx, arena_idx);

  ArenaHeader& ah = arena(pool_idx, arena_idx);
  const std::uint32_t cap = cfg_.magazine_capacity;
  std::uint64_t batch[kMagazineSlots];
  std::uint64_t head_riv = 0;
  std::uint64_t new_head = 0;
  std::uint32_t n = 0;
  std::uint64_t spins = 0;
  while (true) {
    if (++spins > (1u << 20))
      throw std::logic_error("livelock detected in refill_magazine");
    head_riv = pm_load(ah.head);
    std::uint64_t cur = head_riv;
    n = 0;
    while (n < cap) {
      const std::uint64_t nxt = pm_load(block_at(cur)->next);
      if (nxt == 0) break;  // cur is the LinkInTail anchor; never pop it
      batch[n++] = cur;
      cur = nxt;
    }
    if (n > 0) {
      new_head = cur;
      break;
    }
    provision_new_chunk(pool_idx, arena_idx);
  }

  // Persist the whole batch into the descriptor before detaching it from
  // the free list — the magazine analogue of LogChangeAttempt, one log
  // entry (and one fence) covering up to `cap` pops. A crash at any later
  // point leaks at most these n blocks; the next epoch's magazine scan
  // (recover_magazine) reclaims each one.
  const std::uint64_t epoch = current_epoch();
  for (std::uint32_t i = 0; i < n; ++i) pm_store(d.alloc_rivs[i], batch[i]);
  for (std::uint32_t i = n; i < kMagazineSlots; ++i)
    pm_store(d.alloc_rivs[i], std::uint64_t{0});
  std::uint64_t stamped[kMagazineSlots] = {};
  std::memcpy(stamped, batch, n * sizeof(std::uint64_t));
  pm_store(d.alloc_count, mag_pack(n, mag_alloc_stamp(epoch, n, stamped)));
  pm_store(d.epoch, epoch);
  persist(&d, sizeof(d));
  UPSL_CRASH_POINT("alloc.mag_refill_logged");

  if (!pm_cas_value(ah.head, head_riv, new_head))
    throw std::logic_error("free-list pop CAS failed on single-consumer arena");
  persist(&ah.head, sizeof(ah.head));
  UPSL_CRASH_POINT("alloc.mag_refill_popped");

  std::memcpy(m.rivs, batch, n * sizeof(std::uint64_t));
  m.count = n;
  m.cursor = 0;
  if (trace_on()) {
    std::fprintf(stderr, "[refill tid=%d epoch=%llu n=%u]", tid,
                 (unsigned long long)epoch, n);
    for (std::uint32_t i = 0; i < n; ++i)
      std::fprintf(stderr, " %llu", (unsigned long long)batch[i]);
    std::fprintf(stderr, "\n");
  }
  counters_.refills.fetch_add(1, std::memory_order_relaxed);
}

void BlockAllocator::deallocate_to_magazine(std::uint64_t obj_riv) {
  const int tid = ThreadRegistry::id();
  DramMagazine& m = dram_[tid];
  MagazineDesc& d = mags_[tid];
  if (m.ret_count >= cfg_.magazine_capacity)
    flush_returns(my_pool(), my_arena());

  // Record the riv durably before de-initializing the object: from here
  // until flush_returns links the chain, the block is reachable from
  // neither the structure nor the free list, and only this entry lets
  // recovery find it. Flush without fence — the entry only needs to be
  // durable by the time the chain link commits, and flush_returns fences.
  ATRACE("[ret tid=%d slot=%u riv=%llu]\n", tid, m.ret_count,
         (unsigned long long)obj_riv);
  pm_store(d.ret_rivs[m.ret_count], obj_riv);
  pmem::flush(&d.ret_rivs[m.ret_count], sizeof(std::uint64_t));
  UPSL_CRASH_POINT("alloc.mag_ret_recorded");

  // ConvertToMemoryBlock, chained onto the thread's pending-return list
  // instead of the arena tail (no CAS, no fence).
  MemBlock* b = block_at(obj_riv);
  std::memset(b, 0, cfg_.block_size);
  b->self = obj_riv;
  b->next = m.ret_head;
  b->epoch_id = current_epoch();
  b->owner_tag = 0;
  pm_store(b->state, MemBlock::kFreeState);
  pmem::flush(b, cfg_.block_size);
  UPSL_CRASH_POINT("alloc.mag_ret_converted");

  if (m.ret_count == 0) m.ret_tail = obj_riv;
  m.ret_head = obj_riv;
  ++m.ret_count;
  counters_.magazine_frees.fetch_add(1, std::memory_order_relaxed);
}

void BlockAllocator::flush_returns(std::uint32_t pool_idx,
                                   std::uint32_t arena_idx) {
  const int tid = ThreadRegistry::id();
  DramMagazine& m = dram_[tid];
  if (m.ret_count == 0) return;
  MagazineDesc& d = mags_[tid];
  // One fence retires all the per-free CLWBs (return entries + converted
  // block contents); only then may the chain become reachable.
  pmem::fence();
  ATRACE("[flush_returns tid=%d n=%u head=%llu tail=%llu]\n", tid, m.ret_count,
         (unsigned long long)m.ret_head, (unsigned long long)m.ret_tail);
  link_in_tail(pool_idx, arena_idx, m.ret_head, m.ret_tail, nullptr);
  UPSL_CRASH_POINT("alloc.mag_ret_linked");
  // Clear the covering entries only after link_in_tail persisted the link:
  // cleared earlier, a crash between the clear and the link becoming
  // durable would leak the whole chain. (Stale non-zero entries in the
  // other direction are harmless — recovery's guards skip linked blocks.)
  for (std::uint32_t i = 0; i < m.ret_count; ++i)
    pm_store(d.ret_rivs[i], std::uint64_t{0});
  pmem::flush(&d.ret_rivs[0], m.ret_count * sizeof(std::uint64_t));
  m.ret_count = 0;
  m.ret_head = 0;
  m.ret_tail = 0;
  counters_.return_flushes.fetch_add(1, std::memory_order_relaxed);
}

bool BlockAllocator::in_my_return_chain(std::uint64_t riv) const {
  const DramMagazine& m = dram_[ThreadRegistry::id()];
  std::uint64_t cur = m.ret_head;
  for (std::uint32_t i = 0; i < m.ret_count && cur != 0; ++i) {
    if (cur == riv) return true;
    cur = pm_load(block_at(cur)->next);
  }
  return false;
}

void BlockAllocator::sync_thread_epoch() {
  const int tid = ThreadRegistry::id();
  DramMagazine& m = dram_[tid];
  const std::uint64_t epoch = current_epoch();
  if (UPSL_LIKELY(m.synced_epoch == epoch)) return;
  // First allocator call by this thread id in the current epoch: run the
  // deferred recovery walk (§4.1.4) extended with the magazine scan.
  //
  // Mark the epoch synced (and reset the DRAM mirror) *before* recovering:
  // stale-log recovery re-enters deallocate() to reclaim orphaned blocks,
  // and the nested call must not restart this sync. The flag is DRAM-only,
  // so a crash mid-recovery simply re-runs every (idempotent) step.
  m = DramMagazine{};
  m.synced_epoch = epoch;
  // Re-anchor the arena tail before anything pops or links: both recovery
  // scans below link reclaimed blocks through ah.tail, and a crash inside
  // LinkInTail can leave the tail pointing at a block a later refill pops
  // (the chain CAS can become durable on its own under partial-eviction
  // crashes while the tail advance was lost) — every chain linked through
  // such a dangling tail would be orphaned.
  repair_tail(my_pool(), my_arena());
  // Magazine scan first: it retires the descriptor, so frees issued by the
  // stale-log recovery below can safely take the magazine return path
  // without clobbering unscanned return entries.
  if (pm_load(mags_[tid].epoch) != epoch) recover_magazine(tid);
  ThreadLog& log = logs_[tid];
  if (log.kind != static_cast<std::uint64_t>(LogKind::kNone) &&
      pm_load(log.epoch) != epoch) {
    handle_stale_log(log);
  }
  // A crash can land between a chunk claim and any covering record; with
  // magazines the fast path writes no ThreadLog, so the stale-log sweep
  // cannot be relied on to run — sweep dead-epoch PENDING chunks here.
  sweep_pending_chunks(epoch - 1);
}

void BlockAllocator::recover_magazine(int tid) {
  MagazineDesc& d = mags_[tid];
  if (trace_on()) {
    std::fprintf(stderr, "[mag_recover tid=%d d.epoch=%llu now=%llu alloc:",
                 tid, (unsigned long long)pm_load(d.epoch),
                 (unsigned long long)current_epoch());
    for (std::uint32_t i = 0; i < kMagazineSlots; ++i)
      std::fprintf(stderr, " %llu", (unsigned long long)pm_load(d.alloc_rivs[i]));
    std::fprintf(stderr, " ret:");
    for (std::uint32_t i = 0; i < kMagazineSlots; ++i)
      std::fprintf(stderr, " %llu", (unsigned long long)pm_load(d.ret_rivs[i]));
    std::fprintf(stderr, "]\n");
  }
  // Verify the alloc-side integrity stamp before trusting any riv in the
  // descriptor. A mismatch means the medium damaged the descriptor after its
  // persist (refill and retire both write it whole under one fence, and the
  // crash-mode analysis in docs/integrity.md shows every legal crash leaves
  // a stamp-consistent or fully-rolled-back image under kDiscardUnflushed);
  // dereferencing a damaged riv could corrupt live data, so the descriptor
  // is quarantined instead: reclamation is skipped, the named blocks are
  // deliberately leaked (bounded at 2 * kMagazineSlots), and the loss is
  // counted for the integrity report.
  {
    std::uint64_t rivs[kMagazineSlots];
    for (std::uint32_t i = 0; i < kMagazineSlots; ++i)
      rivs[i] = pm_load(d.alloc_rivs[i]);
    const std::uint64_t packed = pm_load(d.alloc_count);
    std::uint64_t words[2 + kMagazineSlots];
    words[0] = pm_load(d.epoch);
    words[1] = mag_count_of(packed);
    for (std::uint32_t i = 0; i < kMagazineSlots; ++i) words[2 + i] = rivs[i];
    if (!checksum_verify(words, sizeof(words), mag_stamp_of(packed))) {
      std::uint64_t lost = 0;
      for (std::uint32_t i = 0; i < kMagazineSlots; ++i) {
        if (rivs[i] != 0) ++lost;
        if (pm_load(d.ret_rivs[i]) != 0) ++lost;
      }
      ATRACE("[mag_recover tid=%d QUARANTINED, %llu blocks leaked]\n", tid,
             (unsigned long long)lost);
      counters_.quarantined_magazines.fetch_add(1, std::memory_order_relaxed);
      counters_.quarantined_blocks.fetch_add(lost, std::memory_order_relaxed);
      pmem::Stats::instance().checksum_failures.fetch_add(
          1, std::memory_order_relaxed);
      retire_magazine(d);
      return;
    }
  }
  // Alloc entries first: a block can be named by both a stale alloc slot
  // and a stale return slot (popped, handed out, freed again); reclaiming
  // the alloc side first parks it in the free list, where the return-side
  // scan's in_my_free_list guard skips it.
  for (std::uint32_t i = 0; i < kMagazineSlots; ++i)
    reclaim_magazine_block(pm_load(d.alloc_rivs[i]));
  UPSL_CRASH_POINT("alloc.mag_recover_mid");
  for (std::uint32_t i = 0; i < kMagazineSlots; ++i)
    reclaim_magazine_block(pm_load(d.ret_rivs[i]));
  // Retire the descriptor for the new epoch. A crash before this persist
  // re-runs both scans — every reclaim guard tolerates re-execution.
  retire_magazine(d);
  counters_.magazine_recoveries.fetch_add(1, std::memory_order_relaxed);
}

void BlockAllocator::retire_magazine(MagazineDesc& d) {
  for (std::uint32_t i = 0; i < kMagazineSlots; ++i) {
    pm_store(d.alloc_rivs[i], std::uint64_t{0});
    pm_store(d.ret_rivs[i], std::uint64_t{0});
  }
  const std::uint64_t epoch = current_epoch();
  static constexpr std::uint64_t kZeroRivs[kMagazineSlots] = {};
  pm_store(d.alloc_count, mag_pack(0, mag_alloc_stamp(epoch, 0, kZeroRivs)));
  pm_store(d.epoch, epoch);
  // Dying here (before the persist) rolls the zeroed slots back to the old
  // rivs under kDiscardUnflushed, or leaves a mix under random eviction;
  // either way the epoch stamp is not durable yet, so the next epoch
  // re-enters recover_magazine and the reclaim guards see each surviving
  // riv at most once more (a mixed image can also fail the stamp and be
  // quarantined — harmless, since this pass already reclaimed every riv).
  UPSL_CRASH_POINT("alloc.mag_recover_retiring");
  persist(&d, sizeof(d));
}

void BlockAllocator::reclaim_magazine_block(std::uint64_t riv) {
  if (riv == 0) return;
  UPSL_CRASH_POINT("alloc.mag_reclaim_block");
  // Same classification as recover_node_alloc, minus the log context:
  //  * already on our free list (pop never became durable, or a pending
  //    return that did get linked): nothing to do;
  //  * durable free-looking contents off-list: a conversion that never got
  //    linked, or a lost initialization — re-arm and link;
  //  * durable object contents: keep iff the structure still reaches it
  //    (it may be a live node from this or an earlier batch), otherwise it
  //    is an orphaned allocation — reclaim it.
  if (in_my_free_list(riv)) {
    ATRACE("[reclaim %llu: in-list]\n", (unsigned long long)riv);
    return;
  }
  MemBlock* b = block_at(riv);
  if (!b->looks_free()) {
    if (block_reach_fn_ == nullptr) return;  // no structure knowledge: leak-safe skip
    if (block_reach_fn_(riv)) {
      ATRACE("[reclaim %llu: reachable]\n", (unsigned long long)riv);
      return;
    }
  }
  ATRACE("[reclaim %llu: convert state=%llx]\n", (unsigned long long)riv,
         (unsigned long long)pm_load(b->state));
  convert_and_link(riv);
}

std::uint64_t BlockAllocator::riv_of(const void* p) const {
  for (ChunkAllocator* ca : pools_)
    if (ca->pool().contains(p)) return ca->riv_of(p);
  throw std::logic_error("riv_of: pointer not in any pool");
}

std::size_t BlockAllocator::count_free_blocks(std::uint32_t pool_idx,
                                              std::uint32_t arena_idx) const {
  std::size_t n = 0;
  std::uint64_t cur = pm_load(arena(pool_idx, arena_idx).head);
  while (cur != 0) {
    ++n;
    cur = pm_load(block_at(cur)->next);
  }
  return n;
}

std::size_t BlockAllocator::magazine_cached(int thread) const {
  if (dram_ == nullptr) return 0;
  const DramMagazine& m = dram_[thread];
  return (m.count - m.cursor) + m.ret_count;
}

std::size_t BlockAllocator::count_all_free_blocks() const {
  std::size_t n = 0;
  for (std::uint32_t p = 0; p < num_pools(); ++p)
    for (std::uint32_t a = 0; a < cfg_.arenas_per_pool; ++a)
      n += count_free_blocks(p, a);
  // Blocks parked in thread-local magazines are free too — they are just
  // cached off-list. Without this the conservation checks would "lose" up to
  // one magazine's worth of blocks per active thread.
  for (int t = 0; t < ThreadRegistry::high_water(); ++t) n += magazine_cached(t);
  return n;
}

std::size_t BlockAllocator::count_used_blocks() const {
  std::size_t provisioned = 0;
  for (std::uint32_t p = 0; p < num_pools(); ++p) {
    const ChunkAllocator& ca = *pools_[p];
    for (std::uint32_t c = 0; c < ca.header().max_chunks; ++c)
      if (ca.dir_entry(c).state == ChunkState::kAllocated)
        provisioned += blocks_per_chunk(p);
  }
  return provisioned - count_all_free_blocks();
}

void BlockAllocator::collect_free_rivs(std::vector<std::uint64_t>* out) const {
  for (std::uint32_t p = 0; p < num_pools(); ++p) {
    for (std::uint32_t a = 0; a < cfg_.arenas_per_pool; ++a) {
      std::uint64_t cur = pm_load(arena(p, a).head);
      while (cur != 0) {
        out->push_back(cur);
        cur = pm_load(block_at(cur)->next);
      }
    }
  }
  if (dram_ == nullptr) return;
  for (int t = 0; t < ThreadRegistry::high_water(); ++t) {
    const DramMagazine& m = dram_[t];
    for (std::uint32_t i = m.cursor; i < m.count; ++i) out->push_back(m.rivs[i]);
    std::uint64_t cur = m.ret_head;
    for (std::uint32_t i = 0; i < m.ret_count && cur != 0; ++i) {
      out->push_back(cur);
      cur = pm_load(block_at(cur)->next);
    }
  }
}

}  // namespace upsl::alloc
