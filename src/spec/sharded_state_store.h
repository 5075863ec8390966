// Sharded fingerprint store for parallel state-space exploration.
//
// TLC scales to many workers by sharing one fingerprint set across
// threads; this is the analogous structure for our checker. The store is
// split into N lock-striped shards (N a power of two), selected by the low
// bits of the state fingerprint. Each shard owns its own index and record
// arena, so concurrent inserts on different shards never contend and
// inserts on the same shard serialize on one small mutex.
//
// Layout (docs/SPEC.md "Store modes"):
//   * Index: a flat open-addressing table (FlatFpTable) per shard —
//     fingerprint -> local record index, 12 bytes per slot, no per-insert
//     allocation, amortized power-of-two rehash under the shard lock.
//   * Hot arena: one 16-byte HotRecord (parent id, action, 24-bit depth,
//     8-bit origin) per state, in 1 MiB slab blocks that never move, so
//     record() references stay valid across inserts.
//   * Bodies: StoreMode::full keeps every S for the store's lifetime
//     (dedup falls back to operator== on fingerprint collision —
//     bit-identical to the pre-mode store). StoreMode::fingerprint_only
//     keeps bodies only for the frontier: engines call drop_body() once a
//     state has been expanded, dedup is by fingerprint alone, and paths
//     are rebuilt by replaying the recorded action chain from the initial
//     states (reconstruct_path()). A dropped body's map node is parked on
//     a bounded per-shard spare list and the next insert copy-assigns into
//     it, so a steady-state frontier allocates no map node and reuses the
//     body's own buffers. Parked nodes are poisoned under ASan: a frontier
//     pointer read after its drop still reports.
//   * Spill: with StoreOptions::spill_dir set, maybe_spill() writes
//     frozen (full) hot-arena blocks to an unlinked per-shard temp file
//     and mmaps them back read-only, freeing the heap copy. Quiescent
//     callers only — engines spill at level barriers.
//
// Global state IDs are stable across shards: id = (local_index <<
// shard_bits) | shard. Predecessor links stored in records use these
// global IDs, so counterexample reconstruction walks parents across shard
// boundaries.
//
// Concurrency contract (applies to size(), origin_count() and
// store_bytes()/spilled_bytes(), all of which read atomics wait-free):
//   * insert() may be called from any thread at any time; the wait-free
//     readers above are exact once writers are quiescent and a monotone
//     lower bound while they run.
//   * record()/body() take no lock: call them only once all writers have
//     been joined (counterexample reconstruction happens after the worker
//     pool stops). While writers run, a body is read through the pointer
//     its own insert() returned (InsertResult::body), never looked up.
//   * drop_body() takes the shard lock, so it may run concurrently with
//     insert() (the simulator and the validator's coverage tap retire
//     bodies mid-run) — but never concurrently with a record()/body()
//     reader of the same id.
//   * maybe_spill(), for_each() and reconstruct_path() are
//     quiescent-only.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#if defined(__SANITIZE_ADDRESS__)
#  include <sanitizer/asan_interface.h>
#endif

#include "spec/flat_fp_table.h"
#include "spec/spec.h"
#include "spec/store_options.h"

namespace scv::spec
{
  /// Lock-striped set of 64-bit keys — the store's striping pattern
  /// without records, on the same flat open-addressing tables as the
  /// store's index (no std::unordered_set node churn). Used where
  /// parallel workers share a pure membership table rather than full
  /// states: the work-stealing DFS trace validator's (line, fingerprint)
  /// dead-end memo, where one worker's proven-dead subtree must prune
  /// every other worker's search. Same contract as the store: insert()
  /// and contains() may be called from any thread; stripe selection
  /// mixes the high half of the key into the low bits.
  class StripedKeySet
  {
  public:
    explicit StripedKeySet(size_t stripe_count = 1)
    {
      size_t n = 1;
      while (n < stripe_count)
      {
        n <<= 1;
      }
      mask_ = n - 1;
      stripes_ = std::vector<Stripe>(n);
    }

    /// Inserts the key; returns true iff it was not already present.
    bool insert(uint64_t key)
    {
      Stripe& stripe = stripes_[stripe_of(key)];
      std::lock_guard<std::mutex> lock(stripe.mu);
      if (stripe.table.contains(key))
      {
        return false;
      }
      stripe.table.insert(key, 0);
      return true;
    }

    [[nodiscard]] bool contains(uint64_t key) const
    {
      const Stripe& stripe = stripes_[stripe_of(key)];
      std::lock_guard<std::mutex> lock(stripe.mu);
      return stripe.table.contains(key);
    }

    /// Exact when quiescent; a lower bound while writers run.
    [[nodiscard]] size_t size() const
    {
      size_t total = 0;
      for (const Stripe& stripe : stripes_)
      {
        std::lock_guard<std::mutex> lock(stripe.mu);
        total += stripe.table.size();
      }
      return total;
    }

  private:
    struct Stripe
    {
      mutable std::mutex mu;
      FlatFpTable table;
    };

    [[nodiscard]] size_t stripe_of(uint64_t key) const
    {
      return static_cast<size_t>((key ^ (key >> 32)) & mask_);
    }

    std::vector<Stripe> stripes_;
    uint64_t mask_ = 0;
  };

  template <SpecState S>
  class ShardedStateStore
  {
  public:
    using Id = uint64_t;
    static constexpr Id no_parent = ~Id{0};
    static constexpr uint32_t init_action = ~uint32_t{0};
    /// Depths saturate at 24 bits in the packed hot record.
    static constexpr uint32_t depth_limit = (uint32_t{1} << 24) - 1;

    /// Admissions are tagged with the discovering engine (an EngineId
    /// byte; engine.h defines the values) so a campaign sharing one store
    /// across checker, simulator and validator can report per-engine
    /// first-discovery counts next to the unioned total. Standalone
    /// engines leave it 0.
    static constexpr size_t max_origins = 4;

    /// The per-state bookkeeping that survives in fingerprint-only mode:
    /// everything path reconstruction needs, packed to 16 bytes.
    struct HotRecord
    {
      Id parent; // no_parent for initial states
      uint32_t action; // index into the spec's action list; init_action
      uint32_t packed; // depth (24 bits, saturating) << 8 | origin
    };
    static_assert(sizeof(HotRecord) == 16, "hot arena packing");

    /// What record() hands out: the hot fields unpacked plus the body
    /// pointer, which is null once a fingerprint-only store dropped the
    /// body (drop_body()).
    struct RecordView
    {
      Id parent;
      uint32_t action;
      uint32_t depth;
      uint8_t origin;
      const S* body;

      /// The state body; callers on full-mode stores (or frontier
      /// records) may dereference unconditionally.
      [[nodiscard]] const S& state() const
      {
        return *body;
      }
    };

    /// `body` points at the stored copy of a newly inserted state (null
    /// for a duplicate). It is taken under the shard lock, so unlike
    /// record()/body() it is safe while other threads insert: full-mode
    /// deque elements and fingerprint-only map nodes never move, and the
    /// pointer stays valid until drop_body(). The BFS engines
    /// keep their frontiers as these pointers instead of state copies.
    struct InsertResult
    {
      Id id;
      bool inserted;
      const S* body;
    };

    explicit ShardedStateStore(
      size_t shard_count = 1, StoreOptions options = {}) :
      options_(std::move(options))
    {
      size_t n = 1;
      while (n < shard_count)
      {
        n <<= 1;
      }
      shard_mask_ = n - 1;
      shard_bits_ = 0;
      while ((size_t{1} << shard_bits_) < n)
      {
        ++shard_bits_;
      }
      shards_ = std::vector<Shard>(n);
    }

    ~ShardedStateStore()
    {
      for (Shard& shard : shards_)
      {
        for (auto& node : shard.spare_bodies)
        {
          unpark(node);
        }
        for (size_t b = 0; b < shard.first_unspilled; ++b)
        {
          ::munmap(shard.blocks[b].data, block_bytes);
        }
        if (shard.spill_fd >= 0)
        {
          ::close(shard.spill_fd);
        }
      }
    }

    ShardedStateStore(const ShardedStateStore&) = delete;
    ShardedStateStore& operator=(const ShardedStateStore&) = delete;

    [[nodiscard]] const StoreOptions& options() const
    {
      return options_;
    }

    [[nodiscard]] bool fingerprint_only() const
    {
      return options_.fingerprint_only();
    }

    [[nodiscard]] size_t shard_count() const
    {
      return shards_.size();
    }

    [[nodiscard]] Id encode(size_t shard, size_t local) const
    {
      return (static_cast<Id>(local) << shard_bits_) | shard;
    }

    [[nodiscard]] size_t shard_of(Id id) const
    {
      return static_cast<size_t>(id & shard_mask_);
    }

    [[nodiscard]] size_t local_of(Id id) const
    {
      return static_cast<size_t>(id >> shard_bits_);
    }

    /// Which shard a fingerprint maps to.
    [[nodiscard]] size_t shard_for_fingerprint(uint64_t fp) const
    {
      // The low bits pick the shard; mix the high half in first so that
      // states whose fingerprints differ only above bit 32 still spread.
      // (The index's probe order uses the *high* bits of a multiplied
      // hash, so the two selections stay independent.)
      return static_cast<size_t>((fp ^ (fp >> 32)) & shard_mask_);
    }

    /// Inserts the state unless an equal state is already present.
    /// Full mode: fingerprint-first dedup, full state comparison only on
    /// fp collision. Fingerprint-only mode: the fingerprint alone decides
    /// — a genuine 64-bit collision silently conflates two states (the
    /// TLC trade; see StoreMode). `origin` tags the discovering engine
    /// (first inserter wins the tag).
    InsertResult insert(
      const S& state,
      uint64_t fp,
      Id parent,
      uint32_t action,
      uint32_t depth,
      uint8_t origin = 0)
    {
      const size_t shard_idx = shard_for_fingerprint(fp);
      Shard& shard = shards_[shard_idx];
      std::lock_guard<std::mutex> lock(shard.mu);
      if (options_.fingerprint_dedup())
      {
        const uint32_t hit = shard.index.first(fp);
        if (hit != FlatFpTable::empty_slot)
        {
          return {encode(shard_idx, hit), false, nullptr};
        }
      }
      else
      {
        uint32_t hit = FlatFpTable::empty_slot;
        shard.index.find(fp, [&](uint32_t local) {
          if (shard.bodies[local] == state)
          {
            hit = local;
            return true;
          }
          return false;
        });
        if (hit != FlatFpTable::empty_slot)
        {
          return {encode(shard_idx, hit), false, nullptr};
        }
      }

      const auto local = static_cast<uint32_t>(shard.count);
      hot_slot(shard, local) = {
        parent, action, (std::min(depth, depth_limit) << 8) | origin};
      const S* body = nullptr;
      if (fingerprint_only() && !shard.spare_bodies.empty())
      {
        // Reuse a dropped body's node: copy-assignment keeps the body's
        // buffers when they are large enough, so nothing is allocated.
        BodyNode node = std::move(shard.spare_bodies.back());
        shard.spare_bodies.pop_back();
        unpark(node);
        node.key() = local;
        node.mapped() = state;
        body = &shard.frontier_bodies.insert(std::move(node)).position->second;
      }
      else if (fingerprint_only())
      {
        body = &shard.frontier_bodies.emplace(local, state).first->second;
        shard.body_bytes.fetch_add(
          frontier_body_bytes, std::memory_order_relaxed);
      }
      else
      {
        body = &shard.bodies.emplace_back(state);
        shard.body_bytes.fetch_add(sizeof(S), std::memory_order_relaxed);
      }
      shard.index.insert(fp, local);
      shard.index_bytes.store(
        shard.index.bytes(), std::memory_order_relaxed);
      shard.rehashes.store(
        shard.index.rehash_count(), std::memory_order_relaxed);
      shard.count++;
      shard.origin_counts[origin % max_origins].fetch_add(
        1, std::memory_order_relaxed);
      shard.published.store(shard.count, std::memory_order_release);
      return {encode(shard_idx, local), true, body};
    }

    /// Total states stored. Exact when quiescent; during a run it is a
    /// monotone lower bound (each shard's count is published atomically).
    [[nodiscard]] size_t size() const
    {
      size_t total = 0;
      for (const Shard& shard : shards_)
      {
        total += shard.published.load(std::memory_order_acquire);
      }
      return total;
    }

    /// Unsynchronized record access — see the concurrency contract above.
    [[nodiscard]] RecordView record(Id id) const
    {
      const Shard& shard = shards_[shard_of(id)];
      const auto local = static_cast<uint32_t>(local_of(id));
      const HotRecord& hot =
        shard.blocks[local >> block_shift].data[local & block_mask];
      return {
        hot.parent,
        hot.action,
        hot.packed >> 8,
        static_cast<uint8_t>(hot.packed & 0xFF),
        body_ptr(shard, local)};
    }

    /// The state body, or nullptr once a fingerprint-only store dropped
    /// it. Same contract as record().
    [[nodiscard]] const S* body(Id id) const
    {
      return body_ptr(
        shards_[shard_of(id)], static_cast<uint32_t>(local_of(id)));
    }

    /// Fingerprint-only mode: retires the body of a state that has left
    /// the frontier (it was expanded, or will never be). Idempotent;
    /// no-op in full mode. Takes the shard lock, so it is safe against
    /// concurrent insert()s — but not against a concurrent
    /// record()/body() reader of the same id (see the header contract).
    /// The node is parked for the next insert into this shard while the
    /// spare list has room, and freed here otherwise. Once the shard's
    /// frontier is empty its spares are freed too, so the workers that
    /// drain a run's last level release the spare lists and the store's
    /// destructor frees almost none.
    void drop_body(Id id)
    {
      if (!fingerprint_only())
      {
        return;
      }
      Shard& shard = shards_[shard_of(id)];
      BodyNode node;
      {
        std::lock_guard<std::mutex> lock(shard.mu);
        node =
          shard.frontier_bodies.extract(static_cast<uint32_t>(local_of(id)));
        if (node.empty())
        {
          return;
        }
        if (shard.frontier_bodies.empty())
        {
          // The shard's frontier has drained: its spares go with it.
          for (BodyNode& spare : shard.spare_bodies)
          {
            unpark(spare);
          }
          shard.body_bytes.fetch_sub(
            frontier_body_bytes * shard.spare_bodies.size(),
            std::memory_order_relaxed);
          shard.spare_bodies.clear();
        }
        else if (shard.spare_bodies.size() < max_spare_bodies)
        {
          park(node);
          shard.spare_bodies.push_back(std::move(node));
          return;
        }
        shard.body_bytes.fetch_sub(
          frontier_body_bytes, std::memory_order_relaxed);
      }
      // `node` frees the dropped body here, outside the shard lock.
    }

    /// States first discovered by `origin` (the admission tag). Wait-free
    /// (atomic per-shard counters); exact when quiescent, a lower bound
    /// while writers run — the one quiescence contract size(),
    /// origin_count() and store_bytes() all share (see the header
    /// comment). Origin counts over all origins sum to size().
    [[nodiscard]] uint64_t origin_count(uint8_t origin) const
    {
      uint64_t total = 0;
      for (const Shard& shard : shards_)
      {
        total +=
          shard.origin_counts[origin % max_origins].load(
            std::memory_order_relaxed);
      }
      return total;
    }

    /// Resident bytes: index slots + heap (unspilled) hot-arena blocks +
    /// state bodies. Body bytes are an estimate (sizeof(S) per retained
    /// body plus map overhead for frontier bodies, parked spare nodes
    /// included); states owning heap memory cost more than reported.
    /// Wait-free; exact when quiescent.
    [[nodiscard]] size_t store_bytes() const
    {
      size_t total = 0;
      for (const Shard& shard : shards_)
      {
        total += shard.index_bytes.load(std::memory_order_relaxed);
        total += shard.heap_arena_bytes.load(std::memory_order_relaxed);
        total += shard.body_bytes.load(std::memory_order_relaxed);
      }
      return total;
    }

    /// Hot-arena bytes moved to disk by maybe_spill() (and mmap'd back).
    [[nodiscard]] size_t spilled_bytes() const
    {
      size_t total = 0;
      for (const Shard& shard : shards_)
      {
        total += shard.spilled_bytes.load(std::memory_order_relaxed);
      }
      return total;
    }

    /// Index rehashes across all shards (amortized table doubling).
    [[nodiscard]] uint64_t rehash_count() const
    {
      uint64_t total = 0;
      for (const Shard& shard : shards_)
      {
        total += shard.rehashes.load(std::memory_order_relaxed);
      }
      return total;
    }

    /// Spills frozen hot-arena blocks to spill_dir while a shard's heap
    /// arena exceeds its budget share (memory_budget_bytes / shards; a
    /// zero budget spills every frozen block). Each spilled block is
    /// pwritten to an unlinked per-shard temp file, mmap'd back
    /// PROT_READ, and the heap copy freed — record() reads continue
    /// through the mapping unchanged. Quiescent callers only: engines
    /// call this at level barriers. No-op without a spill_dir.
    void maybe_spill()
    {
      if (!options_.spill_enabled())
      {
        return;
      }
      const size_t shard_budget =
        options_.memory_budget_bytes / shards_.size();
      for (Shard& shard : shards_)
      {
        // Only full ("frozen") blocks spill; the tail block still grows.
        const size_t frozen =
          shard.blocks.empty() ? 0 : shard.blocks.size() - 1;
        while (
          shard.first_unspilled < frozen &&
          shard.heap_arena_bytes.load(std::memory_order_relaxed) >
            shard_budget)
        {
          if (!spill_block(shard, shard.first_unspilled))
          {
            break; // I/O failure: keep the heap copy, stop trying
          }
          shard.first_unspilled++;
        }
      }
    }

    /// Visits every record as fn(id, view), shard by shard in insertion
    /// order; view.body is null for dropped bodies. Quiescent callers
    /// only (same contract as record()): a campaign seeds the next
    /// engine's frontier from the previous engine's discoveries strictly
    /// between runs.
    template <class Fn>
    void for_each(Fn&& fn) const
    {
      for (size_t shard_idx = 0; shard_idx < shards_.size(); ++shard_idx)
      {
        const Shard& shard = shards_[shard_idx];
        for (uint32_t local = 0; local < shard.count; ++local)
        {
          fn(encode(shard_idx, local), record(encode(shard_idx, local)));
        }
      }
    }

    /// Rebuilds the concrete state path from an initial state to
    /// `target` (inclusive, root first).
    ///
    /// Fast path: when every body along the parent chain is still live
    /// (always true in full mode), the chain is read directly —
    /// bit-identical to the pre-mode reconstruction.
    ///
    /// Replay path (fingerprint-only, bodies dropped): the recorded
    /// action chain is re-executed from `inits` through `successors`,
    /// which must emit the same successor set admission saw:
    ///   successors(state, action, depth_of_successor, emit)
    /// Nondeterministic actions fan out into a per-level candidate set
    /// (deduplicated by fingerprint); the final level is disambiguated
    /// against `target_hint` (defaults to the target's own body, which
    /// engines keep live — a violating or trace-final state was never
    /// expanded, so it never left the frontier). Returns nullopt when
    /// the chain cannot be replayed — a root seeded from outside `inits`
    /// (cross-engine campaign chains), or no candidate matching the
    /// target; callers fall back to partial diagnostics.
    ///
    /// Quiescent callers only.
    template <class SuccFn>
    [[nodiscard]] std::optional<std::vector<S>> reconstruct_path(
      Id target,
      const std::vector<S>& inits,
      SuccFn&& successors,
      const S* target_hint = nullptr) const
    {
      // Walk the chain once: action indices root->target, depths, and
      // whether every body is live.
      std::vector<uint32_t> actions;
      bool bodies_complete = true;
      uint32_t root_depth = 0;
      for (Id cur = target;;)
      {
        const RecordView r = record(cur);
        bodies_complete = bodies_complete && r.body != nullptr;
        if (r.parent == no_parent)
        {
          root_depth = r.depth;
          break;
        }
        actions.push_back(r.action);
        cur = r.parent;
      }
      std::reverse(actions.begin(), actions.end());

      if (bodies_complete)
      {
        std::vector<S> path;
        for (Id cur = target;;)
        {
          const RecordView r = record(cur);
          path.push_back(*r.body);
          if (r.parent == no_parent)
          {
            break;
          }
          cur = r.parent;
        }
        std::reverse(path.begin(), path.end());
        return path;
      }

      // Forward replay. levels[k] holds the candidate states consistent
      // with the first k actions of the chain, deduplicated by
      // fingerprint; parent indices let the winning candidate's concrete
      // path be walked back out.
      struct Node
      {
        S state;
        size_t parent;
      };
      std::vector<std::vector<Node>> levels(1);
      {
        std::unordered_set<uint64_t> seen;
        for (const S& init : inits)
        {
          if (seen.insert(fingerprint(init)).second)
          {
            levels[0].push_back({init, SIZE_MAX});
          }
        }
      }
      for (size_t k = 0; k < actions.size(); ++k)
      {
        std::vector<Node> next;
        std::unordered_set<uint64_t> seen;
        const std::vector<Node>& prev = levels.back();
        for (size_t i = 0; i < prev.size(); ++i)
        {
          successors(
            prev[i].state,
            actions[k],
            root_depth + static_cast<uint32_t>(k) + 1,
            Emit<S>([&](const S& succ) {
              if (seen.insert(fingerprint(succ)).second)
              {
                next.push_back({succ, i});
              }
            }));
        }
        if (next.empty())
        {
          return std::nullopt;
        }
        levels.push_back(std::move(next));
      }

      const S* want = target_hint != nullptr ? target_hint : body(target);
      size_t pick = SIZE_MAX;
      const std::vector<Node>& finals = levels.back();
      if (want != nullptr)
      {
        for (size_t i = 0; i < finals.size() && pick == SIZE_MAX; ++i)
        {
          if (finals[i].state == *want)
          {
            pick = i;
          }
        }
      }
      else if (finals.size() == 1)
      {
        // No disambiguator, but the chain replays deterministically.
        pick = 0;
      }
      if (pick == SIZE_MAX)
      {
        return std::nullopt;
      }

      std::vector<S> path;
      size_t idx = pick;
      for (size_t k = levels.size(); k-- > 0;)
      {
        path.push_back(levels[k][idx].state);
        idx = levels[k][idx].parent;
      }
      std::reverse(path.begin(), path.end());
      return path;
    }

  private:
    // 65536 16-byte records = 1 MiB per slab block (a page multiple, so
    // spilled blocks mmap at block-aligned file offsets).
    static constexpr uint32_t block_shift = 16;
    static constexpr uint32_t block_records = uint32_t{1} << block_shift;
    static constexpr uint32_t block_mask = block_records - 1;
    static constexpr size_t block_bytes =
      static_cast<size_t>(block_records) * sizeof(HotRecord);
    /// Estimated resident cost of one frontier body (map node + state).
    static constexpr size_t frontier_body_bytes = sizeof(S) + 48;
    /// Cap on the spare frontier-body nodes a shard keeps for reuse.
    /// Drops and inserts interleave within a level, so a short list
    /// already catches almost every reuse; past it, drops free at once.
    static constexpr size_t max_spare_bodies = 1024;

    using BodyMap = std::unordered_map<uint32_t, S>;
    using BodyNode = typename BodyMap::node_type;

    /// ASan: a parked node's body is off limits until unpark(), so a
    /// frontier pointer read after its drop reports instead of reading a
    /// recycled body. No-ops in other builds.
    static void park([[maybe_unused]] BodyNode& node)
    {
#if defined(__SANITIZE_ADDRESS__)
      ASAN_POISON_MEMORY_REGION(&node.mapped(), sizeof(S));
#endif
    }

    static void unpark([[maybe_unused]] BodyNode& node)
    {
#if defined(__SANITIZE_ADDRESS__)
      ASAN_UNPOISON_MEMORY_REGION(&node.mapped(), sizeof(S));
#endif
    }

    /// One hot-arena slab. `data` points at the heap allocation until the
    /// block is spilled, then at the read-only mapping.
    struct Block
    {
      HotRecord* data = nullptr;
      std::unique_ptr<HotRecord[]> heap;
    };

    struct Shard
    {
      mutable std::mutex mu;
      FlatFpTable index;
      std::vector<Block> blocks;
      uint32_t count = 0;
      // StoreMode::full: bodies[local] for every record (deque: growth
      // never moves existing bodies).
      std::deque<S> bodies;
      // StoreMode::fingerprint_only: bodies for frontier records only.
      // (Node-based map: references stay valid across inserts, so BFS
      // frontiers can hold InsertResult::body pointers across a level.)
      BodyMap frontier_bodies;
      // Nodes of dropped frontier bodies awaiting reuse (at most
      // max_spare_bodies; poisoned under ASan while parked).
      std::vector<BodyNode> spare_bodies;
      // first-discovery counts per admission origin (EngineId byte);
      // atomics so origin_count() is wait-free like size().
      std::array<std::atomic<uint64_t>, max_origins> origin_counts{};
      std::atomic<size_t> published{0};
      // Wait-free byte accounting for store_bytes()/spilled_bytes().
      std::atomic<size_t> index_bytes{0};
      std::atomic<size_t> heap_arena_bytes{0};
      std::atomic<size_t> body_bytes{0};
      std::atomic<size_t> spilled_bytes{0};
      std::atomic<uint64_t> rehashes{0};
      // Spill state: blocks [0, first_unspilled) live in the file.
      size_t first_unspilled = 0;
      int spill_fd = -1;
    };

    /// The hot slot for a fresh local index, allocating a new slab when
    /// the previous one is full. Caller holds the shard lock.
    HotRecord& hot_slot(Shard& shard, uint32_t local)
    {
      if ((local & block_mask) == 0)
      {
        Block block;
        block.heap = std::make_unique<HotRecord[]>(block_records);
        block.data = block.heap.get();
        shard.blocks.push_back(std::move(block));
        shard.heap_arena_bytes.fetch_add(
          block_bytes, std::memory_order_relaxed);
      }
      return shard.blocks[local >> block_shift].data[local & block_mask];
    }

    [[nodiscard]] const S* body_ptr(const Shard& shard, uint32_t local) const
    {
      if (!fingerprint_only())
      {
        return &shard.bodies[local];
      }
      const auto it = shard.frontier_bodies.find(local);
      return it != shard.frontier_bodies.end() ? &it->second : nullptr;
    }

    /// Writes one frozen block to the shard's spill file and remaps it
    /// read-only. Returns false (leaving the heap copy in place) on any
    /// I/O failure.
    bool spill_block(Shard& shard, size_t block_idx)
    {
      if (shard.spill_fd < 0)
      {
        std::string tmpl = options_.spill_dir + "/scv-store-XXXXXX";
        const int fd = ::mkstemp(tmpl.data());
        if (fd < 0)
        {
          return false;
        }
        ::unlink(tmpl.c_str()); // anonymous: the fd is the only handle
        shard.spill_fd = fd;
      }
      Block& block = shard.blocks[block_idx];
      const auto offset =
        static_cast<off_t>(shard.spilled_bytes.load(std::memory_order_relaxed));
      size_t written = 0;
      const char* src = reinterpret_cast<const char*>(block.heap.get());
      while (written < block_bytes)
      {
        const ssize_t n = ::pwrite(
          shard.spill_fd,
          src + written,
          block_bytes - written,
          offset + static_cast<off_t>(written));
        if (n <= 0)
        {
          return false;
        }
        written += static_cast<size_t>(n);
      }
      void* mapped = ::mmap(
        nullptr, block_bytes, PROT_READ, MAP_SHARED, shard.spill_fd, offset);
      if (mapped == MAP_FAILED)
      {
        return false;
      }
      block.data = static_cast<HotRecord*>(mapped);
      block.heap.reset();
      shard.heap_arena_bytes.fetch_sub(
        block_bytes, std::memory_order_relaxed);
      shard.spilled_bytes.fetch_add(block_bytes, std::memory_order_relaxed);
      return true;
    }

    StoreOptions options_;
    std::vector<Shard> shards_;
    uint64_t shard_mask_ = 0;
    unsigned shard_bits_ = 0;
  };
}
