#include "sim/simulator.hpp"

#include <atomic>
#include <bit>
#include <cstdlib>
#include <utility>

namespace mn {

namespace {
// Events fired by simulators that have finished their lives.  One
// relaxed add per ~Simulator keeps the per-event path free of atomics
// while still letting a bench report whole-process throughput.
std::atomic<std::uint64_t> g_retired_events{0};

bool scalar_dispatch_from_env() {
  const char* v = std::getenv("MN_SCALAR_DISPATCH");
  return v != nullptr && v[0] == '1' && v[1] == '\0';
}
}  // namespace

// A destroyed Simulator parks its wheel arrays and slab chunks here so
// the next one built on this thread adopts them instead of paying
// ~85 KB of fresh allocation per construction.  Campaigns and benches
// build thousands of short-lived simulators (one per run/flow), and in
// a heap fragmented by earlier work those large blocks fall to mmap —
// construction then page-faults its arrays back in every single time.
// Recycling makes steady-state construction a 2.5 KB bitmap clear with
// zero allocator traffic.  Thread-local so parallel campaign workers
// never contend; the chunk cache is capped, the four fixed arrays are
// one set per thread.
struct Simulator::ArenaPool {
  std::unique_ptr<std::uint32_t[]> l0_head;
  std::unique_ptr<std::uint32_t[]> l1_head;
  std::unique_ptr<std::uint64_t[]> l0_bits;
  std::unique_ptr<std::uint64_t[]> l1_bits;
  std::vector<std::unique_ptr<std::byte[]>> chunks;

  static constexpr std::size_t kMaxChunks = 64;  // ~1.8 MB retained max

  static ArenaPool& get() {
    static thread_local ArenaPool pool;
    return pool;
  }
};

Simulator::Simulator() : batch_dispatch_(!scalar_dispatch_from_env()) {
  ArenaPool& pool = ArenaPool::get();
  if (pool.l0_head != nullptr) {
    l0_head_ = std::move(pool.l0_head);
    l1_head_ = std::move(pool.l1_head);
    l0_bits_ = std::move(pool.l0_bits);
    l1_bits_ = std::move(pool.l1_bits);
    // Heads are bitmap-guarded and may hold stale garbage; only the
    // occupancy bitmaps must start clear.
    std::fill_n(l0_bits_.get(), kL0Words, std::uint64_t{0});
    std::fill_n(l1_bits_.get(), kL1Words, std::uint64_t{0});
  } else {
    l0_head_ = std::make_unique_for_overwrite<std::uint32_t[]>(kL0Size);
    l1_head_ = std::make_unique_for_overwrite<std::uint32_t[]>(kL1Size);
    l0_bits_ = std::make_unique<std::uint64_t[]>(kL0Words);
    l1_bits_ = std::make_unique<std::uint64_t[]>(kL1Words);
  }
}

Simulator::~Simulator() {
  // Chunks are raw storage; destroy the closures still alive in their
  // cold slots (free, fired, cancelled and sink slots hold none).
  for (std::uint32_t i = 0; i < slot_count_; ++i) {
    if (meta_ref(i).kind == kClosure) cold_fn(i).~SimCallback();
  }
  g_retired_events.fetch_add(fired_, std::memory_order_relaxed);
  ArenaPool& pool = ArenaPool::get();
  if (pool.l0_head == nullptr) {
    pool.l0_head = std::move(l0_head_);
    pool.l1_head = std::move(l1_head_);
    pool.l0_bits = std::move(l0_bits_);
    pool.l1_bits = std::move(l1_bits_);
  }
  while (!chunks_.empty() && pool.chunks.size() < ArenaPool::kMaxChunks) {
    pool.chunks.push_back(std::move(chunks_.back()));
    chunks_.pop_back();
  }
}

void Simulator::grow_slab() {
  ArenaPool& pool = ArenaPool::get();
  if (!pool.chunks.empty()) {
    chunks_.push_back(std::move(pool.chunks.back()));
    pool.chunks.pop_back();
    return;
  }
  chunks_.push_back(std::make_unique_for_overwrite<std::byte[]>(
      kChunkSize * (sizeof(Meta) + sizeof(ColdSlot))));
}

std::uint64_t Simulator::process_events_fired() {
  return g_retired_events.load(std::memory_order_relaxed);
}

void Simulator::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id);
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slot_count_) return;
  Meta& m = meta_ref(slot);
  if (m.generation != generation || m.kind == kDead) return;
  // Drop the payload and invalidate the id now; the slot itself is
  // recycled only when its queue entry surfaces (a bucket list or heap
  // entry still points at it).
  if (m.kind == kClosure) cold_fn(slot).~SimCallback();
  m.kind = kDead;
  if (++m.generation == 0) m.generation = 1;
  --live_;
  ++stale_;
  if (obs_ != nullptr) obs_->sim_cancelled(now_);
}

/// Consume the maximal run of live same-sink items at the front of the
/// current tick's batch and deliver their payloads as one span.  Runs
/// may skip over cancelled entries (scalar dispatch would skip them in
/// the same positions, so grouping across them preserves order).  All
/// consumed slots are fired, counted and freed *before* the sink runs:
/// mid-batch pending_events()/audit queries see them as gone, and a
/// reschedule from inside the callback may legitimately reuse them.
void Simulator::fire_sink_group(SinkId sink) {
  group_.clear();
  do {
    const BatchItem item = batch_[batch_pos_];
    Meta& m = meta_ref(item.slot);
    if (m.kind == kDead) {
      ++batch_pos_;
      reap(item.slot);
      continue;
    }
    if (m.kind != kSink || m.sink != sink) break;
    ++batch_pos_;
    if (++m.generation == 0) m.generation = 1;
    m.kind = kDead;
    --live_;
    ++fired_;
    if (obs_ != nullptr) [[unlikely]] note_fired(m.seq);
    group_.push_back(*static_cast<const std::uint64_t*>(cold_ptr(item.slot)));
    free_.push_back(item.slot);
    if (!batch_dispatch_) break;  // scalar fallback: width-1 groups
  } while (batch_pos_ < batch_.size());
  sinks_[sink](SinkSpan{group_.data(), group_.size()});
}

namespace {
/// Smallest delta k in [0, words*64) with bit (from+k) mod size set, or
/// SIZE_MAX when the bitmap is empty.
std::size_t scan_words(const std::uint64_t* bits, std::size_t words, std::size_t from) {
  const std::size_t mask = words * 64 - 1;
  from &= mask;
  const std::size_t w0 = from >> 6;
  const std::uint64_t first = bits[w0] >> (from & 63);
  if (first != 0) return static_cast<std::size_t>(std::countr_zero(first));
  for (std::size_t i = 1; i <= words; ++i) {
    const std::size_t w = (w0 + i) & (words - 1);
    if (bits[w] != 0) {
      const std::size_t bit = static_cast<std::size_t>(std::countr_zero(bits[w]));
      return ((w << 6) + bit - from) & mask;
    }
  }
  return static_cast<std::size_t>(-1);
}
}  // namespace

/// scan_words over `bits`, with the summary standing in for the walk
/// past the cursor's word: the next nonzero word after it (the cursor's
/// own word last, for buckets below the cursor) is the first set
/// summary bit from the following word on.
std::size_t Simulator::scan(const std::uint64_t* bits, const std::uint64_t* summary,
                            std::size_t words, std::size_t from) {
  const std::size_t mask = words * 64 - 1;
  from &= mask;
  const std::size_t w0 = from >> 6;
  const std::uint64_t first = bits[w0] >> (from & 63);
  if (first != 0) return static_cast<std::size_t>(std::countr_zero(first));
  const std::size_t dw = scan_words(summary, words / 64, w0 + 1);
  if (dw == static_cast<std::size_t>(-1)) return dw;
  const std::size_t w = (w0 + 1 + dw) & (words - 1);
  const std::size_t bit = static_cast<std::size_t>(std::countr_zero(bits[w]));
  return ((w << 6) + bit - from) & mask;
}

/// Re-file every live event of L1 bucket `b` into L0.  Caller has
/// already advanced the cursor to (at least) the bucket's start, so
/// every entry is within the L0 horizon.
void Simulator::cascade(std::size_t b) {
  std::uint32_t slot = l1_head_[b];
  l1_head_[b] = kNil;
  clear_bucket(l1_bits_.get(), l1_summary_, b);
  l1_cache_valid_ = false;  // the cached earliest bucket was consumed
  while (slot != kNil) {
    Meta& m = meta_ref(slot);
    const std::uint32_t next = m.next;
    --l1_count_;
    if (m.kind == kDead) {
      reap(slot);
    } else {
      assert(m.at.usec() - cursor_ >= 0 && m.at.usec() - cursor_ < kL0Horizon);
      push_l0(static_cast<std::size_t>(m.at.usec()) & kL0Mask, slot);
    }
    slot = next;
  }
}

/// Advance the cursor to the next tick holding live events (cascading
/// L1 buckets and migrating due overflow entries on the way) and load
/// that tick's events, sorted by seq, into batch_.  Returns false — and
/// leaves the cursor at most at `limit_usec` — when no event fires at
/// or before the limit.
bool Simulator::refill_batch(std::int64_t limit_usec) {
  batch_.clear();
  batch_pos_ = 0;
  for (;;) {
    // Candidate next-event lower bounds per structure (occupancy
    // counts let an empty level skip its bitmap scan entirely).
    std::int64_t t0 = -1;
    if (l0_count_ != 0) {
      const std::size_t d0 = scan(l0_bits_.get(), l0_summary_, kL0Words,
                                  static_cast<std::size_t>(cursor_) & kL0Mask);
      if (d0 != static_cast<std::size_t>(-1)) t0 = cursor_ + static_cast<std::int64_t>(d0);
    }

    // The earliest occupied L1 bucket changes only when an earlier
    // bucket is filed (push_l1 invalidates) or the bucket cascades, so
    // its scan result is cached across refills — the steady state pays
    // one L1 bitmap walk per cascade instead of one per tick.
    std::int64_t t1 = -1;
    if (l1_count_ != 0) {
      if (!l1_cache_valid_) {
        const std::int64_t base1 = cursor_ >> kL1Shift;
        const std::size_t d1 = scan(l1_bits_.get(), l1_summary_, kL1Words,
                                    static_cast<std::size_t>(base1) & kL1Mask);
        assert(d1 != static_cast<std::size_t>(-1));
        l1_cache_bucket_ = static_cast<std::size_t>(base1 + static_cast<std::int64_t>(d1)) & kL1Mask;
        l1_cache_start_ = (base1 + static_cast<std::int64_t>(d1)) << kL1Shift;
        l1_cache_valid_ = true;
      }
      t1 = l1_cache_start_ > cursor_ ? l1_cache_start_ : cursor_;
    }

    // Reap cancelled overflow tops so the candidate is a live event.
    while (!overflow_.empty() && meta_ref(overflow_.front().slot).kind == kDead) {
      reap(overflow_.front().slot);
      std::pop_heap(overflow_.begin(), overflow_.end(), OverflowLater{});
      overflow_.pop_back();
    }
    const std::int64_t tov = overflow_.empty() ? -1 : overflow_.front().at.usec();

    // An L1 bucket that starts at or before the earliest other
    // candidate may hide earlier ticks — cascade it first.
    if (t1 >= 0 && (t0 < 0 || t1 <= t0) && (tov < 0 || t1 <= tov)) {
      if (t1 > limit_usec) return false;
      cursor_ = t1;
      cascade(l1_cache_bucket_);
      continue;
    }
    if (tov >= 0 && (t0 < 0 || tov <= t0)) {
      if (tov > limit_usec) return false;
      cursor_ = tov;
      while (!overflow_.empty() && overflow_.front().at.usec() == tov) {
        const std::uint32_t slot = overflow_.front().slot;
        std::pop_heap(overflow_.begin(), overflow_.end(), OverflowLater{});
        overflow_.pop_back();
        if (meta_ref(slot).kind == kDead) {
          reap(slot);
        } else {
          push_l0(static_cast<std::size_t>(tov) & kL0Mask, slot);
        }
      }
      continue;  // the migrated events surface as L0 candidates
    }
    if (t0 < 0) return false;  // idle
    if (t0 > limit_usec) return false;

    cursor_ = t0;
    const std::size_t b0 = static_cast<std::size_t>(t0) & kL0Mask;
    std::uint32_t slot = l0_head_[b0];
    l0_head_[b0] = kNil;
    clear_bucket(l0_bits_.get(), l0_summary_, b0);
    while (slot != kNil) {
      Meta& m = meta_ref(slot);
      const std::uint32_t next = m.next;
      --l0_count_;
      if (m.kind == kDead) {
        reap(slot);
      } else {
        batch_.push_back(BatchItem{m.seq, slot});
      }
      slot = next;
    }
    if (batch_.empty()) continue;  // every entry was cancelled
    if (batch_.size() > 1) {
      std::sort(batch_.begin(), batch_.end(),
                [](const BatchItem& a, const BatchItem& b) { return a.seq < b.seq; });
    }
    batch_tick_ = t0;
    return true;
  }
}

bool Simulator::bookkeeping_consistent() const {
  std::size_t queued = overflow_.size() + (batch_.size() - batch_pos_);
  const auto count_level = [this](const std::uint32_t* heads, const std::uint64_t* bits,
                                  std::size_t words) {
    std::size_t n = 0;
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t word = bits[w];
      while (word != 0) {
        const auto bit = static_cast<std::size_t>(std::countr_zero(word));
        word &= word - 1;
        for (std::uint32_t s = heads[(w << 6) + bit]; s != kNil; s = meta_ref(s).next)
          ++n;
      }
    }
    return n;
  };
  // Summary bit w is set exactly while bitmap word w is nonzero.
  const auto summary_exact = [](const std::uint64_t* bits, const std::uint64_t* summary,
                                std::size_t words) {
    for (std::size_t w = 0; w < words; ++w) {
      if (((summary[w >> 6] >> (w & 63)) & 1) != (bits[w] != 0 ? 1u : 0u)) return false;
    }
    return true;
  };
  const std::size_t in_l0 = count_level(l0_head_.get(), l0_bits_.get(), kL0Words);
  const std::size_t in_l1 = count_level(l1_head_.get(), l1_bits_.get(), kL1Words);
  queued += in_l0 + in_l1;
  return in_l0 == l0_count_ && in_l1 == l1_count_ && queued == live_ + stale_ &&
         slot_count_ == live_ + stale_ + free_.size() + in_flight_ &&
         summary_exact(l0_bits_.get(), l0_summary_, kL0Words) &&
         summary_exact(l1_bits_.get(), l1_summary_, kL1Words);
}

void Timer::restart(Duration delay) {
  armed_ = true;
  deadline_ = sim_.now() + delay;
  // Deadline moved later (or unchanged): the pending event fires early
  // and re-arms for the remainder — no cancel, no reschedule.
  if (physical_ && physical_at_ <= deadline_) return;
  if (physical_) sim_.cancel(pending_);
  physical_at_ = deadline_;
  physical_ = true;
  pending_ = sim_.schedule_item_at(deadline_, sink_, 0);
}

void Timer::stop() {
  if (physical_) {
    sim_.cancel(pending_);
    physical_ = false;
  }
  armed_ = false;
}

void Timer::on_physical_fire() {
  physical_ = false;
  if (!armed_) return;  // defensive: stop() cancels, so normally unreachable
  if (deadline_ > sim_.now()) {
    // Restarts since scheduling pushed the deadline out; chase it.
    physical_at_ = deadline_;
    physical_ = true;
    pending_ = sim_.schedule_item_at(deadline_, sink_, 0);
    return;
  }
  armed_ = false;
  on_fire_();
}

}  // namespace mn
