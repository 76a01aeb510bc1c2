#include "src/core/result_cache.h"

#include <algorithm>
#include <bit>
#include <list>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "src/util/check.h"

namespace mst {
namespace {

// Per-thread tallies backing ThreadHits/ThreadMisses. A query runs on one
// thread, so before/after deltas are exactly its own hits and misses even
// when other threads use the same cache concurrently.
thread_local int64_t tls_hits = 0;
thread_local int64_t tls_misses = 0;

// splitmix64 finalizer — full-avalanche 64-bit mixing.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

struct KeyHash {
  size_t operator()(const ResultCacheKey& k) const {
    uint64_t h = k.fingerprint.lo;
    h = Mix(h ^ k.fingerprint.hi);
    h = Mix(h ^ static_cast<uint64_t>(k.traj_id));
    h = Mix(h ^ std::bit_cast<uint64_t>(k.period.begin));
    h = Mix(h ^ std::bit_cast<uint64_t>(k.period.end));
    h = Mix(h ^ static_cast<uint64_t>(k.policy));
    return static_cast<size_t>(h);
  }
};

}  // namespace

namespace internal {

struct ResultCacheEntry {
  ResultCacheKey key;
  DissimResult value;
  uint64_t version = 0;
};

struct ResultCacheShard {
  mutable std::mutex mu;
  // front = most recently used.
  std::list<ResultCacheEntry> lru;
  std::unordered_map<ResultCacheKey, std::list<ResultCacheEntry>::iterator,
                     KeyHash>
      index;
  size_t budget = 1;  // entries this shard may keep resident
};

}  // namespace internal

using internal::ResultCacheShard;

QueryFingerprint FingerprintQuery(const Trajectory& query) {
  // Two independent streams over the raw sample bits: stream A is FNV-1a,
  // stream B folds each word through the splitmix64 finalizer with a
  // different seed. Sample count is mixed in so a prefix cannot alias the
  // whole.
  uint64_t a = 1469598103934665603ull;  // FNV offset basis
  uint64_t b = Mix(0x517cc1b727220a95ull ^ query.size());
  const auto feed = [&a, &b](uint64_t word) {
    a = (a ^ word) * 1099511628211ull;  // FNV prime
    b = Mix(b ^ word);
  };
  for (const TPoint& s : query.samples()) {
    feed(std::bit_cast<uint64_t>(s.t));
    feed(std::bit_cast<uint64_t>(s.p.x));
    feed(std::bit_cast<uint64_t>(s.p.y));
  }
  return {Mix(a), b};
}

int64_t ResultCache::ThreadHits() { return tls_hits; }
int64_t ResultCache::ThreadMisses() { return tls_misses; }

ResultCache::ResultCache(size_t capacity_entries, size_t num_shards)
    : capacity_(capacity_entries) {
  if (num_shards == 0) {
    num_shards =
        std::min(kDefaultShards, std::max<size_t>(capacity_entries, 1));
  }
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<ResultCacheShard>());
  }
  AssignShardBudgets();
}

ResultCache::~ResultCache() = default;

ResultCacheShard& ResultCache::ShardFor(const ResultCacheKey& key) const {
  return *shards_[KeyHash()(key) % shards_.size()];
}

void ResultCache::AssignShardBudgets() {
  const size_t n = shards_.size();
  for (size_t i = 0; i < n; ++i) {
    shards_[i]->budget =
        std::max<size_t>(1, capacity_ / n + (i < capacity_ % n));
  }
}

void ResultCache::EvictLocked(ResultCacheShard& shard) {
  while (shard.lru.size() > shard.budget) {
    shard.index.erase(shard.lru.back().key);
    shard.lru.pop_back();
  }
}

bool ResultCache::Lookup(const ResultCacheKey& key, uint64_t write_version,
                         DissimResult* out) const {
  MST_DCHECK(out != nullptr);
  if (!enabled()) return false;
  ResultCacheShard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    ++tls_misses;
    return false;
  }
  if (it->second->version != write_version) {
    // The index ingested segments for this trajectory since the entry was
    // computed — drop it so it can never be served again.
    shard.lru.erase(it->second);
    shard.index.erase(it);
    stale_drops_.fetch_add(1, std::memory_order_relaxed);
    misses_.fetch_add(1, std::memory_order_relaxed);
    ++tls_misses;
    return false;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  ++tls_hits;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  *out = shard.lru.front().value;
  return true;
}

void ResultCache::Insert(const ResultCacheKey& key, const DissimResult& value,
                         uint64_t write_version) {
  if (!enabled()) return;
  ResultCacheShard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    // Replace in place: even if this insert lost a race and carries an older
    // version than the resident entry, the version check at lookup keeps a
    // stale value from ever being served.
    it->second->value = value;
    it->second->version = write_version;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.push_front({key, value, write_version});
  shard.index[key] = shard.lru.begin();
  EvictLocked(shard);
}

void ResultCache::Clear() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->lru.clear();
    shard->index.clear();
  }
}

void ResultCache::SetCapacity(size_t capacity_entries) {
  capacity_ = capacity_entries;
  AssignShardBudgets();
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    if (capacity_ == 0) {
      shard->lru.clear();
      shard->index.clear();
    } else {
      EvictLocked(*shard);
    }
  }
}

size_t ResultCache::resident_entries() const {
  size_t resident = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    resident += shard->lru.size();
  }
  return resident;
}

}  // namespace mst
