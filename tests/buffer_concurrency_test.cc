// Concurrency tests for the sharded buffer of decoded nodes. Run these under
// TSan (-DMST_SANITIZE=thread) to validate the locking protocol; the
// assertions here check the observable contract: a held node is never
// changed or freed under its holder, a reader sees either the old or the
// new node of a page being written, never a mix, dirty nodes reach the
// file, and the logical-read/miss counters aggregate exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/index/buffer.h"
#include "src/index/node.h"
#include "src/index/pagefile.h"
#include "src/util/random.h"

namespace mst {
namespace {

constexpr int kNumPages = 256;
constexpr int kNumThreads = 8;

// A two-entry leaf on page `self` stamped with `version`: both entries carry
// the trajectory id self * 1000 + version and start at time `version`, so a
// node mixing two versions, or one routed to the wrong page, cannot pass.
IndexNode StampedLeaf(PageId self, int64_t version) {
  IndexNode node;
  node.self = self;
  node.level = 0;
  const double t = static_cast<double>(version);
  for (int i = 0; i < 2; ++i) {
    node.leaves.push_back(LeafEntry::Of(
        self * 1000 + version, {t, {0.0, 0.0}}, {t + 1.0, {1.0, 1.0}}));
  }
  return node;
}

// Version of a node StampedLeaf(id, v) produced, or -1 when the node is not
// one of page `id`'s stamps.
int64_t StampVersion(const IndexNode& node, PageId id) {
  if (node.self != id || node.leaves.size() != 2) return -1;
  const LeafEntry a = node.leaves[0];
  const LeafEntry b = node.leaves[1];
  const int64_t version = a.traj_id - id * 1000;
  if (version < 0 || version >= 1000 || !(a == b) ||
      a.t0 != static_cast<double>(version)) {
    return -1;
  }
  return version;
}

// Pre-populates `f` with kNumPages pages stamped at version 0.
void FillStampedFile(PageFile* f) {
  for (int i = 0; i < kNumPages; ++i) {
    const PageId id = f->Allocate();
    Page page;
    StampedLeaf(id, 0).EncodeTo(&page);
    f->Write(id, page);
  }
}

// Stamp version of page `id` as stored in the file.
int64_t FileVersion(PageFile* f, PageId id) {
  Page page;
  f->Read(id, &page);
  return StampVersion(IndexNode::Decode(page, id), id);
}

TEST(BufferConcurrencyTest, HammerReadsStayConsistentAndCountersAggregate) {
  PageFile f;
  FillStampedFile(&f);
  BufferManager buf(&f, /*capacity_pages=*/32, /*num_shards=*/8);

  constexpr int kReadsPerThread = 4000;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  std::atomic<int64_t> thread_misses{0};
  threads.reserve(kNumThreads);
  for (int t = 0; t < kNumThreads; ++t) {
    threads.emplace_back([&buf, &failures, &thread_misses, t] {
      const int64_t misses_before = BufferManager::ThreadMisses();
      Rng rng(1000 + static_cast<uint64_t>(t));
      for (int i = 0; i < kReadsPerThread; ++i) {
        const PageId id = static_cast<PageId>(rng.UniformIndex(kNumPages));
        if (StampVersion(*buf.Read(id), id) != 0) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
      thread_misses.fetch_add(BufferManager::ThreadMisses() - misses_before);
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);
  // The atomic counters must aggregate exactly: every read was one logical
  // read, no more, no less, regardless of interleaving, and the per-thread
  // miss tallies sum to the global miss count.
  EXPECT_EQ(buf.logical_reads(),
            static_cast<int64_t>(kNumThreads) * kReadsPerThread);
  EXPECT_GE(buf.misses(), static_cast<int64_t>(kNumPages - 32));
  EXPECT_LE(buf.misses(), buf.logical_reads());
  EXPECT_EQ(thread_misses.load(), buf.misses());
  EXPECT_EQ(f.stats().physical_reads, buf.misses());
  EXPECT_EQ(buf.resident_frames(), 32u);
}

TEST(BufferConcurrencyTest, PinnedFrameSurvivesConcurrentThrashing) {
  PageFile f;
  FillStampedFile(&f);
  BufferManager buf(&f, /*capacity_pages=*/16, /*num_shards=*/8);

  // Hold the nodes of a handful of pages for the whole test: a held NodeRef
  // is the pin.
  std::vector<NodeRef> held;
  for (PageId id = 0; id < 4; ++id) held.push_back(buf.Read(id));

  std::vector<std::thread> threads;
  for (int t = 0; t < kNumThreads; ++t) {
    threads.emplace_back([&buf] {
      Rng rng(7);
      for (int i = 0; i < 2000; ++i) {
        // Thrash pages that share shards with the held ones.
        const PageId id =
            static_cast<PageId>(4 + rng.UniformIndex(kNumPages - 4));
        ASSERT_EQ(StampVersion(*buf.Read(id), id), 0);
      }
    });
  }

  // While the thrashers run, the held nodes must stay intact even though
  // their frames are evicted.
  for (int round = 0; round < 50; ++round) {
    for (PageId id = 0; id < 4; ++id) {
      ASSERT_EQ(StampVersion(*held[static_cast<size_t>(id)], id), 0);
    }
    std::this_thread::yield();
  }
  for (std::thread& thread : threads) thread.join();
  for (PageId id = 0; id < 4; ++id) {
    EXPECT_EQ(StampVersion(*held[static_cast<size_t>(id)], id), 0);
  }
  EXPECT_EQ(buf.resident_frames(), 16u);
}

TEST(BufferConcurrencyTest, ConcurrentWritersOnDisjointRangesPersist) {
  PageFile f;
  FillStampedFile(&f);
  BufferManager buf(&f, /*capacity_pages=*/32, /*num_shards=*/8);

  constexpr int kPagesPerThread = kNumPages / kNumThreads;
  std::vector<std::thread> threads;
  for (int t = 0; t < kNumThreads; ++t) {
    threads.emplace_back([&buf, t] {
      const PageId begin = static_cast<PageId>(t * kPagesPerThread);
      for (PageId id = begin; id < begin + kPagesPerThread; ++id) {
        buf.Write(StampedLeaf(id, 1 + id % 7));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  buf.Flush();

  // Every write must be visible through the file (write-back happened on
  // eviction or flush, and no writer clobbered another thread's pages).
  for (PageId id = 0; id < kNumPages; ++id) {
    ASSERT_EQ(FileVersion(&f, id), 1 + id % 7) << "page " << id;
  }
}

TEST(BufferConcurrencyTest, ConcurrentAllocationsYieldDistinctPages) {
  PageFile f;
  BufferManager buf(&f, /*capacity_pages=*/64, /*num_shards=*/8);

  constexpr int kAllocsPerThread = 64;
  std::vector<std::vector<PageId>> per_thread(kNumThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kNumThreads; ++t) {
    threads.emplace_back([&f, &buf, &per_thread, t] {
      for (int i = 0; i < kAllocsPerThread; ++i) {
        const PageId id = f.Allocate();
        buf.Write(StampedLeaf(id, 3));
        per_thread[static_cast<size_t>(t)].push_back(id);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  std::vector<PageId> all;
  for (const std::vector<PageId>& ids : per_thread) {
    all.insert(all.end(), ids.begin(), ids.end());
  }
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), static_cast<size_t>(kNumThreads) * kAllocsPerThread);
  for (size_t i = 0; i < all.size(); ++i) {
    ASSERT_EQ(all[i], static_cast<PageId>(i));  // dense, no duplicates
  }
  buf.Flush();
  for (const PageId id : all) ASSERT_EQ(FileVersion(&f, id), 3);
}

TEST(BufferConcurrencyTest, MixedReadersAndWritersKeepStampsCoherent) {
  // 8 readers and 2 writers over one small buffer, so frames are evicted,
  // written back and re-read all the time. Writer w owns the pages with
  // id % 2 == w and publishes each new version in `committed` after the
  // write, so a reader must see a version between the one committed before
  // its read and the one after it, plus at most the write in flight: the
  // old node or the new one, never a torn or stale one.
  constexpr int kPages = 64;
  constexpr int kReaders = 8;
  constexpr int kReadsPerReader = 20000;
  constexpr int kRounds = 200;
  PageFile f;
  for (int i = 0; i < kPages; ++i) {
    Page page;
    StampedLeaf(f.Allocate(), 0).EncodeTo(&page);
    f.Write(i, page);
  }
  BufferManager buf(&f, /*capacity_pages=*/16, /*num_shards=*/8);
  std::vector<std::atomic<int64_t>> committed(kPages);
  for (std::atomic<int64_t>& v : committed) v.store(0);

  std::atomic<int64_t> bad_reads{0};
  std::atomic<int64_t> thread_misses{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&buf, &committed, w] {
      for (int64_t version = 1; version <= kRounds; ++version) {
        for (PageId id = w; id < kPages; id += 2) {
          buf.Write(StampedLeaf(id, version));
          committed[static_cast<size_t>(id)].store(version);
        }
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&buf, &committed, &bad_reads, &thread_misses, r] {
      const int64_t misses_before = BufferManager::ThreadMisses();
      Rng rng(42 + static_cast<uint64_t>(r));
      for (int i = 0; i < kReadsPerReader; ++i) {
        const PageId id = static_cast<PageId>(rng.UniformIndex(kPages));
        const int64_t low = committed[static_cast<size_t>(id)].load();
        const int64_t version = StampVersion(*buf.Read(id), id);
        const int64_t high = committed[static_cast<size_t>(id)].load();
        if (version < low || version > high + 1) {
          bad_reads.fetch_add(1, std::memory_order_relaxed);
        }
      }
      thread_misses.fetch_add(BufferManager::ThreadMisses() - misses_before);
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(bad_reads.load(), 0);
  // Writes are not reads: the counters hold exactly the readers' traffic.
  EXPECT_EQ(buf.logical_reads(),
            static_cast<int64_t>(kReaders) * kReadsPerReader);
  EXPECT_EQ(thread_misses.load(), buf.misses());
  EXPECT_EQ(buf.resident_frames(), 16u);

  // Every page's last version reaches the file, none is lost on the way
  // through eviction, write-back and re-read.
  buf.Flush();
  for (PageId id = 0; id < kPages; ++id) {
    EXPECT_EQ(FileVersion(&f, id), kRounds) << "page " << id;
  }
}

}  // namespace
}  // namespace mst
