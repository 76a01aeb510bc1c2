// Ablation A5: google-benchmark micro-benchmarks of the metric kernels —
// the per-interval integrals, the LDD/gap bounds, MINDIST, whole-trajectory
// DISSIM, and the similarity baselines' DP inner loops.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/bounds.h"
#include "src/core/dissim.h"
#include "src/core/dissim_batch.h"
#include "src/geom/mindist.h"
#include "src/index/tbtree.h"
#include "src/sim/dtw.h"
#include "src/sim/edr.h"
#include "src/sim/lcss.h"
#include "src/util/random.h"

namespace mst {

/// Offset added to every input-generation seed below; set by --seed=N in the
/// custom main so alternative (still reproducible) kernel inputs are one
/// flag away, as in the macro benches. 0 keeps the canonical inputs.
uint64_t g_seed_offset = 0;

namespace {

DistanceTrinomial SomeTrinomial(uint64_t seed) {
  Rng rng(seed);
  return DistanceTrinomial::Between(
      {rng.Uniform(-5, 5), rng.Uniform(-5, 5)},
      {rng.Uniform(-5, 5), rng.Uniform(-5, 5)},
      {rng.Uniform(-5, 5), rng.Uniform(-5, 5)},
      {rng.Uniform(-5, 5), rng.Uniform(-5, 5)}, 0.7);
}

void BM_ExactSegmentIntegral(benchmark::State& state) {
  const DistanceTrinomial tri = SomeTrinomial(g_seed_offset + 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExactSegmentIntegral(tri));
  }
}
BENCHMARK(BM_ExactSegmentIntegral);

void BM_TrapezoidSegmentIntegral(benchmark::State& state) {
  const DistanceTrinomial tri = SomeTrinomial(g_seed_offset + 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(TrapezoidSegmentIntegral(tri));
  }
}
BENCHMARK(BM_TrapezoidSegmentIntegral);

// Batch SoA integrator vs the scalar per-interval loop over the same
// trinomials, at DISSIM-typical batch sizes (arg = intervals per call).
void BM_IntegrateScalarLoop(benchmark::State& state) {
  Rng rng(g_seed_offset + 7);
  TrinomialBatch batch;
  for (int64_t i = 0; i < state.range(0); ++i) {
    batch.Add(DistanceTrinomial::Between(
        {rng.Uniform(-5, 5), rng.Uniform(-5, 5)},
        {rng.Uniform(-5, 5), rng.Uniform(-5, 5)},
        {rng.Uniform(-5, 5), rng.Uniform(-5, 5)},
        {rng.Uniform(-5, 5), rng.Uniform(-5, 5)}, 0.7));
  }
  for (auto _ : state) {
    DissimResult total;
    for (size_t i = 0; i < batch.size(); ++i) {
      total.Accumulate(
          IntegrateSegment(batch.At(i), IntegrationPolicy::kTrapezoid));
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IntegrateScalarLoop)->Arg(64)->Arg(512)->Arg(4096);

void BM_IntegrateBatch(benchmark::State& state) {
  Rng rng(g_seed_offset + 7);
  TrinomialBatch batch;
  for (int64_t i = 0; i < state.range(0); ++i) {
    batch.Add(DistanceTrinomial::Between(
        {rng.Uniform(-5, 5), rng.Uniform(-5, 5)},
        {rng.Uniform(-5, 5), rng.Uniform(-5, 5)},
        {rng.Uniform(-5, 5), rng.Uniform(-5, 5)},
        {rng.Uniform(-5, 5), rng.Uniform(-5, 5)}, 0.7));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        IntegrateBatch(batch, IntegrationPolicy::kTrapezoid));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IntegrateBatch)->Arg(64)->Arg(512)->Arg(4096);

// ReadNode served from the buffer (steady-state hits) vs from an 8-page
// buffer that a cyclic scan misses (page read and decode on every read) —
// the per-node cost the buffer removes.
class ReadNodeFixture : public benchmark::Fixture {
 public:
  void SetUp(const benchmark::State&) override {
    if (hit_ == nullptr) {
      GstdOptions opt;
      opt.num_objects = 20;
      opt.samples_per_object = 500;
      opt.seed = g_seed_offset + 12;
      const TrajectoryStore store = GenerateGstd(opt);
      hit_ = std::make_unique<TBTree>();
      hit_->BuildFrom(store);
      TrajectoryIndex::Options tiny;
      tiny.cache_pages = 8;
      miss_ = std::make_unique<TBTree>(tiny);
      miss_->BuildFrom(store);
      pages_.clear();
      std::vector<PageId> stack = {hit_->root()};
      while (!stack.empty()) {
        const PageId page = stack.back();
        stack.pop_back();
        pages_.push_back(page);
        const NodeRef node = hit_->ReadNode(page);
        if (!node->IsLeaf()) {
          for (const InternalEntry& e : node->internals) {
            stack.push_back(e.child);
          }
        }
      }
    }
  }

 protected:
  static std::unique_ptr<TBTree> hit_;
  static std::unique_ptr<TBTree> miss_;
  static std::vector<PageId> pages_;
};
std::unique_ptr<TBTree> ReadNodeFixture::hit_;
std::unique_ptr<TBTree> ReadNodeFixture::miss_;
std::vector<PageId> ReadNodeFixture::pages_;

BENCHMARK_DEFINE_F(ReadNodeFixture, ReadNodeHit)
(benchmark::State& state) {
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hit_->ReadNode(pages_[i]));
    i = (i + 1) % pages_.size();
  }
}
BENCHMARK_REGISTER_F(ReadNodeFixture, ReadNodeHit);

BENCHMARK_DEFINE_F(ReadNodeFixture, ReadNodeMiss)
(benchmark::State& state) {
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(miss_->ReadNode(pages_[i]));
    i = (i + 1) % pages_.size();
  }
}
BENCHMARK_REGISTER_F(ReadNodeFixture, ReadNodeMiss);

void BM_Ldd(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(LDD(3.0, -1.5, 0.7));
  }
}
BENCHMARK(BM_Ldd);

void BM_InteriorGapBounds(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(OptimisticInteriorGap(2.0, 1.5, 3.0, 0.4));
    benchmark::DoNotOptimize(PessimisticInteriorGap(2.0, 1.5, 3.0, 0.4));
  }
}
BENCHMARK(BM_InteriorGapBounds);

void BM_MovingPointRectMinDistance(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(MovingPointRectMinDistance(
        {-2.0, 1.0}, {4.0, 3.0}, 1.0, 0.0, 0.0, 2.0, 2.0));
  }
}
BENCHMARK(BM_MovingPointRectMinDistance);

class TrajectoryFixture : public benchmark::Fixture {
 public:
  void SetUp(const benchmark::State&) override {
    if (store_.empty()) {
      GstdOptions opt;
      opt.num_objects = 4;
      opt.samples_per_object = 2000;
      opt.timestamp_jitter = 0.4;
      opt.seed = g_seed_offset + 99;
      store_ = GenerateGstd(opt);
    }
  }
  TrajectoryStore store_;
};

BENCHMARK_DEFINE_F(TrajectoryFixture, FullDissimExact)
(benchmark::State& state) {
  const Trajectory& q = store_.trajectories()[0];
  const Trajectory& t = store_.trajectories()[1];
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ComputeDissim(q, t, {0.1, 0.9}, IntegrationPolicy::kExact));
  }
}
BENCHMARK_REGISTER_F(TrajectoryFixture, FullDissimExact);

BENCHMARK_DEFINE_F(TrajectoryFixture, FullDissimTrapezoid)
(benchmark::State& state) {
  const Trajectory& q = store_.trajectories()[0];
  const Trajectory& t = store_.trajectories()[1];
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ComputeDissim(q, t, {0.1, 0.9}, IntegrationPolicy::kTrapezoid));
  }
}
BENCHMARK_REGISTER_F(TrajectoryFixture, FullDissimTrapezoid);

BENCHMARK_DEFINE_F(TrajectoryFixture, MinDistQueryBox)
(benchmark::State& state) {
  const Trajectory& q = store_.trajectories()[0];
  Mbb3 box;
  box.xlo = 0.4;
  box.xhi = 0.6;
  box.ylo = 0.4;
  box.yhi = 0.6;
  box.tlo = 0.3;
  box.thi = 0.7;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MinDist(q, box, {0.0, 1.0}));
  }
}
BENCHMARK_REGISTER_F(TrajectoryFixture, MinDistQueryBox);

// Similarity-baseline DP kernels on ~400-point trajectories (the Trucks
// regime of the Figure 9 experiment).
class BaselineFixture : public benchmark::Fixture {
 public:
  void SetUp(const benchmark::State&) override {
    if (store_.empty()) {
      TrucksOptions opt;
      opt.num_trucks = 2;
      opt.mean_samples_per_truck = 400;
      opt.seed += g_seed_offset;
      store_ = GenerateTrucks(opt);
    }
  }
  TrajectoryStore store_;
};

BENCHMARK_DEFINE_F(BaselineFixture, Lcss400x400)(benchmark::State& state) {
  const Trajectory& a = store_.trajectories()[0];
  const Trajectory& b = store_.trajectories()[1];
  LcssOptions opt;
  opt.epsilon = 500.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(LcssLength(a, b, opt));
  }
}
BENCHMARK_REGISTER_F(BaselineFixture, Lcss400x400);

BENCHMARK_DEFINE_F(BaselineFixture, Edr400x400)(benchmark::State& state) {
  const Trajectory& a = store_.trajectories()[0];
  const Trajectory& b = store_.trajectories()[1];
  EdrOptions opt;
  opt.epsilon = 500.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(EdrDistance(a, b, opt));
  }
}
BENCHMARK_REGISTER_F(BaselineFixture, Edr400x400);

BENCHMARK_DEFINE_F(BaselineFixture, Dtw400x400)(benchmark::State& state) {
  const Trajectory& a = store_.trajectories()[0];
  const Trajectory& b = store_.trajectories()[1];
  for (auto _ : state) {
    benchmark::DoNotOptimize(DtwDistance(a, b));
  }
}
BENCHMARK_REGISTER_F(BaselineFixture, Dtw400x400);

}  // namespace
}  // namespace mst

// BENCHMARK_MAIN(), plus a --seed=N flag (stripped before the benchmark
// library sees the arguments) that offsets every input-generation seed.
int main(int argc, char** argv) {
  std::vector<char*> args;
  args.reserve(static_cast<size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0) {
      mst::g_seed_offset = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else {
      args.push_back(argv[i]);
    }
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
