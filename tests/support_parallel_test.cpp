// Tests for the deterministic parallel execution layer: ordering, exception
// propagation, serial/parallel equivalence, nested-call safety, and the
// end-to-end determinism contract (gridSearch and GBRT training produce
// bit-identical results at 1 thread and at many threads).
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <sstream>
#include <string>

#include "ml/gbrt.hpp"
#include "ml/linear.hpp"
#include "ml/validation.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace hcp {
namespace {

using support::ScopedThreadLimit;
using support::parallelFor;
using support::parallelMap;
using support::parallelMapIndex;

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ScopedThreadLimit limit(8);
  std::vector<std::atomic<int>> hits(1000);
  parallelFor(0, hits.size(), 7, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyAndSingleRangesWork) {
  ScopedThreadLimit limit(8);
  int calls = 0;
  parallelFor(5, 5, 1, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallelFor(5, 6, 1, [&](std::size_t i) {
    ++calls;
    EXPECT_EQ(i, 5u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelMap, PreservesOrderingRegardlessOfExecutionOrder) {
  ScopedThreadLimit limit(8);
  const auto out =
      parallelMapIndex(500, [](std::size_t i) { return i * i; });
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);

  const std::vector<int> items{3, 1, 4, 1, 5, 9, 2, 6};
  const auto doubled = parallelMap(items, [](int v) { return 2 * v; });
  ASSERT_EQ(doubled.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i)
    EXPECT_EQ(doubled[i], 2 * items[i]);
}

TEST(ParallelFor, SerialAndParallelResultsAreIdentical) {
  // Same floating-point accumulation per index: outputs must match bitwise.
  const auto body = [](std::size_t i) {
    double acc = 0.0;
    for (std::size_t k = 0; k < 50; ++k)
      acc += static_cast<double>(i * 31 + k) * 1e-3;
    return acc;
  };
  std::vector<double> serial, parallel;
  {
    ScopedThreadLimit limit(1);
    serial = parallelMapIndex(300, body);
  }
  {
    ScopedThreadLimit limit(8);
    parallel = parallelMapIndex(300, body);
  }
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_EQ(serial[i], parallel[i]);  // exact, not near
}

TEST(ParallelFor, PropagatesLowestIndexException) {
  ScopedThreadLimit limit(8);
  try {
    parallelFor(0, 200, 1, [](std::size_t i) {
      if (i >= 37) throw Error("failed at " + std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const Error& e) {
    // Every task from 37 on throws; the serial run would surface 37 first,
    // and the parallel run must surface the same one.
    EXPECT_NE(std::string(e.what()).find("failed at 37"), std::string::npos)
        << e.what();
  }
}

TEST(ParallelFor, PoolSurvivesAnExceptionAndKeepsWorking) {
  ScopedThreadLimit limit(8);
  EXPECT_THROW(
      parallelFor(0, 64, 1,
                  [](std::size_t i) {
                    if (i == 3) throw Error("boom");
                  }),
      Error);
  const auto out = parallelMapIndex(64, [](std::size_t i) { return i + 1; });
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i + 1);
}

TEST(ParallelFor, NestedCallsRunInlineWithoutDeadlock) {
  ScopedThreadLimit limit(8);
  const auto out = parallelMapIndex(16, [](std::size_t i) {
    // Inner parallel call from a worker task: must run inline and still
    // produce ordered results.
    const auto inner =
        parallelMapIndex(32, [i](std::size_t j) { return i * 100 + j; });
    std::size_t sum = 0;
    for (std::size_t v : inner) sum += v;
    return sum;
  });
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::size_t expect = 0;
    for (std::size_t j = 0; j < 32; ++j) expect += i * 100 + j;
    EXPECT_EQ(out[i], expect);
  }
}

TEST(ScopedLimit, RestoresPreviousLimit) {
  const std::size_t before = support::threadLimit();
  {
    ScopedThreadLimit limit(3);
    EXPECT_EQ(support::threadLimit(), 3u);
    {
      ScopedThreadLimit inner(1);
      EXPECT_EQ(support::threadLimit(), 1u);
    }
    EXPECT_EQ(support::threadLimit(), 3u);
  }
  EXPECT_EQ(support::threadLimit(), before);
}

// --- determinism contract on the ML stack ----------------------------------

ml::Dataset syntheticData(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  ml::Dataset data(6);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> x(6);
    for (double& v : x) v = rng.uniformReal(-2, 2);
    const double y = 3 * x[0] - x[1] + 0.5 * x[2] * x[3] + rng.normal(0, 0.2);
    data.add(std::move(x), y);
  }
  return data;
}

TEST(Determinism, SubsetViewMatchesDeepSubset) {
  const auto data = syntheticData(120, 17);
  std::vector<std::size_t> idx{5, 3, 77, 0, 119, 42, 42, 8};
  const auto deep = data.subset(idx);
  const ml::DatasetSource view(data, idx);
  ASSERT_EQ(view.size(), deep.size());
  EXPECT_EQ(view.numFeatures(), deep.numFeatures());
  std::size_t visited = 0;
  view.forEach([&](std::size_t i, const std::vector<double>& row, double y) {
    EXPECT_EQ(i, visited++);
    EXPECT_EQ(row, deep.row(i));
    EXPECT_EQ(y, deep.target(i));
  });
  EXPECT_EQ(visited, deep.size());
  // Models must train identically on either representation.
  ml::LassoRegression a, b;
  a.fit(deep);
  b.fitStreaming(view);
  const auto pa = a.predictAll(data);
  const auto pb = b.predictAll(data);
  for (std::size_t i = 0; i < pa.size(); ++i) EXPECT_EQ(pa[i], pb[i]);
}

TEST(Determinism, GbrtFitIsBitIdenticalAcrossThreadCounts) {
  const auto data = syntheticData(400, 23);
  const auto fitAndSerialize = [&] {
    ml::GbrtConfig cfg;
    cfg.numEstimators = 40;
    ml::Gbrt model(cfg);
    model.fit(data);
    std::ostringstream os;
    model.write(os);
    return os.str();
  };
  std::string serial, parallel;
  {
    ScopedThreadLimit limit(1);
    serial = fitAndSerialize();
  }
  {
    ScopedThreadLimit limit(8);
    parallel = fitAndSerialize();
  }
  EXPECT_EQ(serial, parallel);  // full model dump, byte for byte
}

TEST(Determinism, GridSearchIsBitIdenticalAcrossThreadCounts) {
  const auto data = syntheticData(250, 31);
  std::vector<ml::GbrtConfig> grid;
  ml::GbrtConfig a;
  a.numEstimators = 15;
  grid.push_back(a);
  ml::GbrtConfig b;
  b.numEstimators = 15;
  b.maxDepth = 3;
  grid.push_back(b);

  const auto search = [&] {
    return ml::gridSearch<ml::GbrtConfig>(
        grid,
        [](const ml::GbrtConfig& c) { return std::make_unique<ml::Gbrt>(c); },
        data, 4, 42);
  };
  ml::GridSearchResult<ml::GbrtConfig> serial, parallel;
  {
    ScopedThreadLimit limit(1);
    serial = search();
  }
  {
    ScopedThreadLimit limit(8);
    parallel = search();
  }
  EXPECT_EQ(serial.bestConfig.numEstimators, parallel.bestConfig.numEstimators);
  EXPECT_EQ(serial.bestConfig.maxDepth, parallel.bestConfig.maxDepth);
  EXPECT_EQ(serial.bestCv.meanMae, parallel.bestCv.meanMae);
  EXPECT_EQ(serial.bestCv.meanMedae, parallel.bestCv.meanMedae);
  ASSERT_EQ(serial.all.size(), parallel.all.size());
  for (std::size_t c = 0; c < serial.all.size(); ++c) {
    ASSERT_EQ(serial.all[c].second.foldMae.size(),
              parallel.all[c].second.foldMae.size());
    for (std::size_t f = 0; f < serial.all[c].second.foldMae.size(); ++f) {
      EXPECT_EQ(serial.all[c].second.foldMae[f],
                parallel.all[c].second.foldMae[f]);
      EXPECT_EQ(serial.all[c].second.foldMedae[f],
                parallel.all[c].second.foldMedae[f]);
    }
  }
}

TEST(Determinism, CrossValidateMatchesAcrossThreadCounts) {
  const auto data = syntheticData(200, 41);
  // Cross-validation of one model is a grid search over a one-config grid.
  const auto crossValidate = [&] {
    return ml::gridSearch<int>(
               {0},
               [](const int&) {
                 return std::make_unique<ml::LassoRegression>();
               },
               data, 5, 7)
        .bestCv;
  };
  ml::CvResult serial, parallel;
  {
    ScopedThreadLimit limit(1);
    serial = crossValidate();
  }
  {
    ScopedThreadLimit limit(8);
    parallel = crossValidate();
  }
  ASSERT_EQ(serial.foldMae.size(), parallel.foldMae.size());
  for (std::size_t f = 0; f < serial.foldMae.size(); ++f)
    EXPECT_EQ(serial.foldMae[f], parallel.foldMae[f]);
  EXPECT_EQ(serial.meanMae, parallel.meanMae);
}

// HCP_THREADS used to be strtol'd with no endptr check: "4abc" silently ran
// with 4 threads and "garbage" silently fell back to hardware concurrency.
// The strict parser rejects both with exit 2; unset/empty still means "use
// the default" (CI exports HCP_THREADS="" in its thread matrix).

TEST(ThreadLimitEnvDeathTest, GarbageExitsWithUsageError) {
  EXPECT_EXIT(
      {
        setenv("HCP_THREADS", "garbage", 1);
        support::detail::threadLimitFromEnv();
        _exit(0);  // unreachable: the parse must exit 2 first
      },
      ::testing::ExitedWithCode(2), "HCP_THREADS");
}

TEST(ThreadLimitEnvDeathTest, TrailingJunkExitsWithUsageError) {
  EXPECT_EXIT(
      {
        setenv("HCP_THREADS", "4abc", 1);
        support::detail::threadLimitFromEnv();
        _exit(0);
      },
      ::testing::ExitedWithCode(2), "HCP_THREADS");
}

TEST(ThreadLimitEnvDeathTest, ZeroExitsWithUsageError) {
  EXPECT_EXIT(
      {
        setenv("HCP_THREADS", "0", 1);
        support::detail::threadLimitFromEnv();
        _exit(0);
      },
      ::testing::ExitedWithCode(2), "HCP_THREADS");
}

TEST(ThreadLimitEnvDeathTest, EmptyAndUnsetMeanDefault) {
  // Run in the forked child too: setenv must not leak into other tests.
  EXPECT_EXIT(
      {
        setenv("HCP_THREADS", "", 1);
        const std::size_t fromEmpty = support::detail::threadLimitFromEnv();
        unsetenv("HCP_THREADS");
        const std::size_t fromUnset = support::detail::threadLimitFromEnv();
        setenv("HCP_THREADS", "3", 1);
        const std::size_t fromValue = support::detail::threadLimitFromEnv();
        _exit(fromEmpty >= 1 && fromUnset >= 1 && fromValue == 3 ? 0 : 7);
      },
      ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace hcp
