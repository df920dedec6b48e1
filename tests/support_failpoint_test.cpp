// The fault-injection framework test battery (tentpole of the fail-safe I/O
// PR):
//
//   1. Spec parsing and matching: always/count/probability entries, comma
//      lists, dot-prefix matching, first-match-wins, malformed specs throw.
//   2. Arming semantics: zero-cost disarmed default, exact fire counts,
//      deterministic probabilistic sequences, thread-safe countdown.
//   3. CheckedFileWriter: verified atomic writes — success leaves exactly
//      the destination file, every failure mode (injected open/write/rename
//      fault, abandoned writer, real unwritable path) raises hcp::IoError
//      naming the path and leaves neither a partial file nor a temp file,
//      and a failed overwrite preserves the previous file intact.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "support/error.hpp"
#include "support/failpoint.hpp"
#include "support/telemetry.hpp"
#include "support/textio.hpp"
#include "test_util.hpp"

namespace hcp::support {
namespace {

namespace fp = failpoint;
namespace fs = std::filesystem;

/// Every test runs with a clean slate and leaves one behind.
class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { fp::clear(); }
  void TearDown() override { fp::clear(); }
};

// --- 1. spec parsing and matching -------------------------------------------

TEST_F(FailpointTest, DisarmedByDefaultAndAfterClear) {
  EXPECT_FALSE(fp::armed());
  EXPECT_FALSE(fp::shouldFail("anything.at.all"));
  fp::configure("site");
  EXPECT_TRUE(fp::armed());
  fp::clear();
  EXPECT_FALSE(fp::armed());
  EXPECT_FALSE(fp::shouldFail("site"));
  EXPECT_TRUE(fp::sites().empty());
}

TEST_F(FailpointTest, BareSiteFiresEveryHit) {
  fp::configure("model.write");
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(fp::shouldFail("model.write"));
  EXPECT_EQ(fp::firedCount("model.write"), 5u);
  EXPECT_FALSE(fp::shouldFail("model.open"));
  EXPECT_FALSE(fp::shouldFail("trace.write"));
}

TEST_F(FailpointTest, CountedEntryFiresExactlyNTimes) {
  fp::configure("flowcache.store:3");
  int fired = 0;
  for (int i = 0; i < 10; ++i)
    if (fp::shouldFail("flowcache.store")) ++fired;
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(fp::firedCount("flowcache.store"), 3u);
}

TEST_F(FailpointTest, CountZeroNeverFires) {
  fp::configure("site:0");
  EXPECT_TRUE(fp::armed());
  EXPECT_FALSE(fp::shouldFail("site"));
  EXPECT_EQ(fp::firedCount("site"), 0u);
}

TEST_F(FailpointTest, DotPrefixMatchingArmsWholeSubtree) {
  fp::configure("flowcache.store");
  EXPECT_TRUE(fp::shouldFail("flowcache.store"));
  EXPECT_TRUE(fp::shouldFail("flowcache.store.open"));
  EXPECT_TRUE(fp::shouldFail("flowcache.store.rename"));
  // A prefix must end at a dot boundary, and matching is not upward.
  EXPECT_FALSE(fp::shouldFail("flowcache.storefront"));
  EXPECT_FALSE(fp::shouldFail("flowcache"));
}

TEST_F(FailpointTest, CountedPrefixSharesOneBudgetAcrossTheSubtree) {
  // The acceptance scenario's shape: flowcache.store:1 fails exactly one
  // boundary inside the store, whichever is hit first.
  fp::configure("flowcache.store:1");
  EXPECT_TRUE(fp::shouldFail("flowcache.store.open"));
  EXPECT_FALSE(fp::shouldFail("flowcache.store.write"));
  EXPECT_FALSE(fp::shouldFail("flowcache.store.rename"));
}

TEST_F(FailpointTest, CommaListAndFirstMatchWins) {
  fp::configure("a.b:1,a,c:0");
  EXPECT_EQ(fp::sites(), (std::vector<std::string>{"a.b", "a", "c"}));
  EXPECT_TRUE(fp::shouldFail("a.b.x"));   // a.b's budget
  EXPECT_FALSE(fp::shouldFail("a.b.x"));  // a.b exhausted; it still matches
                                          // first, so the bare `a` never sees
                                          // queries under a.b
  EXPECT_TRUE(fp::shouldFail("a.other"));  // the bare `a` entry
  EXPECT_FALSE(fp::shouldFail("c"));
}

TEST_F(FailpointTest, MalformedSpecsThrow) {
  for (const char* bad :
       {":", ":1", "site:", "site:abc", "site:1.5", "site:-0.5", "site:1x",
        "si te:1", "a:b:c"}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(fp::configure(bad), hcp::Error);
  }
  // A throwing configure leaves nothing half-armed from the bad spec.
  fp::clear();
  EXPECT_THROW(fp::configure("ok:1,broken:"), hcp::Error);
}

TEST_F(FailpointTest, MalformedNumericArgumentsThrow) {
  // The raw strtoull/strtod parse accepted all of these: hex floats, inf
  // and nan spellings, signs, whitespace, and trailing exponent junk.
  for (const char* bad :
       {"site:0x.8p1", "site:0x8", "site:inf", "site:nan", "site:0.5 ",
        "site: 0.5", "site:+0.5", "site:+1", "site:-1", "site:1.0e",
        "site:1.0e+", "site:0.5.5", "site:1e999"}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(fp::configure(bad), hcp::Error);
  }
}

TEST_F(FailpointTest, ExponentProbabilitiesParse) {
  // '.'-less but exponent-bearing args are probabilities, not counts.
  fp::configure("always:1e0,never:0E2");
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(fp::shouldFail("always"));
    EXPECT_FALSE(fp::shouldFail("never"));
  }
}

TEST_F(FailpointTest, EmptyEntriesInListAreIgnored) {
  fp::configure(",a:1,,b,");
  EXPECT_EQ(fp::sites(), (std::vector<std::string>{"a", "b"}));
}

// --- 2. arming semantics -----------------------------------------------------

TEST_F(FailpointTest, ProbabilityEndpointsAreExact) {
  fp::configure("always:1.0,never:0.0");
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(fp::shouldFail("always"));
    EXPECT_FALSE(fp::shouldFail("never"));
  }
}

TEST_F(FailpointTest, ProbabilisticSequenceIsDeterministic) {
  auto run = [] {
    fp::configure("flaky:0.25");
    std::vector<bool> outcomes;
    for (int i = 0; i < 400; ++i) outcomes.push_back(fp::shouldFail("flaky"));
    return outcomes;
  };
  const std::vector<bool> first = run();
  const std::vector<bool> second = run();
  EXPECT_EQ(first, second) << "same spec must fire on the same hit sequence";
  const auto fired =
      static_cast<int>(std::count(first.begin(), first.end(), true));
  EXPECT_GT(fired, 40);   // ~100 expected; bounds are loose but
  EXPECT_LT(fired, 200);  // deterministic, so this can never flake
}

TEST_F(FailpointTest, CountedBudgetIsExactUnderContention) {
  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 200;
  constexpr int kBudget = 137;
  fp::configure("contended:" + std::to_string(kBudget));
  std::atomic<int> fired{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kQueriesPerThread; ++i)
        if (fp::shouldFail("contended")) fired.fetch_add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(fired.load(), kBudget);
  EXPECT_EQ(fp::firedCount("contended"), static_cast<std::uint64_t>(kBudget));
}

TEST_F(FailpointTest, FiresAreCountedInTelemetry) {
  telemetry::setEnabled(true);
  telemetry::reset();
  fp::configure("counted:2");
  (void)fp::shouldFail("counted");
  (void)fp::shouldFail("counted");
  (void)fp::shouldFail("counted");  // budget exhausted: hit, not a fire
  EXPECT_EQ(telemetry::snapshot().counter(
                telemetry::Counter::FailpointsFired),
            2u);
  telemetry::reset();
  telemetry::setEnabled(false);
}

TEST_F(FailpointTest, ScopedFailpointsRestoresThePreviousSpec) {
  fp::configure("outer:1");
  {
    fp::ScopedFailpoints inner("inner");
    EXPECT_EQ(fp::sites(), std::vector<std::string>{"inner"});
  }
  EXPECT_EQ(fp::sites(), std::vector<std::string>{"outer"});
  // Restoring re-parses the spec, so outer's budget is fresh again.
  EXPECT_TRUE(fp::shouldFail("outer"));
}

// --- 3. CheckedFileWriter ----------------------------------------------------

/// Fresh scratch directory, one per test: ctest runs each test as its own
/// process, concurrently under -j, so a shared directory would let one
/// test's SetUp wipe or fill another's. Also the no-leftovers assertion all
/// the failure tests share.
class CheckedWriterTest : public FailpointTest {
 protected:
  void SetUp() override {
    FailpointTest::SetUp();
    dir_ = std::string(::testing::TempDir()) +
           test::uniqueStem("checked_writer", "dir") + "/";
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    fs::remove_all(dir_);
    FailpointTest::TearDown();
  }

  std::string path(const char* name) const { return dir_ + name; }

  std::vector<std::string> filesInDir() const {
    std::vector<std::string> names;
    for (const auto& entry : fs::directory_iterator(dir_))
      names.push_back(entry.path().filename().string());
    std::sort(names.begin(), names.end());
    return names;
  }

  std::string dir_;
};

TEST_F(CheckedWriterTest, CommitWritesExactlyTheDestinationFile) {
  {
    txt::CheckedFileWriter writer(path("out.txt"), "test");
    writer.stream() << "hello " << 42 << "\n";
    writer.commit();
  }
  EXPECT_EQ(filesInDir(), std::vector<std::string>{"out.txt"});
  EXPECT_EQ(hcp::test::slurpFile(path("out.txt")), "hello 42\n");
}

TEST_F(CheckedWriterTest, AbandonedWriterLeavesNothing) {
  {
    txt::CheckedFileWriter writer(path("out.txt"), "test");
    writer.stream() << "half a document";
    // No commit: e.g. an exception unwound past the writer.
  }
  EXPECT_TRUE(filesInDir().empty());
}

TEST_F(CheckedWriterTest, InjectedOpenFailureThrowsAndLeavesNothing) {
  fp::configure("test.open");
  try {
    txt::CheckedFileWriter writer(path("out.txt"), "test");
    FAIL() << "open failpoint must fire";
  } catch (const hcp::IoError& e) {
    EXPECT_NE(std::string(e.what()).find(path("out.txt")), std::string::npos)
        << e.what();
    EXPECT_EQ(e.path(), path("out.txt"));
  }
  EXPECT_TRUE(filesInDir().empty());
}

TEST_F(CheckedWriterTest, InjectedWriteFailureThrowsAndLeavesNothing) {
  fp::configure("test.write");
  txt::CheckedFileWriter writer(path("out.txt"), "test");
  writer.stream() << "doomed bytes";
  try {
    writer.commit();
    FAIL() << "write failpoint must fire";
  } catch (const hcp::IoError& e) {
    EXPECT_NE(std::string(e.what()).find(path("out.txt")), std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(filesInDir().empty());
}

TEST_F(CheckedWriterTest, InjectedRenameFailureThrowsAndLeavesNothing) {
  fp::configure("test.rename");
  txt::CheckedFileWriter writer(path("out.txt"), "test");
  writer.stream() << "doomed bytes";
  EXPECT_THROW(writer.commit(), hcp::IoError);
  EXPECT_TRUE(filesInDir().empty());
}

TEST_F(CheckedWriterTest, FailedOverwriteKeepsTheOldFileIntact) {
  {
    txt::CheckedFileWriter writer(path("out.txt"), "test");
    writer.stream() << "version 1";
    writer.commit();
  }
  fp::configure("test.write:1");
  {
    txt::CheckedFileWriter writer(path("out.txt"), "test");
    writer.stream() << "version 2, never lands";
    EXPECT_THROW(writer.commit(), hcp::IoError);
  }
  EXPECT_EQ(filesInDir(), std::vector<std::string>{"out.txt"});
  EXPECT_EQ(hcp::test::slurpFile(path("out.txt")), "version 1");
  // And with the budget exhausted, the next overwrite succeeds.
  {
    txt::CheckedFileWriter writer(path("out.txt"), "test");
    writer.stream() << "version 3";
    writer.commit();
  }
  EXPECT_EQ(hcp::test::slurpFile(path("out.txt")), "version 3");
}

TEST_F(CheckedWriterTest, RealOpenFailureReportsPathAndErrno) {
  const std::string missing = dir_ + "no/such/subdir/out.txt";
  try {
    txt::CheckedFileWriter writer(missing, "test");
    FAIL() << "open into a missing directory must fail";
  } catch (const hcp::IoError& e) {
    EXPECT_NE(std::string(e.what()).find(missing), std::string::npos)
        << e.what();
    EXPECT_EQ(e.path(), missing);
  }
}

TEST_F(CheckedWriterTest, SiteIsolationOnlyTheNamedWriterFails) {
  fp::configure("csv.write");
  {
    txt::CheckedFileWriter writer(path("ok.txt"), "model");
    writer.stream() << "unaffected";
    EXPECT_NO_THROW(writer.commit());
  }
  EXPECT_EQ(hcp::test::slurpFile(path("ok.txt")), "unaffected");
}

}  // namespace
}  // namespace hcp::support
