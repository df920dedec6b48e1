// The hcp_serve test battery (tentpole of the serving-daemon PR):
//
//   1. Protocol: strict request validation — bad JSON, wrong types, unknown
//      ops/fields, the design-XOR-key rule for flow — every violation comes
//      back as a client-safe error with the id still echoed, never a throw.
//   2. Robustness: oversized lines, queue-full admission, truncated final
//      lines and failpoint-injected per-request faults each produce one
//      {"ok":false,...} response while the daemon keeps serving.
//   3. Determinism: a mixed flow+predict window produces byte-identical
//      response streams at 1 thread and at 4, and duplicate requests in one
//      window share a single computation (and body) via work-key dedupe.
//   4. Degraded-cache visibility: a cache I/O failure latches
//      flowcache::degraded(), bumps the flowcache_degraded gauge once, and
//      shows up in the status op.
//   5. SIGPIPE: the default disposition kills the process mid-write;
//      support::ignoreSigpipe() turns it into a visible EPIPE.
//   6. Observability (the tracing/metrics PR): the metrics op, the tick
//      clock's byte-identical-across-thread-counts contract, per-request
//      span trees in the trace ring, failpoint-degraded metrics snapshots,
//      and hcp_top's scrape path against a live socket daemon.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/registry.hpp"
#include "core/dataset_builder.hpp"
#include "core/flow.hpp"
#include "core/predictor.hpp"
#include "serve/fdio.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/top.hpp"
#include "support/error.hpp"
#include "support/failpoint.hpp"
#include "support/flowcache.hpp"
#include "support/json.hpp"
#include "support/parallel.hpp"
#include "support/signals.hpp"
#include "support/telemetry.hpp"
#include "support/tracing.hpp"
#include "test_util.hpp"

namespace hcp::serve {
namespace {

namespace fc = support::flowcache;
namespace fs = std::filesystem;
namespace telemetry = support::telemetry;

using hcp::test::TempDir;

/// Feeds `input` through a fresh serve loop and returns the response bytes.
std::string serveAll(Server& server, const std::string& input) {
  std::istringstream is(input);
  std::ostringstream os;
  EXPECT_TRUE(server.serve(is, os));
  return os.str();
}

std::vector<std::string> lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) out.push_back(line);
  return out;
}

// --- 1. protocol validation --------------------------------------------------

TEST(ServeProtocol, ValidRequestsParse) {
  const auto p = parseRequest(
      R"({"id":"r1","op":"predict","design":"spam_filter","top_k":5})");
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_EQ(p.request.op, Op::Predict);
  EXPECT_EQ(p.request.id, "r1");
  EXPECT_EQ(p.request.design, "spam_filter");
  EXPECT_EQ(p.request.topK, 5u);
  EXPECT_TRUE(p.request.directives);

  const auto f = parseRequest(
      R"({"op":"flow","design":"bnn","seed":9,"directives":false})");
  ASSERT_TRUE(f.ok) << f.error;
  EXPECT_EQ(f.request.op, Op::Flow);
  EXPECT_EQ(f.request.seed, 9u);
  EXPECT_FALSE(f.request.directives);

  const auto k = parseRequest(R"({"op":"flow","key":"0123456789abcdef"})");
  ASSERT_TRUE(k.ok) << k.error;
  EXPECT_EQ(k.request.cacheKey, "0123456789abcdef");

  EXPECT_TRUE(parseRequest(R"({"op":"status"})").ok);
  EXPECT_TRUE(parseRequest(R"({"op":"shutdown"})").ok);

  const auto m = parseRequest(R"({"id":"m1","op":"metrics"})");
  ASSERT_TRUE(m.ok) << m.error;
  EXPECT_EQ(m.request.op, Op::Metrics);
  EXPECT_EQ(m.request.id, "m1");
}

TEST(ServeProtocol, ViolationsAreErrorsNotThrows) {
  const char* bad[] = {
      "not json at all",
      "{\"op\":\"predict\",}",                       // trailing comma
      "[1,2,3]",                                     // not an object
      "{}",                                          // missing op
      R"({"op":"frobnicate"})",                      // unknown op
      R"({"op":42})",                                // op wrong type
      R"({"op":"predict"})",                         // predict needs design
      R"({"op":"predict","design":7})",              // design wrong type
      R"({"op":"predict","design":"bnn","extra":1})",  // unknown field
      R"({"op":"predict","design":"bnn","top_k":0})",  // zero top_k
      R"({"op":"predict","design":"bnn","top_k":2.5})",  // fractional
      R"({"op":"predict","design":"bnn","seed":1})",  // seed is flow-only
      R"({"op":"flow"})",                            // neither design nor key
      R"({"op":"flow","design":"bnn","key":"0123456789abcdef"})",  // both
      R"({"op":"flow","key":"SHOUTY"})",             // malformed key
      R"({"op":"flow","key":"0123456789abcde"})",    // 15 chars
      R"({"op":"flow","design":"bnn","seed":-1})",   // negative seed
      R"({"op":"status","design":"bnn"})",           // field on status
      R"({"op":"metrics","design":"bnn"})",          // field on metrics
      R"({"op":"metrics","top_k":3})",               // field on metrics
  };
  for (const char* line : bad) {
    const auto p = parseRequest(line);
    EXPECT_FALSE(p.ok) << "accepted: " << line;
    EXPECT_FALSE(p.error.empty());
  }
}

TEST(ServeProtocol, IdSurvivesRejection) {
  const auto p = parseRequest(R"({"id":"r7","op":"frobnicate"})");
  EXPECT_FALSE(p.ok);
  EXPECT_EQ(p.request.id, "r7");
  // The server's error response echoes it.
  Server server({});
  const auto out =
      lines(serveAll(server, R"({"id":"r7","op":"frobnicate"})" "\n"));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].substr(0, 12), "{\"id\":\"r7\",\"");
  EXPECT_NE(out[0].find("\"ok\":false"), std::string::npos);
}

TEST(ServeProtocol, WorkKeyIgnoresIdAndSeparatesEverythingElse) {
  auto req = [](const char* text) {
    const auto p = parseRequest(text);
    EXPECT_TRUE(p.ok) << p.error;
    return p.request;
  };
  const auto a = req(R"({"id":"x","op":"flow","design":"bnn","seed":7})");
  const auto b = req(R"({"id":"y","op":"flow","design":"bnn","seed":7})");
  EXPECT_EQ(workKey(a), workKey(b));
  EXPECT_NE(workKey(a),
            workKey(req(R"({"op":"flow","design":"bnn","seed":8})")));
  EXPECT_NE(workKey(a), workKey(req(R"({"op":"predict","design":"bnn"})")));
  EXPECT_NE(workKey(req(R"({"op":"predict","design":"bnn"})")),
            workKey(req(
                R"({"op":"predict","design":"bnn","directives":false})")));
}

TEST(ServeProtocol, ResponsePrefixEscapesId) {
  Request r;
  r.id = "a\"b\\c\n";
  EXPECT_EQ(responsePrefix(r), "{\"id\":\"a\\\"b\\\\c\\n\",");
  r.id.clear();
  EXPECT_EQ(responsePrefix(r), "{");
}

// --- 2. robustness ----------------------------------------------------------

TEST(ServeServer, MalformedLinesGetErrorResponsesAndServingContinues) {
  Server server({});
  const auto out = lines(serveAll(server,
                                  "garbage\n"
                                  "{\"id\":\"ok1\",\"op\":\"status\"}\n"
                                  "{\"op\":\"nope\"}\n"
                                  "\n"
                                  "{\"id\":\"ok2\",\"op\":\"status\"}\n"));
  ASSERT_EQ(out.size(), 4u);
  EXPECT_NE(out[0].find("\"ok\":false"), std::string::npos);
  EXPECT_NE(out[1].find("\"id\":\"ok1\""), std::string::npos);
  EXPECT_NE(out[1].find("\"ok\":true"), std::string::npos);
  EXPECT_NE(out[2].find("\"ok\":false"), std::string::npos);
  EXPECT_NE(out[3].find("\"id\":\"ok2\""), std::string::npos);
  EXPECT_EQ(server.stats().served, 4u);
  EXPECT_EQ(server.stats().errors, 2u);
}

TEST(ServeServer, TruncatedFinalLineStillGetsAnswered) {
  Server server({});
  // No trailing newline and no flush marker: EOF must flush what's pending.
  const auto out = lines(serveAll(server, R"({"id":"t","op":"status"})"));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NE(out[0].find("\"id\":\"t\""), std::string::npos);
}

TEST(ServeServer, OversizedLineIsRejectedPerRequest) {
  ServerConfig config;
  config.maxLineBytes = 64;
  Server server(config);
  const std::string big(1000, 'x');
  const auto out = lines(serveAll(
      server, "{\"id\":\"big\",\"op\":\"status\",\"pad\":\"" + big +
                  "\"}\n{\"id\":\"after\",\"op\":\"status\"}\n"));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_NE(out[0].find("exceeds 64 bytes"), std::string::npos);
  EXPECT_NE(out[1].find("\"id\":\"after\""), std::string::npos);
  EXPECT_EQ(server.stats().rejected, 1u);
}

TEST(ServeServer, QueueFullRejectsBeyondDepthButAnswersEveryLine) {
  ServerConfig config;
  config.queueDepth = 2;
  Server server(config);
  // Three work requests in one window; depth 2 -> the third is rejected.
  // (Unknown designs are fine: admission queues them, execution errors.)
  const auto out = lines(serveAll(server,
                                  "{\"id\":\"w1\",\"op\":\"flow\","
                                  "\"design\":\"no_such_a\"}\n"
                                  "{\"id\":\"w2\",\"op\":\"flow\","
                                  "\"design\":\"no_such_b\"}\n"
                                  "{\"id\":\"w3\",\"op\":\"flow\","
                                  "\"design\":\"no_such_c\"}\n"
                                  "\n"
                                  "{\"id\":\"w4\",\"op\":\"flow\","
                                  "\"design\":\"no_such_d\"}\n"));
  ASSERT_EQ(out.size(), 4u);
  EXPECT_NE(out[2].find("queue full (depth 2)"), std::string::npos);
  // The flush drained the queue: w4 is admitted again (and fails on the
  // unknown design, not on queue depth).
  EXPECT_NE(out[3].find("unknown design"), std::string::npos);
  EXPECT_EQ(server.stats().rejected, 1u);
  EXPECT_EQ(server.stats().admitted, 3u);
}

TEST(ServeServer, UnknownDesignListsValidNames) {
  Server server({});
  const auto out = lines(
      serveAll(server, R"({"id":"u","op":"flow","design":"nope"})" "\n"));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NE(out[0].find("unknown design 'nope'"), std::string::npos);
  EXPECT_NE(out[0].find("face_detection"), std::string::npos);
}

TEST(ServeServer, PredictWithoutModelErrorsPerRequest) {
  Server server({});
  EXPECT_FALSE(server.hasModel());
  const auto out = lines(serveAll(
      server, R"({"id":"p","op":"predict","design":"spam_filter"})" "\n"));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NE(out[0].find("no model loaded"), std::string::npos);
}

TEST(ServeServer, FlowByKeyWithoutCacheOrEntryErrorsPerRequest) {
  {
    fc::ScopedCacheDir off("");
    Server server({});
    const auto out = lines(serveAll(
        server, R"({"op":"flow","key":"0123456789abcdef"})" "\n"));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_NE(out[0].find("needs a flow cache"), std::string::npos);
  }
  TempDir cacheDir("serve_keymiss_cache/");
  fc::ScopedCacheDir cache(cacheDir.dir());
  Server server({});
  const auto out = lines(
      serveAll(server, R"({"op":"flow","key":"0123456789abcdef"})" "\n"));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NE(out[0].find("not in the flow cache"), std::string::npos);
}

TEST(ServeServer, InjectedFaultFailsOneRequestNotTheDaemon) {
  support::failpoint::ScopedFailpoints fp("serve.request:1");
  Server server({});
  const auto out = lines(serveAll(server,
                                  "{\"id\":\"a\",\"op\":\"flow\","
                                  "\"design\":\"no_such\"}\n"
                                  "\n"
                                  "{\"id\":\"b\",\"op\":\"flow\","
                                  "\"design\":\"no_such\"}\n"));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_NE(out[0].find("injected serve.request failure"), std::string::npos);
  // Second hit passes the failpoint and fails on the real validation path.
  EXPECT_NE(out[1].find("unknown design"), std::string::npos);
  EXPECT_EQ(server.stats().served, 2u);
}

TEST(ServeServer, ShutdownAnswersThenStopsReading) {
  Server server({});
  std::istringstream is(
      "{\"id\":\"s\",\"op\":\"shutdown\"}\n"
      "{\"id\":\"never\",\"op\":\"status\"}\n");
  std::ostringstream os;
  EXPECT_TRUE(server.serve(is, os));
  EXPECT_TRUE(server.shutdownRequested());
  const auto out = lines(os.str());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NE(out[0].find("\"op\":\"shutdown\""), std::string::npos);
}

// --- 3. determinism ---------------------------------------------------------

/// Shared expensive fixture: one trained linear model and one primed flow
/// cache, built once for the whole suite.
class ServeDeterminism : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Each discovered ctest entry runs this suite in its own process, and
    // `ctest -L serve -j N` runs them concurrently — the fixture paths must
    // be per-process or one teardown deletes another process's model/cache.
    const std::string tag = std::to_string(::getpid());
    cacheDir_ = new TempDir("serve_determinism_cache_" + tag + "/");
    modelPath_ = std::string(::testing::TempDir()) + "serve_test_model_" +
                 tag + ".hcp";
    const auto device = fpga::Device::xc7z020like();
    core::FlowConfig cfg;
    cfg.seed = 42;
    std::vector<apps::AppDesign> designs;
    designs.push_back(apps::makeDesign("spam_filter"));
    const auto flows = core::runFlows(designs, device, cfg);
    const auto dataset = core::buildDataset(flows, {});
    core::PredictorOptions opts;
    opts.kind = core::ModelKind::Linear;
    core::CongestionPredictor predictor(opts);
    predictor.train(dataset);
    predictor.save(modelPath_);
  }
  static void TearDownTestSuite() {
    fs::remove(modelPath_);
    delete cacheDir_;
    cacheDir_ = nullptr;
  }

  static TempDir* cacheDir_;
  static std::string modelPath_;
};

TempDir* ServeDeterminism::cacheDir_ = nullptr;
std::string ServeDeterminism::modelPath_;

TEST_F(ServeDeterminism, MixedWindowIsByteIdenticalAcrossThreadCounts) {
  fc::ScopedCacheDir cache(cacheDir_->dir());
  // Flow + duplicate flow + predicts in one window. The duplicate shares
  // the first request's computation (and body) via work-key dedupe, so the
  // serial and parallel schedules cannot diverge on cache timing.
  const std::string window =
      "{\"id\":\"f1\",\"op\":\"flow\",\"design\":\"spam_filter\","
      "\"seed\":7}\n"
      "{\"id\":\"f2\",\"op\":\"flow\",\"design\":\"spam_filter\","
      "\"seed\":7}\n"
      "{\"id\":\"p1\",\"op\":\"predict\",\"design\":\"spam_filter\","
      "\"top_k\":4}\n"
      "{\"id\":\"p2\",\"op\":\"predict\",\"design\":\"digit_recognition\","
      "\"top_k\":4}\n";

  ServerConfig config;
  config.modelPath = modelPath_;

  std::string reference;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    support::ScopedThreadLimit limit(threads);
    // A fresh cold cache per run: the first flow computes, the duplicate
    // replays — at every thread count.
    TempDir runCache("serve_run_cache/");
    fc::ScopedCacheDir runScope(runCache.dir());
    Server server(config);
    const std::string out = serveAll(server, window);
    if (reference.empty()) reference = out;
    EXPECT_EQ(out, reference) << "at " << threads << " threads";
    EXPECT_EQ(server.stats().errors, 0u) << out;
  }
  EXPECT_NE(reference.find("\"id\":\"f1\",\"ok\":true"), std::string::npos);

  // The duplicate's body is byte-identical to the original's (only the id
  // differs), and dedupe means both came from one computation.
  const auto out = lines(reference);
  ASSERT_GE(out.size(), 2u);
  EXPECT_EQ(out[0].substr(std::string("{\"id\":\"f1\",").size()),
            out[1].substr(std::string("{\"id\":\"f2\",").size()));
}

TEST_F(ServeDeterminism, WarmReplayMatchesColdBytesExceptCachedFlag) {
  fc::ScopedCacheDir cache(cacheDir_->dir());
  ServerConfig config;
  Server server(config);
  const std::string window =
      "{\"id\":\"w\",\"op\":\"flow\",\"design\":\"spam_filter\","
      "\"seed\":11}\n";
  std::string cold = serveAll(server, window);
  std::string warm = serveAll(server, window);
  EXPECT_EQ(server.stats().cacheHits, 1u);
  const auto normalize = [](std::string s) {
    const auto at = s.find("\"cached\":");
    if (at != std::string::npos) s.erase(at, s.find(',', at) - at);
    return s;
  };
  EXPECT_NE(cold, warm);  // the cached flag flips...
  EXPECT_EQ(normalize(cold), normalize(warm));  // ...and nothing else

  // The key in the response answers a flow-by-key request with the same
  // payload bytes.
  const auto keyAt = cold.find("\"key\":\"");
  ASSERT_NE(keyAt, std::string::npos);
  const std::string key = cold.substr(keyAt + 7, 16);
  const std::string byKey = serveAll(
      server, "{\"id\":\"w\",\"op\":\"flow\",\"key\":\"" + key + "\"}\n");
  EXPECT_EQ(normalize(byKey), normalize(warm));
}

// --- 4. degraded-cache visibility -------------------------------------------

TEST(ServeDegraded, CacheFailureLatchesGaugeAndShowsInStatus) {
  TempDir cacheDir("serve_degraded_cache/");
  fc::ScopedCacheDir cache(cacheDir.dir());
  fc::detail::resetDegraded();
  telemetry::reset();
  telemetry::setEnabled(true);
  ASSERT_FALSE(fc::degraded());

  {
    support::failpoint::ScopedFailpoints fp("flowcache.store");
    EXPECT_FALSE(fc::global()->store("0123456789abcdef", "payload"));
    EXPECT_FALSE(fc::global()->store("fedcba9876543210", "payload"));
  }
  EXPECT_TRUE(fc::degraded());
  // One-shot gauge: two failures, one count.
  EXPECT_EQ(telemetry::snapshot().counter(
                telemetry::Counter::FlowCacheDegraded),
            1u);

  Server server({});
  const auto out = serveAll(server, "{\"op\":\"status\"}\n");
  EXPECT_NE(out.find("\"flowcache_degraded\":true"), std::string::npos);

  telemetry::setEnabled(false);
  telemetry::reset();
  fc::detail::resetDegraded();
  EXPECT_FALSE(fc::degraded());
}

// --- 5. SIGPIPE -------------------------------------------------------------

TEST(ServeSigpipeDeathTest, DefaultDispositionKillsOnClosedPipe) {
  EXPECT_EXIT(
      {
        std::signal(SIGPIPE, SIG_DFL);
        int fds[2];
        if (pipe(fds) != 0) _exit(3);
        close(fds[0]);
        (void)!write(fds[1], "x", 1);
        _exit(0);  // unreachable under SIG_DFL
      },
      ::testing::KilledBySignal(SIGPIPE), "");
}

TEST(ServeSigpipe, IgnoredDispositionSurfacesEpipe) {
  support::ignoreSigpipe();
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  close(fds[0]);
  errno = 0;
  EXPECT_EQ(write(fds[1], "x", 1), -1);
  EXPECT_EQ(errno, EPIPE);
  close(fds[1]);
}

// --- 6. observability --------------------------------------------------------

namespace json = support::json;
namespace tracing = support::tracing;

TEST(ServeObservability, StatusReportsUptimeAndInFlight) {
  ServerConfig config;
  config.tickNs = 1000;  // logical clock: uptime is exact and replayable
  Server server(config);
  const auto out = lines(serveAll(server, "{\"op\":\"status\"}\n"));
  ASSERT_EQ(out.size(), 1u);
  const json::Value v = json::parse(out[0]);
  const json::Value* uptime = v.find("uptime_ms");
  ASSERT_NE(uptime, nullptr);
  EXPECT_GT(uptime->asNumber(), 0.0);
  const json::Value* inFlight = v.find("requests_in_flight");
  ASSERT_NE(inFlight, nullptr);
  EXPECT_EQ(inFlight->asNumber(), 0.0);
}

TEST(ServeObservability, MetricsOpAnswersWithCountersAndPercentiles) {
  ServerConfig config;
  config.tickNs = 1000;
  Server server(config);
  const auto out = lines(serveAll(
      server,
      "{\"id\":\"w\",\"op\":\"flow\",\"design\":\"no_such\"}\n"
      "\n"
      "{\"id\":\"m\",\"op\":\"metrics\"}\n"));
  ASSERT_EQ(out.size(), 2u);
  const json::Value v = json::parse(out[1]);
  EXPECT_TRUE(v.find("ok")->asBool());
  EXPECT_EQ(v.find("op")->asString(), "metrics");
  const json::Value* hists = v.find("histograms");
  ASSERT_NE(hists, nullptr);
  const json::Value* lat = hists->find("serve_request_latency_ms");
  ASSERT_NE(lat, nullptr);
  // The flushed window's request was observed before the metrics op ran.
  EXPECT_GE(lat->find("count")->asNumber(), 1.0);
  for (const char* field : {"p50", "p90", "p99", "min", "max", "sum"})
    EXPECT_NE(lat->find(field), nullptr) << field;
  const json::Value* counters = v.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_NE(counters->find("metrics_write_error"), nullptr);
}

TEST_F(ServeDeterminism, MetricsByteIdenticalAcrossThreadCounts) {
  // The acceptance contract: the same request stream under the logical tick
  // clock yields byte-identical responses — metrics op included, latency
  // percentiles and all — at 1, 2 and 4 threads.
  const std::string window =
      "{\"id\":\"f1\",\"op\":\"flow\",\"design\":\"spam_filter\","
      "\"seed\":7}\n"
      "{\"id\":\"f2\",\"op\":\"flow\",\"design\":\"spam_filter\","
      "\"seed\":7}\n"
      "{\"id\":\"p1\",\"op\":\"predict\",\"design\":\"spam_filter\","
      "\"top_k\":4}\n"
      "{\"id\":\"s\",\"op\":\"status\"}\n"
      "\n"
      "{\"id\":\"m\",\"op\":\"metrics\"}\n";

  ServerConfig config;
  config.modelPath = modelPath_;
  config.tickNs = 1000;

  std::string reference;
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    support::ScopedThreadLimit limit(threads);
    TempDir runCache("serve_metrics_det_cache/");
    fc::ScopedCacheDir runScope(runCache.dir());
    // The telemetry registry is global and monotone: each run starts from
    // zero so the metrics payloads compare whole.
    telemetry::reset();
    Server server(config);
    const std::string out = serveAll(server, window);
    if (reference.empty()) reference = out;
    EXPECT_EQ(out, reference) << "at " << threads << " threads";
  }
  telemetry::reset();
  EXPECT_NE(reference.find("\"op\":\"metrics\""), std::string::npos);
  EXPECT_NE(reference.find("serve_request_latency_ms"), std::string::npos);
}

TEST(ServeObservability, RequestSpanTreeInTrace) {
  tracing::setBufferCapacity(1 << 12);
  tracing::setEnabled(true);
  tracing::reset();

  ServerConfig config;
  config.tickNs = 1000;
  Server server(config);
  serveAll(server,
           "{\"id\":\"r1\",\"op\":\"flow\",\"design\":\"no_such\"}\n"
           "\n"
           "{\"op\":\"status\"}\n");

  std::ostringstream os;
  tracing::TraceMeta meta;
  meta.tool = "test";
  tracing::writeChromeTrace(os, meta);
  tracing::setEnabled(false);
  tracing::reset();

  const json::Value doc = json::parse(os.str());
  const json::Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);

  // Collect the X (complete) events by request correlation id.
  std::vector<std::string> r1Phases, anonPhases;
  for (const json::Value& e : events->array) {
    const json::Value* ph = e.find("ph");
    if (ph == nullptr || ph->asString() != "X") continue;
    ASSERT_NE(e.find("dur"), nullptr);
    const json::Value* args = e.find("args");
    ASSERT_NE(args, nullptr);
    const json::Value* request = args->find("request");
    ASSERT_NE(request, nullptr);
    if (request->asString() == "r1")
      r1Phases.push_back(e.find("name")->asString());
    else if (request->asString() == "#2")  // the id-less status request
      anonPhases.push_back(e.find("name")->asString());
  }
  // The executed flow request has the full tree; the admission-resolved
  // status request has no batch_exec phase.
  const std::vector<std::string> expectFull = {
      "serve/request", "serve/request/queue_wait", "serve/request/batch_exec",
      "serve/request/serialize"};
  const std::vector<std::string> expectResolved = {
      "serve/request", "serve/request/queue_wait", "serve/request/serialize"};
  EXPECT_EQ(r1Phases, expectFull);
  EXPECT_EQ(anonPhases, expectResolved);
}

TEST(ServeObservability, MetricsSnapshotWriteFailureDegrades) {
  TempDir dir("serve_metrics_failpoint/");
  fs::create_directories(dir.dir());
  ServerConfig config;
  config.tickNs = 1000;
  config.metricsOutPath = dir.dir() + "/metrics.json";

  telemetry::reset();
  {
    support::failpoint::ScopedFailpoints fp("metrics.write");
    Server server(config);
    const auto out = lines(serveAll(
        server, "{\"id\":\"a\",\"op\":\"status\"}\n\n"
                "{\"id\":\"b\",\"op\":\"status\"}\n"));
    // Serving is unharmed by the failed snapshots...
    ASSERT_EQ(out.size(), 2u);
    EXPECT_NE(out[1].find("\"ok\":true"), std::string::npos);
    // ...no snapshot landed under the final name...
    EXPECT_FALSE(fs::exists(config.metricsOutPath));
  }
  // ...and the failures are visible in the counter.
  EXPECT_GE(telemetry::snapshot().counter(
                telemetry::Counter::MetricsWriteError),
            1u);
  EXPECT_EQ(
      telemetry::snapshot().counter(telemetry::Counter::MetricsWrites), 0u);

  // Without the failpoint the snapshot pair lands atomically.
  Server server(config);
  server.writeMetricsNow();
  EXPECT_TRUE(fs::exists(config.metricsOutPath));
  EXPECT_TRUE(fs::exists(dir.dir() + "/metrics.prom"));
  std::ifstream in(config.metricsOutPath);
  std::stringstream body;
  body << in.rdbuf();
  const json::Value v = json::parse(body.str());
  EXPECT_EQ(v.find("tool")->asString(), "hcp_serve");
  telemetry::reset();
}

TEST(ServeTop, ScrapesLiveSocketDaemon) {
  const std::string sock =
      std::string(::testing::TempDir()) + "hcp_top_test.sock";
  ::unlink(sock.c_str());
  const int listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listenFd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ASSERT_LT(sock.size(), sizeof addr.sun_path);
  std::memcpy(addr.sun_path, sock.c_str(), sock.size() + 1);
  ASSERT_EQ(::bind(listenFd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof addr),
            0);
  ASSERT_EQ(::listen(listenFd, 1), 0);

  ServerConfig config;
  config.tickNs = 1000;
  Server server(config);
  std::thread daemon([&] {
    const int fd = ::accept(listenFd, nullptr, nullptr);
    if (fd < 0) return;
    FdStream stream(fd);
    server.serve(stream.in, stream.out);
    ::close(fd);
  });

  const std::string line = top::scrapeOnce(sock);
  daemon.join();
  ::close(listenFd);
  ::unlink(sock.c_str());

  const top::Scrape s = top::parseMetricsResponse(line);
  EXPECT_EQ(s.tool, "hcp_serve");
  EXPECT_FALSE(s.model);
  EXPECT_FALSE(s.counters.empty());
  bool sawLatency = false;
  for (const top::HistRow& h : s.histograms)
    sawLatency = sawLatency || h.name == "serve_request_latency_ms";
  EXPECT_TRUE(sawLatency);
  const std::string dash = top::renderDashboard(s);
  EXPECT_NE(dash.find("qps"), std::string::npos);
  EXPECT_NE(dash.find("hcp_serve"), std::string::npos);
}

TEST(ServeTop, ScrapeFailsCleanlyWithoutDaemon) {
  EXPECT_THROW(top::scrapeOnce("/nonexistent/dir/never.sock"), Error);
}

}  // namespace
}  // namespace hcp::serve
