// implement: every bundled design through the full C-to-FPGA flow, flow
// cache off — the slow path the paper's predictor lets designers skip.
#include <cmath>
#include <cstdio>
#include <span>

#include "apps/registry.hpp"
#include "core/flow.hpp"
#include "fpga/par.hpp"
#include "hls/design.hpp"
#include "rtl/generator.hpp"
#include "support/parallel.hpp"
#include "support/telemetry.hpp"
#include "trace/backtrace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace tel = hcp::support::telemetry;
using hcp::apps::AppDesign;

// All of apps::designNames(), longest-running first (one thread, seed 42),
// so the designs that start last are short ones and the pass time measures
// the flows rather than how late the pool happened to start a long design.
const std::vector<std::string> kDesignOrder = {
    "face_detection", "vision_combined", "face_detection_replicated",
    "face_detection_noinline", "bnn", "digit_spam", "digit_recognition",
    "spam_filter", "optical_flow", "rendering_3d"};

constexpr int kSetupReps = 9;
// Set-up warms the flow with the smallest design, so page faults, allocator
// growth and pool start-up land in set-up rather than in the first pass.
const std::string kWarmUpDesign = "rendering_3d";

struct FlowOutcome {
  bool ok = false;
  std::string error;
  double latencyMs = 0.0;
  bool netlistValid = false;
  bool mapsFinite = false;
  std::size_t congestedTiles = 0;
  double wirelength = 0.0;
  std::uint64_t movesTried = 0;
  std::uint64_t movesAccepted = 0;
  int routeIterations = 0;
};

bool finiteMap(const hcp::fpga::CongestionMap& map) {
  for (std::uint32_t y = 0; y < map.height(); ++y)
    for (std::uint32_t x = 0; x < map.width(); ++x)
      if (!std::isfinite(map.vUtil(x, y)) || !std::isfinite(map.hUtil(x, y)))
        return false;
  return map.width() > 0 && map.height() > 0;
}

void summarize(const hcp::rtl::Netlist& netlist,
               const hcp::fpga::Implementation& impl, FlowOutcome& o) {
  o.netlistValid = netlist.validate().empty();
  o.mapsFinite = finiteMap(impl.routing.map);
  o.congestedTiles = impl.routing.map.tilesOver(100.0);
  o.wirelength = hcp::fpga::totalWirelength(impl.packing, impl.placement);
  o.movesTried = impl.placement.movesTried;
  o.movesAccepted = impl.placement.movesAccepted;
  o.routeIterations = impl.routing.iterationsRun;
}

std::vector<AppDesign> makeDesigns() {
  std::vector<AppDesign> apps;
  for (const auto& name : kDesignOrder) apps.push_back(hcp::apps::makeDesign(name));
  return apps;
}

/// runFlow's stages called one by one, each under its own span: the same
/// calls with the same configuration, so the result must match runFlows.
FlowOutcome tracedFlow(AppDesign&& app, const hcp::fpga::Device& device,
                       const hcp::core::FlowConfig& config, Tracer& t,
                       std::int64_t parent) {
  const std::string rid = app.name;
  Tracer::Scope flow(t, "core.flow", parent, rid);
  const auto stage = [&](const char* name, auto&& fn) {
    Tracer::Scope s(t, name, flow.id(), rid);
    fn();
  };
  FlowOutcome o;
  hcp::core::FlowResult result;
  const hcp::hls::SynthesisOptions synth = config.synthesis;
  stage("hls.synthesize", [&] {
    result.design =
        hcp::hls::synthesize(std::move(app.module), app.directives, synth);
  });
  stage("rtl.generate", [&] { result.rtl = hcp::rtl::generateRtl(result.design); });
  hcp::fpga::ParConfig par = config.par;
  par.placer.seed = config.seed;
  par.timing.targetClockNs = synth.schedule.clockPeriodNs;
  par.timing.clockUncertaintyNs = synth.schedule.clockUncertaintyNs;
  const hcp::rtl::Netlist& netlist = result.rtl.netlist;
  hcp::fpga::Implementation& impl = result.impl;
  stage("fpga.pack", [&] { impl.packing = hcp::fpga::pack(netlist, device); });
  stage("fpga.place", [&] {
    impl.placement = hcp::fpga::place(impl.packing, device, par.placer);
  });
  stage("fpga.route", [&] {
    impl.routing = hcp::fpga::route(impl.packing, impl.placement, device,
                                    par.router);
  });
  stage("fpga.sta", [&] {
    impl.timing = hcp::fpga::analyzeTiming(netlist, impl.packing,
                                           impl.placement, impl.routing,
                                           par.timing);
  });
  stage("trace.backtrace", [&] {
    result.traced = hcp::trace::backTrace(result.rtl, impl, device,
                                          *result.design.module);
  });
  summarize(netlist, impl, o);
  o.ok = true;
  return o;
}

}  // namespace

Result runImplement(const Options& opts, Tracer& tracer) {
  Result r;
  hcp::core::FlowConfig config;
  const std::size_t n = kDesignOrder.size();

  // Set-up: the device model, the design inputs and a warm-up flow.
  std::vector<double> setupS;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const double t0 = nowSeconds();
    const auto device = hcp::fpga::Device::xc7z020like();
    const auto apps = makeDesigns();
    auto warm = hcp::apps::makeDesign(kWarmUpDesign);
    const auto flows = hcp::core::runFlows(std::span(&warm, 1), device, config);
    setupS.push_back(nowSeconds() - t0);
    ++r.attempted;
    r.check(apps.size() == n && flows[0].rtl.netlist.validate().empty(),
            "implement set-up builds the inputs and a valid warm-up flow");
  }
  const auto device = hcp::fpga::Device::xc7z020like();

  std::vector<double> passS, opMs;
  // Each round implements the suite under its own placer seed, so a run's
  // median spans several placements. A traced run gives a round two passes,
  // untraced then traced, and checks that they agree.
  std::vector<FlowOutcome> first, previous;
  std::vector<double> movesPass, acceptedPass, iterationsPass;
  TraceSummary traced;
  std::vector<double> rips, proposed;
  std::size_t passIndex = 0;
  const double deadline = nowSeconds() + opts.seconds;
  do {
    // Traced runs alternate untraced and traced passes so the tracing
    // overhead is measured inside one process.
    const bool tracePass = opts.trace && passIndex % 2 == 1;
    config.seed = flowSeedOf(opts.seed, opts.trace ? passIndex / 2 : passIndex);
    std::vector<FlowOutcome> outcomes;
    if (!tracePass) {
      const double t0 = nowSeconds();
      auto apps = makeDesigns();
      // Ten one-design runFlows calls over the pool: the same tasks runFlows
      // makes for the whole suite, with each design's latency visible.
      outcomes = hcp::support::parallelMapIndex(n, [&](std::size_t i) {
        FlowOutcome o;
        const double s0 = nowSeconds();
        try {
          auto flows = hcp::core::runFlows(std::span(&apps[i], 1), device, config);
          o.latencyMs = (nowSeconds() - s0) * 1e3;
          summarize(flows[0].rtl.netlist, flows[0].impl, o);
          o.ok = flows[0].congestedTiles == o.congestedTiles;
        } catch (const std::exception& e) {
          o.error = e.what();
        }
        return o;
      });
      passS.push_back(nowSeconds() - t0);
      for (const auto& o : outcomes) opMs.push_back(o.latencyMs);
    } else {
      tracer.setEnabled(true);
      tel::setEnabled(true);
      const tel::Snapshot before = tel::snapshot();
      std::int64_t root = -1;
      {
        Tracer::Scope pass(tracer, "pass", -1);
        root = pass.id();
        std::vector<AppDesign> apps;
        {
          Tracer::Scope s(tracer, "apps.make_design", root);
          apps = makeDesigns();
        }
        Tracer::Scope region(tracer, "support.parallel", root, {}, opts.threads);
        outcomes = hcp::support::parallelMapIndex(n, [&](std::size_t i) {
          try {
            return tracedFlow(std::move(apps[i]), device, config, tracer,
                              region.id());
          } catch (const std::exception& e) {
            FlowOutcome o;
            o.error = e.what();
            return o;
          }
        });
      }
      const tel::Snapshot after = tel::snapshot();
      tel::setEnabled(false);
      tracer.setEnabled(false);
      traced.add(profilePass(tracer, root));
      rips.push_back(static_cast<double>(after.counter(tel::Counter::RouterRipUps) -
                                         before.counter(tel::Counter::RouterRipUps)));
      proposed.push_back(static_cast<double>(
          after.counter(tel::Counter::PlacerMovesProposed) -
          before.counter(tel::Counter::PlacerMovesProposed)));
    }

    for (std::size_t i = 0; i < n; ++i) {
      const FlowOutcome& o = outcomes[i];
      const std::string& name = kDesignOrder[i];
      ++r.attempted;
      if (!o.ok) {
        ++r.failed;
        std::fprintf(stderr, "perfbench: flow %s failed: %s\n", name.c_str(),
                     o.error.c_str());
        continue;
      }
      r.check(o.netlistValid, name + ": netlist validates");
      r.check(o.mapsFinite, name + ": congestion maps are finite");
      if (!tracePass) continue;
      const FlowOutcome& ref = previous[i];
      r.check(ref.ok && o.congestedTiles == ref.congestedTiles &&
                  o.wirelength == ref.wirelength &&
                  o.movesTried == ref.movesTried,
              name + ": traced flow stages reproduce runFlows");
    }
    if (tracePass) {
      double moves = 0, accepted = 0, iterations = 0;
      for (const auto& o : outcomes) {
        moves += static_cast<double>(o.movesTried);
        accepted += static_cast<double>(o.movesAccepted);
        iterations += o.routeIterations;
      }
      movesPass.push_back(moves);
      acceptedPass.push_back(accepted);
      iterationsPass.push_back(iterations);
    }
    if (first.empty()) first = outcomes;
    previous = std::move(outcomes);
    ++passIndex;
  } while (nowSeconds() < deadline || (opts.trace && traced.passes() == 0));

  std::size_t congested = 0;
  double wirelength = 0.0;
  for (const auto& o : first) {
    congested += o.congestedTiles;
    wirelength += o.wirelength;
  }
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "implement: %zu designs x %zu passes, one placer seed per "
                "round, %zu threads",
                n, passS.size(), opts.threads);
  r.note(buf);
  std::snprintf(buf, sizeof buf,
                "quality (first round, flow seed %llu): %zu tiles over 100%%, "
                "wirelength %.0f (sums over designs)",
                static_cast<unsigned long long>(flowSeedOf(opts.seed, 0)),
                congested, wirelength);
  r.note(buf);

  if (!opts.trace) {
    r.add("setup_s", median(setupS), "s");
    r.add("pass_s", median(passS), "s");
    r.noteSample("setup_s", setupS, "s");
    r.noteSample("pass_s", passS, "s");
    r.add("op_p50_ms", quantile(opMs, 0.5), "ms");
    r.add("op_p95_ms", quantile(opMs, 0.95), "ms");
    r.add("peak_rss_mb", peakRssMb(), "MB");
    std::snprintf(buf, sizeof buf, "op latency: one design's flow, %zu samples",
                  opMs.size());
    r.note(buf);
    return r;
  }

  traced.report(r, median(passS) * 1e3);
  const double placeMs = traced.selfMs("fpga.place");
  const double movesPerPass = median(proposed);
  r.check(proposed == movesPass,
          "placer_moves_proposed counter matches Placement::movesTried");
  r.add("fpga.place_ms", traced.perCallMs("fpga.place"), "ms");
  r.add("fpga.placer_moves", movesPerPass, "count");
  r.add("fpga.place_ns_per_move", movesPerPass > 0 ? placeMs * 1e6 / movesPerPass : 0.0, "ns");
  r.add("fpga.place_accept_ratio",
        movesPerPass > 0 ? median(acceptedPass) / movesPerPass : 0.0, "ratio");
  r.add("fpga.route_ms", traced.perCallMs("fpga.route"), "ms");
  r.add("fpga.route_iterations", median(iterationsPass), "count");
  r.add("fpga.route_ripups", median(rips), "count");
  r.add("fpga.pack_ms", traced.perCallMs("fpga.pack"), "ms");
  r.add("fpga.sta_ms", traced.perCallMs("fpga.sta"), "ms");
  const double placeRouteShare = traced.share("fpga.place") + traced.share("fpga.route");
  r.add("fpga.place_route_share", placeRouteShare, "ratio");
  r.check(placeRouteShare > 0.5, "fpga.place + fpga.route are the majority of the pass");
  const double passMs = traced.passMs();
  r.add("support.parallel.idle_share",
        passMs > 0 ? traced.waitingMs() / passMs : 0.0, "ratio");
  r.add("hls.synthesize_ms", traced.perCallMs("hls.synthesize"), "ms");
  r.add("hls.synthesize_share", traced.share("hls.synthesize"), "ratio");
  r.add("rtl.generate_ms", traced.perCallMs("rtl.generate"), "ms");
  r.add("rtl.generate_share", traced.share("rtl.generate"), "ratio");
  r.add("trace.backtrace_ms", traced.perCallMs("trace.backtrace"), "ms");
  r.add("trace.backtrace_share", traced.share("trace.backtrace"), "ratio");
  r.add("core.flow_ms", traced.callMs("core.flow"), "ms");
  r.add("congested_tiles", static_cast<double>(congested), "count");
  r.add("wirelength", wirelength, "hpwl");
  std::snprintf(buf, sizeof buf,
                "bases: %.0f placer moves/pass, %.0f route iterations/pass, "
                "%zu flows/pass, %zu lanes",
                movesPerPass, median(iterationsPass), n, opts.threads);
  r.note(buf);
  return r;
}

}  // namespace perfbench
