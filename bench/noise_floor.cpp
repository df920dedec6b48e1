// Placer-seed noise floor of the back-traced labels — BENCH_noise.json.
//
// The paper's Vivado flow is deterministic, so its labels carry no placement
// noise; this flow's do. For each bundled design the bench runs the full flow
// at flow seeds 1..K (`--seeds K`, default 8) and reports:
//   - the leave-one-seed-out floor: every op's V/H label at one seed scored
//     against the mean of the other K-1 seeds, as a mean absolute error over
//     ops and seeds. The line-level floor does the same after averaging each
//     (function, source line)'s ops. No model scored against single-seed
//     labels can beat it by much;
//   - with `--reference <labels.csv>`, the "cross" MAE of each seed's labels
//     against the per-op means another run wrote (over the ops present in
//     both), which is how a change to the placer shows that its labels stay
//     inside the floor of the code it replaces;
//   - the routed-map floor: every seed's routed V/H utilization map scored
//     against the mean map of the other K-1 seeds, as top-decile hotspot
//     IoU and per-tile MAE (utilization %), averaged over the seeds; next to
//     it, the RUDY estimate (what predict-map returns) of each seed's
//     placement scored against that seed's own routed map;
//   - summed wirelength, congested tiles and placer moves over the seeds;
//   - how often the §V case study's hotspot (face_detection, line 70) is the
//     routed #1 region over seeds 1..4K. Regions are (function, line) groups
//     ranked by the mean avgCongestion of their non-marginal samples; exact
//     ties rank by (function index, line) ascending, as findHotspots does.
// The per-op K-seed means go to noise_floor_labels.csv, the input of a later
// run's --reference. Against its own means a seed's op error is exactly
// (K-1)/K of its leave-one-out error, so a self-reference run reads that
// fraction of the floor. Everything runs at fixed seeds through the
// deterministic pool, so the outputs are bit-identical at any --threads.
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "apps/registry.hpp"
#include "bench_common.hpp"
#include "fpga/router.hpp"
#include "ml/metrics.hpp"
#include "support/env.hpp"
#include "support/json.hpp"
#include "support/textio.hpp"

using namespace hcp;

namespace {

constexpr const char* kTool = "noise_floor";
constexpr const char* kLabelsCsv = "noise_floor_labels.csv";
constexpr const char* kCaseDesign = "face_detection";
constexpr std::int32_t kCaseLine = 70;

[[noreturn]] void usageError(const std::string& message) {
  std::fprintf(stderr, "%s: %s\n", kTool, message.c_str());
  std::exit(2);
}

struct Options {
  std::uint64_t seeds = 8;
  std::string reference;  ///< "" = no cross MAE
};

Options parse(const std::vector<std::string>& argv) {
  Options options;
  for (std::size_t i = 0; i < argv.size(); ++i) {
    const std::string& arg = argv[i];
    auto value = [&]() -> const std::string& {
      if (i + 1 >= argv.size()) usageError(arg + " expects a value");
      return argv[++i];
    };
    if (arg == "--seeds") {
      options.seeds = support::env::parseCount(arg, value(), 2, usageError);
    } else if (arg == "--reference") {
      options.reference = value();
      if (options.reference.empty())
        usageError("--reference expects a non-empty value");
    } else {
      usageError("unknown argument '" + arg + "'");
    }
  }
  return options;
}

/// One op's identity within its design: stable across seeds, because only
/// place and route see the flow seed.
using OpKey = std::tuple<std::uint32_t, rtl::InstanceId, ir::OpId>;
/// One source region: (function index, source line).
using LineKey = std::pair<std::uint32_t, std::int32_t>;

struct OpLabel {
  OpKey key;
  std::int32_t line = 0;
  double v = 0.0, h = 0.0;
};

/// A (function, source line) region by name.
struct Region {
  std::string function;
  std::int32_t line = 0;
};

/// One congestion map's per-tile V/H utilization, row-major.
struct UtilMap {
  std::vector<double> v, h;
};

UtilMap utilOf(const fpga::CongestionMap& map) {
  return {map.utilization(true), map.utilization(false)};
}

/// What one flow at one seed leaves behind once its result is dropped.
struct SeedRun {
  std::vector<OpLabel> ops;  ///< back-trace order
  UtilMap routed;            ///< the routed map
  UtilMap rudy;              ///< RUDY of the same placement
  double wirelength = 0.0;
  std::size_t congestedTiles = 0;
  std::uint64_t placerMoves = 0;
  Region top;  ///< routed #1 region
};

SeedRun runSeed(const std::string& design, std::uint64_t seed,
                const fpga::Device& device) {
  core::FlowConfig config;
  config.seed = seed;
  const core::FlowResult flow =
      core::runFlow(apps::makeDesign(design), device, config);
  SeedRun run;
  run.wirelength = fpga::totalWirelength(flow.impl.packing,
                                         flow.impl.placement);
  run.congestedTiles = flow.congestedTiles;
  run.placerMoves = flow.impl.placement.movesTried;
  run.routed = utilOf(flow.impl.routing.map);
  run.rudy = utilOf(fpga::estimateRudy(flow.impl.packing,
                                       flow.impl.placement, device));
  for (const trace::Sample& s : flow.traced.samples)
    run.ops.push_back({{s.functionIndex, s.instance, s.op}, s.sourceLine,
                       s.vCongestion, s.hCongestion});

  std::vector<trace::Sample> samples = flow.traced.samples;
  trace::filterMarginal(samples);
  std::map<LineKey, std::pair<double, std::size_t>> regions;
  for (const trace::Sample& s : samples) {
    if (s.marginal) continue;
    auto& [sum, count] = regions[{s.functionIndex, s.sourceLine}];
    sum += s.avgCongestion;
    ++count;
  }
  double best = -1.0;
  for (const auto& [key, acc] : regions) {
    const double mean = acc.first / static_cast<double>(acc.second);
    if (mean > best) {  // strict: ties keep the lower (function, line)
      best = mean;
      run.top = {flow.design.module->function(key.first).name(), key.second};
    }
  }
  return run;
}

/// Per-op mean V/H labels of a previous run, keyed by design and op.
using Reference = std::map<std::pair<std::string, OpKey>, std::pair<double, double>>;

Reference readReference(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  HCP_CHECK_MSG(is.good(), "cannot open " << path);
  Reference ref;
  std::string line;
  std::getline(is, line);  // header
  std::size_t lineNo = 1;
  while (std::getline(is, line)) {
    ++lineNo;
    if (line.empty()) continue;
    for (char& c : line)
      if (c == ',') c = ' ';
    std::istringstream row(line);
    std::string design;
    std::uint32_t function = 0;
    rtl::InstanceId instance = 0;
    ir::OpId op = 0;
    std::int32_t sourceLine = 0;
    double v = 0.0, h = 0.0;
    row >> design >> function >> instance >> op >> sourceLine >> v >> h;
    HCP_CHECK_MSG(row && !design.empty(),
                  path << ":" << lineNo << ": malformed label row");
    ref[{design, {function, instance, op}}] = {v, h};
  }
  HCP_CHECK_MSG(!ref.empty(), path << ": no label rows");
  return ref;
}

/// A V/H pair: label or map MAEs, or map IoUs.
struct VH {
  double v = 0.0, h = 0.0;
};

/// Mean absolute error of `labels[seed][i]` against `truth(seed, i)` over
/// every seed and index.
template <typename Truth>
VH maeOver(const std::vector<std::vector<VH>>& labels, Truth truth) {
  VH sum;
  std::size_t n = 0;
  for (std::size_t s = 0; s < labels.size(); ++s)
    for (std::size_t i = 0; i < labels[s].size(); ++i) {
      const VH t = truth(s, i);
      sum.v += std::abs(labels[s][i].v - t.v);
      sum.h += std::abs(labels[s][i].h - t.h);
      ++n;
    }
  return n ? VH{sum.v / n, sum.h / n} : VH{};
}

/// Leave-one-seed-out MAE: each seed's label against the mean of the others.
VH leaveOneOut(const std::vector<std::vector<VH>>& labels) {
  const std::size_t k = labels.size();
  std::vector<VH> total(labels.front().size());
  for (const auto& seed : labels)
    for (std::size_t i = 0; i < seed.size(); ++i) {
      total[i].v += seed[i].v;
      total[i].h += seed[i].h;
    }
  return maeOver(labels, [&](std::size_t s, std::size_t i) {
    return VH{(total[i].v - labels[s][i].v) / static_cast<double>(k - 1),
               (total[i].h - labels[s][i].h) / static_cast<double>(k - 1)};
  });
}

/// Averages each (function, line)'s entries of every seed; `lineOf[i]` is
/// entry i's region. Regions come out in key order.
std::vector<std::vector<VH>> perLine(const std::vector<std::vector<VH>>& labels,
                                      const std::vector<LineKey>& lineOf) {
  std::map<LineKey, std::size_t> index;
  for (const LineKey& key : lineOf) index.emplace(key, 0);
  std::size_t next = 0;
  for (auto& [key, slot] : index) slot = next++;
  std::vector<std::size_t> count(index.size(), 0);
  for (const LineKey& key : lineOf) ++count[index[key]];
  std::vector<std::vector<VH>> out(labels.size(),
                                    std::vector<VH>(index.size()));
  for (std::size_t s = 0; s < labels.size(); ++s)
    for (std::size_t i = 0; i < lineOf.size(); ++i) {
      VH& m = out[s][index[lineOf[i]]];
      const double n = static_cast<double>(count[index[lineOf[i]]]);
      m.v += labels[s][i].v / n;
      m.h += labels[s][i].h / n;
    }
  return out;
}

/// Map agreement averaged over the seeds: top-decile IoU and MAE.
struct MapScore {
  VH iou, mae;
};

/// Scores `predicted(s)` against `actual(s)` for every seed s < k.
template <typename Actual, typename Predicted>
MapScore mapScore(std::size_t k, Actual actual, Predicted predicted) {
  MapScore sum;
  for (std::size_t s = 0; s < k; ++s) {
    const UtilMap a = actual(s);
    const UtilMap& p = predicted(s);
    sum.iou.v += ml::hotspotIoU(a.v, p.v);
    sum.iou.h += ml::hotspotIoU(a.h, p.h);
    sum.mae.v += ml::meanAbsoluteError(a.v, p.v);
    sum.mae.h += ml::meanAbsoluteError(a.h, p.h);
  }
  const double n = static_cast<double>(k);
  return {{sum.iou.v / n, sum.iou.h / n}, {sum.mae.v / n, sum.mae.h / n}};
}

/// Leave-one-seed-out routed-map floor, and RUDY against the same seed's
/// routed map.
std::pair<MapScore, MapScore> mapScores(const std::vector<SeedRun>& runs) {
  const std::size_t k = runs.size();
  UtilMap total = runs.front().routed;
  for (std::size_t s = 1; s < k; ++s)
    for (std::size_t i = 0; i < total.v.size(); ++i) {
      total.v[i] += runs[s].routed.v[i];
      total.h[i] += runs[s].routed.h[i];
    }
  const auto othersMean = [&](std::size_t s) {
    UtilMap mean = total;
    const double n = static_cast<double>(k - 1);
    for (std::size_t i = 0; i < mean.v.size(); ++i) {
      mean.v[i] = (mean.v[i] - runs[s].routed.v[i]) / n;
      mean.h[i] = (mean.h[i] - runs[s].routed.h[i]) / n;
    }
    return mean;
  };
  const auto routed = [&](std::size_t s) -> const UtilMap& {
    return runs[s].routed;
  };
  const auto rudy = [&](std::size_t s) -> const UtilMap& {
    return runs[s].rudy;
  };
  return {mapScore(k, othersMean, routed), mapScore(k, routed, rudy)};
}

struct DesignResult {
  std::string name;
  std::size_t ops = 0, lines = 0;
  VH opFloor, lineFloor;
  VH mapFloorIoU, mapFloorMae;  ///< routed map vs the other seeds' mean
  VH rudyIoU, rudyMae;          ///< RUDY vs the same seed's routed map
  std::size_t matchedOps = 0;  ///< ops also in the reference
  VH opCross, lineCross;
  double wirelength = 0.0;
  std::size_t congestedTiles = 0;
  std::uint64_t placerMoves = 0;
};

DesignResult analyse(const std::string& name, const std::vector<SeedRun>& runs,
                     const Reference* reference) {
  DesignResult r;
  r.name = name;
  const std::vector<OpLabel>& ops = runs.front().ops;
  std::vector<std::vector<VH>> labels;
  for (const SeedRun& run : runs) {
    HCP_CHECK_MSG(run.ops.size() == ops.size(),
                  name << ": op count differs across seeds");
    std::vector<VH> seed;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      HCP_CHECK_MSG(run.ops[i].key == ops[i].key,
                    name << ": op order differs across seeds");
      seed.push_back({run.ops[i].v, run.ops[i].h});
    }
    labels.push_back(std::move(seed));
    r.wirelength += run.wirelength;
    r.congestedTiles += run.congestedTiles;
    r.placerMoves += run.placerMoves;
  }
  std::vector<LineKey> lineOf;
  for (const OpLabel& op : ops)
    lineOf.push_back({std::get<0>(op.key), op.line});
  const auto lineLabels = perLine(labels, lineOf);
  r.ops = ops.size();
  r.lines = lineLabels.front().size();
  r.opFloor = leaveOneOut(labels);
  r.lineFloor = leaveOneOut(lineLabels);
  const auto [mapFloor, rudy] = mapScores(runs);
  r.mapFloorIoU = mapFloor.iou;
  r.mapFloorMae = mapFloor.mae;
  r.rudyIoU = rudy.iou;
  r.rudyMae = rudy.mae;
  if (!reference) return r;

  // Cross MAE over the ops both runs have: the same ops' labels, and the
  // reference means in their place.
  std::vector<std::vector<VH>> matched(labels.size());
  std::vector<VH> truth;
  std::vector<LineKey> matchedLines;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const auto it = reference->find({name, ops[i].key});
    if (it == reference->end()) continue;
    for (std::size_t s = 0; s < labels.size(); ++s)
      matched[s].push_back(labels[s][i]);
    truth.push_back({it->second.first, it->second.second});
    matchedLines.push_back(lineOf[i]);
  }
  r.matchedOps = truth.size();
  HCP_CHECK_MSG(!truth.empty(), name << ": no op of it in the reference");
  r.opCross = maeOver(matched, [&](std::size_t, std::size_t i) {
    return truth[i];
  });
  const auto lineTruth =
      perLine(std::vector<std::vector<VH>>{truth}, matchedLines).front();
  r.lineCross = maeOver(perLine(matched, matchedLines),
                        [&](std::size_t, std::size_t i) {
                          return lineTruth[i];
                        });
  return r;
}

/// One V/H field averaged over the designs.
VH meanOf(const std::vector<DesignResult>& results, VH DesignResult::*field) {
  VH sum;
  for (const DesignResult& r : results) {
    sum.v += (r.*field).v;
    sum.h += (r.*field).h;
  }
  const double n = static_cast<double>(results.size());
  return {sum.v / n, sum.h / n};
}

void writeLabels(const std::vector<std::string>& designs,
                 const std::vector<std::vector<SeedRun>>& runs) {
  support::txt::CheckedFileWriter writer(kLabelsCsv, "benchout");
  auto& csv = writer.stream();
  support::txt::preparePrecision(csv);
  csv << "design,function,instance,op,line,v_mean,h_mean\n";
  for (std::size_t d = 0; d < designs.size(); ++d) {
    const auto& seeds = runs[d];
    for (std::size_t i = 0; i < seeds.front().ops.size(); ++i) {
      double v = 0.0, h = 0.0;
      for (const SeedRun& run : seeds) {
        v += run.ops[i].v;
        h += run.ops[i].h;
      }
      const OpLabel& op = seeds.front().ops[i];
      const double k = static_cast<double>(seeds.size());
      csv << designs[d] << ',' << std::get<0>(op.key) << ','
          << std::get<1>(op.key) << ',' << std::get<2>(op.key) << ','
          << op.line << ',' << v / k << ',' << h / k << '\n';
    }
  }
  writer.commit();
}

int runBench(const Options& options) {
  const auto device = fpga::Device::xc7z020like();
  const std::vector<std::string>& designs = apps::designNames();
  const std::size_t k = options.seeds;
  const std::size_t caseSeeds = 4 * k;
  std::optional<Reference> reference;
  if (!options.reference.empty()) reference = readReference(options.reference);

  // One pool task per (design, seed); the case-study design's extra seeds
  // K+1..4K come last.
  struct Task {
    std::size_t design;
    std::uint64_t seed;
  };
  std::vector<Task> tasks;
  std::size_t caseIndex = designs.size();
  for (std::size_t d = 0; d < designs.size(); ++d) {
    for (std::uint64_t s = 1; s <= k; ++s) tasks.push_back({d, s});
    if (designs[d] == kCaseDesign) caseIndex = d;
  }
  HCP_CHECK_MSG(caseIndex < designs.size(), kCaseDesign << " is not bundled");
  for (std::uint64_t s = k + 1; s <= caseSeeds; ++s)
    tasks.push_back({caseIndex, s});
  std::fprintf(stderr, "[noise] %zu designs x %zu seeds + %s to %zu seeds "
               "(%zu flows, %zu thread%s)...\n",
               designs.size(), k, kCaseDesign, caseSeeds, tasks.size(),
               support::threadLimit(),
               support::threadLimit() == 1 ? "" : "s");
  std::vector<SeedRun> done =
      support::parallelMapIndex(tasks.size(), [&](std::size_t t) {
        return runSeed(designs[tasks[t].design], tasks[t].seed, device);
      });

  std::vector<std::vector<SeedRun>> runs(designs.size());
  std::vector<Region> caseTops;  ///< seeds 1..4K in order
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    if (tasks[t].design == caseIndex) caseTops.push_back(done[t].top);
    if (tasks[t].seed <= k) runs[tasks[t].design].push_back(std::move(done[t]));
  }
  std::vector<DesignResult> results;
  for (std::size_t d = 0; d < designs.size(); ++d)
    results.push_back(
        analyse(designs[d], runs[d], reference ? &*reference : nullptr));
  writeLabels(designs, runs);
  std::size_t caseHits = 0;
  for (const Region& top : caseTops) caseHits += top.line == kCaseLine;

  Table table("Placer-seed floor (" + std::to_string(k) +
              " flow seeds, leave-one-seed-out MAE in %; map IoU/MAE of "
              "the routed map and of RUDY)");
  std::vector<std::string> header = {"Design", "#Ops", "#Lines", "Op V",
                                     "Op H", "Line V", "Line H"};
  if (reference)
    for (const char* h : {"Cross op V", "Cross op H", "Cross line V",
                          "Cross line H"})
      header.push_back(h);
  for (const char* h : {"Map IoU", "Map MAE", "RUDY IoU", "RUDY MAE",
                        "Wirelength", "Congested", "Placer moves"})
    header.push_back(h);
  table.setHeader(header);
  for (const DesignResult& r : results) {
    std::vector<std::string> row = {
        r.name, std::to_string(r.ops), std::to_string(r.lines),
        fmt(r.opFloor.v), fmt(r.opFloor.h), fmt(r.lineFloor.v),
        fmt(r.lineFloor.h)};
    if (reference)
      for (double x : {r.opCross.v, r.opCross.h, r.lineCross.v, r.lineCross.h})
        row.push_back(fmt(x));
    // The map columns average V and H.
    row.push_back(fmt(0.5 * (r.mapFloorIoU.v + r.mapFloorIoU.h), 3));
    row.push_back(fmt(0.5 * (r.mapFloorMae.v + r.mapFloorMae.h)));
    row.push_back(fmt(0.5 * (r.rudyIoU.v + r.rudyIoU.h), 3));
    row.push_back(fmt(0.5 * (r.rudyMae.v + r.rudyMae.h)));
    row.push_back(fmt(r.wirelength, 0));
    row.push_back(std::to_string(r.congestedTiles));
    row.push_back(std::to_string(r.placerMoves));
    table.addRow(row);
  }
  std::printf("%s\n", table.toAscii().c_str());
  std::printf("%s routed #1 region at line %d: %zu of %zu seeds\n",
              kCaseDesign, kCaseLine, caseHits, caseTops.size());

  support::txt::CheckedFileWriter writer("BENCH_noise.json", "benchout");
  auto& json = writer.stream();
  support::txt::preparePrecision(json);
  auto writeVH = [&](const char* name, const VH& m) {
    json << "\"" << name << "_v\": " << m.v << ", \"" << name
         << "_h\": " << m.h;
  };
  json << "{\n  \"threads\": " << support::threadLimit()
       << ",\n  \"seeds\": " << k << ",\n  \"reference\": ";
  if (reference)
    json << "\"" << support::json::escape(options.reference) << "\"";
  else
    json << "null";
  json << ",\n  \"designs\": [\n";
  for (std::size_t d = 0; d < results.size(); ++d) {
    const DesignResult& r = results[d];
    json << "    {\"design\": \"" << r.name << "\", \"ops\": " << r.ops
         << ", \"lines\": " << r.lines << ", ";
    writeVH("op_floor", r.opFloor);
    json << ", ";
    writeVH("line_floor", r.lineFloor);
    json << ", ";
    writeVH("map_floor_iou", r.mapFloorIoU);
    json << ", ";
    writeVH("map_floor_mae", r.mapFloorMae);
    json << ", ";
    writeVH("rudy_iou", r.rudyIoU);
    json << ", ";
    writeVH("rudy_mae", r.rudyMae);
    if (reference) {
      json << ", \"matched_ops\": " << r.matchedOps << ", ";
      writeVH("op_cross", r.opCross);
      json << ", ";
      writeVH("line_cross", r.lineCross);
    }
    json << ", \"wirelength\": " << r.wirelength
         << ", \"congested_tiles\": " << r.congestedTiles
         << ", \"placer_moves\": " << r.placerMoves << "}"
         << (d + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"mean\": {";
  writeVH("op_floor", meanOf(results, &DesignResult::opFloor));
  json << ", ";
  writeVH("line_floor", meanOf(results, &DesignResult::lineFloor));
  json << ", ";
  writeVH("map_floor_iou", meanOf(results, &DesignResult::mapFloorIoU));
  json << ", ";
  writeVH("map_floor_mae", meanOf(results, &DesignResult::mapFloorMae));
  json << ", ";
  writeVH("rudy_iou", meanOf(results, &DesignResult::rudyIoU));
  json << ", ";
  writeVH("rudy_mae", meanOf(results, &DesignResult::rudyMae));
  if (reference) {
    json << ", ";
    writeVH("op_cross", meanOf(results, &DesignResult::opCross));
    json << ", ";
    writeVH("line_cross", meanOf(results, &DesignResult::lineCross));
  }
  double wirelength = 0.0;
  std::size_t congestedTiles = 0;
  std::uint64_t placerMoves = 0;
  for (const DesignResult& r : results) {
    wirelength += r.wirelength;
    congestedTiles += r.congestedTiles;
    placerMoves += r.placerMoves;
  }
  json << "},\n  \"totals\": {\"wirelength\": " << wirelength
       << ", \"congested_tiles\": " << congestedTiles
       << ", \"placer_moves\": " << placerMoves
       << "},\n  \"case_study\": {\"design\": \"" << kCaseDesign
       << "\", \"line\": " << kCaseLine << ", \"seeds\": " << caseTops.size()
       << ", \"top_at_line\": " << caseHits << ", \"top_regions\": [\n";
  for (std::size_t s = 0; s < caseTops.size(); ++s)
    json << "    {\"seed\": " << s + 1 << ", \"function\": \""
         << caseTops[s].function << "\", \"line\": " << caseTops[s].line
         << "}" << (s + 1 < caseTops.size() ? "," : "") << "\n";
  json << "  ]}\n}\n";
  writer.commit();
  std::fprintf(stderr, "[noise] report written to BENCH_noise.json, per-op "
               "means to %s\n", kLabelsCsv);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return support::process::runMain(
      kTool, argc, argv, [](support::process::Session& session) {
        session.report().command = "bench";
        const Options options = parse(session.args());
        return runBench(options);
      });
}
