// Fig 4 — merging dependency-graph nodes that share one RTL module (paper
// §III-A2): shows a share-heavy design's graph before and after the binder's
// merges, with the wire-accounting the feature extractor sees.
#include "bench_common.hpp"
#include "hls/design.hpp"
#include "ir/builder.hpp"

using namespace hcp;

namespace {

/// The bench body; session plumbing lives in runBenchMain.
void runBench() {
  // A chain of sequential multipliers: left-edge binding folds them onto a
  // few shared units.
  auto mod = std::make_unique<ir::Module>("fig4");
  auto fn = std::make_unique<ir::Function>("top");
  {
    ir::Builder b(*fn);
    const auto in = b.inPort("x", 16);
    const auto out = b.outPort("y", 16);
    ir::OpId v = b.readPort(in);
    for (int i = 0; i < 6; ++i) v = b.trunc(b.mul(v, v), 16);
    b.writePort(out, v);
    b.ret();
  }
  mod->addFunction(std::move(fn));
  mod->setTop("top");
  const auto design = hls::synthesize(std::move(mod), {}, {});

  const auto& fnRef = design.topFunction();
  auto unmerged = ir::DependencyGraph::build(fnRef);

  Table table("Fig 4: node merging under resource sharing");
  table.setHeader({"Metric", "Before merge", "After merge"});
  const auto& merged = design.top().graph;
  table.addRow({"alive graph nodes",
                std::to_string(unmerged.numAliveNodes()),
                std::to_string(merged.numAliveNodes())});
  table.addRow({"functional units", "-",
                std::to_string(design.top().binding.fus.size())});
  table.addRow({"shared units", "-",
                std::to_string(design.top().binding.sharedUnits)});
  table.addRow({"ops on shared units", "-",
                std::to_string(design.top().binding.sharedOps)});
  table.addRow({"binding muxes", "-",
                std::to_string(design.top().binding.totalMuxCount)});
  bench::emit(table, "fig4_sharing.csv");

  // Show one merged node's combined connectivity.
  for (ir::NodeId n = 0; n < merged.numNodes(); ++n) {
    if (!merged.node(n).alive ||
        merged.node(n).kind != ir::DependencyGraph::NodeKind::Merged)
      continue;
    std::printf("merged node %u: %zu member ops, fan-in %.0f wires, "
                "fan-out %.0f wires\n",
                n, merged.node(n).members.size(), merged.fanIn(n),
                merged.fanOut(n));
  }
}

}  // namespace

int main(int argc, char** argv) {
  return hcp::bench::runBenchMain("fig4_sharing", argc, argv, runBench);
}
