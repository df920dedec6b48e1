// Table II — the feature list (paper §III-B): dumps the registry's seven
// categories with their counts (302 total) and a few example features each.
#include "bench_common.hpp"
#include "features/feature_registry.hpp"
#include "support/strings.hpp"

using namespace hcp;
using features::Category;
using features::FeatureRegistry;

namespace {

/// The bench body; session plumbing lives in runBenchMain.
void runBench() {
  const auto& reg = FeatureRegistry::instance();
  const auto counts = reg.categoryCounts();

  Table table("Table II: feature categories (paper: 302 features total)");
  table.setHeader({"Category", "#Features", "Examples"});
  for (std::size_t c = 0; c < features::kNumCategories; ++c) {
    std::vector<std::string> examples;
    for (const auto& f : reg.all()) {
      if (static_cast<std::size_t>(f.category) == c &&
          examples.size() < 3)
        examples.push_back(f.name);
    }
    table.addRow({std::string(categoryName(static_cast<Category>(c))),
                  std::to_string(counts[c]), hcp::join(examples, ", ")});
  }
  table.addRow({"TOTAL", std::to_string(reg.size()), ""});
  bench::emit(table, "table2_features.csv");

  // Full registry CSV for reference.
  Table full("Full feature registry");
  full.setHeader({"index", "name", "category"});
  for (std::size_t i = 0; i < reg.size(); ++i)
    full.addRow({std::to_string(i), reg.info(i).name,
                 std::string(categoryName(reg.info(i).category))});
  full.writeCsv("table2_feature_registry.csv");
  std::printf("(full registry in table2_feature_registry.csv)\n");
}

}  // namespace

int main(int argc, char** argv) {
  return hcp::bench::runBenchMain("table2_features", argc, argv, runBench);
}
