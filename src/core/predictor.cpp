#include "core/predictor.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <typeinfo>

#include "ml/serialize.hpp"
#include "support/parallel.hpp"
#include "support/telemetry.hpp"
#include "support/textio.hpp"

namespace hcp::core {

std::string_view modelKindName(ModelKind kind) {
  switch (kind) {
    case ModelKind::Linear: return "Linear";
    case ModelKind::Ann: return "ANN";
    case ModelKind::Gbrt: return "GBRT";
  }
  return "?";
}

CongestionPredictor::CongestionPredictor(PredictorOptions options)
    : options_(std::move(options)) {}

std::unique_ptr<ml::Regressor> CongestionPredictor::makeModel() const {
  switch (options_.kind) {
    case ModelKind::Linear:
      return std::make_unique<ml::LassoRegression>(options_.lasso);
    case ModelKind::Ann:
      return std::make_unique<ml::MlpRegressor>(options_.mlp);
    case ModelKind::Gbrt:
      return std::make_unique<ml::Gbrt>(options_.gbrt);
  }
  HCP_CHECK(false);
  return nullptr;
}

void CongestionPredictor::fitModels(const ml::RowSource& source) {
  vertical_ = makeModel();
  horizontal_ = makeModel();
  average_ = makeModel();
  const std::array<ml::Regressor*, 3> models = {
      vertical_.get(), horizontal_.get(), average_.get()};
  ml::fitEachTarget(source, models);
  trained_ = true;
}

namespace {

/// A LabeledDataset as one source: the rows of `vertical`, with the
/// vertical, horizontal and average labels as its three targets.
class LabeledSource final : public ml::RowSource {
 public:
  explicit LabeledSource(const LabeledDataset& data) : data_(data) {
    HCP_CHECK_MSG(data.horizontal.size() == data.vertical.size() &&
                      data.average.size() == data.vertical.size(),
                  "labeled dataset has " << data.vertical.size() << "/"
                                         << data.horizontal.size() << "/"
                                         << data.average.size()
                                         << " rows per label");
  }

  std::size_t size() const override { return data_.vertical.size(); }
  std::size_t numFeatures() const override {
    return data_.vertical.numFeatures();
  }
  std::size_t numTargets() const override { return 3; }
  void forEach(const RowFn& fn) const override {
    for (std::size_t i = 0; i < size(); ++i)
      fn(i, data_.vertical.row(i), data_.vertical.target(i));
  }
  void forEachTargets(const TargetsFn& fn) const override {
    for (std::size_t i = 0; i < size(); ++i)
      fn(i, data_.vertical.row(i), targetsOf(i));
  }
  void visitParallelTargets(const TargetsFn& fn) const override {
    support::parallelFor(0, size(), 64, [&](std::size_t i) {
      fn(i, data_.vertical.row(i), targetsOf(i));
    });
  }

 private:
  std::array<double, 3> targetsOf(std::size_t i) const {
    return {data_.vertical.target(i), data_.horizontal.target(i),
            data_.average.target(i)};
  }

  const LabeledDataset& data_;
};

}  // namespace

void CongestionPredictor::train(const LabeledDataset& data) {
  HCP_SPAN("train");
  HCP_CHECK_MSG(data.vertical.size() > 0, "empty training dataset");
  fitModels(LabeledSource(data));
}

void CongestionPredictor::trainFromShards(const ml::shards::ShardSet& set) {
  HCP_SPAN("train_from_shards");
  HCP_CHECK_MSG(set.totalSamples() > 0,
                "empty shard set: no training samples under " << set.dir());
  fitModels(ml::shards::ShardRowSource(set, ml::shards::kAllLabels));
}

OpPrediction CongestionPredictor::predictOp(
    const features::FeatureExtractor& extractor, std::uint32_t functionIndex,
    ir::OpId op) const {
  HCP_CHECK_MSG(trained_, "predictor not trained");
  const auto x = extractor.extract(functionIndex, op);
  OpPrediction p;
  p.vertical = vertical_->predict(x);
  p.horizontal = horizontal_->predict(x);
  p.average = average_->predict(x);
  return p;
}

std::vector<Hotspot> CongestionPredictor::findHotspots(
    const hls::SynthesizedDesign& design, const features::DeviceCaps& caps,
    std::size_t topK) const {
  HCP_CHECK_MSG(trained_, "predictor not trained");
  features::FeatureExtractor extractor(design, caps);

  // Only the average model ranks regions, so it is the only one scored.
  // Ops are extracted and scored on the pool; the fold below runs in op
  // order, so every sum is the serial one at any thread count.
  std::vector<std::pair<std::uint32_t, ir::OpId>> ops;
  for (std::uint32_t f = 0; f < design.module->numFunctions(); ++f) {
    const ir::Function& fn = design.module->function(f);
    for (ir::OpId op = 0; op < fn.numOps(); ++op)
      if (ir::isFunctionalUnit(fn.op(op).opcode)) ops.emplace_back(f, op);
  }
  extractor.prepare();
  const std::vector<double> predicted = support::parallelMapIndex(
      ops.size(),
      [&](std::size_t i) {
        const auto [f, op] = ops[i];
        return average_->predict(extractor.extract(f, op));
      },
      /*grainSize=*/16);

  struct Acc {
    double sum = 0.0, max = 0.0;
    std::size_t count = 0;
  };
  std::map<std::pair<std::uint32_t, std::int32_t>, Acc> regions;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const auto [f, op] = ops[i];
    Acc& a = regions[{f, design.module->function(f).op(op).sourceLine}];
    a.sum += predicted[i];
    a.max = std::max(a.max, predicted[i]);
    ++a.count;
  }

  std::vector<Hotspot> hotspots;
  for (const auto& [key, a] : regions) {
    Hotspot h;
    h.functionIndex = key.first;
    h.functionName = design.module->function(key.first).name();
    h.sourceLine = key.second;
    h.numOps = a.count;
    h.meanPredicted = a.sum / static_cast<double>(a.count);
    h.maxPredicted = a.max;
    hotspots.push_back(std::move(h));
  }
  // Exact ties rank by (function, line), so a top-k cut through a tie group
  // keeps the same regions on every standard library.
  std::sort(hotspots.begin(), hotspots.end(),
            [](const Hotspot& a, const Hotspot& b) {
              if (a.meanPredicted != b.meanPredicted)
                return a.meanPredicted > b.meanPredicted;
              return std::pair(a.functionIndex, a.sourceLine) <
                     std::pair(b.functionIndex, b.sourceLine);
            });
  if (hotspots.size() > topK) hotspots.resize(topK);
  return hotspots;
}

std::vector<double> CongestionPredictor::featureImportance() const {
  if (!trained_ || options_.kind != ModelKind::Gbrt) return {};
  return static_cast<const ml::Gbrt&>(*vertical_).featureImportance();
}

void CongestionPredictor::save(const std::string& path) const {
  HCP_CHECK_MSG(trained_, "cannot save an untrained predictor");
  // Same fail-safe contract as ml::saveModelToFile: the in-body os.good()
  // check only sees buffered failures, so commit() re-verifies after the
  // final flush/close — a short write raises hcp::IoError naming `path`
  // and the atomic temp + rename leaves no partial predictor behind.
  support::txt::CheckedFileWriter writer(path, "model");
  std::ostream& os = writer.stream();
  os << "hcp-predictor 1 " << modelKindName(options_.kind) << "\n";
  ml::saveModel(*vertical_, os);
  ml::saveModel(*horizontal_, os);
  ml::saveModel(*average_, os);
  HCP_CHECK_MSG(os.good(), "predictor write failed");
  writer.commit();
}

CongestionPredictor CongestionPredictor::load(const std::string& path) {
  return support::txt::readFile(path, "predictor", [](std::istream& is) {
    std::string magic, kind;
    int version = 0;
    HCP_CHECK_MSG(static_cast<bool>(is >> magic) &&
                      support::txt::readNumber(is, version) &&
                      static_cast<bool>(is >> kind) &&
                      magic == "hcp-predictor" && version == 1,
                  "not a predictor file");
    PredictorOptions options;
    if (kind == "Linear") options.kind = ModelKind::Linear;
    else if (kind == "ANN") options.kind = ModelKind::Ann;
    else if (kind == "GBRT") options.kind = ModelKind::Gbrt;
    else HCP_CHECK_MSG(false, "unknown predictor kind " << kind);
    CongestionPredictor predictor(options);
    const auto expected = predictor.makeModel();
    for (auto* slot : {&predictor.vertical_, &predictor.horizontal_,
                       &predictor.average_}) {
      *slot = ml::loadModel(is);
      HCP_CHECK_MSG(typeid(**slot) == typeid(*expected),
                    kind << " predictor holds a " << (*slot)->name()
                         << " model");
    }
    predictor.trained_ = true;
    return predictor;
  });
}

}  // namespace hcp::core
