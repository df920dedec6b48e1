#include "ml/serialize.hpp"

#include "ml/gbrt.hpp"
#include "ml/linear.hpp"
#include "ml/mlp.hpp"
#include "support/error.hpp"
#include "support/textio.hpp"

namespace hcp::ml {

namespace txt = support::txt;

void saveModel(const Regressor& model, std::ostream& os) {
  txt::preparePrecision(os);
  if (const auto* lasso = dynamic_cast<const LassoRegression*>(&model)) {
    os << "hcp-model lasso 1\n";
    lasso->write(os);
  } else if (const auto* mlp = dynamic_cast<const MlpRegressor*>(&model)) {
    os << "hcp-model mlp 1\n";
    mlp->write(os);
  } else if (const auto* gbrt = dynamic_cast<const Gbrt*>(&model)) {
    os << "hcp-model gbrt 1\n";
    gbrt->write(os);
  } else {
    HCP_CHECK_MSG(false, "unsupported model type " << model.name());
  }
  HCP_CHECK_MSG(os.good(), "model write failed");
}

std::unique_ptr<Regressor> loadModel(std::istream& is) {
  txt::expect(is, "hcp-model");
  const std::string kind = txt::read<std::string>(is, "model kind");
  const int version = txt::read<int>(is, "model version");
  HCP_CHECK_MSG(version == 1, "unsupported model version " << version);
  const auto load = [&](auto model) -> std::unique_ptr<Regressor> {
    model->read(is);
    return model;
  };
  if (kind == "lasso") return load(std::make_unique<LassoRegression>());
  if (kind == "mlp") return load(std::make_unique<MlpRegressor>());
  if (kind == "gbrt") return load(std::make_unique<Gbrt>());
  HCP_CHECK_MSG(false, "unknown model kind '" << kind << "'");
  return nullptr;
}

void saveModelToFile(const Regressor& model, const std::string& path) {
  // The trained model is the product (ROADMAP north star): its save is
  // verified end to end. saveModel's own os.good() check only observes
  // buffered-write failures; the post-write commit() below flushes and
  // closes under verification, so an ENOSPC short write raises hcp::IoError
  // here — with the path named and no partial file left behind (atomic
  // temp + rename) — instead of producing a truncated model that only
  // fails at load time.
  support::txt::CheckedFileWriter writer(path, "model");
  saveModel(model, writer.stream());
  writer.commit();
}

std::unique_ptr<Regressor> loadModelFromFile(const std::string& path) {
  // A model file holds exactly one model: trailing bytes mean the file was
  // concatenated, double-written or otherwise mangled.
  return txt::readFile(path, "model", loadModel);
}

}  // namespace hcp::ml

// --- member serialization definitions --------------------------------------
// Kept in this TU so the line format lives in one place.

namespace hcp::ml {


void StandardScaler::write(std::ostream& os) const {
  os << "scaler\n";
  txt::writeVec(os, mean_);
  os << '\n';
  txt::writeVec(os, std_);
  os << '\n';
}

void StandardScaler::read(std::istream& is) {
  txt::expect(is, "scaler");
  mean_ = txt::readVec<double>(is, "scaler mean");
  std_ = txt::readVec<double>(is, "scaler std");
  HCP_CHECK_MSG(mean_.size() == std_.size(),
                "scaler has " << mean_.size() << " means but " << std_.size()
                              << " stds");
  for (std::size_t j = 0; j < std_.size(); ++j)
    HCP_CHECK_MSG(std_[j] > 0.0, "scaler std " << j << " is " << std_[j]
                                               << ", must be positive");
}

void LassoRegression::write(std::ostream& os) const {
  os << "config ";
  txt::writeNum(os, config_.alpha);
  os << ' ' << config_.maxIterations << ' ';
  txt::writeNum(os, config_.tolerance);
  os << '\n';
  scaler_.write(os);
  txt::writeVec(os, weights_);
  os << "\nintercept ";
  txt::writeNum(os, intercept_);
  os << '\n';
}

void LassoRegression::read(std::istream& is) {
  txt::expect(is, "config");
  txt::readAll(is, "lasso config", config_.alpha, config_.maxIterations,
               config_.tolerance);
  scaler_.read(is);
  weights_ = txt::readVec<double>(is, "lasso weights");
  HCP_CHECK_MSG(weights_.size() == scaler_.mean().size(),
                "lasso has " << weights_.size() << " weights for "
                             << scaler_.mean().size() << " scaled features");
  txt::expect(is, "intercept");
  intercept_ = txt::read<double>(is, "lasso intercept");
}

void MlpRegressor::write(std::ostream& os) const {
  os << "layers " << layers_.size() << '\n';
  for (const Layer& l : layers_) {
    os << l.in << ' ' << l.out << '\n';
    txt::writeVec(os, l.w);
    os << '\n';
    txt::writeVec(os, l.b);
    os << '\n';
  }
  scaler_.write(os);
  os << "target ";
  txt::writeNum(os, yMean_);
  os << ' ';
  txt::writeNum(os, yStd_);
  os << '\n';
}

void MlpRegressor::read(std::istream& is) {
  txt::expect(is, "layers");
  const auto n = txt::read<std::size_t>(is, "mlp layer count");
  layers_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    Layer l;
    txt::readAll(is, "mlp layer shape", l.in, l.out);
    l.w = txt::readVec<double>(is, "mlp weights");
    l.b = txt::readVec<double>(is, "mlp biases");
    HCP_CHECK_MSG(l.w.size() == l.in * l.out && l.b.size() == l.out,
                  "mlp layer shape mismatch");
    layers_.push_back(std::move(l));
  }
  scaler_.read(is);
  // The layers chain from the scaler width down to a single output.
  std::size_t width = scaler_.mean().size();
  for (const Layer& l : layers_) {
    HCP_CHECK_MSG(l.in == width, "mlp layer takes " << l.in
                                                    << " inputs, expected "
                                                    << width);
    width = l.out;
  }
  HCP_CHECK_MSG(width == 1, "mlp has " << width << " outputs, expected 1");
  txt::expect(is, "target");
  txt::readAll(is, "mlp target", yMean_, yStd_);
}

void RegressionTree::write(std::ostream& os) const {
  os << "tree " << nodes_.size() << '\n';
  for (const Node& n : nodes_) {
    os << n.feature << ' ' << static_cast<int>(n.bin) << ' ';
    txt::writeNum(os, n.threshold);
    os << ' ' << n.left << ' ' << n.right << ' ';
    txt::writeNum(os, n.value);
    os << '\n';
  }
  os << "splits ";
  txt::writeVec(os, splitCounts_);
  os << '\n';
  txt::writeVec(os, splitGains_);
  os << '\n';
}

void RegressionTree::read(std::istream& is, std::size_t numFeatures) {
  txt::expect(is, "tree");
  const auto n = txt::read<std::size_t>(is, "tree node count");
  HCP_CHECK_MSG(n > 0, "tree has no nodes");
  nodes_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    Node node;
    int bin = 0;
    txt::readAll(is, "tree node", node.feature, bin, node.threshold,
                 node.left, node.right, node.value);
    node.bin = static_cast<std::uint8_t>(bin);
    // Children come after their parent (preorder build): forward, in-range
    // links make every root-to-leaf walk terminate inside the tree.
    const auto inTree = [&](std::int32_t child) {
      return child > static_cast<std::int64_t>(i) &&
             static_cast<std::size_t>(child) < n;
    };
    HCP_CHECK_MSG(node.feature < 0 ||
                      (static_cast<std::size_t>(node.feature) < numFeatures &&
                       inTree(node.left) && inTree(node.right)),
                  "tree node " << i << " splits on feature " << node.feature
                               << " of " << numFeatures << " with children "
                               << node.left << "/" << node.right);
    nodes_.push_back(node);
  }
  txt::expect(is, "splits");
  splitCounts_ = txt::readVec<std::uint32_t>(is, "tree split counts");
  splitGains_ = txt::readVec<double>(is, "tree split gains");
  HCP_CHECK_MSG(splitCounts_.size() <= numFeatures &&
                    splitGains_.size() <= numFeatures,
                "tree split statistics cover more than " << numFeatures
                                                         << " features");
}

void Gbrt::write(std::ostream& os) const {
  os << "config " << config_.numEstimators << ' ';
  txt::writeNum(os, config_.learningRate);
  os << ' ' << config_.maxDepth << ' ' << config_.minSamplesLeaf << ' ';
  txt::writeNum(os, config_.subsample);
  os << ' ';
  txt::writeNum(os, config_.featureFraction);
  os << ' ' << config_.numBins << ' ' << config_.seed << "\nstate ";
  txt::writeNum(os, baseline_);
  os << ' ' << numFeatures_ << ' ';
  txt::writeNum(os, trainLoss_);
  os << '\n';
  os << "forest " << trees_.size() << '\n';
  for (const RegressionTree& t : trees_) t.write(os);
}

void Gbrt::read(std::istream& is) {
  txt::expect(is, "config");
  txt::readAll(is, "gbrt config", config_.numEstimators,
               config_.learningRate, config_.maxDepth, config_.minSamplesLeaf,
               config_.subsample, config_.featureFraction, config_.numBins,
               config_.seed);
  txt::expect(is, "state");
  txt::readAll(is, "gbrt state", baseline_, numFeatures_, trainLoss_);
  txt::expect(is, "forest");
  const auto n = txt::read<std::size_t>(is, "gbrt tree count");
  trees_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    RegressionTree t;
    t.read(is, numFeatures_);
    trees_.push_back(std::move(t));
  }
  flatten();
}

}  // namespace hcp::ml
