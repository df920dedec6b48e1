#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "ml/gbrt.hpp"
#include "ml/linear.hpp"
#include "ml/mlp.hpp"
#include "ml/serialize.hpp"
#include "support/failpoint.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace hcp::ml {
namespace {

Dataset makeData(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Dataset data(6);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> x(6);
    for (auto& v : x) v = rng.uniformReal(-2, 2);
    data.add(x, 3 * x[0] * x[1] - x[2] + rng.normal(0, 0.1));
  }
  return data;
}

/// Round-trip property: saved+loaded models predict bit-identically.
template <typename Model>
void roundTrip(Model&& model, const Dataset& data) {
  model.fit(data);
  std::stringstream buffer;
  saveModel(model, buffer);
  const auto restored = loadModel(buffer);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->name(), model.name());
  for (std::size_t i = 0; i < std::min<std::size_t>(50, data.size()); ++i)
    EXPECT_DOUBLE_EQ(restored->predict(data.row(i)),
                     model.predict(data.row(i)));
}

TEST(Serialize, LassoRoundTrip) {
  roundTrip(LassoRegression({.alpha = 0.05}), makeData(300, 1));
}

TEST(Serialize, MlpRoundTrip) {
  MlpConfig cfg;
  cfg.hiddenLayers = {16, 8};
  cfg.maxEpochs = 15;
  roundTrip(MlpRegressor(cfg), makeData(300, 2));
}

TEST(Serialize, GbrtRoundTrip) {
  GbrtConfig cfg;
  cfg.numEstimators = 40;
  roundTrip(Gbrt(cfg), makeData(300, 3));
}

TEST(Serialize, GbrtImportanceSurvives) {
  const auto data = makeData(400, 4);
  Gbrt model({.numEstimators = 50});
  model.fit(data);
  std::stringstream buffer;
  saveModel(model, buffer);
  const auto restored = loadModel(buffer);
  const auto& restoredGbrt = dynamic_cast<const Gbrt&>(*restored);
  const auto a = model.featureImportance();
  const auto b = restoredGbrt.featureImportance();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t f = 0; f < a.size(); ++f) EXPECT_DOUBLE_EQ(a[f], b[f]);
}

TEST(Serialize, LoadedGbrtPredictEqualsTreeByTreeSum) {
  const auto data = makeData(300, 7);
  Gbrt model({.numEstimators = 40});
  model.fit(data);
  std::stringstream buffer;
  saveModel(model, buffer);
  const auto restored = loadModel(buffer);
  std::vector<std::vector<double>> rows;
  for (std::size_t i = 0; i < 30; ++i) rows.push_back(data.row(i));
  test::expectPredictEqualsTreeSum(dynamic_cast<const Gbrt&>(*restored), rows);
}

TEST(Serialize, HandWrittenGbrtPredictEqualsTreeByTreeSum) {
  // A single-leaf tree, an unbalanced tree (a leaf at depth 2 beside a split
  // at depth 2) and a tree that splits twice on one feature.
  std::stringstream buffer(
      "hcp-model gbrt 1\n"
      "config 3 0.5 3 1 1 1 32 1\n"
      "state 2.25 2 0\n"
      "forest 3\n"
      "tree 1\n"
      "-1 0 0 -1 -1 0.75\n"
      "splits 0\n0\n"
      "tree 5\n"
      "0 0 0.5 1 2 0\n"
      "-1 0 0 -1 -1 -1\n"
      "1 0 -1 3 4 0\n"
      "-1 0 0 -1 -1 4\n"
      "-1 0 0 -1 -1 8\n"
      "splits 0\n0\n"
      "tree 5\n"
      "1 0 0 1 4 0\n"
      "1 0 -2 2 3 0\n"
      "-1 0 0 -1 -1 16\n"
      "-1 0 0 -1 -1 32\n"
      "-1 0 0 -1 -1 64\n"
      "splits 0\n0\n");
  const auto restored = loadModel(buffer);
  const auto& gbrt = dynamic_cast<const Gbrt&>(*restored);
  ASSERT_EQ(gbrt.numTrees(), 3u);
  // x0 = 0.5 goes left at the threshold; NaN goes right.
  EXPECT_EQ(gbrt.predict({0.5, -1.0}), 2.25 + 0.5 * (0.75 - 1 + 32));
  EXPECT_EQ(gbrt.predict({std::nan(""), -1.0}), 2.25 + 0.5 * (0.75 + 4 + 32));
  EXPECT_EQ(gbrt.predict({1.0, std::nan("")}), 2.25 + 0.5 * (0.75 + 8 + 64));
  test::expectPredictEqualsTreeSum(gbrt, {{0.0, 0.0}, {1.0, -3.0}});
}

TEST(Serialize, GbrtWithSharedSubtreesLoadsInLinearTime) {
  // Forward links may be shared: 62 split nodes whose two children are both
  // the next node describe 2^62 root-to-leaf paths over 63 nodes. Loading
  // (which sizes each walk by the tree's depth) must stay linear.
  std::ostringstream text;
  text << "hcp-model gbrt 1\nconfig 1 1 63 1 1 1 32 1\nstate 0 1 0\n"
       << "forest 1\ntree 63\n";
  for (int i = 0; i < 62; ++i)
    text << "0 0 " << i << ' ' << i + 1 << ' ' << i + 1 << " 0\n";
  text << "-1 0 0 -1 -1 5\nsplits 0\n0\n";
  std::stringstream buffer(text.str());
  const auto restored = loadModel(buffer);
  const auto& gbrt = dynamic_cast<const Gbrt&>(*restored);
  EXPECT_EQ(gbrt.trees().front().depth(), 63);
  EXPECT_EQ(gbrt.predict({-1.0}), 5.0);
  EXPECT_EQ(gbrt.predict({100.0}), 5.0);
}

TEST(Serialize, RejectsGarbage) {
  std::stringstream buffer("not a model at all");
  EXPECT_THROW(loadModel(buffer), hcp::Error);
}

TEST(Serialize, RejectsTruncated) {
  const auto data = makeData(100, 5);
  Gbrt model({.numEstimators = 10});
  model.fit(data);
  std::stringstream buffer;
  saveModel(model, buffer);
  const std::string full = buffer.str();
  std::stringstream cut(full.substr(0, full.size() / 2));
  EXPECT_THROW(loadModel(cut), hcp::Error);
}

TEST(Serialize, FileRoundTrip) {
  const auto data = makeData(200, 6);
  LassoRegression model;
  model.fit(data);
  const std::string path = "serialize_test_model.tmp";
  saveModelToFile(model, path);
  const auto restored = loadModelFromFile(path);
  EXPECT_DOUBLE_EQ(restored->predict(data.row(0)), model.predict(data.row(0)));
  std::remove(path.c_str());
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW(loadModelFromFile("/nonexistent/model.hcp"), hcp::Error);
}

/// Writes `content` to a fresh temp file and returns its path.
std::string writeFile(const std::string& path, const std::string& content) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << content;
  return path;
}

std::string savedModelText() {
  LassoRegression model;
  model.fit(makeData(100, 7));
  std::stringstream buffer;
  saveModel(model, buffer);
  return buffer.str();
}

TEST(Serialize, FileErrorsNameTheOffendingPath) {
  const std::string full = savedModelText();
  const std::string path =
      writeFile("serialize_test_truncated.tmp", full.substr(0, full.size() / 2));
  try {
    loadModelFromFile(path);
    FAIL() << "truncated model file must not load";
  } catch (const hcp::Error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << "error message must name the file: " << e.what();
  }
  std::remove(path.c_str());
}

TEST(Serialize, FileRejectsTrailingGarbage) {
  const std::string path = writeFile("serialize_test_trailing.tmp",
                                     savedModelText() + "\nextra junk");
  try {
    loadModelFromFile(path);
    FAIL() << "model file with trailing bytes must not load";
  } catch (const hcp::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("trailing"), std::string::npos) << what;
    EXPECT_NE(what.find(path), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST(Serialize, FileRejectsConcatenatedModels) {
  const std::string one = savedModelText();
  const std::string path = writeFile("serialize_test_double.tmp", one + one);
  EXPECT_THROW(loadModelFromFile(path), hcp::Error);
  std::remove(path.c_str());
}

/// `text` with the scaler's first std (the value after the std vector's
/// count) replaced by `value`.
std::string withFirstScalerStd(const std::string& text,
                               const std::string& value) {
  const std::size_t meanLine = text.find("scaler\n") + 7;
  const std::size_t stdLine = text.find('\n', meanLine) + 1;
  const std::size_t first = text.find(' ', stdLine) + 1;
  const std::size_t end = text.find_first_of(" \n", first);
  return text.substr(0, first) + value + text.substr(end);
}

// A fit never writes a std below 1e-12 (a constant column gets 1); a zero
// or negative one would make every prediction NaN or infinite.
TEST(Serialize, FileRejectsNonPositiveScalerStd) {
  const Dataset data = makeData(60, 12);
  LassoRegression lasso;
  lasso.fit(data);
  MlpRegressor mlp({.hiddenLayers = {4}, .maxEpochs = 3});
  mlp.fit(data);
  const std::string path = "serialize_test_scaler_std.tmp";
  for (const Regressor* model : {static_cast<const Regressor*>(&lasso),
                                 static_cast<const Regressor*>(&mlp)}) {
    std::stringstream buffer;
    saveModel(*model, buffer);
    // The edit itself keeps the file well-formed.
    writeFile(path, withFirstScalerStd(buffer.str(), "2"));
    EXPECT_NO_THROW(loadModelFromFile(path)) << model->name();
    for (const char* value : {"0", "-1"}) {
      writeFile(path, withFirstScalerStd(buffer.str(), value));
      try {
        loadModelFromFile(path);
        ADD_FAILURE() << model->name() << " with scaler std " << value
                      << " must not load";
      } catch (const hcp::Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("scaler std"), std::string::npos) << what;
        EXPECT_NE(what.find(path), std::string::npos) << what;
      }
    }
  }
  std::remove(path.c_str());
}

// --- save failure paths -----------------------------------------------------
//
// A model save is a user-requested artifact: unlike the flow cache it must
// fail loudly (hcp::IoError naming the path, exit 5 in hcp_cli) and must
// never leave a partial or temp file behind — the previous model, if any,
// stays intact.

/// Names of all files in the current directory that start with `stem`.
std::vector<std::string> filesMatching(const std::string& stem) {
  std::vector<std::string> names;
  for (const auto& entry :
       std::filesystem::directory_iterator(std::filesystem::current_path())) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(stem, 0) == 0) names.push_back(name);
  }
  return names;
}

class SaveFailure : public ::testing::Test {
 protected:
  void TearDown() override { support::failpoint::clear(); }
};

TEST_F(SaveFailure, InjectedWriteFailureThrowsIoErrorAndLeavesNoFile) {
  LassoRegression model;
  model.fit(makeData(100, 8));
  const std::string path = "serialize_test_savefail.tmp";

  support::failpoint::configure("model.write:1");
  try {
    saveModelToFile(model, path);
    FAIL() << "injected write failure must throw";
  } catch (const hcp::IoError& e) {
    EXPECT_EQ(e.path(), path);
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << "error must name the destination: " << e.what();
  }
  // No destination file, no temp-file litter.
  EXPECT_TRUE(filesMatching(path).empty());

  // Budget spent: the same call now succeeds and the model loads back.
  saveModelToFile(model, path);
  EXPECT_NE(loadModelFromFile(path), nullptr);
  std::remove(path.c_str());
}

TEST_F(SaveFailure, FailedSaveKeepsThePreviousModelIntact) {
  const std::string path = "serialize_test_keepold.tmp";
  LassoRegression old;
  old.fit(makeData(100, 9));
  saveModelToFile(old, path);
  std::ifstream before(path, std::ios::binary);
  std::stringstream beforeBytes;
  beforeBytes << before.rdbuf();

  Gbrt replacement({.numEstimators = 10});
  replacement.fit(makeData(100, 10));
  support::failpoint::configure("model.rename:1");
  EXPECT_THROW(saveModelToFile(replacement, path), hcp::IoError);

  // The old model is untouched, byte for byte, and still loads.
  std::ifstream after(path, std::ios::binary);
  std::stringstream afterBytes;
  afterBytes << after.rdbuf();
  EXPECT_EQ(beforeBytes.str(), afterBytes.str());
  EXPECT_EQ(loadModelFromFile(path)->name(), old.name());
  EXPECT_EQ(filesMatching(path).size(), 1u);
  std::remove(path.c_str());
}

TEST_F(SaveFailure, UnwritableDestinationReportsPathAndErrno) {
  LassoRegression model;
  model.fit(makeData(50, 11));
  try {
    saveModelToFile(model, "/nonexistent-dir/model.hcp");
    FAIL() << "saving into a missing directory must throw";
  } catch (const hcp::IoError& e) {
    EXPECT_EQ(e.path(), "/nonexistent-dir/model.hcp");
    EXPECT_NE(std::string(e.what()).find("/nonexistent-dir/model.hcp"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace hcp::ml
