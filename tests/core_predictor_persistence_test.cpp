// Persistence failure paths: every trained model kind must round-trip
// through CongestionPredictor::save/load bit-identically, and malformed
// files (truncated, wrong magic, bad version, unknown kind) must be
// rejected with hcp::Error by both ml::loadModelFromFile and
// CongestionPredictor::load — never crash or silently misload.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/predictor.hpp"
#include "ml/serialize.hpp"
#include "support/error.hpp"
#include "test_util.hpp"

namespace hcp::core {
namespace {

using hcp::test::TempFile;

/// A small deterministic regression problem (same rows for V/H/avg).
LabeledDataset makeDataset() {
  LabeledDataset data;
  for (std::size_t i = 0; i < 48; ++i) {
    const double a = static_cast<double>(i % 7);
    const double b = static_cast<double>((i * 5) % 11);
    const double c = static_cast<double>(i) / 48.0;
    const std::vector<double> row = {a, b, c};
    data.vertical.add(row, 0.4 * a + 0.1 * b);
    data.horizontal.add(row, 0.2 * b + c);
    data.average.add(row, 0.3 * a + 0.1 * b + 0.5 * c);
  }
  return data;
}

PredictorOptions smallOptions(ModelKind kind) {
  PredictorOptions options;
  options.kind = kind;
  options.gbrt.numEstimators = 12;
  options.gbrt.maxDepth = 3;
  options.gbrt.minSamplesLeaf = 2;
  options.mlp.hiddenLayers = {8};
  options.mlp.maxEpochs = 12;
  options.mlp.batchSize = 16;
  options.lasso.maxIterations = 100;
  return options;
}

class PredictorPersistenceTest : public ::testing::TestWithParam<ModelKind> {};

TEST_P(PredictorPersistenceTest, RoundTripPredictsIdentically) {
  const LabeledDataset data = makeDataset();
  CongestionPredictor predictor(smallOptions(GetParam()));
  predictor.train(data);

  TempFile file(std::string("predictor_roundtrip_") +
                std::string(modelKindName(GetParam())) + ".hcp");
  predictor.save(file.path());
  const CongestionPredictor restored = CongestionPredictor::load(file.path());
  EXPECT_TRUE(restored.trained());

  for (std::size_t i = 0; i < data.vertical.size(); ++i) {
    const auto row = data.vertical.row(i);
    EXPECT_EQ(predictor.verticalModel().predict(row),
              restored.verticalModel().predict(row));
    EXPECT_EQ(predictor.horizontalModel().predict(row),
              restored.horizontalModel().predict(row));
    EXPECT_EQ(predictor.averageModel().predict(row),
              restored.averageModel().predict(row));
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, PredictorPersistenceTest,
                         ::testing::Values(ModelKind::Linear, ModelKind::Ann,
                                           ModelKind::Gbrt),
                         [](const auto& info) {
                           return std::string(modelKindName(info.param));
                         });

TEST(PredictorPersistenceFailures, SaveUntrainedThrows) {
  CongestionPredictor predictor;
  TempFile file("predictor_untrained.hcp");
  EXPECT_THROW(predictor.save(file.path()), hcp::Error);
}

TEST(PredictorPersistenceFailures, MissingFileThrows) {
  EXPECT_THROW(CongestionPredictor::load("/nonexistent/predictor.hcp"),
               hcp::Error);
  EXPECT_THROW(ml::loadModelFromFile("/nonexistent/model.hcp"), hcp::Error);
}

TEST(PredictorPersistenceFailures, TruncatedFileThrows) {
  const LabeledDataset data = makeDataset();
  CongestionPredictor predictor(smallOptions(ModelKind::Gbrt));
  predictor.train(data);
  TempFile file("predictor_truncated.hcp");
  predictor.save(file.path());

  std::string bytes;
  {
    std::ifstream is(file.path(), std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(is), {});
  }
  ASSERT_GT(bytes.size(), 2u);
  TempFile cut("predictor_truncated_half.hcp");
  {
    std::ofstream os(cut.path(), std::ios::binary);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_THROW(CongestionPredictor::load(cut.path()), hcp::Error);
  EXPECT_THROW(ml::loadModelFromFile(cut.path()), hcp::Error);
}

TEST(PredictorPersistenceFailures, WrongMagicThrows) {
  TempFile file("predictor_wrong_magic.hcp");
  {
    std::ofstream os(file.path());
    os << "not-a-predictor 1 GBRT\n";
  }
  EXPECT_THROW(CongestionPredictor::load(file.path()), hcp::Error);
  EXPECT_THROW(ml::loadModelFromFile(file.path()), hcp::Error);
}

TEST(PredictorPersistenceFailures, UnsupportedVersionThrows) {
  TempFile file("predictor_bad_version.hcp");
  {
    std::ofstream os(file.path());
    os << "hcp-predictor 99 GBRT\n";
  }
  EXPECT_THROW(CongestionPredictor::load(file.path()), hcp::Error);
}

TEST(PredictorPersistenceFailures, UnknownKindThrows) {
  TempFile file("predictor_unknown_kind.hcp");
  {
    std::ofstream os(file.path());
    os << "hcp-predictor 1 SVM\n";
  }
  EXPECT_THROW(CongestionPredictor::load(file.path()), hcp::Error);
}

TEST(PredictorPersistenceFailures, TruncationErrorNamesThePath) {
  const LabeledDataset data = makeDataset();
  CongestionPredictor predictor(smallOptions(ModelKind::Linear));
  predictor.train(data);
  TempFile file("predictor_named_path.hcp");
  predictor.save(file.path());

  std::string bytes;
  {
    std::ifstream is(file.path(), std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(is), {});
  }
  TempFile cut("predictor_named_path_cut.hcp");
  {
    std::ofstream os(cut.path(), std::ios::binary);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 40));
  }
  try {
    CongestionPredictor::load(cut.path());
    FAIL() << "truncated predictor file must not load";
  } catch (const hcp::Error& e) {
    EXPECT_NE(std::string(e.what()).find(cut.path()), std::string::npos)
        << "error message must name the file: " << e.what();
  }
}

TEST(PredictorPersistenceFailures, TrailingGarbageThrowsWithPath) {
  const LabeledDataset data = makeDataset();
  CongestionPredictor predictor(smallOptions(ModelKind::Linear));
  predictor.train(data);
  TempFile file("predictor_trailing.hcp");
  predictor.save(file.path());
  {
    std::ofstream os(file.path(), std::ios::binary | std::ios::app);
    os << "\nleftover bytes";
  }
  try {
    CongestionPredictor::load(file.path());
    FAIL() << "predictor file with trailing bytes must not load";
  } catch (const hcp::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("trailing"), std::string::npos) << what;
    EXPECT_NE(what.find(file.path()), std::string::npos) << what;
  }
}

TEST(PredictorPersistenceFailures, UnknownModelTagThrows) {
  TempFile file("model_unknown_tag.hcp");
  {
    std::ofstream os(file.path());
    os << "hcp-model svm 1\n";
  }
  EXPECT_THROW(ml::loadModelFromFile(file.path()), hcp::Error);
}


// --- structurally invalid models ---------------------------------------------
//
// Each file below differs from a loadable one in one token (or one line) and
// parses cleanly token by token; only the shape checks on load stand between
// it and a hang, a segfault or out-of-bounds reads at predict time. Every one
// must be rejected at load with an hcp::Error naming the file.

/// The bytes of a trained predictor of `kind`.
std::string savedPredictor(ModelKind kind) {
  CongestionPredictor predictor(smallOptions(kind));
  predictor.train(makeDataset());
  TempFile file(hcp::test::uniqueStem("predictor", "source") + ".hcp");
  predictor.save(file.path());
  return hcp::test::slurpFile(file.path());
}

/// Replaces token `index` of the line `below` lines under the first line
/// starting with `marker` (the whole line when `index` is npos).
std::string edit(const std::string& text, const std::string& marker,
                 std::size_t below, std::size_t index,
                 const std::string& replacement) {
  std::size_t begin = text.find("\n" + marker);
  EXPECT_NE(begin, std::string::npos) << marker;
  ++begin;
  for (std::size_t i = 0; i < below; ++i) begin = text.find('\n', begin) + 1;
  const std::size_t end = text.find('\n', begin);
  std::istringstream line(text.substr(begin, end - begin));
  std::vector<std::string> tokens;
  for (std::string t; line >> t;) tokens.push_back(t);
  std::string edited = replacement;
  if (index != std::string::npos) {
    EXPECT_LT(index, tokens.size()) << marker;
    tokens[index] = replacement;
    edited.clear();
    for (const std::string& t : tokens)
      edited += (edited.empty() ? "" : " ") + t;
  }
  return text.substr(0, begin) + edited + text.substr(end);
}

/// Expects `load` to reject `bytes` with an hcp::Error naming the file.
template <typename Load>
void expectRejected(const std::string& tag, const std::string& bytes,
                    Load load) {
  TempFile file(hcp::test::uniqueStem("invalid", tag) + ".hcp", bytes);
  try {
    load(file.path());
    ADD_FAILURE() << tag << ": structurally invalid model loaded";
  } catch (const hcp::Error& e) {
    EXPECT_NE(std::string(e.what()).find(file.path()), std::string::npos)
        << tag << ": error must name the file: " << e.what();
  }
}

void expectPredictorRejected(const std::string& tag,
                             const std::string& bytes) {
  expectRejected(tag, bytes,
                 [](const std::string& p) { CongestionPredictor::load(p); });
}

void expectModelRejected(const std::string& tag, const std::string& bytes) {
  expectRejected(tag, bytes,
                 [](const std::string& p) { ml::loadModelFromFile(p); });
}

TEST(InvalidModels, GbrtTreeLinksMustPointForwardInRange) {
  const std::string good = savedPredictor(ModelKind::Gbrt);
  // The first tree's root "<feature> <bin> <thr> <left> <right> <value>" is
  // a split (its feature is not the leaf marker -1).
  ASSERT_NE(edit(good, "tree ", 1, 0, "-1"), good);
  TempFile ok(hcp::test::uniqueStem("invalid", "gbrt_good") + ".hcp", good);
  EXPECT_NO_THROW(CongestionPredictor::load(ok.path()));
  expectPredictorRejected("self_loop", edit(good, "tree ", 1, 3, "0"));
  expectPredictorRejected("child_out_of_range",
                          edit(good, "tree ", 1, 4, "900000"));
  expectPredictorRejected("feature_out_of_range",
                          edit(good, "tree ", 1, 0, "40000000"));
}

TEST(InvalidModels, LassoWeightsMustMatchTheScaler) {
  const std::string good = savedPredictor(ModelKind::Linear);
  // "scaler\n<means>\n<stds>\n<weights>\nintercept ...".
  expectPredictorRejected("short_weights",
                          edit(good, "scaler", 3, std::string::npos, "1 0.5"));
  expectPredictorRejected("short_stds",
                          edit(good, "scaler", 2, std::string::npos, "2 1 1"));
}

TEST(InvalidModels, HugeVectorCountIsAnErrorNotAnAllocation) {
  const std::string good = savedPredictor(ModelKind::Linear);
  expectPredictorRejected("huge_count",
                          edit(good, "scaler", 1, 0, "99999999999999999"));
}

TEST(InvalidModels, NumbersOutsideTheGrammarAreRejected) {
  const std::string good = savedPredictor(ModelKind::Linear);
  // "scaler\n<means>\n<stds>\n<weights>\nintercept <value>".
  expectPredictorRejected("overflowing_weight",
                          edit(good, "scaler", 3, 1, "1e400"));
  expectPredictorRejected("nan_weight", edit(good, "scaler", 3, 1, "nan"));
  expectPredictorRejected("negative_count", edit(good, "scaler", 3, 0, "-1"));
  expectPredictorRejected("nan_intercept",
                          edit(good, "intercept", 0, 1, "nan"));
}

TEST(InvalidModels, PredictorKindMustMatchItsModels) {
  std::string bytes = savedPredictor(ModelKind::Linear);
  bytes.replace(0, bytes.find('\n'), "hcp-predictor 1 GBRT");
  expectPredictorRejected("kind_mismatch", bytes);
}

TEST(InvalidModels, MlpLayersMustChain) {
  // Every layer's weight block matches its own in/out; only the links
  // between layers, the scaler and the output width differ from `good`.
  const auto mlp = [](const std::string& layers) {
    return "hcp-model mlp 1\n" + layers +
           "scaler\n2 0 0\n2 1 1\ntarget 0 1\n";
  };
  const std::string good =
      mlp("layers 2\n2 1\n2 0.5 0.5\n1 0\n1 1\n1 2\n1 0\n");
  TempFile ok(hcp::test::uniqueStem("invalid", "mlp_good") + ".hcp", good);
  EXPECT_NO_THROW(ml::loadModelFromFile(ok.path()));
  expectModelRejected("broken_chain",
                      mlp("layers 2\n2 1\n2 0.5 0.5\n1 0\n3 1\n3 1 1 1\n"
                          "1 0\n"));
  expectModelRejected("wide_output", mlp("layers 1\n2 2\n4 1 1 1 1\n2 0 0\n"));
  expectModelRejected("scaler_width", mlp("layers 1\n3 1\n3 1 1 1\n1 0\n"));
}

}  // namespace
}  // namespace hcp::core
