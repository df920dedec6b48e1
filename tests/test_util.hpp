// Shared test scaffolding. Every suite used to carry its own copy of the
// temp-path / slurp helpers; they live here once so their semantics (unique
// per-test paths, removal on destruction, binary-exact reads) cannot drift
// apart between suites.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "ml/gbrt.hpp"

namespace hcp::test {

/// A unique scratch file path under the gtest temp dir, removed on
/// destruction. The file is not created unless content is given — some
/// tests need only the name. Suites whose tests run as concurrent ctest
/// processes should fold the test name into `stem` (see uniqueStem).
class TempFile {
 public:
  explicit TempFile(const std::string& stem)
      : path_(std::string(::testing::TempDir()) + stem) {}
  TempFile(const std::string& stem, const std::string& content)
      : TempFile(stem) {
    std::ofstream os(path_, std::ios::binary);
    os << content;
  }
  ~TempFile() { std::remove(path_.c_str()); }
  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Fresh scratch directory under the gtest temp dir, removed on
/// destruction. Cleared but NOT created by default — several suites test
/// that the code under test creates its own directory; pass create=true
/// when the directory must pre-exist.
class TempDir {
 public:
  explicit TempDir(const std::string& stem, bool create = false)
      : dir_(std::string(::testing::TempDir()) + stem) {
    std::filesystem::remove_all(dir_);
    if (create) std::filesystem::create_directories(dir_);
  }
  ~TempDir() { std::filesystem::remove_all(dir_); }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
};

/// `<prefix>_<current test name>_<tag>` — a stem that stays unique when
/// ctest runs the suite's tests as concurrent processes.
inline std::string uniqueStem(const std::string& prefix,
                              const std::string& tag) {
  return prefix + "_" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         "_" + tag;
}

/// Whole file as bytes (binary mode: what was written is what compares).
inline std::string slurpFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// `text` with the `index`-th space-separated token after the first
/// `marker` replaced by `token` (corruption-test primitive).
inline std::string withToken(const std::string& text,
                             const std::string& marker, int index,
                             const std::string& token) {
  std::size_t from = text.find(marker);
  EXPECT_NE(from, std::string::npos) << marker;
  from += marker.size();
  for (int i = 0; i < index; ++i) from = text.find(' ', from) + 1;
  std::string out = text;
  return out.replace(from, out.find_first_of(" \n", from) - from, token);
}

/// Overwrites `path` with exactly `bytes` (corruption-test primitive).
inline void writeRaw(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << bytes;
}

/// Requires Gbrt::predict to equal, bit for bit, the tree-by-tree sum
/// baseline + Σ learningRate·RegressionTree::predict in tree order. Probes
/// are `rows` plus, for every split node, rows steered down the node's path
/// (ancestors taken at or one ulp above their thresholds) whose own feature
/// is the threshold exactly, one ulp either side, NaN or ±inf.
inline void expectPredictEqualsTreeSum(
    const ml::Gbrt& model, const std::vector<std::vector<double>>& rows) {
  using Node = ml::RegressionTree::Node;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto treeSum = [&](const std::vector<double>& row) {
    double y = model.baseline();
    for (const ml::RegressionTree& t : model.trees())
      y += model.config().learningRate * t.predict(row);
    return y;
  };
  ASSERT_FALSE(rows.empty());
  std::vector<std::vector<double>> probes = rows;
  for (const ml::RegressionTree& t : model.trees()) {
    const std::vector<Node>& nodes = t.nodes();
    // parent[c] = {parent index, c is its right child}; -1 at the root.
    std::vector<std::pair<std::int32_t, bool>> parent(nodes.size(),
                                                      {-1, false});
    for (std::size_t i = 0; i < nodes.size(); ++i)
      if (nodes[i].feature >= 0) {
        const auto self = static_cast<std::int32_t>(i);
        parent[static_cast<std::size_t>(nodes[i].left)] = {self, false};
        parent[static_cast<std::size_t>(nodes[i].right)] = {self, true};
      }
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const Node& n = nodes[i];
      if (n.feature < 0) continue;
      std::vector<double> steered = rows[i % rows.size()];
      for (std::size_t c = i; parent[c].first >= 0;
           c = static_cast<std::size_t>(parent[c].first)) {
        const Node& a = nodes[static_cast<std::size_t>(parent[c].first)];
        steered[static_cast<std::size_t>(a.feature)] =
            parent[c].second ? std::nextafter(a.threshold, inf) : a.threshold;
      }
      for (double v : {n.threshold, std::nextafter(n.threshold, -inf),
                       std::nextafter(n.threshold, inf), nan, inf, -inf}) {
        steered[static_cast<std::size_t>(n.feature)] = v;
        probes.push_back(steered);
      }
    }
  }
  for (std::size_t p = 0; p < probes.size(); ++p) {
    EXPECT_EQ(model.predict(probes[p]), treeSum(probes[p])) << "probe " << p;
    if (::testing::Test::HasFailure()) return;
  }
}

}  // namespace hcp::test
