#include "ml/tree.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/parallel.hpp"

namespace hcp::ml {

namespace {

/// Quantile edges of one feature column (mutates the buffer). Per quantile
/// edge an incremental nth_element over the not-yet-partitioned suffix
/// replaces a full sort: the value at sorted position idx is unique as a
/// value, so the edges are bit-identical to the sorted version — and,
/// because they depend only on the column's value multiset, identical no
/// matter how the callers chunk rows or features.
std::vector<double> quantileEdges(std::vector<double>& column,
                                  std::uint32_t numBins) {
  const std::size_t n = column.size();
  std::vector<double> edges;
  auto partitioned = column.begin();  // [begin, partitioned) is ordered
  for (std::uint32_t b = 1; b < numBins; ++b) {
    const std::size_t idx = std::min(n - 1, b * n / numBins);
    const auto nth = column.begin() + static_cast<std::ptrdiff_t>(idx);
    if (nth >= partitioned) {
      std::nth_element(partitioned, nth, column.end());
      partitioned = nth;
    }
    const double edge = *nth;
    if (edges.empty() || edge > edges.back()) edges.push_back(edge);
  }
  // Last bin is open-ended; ensure at least one edge so binOf works.
  if (edges.empty())
    edges.push_back(*std::max_element(column.begin(), column.end()));
  return edges;
}

}  // namespace

void Binner::fitStreamed(const RowSource& source, std::uint32_t numBins,
                         std::size_t columnBudgetBytes) {
  const std::size_t n = source.size();
  const std::size_t d = source.numFeatures();
  HCP_CHECK(n > 0 && d > 0);
  HCP_CHECK(numBins >= 2 && numBins <= 256);
  numBins_ = numBins;
  edges_.assign(d, {});

  // Feature-block transposition under a fixed memory budget: only
  // `block` columns of doubles are resident at a time, so binning a corpus
  // far larger than RAM costs ceil(d / block) sequential source passes.
  const std::size_t block = std::clamp<std::size_t>(
      columnBudgetBytes / (n * sizeof(double)), 1, d);
  std::vector<std::vector<double>> cols(block);
  for (std::size_t fLo = 0; fLo < d; fLo += block) {
    const std::size_t fHi = std::min(d, fLo + block);
    for (std::size_t j = 0; j < fHi - fLo; ++j) cols[j].assign(n, 0.0);
    source.visitParallel(
        [&](std::size_t i, const std::vector<double>& row, double) {
          for (std::size_t f = fLo; f < fHi; ++f) cols[f - fLo][i] = row[f];
        });
    support::parallelFor(0, fHi - fLo, 1, [&](std::size_t j) {
      edges_[fLo + j] = quantileEdges(cols[j], numBins);
    });
  }
}

std::uint8_t Binner::binOf(std::size_t feature, double value) const {
  HCP_CHECK(feature < edges_.size());
  const auto& edges = edges_[feature];
  const auto it = std::lower_bound(edges.begin(), edges.end(), value);
  return static_cast<std::uint8_t>(it - edges.begin());
}

std::vector<std::uint8_t> Binner::binRow(
    const std::vector<double>& row) const {
  std::vector<std::uint8_t> out(row.size());
  for (std::size_t f = 0; f < row.size(); ++f) out[f] = binOf(f, row[f]);
  return out;
}

double Binner::threshold(std::size_t feature, std::uint8_t bin) const {
  HCP_CHECK(feature < edges_.size());
  const auto& edges = edges_[feature];
  return edges[std::min<std::size_t>(bin, edges.size() - 1)];
}

void RegressionTree::fitBinned(
    const std::vector<std::vector<std::uint8_t>>& binned,
    const std::vector<double>& targets, std::vector<std::size_t> rows,
    const std::vector<std::size_t>& features, const Binner& binner,
    const TreeConfig& config) {
  HCP_CHECK(!rows.empty() && !features.empty());
  nodes_.clear();
  const std::size_t d = binned.front().size();
  splitCounts_.assign(d, 0);
  splitGains_.assign(d, 0.0);
  build(binned, targets, rows, features, binner, config, 0);
}

std::int32_t RegressionTree::build(
    const std::vector<std::vector<std::uint8_t>>& binned,
    const std::vector<double>& targets, std::vector<std::size_t>& rows,
    const std::vector<std::size_t>& features, const Binner& binner,
    const TreeConfig& config, int depth) {
  const auto nodeIdx = static_cast<std::int32_t>(nodes_.size());
  nodes_.emplace_back();

  double sum = 0.0;
  for (std::size_t i : rows) sum += targets[i];
  const double n = static_cast<double>(rows.size());
  nodes_[nodeIdx].value = sum / n;

  if (depth >= config.maxDepth ||
      rows.size() < 2 * config.minSamplesLeaf) {
    return nodeIdx;
  }

  // Best split by variance-reduction gain over binned histograms. The scan
  // over candidate features shards across threads; each shard computes its
  // local argmax and the merge tie-breaks on the lowest position in
  // `features` — exactly the feature the serial left-to-right scan (with its
  // strictly-greater update) would have kept, so the chosen split is
  // bit-identical at any thread count.
  const double parentScore = sum * sum / n;
  const std::uint32_t numBins = binner.numBins();

  struct SplitCandidate {
    double gain = 1e-12;
    std::size_t position = std::numeric_limits<std::size_t>::max();
    std::size_t feature = 0;
    std::uint32_t bin = 0;
  };

  // Scans feature positions [p0, p1), reusing one histogram pair.
  const auto scanRange = [&](std::size_t p0, std::size_t p1) {
    SplitCandidate best;
    std::vector<double> histSum(numBins);
    std::vector<std::uint32_t> histCount(numBins);
    for (std::size_t p = p0; p < p1; ++p) {
      const std::size_t f = features[p];
      std::fill(histSum.begin(), histSum.end(), 0.0);
      std::fill(histCount.begin(), histCount.end(), 0u);
      for (std::size_t i : rows) {
        const std::uint8_t b = binned[i][f];
        histSum[b] += targets[i];
        ++histCount[b];
      }
      double leftSum = 0.0;
      std::uint32_t leftCount = 0;
      for (std::uint32_t b = 0; b + 1 < numBins; ++b) {
        leftSum += histSum[b];
        leftCount += histCount[b];
        const std::uint32_t rightCount =
            static_cast<std::uint32_t>(rows.size()) - leftCount;
        if (leftCount < config.minSamplesLeaf ||
            rightCount < config.minSamplesLeaf)
          continue;
        const double rightSum = sum - leftSum;
        const double gain = leftSum * leftSum / leftCount +
                            rightSum * rightSum / rightCount - parentScore;
        if (gain > best.gain) {
          best.gain = gain;
          best.position = p;
          best.feature = f;
          best.bin = b;
        }
      }
    }
    return best;
  };

  SplitCandidate best;
  // Parallelize only when the node is worth it; deeper (smaller) nodes take
  // the single-scan path. Either way the merged winner is identical.
  const std::size_t work = rows.size() * features.size();
  const std::size_t concurrency =
      support::detail::effectiveConcurrency(features.size());
  if (work >= 16384 && concurrency > 1) {
    const std::size_t numShards = std::min(features.size(), concurrency);
    const std::size_t shardSize =
        (features.size() + numShards - 1) / numShards;
    const auto candidates =
        support::parallelMapIndex(numShards, [&](std::size_t s) {
          const std::size_t p0 = s * shardSize;
          const std::size_t p1 = std::min(features.size(), p0 + shardSize);
          return scanRange(p0, p1);
        });
    for (const SplitCandidate& c : candidates) {
      if (c.gain > best.gain ||
          (c.gain == best.gain && c.position < best.position))
        best = c;
    }
  } else {
    best = scanRange(0, features.size());
  }
  if (best.gain <= 1e-12) return nodeIdx;
  const std::size_t bestFeature = best.feature;
  const std::uint32_t bestBin = best.bin;
  const double bestGain = best.gain;

  // Partition rows in place.
  std::vector<std::size_t> leftRows, rightRows;
  leftRows.reserve(rows.size());
  rightRows.reserve(rows.size());
  for (std::size_t i : rows) {
    (binned[i][bestFeature] <= bestBin ? leftRows : rightRows).push_back(i);
  }
  rows.clear();
  rows.shrink_to_fit();

  ++splitCounts_[bestFeature];
  splitGains_[bestFeature] += bestGain;

  nodes_[nodeIdx].feature = static_cast<std::int32_t>(bestFeature);
  nodes_[nodeIdx].bin = static_cast<std::uint8_t>(bestBin);
  nodes_[nodeIdx].threshold = binner.threshold(bestFeature,
                                               static_cast<std::uint8_t>(
                                                   bestBin));
  const std::int32_t left =
      build(binned, targets, leftRows, features, binner, config, depth + 1);
  const std::int32_t right =
      build(binned, targets, rightRows, features, binner, config, depth + 1);
  nodes_[nodeIdx].left = left;
  nodes_[nodeIdx].right = right;
  return nodeIdx;
}

double RegressionTree::predict(const std::vector<double>& row) const {
  HCP_CHECK(!nodes_.empty());
  std::int32_t cur = 0;
  while (nodes_[cur].feature >= 0) {
    const Node& n = nodes_[cur];
    cur = row[static_cast<std::size_t>(n.feature)] <= n.threshold ? n.left
                                                                  : n.right;
  }
  return nodes_[cur].value;
}

double RegressionTree::predictBinned(
    const std::vector<std::uint8_t>& row) const {
  HCP_CHECK(!nodes_.empty());
  std::int32_t cur = 0;
  while (nodes_[cur].feature >= 0) {
    const Node& n = nodes_[cur];
    cur = row[static_cast<std::size_t>(n.feature)] <= n.bin ? n.left
                                                            : n.right;
  }
  return nodes_[cur].value;
}

void RegressionTree::fit(const Dataset& data, const TreeConfig& config,
                         std::uint32_t numBins) {
  Binner binner;
  binner.fitStreamed(DatasetSource(data), numBins);
  std::vector<std::vector<std::uint8_t>> binned(data.size());
  support::parallelFor(0, data.size(), 64, [&](std::size_t i) {
    binned[i] = binner.binRow(data.row(i));
  });
  std::vector<std::size_t> rows(data.size());
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  std::vector<std::size_t> features(data.numFeatures());
  for (std::size_t f = 0; f < features.size(); ++f) features[f] = f;
  fitBinned(binned, data.targets(), std::move(rows), features, binner,
            config);
}

int RegressionTree::depth() const {
  // Children follow their parent, so one reverse sweep sees both children's
  // heights before the parent's: linear even when a loaded tree shares
  // subtrees.
  if (nodes_.empty()) return 0;
  std::vector<int> height(nodes_.size(), 1);
  for (std::size_t i = nodes_.size(); i-- > 0;) {
    const Node& n = nodes_[i];
    if (n.feature >= 0)
      height[i] = 1 + std::max(height[static_cast<std::size_t>(n.left)],
                               height[static_cast<std::size_t>(n.right)]);
  }
  return height[0];
}

}  // namespace hcp::ml
