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

BinnedRows Binner::fitStreamed(const RowSource& source,
                               std::uint32_t numBins,
                               std::size_t columnBudgetBytes) {
  const std::size_t n = source.size();
  const std::size_t d = source.numFeatures();
  HCP_CHECK(n > 0 && d > 0);
  HCP_CHECK(numBins >= 2 && numBins <= 256);
  numBins_ = numBins;
  edges_.assign(d, {});
  BinnedRows out;
  out.bins.resize(n * d);
  out.targets.assign(source.numTargets(), std::vector<double>(n));

  // Feature-block transposition under a fixed memory budget: only
  // `block` columns of doubles are resident at a time, so binning a corpus
  // far larger than RAM costs ceil(d / block) source passes.
  const std::size_t block = std::clamp<std::size_t>(
      columnBudgetBytes / (n * sizeof(double)), 1, d);
  std::vector<std::vector<double>> cols(block);
  for (std::size_t fLo = 0; fLo < d; fLo += block) {
    const std::size_t fHi = std::min(d, fLo + block);
    const bool first = fLo == 0;
    for (std::size_t j = 0; j < fHi - fLo; ++j) cols[j].assign(n, 0.0);
    source.visitParallelTargets([&](std::size_t i,
                                    const std::vector<double>& row,
                                    std::span<const double> y) {
      for (std::size_t f = fLo; f < fHi; ++f) cols[f - fLo][i] = row[f];
      if (first)
        for (std::size_t t = 0; t < y.size(); ++t) out.targets[t][i] = y[t];
    });
    support::parallelFor(0, fHi - fLo, 1, [&](std::size_t j) {
      const std::size_t f = fLo + j;
      // quantileEdges reorders its buffer; the rows bin from the original.
      std::vector<double> scratch = cols[j];
      edges_[f] = quantileEdges(scratch, numBins);
      std::uint8_t* col = out.bins.data() + f * n;
      for (std::size_t i = 0; i < n; ++i) col[i] = binOf(f, cols[j][i]);
    });
  }
  return out;
}

std::uint8_t Binner::binOf(std::size_t feature, double value) const {
  HCP_CHECK(feature < edges_.size());
  const auto& edges = edges_[feature];
  const auto it = std::lower_bound(edges.begin(), edges.end(), value);
  return static_cast<std::uint8_t>(it - edges.begin());
}

double Binner::threshold(std::size_t feature, std::uint8_t bin) const {
  HCP_CHECK(feature < edges_.size());
  const auto& edges = edges_[feature];
  return edges[std::min<std::size_t>(bin, edges.size() - 1)];
}

void RegressionTree::fitBinned(const std::vector<std::uint8_t>& binned,
                               std::size_t stride,
                               const std::vector<double>& targets,
                               std::vector<std::size_t> rows,
                               const std::vector<std::size_t>& features,
                               const Binner& binner,
                               const TreeConfig& config) {
  HCP_CHECK(!rows.empty() && stride > 0 && binned.size() % stride == 0);
  nodes_.clear();
  const std::size_t d = binned.size() / stride;
  splitCounts_.assign(d, 0);
  splitGains_.assign(d, 0.0);
  build(binned, stride, targets, rows, features, binner, config, 0);
}

std::int32_t RegressionTree::build(const std::vector<std::uint8_t>& binned,
                                   std::size_t stride,
                                   const std::vector<double>& targets,
                                   std::vector<std::size_t>& rows,
                                   const std::vector<std::size_t>& features,
                                   const Binner& binner,
                                   const TreeConfig& config, int depth) {
  const auto nodeIdx = static_cast<std::int32_t>(nodes_.size());
  nodes_.emplace_back();

  double sum = 0.0;
  for (std::size_t i : rows) sum += targets[i];
  const double n = static_cast<double>(rows.size());
  nodes_[nodeIdx].value = sum / n;

  // Every cut leaves rows on both sides: an empty side has no mean, and
  // with `sum - leftSum` rounded to nonzero it would score +inf and become
  // a NaN leaf. A leaf minimum of 0 therefore acts as 1.
  const std::size_t minLeaf = std::max<std::size_t>(1, config.minSamplesLeaf);
  if (depth >= config.maxDepth || rows.size() < 2 * minLeaf) return nodeIdx;

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

  // The node's targets in `rows` order, gathered once for every feature.
  std::vector<double> nodeTargets(rows.size());
  for (std::size_t k = 0; k < rows.size(); ++k)
    nodeTargets[k] = targets[rows[k]];

  // Scans feature positions [p0, p1) four at a time. One pass over the
  // node's rows fills the four features' histograms together, so their adds
  // form four independent chains: rows that fall in the same bin of one
  // feature (most rows, for a skewed feature) no longer wait on each
  // other's add. Every (feature, bin) sum still adds the same rows in
  // `rows` order, and candidates are still visited in (position, bin)
  // order, so the winner is the one a feature-at-a-time sweep would keep.
  constexpr std::size_t kWidth = 4;
  const auto scanRange = [&](std::size_t p0, std::size_t p1) {
    SplitCandidate best;
    std::vector<double> histSum(kWidth * numBins);
    std::vector<std::uint32_t> histCount(kWidth * numBins);
    for (std::size_t p = p0; p < p1; p += kWidth) {
      const std::size_t width = std::min(kWidth, p1 - p);
      // A short last block refills its final feature into the spare slots;
      // those copies are never scanned.
      const std::uint8_t* col[kWidth];
      for (std::size_t j = 0; j < kWidth; ++j)
        col[j] = binned.data() + features[p + std::min(j, width - 1)] * stride;
      std::fill(histSum.begin(), histSum.end(), 0.0);
      std::fill(histCount.begin(), histCount.end(), 0u);
      for (std::size_t k = 0; k < rows.size(); ++k) {
        const std::size_t i = rows[k];
        const double y = nodeTargets[k];
        for (std::size_t j = 0; j < kWidth; ++j) {
          const std::size_t slot = j * numBins + col[j][i];
          histSum[slot] += y;
          ++histCount[slot];
        }
      }
      for (std::size_t j = 0; j < width; ++j) {
        const double* hs = histSum.data() + j * numBins;
        const std::uint32_t* hc = histCount.data() + j * numBins;
        double leftSum = 0.0;
        std::uint32_t leftCount = 0;
        for (std::uint32_t b = 0; b + 1 < numBins; ++b) {
          leftSum += hs[b];
          leftCount += hc[b];
          const std::uint32_t rightCount =
              static_cast<std::uint32_t>(rows.size()) - leftCount;
          if (leftCount < minLeaf || rightCount < minLeaf) continue;
          const double rightSum = sum - leftSum;
          const double gain = leftSum * leftSum / leftCount +
                              rightSum * rightSum / rightCount - parentScore;
          if (gain > best.gain) {
            best.gain = gain;
            best.position = p + j;
            best.feature = features[p + j];
            best.bin = b;
          }
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
  const std::uint8_t* splitColumn = binned.data() + bestFeature * stride;
  std::vector<std::size_t> leftRows, rightRows;
  leftRows.reserve(rows.size());
  rightRows.reserve(rows.size());
  for (std::size_t i : rows)
    (splitColumn[i] <= bestBin ? leftRows : rightRows).push_back(i);
  rows.clear();
  rows.shrink_to_fit();

  ++splitCounts_[bestFeature];
  splitGains_[bestFeature] += bestGain;

  nodes_[nodeIdx].feature = static_cast<std::int32_t>(bestFeature);
  nodes_[nodeIdx].bin = static_cast<std::uint8_t>(bestBin);
  nodes_[nodeIdx].threshold = binner.threshold(bestFeature,
                                               static_cast<std::uint8_t>(
                                                   bestBin));
  const std::int32_t left = build(binned, stride, targets, leftRows,
                                  features, binner, config, depth + 1);
  const std::int32_t right = build(binned, stride, targets, rightRows,
                                   features, binner, config, depth + 1);
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

double RegressionTree::predictBinned(const std::vector<std::uint8_t>& binned,
                                     std::size_t stride,
                                     std::size_t row) const {
  HCP_CHECK(!nodes_.empty());
  std::int32_t cur = 0;
  while (nodes_[cur].feature >= 0) {
    const Node& n = nodes_[cur];
    cur = binned[static_cast<std::size_t>(n.feature) * stride + row] <= n.bin
              ? n.left
              : n.right;
  }
  return nodes_[cur].value;
}

void RegressionTree::fit(const Dataset& data, const TreeConfig& config,
                         std::uint32_t numBins) {
  Binner binner;
  const BinnedRows binned = binner.fitStreamed(DatasetSource(data), numBins);
  std::vector<std::size_t> rows(data.size());
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  std::vector<std::size_t> features(data.numFeatures());
  for (std::size_t f = 0; f < features.size(); ++f) features[f] = f;
  fitBinned(binned.bins, data.size(), binned.targets[0], std::move(rows),
            features, binner, config);
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
