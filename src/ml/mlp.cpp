#include "ml/mlp.hpp"

#include <algorithm>
#include <cmath>

#include "support/parallel.hpp"

namespace hcp::ml {

namespace {
struct AdamState {
  std::vector<double> m, v;
  explicit AdamState(std::size_t n) : m(n, 0.0), v(n, 0.0) {}
};

/// Adam on `count` parameters whose moments sit at the same offset in
/// `state`; bc1/bc2 are the step's bias corrections. Elements update
/// independently, so any split of a layer into ranges is exact.
void adamStep(double* params, const double* grad, AdamState& state,
              std::size_t offset, std::size_t count, double lr, double bc1,
              double bc2) {
  constexpr double b1 = 0.9, b2 = 0.999, eps = 1e-8;
  double* m = state.m.data() + offset;
  double* v = state.v.data() + offset;
  for (std::size_t i = 0; i < count; ++i) {
    m[i] = b1 * m[i] + (1 - b1) * grad[i];
    v[i] = b2 * v[i] + (1 - b2) * grad[i] * grad[i];
    params[i] -= lr * (m[i] / bc1) / (std::sqrt(v[i] / bc2) + eps);
  }
}

/// next[o] = b[o] + Σ_i w[o][i]·cur[i] for o in [0, out), ReLU'd when
/// `relu`. Four units run at once, each in its own accumulator that adds
/// its products in input order, so every sum is the plain serial one; the
/// independent chains just keep the adder busy.
void layerForward(const double* w, const double* b, std::size_t in,
                  std::size_t out, const double* cur, double* next,
                  bool relu) {
  const auto act = [relu](double s) { return relu ? std::max(0.0, s) : s; };
  std::size_t o = 0;
  for (; o + 4 <= out; o += 4) {
    const double* w0 = w + o * in;
    const double* w1 = w0 + in;
    const double* w2 = w1 + in;
    const double* w3 = w2 + in;
    double s0 = b[o], s1 = b[o + 1], s2 = b[o + 2], s3 = b[o + 3];
    for (std::size_t i = 0; i < in; ++i) {
      s0 += w0[i] * cur[i];
      s1 += w1[i] * cur[i];
      s2 += w2[i] * cur[i];
      s3 += w3[i] * cur[i];
    }
    next[o] = act(s0);
    next[o + 1] = act(s1);
    next[o + 2] = act(s2);
    next[o + 3] = act(s3);
  }
  for (; o < out; ++o) {
    const double* wr = w + o * in;
    double s = b[o];
    for (std::size_t i = 0; i < in; ++i) s += wr[i] * cur[i];
    next[o] = act(s);
  }
}

/// Samples per task in the per-sample phases.
constexpr std::size_t kSampleGrain = 8;
/// Weight rows per task in the gradient/update phase.
constexpr std::size_t kRowGrain = 8;
}  // namespace

void MlpRegressor::fitTargets(const RowSource& source,
                              std::span<Regressor* const> models) {
  for (std::size_t t = 0; t < models.size(); ++t) {
    const MlpConfig& c = targetModel<MlpRegressor>(models, t).config_;
    HCP_CHECK_MSG(c.batchSize > 0, "MlpConfig.batchSize must be > 0");
    HCP_CHECK_MSG(c.validationFraction >= 0.0 && c.validationFraction < 1.0,
                  "MlpConfig.validationFraction must be in [0, 1), got "
                      << c.validationFraction);
    for (std::size_t h : c.hiddenLayers)
      HCP_CHECK_MSG(h > 0, "MlpConfig.hiddenLayers widths must be > 0");
  }
  HCP_CHECK(source.size() >= 8);
  const std::size_t n = source.size();
  const std::size_t d = source.numFeatures();

  // Standardized rows, row-major n x d, shared by every target's training
  // run. The raw copy lives only until they are formed.
  std::vector<double> X(n * d);
  std::vector<std::vector<double>> targets(models.size(),
                                           std::vector<double>(n));
  StandardScaler scaler;
  {
    Dataset data(d);  // features only; the targets go to `targets`
    source.forEachTargets([&](std::size_t i, const std::vector<double>& row,
                              std::span<const double> y) {
      data.add(row, 0.0);
      for (std::size_t t = 0; t < y.size(); ++t) targets[t][i] = y[t];
    });
    scaler.fit(DatasetSource(data));
    for (std::size_t i = 0; i < n; ++i) {
      const std::vector<double> z = scaler.transform(data.row(i));
      std::copy(z.begin(), z.end(), X.data() + i * d);
    }
  }
  for (std::size_t t = 0; t < models.size(); ++t) {
    MlpRegressor& m = targetModel<MlpRegressor>(models, t);
    m.scaler_ = scaler;
    m.train(X, d, targets[t]);
  }
}

void MlpRegressor::train(const std::vector<double>& X, std::size_t d,
                         const std::vector<double>& targets) {
  const std::size_t n = targets.size();

  // Standardize the target too; gradients stay well-scaled.
  double m = 0.0;
  for (double y : targets) m += y;
  m /= static_cast<double>(n);
  double v = 0.0;
  for (double y : targets) v += (y - m) * (y - m);
  yMean_ = m;
  yStd_ = std::max(1e-9, std::sqrt(v / static_cast<double>(n)));
  std::vector<double> Y(n);
  for (std::size_t i = 0; i < n; ++i) Y[i] = (targets[i] - yMean_) / yStd_;

  // Layer shapes: d -> hidden... -> 1, He initialization.
  Rng rng(config_.seed);
  layers_.clear();
  std::vector<std::size_t> shape = {d};
  for (std::size_t h : config_.hiddenLayers) shape.push_back(h);
  shape.push_back(1);
  for (std::size_t l = 0; l + 1 < shape.size(); ++l) {
    Layer layer;
    layer.in = shape[l];
    layer.out = shape[l + 1];
    layer.w.resize(layer.in * layer.out);
    layer.b.assign(layer.out, 0.0);
    const double scale = std::sqrt(2.0 / static_cast<double>(layer.in));
    for (double& w : layer.w) w = rng.normal(0.0, scale);
    layers_.push_back(std::move(layer));
  }
  const std::size_t numLayers = layers_.size();

  // Validation split for early stopping.
  auto perm = rng.permutation(n);
  const auto valSize = std::max<std::size_t>(
      1, static_cast<std::size_t>(config_.validationFraction *
                                  static_cast<double>(n)));
  std::vector<std::size_t> valIdx(perm.begin(),
                                  perm.begin() +
                                      static_cast<std::ptrdiff_t>(valSize));
  std::vector<std::size_t> trainIdx(
      perm.begin() + static_cast<std::ptrdiff_t>(valSize), perm.end());

  std::vector<AdamState> wState, bState;
  for (const Layer& l : layers_) {
    wState.emplace_back(l.w.size());
    bState.emplace_back(l.b.size());
  }

  // Per-sample slots: every layer's outputs (and their deltas) side by side
  // at off[l]; a slot is `stride` wide. Gradients mirror the weights.
  std::vector<std::size_t> off(numLayers);
  std::size_t stride = 0;
  for (std::size_t l = 0; l < numLayers; ++l) {
    off[l] = stride;
    stride += layers_[l].out;
  }
  const std::size_t slots = config_.batchSize;
  std::vector<double> acts(slots * stride), deltas(slots * stride);
  std::vector<std::vector<double>> gw(numLayers);
  for (std::size_t l = 0; l < numLayers; ++l)
    gw[l].resize(layers_[l].w.size());
  // (layer, row) of every weight row, the gradient phase's task list.
  std::vector<std::pair<std::size_t, std::size_t>> rows;
  for (std::size_t l = 0; l < numLayers; ++l)
    for (std::size_t o = 0; o < layers_[l].out; ++o) rows.emplace_back(l, o);

  // Forward pass of row i into slot k; returns the prediction.
  const auto forwardSlot = [&](std::size_t k, std::size_t i) {
    double* a = &acts[k * stride];
    const double* cur = X.data() + i * d;
    for (std::size_t l = 0; l < numLayers; ++l) {
      const Layer& layer = layers_[l];
      // ReLU on hidden layers, identity on the output layer.
      layerForward(layer.w.data(), layer.b.data(), layer.in, layer.out, cur,
                   a + off[l], l + 1 < numLayers);
      cur = a + off[l];
    }
    return *cur;
  };

  std::vector<double> sqErr(slots);
  auto valLoss = [&] {
    double loss = 0.0;
    for (std::size_t start = 0; start < valIdx.size(); start += slots) {
      const std::size_t len = std::min(slots, valIdx.size() - start);
      support::parallelFor(0, len, kSampleGrain, [&](std::size_t k) {
        const std::size_t i = valIdx[start + k];
        const double p = forwardSlot(k, i);
        sqErr[k] = (p - Y[i]) * (p - Y[i]);
      });
      for (std::size_t k = 0; k < len; ++k) loss += sqErr[k];
    }
    return loss / static_cast<double>(valIdx.size());
  };

  bestValLoss_ = std::numeric_limits<double>::infinity();
  std::vector<Layer> bestLayers = layers_;
  std::size_t sinceBest = 0;
  std::size_t adamT = 0;
  epochsRun_ = 0;

  for (std::size_t epoch = 0; epoch < config_.maxEpochs; ++epoch) {
    rng.shuffle(trainIdx);
    for (std::size_t start = 0; start < trainIdx.size();
         start += config_.batchSize) {
      const std::size_t len =
          std::min(trainIdx.size() - start, config_.batchSize);
      const double invBatch = 1.0 / static_cast<double>(len);

      // Phase 1, per sample: forward, then backprop MSE (dL/dpred =
      // 2 (pred - y)) down to layer 1's outputs. Layer 0's input delta
      // would feed nothing, so it is never formed.
      support::parallelFor(0, len, kSampleGrain, [&](std::size_t k) {
        const std::size_t i = trainIdx[start + k];
        const double* a = &acts[k * stride];
        double* delta = &deltas[k * stride];
        delta[off[numLayers - 1]] = 2.0 * (forwardSlot(k, i) - Y[i]);
        for (std::size_t l = numLayers; l-- > 1;) {
          const Layer& layer = layers_[l];
          double* prevDelta = delta + off[l - 1];
          std::fill(prevDelta, prevDelta + layer.in, 0.0);
          for (std::size_t o = 0; o < layer.out; ++o) {
            const double dOut = delta[off[l] + o];
            if (dOut == 0.0) continue;
            const double* wRow = &layer.w[o * layer.in];
            for (std::size_t j = 0; j < layer.in; ++j)
              prevDelta[j] += dOut * wRow[j];
          }
          // ReLU derivative gates the propagated delta.
          const double* act = a + off[l - 1];
          for (std::size_t j = 0; j < layer.in; ++j)
            if (act[j] <= 0.0) prevDelta[j] = 0.0;
        }
      });

      // Phase 2, per weight row: sum the row's gradient over the batch in
      // sample order, add L2, average, then take the Adam step.
      ++adamT;
      const double bc1 = 1.0 - std::pow(0.9, static_cast<double>(adamT));
      const double bc2 = 1.0 - std::pow(0.999, static_cast<double>(adamT));
      support::parallelFor(0, rows.size(), kRowGrain, [&](std::size_t r) {
        const auto [l, o] = rows[r];
        Layer& layer = layers_[l];
        const std::size_t lo = o * layer.in;
        double* gRow = gw[l].data() + lo;
        double* wRow = layer.w.data() + lo;
        std::fill(gRow, gRow + layer.in, 0.0);
        double gb = 0.0;
        for (std::size_t k = 0; k < len; ++k) {
          const double dOut = deltas[k * stride + off[l] + o];
          if (dOut == 0.0) continue;
          const double* in = l == 0 ? X.data() + trainIdx[start + k] * d
                                    : &acts[k * stride + off[l - 1]];
          for (std::size_t j = 0; j < layer.in; ++j) gRow[j] += dOut * in[j];
          gb += dOut;
        }
        for (std::size_t j = 0; j < layer.in; ++j)
          gRow[j] = gRow[j] * invBatch + config_.l2 * wRow[j];
        gb *= invBatch;
        adamStep(wRow, gRow, wState[l], lo, layer.in, config_.learningRate,
                 bc1, bc2);
        adamStep(&layer.b[o], &gb, bState[l], o, 1, config_.learningRate,
                 bc1, bc2);
      });
    }
    ++epochsRun_;

    const double loss = valLoss();
    if (loss < bestValLoss_ - 1e-6) {
      bestValLoss_ = loss;
      bestLayers = layers_;
      sinceBest = 0;
    } else if (++sinceBest >= config_.patience) {
      break;
    }
  }
  layers_ = std::move(bestLayers);
}

double MlpRegressor::predict(const std::vector<double>& row) const {
  HCP_CHECK(scaler_.fitted());
  std::size_t width = 0;
  for (const Layer& l : layers_) width = std::max(width, l.out);
  std::vector<double> buf(2 * width);
  const std::vector<double> z = scaler_.transform(row);
  const double* cur = z.data();
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    double* next = &buf[(l % 2) * width];
    layerForward(layer.w.data(), layer.b.data(), layer.in, layer.out, cur,
                 next, l + 1 < layers_.size());
    cur = next;
  }
  return *cur * yStd_ + yMean_;
}

}  // namespace hcp::ml
