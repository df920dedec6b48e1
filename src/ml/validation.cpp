#include "ml/validation.hpp"

#include "support/stats.hpp"
#include "support/telemetry.hpp"

namespace hcp::ml {

namespace detail {

FoldScore evaluateFold(
    const std::function<std::unique_ptr<Regressor>()>& factory,
    const Dataset& data, const Split& fold) {
  support::telemetry::count(support::telemetry::Counter::CvFoldsEvaluated);
  // Both sides read `data` through the fold's index lists: k-fold CV never
  // copies the rows.
  auto model = factory();
  model->fitStreaming(DatasetSource(data, fold.train));
  const DatasetSource test(data, fold.test);
  std::vector<double> targets(test.size(), 0.0);
  std::vector<double> predicted(test.size(), 0.0);
  test.visitParallel(
      [&](std::size_t i, const std::vector<double>& row, double y) {
        targets[i] = y;
        predicted[i] = model->predict(row);
      });
  const FoldScore score{meanAbsoluteError(targets, predicted),
                        medianAbsoluteError(targets, predicted)};
  support::telemetry::observe(support::telemetry::Histogram::CvFoldMae,
                              score.mae);
  support::telemetry::observe(support::telemetry::Histogram::CvFoldMedae,
                              score.medae);
  return score;
}

CvResult assemble(const std::vector<FoldScore>& scores) {
  CvResult result;
  result.foldMae.reserve(scores.size());
  result.foldMedae.reserve(scores.size());
  for (const FoldScore& s : scores) {
    result.foldMae.push_back(s.mae);
    result.foldMedae.push_back(s.medae);
  }
  result.meanMae = mean(result.foldMae);
  result.meanMedae = mean(result.foldMedae);
  return result;
}

}  // namespace detail

}  // namespace hcp::ml
