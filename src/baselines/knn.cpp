#include "baselines/knn.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "linalg/vector_ops.h"

namespace ecad::baselines {

void Knn::fit(const data::Dataset& train, util::Rng&) {
  if (train.num_samples() == 0) throw std::invalid_argument("Knn: empty dataset");
  if (options_.k == 0) throw std::invalid_argument("Knn: k must be > 0");
  train_ = train;
}

std::vector<int> Knn::predict(const linalg::Matrix& features) const {
  if (train_.num_samples() == 0) throw std::logic_error("Knn: predict before fit");
  if (features.cols() != train_.features.cols()) {
    throw std::invalid_argument("Knn: predict on " + std::to_string(features.cols()) +
                                " features, trained on " +
                                std::to_string(train_.features.cols()));
  }
  const std::size_t k = std::min(options_.k, train_.num_samples());
  std::vector<int> out(features.rows());
  std::vector<std::pair<float, int>> distances(train_.num_samples());
  std::vector<std::size_t> votes(train_.num_classes);
  for (std::size_t r = 0; r < features.rows(); ++r) {
    const auto query = features.row(r);
    for (std::size_t t = 0; t < train_.num_samples(); ++t) {
      distances[t] = {linalg::squared_distance(query, train_.features.row(t)), train_.labels[t]};
    }
    std::partial_sort(distances.begin(), distances.begin() + static_cast<std::ptrdiff_t>(k),
                      distances.end(),
                      [](const auto& a, const auto& b) { return a.first < b.first; });
    std::fill(votes.begin(), votes.end(), 0);
    for (std::size_t i = 0; i < k; ++i) ++votes[static_cast<std::size_t>(distances[i].second)];
    out[r] = static_cast<int>(std::max_element(votes.begin(), votes.end()) - votes.begin());
  }
  return out;
}

}  // namespace ecad::baselines
