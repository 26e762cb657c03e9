#include "data/synthetic.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ecad::data {

namespace {

// Cluster centers: random directions on a shell of radius `separation`.
// Rejection sampling enforces a minimum pairwise distance so that with few
// clusters two random directions cannot land nearly parallel and collapse
// the class structure; when the shell is too crowded (many clusters in a low
// dimension) the best candidate seen is kept instead.
std::vector<std::vector<double>> make_centers(std::size_t count, std::size_t dim,
                                              double separation, util::Rng& rng) {
  const double min_distance = separation;  // pairwise mean is separation*sqrt(2)
  std::vector<std::vector<double>> centers;
  centers.reserve(count);

  auto draw = [&rng, dim, separation] {
    std::vector<double> center(dim);
    rng.fill_gaussian(center, 0.0, 1.0);
    double norm_sq = 0.0;
    for (double v : center) norm_sq += v * v;
    const double norm = std::sqrt(std::max(norm_sq, 1e-12));
    for (double& v : center) v = v / norm * separation;
    return center;
  };
  auto min_dist_to = [&centers](const std::vector<double>& candidate) {
    double best = std::numeric_limits<double>::max();
    for (const auto& center : centers) {
      double d2 = 0.0;
      for (std::size_t i = 0; i < candidate.size(); ++i) {
        const double d = candidate[i] - center[i];
        d2 += d * d;
      }
      best = std::min(best, std::sqrt(d2));
    }
    return best;
  };

  for (std::size_t c = 0; c < count; ++c) {
    std::vector<double> best_candidate = draw();
    double best_distance = min_dist_to(best_candidate);
    for (int attempt = 0; attempt < 50 && best_distance < min_distance; ++attempt) {
      std::vector<double> candidate = draw();
      const double distance = min_dist_to(candidate);
      if (distance > best_distance) {
        best_distance = distance;
        best_candidate = std::move(candidate);
      }
    }
    centers.push_back(std::move(best_candidate));
  }
  return centers;
}

}  // namespace

Dataset generate_synthetic(const SyntheticSpec& spec, util::Rng& rng) {
  if (spec.num_classes < 2) throw std::invalid_argument("generate_synthetic: need >= 2 classes");
  if (spec.num_features == 0) throw std::invalid_argument("generate_synthetic: need features");
  if (spec.latent_dim == 0) throw std::invalid_argument("generate_synthetic: need latent dim");
  if (spec.clusters_per_class == 0) {
    throw std::invalid_argument("generate_synthetic: need clusters");
  }
  if (!spec.class_priors.empty() && spec.class_priors.size() != spec.num_classes) {
    throw std::invalid_argument("generate_synthetic: priors size mismatch");
  }
  if (spec.label_noise < 0.0 || spec.label_noise >= 1.0) {
    throw std::invalid_argument("generate_synthetic: label_noise must be in [0,1)");
  }

  // Normalized class priors -> cumulative distribution.
  std::vector<double> cdf(spec.num_classes);
  {
    double total = 0.0;
    for (std::size_t c = 0; c < spec.num_classes; ++c) {
      const double p = spec.class_priors.empty() ? 1.0 : spec.class_priors[c];
      if (p < 0.0) throw std::invalid_argument("generate_synthetic: negative prior");
      total += p;
      cdf[c] = total;
    }
    if (total <= 0.0) throw std::invalid_argument("generate_synthetic: zero prior mass");
    for (double& v : cdf) v /= total;
  }

  const std::size_t total_clusters = spec.num_classes * spec.clusters_per_class;
  const auto centers = make_centers(total_clusters, spec.latent_dim, spec.cluster_separation, rng);

  // Fixed random projection latent -> feature space, scaled so projected
  // feature variance is O(1) independent of latent_dim.
  const double projection_scale = 1.0 / std::sqrt(static_cast<double>(spec.latent_dim));
  std::vector<double> projection(spec.latent_dim * spec.num_features);
  rng.fill_gaussian(projection, 0.0, 1.0);
  for (double& v : projection) v *= projection_scale;

  // Observation noise normalized to the projected signal scale: total noise
  // variance across all features equals latent_dim * feature_noise^2, so the
  // difficulty knob means the same thing for 20-feature and 1776-feature
  // datasets.
  const double noise_per_feature =
      spec.feature_noise *
      std::sqrt(static_cast<double>(spec.latent_dim) / static_cast<double>(spec.num_features));

  Dataset dataset;
  dataset.name = spec.name;
  dataset.num_classes = spec.num_classes;
  dataset.features.reshape_discard(spec.num_samples, spec.num_features);
  dataset.labels.reserve(spec.num_samples);

  // One sample's standard-normal draws, in stream order: its latent offsets,
  // then one observation-noise draw per feature.
  std::vector<double> draws(spec.latent_dim + spec.num_features);
  const double* noise = draws.data() + spec.latent_dim;
  std::vector<double> latent(spec.latent_dim);
  std::vector<double> projected(spec.num_features);
  for (std::size_t i = 0; i < spec.num_samples; ++i) {
    // Draw the true class from the prior.
    const double u = rng.next_double();
    std::size_t true_class = 0;
    while (true_class + 1 < spec.num_classes && u > cdf[true_class]) ++true_class;

    const std::size_t cluster =
        true_class * spec.clusters_per_class + rng.next_index(spec.clusters_per_class);
    rng.fill_gaussian(draws, 0.0, 1.0);
    for (std::size_t d = 0; d < spec.latent_dim; ++d) {
      latent[d] = centers[cluster][d] + draws[d] * spec.within_cluster_stddev;
    }

    // Each feature sums latent[d] * projection[d][f] over ascending d; with
    // d outermost the inner loop runs over contiguous features.
    std::fill(projected.begin(), projected.end(), 0.0);
    for (std::size_t d = 0; d < spec.latent_dim; ++d) {
      const double component = latent[d];
      const double* direction = projection.data() + d * spec.num_features;
      for (std::size_t f = 0; f < spec.num_features; ++f) projected[f] += component * direction[f];
    }
    float* row = dataset.features.raw() + i * spec.num_features;
    for (std::size_t f = 0; f < spec.num_features; ++f) {
      row[f] = static_cast<float>(projected[f] + noise[f] * noise_per_feature);
    }

    // Label noise: flip to a uniformly random *other* class.
    std::size_t label = true_class;
    if (spec.label_noise > 0.0 && rng.next_bool(spec.label_noise)) {
      label = (true_class + 1 + rng.next_index(spec.num_classes - 1)) % spec.num_classes;
    }
    dataset.labels.push_back(static_cast<int>(label));
  }
  dataset.validate();
  return dataset;
}

}  // namespace ecad::data
