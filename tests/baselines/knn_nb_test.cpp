#include <gtest/gtest.h>

#include "baselines/classifier.h"
#include "baselines/knn.h"
#include "baselines/naive_bayes.h"
#include "data/splits.h"
#include "data/synthetic.h"
#include "nn/metrics.h"

namespace ecad::baselines {
namespace {

data::Dataset blobs(std::size_t n, std::uint64_t seed = 3) {
  data::SyntheticSpec spec;
  spec.num_samples = n;
  spec.num_features = 5;
  spec.num_classes = 3;
  spec.latent_dim = 3;
  spec.clusters_per_class = 1;
  spec.cluster_separation = 5.0;
  util::Rng rng(seed);
  return data::generate_synthetic(spec, rng);
}

TEST(Knn, OneNearestNeighbourIsPerfectOnTrainSet) {
  const data::Dataset dataset = blobs(100);
  Knn model(KnnOptions{.k = 1});
  util::Rng rng(1);
  model.fit(dataset, rng);
  EXPECT_DOUBLE_EQ(nn::accuracy(model.predict(dataset.features), dataset.labels), 1.0);
}

TEST(Knn, GeneralizesToHoldout) {
  const data::Dataset pool = blobs(300);
  util::Rng rng(2);
  const data::TrainTestSplit split = data::stratified_split(pool, 0.3, rng);
  Knn model(KnnOptions{.k = 5});
  model.fit(split.train, rng);
  EXPECT_GT(nn::accuracy(model.predict(split.test.features), split.test.labels), 0.9);
}

TEST(Knn, KLargerThanTrainSetClamps) {
  const data::Dataset dataset = blobs(10);
  Knn model(KnnOptions{.k = 100});
  util::Rng rng(3);
  model.fit(dataset, rng);
  const auto predictions = model.predict(dataset.features);
  EXPECT_EQ(predictions.size(), 10u);  // must not crash; majority vote of all
}

TEST(Knn, ZeroKThrows) {
  Knn model(KnnOptions{.k = 0});
  util::Rng rng(4);
  EXPECT_THROW(model.fit(blobs(10), rng), std::invalid_argument);
}

TEST(Knn, PredictBeforeFitThrows) {
  const Knn model;
  EXPECT_THROW(model.predict(linalg::Matrix(1, 5)), std::logic_error);
}

TEST(Knn, PredictRejectsAFeatureWidthOtherThanTraining) {
  Knn model(KnnOptions{.k = 3});
  util::Rng rng(6);
  model.fit(blobs(20), rng);  // 5 features
  EXPECT_THROW(model.predict(linalg::Matrix(2, 4)), std::invalid_argument);
  EXPECT_THROW(model.predict(linalg::Matrix(2, 6)), std::invalid_argument);
  EXPECT_EQ(model.predict(linalg::Matrix(2, 5)).size(), 2u);
}

TEST(GaussianNB, LearnsGaussianBlobs) {
  const data::Dataset pool = blobs(400, 7);
  util::Rng rng(5);
  const data::TrainTestSplit split = data::stratified_split(pool, 0.3, rng);
  GaussianNaiveBayes model;
  model.fit(split.train, rng);
  EXPECT_GT(nn::accuracy(model.predict(split.test.features), split.test.labels), 0.9);
}

TEST(GaussianNB, PriorsInfluencePredictions) {
  // Heavily imbalanced data: with overlapping clusters NB should prefer the
  // majority class on ambiguous points.
  data::SyntheticSpec spec;
  spec.num_samples = 500;
  spec.num_features = 3;
  spec.num_classes = 2;
  spec.latent_dim = 2;
  spec.clusters_per_class = 1;
  spec.cluster_separation = 0.2;  // near-total overlap
  spec.class_priors = {0.9, 0.1};
  util::Rng rng(6);
  const data::Dataset dataset = data::generate_synthetic(spec, rng);
  GaussianNaiveBayes model;
  model.fit(dataset, rng);
  const auto predictions = model.predict(dataset.features);
  std::size_t majority = 0;
  for (int p : predictions) {
    if (p == 0) ++majority;
  }
  EXPECT_GT(majority, predictions.size() / 2);
}

TEST(GaussianNB, PredictBeforeFitThrows) {
  const GaussianNaiveBayes model;
  EXPECT_THROW(model.predict(linalg::Matrix(1, 5)), std::logic_error);
}

TEST(ClassifierProtocol, KFoldAccuracyRunsFreshModelPerFold) {
  const data::Dataset pool = blobs(200, 9);
  util::Rng rng(7);
  const double accuracy = kfold_accuracy(
      [] { return std::make_unique<Knn>(KnnOptions{.k = 3}); }, pool, 5, rng);
  EXPECT_GT(accuracy, 0.85);
  EXPECT_LE(accuracy, 1.0);
}

TEST(ClassifierProtocol, HoldoutAccuracy) {
  const data::Dataset pool = blobs(200, 11);
  util::Rng rng(8);
  data::TrainTestSplit split = data::stratified_split(pool, 0.3, rng);
  GaussianNaiveBayes model;
  EXPECT_GT(holdout_accuracy(model, split, rng), 0.85);
}

}  // namespace
}  // namespace ecad::baselines
