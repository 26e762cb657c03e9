#include "evo/genome.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>

namespace ecad::evo {
namespace {

bool in_space(const Genome& genome, const SearchSpace& space) {
  if (genome.nna.hidden.size() < space.min_hidden_layers ||
      genome.nna.hidden.size() > space.max_hidden_layers) {
    return false;
  }
  for (std::size_t width : genome.nna.hidden) {
    if (std::find(space.width_choices.begin(), space.width_choices.end(), width) ==
        space.width_choices.end()) {
      return false;
    }
  }
  if (std::find(space.activations.begin(), space.activations.end(), genome.nna.activation) ==
      space.activations.end()) {
    return false;
  }
  auto contains = [](const std::vector<std::size_t>& choices, std::size_t value) {
    return std::find(choices.begin(), choices.end(), value) != choices.end();
  };
  return contains(space.grid.row_choices, genome.grid.rows) &&
         contains(space.grid.col_choices, genome.grid.cols) &&
         contains(space.grid.vec_choices, genome.grid.vec_width) &&
         contains(space.grid.interleave_choices, genome.grid.interleave_m) &&
         contains(space.grid.interleave_choices, genome.grid.interleave_n);
}

TEST(Genome, RandomGenomesStayInSpace) {
  SearchSpace space;
  util::Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(in_space(random_genome(space, rng), space));
  }
}

TEST(Genome, MutationsStayInSpace) {
  SearchSpace space;
  util::Rng rng(2);
  Genome genome = random_genome(space, rng);
  for (int i = 0; i < 500; ++i) {
    genome = mutate(genome, space, rng);
    EXPECT_TRUE(in_space(genome, space));
  }
}

TEST(Genome, MutationEventuallyChangesEveryTraitKind) {
  SearchSpace space;
  util::Rng rng(3);
  const Genome original = random_genome(space, rng);
  bool nna_changed = false, hw_changed = false, activation_changed = false;
  Genome genome = original;
  for (int i = 0; i < 300; ++i) {
    genome = mutate(genome, space, rng);
    nna_changed |= genome.nna.hidden != original.nna.hidden;
    hw_changed |= !(genome.grid == original.grid);
    activation_changed |= genome.nna.activation != original.nna.activation;
  }
  EXPECT_TRUE(nna_changed);
  EXPECT_TRUE(hw_changed);
  EXPECT_TRUE(activation_changed);
}

TEST(Genome, HardwareFrozenWhenNotSearching) {
  SearchSpace space;
  space.search_hardware = false;
  util::Rng rng(4);
  Genome genome = random_genome(space, rng);
  const hw::GridConfig original_grid = genome.grid;
  for (int i = 0; i < 200; ++i) {
    genome = mutate(genome, space, rng);
    EXPECT_EQ(genome.grid, original_grid);
  }
}

TEST(Genome, CrossoverStaysInSpace) {
  SearchSpace space;
  util::Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const Genome a = random_genome(space, rng);
    const Genome b = random_genome(space, rng);
    EXPECT_TRUE(in_space(crossover(a, b, space, rng), space));
  }
}

TEST(Genome, CrossoverInheritsTraitsFromParents) {
  SearchSpace space;
  util::Rng rng(6);
  const Genome a = random_genome(space, rng);
  const Genome b = random_genome(space, rng);
  const Genome child = crossover(a, b, space, rng);
  EXPECT_TRUE(child.nna.activation == a.nna.activation ||
              child.nna.activation == b.nna.activation);
  EXPECT_TRUE(child.grid.rows == a.grid.rows || child.grid.rows == b.grid.rows);
  EXPECT_TRUE(child.grid.vec_width == a.grid.vec_width ||
              child.grid.vec_width == b.grid.vec_width);
}

TEST(Genome, KeyIsCanonicalAndDistinguishes) {
  SearchSpace space;
  util::Rng rng(7);
  const Genome a = random_genome(space, rng);
  Genome b = a;
  EXPECT_EQ(a.key(), b.key());
  b.nna.hidden.push_back(64);
  EXPECT_NE(a.key(), b.key());
  b = a;
  b.grid.interleave_n = b.grid.interleave_n == 1 ? 2 : 1;
  EXPECT_NE(a.key(), b.key());
  b = a;
  b.nna.use_bias = !b.nna.use_bias;
  EXPECT_NE(a.key(), b.key());
}

/// The key as a stream formatter renders it, field by field.  The fleet-cache
/// key, the per-genome training seed and the printed records all derive from
/// these bytes, so Genome::key() must never drift from them.
std::string stream_key(const Genome& genome) {
  std::ostringstream out;
  out << "h:";
  for (std::size_t i = 0; i < genome.nna.hidden.size(); ++i) {
    if (i != 0) out << '-';
    out << genome.nna.hidden[i];
  }
  const hw::GridConfig& grid = genome.grid;
  out << " a:" << nn::to_string(genome.nna.activation) << " b:" << (genome.nna.use_bias ? 1 : 0)
      << " | " << grid.rows << 'x' << grid.cols << 'x' << grid.vec_width << " im"
      << grid.interleave_m << " in" << grid.interleave_n;
  return out.str();
}

TEST(Genome, KeyBytesArePinned) {
  using nn::Activation;
  struct Case {
    std::vector<std::size_t> hidden;
    Activation activation;
    bool use_bias;
    hw::GridConfig grid;
    const char* key;
  };
  const Case cases[] = {
      {{64}, Activation::ReLU, true, {}, "h:64 a:relu b:1 | 8x8x8 im4 in4"},
      {{32, 16}, Activation::Sigmoid, false, {}, "h:32-16 a:sigmoid b:0 | 8x8x8 im4 in4"},
      {{4, 8, 16}, Activation::Tanh, true, {2, 4, 16, 1, 8}, "h:4-8-16 a:tanh b:1 | 2x4x16 im1 in8"},
      {{512, 256, 128, 1024},
       Activation::LeakyReLU,
       false,
       {32, 16, 4, 2, 4},
       "h:512-256-128-1024 a:leaky_relu b:0 | 32x16x4 im2 in4"},
      {{9}, Activation::Elu, true, {1, 1, 1, 1, 1}, "h:9 a:elu b:1 | 1x1x1 im1 in1"},
      {{12345, 7}, Activation::Identity, false, {128, 256, 64, 10, 12},
       "h:12345-7 a:identity b:0 | 128x256x64 im10 in12"},
      {{}, Activation::ReLU, true, {}, "h: a:relu b:1 | 8x8x8 im4 in4"},
  };
  for (const Case& c : cases) {
    Genome genome;
    genome.nna.hidden = c.hidden;
    genome.nna.activation = c.activation;
    genome.nna.use_bias = c.use_bias;
    genome.grid = c.grid;
    EXPECT_EQ(genome.key(), c.key);
    EXPECT_EQ(stream_key(genome), c.key);
  }
}

TEST(Genome, KeyMatchesStreamRenderingOfRandomAndMutatedGenomes) {
  SearchSpace space;
  space.width_choices.push_back(1000);
  space.grid.row_choices.push_back(64);
  util::Rng rng(21);
  for (int i = 0; i < 300; ++i) {
    Genome genome = random_genome(space, rng);
    EXPECT_EQ(genome.key(), stream_key(genome));
    genome = mutate(genome, space, rng, 3);
    EXPECT_EQ(genome.key(), stream_key(genome));
  }
}

TEST(Genome, KeysMostlyUniqueAcrossRandomDraws) {
  SearchSpace space;
  util::Rng rng(8);
  std::set<std::string> keys;
  for (int i = 0; i < 200; ++i) keys.insert(random_genome(space, rng).key());
  EXPECT_GT(keys.size(), 150u);
}

TEST(Genome, ToMlpSpecBindsSchema) {
  NnaTraits traits;
  traits.hidden = {32, 16};
  traits.activation = nn::Activation::Tanh;
  traits.use_bias = false;
  const nn::MlpSpec spec = traits.to_mlp_spec(100, 5);
  EXPECT_EQ(spec.input_dim, 100u);
  EXPECT_EQ(spec.output_dim, 5u);
  EXPECT_EQ(spec.hidden, traits.hidden);
  EXPECT_EQ(spec.activation, nn::Activation::Tanh);
  EXPECT_FALSE(spec.use_bias);
}

TEST(SearchSpace, ValidateRejectsDegenerate) {
  SearchSpace space;
  space.width_choices.clear();
  EXPECT_THROW(space.validate(), std::invalid_argument);
  space = {};
  space.min_hidden_layers = 5;
  space.max_hidden_layers = 2;
  EXPECT_THROW(space.validate(), std::invalid_argument);
  space = {};
  space.activations.clear();
  EXPECT_THROW(space.validate(), std::invalid_argument);
  space = {};
  space.grid.vec_choices.clear();
  EXPECT_THROW(space.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace ecad::evo
