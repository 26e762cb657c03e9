#include "evo/genome.h"

#include <algorithm>
#include <stdexcept>

namespace ecad::evo {

namespace {

template <typename T>
const T& pick(const std::vector<T>& choices, util::Rng& rng) {
  return choices[rng.next_index(choices.size())];
}

}  // namespace

nn::MlpSpec NnaTraits::to_mlp_spec(std::size_t input_dim, std::size_t output_dim) const {
  nn::MlpSpec spec;
  spec.input_dim = input_dim;
  spec.output_dim = output_dim;
  spec.hidden = hidden;
  spec.activation = activation;
  spec.use_bias = use_bias;
  return spec;
}

std::string Genome::key() const {
  std::string out = "h:";
  for (std::size_t i = 0; i < nna.hidden.size(); ++i) {
    if (i != 0) out += '-';
    out += std::to_string(nna.hidden[i]);
  }
  out.append(" a:").append(nn::to_string(nna.activation));
  out.append(nna.use_bias ? " b:1 | " : " b:0 | ").append(grid.to_string());
  return out;
}

void SearchSpace::validate() const {
  if (min_hidden_layers > max_hidden_layers) {
    throw std::invalid_argument("SearchSpace: min_hidden_layers > max_hidden_layers");
  }
  if (width_choices.empty()) throw std::invalid_argument("SearchSpace: no width choices");
  if (activations.empty()) throw std::invalid_argument("SearchSpace: no activations");
  if (grid.row_choices.empty() || grid.col_choices.empty() || grid.vec_choices.empty() ||
      grid.interleave_choices.empty()) {
    throw std::invalid_argument("SearchSpace: empty grid choice list");
  }
}

Genome random_genome(const SearchSpace& space, util::Rng& rng) {
  space.validate();
  Genome genome;
  const std::size_t layers = static_cast<std::size_t>(
      rng.next_int(static_cast<std::int64_t>(space.min_hidden_layers),
                   static_cast<std::int64_t>(space.max_hidden_layers)));
  genome.nna.hidden.reserve(layers);
  for (std::size_t l = 0; l < layers; ++l) {
    genome.nna.hidden.push_back(pick(space.width_choices, rng));
  }
  genome.nna.activation = pick(space.activations, rng);
  genome.nna.use_bias = space.allow_no_bias ? rng.next_bool(0.8) : true;
  if (space.search_hardware) {
    genome.grid.rows = pick(space.grid.row_choices, rng);
    genome.grid.cols = pick(space.grid.col_choices, rng);
    genome.grid.vec_width = pick(space.grid.vec_choices, rng);
    genome.grid.interleave_m = pick(space.grid.interleave_choices, rng);
    genome.grid.interleave_n = pick(space.grid.interleave_choices, rng);
  }
  // else: keep the default grid so NNA-identical genomes share a cache key
  // (GPU searches ignore the hardware half entirely).
  return genome;
}

Genome mutate(const Genome& genome, const SearchSpace& space, util::Rng& rng, std::size_t count) {
  space.validate();
  Genome out = genome;
  count = std::max<std::size_t>(1, count);

  // NNA mutations 0-4; HW mutations 5-9 (only when searching hardware).
  const std::size_t kinds = space.search_hardware ? 10 : 5;
  for (std::size_t applied = 0; applied < count; ++applied) {
    switch (rng.next_index(kinds)) {
      case 0: {  // add a hidden layer
        if (out.nna.hidden.size() >= space.max_hidden_layers) break;
        const std::size_t position = rng.next_index(out.nna.hidden.size() + 1);
        out.nna.hidden.insert(out.nna.hidden.begin() + static_cast<std::ptrdiff_t>(position),
                              space.width_choices[rng.next_index(space.width_choices.size())]);
        break;
      }
      case 1: {  // remove a hidden layer
        if (out.nna.hidden.size() <= space.min_hidden_layers) break;
        const std::size_t position = rng.next_index(out.nna.hidden.size());
        out.nna.hidden.erase(out.nna.hidden.begin() + static_cast<std::ptrdiff_t>(position));
        break;
      }
      case 2: {  // resize a hidden layer
        if (out.nna.hidden.empty()) break;
        out.nna.hidden[rng.next_index(out.nna.hidden.size())] =
            space.width_choices[rng.next_index(space.width_choices.size())];
        break;
      }
      case 3:
        out.nna.activation = space.activations[rng.next_index(space.activations.size())];
        break;
      case 4:
        if (space.allow_no_bias) out.nna.use_bias = !out.nna.use_bias;
        break;
      case 5:
        out.grid.rows = space.grid.row_choices[rng.next_index(space.grid.row_choices.size())];
        break;
      case 6:
        out.grid.cols = space.grid.col_choices[rng.next_index(space.grid.col_choices.size())];
        break;
      case 7:
        out.grid.vec_width = space.grid.vec_choices[rng.next_index(space.grid.vec_choices.size())];
        break;
      case 8:
        out.grid.interleave_m =
            space.grid.interleave_choices[rng.next_index(space.grid.interleave_choices.size())];
        break;
      case 9:
        out.grid.interleave_n =
            space.grid.interleave_choices[rng.next_index(space.grid.interleave_choices.size())];
        break;
    }
  }
  return out;
}

Genome crossover(const Genome& a, const Genome& b, const SearchSpace& space, util::Rng& rng) {
  space.validate();
  Genome child;

  // Hidden layers: splice a prefix of one parent with a suffix of the other.
  const auto& first = rng.next_bool() ? a.nna.hidden : b.nna.hidden;
  const auto& second = (&first == &a.nna.hidden) ? b.nna.hidden : a.nna.hidden;
  const std::size_t cut_first = rng.next_index(first.size() + 1);
  const std::size_t cut_second = rng.next_index(second.size() + 1);
  child.nna.hidden.assign(first.begin(), first.begin() + static_cast<std::ptrdiff_t>(cut_first));
  child.nna.hidden.insert(child.nna.hidden.end(),
                          second.begin() + static_cast<std::ptrdiff_t>(cut_second), second.end());
  // Clamp depth into bounds.
  while (child.nna.hidden.size() > space.max_hidden_layers) child.nna.hidden.pop_back();
  while (child.nna.hidden.size() < space.min_hidden_layers) {
    child.nna.hidden.push_back(space.width_choices[rng.next_index(space.width_choices.size())]);
  }

  child.nna.activation = rng.next_bool() ? a.nna.activation : b.nna.activation;
  child.nna.use_bias = rng.next_bool() ? a.nna.use_bias : b.nna.use_bias;
  if (space.search_hardware) {
    child.grid.rows = rng.next_bool() ? a.grid.rows : b.grid.rows;
    child.grid.cols = rng.next_bool() ? a.grid.cols : b.grid.cols;
    child.grid.vec_width = rng.next_bool() ? a.grid.vec_width : b.grid.vec_width;
    child.grid.interleave_m = rng.next_bool() ? a.grid.interleave_m : b.grid.interleave_m;
    child.grid.interleave_n = rng.next_bool() ? a.grid.interleave_n : b.grid.interleave_n;
  }
  return child;
}

}  // namespace ecad::evo
