#include "spans.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <unordered_map>

#include "net/fleet_cache.h"

namespace searchbench {

void Tracer::record(Span span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::take() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::move(spans_);
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

std::uint64_t key_hash(const ecad::evo::Genome& genome) {
  return ecad::net::fnv1a64(genome.key());
}

std::size_t join_by_key(std::vector<Span>& spans, const std::string& child_name,
                        const std::vector<std::string>& parent_names) {
  // key -> parent spans holding it.
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> holders;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (std::find(parent_names.begin(), parent_names.end(), spans[i].name) ==
        parent_names.end()) {
      continue;
    }
    for (const std::uint64_t key : spans[i].batch_keys) holders[key].push_back(i);
  }
  std::size_t unjoined = 0;
  for (Span& child : spans) {
    if (child.name != child_name || child.parent != 0) continue;
    const auto it = holders.find(child.key);
    if (it == holders.end()) {
      ++unjoined;
      continue;
    }
    // The holder whose start is nearest the child's: normally the one open
    // when the child started; a span observed by another party (a client
    // seeing a progress frame) may open a little after its server-side child.
    const Span* parent = nullptr;
    double best = 0.0;
    for (const std::size_t index : it->second) {
      const double gap = std::abs(seconds_between(spans[index].start, child.start));
      if (parent == nullptr || gap < best) {
        parent = &spans[index];
        best = gap;
      }
    }
    child.parent = parent->id;
    child.search = parent->search;
    child.generation = parent->generation;
  }
  return unjoined;
}

void inherit_trace_ids(std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  for (std::size_t i = 0; i < spans.size(); ++i) by_id[spans[i].id] = i;
  // Resolve each span through its ancestors, memoizing on the way back.
  std::vector<bool> resolved(spans.size(), false);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::size_t> chain;
    std::size_t at = i;
    while (!resolved[at] && spans[at].search == 0 && spans[at].parent != 0) {
      const auto it = by_id.find(spans[at].parent);
      if (it == by_id.end()) break;
      chain.push_back(at);
      at = it->second;
    }
    for (auto c = chain.rbegin(); c != chain.rend(); ++c) {
      const Span& parent = spans[by_id[spans[*c].parent]];
      spans[*c].search = parent.search;
      spans[*c].generation = parent.generation;
      resolved[*c] = true;
    }
    resolved[i] = true;
  }
}

std::vector<SpanTotals> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  for (std::size_t i = 0; i < spans.size(); ++i) by_id[spans[i].id] = i;
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto it = by_id.find(spans[i].parent);
    if (spans[i].parent != 0 && it != by_id.end()) children[it->second].push_back(i);
  }

  std::vector<SpanTotals> totals;
  std::map<std::string, std::size_t> slot;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    // Union of the children's intervals, clipped to the span.
    std::vector<std::pair<Clock::time_point, Clock::time_point>> covered;
    for (const std::size_t c : children[i]) {
      const Clock::time_point from = std::max(spans[c].start, span.start);
      const Clock::time_point to = std::min(spans[c].end, span.end);
      if (from < to) covered.emplace_back(from, to);
    }
    std::sort(covered.begin(), covered.end());
    double covered_seconds = 0.0;
    Clock::time_point reach = span.start;
    for (const auto& [from, to] : covered) {
      const Clock::time_point begin = std::max(from, reach);
      if (to > begin) {
        covered_seconds += seconds_between(begin, to);
        reach = to;
      }
    }
    const auto [it, inserted] = slot.emplace(span.name, totals.size());
    if (inserted) totals.push_back(SpanTotals{span.name});
    SpanTotals& entry = totals[it->second];
    ++entry.count;
    entry.total_seconds += span.seconds();
    entry.self_seconds += std::max(0.0, span.seconds() - covered_seconds - span.probe_seconds);
  }
  return totals;
}

std::vector<double> durations_ms(const std::vector<Span>& spans, const std::string& name) {
  std::vector<double> out;
  for (const Span& span : spans) {
    if (span.name == name) out.push_back(span.seconds() * 1e3);
  }
  return out;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return;
  Clock::time_point epoch = spans.empty() ? Clock::time_point{} : spans.front().start;
  for (const Span& span : spans) epoch = std::min(epoch, span.start);
  const auto micros = [epoch](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - epoch).count();
  };
  for (const Span& span : spans) {
    std::fprintf(file,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,\"search\":%llu,"
                 "\"generation\":%llu,\"start_us\":%.3f,\"end_us\":%.3f,\"key\":%llu}\n",
                 span.name.c_str(), static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<unsigned long long>(span.search),
                 static_cast<unsigned long long>(span.generation), micros(span.start),
                 micros(span.end), static_cast<unsigned long long>(span.key));
  }
  std::fclose(file);
}

}  // namespace searchbench
