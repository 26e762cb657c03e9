#include "net/wire.h"

#include <cstring>

#include "nn/activation.h"

namespace ecad::net {

const char* to_string(MsgType type) {
  switch (type) {
    case MsgType::Hello: return "Hello";
    case MsgType::HelloAck: return "HelloAck";
    case MsgType::Ping: return "Ping";
    case MsgType::Pong: return "Pong";
    case MsgType::Shutdown: return "Shutdown";
    case MsgType::EvalBatchRequest: return "EvalBatchRequest";
    case MsgType::EvalItemResult: return "EvalItemResult";
    case MsgType::EvalBatchDone: return "EvalBatchDone";
    case MsgType::SubmitSearch: return "SubmitSearch";
    case MsgType::SearchAccepted: return "SearchAccepted";
    case MsgType::SearchProgress: return "SearchProgress";
    case MsgType::SearchDone: return "SearchDone";
    case MsgType::CancelSearch: return "CancelSearch";
    case MsgType::GetStats: return "GetStats";
    case MsgType::StatsReport: return "StatsReport";
    case MsgType::CacheLookup: return "CacheLookup";
    case MsgType::CacheStore: return "CacheStore";
  }
  return "?";
}

namespace {

bool known_msg_type(std::uint16_t raw) {
  return raw >= static_cast<std::uint16_t>(MsgType::Hello) &&
         raw <= static_cast<std::uint16_t>(MsgType::CacheStore);
}

}  // namespace

// ---------------------------------------------------------------------------
// WireWriter
// ---------------------------------------------------------------------------

void WireWriter::put_u16(std::uint16_t v) {
  put_u8(static_cast<std::uint8_t>(v));
  put_u8(static_cast<std::uint8_t>(v >> 8));
}

void WireWriter::put_u32(std::uint32_t v) {
  put_u16(static_cast<std::uint16_t>(v));
  put_u16(static_cast<std::uint16_t>(v >> 16));
}

void WireWriter::put_u64(std::uint64_t v) {
  put_u32(static_cast<std::uint32_t>(v));
  put_u32(static_cast<std::uint32_t>(v >> 32));
}

void WireWriter::put_f64(double v) {
  static_assert(sizeof(double) == sizeof(std::uint64_t), "IEEE-754 double expected");
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(bits);
}

void WireWriter::put_string(const std::string& v) {
  if (v.size() > kMaxStringBytes) {
    throw WireError("wire: string of " + std::to_string(v.size()) + " bytes exceeds the limit");
  }
  put_u32(static_cast<std::uint32_t>(v.size()));
  bytes_.insert(bytes_.end(), v.begin(), v.end());
}

void WireWriter::put_size_vector(const std::vector<std::size_t>& v) {
  if (v.size() > kMaxVectorElems) {
    throw WireError("wire: vector of " + std::to_string(v.size()) + " elements exceeds the limit");
  }
  put_u32(static_cast<std::uint32_t>(v.size()));
  for (std::size_t value : v) put_u64(static_cast<std::uint64_t>(value));
}

// ---------------------------------------------------------------------------
// WireReader
// ---------------------------------------------------------------------------

const std::uint8_t* WireReader::need(std::size_t count) {
  if (count > size_ - pos_) {
    throw WireError("wire: truncated payload (need " + std::to_string(count) + " bytes, have " +
                    std::to_string(size_ - pos_) + ")");
  }
  const std::uint8_t* at = data_ + pos_;
  pos_ += count;
  return at;
}

std::uint8_t WireReader::get_u8() { return *need(1); }

std::uint16_t WireReader::get_u16() {
  const std::uint8_t* p = need(2);
  return static_cast<std::uint16_t>(p[0] | (static_cast<std::uint16_t>(p[1]) << 8));
}

std::uint32_t WireReader::get_u32() {
  const std::uint8_t* p = need(4);
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t WireReader::get_u64() {
  const std::uint64_t lo = get_u32();
  const std::uint64_t hi = get_u32();
  return lo | (hi << 32);
}

double WireReader::get_f64() {
  const std::uint64_t bits = get_u64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string WireReader::get_string() {
  const std::uint32_t size = get_u32();
  if (size > kMaxStringBytes) {
    throw WireError("wire: string length " + std::to_string(size) + " exceeds the limit");
  }
  const std::uint8_t* p = need(size);
  return std::string(reinterpret_cast<const char*>(p), size);
}

std::vector<std::size_t> WireReader::get_size_vector() {
  const std::uint32_t count = get_u32();
  if (count > kMaxVectorElems) {
    throw WireError("wire: vector length " + std::to_string(count) + " exceeds the limit");
  }
  if (static_cast<std::size_t>(count) * 8 > remaining()) {
    throw WireError("wire: truncated vector");
  }
  std::vector<std::size_t> out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) out.push_back(static_cast<std::size_t>(get_u64()));
  return out;
}

void WireReader::expect_end() const {
  if (pos_ != size_) {
    throw WireError("wire: " + std::to_string(size_ - pos_) + " trailing bytes after payload");
  }
}

// ---------------------------------------------------------------------------
// Domain serializers
// ---------------------------------------------------------------------------

namespace {

// Activations travel as their canonical names, not enum ordinals, so the
// wire stays valid if the enum is ever reordered.
void put_activation(WireWriter& writer, nn::Activation activation) {
  writer.put_string(std::string(nn::to_string(activation)));
}

nn::Activation get_activation(WireReader& reader) {
  const std::string name = reader.get_string();
  try {
    return nn::activation_from_name(name);
  } catch (const std::invalid_argument& e) {
    throw WireError(std::string("wire: ") + e.what());
  }
}

}  // namespace

void write_genome(WireWriter& writer, const evo::Genome& genome) {
  writer.put_size_vector(genome.nna.hidden);
  put_activation(writer, genome.nna.activation);
  writer.put_bool(genome.nna.use_bias);
  writer.put_u64(genome.grid.rows);
  writer.put_u64(genome.grid.cols);
  writer.put_u64(genome.grid.vec_width);
  writer.put_u64(genome.grid.interleave_m);
  writer.put_u64(genome.grid.interleave_n);
}

evo::Genome read_genome(WireReader& reader) {
  evo::Genome genome;
  genome.nna.hidden = reader.get_size_vector();
  genome.nna.activation = get_activation(reader);
  genome.nna.use_bias = reader.get_bool();
  genome.grid.rows = static_cast<std::size_t>(reader.get_u64());
  genome.grid.cols = static_cast<std::size_t>(reader.get_u64());
  genome.grid.vec_width = static_cast<std::size_t>(reader.get_u64());
  genome.grid.interleave_m = static_cast<std::size_t>(reader.get_u64());
  genome.grid.interleave_n = static_cast<std::size_t>(reader.get_u64());
  return genome;
}

void write_eval_result(WireWriter& writer, const evo::EvalResult& result) {
  writer.put_f64(result.accuracy);
  writer.put_f64(result.outputs_per_second);
  writer.put_f64(result.latency_seconds);
  writer.put_f64(result.potential_gflops);
  writer.put_f64(result.effective_gflops);
  writer.put_f64(result.hw_efficiency);
  writer.put_f64(result.power_watts);
  writer.put_f64(result.fmax_mhz);
  writer.put_f64(result.parameters);
  writer.put_f64(result.flops_per_sample);
  writer.put_f64(result.eval_seconds);
  writer.put_bool(result.feasible);
}

evo::EvalResult read_eval_result(WireReader& reader) {
  evo::EvalResult result;
  result.accuracy = reader.get_f64();
  result.outputs_per_second = reader.get_f64();
  result.latency_seconds = reader.get_f64();
  result.potential_gflops = reader.get_f64();
  result.effective_gflops = reader.get_f64();
  result.hw_efficiency = reader.get_f64();
  result.power_watts = reader.get_f64();
  result.fmax_mhz = reader.get_f64();
  result.parameters = reader.get_f64();
  result.flops_per_sample = reader.get_f64();
  result.eval_seconds = reader.get_f64();
  result.feasible = reader.get_bool();
  return result;
}

void write_search_request(WireWriter& writer, const core::SearchRequest& request) {
  const evo::SearchSpace& space = request.space;
  writer.put_u64(space.min_hidden_layers);
  writer.put_u64(space.max_hidden_layers);
  writer.put_size_vector(space.width_choices);
  if (space.activations.size() > kMaxVectorElems) {
    throw WireError("wire: activation list exceeds the limit");
  }
  writer.put_u32(static_cast<std::uint32_t>(space.activations.size()));
  for (nn::Activation activation : space.activations) put_activation(writer, activation);
  writer.put_bool(space.allow_no_bias);
  writer.put_size_vector(space.grid.row_choices);
  writer.put_size_vector(space.grid.col_choices);
  writer.put_size_vector(space.grid.vec_choices);
  writer.put_size_vector(space.grid.interleave_choices);
  writer.put_bool(space.search_hardware);

  const evo::EvolutionConfig& evolution = request.evolution;
  writer.put_u64(evolution.population_size);
  writer.put_u64(evolution.max_evaluations);
  writer.put_u64(evolution.tournament_size);
  writer.put_f64(evolution.crossover_probability);
  writer.put_f64(evolution.mutation_strength);
  writer.put_u64(evolution.dedup_attempts);
  writer.put_u64(evolution.batch_size);
  // Overlap fields.  This encoding travels inside SubmitSearch frames, so
  // any future field addition must ride a protocol version bump (the golden
  // submit_search fixture pins today's bytes).
  writer.put_bool(evolution.overlap_generations);
  writer.put_u64(evolution.max_inflight_batches);

  writer.put_string(request.fitness);
  writer.put_u64(request.seed);
  writer.put_u64(request.threads);
}

core::SearchRequest read_search_request(WireReader& reader) {
  core::SearchRequest request;
  evo::SearchSpace& space = request.space;
  space.min_hidden_layers = static_cast<std::size_t>(reader.get_u64());
  space.max_hidden_layers = static_cast<std::size_t>(reader.get_u64());
  space.width_choices = reader.get_size_vector();
  const std::uint32_t activation_count = reader.get_u32();
  if (activation_count > kMaxVectorElems) {
    throw WireError("wire: activation list length exceeds the limit");
  }
  space.activations.clear();
  space.activations.reserve(activation_count);
  for (std::uint32_t i = 0; i < activation_count; ++i) {
    space.activations.push_back(get_activation(reader));
  }
  space.allow_no_bias = reader.get_bool();
  space.grid.row_choices = reader.get_size_vector();
  space.grid.col_choices = reader.get_size_vector();
  space.grid.vec_choices = reader.get_size_vector();
  space.grid.interleave_choices = reader.get_size_vector();
  space.search_hardware = reader.get_bool();

  evo::EvolutionConfig& evolution = request.evolution;
  evolution.population_size = static_cast<std::size_t>(reader.get_u64());
  evolution.max_evaluations = static_cast<std::size_t>(reader.get_u64());
  evolution.tournament_size = static_cast<std::size_t>(reader.get_u64());
  evolution.crossover_probability = reader.get_f64();
  evolution.mutation_strength = reader.get_f64();
  evolution.dedup_attempts = static_cast<std::size_t>(reader.get_u64());
  evolution.batch_size = static_cast<std::size_t>(reader.get_u64());
  evolution.overlap_generations = reader.get_bool();
  evolution.max_inflight_batches = static_cast<std::size_t>(reader.get_u64());

  request.fitness = reader.get_string();
  request.seed = reader.get_u64();
  request.threads = static_cast<std::size_t>(reader.get_u64());
  return request;
}

// ---------------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------------

void write_eval_batch_request(WireWriter& writer, const EvalBatchRequest& request) {
  if (request.genomes.size() > kMaxBatchItems) {
    throw WireError("wire: batch of " + std::to_string(request.genomes.size()) +
                    " genomes exceeds the limit");
  }
  writer.put_u64(request.batch_id);
  writer.put_u32(static_cast<std::uint32_t>(request.genomes.size()));
  for (const evo::Genome& genome : request.genomes) write_genome(writer, genome);
}

EvalBatchRequest read_eval_batch_request(WireReader& reader) {
  EvalBatchRequest request;
  request.batch_id = reader.get_u64();
  const std::uint32_t count = reader.get_u32();
  if (count > kMaxBatchItems) {
    throw WireError("wire: batch length " + std::to_string(count) + " exceeds the limit");
  }
  request.genomes.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) request.genomes.push_back(read_genome(reader));
  return request;
}

namespace {

// One outcome slot: u8 ok + (EvalResult | string error).
void put_outcome(WireWriter& writer, const evo::EvalOutcome& item) {
  writer.put_bool(item.ok);
  if (item.ok) {
    write_eval_result(writer, item.result);
  } else {
    writer.put_string(item.error);
  }
}

evo::EvalOutcome get_outcome(WireReader& reader) {
  evo::EvalOutcome item;
  item.ok = reader.get_bool();
  if (item.ok) {
    item.result = read_eval_result(reader);
  } else {
    item.error = reader.get_string();
  }
  return item;
}

}  // namespace

void write_eval_item_result(WireWriter& writer, const EvalItemResult& item) {
  if (item.index >= kMaxBatchItems) {
    throw WireError("wire: item index " + std::to_string(item.index) + " exceeds the limit");
  }
  writer.put_u64(item.batch_id);
  writer.put_u32(item.index);
  put_outcome(writer, item.outcome);
}

EvalItemResult read_eval_item_result(WireReader& reader) {
  EvalItemResult item;
  item.batch_id = reader.get_u64();
  item.index = reader.get_u32();
  if (item.index >= kMaxBatchItems) {
    throw WireError("wire: item index " + std::to_string(item.index) + " exceeds the limit");
  }
  item.outcome = get_outcome(reader);
  return item;
}

void write_eval_batch_done(WireWriter& writer, const EvalBatchDone& done) {
  if (done.count > kMaxBatchItems) {
    throw WireError("wire: batch-done count " + std::to_string(done.count) +
                    " exceeds the limit");
  }
  writer.put_u64(done.batch_id);
  writer.put_u32(done.count);
}

EvalBatchDone read_eval_batch_done(WireReader& reader) {
  EvalBatchDone done;
  done.batch_id = reader.get_u64();
  done.count = reader.get_u32();
  if (done.count > kMaxBatchItems) {
    throw WireError("wire: batch-done count " + std::to_string(done.count) +
                    " exceeds the limit");
  }
  return done;
}

// ---------------------------------------------------------------------------
// Search service
// ---------------------------------------------------------------------------

void write_candidate(WireWriter& writer, const evo::Candidate& candidate) {
  write_genome(writer, candidate.genome);
  write_eval_result(writer, candidate.result);
  writer.put_f64(candidate.fitness);
}

evo::Candidate read_candidate(WireReader& reader) {
  evo::Candidate candidate;
  candidate.genome = read_genome(reader);
  candidate.result = read_eval_result(reader);
  candidate.fitness = reader.get_f64();
  return candidate;
}

void write_search_record(WireWriter& writer, const SearchRecord& record) {
  if (record.history.size() > kMaxRecordCandidates) {
    throw WireError("wire: search record of " + std::to_string(record.history.size()) +
                    " candidates exceeds the limit");
  }
  writer.put_u32(static_cast<std::uint32_t>(record.history.size()));
  for (const evo::Candidate& candidate : record.history) write_candidate(writer, candidate);
  write_candidate(writer, record.best);
  writer.put_u64(record.models_evaluated);
  writer.put_u64(record.duplicates_skipped);
}

SearchRecord read_search_record(WireReader& reader) {
  SearchRecord record;
  const std::uint32_t count = reader.get_u32();
  if (count > kMaxRecordCandidates) {
    throw WireError("wire: search record length " + std::to_string(count) +
                    " exceeds the limit");
  }
  record.history.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) record.history.push_back(read_candidate(reader));
  record.best = read_candidate(reader);
  record.models_evaluated = reader.get_u64();
  record.duplicates_skipped = reader.get_u64();
  return record;
}

void write_submit_search(WireWriter& writer, const SubmitSearch& submit) {
  writer.put_u64(submit.submit_id);
  write_search_request(writer, submit.request);
}

SubmitSearch read_submit_search(WireReader& reader) {
  SubmitSearch submit;
  submit.submit_id = reader.get_u64();
  submit.request = read_search_request(reader);
  return submit;
}

void write_search_accepted(WireWriter& writer, const SearchAccepted& accepted) {
  writer.put_u64(accepted.submit_id);
  writer.put_u64(accepted.search_id);
  writer.put_u32(accepted.queue_position);
}

SearchAccepted read_search_accepted(WireReader& reader) {
  SearchAccepted accepted;
  accepted.submit_id = reader.get_u64();
  accepted.search_id = reader.get_u64();
  accepted.queue_position = reader.get_u32();
  return accepted;
}

void write_search_progress(WireWriter& writer, const SearchProgress& progress) {
  writer.put_u64(progress.search_id);
  writer.put_u32(progress.generation);
  writer.put_u64(progress.models_evaluated);
  writer.put_u64(progress.max_evaluations);
  writer.put_u32(progress.pareto_front_size);
  writer.put_f64(progress.best_fitness);
}

SearchProgress read_search_progress(WireReader& reader) {
  SearchProgress progress;
  progress.search_id = reader.get_u64();
  progress.generation = reader.get_u32();
  progress.models_evaluated = reader.get_u64();
  progress.max_evaluations = reader.get_u64();
  progress.pareto_front_size = reader.get_u32();
  progress.best_fitness = reader.get_f64();
  return progress;
}

void write_search_done(WireWriter& writer, const SearchDone& done) {
  writer.put_u64(done.search_id);
  writer.put_u8(static_cast<std::uint8_t>(done.status));
  if (done.status == SearchDone::Status::Completed) {
    write_search_record(writer, done.record);
  } else {
    writer.put_string(done.message);
  }
}

SearchDone read_search_done(WireReader& reader) {
  SearchDone done;
  done.search_id = reader.get_u64();
  const std::uint8_t raw_status = reader.get_u8();
  if (raw_status > static_cast<std::uint8_t>(SearchDone::Status::Canceled)) {
    throw WireError("wire: unknown SearchDone status " + std::to_string(raw_status));
  }
  done.status = static_cast<SearchDone::Status>(raw_status);
  if (done.status == SearchDone::Status::Completed) {
    done.record = read_search_record(reader);
  } else {
    done.message = reader.get_string();
  }
  return done;
}

void write_cancel_search(WireWriter& writer, const CancelSearch& cancel) {
  writer.put_u64(cancel.search_id);
}

CancelSearch read_cancel_search(WireReader& reader) {
  CancelSearch cancel;
  cancel.search_id = reader.get_u64();
  return cancel;
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

void write_get_stats(WireWriter& writer, const GetStats& request) {
  writer.put_string(request.prefix);
}

GetStats read_get_stats(WireReader& reader) {
  GetStats request;
  request.prefix = reader.get_string();
  return request;
}

namespace {

void put_stats_entry(WireWriter& writer, const StatsEntry& entry) {
  if (entry.buckets.size() > kMaxHistogramBuckets) {
    throw WireError("wire: histogram of " + std::to_string(entry.buckets.size()) +
                    " buckets exceeds the limit");
  }
  writer.put_string(entry.name);
  writer.put_u8(entry.kind);
  writer.put_f64(entry.value);
  writer.put_u64(entry.count);
  writer.put_f64(entry.sum);
  writer.put_u32(static_cast<std::uint32_t>(entry.buckets.size()));
  for (std::uint64_t bucket : entry.buckets) writer.put_u64(bucket);
}

StatsEntry get_stats_entry(WireReader& reader) {
  StatsEntry entry;
  entry.name = reader.get_string();
  entry.kind = reader.get_u8();
  entry.value = reader.get_f64();
  entry.count = reader.get_u64();
  entry.sum = reader.get_f64();
  const std::uint32_t bucket_count = reader.get_u32();
  if (bucket_count > kMaxHistogramBuckets) {
    throw WireError("wire: histogram bucket count " + std::to_string(bucket_count) +
                    " exceeds the limit");
  }
  entry.buckets.reserve(bucket_count);
  for (std::uint32_t i = 0; i < bucket_count; ++i) entry.buckets.push_back(reader.get_u64());
  return entry;
}

}  // namespace

void write_stats_report(WireWriter& writer, const StatsReport& report) {
  if (report.entries.size() > kMaxStatsEntries) {
    throw WireError("wire: stats report of " + std::to_string(report.entries.size()) +
                    " entries exceeds the limit");
  }
  writer.put_u32(static_cast<std::uint32_t>(report.entries.size()));
  for (const StatsEntry& entry : report.entries) put_stats_entry(writer, entry);
}

StatsReport read_stats_report(WireReader& reader) {
  StatsReport report;
  const std::uint32_t count = reader.get_u32();
  if (count > kMaxStatsEntries) {
    throw WireError("wire: stats report length " + std::to_string(count) + " exceeds the limit");
  }
  report.entries.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) report.entries.push_back(get_stats_entry(reader));
  return report;
}

// ---------------------------------------------------------------------------
// Fleet cache
// ---------------------------------------------------------------------------

void write_cache_lookup(WireWriter& writer, const CacheLookup& lookup) {
  if (lookup.keys.size() > kMaxCacheEntries) {
    throw WireError("wire: cache lookup of " + std::to_string(lookup.keys.size()) +
                    " keys exceeds the limit");
  }
  writer.put_u32(static_cast<std::uint32_t>(lookup.keys.size()));
  for (std::uint64_t key : lookup.keys) writer.put_u64(key);
}

CacheLookup read_cache_lookup(WireReader& reader) {
  CacheLookup lookup;
  const std::uint32_t count = reader.get_u32();
  if (count > kMaxCacheEntries) {
    throw WireError("wire: cache lookup length " + std::to_string(count) + " exceeds the limit");
  }
  if (static_cast<std::size_t>(count) * 8 > reader.remaining()) {
    throw WireError("wire: truncated cache lookup");
  }
  lookup.keys.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) lookup.keys.push_back(reader.get_u64());
  return lookup;
}

void write_cache_store(WireWriter& writer, const CacheStore& store) {
  if (store.entries.size() > kMaxCacheEntries) {
    throw WireError("wire: cache store of " + std::to_string(store.entries.size()) +
                    " entries exceeds the limit");
  }
  writer.put_u32(static_cast<std::uint32_t>(store.entries.size()));
  for (const CacheEntry& entry : store.entries) {
    writer.put_u64(entry.key);
    write_eval_result(writer, entry.result);
  }
}

CacheStore read_cache_store(WireReader& reader) {
  CacheStore store;
  const std::uint32_t count = reader.get_u32();
  if (count > kMaxCacheEntries) {
    throw WireError("wire: cache store length " + std::to_string(count) + " exceeds the limit");
  }
  store.entries.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    CacheEntry entry;
    entry.key = reader.get_u64();
    entry.result = read_eval_result(reader);
    store.entries.push_back(entry);
  }
  return store;
}

// ---------------------------------------------------------------------------
// Handshake payloads
// ---------------------------------------------------------------------------

void write_hello_payload(WireWriter& writer, const std::string& name) { writer.put_string(name); }

std::string read_hello_payload(WireReader& reader) {
  std::string name = reader.get_string();
  reader.expect_end();
  return name;
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> encode_frame(MsgType type, const std::vector<std::uint8_t>& payload) {
  if (payload.size() > kMaxPayloadBytes) {
    throw WireError("wire: payload of " + std::to_string(payload.size()) +
                    " bytes exceeds the frame limit");
  }
  WireWriter header;
  header.put_u32(kWireMagic);
  header.put_u16(kProtocolVersion);
  header.put_u16(static_cast<std::uint16_t>(type));
  header.put_u32(static_cast<std::uint32_t>(payload.size()));
  std::vector<std::uint8_t> frame = header.take();
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

FrameHeader decode_frame_header(const std::uint8_t* header) {
  WireReader reader(header, kFrameHeaderBytes);
  const std::uint32_t magic = reader.get_u32();
  if (magic != kWireMagic) {
    throw WireError("wire: bad frame magic (not an ECAD peer?)");
  }
  const std::uint16_t version = reader.get_u16();
  if (version != kProtocolVersion) {
    throw WireError("wire: peer speaks protocol version " + std::to_string(version) +
                    ", this build speaks only version " + std::to_string(kProtocolVersion));
  }
  const std::uint16_t raw_type = reader.get_u16();
  if (!known_msg_type(raw_type)) {
    throw WireError("wire: unknown message type " + std::to_string(raw_type));
  }
  FrameHeader out;
  out.type = static_cast<MsgType>(raw_type);
  out.payload_size = reader.get_u32();
  if (out.payload_size > kMaxPayloadBytes) {
    throw WireError("wire: frame payload of " + std::to_string(out.payload_size) +
                    " bytes exceeds the limit");
  }
  return out;
}

bool try_extract_frame(std::vector<std::uint8_t>& buffer, Frame& out) {
  if (buffer.size() < kFrameHeaderBytes) return false;
  const FrameHeader header = decode_frame_header(buffer.data());
  const std::size_t total = kFrameHeaderBytes + header.payload_size;
  if (buffer.size() < total) return false;
  out.type = header.type;
  out.payload.assign(buffer.begin() + kFrameHeaderBytes, buffer.begin() + total);
  buffer.erase(buffer.begin(), buffer.begin() + total);
  return true;
}

// ---------------------------------------------------------------------------
// Blocking frame I/O
// ---------------------------------------------------------------------------

void send_frame_on(Socket& socket, MsgType type, const std::vector<std::uint8_t>& payload) {
  const std::vector<std::uint8_t> frame = encode_frame(type, payload);
  socket.send_all(frame.data(), frame.size());
}

Frame recv_frame_on(Socket& socket, int timeout_ms) {
  std::uint8_t header[kFrameHeaderBytes];
  socket.recv_exact(header, sizeof(header), timeout_ms);
  const FrameHeader decoded = decode_frame_header(header);
  Frame frame;
  frame.type = decoded.type;
  frame.payload.resize(decoded.payload_size);
  if (decoded.payload_size > 0) {
    socket.recv_exact(frame.payload.data(), frame.payload.size(), timeout_ms);
  }
  return frame;
}

std::string client_handshake(Socket& socket, const std::string& name, int timeout_ms) {
  WireWriter hello;
  write_hello_payload(hello, name);
  send_frame_on(socket, MsgType::Hello, hello.bytes());
  const Frame ack = recv_frame_on(socket, timeout_ms);
  if (ack.type != MsgType::HelloAck) {
    throw NetError("handshake: expected HelloAck, got " + std::string(to_string(ack.type)));
  }
  WireReader reader(ack.payload);
  return read_hello_payload(reader);
}

}  // namespace ecad::net
