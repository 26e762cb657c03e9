// Wire protocol for the distributed evaluation service (paper §III: the
// Master "distribut[es] the co-design population" to remote Workers).
//
// Framing: every message is a length-prefixed binary frame
//
//     u32  magic    0x45434144 ("ECAD", little-endian on the wire)
//     u16  version  kProtocolVersion, on every frame
//     u16  type     MsgType
//     u32  length   payload byte count (<= kMaxPayloadBytes)
//     u8[] payload  type-specific body
//
// All integers are little-endian regardless of host order; doubles travel as
// their IEEE-754 bit pattern in a u64, so every value — including NaNs and
// signed zeros — round-trips bit-for-bit.  Decoding is fully bounds-checked:
// truncated or oversized input throws WireError, never reads past the end.
//
// Versioning: there is exactly one wire generation.  Every frame carries
// kProtocolVersion and decode_frame_header() rejects any other value with a
// WireError naming both versions, so a peer built from another generation
// is dropped at its first frame.  There is no negotiation: Hello/HelloAck
// exchange display names and prove the peer is alive before a connection
// joins a pool.
//
// Evaluation: a master ships a shard of genomes as one EvalBatchRequest; the
// worker answers with one EvalItemResult frame per item *as each item
// completes* (in completion order, not request order) followed by a terminal
// EvalBatchDone frame, so one slow genome never holds back its shard-mates'
// results.
//
// Search service: thin clients submit whole searches to a resident master
// daemon.  SubmitSearch carries a serialized core::SearchRequest; the daemon
// answers SearchAccepted, then streams one SearchProgress frame per folded
// generation (in completion order across concurrent searches) and closes
// with SearchDone carrying either the full deterministic search record
// (every evaluated candidate plus the winner — the same data the standalone
// CLI prints) or an error/cancellation message.  CancelSearch stops a
// running search at its next generation boundary.
//
// Stats: any peer can ask a daemon for its process-wide metrics registry
// (util/metrics.h).  GetStats carries a metric-name prefix filter ("" =
// everything); the daemon answers one StatsReport frame with a snapshot of
// every matching counter, gauge, and histogram (log-bucket counts included,
// so p50/p90/p99 are derivable client-side).
//
// Fleet cache: a content-addressed result cache tier hosted by worker
// daemons (net/fleet_cache.h).  Entries are (u64 key, EvalResult) bindings
// where the key is a stable FNV-1a hash of the eval-config identity plus the
// canonical genome key — computed identically by every master sharing the
// fleet, never with std::hash (which differs across processes).  CacheLookup
// carries a batch of keys; the daemon answers with a CacheStore frame
// holding the bindings it has (misses are simply absent).  CacheStore in the
// client->server direction publishes freshly computed results and needs no
// acknowledgement.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/master.h"
#include "evo/engine.h"
#include "evo/fitness.h"
#include "evo/genome.h"
#include "net/socket.h"

namespace ecad::net {

/// Malformed, truncated, or protocol-violating bytes.
class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Encoded little-endian like every other integer, so the first four bytes
/// of a frame on the wire literally read "ECAD" (0x45 'E' is the low byte).
inline constexpr std::uint32_t kWireMagic = 0x44414345u;
/// The one protocol version this build speaks: written on every frame, and
/// the only value decode_frame_header() accepts.
inline constexpr std::uint16_t kProtocolVersion = 7;
inline constexpr std::size_t kFrameHeaderBytes = 12;
/// Genomes and results are tiny; anything near this limit is corruption.
inline constexpr std::uint32_t kMaxPayloadBytes = 16u << 20;
inline constexpr std::uint32_t kMaxStringBytes = 1u << 20;
inline constexpr std::uint32_t kMaxVectorElems = 1u << 20;
/// Hard cap on genomes (or result slots) per batch frame; a generation is a
/// few dozen, so anything near this limit is corruption.
inline constexpr std::uint32_t kMaxBatchItems = 4096;
/// Hard cap on candidates per SearchDone record (the full history of one
/// search).  Budgets are hundreds-to-thousands; 64Ki candidates at ~150
/// bytes each still fits kMaxPayloadBytes with headroom.
inline constexpr std::uint32_t kMaxRecordCandidates = 65536;
/// Hard cap on metric entries per StatsReport frame; a process registers a
/// few dozen series (plus one per endpoint/search label), so anything near
/// this limit is corruption.
inline constexpr std::uint32_t kMaxStatsEntries = 4096;
/// Hard cap on log buckets per histogram entry (util::Histogram uses 40).
inline constexpr std::uint32_t kMaxHistogramBuckets = 64;
/// Hard cap on keys per CacheLookup and bindings per CacheStore frame; the
/// master looks up at most one batch of genomes at a time, so this mirrors
/// kMaxBatchItems and anything near it is corruption.
inline constexpr std::uint32_t kMaxCacheEntries = 4096;

enum class MsgType : std::uint16_t {
  Hello = 1,             // client -> server: string client name
  HelloAck = 2,          // server -> client: string server name
  Ping = 3,              // empty
  Pong = 4,              // empty
  Shutdown = 5,          // client asks the daemon to exit its accept loop
  EvalBatchRequest = 6,  // u64 batch id + u32 count + count Genomes
  EvalItemResult = 7,    // u64 batch id + u32 slot index + one outcome slot
  EvalBatchDone = 8,     // u64 batch id + u32 count of item frames sent
  SubmitSearch = 9,      // u64 submit id + SearchRequest
  SearchAccepted = 10,   // u64 submit id + u64 search id + u32 queue position
  SearchProgress = 11,   // u64 search id + per-generation stats
  SearchDone = 12,       // u64 search id + u8 status + (record | string)
  CancelSearch = 13,     // u64 search id
  GetStats = 14,         // string metric-name prefix filter ("" = all)
  StatsReport = 15,      // u32 count + count metric snapshot entries
  CacheLookup = 16,      // u32 count + count u64 cache keys
  CacheStore = 17,       // u32 count + count (u64 key + EvalResult)
};

const char* to_string(MsgType type);

// ---------------------------------------------------------------------------
// Primitive encode/decode
// ---------------------------------------------------------------------------

/// Append-only little-endian encoder.
class WireWriter {
 public:
  void put_u8(std::uint8_t v) { bytes_.push_back(v); }
  void put_u16(std::uint16_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_bool(bool v) { put_u8(v ? 1 : 0); }
  /// IEEE-754 bit pattern; exact for every double including NaN payloads.
  void put_f64(double v);
  /// u32 length + raw bytes. Throws WireError above kMaxStringBytes.
  void put_string(const std::string& v);
  void put_size_vector(const std::vector<std::size_t>& v);

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked little-endian decoder over a borrowed buffer.
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}
  explicit WireReader(const std::vector<std::uint8_t>& bytes)
      : WireReader(bytes.data(), bytes.size()) {}

  std::uint8_t get_u8();
  std::uint16_t get_u16();
  std::uint32_t get_u32();
  std::uint64_t get_u64();
  bool get_bool() { return get_u8() != 0; }
  double get_f64();
  std::string get_string();
  std::vector<std::size_t> get_size_vector();

  std::size_t remaining() const { return size_ - pos_; }
  /// Throws WireError unless every byte has been consumed (catches payloads
  /// with trailing garbage).
  void expect_end() const;

 private:
  const std::uint8_t* need(std::size_t count);

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Domain serializers (round-trip exact)
// ---------------------------------------------------------------------------

void write_genome(WireWriter& writer, const evo::Genome& genome);
evo::Genome read_genome(WireReader& reader);

void write_eval_result(WireWriter& writer, const evo::EvalResult& result);
evo::EvalResult read_eval_result(WireReader& reader);

void write_search_request(WireWriter& writer, const core::SearchRequest& request);
core::SearchRequest read_search_request(WireReader& reader);

// ---------------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------------

/// One EvalBatchRequest frame: N genomes evaluated per network round-trip.
struct EvalBatchRequest {
  std::uint64_t batch_id = 0;
  std::vector<evo::Genome> genomes;
};

void write_eval_batch_request(WireWriter& writer, const EvalBatchRequest& request);
EvalBatchRequest read_eval_batch_request(WireReader& reader);

/// One EvalItemResult frame: a single slot of an in-flight batch, streamed
/// the moment its evaluation completes.  `index` is the slot position in the
/// originating EvalBatchRequest; frames arrive in completion order, so a
/// receiver must settle slots by index, never by arrival position.  Per-item
/// error slots mean one poisoned genome fails its own slot, not the batch.
struct EvalItemResult {
  std::uint64_t batch_id = 0;
  std::uint32_t index = 0;
  evo::EvalOutcome outcome;
};

/// Terminal frame of a streamed batch: after `count` EvalItemResult frames
/// the worker declares the batch finished.  A receiver holding unsettled
/// slots past this frame knows the stream was corrupt rather than slow.
struct EvalBatchDone {
  std::uint64_t batch_id = 0;
  std::uint32_t count = 0;
};

void write_eval_item_result(WireWriter& writer, const EvalItemResult& item);
EvalItemResult read_eval_item_result(WireReader& reader);

void write_eval_batch_done(WireWriter& writer, const EvalBatchDone& done);
EvalBatchDone read_eval_batch_done(WireReader& reader);

// ---------------------------------------------------------------------------
// Search service
// ---------------------------------------------------------------------------

/// One SubmitSearch frame: a thin client asks the resident master daemon to
/// run a whole search.  `submit_id` is client-chosen and echoed in the
/// SearchAccepted answer, so one connection can correlate several pending
/// submissions.
struct SubmitSearch {
  std::uint64_t submit_id = 0;
  core::SearchRequest request;
};

/// The daemon's answer to SubmitSearch: the server-assigned `search_id`
/// every later progress/done/cancel frame uses, plus the number of searches
/// (queued + running) ahead of this one at admission time.
struct SearchAccepted {
  std::uint64_t submit_id = 0;
  std::uint64_t search_id = 0;
  std::uint32_t queue_position = 0;
};

/// One per-generation progress frame, streamed in completion order across
/// all concurrent searches on the connection.  `generation` 0 is the scored
/// initial population.
struct SearchProgress {
  std::uint64_t search_id = 0;
  std::uint32_t generation = 0;
  std::uint64_t models_evaluated = 0;
  std::uint64_t max_evaluations = 0;
  /// Non-dominated subset of the current population (accuracy/throughput).
  std::uint32_t pareto_front_size = 0;
  double best_fitness = 0.0;
};

/// The deterministic final record of one search — the structured form of the
/// standalone CLI's stdout (candidate history in evaluation order, winner,
/// counters), so a submitted search can be re-rendered byte-identically.
struct SearchRecord {
  std::vector<evo::Candidate> history;
  evo::Candidate best;
  std::uint64_t models_evaluated = 0;
  std::uint64_t duplicates_skipped = 0;
};

/// Terminal frame of one search.  Completed carries the record; Canceled and
/// Failed carry a human-readable message instead.
struct SearchDone {
  enum class Status : std::uint8_t { Failed = 0, Completed = 1, Canceled = 2 };
  std::uint64_t search_id = 0;
  Status status = Status::Failed;
  SearchRecord record;  // meaningful only when status == Completed
  std::string message;  // meaningful only when status != Completed
};

/// Client asks the daemon to stop a search at its next generation boundary.
/// The search still answers with SearchDone (status Canceled).
struct CancelSearch {
  std::uint64_t search_id = 0;
};

void write_candidate(WireWriter& writer, const evo::Candidate& candidate);
evo::Candidate read_candidate(WireReader& reader);

void write_search_record(WireWriter& writer, const SearchRecord& record);
SearchRecord read_search_record(WireReader& reader);

void write_submit_search(WireWriter& writer, const SubmitSearch& submit);
SubmitSearch read_submit_search(WireReader& reader);

void write_search_accepted(WireWriter& writer, const SearchAccepted& accepted);
SearchAccepted read_search_accepted(WireReader& reader);

void write_search_progress(WireWriter& writer, const SearchProgress& progress);
SearchProgress read_search_progress(WireReader& reader);

void write_search_done(WireWriter& writer, const SearchDone& done);
SearchDone read_search_done(WireReader& reader);

void write_cancel_search(WireWriter& writer, const CancelSearch& cancel);
CancelSearch read_cancel_search(WireReader& reader);

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

/// One GetStats frame: ask a daemon for its metrics registry.  `prefix`
/// filters by metric-name prefix; empty returns everything.
struct GetStats {
  std::string prefix;
};

/// One metric in a StatsReport: the wire form of util::MetricSnapshot.
/// `kind` is util::MetricKind (0 counter, 1 gauge, 2 histogram); counters
/// and gauges carry `value`, histograms carry count/sum/buckets (log-bucket
/// counts, util::Histogram layout, so quantiles are derivable client-side).
struct StatsEntry {
  std::string name;
  std::uint8_t kind = 0;
  double value = 0.0;
  std::uint64_t count = 0;
  double sum = 0.0;
  std::vector<std::uint64_t> buckets;
};

/// The daemon's answer to GetStats: every matching metric, sorted by name.
struct StatsReport {
  std::vector<StatsEntry> entries;
};

void write_get_stats(WireWriter& writer, const GetStats& request);
GetStats read_get_stats(WireReader& reader);

void write_stats_report(WireWriter& writer, const StatsReport& report);
StatsReport read_stats_report(WireReader& reader);

// ---------------------------------------------------------------------------
// Fleet cache
// ---------------------------------------------------------------------------

/// One CacheLookup frame: a master asks a daemon which of these
/// content-addressed keys it holds results for.  Keys come from
/// net::fleet_cache_key (a stable hash — see net/fleet_cache.h), so every
/// master sharing the fleet derives identical keys for identical work.
struct CacheLookup {
  std::vector<std::uint64_t> keys;
};

/// One (key, result) binding of the fleet cache.  Only successful results
/// are cached — failures are not content-addressable facts about a genome.
struct CacheEntry {
  std::uint64_t key = 0;
  evo::EvalResult result;
};

/// One CacheStore frame: a bag of cache bindings.  Server -> client it is
/// the answer to CacheLookup (hits only; a key absent from the reply was a
/// miss).  Client -> server it publishes freshly computed results into the
/// daemon's cache tier and needs no acknowledgement.
struct CacheStore {
  std::vector<CacheEntry> entries;
};

void write_cache_lookup(WireWriter& writer, const CacheLookup& lookup);
CacheLookup read_cache_lookup(WireReader& reader);

void write_cache_store(WireWriter& writer, const CacheStore& store);
CacheStore read_cache_store(WireReader& reader);

// ---------------------------------------------------------------------------
// Handshake payloads
// ---------------------------------------------------------------------------

/// Hello / HelloAck body: the sender's display name and nothing else.
void write_hello_payload(WireWriter& writer, const std::string& name);
/// Throws WireError on trailing bytes after the name.
std::string read_hello_payload(WireReader& reader);

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

struct Frame {
  MsgType type = MsgType::Ping;
  std::vector<std::uint8_t> payload;
};

/// Header + payload as one contiguous buffer ready for send(); the header
/// carries kProtocolVersion.
std::vector<std::uint8_t> encode_frame(MsgType type, const std::vector<std::uint8_t>& payload);

struct FrameHeader {
  MsgType type = MsgType::Ping;
  std::uint32_t payload_size = 0;
};

/// Validates magic, version (exactly kProtocolVersion), known type, and the
/// payload size cap.  `header` must point at kFrameHeaderBytes readable
/// bytes.
FrameHeader decode_frame_header(const std::uint8_t* header);

/// Incremental frame assembly for the poll loop: when `buffer` holds at least
/// one complete frame, pops it off the front and returns true.
bool try_extract_frame(std::vector<std::uint8_t>& buffer, Frame& out);

// ---------------------------------------------------------------------------
// Blocking frame I/O (clients and one-shot exchanges)
// ---------------------------------------------------------------------------

/// Encode and write one whole frame.  Throws NetError.
void send_frame_on(Socket& socket, MsgType type, const std::vector<std::uint8_t>& payload);

/// Read one whole frame within `timeout_ms` per read (negative = block).
/// Throws NetError on socket failure and WireError on a bad header.
Frame recv_frame_on(Socket& socket, int timeout_ms);

/// The client side of the handshake: send Hello carrying `name`, wait for
/// the HelloAck, and return the server's name.  Throws NetError when the
/// peer answers anything else and WireError when its frame is malformed or
/// framed at another protocol version.
std::string client_handshake(Socket& socket, const std::string& name, int timeout_ms);

}  // namespace ecad::net
