#include "net/stats.h"

#include <utility>

#include "net/socket.h"
#include "util/metrics.h"

namespace ecad::net {

StatsReport snapshot_stats_report(const std::string& prefix) {
  StatsReport report;
  std::vector<util::MetricSnapshot> snapshots = util::metrics().snapshot(prefix);
  report.entries.reserve(snapshots.size());
  for (util::MetricSnapshot& snap : snapshots) {
    StatsEntry entry;
    entry.name = std::move(snap.name);
    entry.kind = static_cast<std::uint8_t>(snap.kind);
    entry.value = snap.value;
    entry.count = snap.count;
    entry.sum = snap.sum;
    entry.buckets = std::move(snap.buckets);
    report.entries.push_back(std::move(entry));
  }
  return report;
}

StatsReport fetch_stats(const std::string& host, std::uint16_t port, const std::string& prefix,
                        int timeout_ms) {
  Socket socket = Socket::connect(Endpoint{host, port}, timeout_ms);
  client_handshake(socket, "ecad-stats", timeout_ms);

  GetStats request;
  request.prefix = prefix;
  WireWriter writer;
  write_get_stats(writer, request);
  send_frame_on(socket, MsgType::GetStats, writer.bytes());

  const Frame frame = recv_frame_on(socket, timeout_ms);
  if (frame.type != MsgType::StatsReport) {
    throw NetError("stats: expected StatsReport, got " + std::string(to_string(frame.type)));
  }
  WireReader reader(frame.payload);
  StatsReport report = read_stats_report(reader);
  reader.expect_end();
  return report;
}

}  // namespace ecad::net
