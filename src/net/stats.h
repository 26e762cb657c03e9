// Stats over the wire: the daemon side renders the process
// metrics registry into a StatsReport frame, the client side asks a running
// daemon (workerd or searchd) for one.  Both daemons answer GetStats with
// the same snapshot path, so `ecad_searchd --stats` and `ecad_workerd
// --remote-stats` read identical shapes.
#pragma once

#include <cstdint>
#include <string>

#include "net/wire.h"

namespace ecad::net {

/// Render the process-wide metrics registry (util::metrics()) into the wire
/// shape, filtered by metric-name prefix ("" = everything).  Entries come
/// back sorted by name (the registry snapshot order).
StatsReport snapshot_stats_report(const std::string& prefix);

/// Connect to `host:port`, handshake, send GetStats(`prefix`) and return the
/// daemon's StatsReport.  Opens its own short-lived connection (works
/// against both WorkerServer and SearchServer).  Throws NetError on
/// connection failure and WireError when the peer answers at another
/// protocol version.
StatsReport fetch_stats(const std::string& host, std::uint16_t port, const std::string& prefix,
                        int timeout_ms = 5000);

}  // namespace ecad::net
