// Wire load: closed-loop readers and an open-loop writer over the catalog's
// TCP protocol, one blocking connection each, pipeline depth 1 for readers.
//
// Every response is checked as it arrives (echoed request id, response frame
// type, protocol="1", status="ok"); a fixed-size uniform sample of
// query/queryIds/fetch responses is kept for the workload's content checks
// after the run.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"
#include "net/frame.hpp"

namespace perfbench {

enum class Op : std::uint8_t { kQuery, kIds, kFetch, kStats, kIngest };
inline constexpr std::size_t kOpCount = 5;
const char* op_name(Op op);

/// One distinct request the workload can send. `key` indexes the
/// workload's own description of it (query criteria, object id) for checks.
struct WireRequest {
  Op op = Op::kQuery;
  std::string body;
  std::uint32_t key = 0;
  /// Query requests only: follow the response's nextCursor with a page-2
  /// request on the same connection.
  bool follow_cursor = false;
};

/// A first-page response kept for the post-run content checks.
struct SampledResponse {
  Op op = Op::kQuery;
  std::uint32_t key = 0;
  std::string response;
};

/// Checks one response frame against the request it answers: "" when it
/// is well formed and ok, else what is wrong with it.
std::string check_frame(const hxrc::net::Frame& frame, std::uint32_t sent_id);

/// The nextCursor of a query response ("" when absent).
std::string next_cursor(std::string_view response);

/// `body` with cursor="..." added to its root tag.
std::string with_cursor(const std::string& body, const std::string& cursor);

struct LoadResult {
  std::array<Samples, kOpCount> latency;  // measured window, per op
  std::uint64_t measured = 0;             // responses sent in the window
  std::uint64_t attempted = 0;            // every request sent, warm-up too
  std::uint64_t failed = 0;
  std::uint64_t response_bytes = 0;       // measured window
  std::vector<SampledResponse> samples;
  /// Traced runs: a uniform sample of the measured requests' bytes, for the
  /// single-threaded layer replay.
  std::vector<std::string> replay;
  std::vector<std::string> errors;        // first few failure descriptions

  void merge(LoadResult&& other);
  void fail(std::string what);
};

/// Timing of one load run: traffic starts at `start`, is measured from
/// `measure_from` until `end`.
struct LoadWindow {
  Clock::time_point start;
  Clock::time_point measure_from;
  Clock::time_point end;
};

/// Closed loop on one connection: sends requests[stream[i]] in order from
/// i = `position` (wrapping), one at a time, until the window ends, and
/// leaves `position` after the last request sent. Keeps a uniform sample of
/// `samples_per_op` first-page responses per op, so the memory the samples
/// hold does not grow with throughput. With `trace`, records a client span
/// per request and keeps up to `replay_capacity` request bodies.
LoadResult run_reader(std::uint16_t port, const std::vector<WireRequest>& requests,
                      const std::vector<std::uint32_t>& stream, std::size_t& position,
                      const LoadWindow& window, bool trace, std::size_t samples_per_op,
                      std::size_t replay_capacity);

struct WriterResult {
  Samples latency;        // due time to response, measured window
  Samples lateness;       // send time minus due time, measured window
  std::uint64_t measured = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t xml_bytes = 0;  // ingested document bytes, measured window
  /// (objectID, index into the writer's bodies) of every acknowledged ingest.
  std::vector<std::pair<std::int64_t, std::size_t>> acked;
  std::vector<std::string> errors;
};

/// Open loop on one connection: request k is due at window.start + k/rate
/// and is sent then, whether or not earlier ones were answered (a receiver
/// thread collects the responses). Latency is timed from the due time.
/// Request k carries bodies[first + k]; `first` advances past those sent.
WriterResult run_writer(std::uint16_t port, const std::vector<std::string>& bodies,
                        std::size_t& first, double rate, const LoadWindow& window, bool trace);

}  // namespace perfbench
