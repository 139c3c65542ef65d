// Bench-side tracing: spans recorded from outside the program, around the
// calls into its public layer interfaces.
//
//   TracingBroker  decorates core::RequestBroker (the seam between the TCP
//                  front end and the dispatcher or federation router);
//   TracingPager   decorates rel::ClobPager (CLOB segment page-in);
//   TracingFs      decorates storage::Fs / storage::File (WAL writes, fsync).
//
// Every decorator forwards each call unchanged; while tracing is switched on
// it also records a span (name, start, end, parent, request id) into the
// process's SpanStore. Spans stay in memory and are written out at the end.
// With tracing off the decorators only forward, so one process can measure
// the same server with and without recording (the tracing overhead).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"
#include "core/broker.hpp"
#include "rel/clob_store.hpp"
#include "storage/fs.hpp"

namespace perfbench {

enum class SpanKind : std::uint8_t {
  kClient,     // wire round trip, send to last response byte (load thread)
  kBroker,     // RequestBroker::submit_async entry to its done callback
  kInline,     // RequestBroker::try_cached call that hit (served inline)
  kQueueWait,  // submit_async to worker pickup (dispatcher before_execute)
  kHandle,     // worker pickup to done
  kPageRead,   // ClobPager::read_segment
  kFsync,      // storage::File::sync
};

const char* span_kind_name(SpanKind kind);

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   // 0 = root
  std::uint64_t request = 0;  // hash of the request bytes (joins layers)
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  SpanKind kind = SpanKind::kClient;
  std::uint8_t layer = 0;     // which decorator instance (see SpanStore::layer)

  double micros() const { return static_cast<double>(end_ns - start_ns) / 1000.0; }
};

/// In-memory span store: per-thread append buffers, merged on collect().
class SpanStore {
 public:
  SpanStore() = default;
  SpanStore(const SpanStore&) = delete;
  SpanStore& operator=(const SpanStore&) = delete;

  bool enabled() const noexcept { return enabled_.load(std::memory_order_acquire); }
  void set_enabled(bool on) noexcept { enabled_.store(on, std::memory_order_release); }

  std::uint64_t next_id() noexcept { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void record(const Span& span);

  /// Registers a layer name for Span::layer; returns its index.
  std::uint8_t layer(const std::string& name);

  /// Every span recorded so far (call after the recording threads stopped).
  std::vector<Span> collect() const;

  /// Writes all spans as tab-separated lines; returns the span count.
  std::size_t write(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
  std::vector<std::string> layer_names_;
};

/// The process's span store.
SpanStore& spans();

std::uint64_t request_hash(std::string_view bytes) noexcept;

/// DispatcherConfig::before_execute hook: stamps the worker thread's pickup
/// time in a thread-local, which the TracingBroker's done wrapper (invoked on
/// that same worker thread) turns into queue-wait and handle spans.
void mark_worker_pickup();

/// Counters a TracingBroker keeps while recording.
struct BrokerCounters {
  std::atomic<std::uint64_t> submits{0};
  std::atomic<std::uint64_t> reads_probed{0};  // try_cached calls on read types
  std::atomic<std::uint64_t> inline_hits{0};
};

class TracingBroker final : public hxrc::core::RequestBroker {
 public:
  TracingBroker(hxrc::core::RequestBroker& inner, const std::string& layer_name);

  void submit_async(std::string request_xml, std::function<void(std::string)> done,
                    bool probe_cache) override;
  std::shared_ptr<const hxrc::core::CachedResponse> try_cached(
      std::string_view request_xml) override;
  std::size_t queue_depth() const noexcept override { return inner_.queue_depth(); }
  std::size_t max_queue() const noexcept override { return inner_.max_queue(); }
  void begin_drain() override { inner_.begin_drain(); }
  void drain() override { inner_.drain(); }
  bool draining() const noexcept override { return inner_.draining(); }
  hxrc::util::CacheMetrics* cache_metrics_hook() noexcept override {
    return inner_.cache_metrics_hook();
  }

  std::uint8_t layer() const noexcept { return layer_; }
  const BrokerCounters& counters() const noexcept { return counters_; }

 private:
  hxrc::core::RequestBroker& inner_;
  std::uint8_t layer_;
  BrokerCounters counters_;
};

class TracingPager final : public hxrc::rel::ClobPager {
 public:
  explicit TracingPager(hxrc::rel::ClobPager& inner) : inner_(inner) {}

  std::uint32_t write_segment(std::string_view payload) override {
    return inner_.write_segment(payload);
  }
  std::string read_segment(std::uint32_t segment) override;

  std::uint64_t bytes_read() const noexcept { return bytes_read_.load(); }

 private:
  hxrc::rel::ClobPager& inner_;
  std::atomic<std::uint64_t> bytes_read_{0};
};

class TracingFs final : public hxrc::storage::Fs {
 public:
  explicit TracingFs(hxrc::storage::Fs& inner) : inner_(inner) {}

  std::unique_ptr<hxrc::storage::File> open_append(const std::string& path) override;
  std::unique_ptr<hxrc::storage::File> create(const std::string& path) override;
  std::string read_file(const std::string& path) override { return inner_.read_file(path); }
  bool exists(const std::string& path) override { return inner_.exists(path); }
  void rename(const std::string& from, const std::string& to) override {
    inner_.rename(from, to);
  }
  void remove(const std::string& path) override { inner_.remove(path); }
  void truncate(const std::string& path, std::uint64_t size) override {
    inner_.truncate(path, size);
  }
  std::vector<std::string> list(const std::string& dir) override { return inner_.list(dir); }
  void create_dirs(const std::string& dir) override { inner_.create_dirs(dir); }
  void sync_dir(const std::string& dir) override { inner_.sync_dir(dir); }

  /// Bytes passed to File::write while tracing was on.
  std::uint64_t bytes_written() const noexcept { return bytes_written_.load(); }

 private:
  friend class TracingFile;
  hxrc::storage::Fs& inner_;
  std::atomic<std::uint64_t> bytes_written_{0};
};

/// Per-request self times derived from the spans of one traced phase.
struct TraceBreakdown {
  Samples client;        // wire round trip
  Samples net_self;      // client round trip minus the joined broker span
  Samples broker_self;   // broker span minus queue wait and handle
  Samples inline_probe;  // try_cached hits served on the event loop
  Samples queue_wait;
  Samples handle;
  std::size_t unmatched = 0;  // client spans with no broker span to join
};

/// Joins client spans to the front broker's spans (same request bytes, the
/// broker interval inside the client interval) and computes self times.
TraceBreakdown breakdown(const std::vector<Span>& all, std::uint8_t front_layer);

}  // namespace perfbench
