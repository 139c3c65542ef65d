#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "core/query_cache.hpp"

namespace perfbench {

namespace {

thread_local std::vector<Span>* tl_buffer = nullptr;
/// Worker pickup time (ns since the steady-clock epoch); 0 = none pending.
thread_local std::int64_t tl_pickup_ns = 0;

std::int64_t now_ns() { return ns_since_epoch(Clock::now()); }

bool is_read_type(std::string_view request) {
  // Root-tag scan only, like the dispatcher's own peek.
  const std::string_view tag = request.substr(0, request.find('>'));
  return tag.find("type=\"query\"") != std::string_view::npos ||
         tag.find("type=\"queryIds\"") != std::string_view::npos ||
         tag.find("type=\"fetch\"") != std::string_view::npos;
}

}  // namespace

const char* span_kind_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kClient: return "client";
    case SpanKind::kBroker: return "broker";
    case SpanKind::kInline: return "inline";
    case SpanKind::kQueueWait: return "queue_wait";
    case SpanKind::kHandle: return "handle";
    case SpanKind::kPageRead: return "page_read";
    case SpanKind::kFsync: return "fsync";
  }
  return "?";
}

SpanStore& spans() {
  static SpanStore store;
  return store;
}

void SpanStore::record(const Span& span) {
  if (tl_buffer == nullptr) {
    auto buffer = std::make_unique<std::vector<Span>>();
    buffer->reserve(1 << 16);
    tl_buffer = buffer.get();
    const std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::move(buffer));
  }
  tl_buffer->push_back(span);
}

std::uint8_t SpanStore::layer(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = std::find(layer_names_.begin(), layer_names_.end(), name);
  if (it != layer_names_.end()) return static_cast<std::uint8_t>(it - layer_names_.begin());
  layer_names_.push_back(name);
  return static_cast<std::uint8_t>(layer_names_.size() - 1);
}

std::vector<Span> SpanStore::collect() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> out;
  for (const auto& buffer : buffers_) out.insert(out.end(), buffer->begin(), buffer->end());
  return out;
}

std::size_t SpanStore::write(const std::string& path) const {
  const std::vector<Span> all = collect();
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return 0;
  std::fprintf(out, "id\tparent\trequest\tname\tlayer\tstart_ns\tend_ns\n");
  for (const Span& s : all) {
    std::fprintf(out, "%llu\t%llu\t%016llx\t%s\t%s\t%lld\t%lld\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), span_kind_name(s.kind),
                 s.layer < layer_names_.size() ? layer_names_[s.layer].c_str() : "?",
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
  }
  std::fclose(out);
  return all.size();
}

std::uint64_t request_hash(std::string_view bytes) noexcept {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  return h;
}

void mark_worker_pickup() { tl_pickup_ns = now_ns(); }

// ---------------------------------------------------------------------------

TracingBroker::TracingBroker(hxrc::core::RequestBroker& inner, const std::string& layer_name)
    : inner_(inner), layer_(spans().layer(layer_name)) {}

void TracingBroker::submit_async(std::string request_xml,
                                 std::function<void(std::string)> done, bool probe_cache) {
  SpanStore& store = spans();
  if (!store.enabled()) {
    inner_.submit_async(std::move(request_xml), std::move(done), probe_cache);
    return;
  }
  counters_.submits.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t id = store.next_id();
  const std::uint64_t hash = request_hash(request_xml);
  const std::int64_t start = now_ns();
  inner_.submit_async(
      std::move(request_xml),
      [this, id, hash, start, done = std::move(done)](std::string response) {
        const std::int64_t end = now_ns();
        SpanStore& s = spans();
        if (tl_pickup_ns != 0 && tl_pickup_ns >= start) {
          s.record({s.next_id(), id, hash, start, tl_pickup_ns, SpanKind::kQueueWait, layer_});
          s.record({s.next_id(), id, hash, tl_pickup_ns, end, SpanKind::kHandle, layer_});
        }
        tl_pickup_ns = 0;
        s.record({id, 0, hash, start, end, SpanKind::kBroker, layer_});
        done(std::move(response));
      },
      probe_cache);
}

std::shared_ptr<const hxrc::core::CachedResponse> TracingBroker::try_cached(
    std::string_view request_xml) {
  SpanStore& store = spans();
  if (!store.enabled()) return inner_.try_cached(request_xml);
  const std::int64_t start = now_ns();
  auto hit = inner_.try_cached(request_xml);
  const std::int64_t end = now_ns();
  if (is_read_type(request_xml)) counters_.reads_probed.fetch_add(1, std::memory_order_relaxed);
  if (hit != nullptr) {
    counters_.inline_hits.fetch_add(1, std::memory_order_relaxed);
    store.record({store.next_id(), 0, request_hash(request_xml), start, end,
                  SpanKind::kInline, layer_});
  }
  return hit;
}

// ---------------------------------------------------------------------------

std::string TracingPager::read_segment(std::uint32_t segment) {
  SpanStore& store = spans();
  if (!store.enabled()) return inner_.read_segment(segment);
  const std::int64_t start = now_ns();
  std::string payload = inner_.read_segment(segment);
  store.record({store.next_id(), 0, segment, start, now_ns(), SpanKind::kPageRead, 0});
  bytes_read_.fetch_add(payload.size(), std::memory_order_relaxed);
  return payload;
}

// ---------------------------------------------------------------------------

class TracingFile final : public hxrc::storage::File {
 public:
  TracingFile(std::unique_ptr<hxrc::storage::File> inner, TracingFs& fs)
      : inner_(std::move(inner)), fs_(fs) {}

  void write(const void* data, std::size_t size) override {
    if (spans().enabled()) fs_.bytes_written_.fetch_add(size, std::memory_order_relaxed);
    inner_->write(data, size);
  }
  void sync() override {
    SpanStore& store = spans();
    if (!store.enabled()) {
      inner_->sync();
      return;
    }
    const std::int64_t start = now_ns();
    inner_->sync();
    store.record({store.next_id(), 0, 0, start, now_ns(), SpanKind::kFsync, 0});
  }
  std::uint64_t size() const override { return inner_->size(); }
  void close() override { inner_->close(); }

 private:
  std::unique_ptr<hxrc::storage::File> inner_;
  TracingFs& fs_;
};

std::unique_ptr<hxrc::storage::File> TracingFs::open_append(const std::string& path) {
  return std::make_unique<TracingFile>(inner_.open_append(path), *this);
}

std::unique_ptr<hxrc::storage::File> TracingFs::create(const std::string& path) {
  return std::make_unique<TracingFile>(inner_.create(path), *this);
}

// ---------------------------------------------------------------------------

TraceBreakdown breakdown(const std::vector<Span>& all, std::uint8_t front_layer) {
  struct Candidate {
    std::int64_t start;
    std::int64_t end;
    std::size_t index;
    bool used;
  };
  std::unordered_map<std::uint64_t, std::vector<Candidate>> by_request;
  std::unordered_map<std::uint64_t, std::pair<double, double>> children;  // qw, handle
  std::vector<const Span*> clients;
  TraceBreakdown out;

  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    if (s.kind == SpanKind::kClient) {
      clients.push_back(&s);
      continue;
    }
    if (s.layer != front_layer) continue;
    if (s.kind == SpanKind::kBroker || s.kind == SpanKind::kInline) {
      by_request[s.request].push_back({s.start_ns, s.end_ns, i, false});
    } else if (s.kind == SpanKind::kQueueWait) {
      children[s.parent].first += s.micros();
      out.queue_wait.add(s.micros());
    } else if (s.kind == SpanKind::kHandle) {
      children[s.parent].second += s.micros();
      out.handle.add(s.micros());
    }
  }
  for (auto& [hash, list] : by_request) {
    std::sort(list.begin(), list.end(),
              [](const Candidate& a, const Candidate& b) { return a.start < b.start; });
  }
  std::sort(clients.begin(), clients.end(),
            [](const Span* a, const Span* b) { return a->start_ns < b->start_ns; });

  for (const Span* c : clients) {
    out.client.add(c->micros());
    auto it = by_request.find(c->request);
    const Span* match = nullptr;
    if (it != by_request.end()) {
      auto& list = it->second;
      auto cand = std::lower_bound(
          list.begin(), list.end(), c->start_ns,
          [](const Candidate& a, std::int64_t t) { return a.start < t; });
      for (; cand != list.end() && cand->start <= c->end_ns; ++cand) {
        if (!cand->used && cand->end <= c->end_ns) {
          cand->used = true;
          match = &all[cand->index];
          break;
        }
      }
    }
    if (match == nullptr) {
      ++out.unmatched;
      continue;
    }
    out.net_self.add(c->micros() - match->micros());
    if (match->kind == SpanKind::kInline) {
      out.inline_probe.add(match->micros());
    } else {
      const auto child = children.find(match->id);
      const double covered =
          child == children.end() ? 0.0 : child->second.first + child->second.second;
      out.broker_self.add(match->micros() - covered);
    }
  }
  return out;
}

}  // namespace perfbench
