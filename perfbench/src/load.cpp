#include "load.hpp"

#include <memory>
#include <mutex>
#include <span>
#include <thread>

#include "net/client.hpp"
#include "net/socket.hpp"
#include "trace.hpp"
#include "util/prng.hpp"
#include "util/string_util.hpp"

namespace perfbench {

namespace {

constexpr std::uint32_t kIoTimeoutMs = 30000;
constexpr std::size_t kMaxErrors = 8;

std::unique_ptr<hxrc::net::BlockingClient> connect(std::uint16_t port) {
  auto client = std::make_unique<hxrc::net::BlockingClient>("127.0.0.1", port);
  client->set_io_timeout(kIoTimeoutMs);
  return client;
}

void record_client_span(const std::string& body, Clock::time_point sent,
                        Clock::time_point received) {
  SpanStore& store = spans();
  store.record({store.next_id(), 0, request_hash(body), ns_since_epoch(sent),
                ns_since_epoch(received), SpanKind::kClient, 0});
}

}  // namespace

const char* op_name(Op op) {
  switch (op) {
    case Op::kQuery: return "query";
    case Op::kIds: return "queryIds";
    case Op::kFetch: return "fetch";
    case Op::kStats: return "stats";
    case Op::kIngest: return "ingest";
  }
  return "?";
}

std::string check_frame(const hxrc::net::Frame& frame, std::uint32_t sent_id) {
  if (frame.type != hxrc::net::FrameType::kResponse) {
    return "frame type " + std::to_string(static_cast<int>(frame.type)) + " for request " +
           std::to_string(sent_id);
  }
  if (frame.request_id != sent_id) {
    return "response echoes request id " + std::to_string(frame.request_id) + ", sent " +
           std::to_string(sent_id);
  }
  const std::string_view body = frame.payload;
  const std::string_view tag = body.substr(0, body.find('>'));
  if (tag.rfind("<catalogResponse", 0) != 0) {
    return "not a <catalogResponse>: " + std::string(body.substr(0, 80));
  }
  if (tag.find(" protocol=\"1\"") == std::string_view::npos) {
    return "missing protocol=\"1\": " + std::string(tag);
  }
  if (tag.find(" status=\"ok\"") == std::string_view::npos) {
    return "status not ok: " + std::string(body.substr(0, 200));
  }
  return {};
}

std::string next_cursor(std::string_view response) {
  constexpr std::string_view open = "<nextCursor>";
  const std::size_t at = response.rfind(open);
  if (at == std::string_view::npos) return {};
  const std::size_t begin = at + open.size();
  const std::size_t end = response.find("</nextCursor>", begin);
  if (end == std::string_view::npos) return {};
  return std::string(response.substr(begin, end - begin));
}

std::string with_cursor(const std::string& body, const std::string& cursor) {
  std::string out = body;
  std::size_t at = out.find('>');
  if (at > 0 && out[at - 1] == '/') --at;
  out.insert(at, " cursor=\"" + cursor + "\"");
  return out;
}

void LoadResult::merge(LoadResult&& other) {
  for (std::size_t i = 0; i < kOpCount; ++i) latency[i].append(other.latency[i]);
  measured += other.measured;
  attempted += other.attempted;
  failed += other.failed;
  response_bytes += other.response_bytes;
  for (auto& s : other.samples) samples.push_back(std::move(s));
  for (auto& r : other.replay) replay.push_back(std::move(r));
  for (auto& e : other.errors) {
    if (errors.size() < kMaxErrors) errors.push_back(std::move(e));
  }
}

void LoadResult::fail(std::string what) {
  ++failed;
  if (errors.size() < kMaxErrors) errors.push_back(std::move(what));
}

LoadResult run_reader(std::uint16_t port, const std::vector<WireRequest>& requests,
                      const std::vector<std::uint32_t>& stream, std::size_t& position,
                      const LoadWindow& window, bool trace, std::size_t samples_per_op,
                      std::size_t replay_capacity) {
  LoadResult out;
  hxrc::util::Prng reservoir_rng(stream.size() * 0x9e3779b97f4a7c15ULL + stream.front());
  std::uint64_t traced = 0;
  std::array<std::int64_t, kOpCount> seen{};
  std::array<std::vector<std::size_t>, kOpCount> kept;  // per op: indices into out.samples
  std::unique_ptr<hxrc::net::BlockingClient> client = connect(port);
  std::this_thread::sleep_until(window.start);

  std::size_t& next = position;
  std::string page2;  // pending cursor continuation, sent next
  const WireRequest* page2_of = nullptr;
  while (Clock::now() < window.end) {
    const WireRequest& request =
        page2.empty() ? requests[stream[next++ % stream.size()]] : *page2_of;
    const bool is_page2 = !page2.empty();
    const std::string body = is_page2 ? std::move(page2) : std::string();
    const std::string& wire = is_page2 ? body : request.body;
    page2.clear();

    const Clock::time_point sent = Clock::now();
    ++out.attempted;
    hxrc::net::Frame frame;
    std::uint32_t id = 0;
    try {
      id = client->send_request(wire);
      frame = client->recv_frame();
    } catch (const hxrc::net::SocketError& e) {
      out.fail(std::string("dropped ") + op_name(request.op) + ": " + e.what());
      client = connect(port);
      continue;
    }
    const Clock::time_point received = Clock::now();
    if (std::string problem = check_frame(frame, id); !problem.empty()) {
      out.fail(std::string(op_name(request.op)) + ": " + problem);
      continue;
    }
    const bool measured = sent >= window.measure_from && sent < window.end;
    if (measured) {
      out.latency[static_cast<std::size_t>(request.op)].add(micros(received - sent));
      out.response_bytes += frame.payload.size();
      ++out.measured;
      if (trace) {
        record_client_span(wire, sent, received);
        // Reservoir sample: every measured request equally likely to replay.
        ++traced;
        if (out.replay.size() < replay_capacity) {
          out.replay.push_back(wire);
        } else if (const auto slot = reservoir_rng.uniform(0, static_cast<std::int64_t>(traced) - 1);
                   static_cast<std::size_t>(slot) < replay_capacity) {
          out.replay[static_cast<std::size_t>(slot)] = wire;
        }
      }
    }
    if (request.follow_cursor && !is_page2) {
      const std::string cursor = next_cursor(frame.payload);
      if (!cursor.empty()) {
        page2 = with_cursor(request.body, cursor);
        page2_of = &request;
      }
    }
    // Reservoir sample of first-page responses, per op.
    const auto op = static_cast<std::size_t>(request.op);
    if (request.op == Op::kStats || is_page2) continue;
    const std::int64_t n = ++seen[op];
    if (kept[op].size() < samples_per_op) {
      kept[op].push_back(out.samples.size());
      out.samples.push_back({request.op, request.key, std::move(frame.payload)});
    } else if (const auto slot = static_cast<std::size_t>(reservoir_rng.uniform(0, n - 1));
               slot < samples_per_op) {
      out.samples[kept[op][slot]] = {request.op, request.key, std::move(frame.payload)};
    }
  }
  return out;
}

WriterResult run_writer(std::uint16_t port, const std::vector<std::string>& all_bodies,
                        std::size_t& first, double rate, const LoadWindow& window, bool trace) {
  const std::span<const std::string> bodies =
      std::span<const std::string>(all_bodies).subspan(std::min(first, all_bodies.size()));
  WriterResult out;
  std::unique_ptr<hxrc::net::BlockingClient> client = connect(port);
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / rate));

  // Request id k+1 carries bodies[k]; the sender publishes send times before
  // each send, the receiver reads them when the matching response arrives.
  std::vector<std::atomic<std::int64_t>> sent_ns(bodies.size());
  std::atomic<std::size_t> total_sent{0};
  std::atomic<bool> sender_done{false};
  std::mutex error_mutex;
  std::string sender_error;

  std::thread sender([&] {
    std::size_t k = 0;
    for (; k < bodies.size(); ++k) {
      const Clock::time_point due = window.start + period * static_cast<std::int64_t>(k);
      if (due >= window.end) break;
      std::this_thread::sleep_until(due);
      sent_ns[k].store(ns_since_epoch(Clock::now()), std::memory_order_release);
      total_sent.store(k + 1, std::memory_order_release);
      try {
        client->send_request(bodies[k]);
      } catch (const hxrc::net::SocketError& e) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        sender_error = e.what();
        break;
      }
    }
    sender_done.store(true, std::memory_order_release);
  });

  std::size_t received = 0;
  std::vector<bool> answered(bodies.size(), false);
  const auto fail = [&out](std::string what) {
    ++out.failed;
    if (out.errors.size() < kMaxErrors) out.errors.push_back(std::move(what));
  };
  while (!(sender_done.load(std::memory_order_acquire) &&
           received >= total_sent.load(std::memory_order_acquire))) {
    if (received >= total_sent.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      continue;
    }
    hxrc::net::Frame frame;
    try {
      frame = client->recv_frame();
    } catch (const hxrc::net::SocketError& e) {
      fail(std::string("writer connection dropped: ") + e.what());
      break;
    }
    const Clock::time_point at = Clock::now();
    ++received;
    // Responses arrive in completion order: match by the echoed id, which
    // must name a request that is still outstanding.
    const std::uint32_t id = frame.request_id;
    if (id == 0 || id > total_sent.load(std::memory_order_acquire) || answered[id - 1]) {
      fail("ingest: response echoes request id " + std::to_string(id) +
           ", which is not outstanding");
      continue;
    }
    answered[id - 1] = true;
    if (std::string problem = check_frame(frame, id); !problem.empty()) {
      fail("ingest: " + problem);
      continue;
    }
    const std::size_t k = id - 1;
    const Clock::time_point due = window.start + period * static_cast<std::int64_t>(k);
    const std::int64_t sent = sent_ns[k].load(std::memory_order_acquire);
    if (due >= window.measure_from) {
      out.latency.add(micros(at - due));
      out.lateness.add(static_cast<double>(sent - ns_since_epoch(due)) / 1000.0);
      out.xml_bytes += bodies[k].size();
      ++out.measured;
      if (trace) {
        SpanStore& store = spans();
        store.record({store.next_id(), 0, request_hash(bodies[k]), sent, ns_since_epoch(at),
                      SpanKind::kClient, 0});
      }
    }
    const std::string_view payload = frame.payload;
    const std::size_t open = payload.find("<objectID>");
    const std::size_t close = payload.find("</objectID>");
    const auto object = open == std::string_view::npos || close == std::string_view::npos
                            ? std::nullopt
                            : hxrc::util::parse_int(payload.substr(open + 10, close - open - 10));
    if (!object) {
      fail("ingest response without a valid objectID");
      continue;
    }
    out.acked.emplace_back(*object, first + k);
  }
  sender.join();
  out.attempted = total_sent.load();
  first += out.attempted;
  if (!sender_error.empty()) fail("writer send failed: " + sender_error);
  if (received < out.attempted) {
    out.failed += out.attempted - received;
  }
  return out;
}

}  // namespace perfbench
