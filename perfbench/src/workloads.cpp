#include "workloads.hpp"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <set>
#include <thread>

#include "core/catalog.hpp"
#include "core/dispatcher.hpp"
#include "core/service.hpp"
#include "fed/merge.hpp"
#include "fed/router.hpp"
#include "load.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "replay.hpp"
#include "storage/clob_pager.hpp"
#include "storage/recovery.hpp"
#include "trace.hpp"
#include "util/prng.hpp"
#include "workload/generator.hpp"
#include "workload/lead_schema.hpp"
#include "workload/scale.hpp"
#include "xml/canonical.hpp"
#include "xml/parser.hpp"
#include "xml/writer.hpp"

namespace perfbench {

namespace {

using namespace hxrc;
namespace fs = std::filesystem;

constexpr double kWarmupS = 1.5;          // untimed traffic before every measured phase
constexpr double kWriterRate = 100.0;     // ingest_mixed writer, requests per second
constexpr std::size_t kSamplesPerOp = 64;  // responses kept per op and reader for checks
constexpr std::size_t kReplayPerReader = 1000;
constexpr double kReplayBudgetS = 8.0;

const xml::Schema& schema() {
  static const xml::Schema s = workload::lead_schema();
  return s;
}

core::CatalogConfig catalog_config() {
  core::CatalogConfig config;
  config.shred.auto_define_dynamic = true;
  return config;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// Seeded inputs.

/// Serialized documents plus the generator that made them (for the expected
/// canonical form of each).
struct Corpus {
  workload::GeneratorConfig config;
  std::size_t first = 0;  // generator index of xml[0]
  std::vector<std::string> xml;

  std::string canonical(std::size_t i) const {
    workload::DocumentGenerator generator(config);
    return xml::canonical(generator.generate(first + i));
  }
};

Corpus make_corpus(const workload::GeneratorConfig& config, std::size_t first, std::size_t n) {
  Corpus corpus{config, first, {}};
  workload::DocumentGenerator generator(config);
  corpus.xml.reserve(n);
  for (std::size_t i = 0; i < n; ++i) corpus.xml.push_back(xml::write(generator.generate(first + i)));
  return corpus;
}

workload::GeneratorConfig default_profile(std::uint64_t seed) {
  workload::GeneratorConfig config;
  config.seed = mix_seed(seed, 1);
  return config;
}

workload::GeneratorConfig scale_profile(std::uint64_t seed, std::size_t docs) {
  const workload::ScaleTier tier{"discover", docs, 16};
  workload::GeneratorConfig config = workload::scale_config(tier);
  config.seed = mix_seed(seed, 2);
  return config;
}

std::string ingest_body(const std::string& doc_xml, const std::string& name) {
  return "<catalogRequest type=\"ingest\" version=\"1\" name=\"" + name +
         "\" user=\"bench\">" + doc_xml + "</catalogRequest>";
}

std::string fetch_body(std::int64_t id) {
  return "<catalogRequest type=\"fetch\" version=\"1\" objectID=\"" + std::to_string(id) +
         "\"/>";
}

/// What a request asks for, for the content checks.
struct Target {
  core::ObjectQuery query;  // without limit or cursor
  std::size_t limit = 0;    // 0 = unlimited
  std::int64_t object = -1;
};

struct Mix {
  std::vector<WireRequest> requests;
  std::vector<Target> targets;  // by WireRequest::key
  std::vector<std::vector<std::uint32_t>> streams;  // per reader connection

  std::uint32_t add(Op op, std::string body, Target target, bool follow_cursor = false) {
    const auto key = static_cast<std::uint32_t>(targets.size());
    targets.push_back(std::move(target));
    requests.push_back({op, std::move(body), key, follow_cursor});
    return static_cast<std::uint32_t>(requests.size() - 1);
  }
};

std::string query_body(const core::ObjectQuery& query, std::size_t limit, bool ids_only) {
  core::ObjectQuery wire = query;
  wire.set_limit(limit);
  std::string body = core::query_to_xml(wire);
  if (ids_only) body.replace(body.find("type=\"query\""), 12, "type=\"queryIds\"");
  return body;
}

/// Zipf skew of the hot read mix. At s = 1.5 about three quarters of
/// ingest_mixed's reads between two commits repeat a key already served in
/// that snapshot, so its read p50s sit inside the cache-hit component rather
/// than on the boundary between hits and misses, where they would jump with
/// small changes in throughput.
constexpr double kZipfExponent = 1.5;

/// Zipf ranks over n items: cumulative weights for inverse sampling.
std::vector<double> zipf_cdf(std::size_t n) {
  std::vector<double> cdf(n);
  double total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    cdf[i] = total += std::pow(static_cast<double>(i + 1), -kZipfExponent);
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

std::size_t draw(const std::vector<double>& cdf, util::Prng& rng) {
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), rng.uniform01());
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf.begin()), cdf.size() - 1);
}

/// One dynamic-parameter criterion: equality on one of the parameter's
/// `cardinality` values, or (when `ranges`) half the time a range bound
/// drawn from 8,192 steps.
core::ObjectQuery param_query(util::Prng& rng, int cardinality, bool ranges) {
  const std::string group = rng.pick(workload::grid_group_names());
  const std::string model = rng.pick(workload::model_names());
  const std::string param = rng.pick(workload::parameter_names());
  const double shape = ranges ? rng.uniform01() : 0.0;
  if (shape < 0.5) {
    const int v = static_cast<int>(rng.uniform(0, cardinality - 1));
    return workload::dynamic_param_query(group, model, param, workload::parameter_value(param, v));
  }
  const double step = static_cast<double>(rng.uniform(0, 8191)) / 8192.0;
  const double bound =
      workload::parameter_value(param, 0) * (1.0 + step * static_cast<double>(cardinality));
  return workload::dynamic_param_query(
      group, model, param, bound, shape < 0.75 ? core::CompareOp::kGt : core::CompareOp::kLt);
}

/// hot_browse's read mix: 256 distinct requests (128 fetch, 77 query
/// limit=10, 49 queryIds, 2 stats), each type drawn at 50/30/19/1 % and the
/// request within its type Zipf-skewed. Queries are single parameter-value
/// equalities, so every query costs about the same and the figures do not
/// hinge on which request a seed ranks first.
Mix hot_mix(std::uint64_t seed, std::size_t docs, std::size_t readers, std::size_t stream_len) {
  Mix mix;
  util::Prng rng(mix_seed(seed, 3));
  std::vector<std::int64_t> ids(docs);
  for (std::size_t i = 0; i < docs; ++i) ids[i] = static_cast<std::int64_t>(i);
  std::shuffle(ids.begin(), ids.end(), rng);
  std::vector<core::ObjectQuery> queries;
  std::set<std::string> seen;
  while (queries.size() < 126) {
    core::ObjectQuery q = param_query(rng, 16, false);
    if (seen.insert(core::query_to_xml(q)).second) queries.push_back(std::move(q));
  }

  std::vector<std::vector<std::uint32_t>> pools(4);  // fetch, query, ids, stats
  for (std::size_t i = 0; i < 128; ++i) {
    pools[0].push_back(mix.add(Op::kFetch, fetch_body(ids[i]), {{}, 0, ids[i]}));
  }
  for (std::size_t i = 0; i < 77; ++i) {
    pools[1].push_back(mix.add(Op::kQuery, query_body(queries[i], 10, false), {queries[i], 10, -1}));
  }
  for (std::size_t i = 77; i < 126; ++i) {
    pools[2].push_back(mix.add(Op::kIds, query_body(queries[i], 0, true), {queries[i], 0, -1}));
  }
  pools[3].push_back(mix.add(Op::kStats, "<catalogRequest type=\"stats\" version=\"1\"/>", {}));
  pools[3].push_back(
      mix.add(Op::kStats, "<catalogRequest type=\"stats\" version=\"1\" user=\"portal\"/>", {}));

  std::vector<std::vector<double>> cdfs;
  for (const auto& pool : pools) cdfs.push_back(zipf_cdf(pool.size()));
  for (std::size_t c = 0; c < readers; ++c) {
    util::Prng stream_rng(mix_seed(seed, 100 + c));
    std::vector<std::uint32_t> stream(stream_len);
    for (auto& slot : stream) {
      const double u = stream_rng.uniform01();
      const std::size_t type = u < 0.50 ? 0 : u < 0.80 ? 1 : u < 0.99 ? 2 : 3;
      slot = pools[type][draw(cdfs[type], stream_rng)];
    }
    mix.streams.push_back(std::move(stream));
  }
  return mix;
}

/// discover's key distribution: every request distinct. query limit=20 40%
/// (a quarter follow the cursor to page 2), queryIds limit=100 20%, fetch
/// 40% uniform over `fetchable`. Criteria are one dynamic parameter, equality
/// on one of its `cardinality` values or a range bound drawn from 8192 steps.
Mix discover_mix(std::uint64_t seed, const std::vector<std::int64_t>& fetchable, int cardinality,
                 std::size_t readers, std::size_t per_reader) {
  Mix mix;
  for (std::size_t c = 0; c < readers; ++c) {
    util::Prng rng(mix_seed(seed, 200 + c));
    std::vector<std::uint32_t> stream;
    stream.reserve(per_reader);
    for (std::size_t i = 0; i < per_reader; ++i) {
      const double u = rng.uniform01();
      if (u >= 0.6) {
        const std::int64_t id =
            fetchable[static_cast<std::size_t>(rng.uniform(0, static_cast<std::int64_t>(fetchable.size()) - 1))];
        stream.push_back(mix.add(Op::kFetch, fetch_body(id), {{}, 0, id}));
        continue;
      }
      const core::ObjectQuery q = param_query(rng, cardinality, true);
      if (u < 0.4) {
        stream.push_back(
            mix.add(Op::kQuery, query_body(q, 20, false), {q, 20, -1}, rng.chance(0.25)));
      } else {
        stream.push_back(mix.add(Op::kIds, query_body(q, 100, true), {q, 100, -1}));
      }
    }
    mix.streams.push_back(std::move(stream));
  }
  return mix;
}

// ---------------------------------------------------------------------------
// Content checks (also exercised by self_test()).

std::vector<std::int64_t> page_ids(std::string_view response, bool ids_only) {
  const fed::ParsedResponse parsed = fed::parse_response(response);
  if (!parsed.ok) throw std::runtime_error("error response");
  const fed::QueryPayload payload = fed::parse_query_payload(parsed.payload, ids_only);
  std::vector<std::int64_t> out;
  if (ids_only) {
    for (const std::uint64_t id : payload.ids) out.push_back(static_cast<std::int64_t>(id));
  } else {
    for (const fed::ResultSpan& r : payload.results) out.push_back(static_cast<std::int64_t>(r.lid));
  }
  return out;
}

/// A first page must be the first `limit` ids of the expected ascending
/// result. Ids at or above `stable_below` (objects ingested during the run)
/// are left out on both sides: the page was computed at an earlier version.
std::string check_page(std::string_view response, bool ids_only,
                       const std::vector<std::int64_t>& expected_all, std::size_t limit,
                       std::int64_t stable_below) {
  std::vector<std::int64_t> got;
  try {
    got = page_ids(response, ids_only);
  } catch (const std::exception& e) {
    return std::string("unparseable page: ") + e.what();
  }
  if (!std::is_sorted(got.begin(), got.end())) return "page ids not ascending";
  std::vector<std::int64_t> stable_got;
  for (const std::int64_t id : got) {
    if (id < stable_below) stable_got.push_back(id);
  }
  std::vector<std::int64_t> expected;
  for (const std::int64_t id : expected_all) {
    if (id < stable_below) expected.push_back(id);
  }
  if (limit > 0 && expected.size() > limit) expected.resize(limit);
  if (stable_got != expected) {
    return "page of " + std::to_string(got.size()) + " ids differs from the reference (" +
           std::to_string(expected.size()) + " expected)";
  }
  return {};
}

std::string check_fetch(std::string_view response, const std::string& expected_canonical) {
  try {
    const fed::ParsedResponse parsed = fed::parse_response(response);
    if (!parsed.ok) return "fetch returned an error";
    const fed::QueryPayload payload = fed::parse_query_payload(parsed.payload, false);
    if (payload.results.size() != 1) return "fetch returned " + std::to_string(payload.results.size()) + " results";
    const xml::Document doc = xml::parse(payload.results.front().body);
    if (xml::canonical(doc) != expected_canonical) return "fetched document differs from the ingested one";
  } catch (const std::exception& e) {
    return std::string("unparseable fetch: ") + e.what();
  }
  return {};
}

/// Checks sampled responses. `reference(q)` answers a query in ascending
/// wire ids; `canonical_of(id)` is the expected document of a wire id.
void check_samples(const std::vector<SampledResponse>& samples, const Mix& mix,
                   const std::function<std::vector<std::int64_t>(const core::ObjectQuery&)>& reference,
                   const std::function<std::string(std::int64_t)>& canonical_of,
                   std::int64_t stable_below, RunResult& result, std::size_t& checked) {
  std::map<std::uint32_t, std::vector<std::int64_t>> memo;
  for (const SampledResponse& s : samples) {
    const Target& target = mix.targets[s.key];
    std::string problem;
    if (s.op == Op::kFetch) {
      problem = check_fetch(s.response, canonical_of(target.object));
    } else {
      auto it = memo.find(s.key);
      if (it == memo.end()) it = memo.emplace(s.key, reference(target.query)).first;
      problem = check_page(s.response, s.op == Op::kIds, it->second, target.limit, stable_below);
    }
    ++checked;
    if (!problem.empty()) {
      result.correct = false;
      result.problems.push_back(std::string(op_name(s.op)) + " check: " + problem);
    }
  }
}

// ---------------------------------------------------------------------------
// Topologies.

/// One catalog behind the default dispatcher and the default TCP server.
struct Node {
  std::unique_ptr<storage::PagedClobFile> pager;
  std::unique_ptr<TracingPager> traced_pager;
  std::unique_ptr<TracingFs> traced_fs;
  std::unique_ptr<core::MetadataCatalog> catalog;
  std::unique_ptr<storage::DurableCatalog> durable;
  std::unique_ptr<core::ServiceDispatcher> dispatcher;
  std::unique_ptr<TracingBroker> broker;
  std::unique_ptr<net::CatalogServer> server;

  void make_catalog() {
    catalog = std::make_unique<core::MetadataCatalog>(schema(), workload::lead_annotations(),
                                                      catalog_config());
  }
  void arm_paging(const std::string& path, bool trace) {
    pager = std::make_unique<storage::PagedClobFile>(path);
    rel::ClobPager* target = pager.get();
    if (trace) target = (traced_pager = std::make_unique<TracingPager>(*pager)).get();
    catalog->database().clobs().enable_paging(target, 4u << 20, 8);
  }
  void start(bool trace, core::DispatcherConfig dispatch = {},
             net::ServerConfig server_config = {}, const char* layer = "dispatcher") {
    if (trace) dispatch.before_execute = mark_worker_pickup;
    dispatcher = std::make_unique<core::ServiceDispatcher>(*catalog, dispatch);
    core::RequestBroker* front = dispatcher.get();
    if (trace) front = (broker = std::make_unique<TracingBroker>(*dispatcher, layer)).get();
    server = std::make_unique<net::CatalogServer>(*front, server_config);
    catalog->set_server_pauses(&server->stats().pauses);
    server->start();
  }
  void stop() {
    if (server) server->drain();
    if (durable) durable->close();
  }
  ~Node() { stop(); }
};

/// Per-document ingest of a corpus through ingest_xml (or, traced, through
/// its two halves: parse_arena then ingest). Returns the seconds taken.
double ingest_corpus(core::MetadataCatalog& catalog, const Corpus& corpus, bool split,
                     Samples& per_doc, ReplayStats* layers) {
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < corpus.xml.size(); ++i) {
    const std::string name = "doc-" + std::to_string(corpus.first + i);
    const Clock::time_point t0 = Clock::now();
    if (split) {
      const xml::Document doc = xml::parse_arena(corpus.xml[i]);
      const Clock::time_point t1 = Clock::now();
      catalog.ingest(doc, name, "bench");
      const Clock::time_point t2 = Clock::now();
      layers->doc_parse.add(micros(t1 - t0));
      layers->commit.add(micros(t2 - t1));
    } else {
      catalog.ingest_xml(corpus.xml[i], name, "bench");
    }
    per_doc.add(micros(Clock::now() - t0));
  }
  return seconds(Clock::now() - start);
}

/// Program counters read before and after a traced phase.
struct Counters {
  double l1_hits = 0, l1_misses = 0, l2_hits = 0, l2_misses = 0;
  double snapshots = 0, clob_hits = 0, clob_misses = 0;
  double read_pauses = 0, write_pauses = 0, frames_out = 0;
  double wal_records = 0, wal_fsyncs = 0;

  void add_catalog(const core::MetadataCatalog& c) {
    const util::CacheMetrics& m = c.cache_metrics();
    l1_hits += static_cast<double>(m.l1.hits.load());
    l1_misses += static_cast<double>(m.l1.misses.load());
    l2_hits += static_cast<double>(m.l2.hits.load());
    l2_misses += static_cast<double>(m.l2.misses.load());
    snapshots += static_cast<double>(c.mvcc_stats().snapshots_published);
    clob_hits += static_cast<double>(c.database().clobs().cache_hits());
    clob_misses += static_cast<double>(c.database().clobs().cache_misses());
  }
  void add_server(const net::CatalogServer& s) {
    read_pauses += static_cast<double>(s.stats().pauses.read_pauses.load());
    write_pauses += static_cast<double>(s.stats().pauses.write_pauses.load());
    frames_out += static_cast<double>(s.stats().frames_out.load());
  }
  void add_durable(const storage::DurableCatalog& d) {
    wal_records += static_cast<double>(d.metrics().wal_records.load());
    wal_fsyncs += static_cast<double>(d.metrics().wal_fsyncs.load());
  }
  Counters operator-(const Counters& o) const {
    Counters d = *this;
    d.l1_hits -= o.l1_hits; d.l1_misses -= o.l1_misses;
    d.l2_hits -= o.l2_hits; d.l2_misses -= o.l2_misses;
    d.snapshots -= o.snapshots; d.clob_hits -= o.clob_hits; d.clob_misses -= o.clob_misses;
    d.read_pauses -= o.read_pauses; d.write_pauses -= o.write_pauses;
    d.frames_out -= o.frames_out;
    d.wal_records -= o.wal_records; d.wal_fsyncs -= o.wal_fsyncs;
    return d;
  }
};

/// Polls the largest retired-but-unreclaimed count while a phase runs.
class RetiredSampler {
 public:
  explicit RetiredSampler(std::vector<const core::MetadataCatalog*> catalogs)
      : catalogs_(std::move(catalogs)), thread_([this] { loop(); }) {}
  ~RetiredSampler() { stop(); }
  RetiredSampler(const RetiredSampler&) = delete;
  RetiredSampler& operator=(const RetiredSampler&) = delete;

  double stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    return static_cast<double>(max_);
  }

 private:
  void loop() {
    while (!stop_.load()) {
      for (const auto* c : catalogs_) max_ = std::max(max_, c->mvcc_stats().retired_pending);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  std::vector<const core::MetadataCatalog*> catalogs_;
  std::atomic<bool> stop_{false};
  std::uint64_t max_ = 0;
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// The workload runner: set-up, load, checks and metrics, shared by all four.

class Workload {
 public:
  explicit Workload(const RunOptions& options) : o_(options) {}
  virtual ~Workload() = default;

  RunResult run() { return o_.trace ? run_traced() : run_measured(); }

 protected:
  /// Builds the topology and returns the program's set-up seconds.
  virtual double setup(bool trace) = 0;
  virtual void teardown() = 0;  // stops and destroys the topology
  virtual std::uint16_t port() const = 0;
  virtual void prepare() {}
  /// Set-ups per measured run; setup_s is their median. The workloads whose
  /// set-up takes several seconds do it twice to keep runs short.
  virtual std::size_t setups() const { return 3; }
  virtual std::size_t readers() const { return 4; }
  virtual bool has_writer() const { return false; }
  /// Content checks on sampled responses (and the writer's acks) while the
  /// topology still serves.
  virtual void check_live(const LoadResult& load, const WriterResult& writer, RunResult& r) = 0;
  /// Checks after the servers stopped (durability round trip).
  virtual void check_stopped(const WriterResult&, RunResult&) {}
  virtual Counters counters() const = 0;
  virtual std::vector<const core::MetadataCatalog*> catalogs() const = 0;
  virtual TracingBroker* front_broker() const = 0;
  /// Replays the traced phase's sampled reads and the writer bodies in
  /// `ingested` through the layer entry points.
  virtual void replay(const LoadResult& load, const std::vector<std::size_t>& ingested,
                      ReplayStats& out) = 0;
  /// End-to-end ingest figures when the workload has no writer: per-document
  /// ingest latency of the set-up.
  Samples setup_ingest_;
  ReplayStats setup_layers_;  // traced set-up: parse / commit split
  double setup_ingest_s_ = 0;
  std::size_t setup_docs_ = 0;

  Mix mix_;
  std::vector<std::size_t> positions_;  // per reader: next index into its stream
  std::vector<std::string> writer_bodies_;
  std::size_t writer_next_ = 0;  // next unsent writer body
  const RunOptions& o_;

  std::string path(const std::string& name) const { return o_.work_dir + "/" + name; }

 private:
  struct Phase {
    LoadResult load;
    WriterResult writer;
    double seconds = 0;
  };

  Phase run_load(double warmup_s, double measure_s, bool trace) {
    Phase phase;
    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(50);
    const LoadWindow window{
        start, start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(warmup_s)),
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(warmup_s + measure_s))};
    std::vector<LoadResult> results(readers());
    positions_.resize(readers(), 0);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < readers(); ++c) {
      threads.emplace_back([&, c] {
        try {
          results[c] = run_reader(port(), mix_.requests, mix_.streams[c], positions_[c],
                                  window, trace, kSamplesPerOp, trace ? kReplayPerReader : 0);
        } catch (const std::exception& e) {
          results[c].fail(std::string("reader aborted: ") + e.what());
        }
      });
    }
    if (has_writer()) {
      try {
        phase.writer = run_writer(port(), writer_bodies_, writer_next_, kWriterRate, window, trace);
      } catch (const std::exception& e) {
        ++phase.writer.failed;
        phase.writer.errors.push_back(std::string("writer aborted: ") + e.what());
      }
    }
    for (auto& t : threads) t.join();
    for (auto& r : results) phase.load.merge(std::move(r));
    phase.seconds = measure_s;
    return phase;
  }

  void account(const Phase& phase, RunResult& r) {
    r.attempted += phase.load.attempted + phase.writer.attempted;
    r.failed += phase.load.failed + phase.writer.failed;
    for (const auto& e : phase.load.errors) r.problems.push_back(e);
    for (const auto& e : phase.writer.errors) r.problems.push_back(e);
  }

  /// Latency percentiles of one phase. The bounded end-to-end set goes to
  /// `bounded`; the p99s, whose run-to-run spread on a shared 4-core host is
  /// wider than any usable bound (they sit in stall components: page-in
  /// scheduler delays on discover, ingest stalls charged to every due
  /// request on ingest_mixed), go to `tails`, reported by traced runs.
  void latency_metrics(Phase& phase, MetricMap& bounded, MetricMap& tails) {
    auto& lat = phase.load.latency;
    bounded["query_p50_us"] = {lat[0].pct(0.50), "us"};
    bounded["ids_p50_us"] = {lat[1].pct(0.50), "us"};
    bounded["fetch_p50_us"] = {lat[2].pct(0.50), "us"};
    tails["query_p99_us"] = {lat[0].pct(0.99), "us"};
    tails["ids_p99_us"] = {lat[1].pct(0.99), "us"};
    tails["fetch_p99_us"] = {lat[2].pct(0.99), "us"};
    std::printf("samples: query=%zu queryIds=%zu fetch=%zu stats=%zu\n", lat[0].size(),
                lat[1].size(), lat[2].size(), lat[3].size());
    if (has_writer()) {
      ingest_metrics(phase.writer.latency, "open-loop writer", bounded, tails);
      std::printf("writer: %zu ingests at %.0f/s, generator lateness p50 %.1f us p99 %.1f us max %.1f us\n",
                  phase.writer.latency.size(), kWriterRate, phase.writer.lateness.pct(0.5),
                  phase.writer.lateness.pct(0.99), phase.writer.lateness.pct(1.0));
    }
  }

  /// Ingest percentiles: the writer's, or on a workload without one the
  /// per-document ingests of every set-up so far.
  void ingest_metrics(Samples& ingest, const char* source, MetricMap& bounded, MetricMap& tails) {
    bounded["ingest_p50_us"] = {ingest.pct(0.50), "us"};
    tails["ingest_p99_us"] = {ingest.pct(0.99), "us"};
    std::printf("samples: ingest=%zu (%s)\n", ingest.size(), source);
  }

  static void print_tails(const MetricMap& tails) {
    for (const auto& [name, metric] : tails) {
      std::printf("tail %-15s %12.1f us (per-layer metric in traced runs)\n", name.c_str(),
                  metric.first);
    }
  }

  RunResult run_measured() {
    RunResult r;
    prepare();
    malloc_trim(0);
    const double rss_before = rss_mb();
    std::vector<double> setup_times{setup(false)};
    Phase phase = run_load(kWarmupS, o_.seconds, false);
    account(phase, r);
    MetricMap& m = r.metrics;
    m["throughput_rps"] = {
        static_cast<double>(phase.load.measured + phase.writer.measured) / phase.seconds, "1/s"};
    MetricMap tails;
    latency_metrics(phase, m, tails);
    check_live(phase.load, phase.writer, r);
    // RSS counts the program's memory: the benchmark's own latency samples
    // and kept responses go first, and free heap pages go back to the OS.
    phase.load = LoadResult{};
    phase.writer.latency = Samples{};
    phase.writer.lateness = Samples{};
    malloc_trim(0);
    const double rss_after = rss_mb();
    teardown();
    check_stopped(phase.writer, r);
    for (std::size_t i = 1; i < setups(); ++i) {
      setup_times.push_back(setup(false));
      teardown();
    }
    if (!has_writer()) ingest_metrics(setup_ingest_, "set-up ingests", m, tails);
    print_tails(tails);
    m["setup_s"] = {median(setup_times), "s"};
    m["rss_mb"] = {rss_after - rss_before, "MiB"};
    std::printf("setup_s runs:");
    for (const double s : setup_times) std::printf(" %.3f", s);
    std::printf("\nfailed_frac: %.6f (%llu of %llu requests)\n",
                ratio(static_cast<double>(r.failed), static_cast<double>(r.attempted)),
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.attempted));
    return r;
  }

  /// Sets up once, then runs an untraced phase as long as a measured run
  /// (the tails come from it, on as many samples as the end-to-end
  /// percentiles) and a traced phase half as long.
  RunResult run_traced() {
    RunResult r;
    prepare();
    setup(true);
    Phase plain = run_load(kWarmupS, o_.seconds, false);
    account(plain, r);
    MetricMap untraced;
    latency_metrics(plain, untraced, r.metrics);
    if (!has_writer()) ingest_metrics(setup_ingest_, "set-up ingests", untraced, r.metrics);
    print_tails(r.metrics);

    const Counters before = counters();
    spans().set_enabled(true);
    Phase traced;
    double retired_max = 0;
    {
      RetiredSampler sampler(catalogs());
      traced = run_load(0.0, std::max(1.0, o_.seconds / 2), true);
      retired_max = sampler.stop();
    }
    spans().set_enabled(false);
    const Counters delta = counters() - before;
    account(traced, r);
    check_live(traced.load, traced.writer, r);
    const std::vector<Span> all = spans().collect();
    layer_metrics(plain, traced, delta, retired_max, all, r);
    teardown();
    check_stopped(traced.writer, r);
    const std::string span_file = path("spans-" + o_.workload + ".tsv");
    const std::size_t written = spans().write(span_file);
    std::printf("spans: %zu written to %s\n", written, span_file.c_str());
    return r;
  }

  void layer_metrics(Phase& plain, Phase& traced, const Counters& d, double retired_max,
                     const std::vector<Span>& all, RunResult& r) {
    MetricMap& m = r.metrics;
    TracingBroker* front = front_broker();
    TraceBreakdown b = breakdown(all, front->layer());
    const double traced_rps =
        static_cast<double>(traced.load.measured + traced.writer.measured) / traced.seconds;
    const double plain_rps =
        static_cast<double>(plain.load.measured + plain.writer.measured) / plain.seconds;

    // net
    m["net.self_p50_us"] = {b.net_self.pct(0.5), "us"};
    const BrokerCounters& fc = front->counters();
    m["net.inline_ratio"] = {ratio(static_cast<double>(fc.inline_hits.load()),
                                   static_cast<double>(fc.reads_probed.load())), "ratio"};
    m["net.read_pauses"] = {1000.0 * ratio(d.read_pauses, d.frames_out), "per_1k"};
    m["net.write_pauses"] = {1000.0 * ratio(d.write_pauses, d.frames_out), "per_1k"};
    m["net.response_bytes_mean"] = {ratio(static_cast<double>(traced.load.response_bytes),
                                          static_cast<double>(traced.load.measured)), "bytes"};

    // dispatcher: queue wait and handle of the dispatchers behind the front
    // (the shards' dispatchers on fed_discover).
    Samples queue_wait, handle, router, shard;
    const std::uint8_t shard_layer = spans().layer("shard");
    double shard_legs = 0;
    for (const Span& s : all) {
      const bool dispatcher_layer = s.layer == shard_layer || s.layer == front->layer();
      if (s.kind == SpanKind::kQueueWait && dispatcher_layer) queue_wait.add(s.micros());
      if (s.kind == SpanKind::kHandle && dispatcher_layer) handle.add(s.micros());
      if (s.kind == SpanKind::kBroker && s.layer == front->layer()) router.add(s.micros());
      if (s.layer == shard_layer && (s.kind == SpanKind::kBroker || s.kind == SpanKind::kInline)) {
        shard_legs += 1;
        if (s.kind == SpanKind::kBroker) shard.add(s.micros());
      }
    }
    m["dispatcher.queue_wait_p50_us"] = {queue_wait.pct(0.5), "us"};
    m["dispatcher.queue_wait_p99_us"] = {queue_wait.pct(0.99), "us"};
    m["dispatcher.handle_p50_us"] = {handle.pct(0.5), "us"};

    // cache
    std::printf("cache probes: l1 %.0f hits / %.0f misses, l2 %.0f hits / %.0f misses\n",
                d.l1_hits, d.l1_misses, d.l2_hits, d.l2_misses);
    m["cache.l2_hit_ratio"] = {ratio(d.l2_hits, d.l2_hits + d.l2_misses), "ratio"};
    m["cache.l1_hit_ratio"] = {ratio(d.l1_hits, d.l1_hits + d.l1_misses), "ratio"};
    m["cache.segments_per_s"] = {d.snapshots / traced.seconds, "1/s"};

    // single-threaded replay: xml, service, engine, response, catalog fetch
    ReplayStats rs = setup_layers_;
    std::vector<std::size_t> ingested;  // writer bodies acknowledged, in send order
    for (const Phase* p : {&plain, &traced}) {
      for (const auto& ack : p->writer.acked) ingested.push_back(ack.second);
    }
    replay(traced.load, ingested, rs);
    m["xml.request_parse_p50_us"] = {rs.request_parse.pct(0.5), "us"};
    m["xml.doc_parse_p50_us"] = {rs.doc_parse.pct(0.5), "us"};
    m["service.query_from_xml_p50_us"] = {rs.query_from_xml.pct(0.5), "us"};
    m["service.self_p50_us"] = {rs.service_self.pct(0.5), "us"};
    m["engine.query_p50_us"] = {rs.engine.pct(0.5), "us"};
    m["engine.query_p99_us"] = {rs.engine.pct(0.99), "us"};
    m["engine.rows_scanned_per_result"] = {ratio(rs.rows_scanned, rs.results), "count"};
    m["engine.index_probes_per_query"] = {ratio(rs.index_probes, rs.queries), "count"};
    m["engine.rows_materialized_per_query"] = {ratio(rs.rows_materialized, rs.queries), "count"};
    m["engine.fast_path_ratio"] = {ratio(rs.fast_path, rs.queries), "ratio"};
    m["response.build_p50_us"] = {rs.response_build.pct(0.5), "us"};
    m["response.build_p99_us"] = {rs.response_build.pct(0.99), "us"};
    m["response.bytes_per_object"] = {ratio(rs.response_bytes, rs.response_objects), "bytes"};
    m["catalog.fetch_p50_us"] = {rs.catalog_fetch.pct(0.5), "us"};
    m["catalog.fetch_p99_us"] = {rs.catalog_fetch.pct(0.99), "us"};
    m["ingest.commit_p50_us"] = {rs.commit.pct(0.5), "us"};
    m["ingest.commit_p99_us"] = {rs.commit.pct(0.99), "us"};

    // CLOB paging
    Samples page_reads, fsyncs;
    for (const Span& s : all) {
      if (s.kind == SpanKind::kPageRead) page_reads.add(s.micros());
      if (s.kind == SpanKind::kFsync) fsyncs.add(s.micros());
    }
    double pager_bytes = 0, clob_mean = 0;
    for (const auto* c : catalogs()) {
      const rel::ClobStore& clobs = c->database().clobs();
      if (clobs.count() > 0) clob_mean = static_cast<double>(clobs.payload_bytes()) / static_cast<double>(clobs.count());
    }
    if (const TracingPager* p = pager()) pager_bytes = static_cast<double>(p->bytes_read());
    const double spilled_gets = d.clob_hits + d.clob_misses;
    m["clob.lru_hit_ratio"] = {ratio(d.clob_hits, spilled_gets), "ratio"};
    m["clob.page_read_p50_us"] = {page_reads.pct(0.5), "us"};
    m["clob.bytes_read_per_byte_returned"] = {ratio(pager_bytes, spilled_gets * clob_mean), "ratio"};

    // ingest / set-up
    double docs = 0, rows = 0, clob_bytes = 0, objects = 0, approx = 0, postings = 0;
    for (const auto* c : catalogs()) {
      const util::IngestMetrics& im = c->ingest_metrics();
      docs += static_cast<double>(im.documents.load());
      rows += static_cast<double>(im.element_rows.load());
      clob_bytes += static_cast<double>(im.clob_bytes.load());
      objects += static_cast<double>(c->object_count());
      approx += static_cast<double>(c->database().approx_bytes());
      postings += static_cast<double>(c->database().postings_stats().postings_bytes);
    }
    m["ingest.rows_per_doc"] = {ratio(rows, docs), "count"};
    m["ingest.clob_bytes_per_doc"] = {ratio(clob_bytes, docs), "bytes"};
    m["setup.ingest_docs_per_s"] = {ratio(static_cast<double>(setup_docs_), setup_ingest_s_), "1/s"};

    // storage
    m["wal.fsync_p50_us"] = {fsyncs.pct(0.5), "us"};
    m["wal.records_per_fsync"] = {ratio(d.wal_records, d.wal_fsyncs), "count"};
    const TracingFs* tfs = traced_fs();
    m["wal.write_bytes_per_user_byte"] = {
        ratio(tfs ? static_cast<double>(tfs->bytes_written()) : 0.0,
              static_cast<double>(traced.writer.xml_bytes)), "ratio"};
    const auto [recovery_ms, replayed] = recovery();
    m["recovery.ms"] = {recovery_ms, "ms"};
    m["recovery.replayed_records"] = {replayed, "count"};

    // memory
    m["mvcc.retired_pending_max"] = {retired_max, "count"};
    m["rel.approx_bytes_per_object"] = {ratio(approx, objects), "bytes"};
    m["rel.postings_bytes_per_object"] = {ratio(postings, objects), "bytes"};

    // federation
    const bool federated = shard_legs > 0;
    m["fed.router_handle_p50_us"] = {federated ? router.pct(0.5) : 0.0, "us"};
    m["fed.router_handle_p99_us"] = {federated ? router.pct(0.99) : 0.0, "us"};
    m["fed.shard_handle_p50_us"] = {shard.pct(0.5), "us"};
    m["fed.legs_per_request"] = {ratio(shard_legs, static_cast<double>(fc.submits.load())), "count"};

    // run-level
    m["failed_frac"] = {ratio(static_cast<double>(r.failed), static_cast<double>(r.attempted)), "ratio"};
    const double overhead = plain_rps > 0 ? 1.0 - traced_rps / plain_rps : 0.0;
    m["trace.overhead_ratio"] = {overhead, "ratio"};

    // Reconciliation: mean wire latency against the sum of mean layer self
    // times along the request path. Single node: the replayed service layers
    // stand in for the worker's handle time. Federated: the shard legs run in
    // parallel, so one mean leg is the layer below the router, and the
    // residue is the router's own work, leg transport and merge.
    const double wire = b.client.mean();
    const double share_inline = ratio(static_cast<double>(b.inline_probe.size()),
                                      static_cast<double>(b.client.size() - b.unmatched));
    const double dispatched = 1.0 - share_inline;
    const double replay_handle = rs.service_total.mean();
    const double layers =
        federated ? b.net_self.mean() + shard.mean()
                  : b.net_self.mean() + share_inline * b.inline_probe.mean() +
                        dispatched * (b.broker_self.mean() + b.queue_wait.mean() + replay_handle);
    m["trace.residue_us"] = {wire - layers, "us"};

    std::printf("tracing overhead: untraced %.1f resp/s, traced %.1f resp/s (%.1f%% slower)\n",
                plain_rps, traced_rps, 100.0 * overhead);
    if (federated) {
      std::printf("reconciliation: mean wire %.1f us = net self %.1f + mean shard leg %.1f "
                  "+ residue (router, leg transport, merge) %.1f us\n",
                  wire, b.net_self.mean(), shard.mean(), wire - layers);
    } else {
      std::printf("reconciliation: mean wire %.1f us = net self %.1f + inline %.2f x %.1f + "
                  "dispatched %.2f x (broker self %.1f + queue wait %.1f + replayed handle "
                  "%.1f) + residue %.1f us (live worker handle mean %.1f us)\n",
                  wire, b.net_self.mean(), share_inline, b.inline_probe.mean(), dispatched,
                  b.broker_self.mean(), b.queue_wait.mean(), replay_handle, wire - layers,
                  b.handle.mean());
    }
    std::printf("p99 samples: dispatcher.queue_wait=%zu engine.query=%zu response.build=%zu "
                "catalog.fetch=%zu ingest.commit=%zu fed.router_handle=%zu\n",
                queue_wait.size(), rs.engine.size(), rs.response_build.size(),
                rs.catalog_fetch.size(), rs.commit.size(), federated ? router.size() : 0);
    std::printf("spans joined: %zu client spans, %zu without a broker span; replayed %zu reads "
                "(%zu skipped), %zu ingests\n",
                b.client.size(), b.unmatched, rs.service_total.size(), rs.skipped, rs.commit.size());
  }

 protected:
  virtual const TracingPager* pager() const { return nullptr; }
  virtual const TracingFs* traced_fs() const { return nullptr; }
  virtual std::pair<double, double> recovery() const { return {0.0, 0.0}; }
};

// ---------------------------------------------------------------------------
// hot_browse and discover: one in-memory catalog.

class SingleNodeWorkload : public Workload {
 public:
  SingleNodeWorkload(const RunOptions& options, bool scale) : Workload(options), scale_(scale) {
    const std::size_t docs = scale ? 4000 : 2000;
    corpus_ = scale ? make_corpus(scale_profile(o_.seed, docs), 0, docs)
                    : make_corpus(default_profile(o_.seed), 0, docs);
    if (scale) {
      std::vector<std::int64_t> ids(docs);
      for (std::size_t i = 0; i < docs; ++i) ids[i] = static_cast<std::int64_t>(i);
      mix_ = discover_mix(o_.seed, ids, 16, readers(), 12000);
    } else {
      mix_ = hot_mix(o_.seed, docs, readers(), 1u << 18);
    }
  }

 protected:
  double setup(bool trace) override {
    const Clock::time_point start = Clock::now();
    node_ = std::make_unique<Node>();
    node_->make_catalog();
    if (scale_) node_->arm_paging(path("discover-" + std::to_string(setups_++) + ".pages"), trace);
    setup_ingest_s_ = ingest_corpus(*node_->catalog, corpus_, trace, setup_ingest_, &setup_layers_);
    setup_docs_ = corpus_.xml.size();
    if (scale_) node_->catalog->database().clobs().flush();
    node_->start(trace);
    return seconds(Clock::now() - start);
  }
  std::size_t setups() const override { return scale_ ? 2 : 3; }
  void teardown() override {
    node_.reset();
    for (std::size_t i = 0; i < setups_; ++i) fs::remove(path("discover-" + std::to_string(i) + ".pages"));
  }
  std::uint16_t port() const override { return node_->server->port(); }

  void check_live(const LoadResult& load, const WriterResult&, RunResult& r) override {
    std::size_t checked = 0;
    core::MetadataCatalog& catalog = *node_->catalog;
    check_samples(
        load.samples, mix_,
        [&](const core::ObjectQuery& q) {
          const auto ids = catalog.query(q);
          return std::vector<std::int64_t>(ids.begin(), ids.end());
        },
        [&](std::int64_t id) { return corpus_.canonical(static_cast<std::size_t>(id)); },
        INT64_MAX, r, checked);
    std::printf("content checks: %zu sampled responses compared with the in-process catalog\n",
                checked);
  }
  Counters counters() const override {
    Counters c;
    c.add_catalog(*node_->catalog);
    c.add_server(*node_->server);
    return c;
  }
  std::vector<const core::MetadataCatalog*> catalogs() const override {
    return {node_->catalog.get()};
  }
  TracingBroker* front_broker() const override { return node_->broker.get(); }
  const TracingPager* pager() const override { return node_->traced_pager.get(); }
  void replay(const LoadResult& load, const std::vector<std::size_t>&, ReplayStats& out) override {
    node_->stop();
    replay_reads(*node_->catalog, load.replay, kReplayBudgetS, out);
  }

 private:
  bool scale_;
  Corpus corpus_;
  std::unique_ptr<Node> node_;
  std::size_t setups_ = 0;
};

// ---------------------------------------------------------------------------
// ingest_mixed: a durable catalog recovered from a prepared data dir, read
// by hot_browse's mix on 3 connections while an open-loop writer ingests.

class IngestMixedWorkload : public Workload {
 public:
  static constexpr std::size_t kSnapshotDocs = 2000;
  static constexpr std::size_t kWalDocs = 500;

  ~IngestMixedWorkload() override {
    node_.reset();
    for (const char* dir : {"prep", "live", "closed", "replay"}) fs::remove_all(path(dir));
  }

  explicit IngestMixedWorkload(const RunOptions& options)
      : Workload(options),
        preload_(make_corpus(default_profile(o_.seed), 0, kSnapshotDocs + kWalDocs)) {
    mix_ = hot_mix(o_.seed, preload_.xml.size(), readers(), 1u << 18);
    // Enough fresh documents for every phase: a traced run adds a traced
    // phase half as long as the measured one.
    const double load_s = kWarmupS + o_.seconds * (o_.trace ? 1.5 : 1.0) + 1;
    const auto count = static_cast<std::size_t>(kWriterRate * load_s);
    writer_docs_ = make_corpus(default_profile(o_.seed), preload_.xml.size(), count);
    for (std::size_t k = 0; k < count; ++k) {
      writer_bodies_.push_back(ingest_body(writer_docs_.xml[k], "new-" + std::to_string(k)));
    }
  }

 protected:
  std::size_t readers() const override { return 3; }
  bool has_writer() const override { return true; }

  /// Untimed: a snapshot of 2,000 documents plus a 500-record WAL tail.
  void prepare() override {
    fs::remove_all(path("prep"));
    core::MetadataCatalog catalog(schema(), workload::lead_annotations(), catalog_config());
    storage::DurableCatalog durable(catalog, {path("prep"), {}});
    for (std::size_t i = 0; i < preload_.xml.size(); ++i) {
      if (i == kSnapshotDocs) durable.checkpoint();
      catalog.ingest_xml(preload_.xml[i], "doc-" + std::to_string(i), "bench");
    }
    durable.close();
  }

  double setup(bool trace) override {
    const std::string dir = path("live");
    fs::remove_all(dir);
    fs::copy(path("prep"), dir, fs::copy_options::recursive);
    const Clock::time_point start = Clock::now();
    node_ = std::make_unique<Node>();
    node_->make_catalog();
    storage::Fs* fsys = &storage::real_fs();
    if (trace) fsys = (node_->traced_fs = std::make_unique<TracingFs>(storage::real_fs())).get();
    node_->durable = std::make_unique<storage::DurableCatalog>(
        *node_->catalog, storage::DurabilityConfig{dir, {}}, *fsys);
    node_->start(trace);
    return seconds(Clock::now() - start);
  }
  /// Stops cleanly (drain, WAL flush and close) and keeps the closed data
  /// dir for check_stopped().
  void teardown() override {
    node_.reset();
    fs::remove_all(path("closed"));
    fs::rename(path("live"), path("closed"));
  }
  std::uint16_t port() const override { return node_->server->port(); }

  void check_live(const LoadResult& load, const WriterResult& writer, RunResult& r) override {
    std::size_t checked = 0;
    core::MetadataCatalog& catalog = *node_->catalog;
    check_samples(
        load.samples, mix_,
        [&](const core::ObjectQuery& q) {
          const auto ids = catalog.query(q);
          return std::vector<std::int64_t>(ids.begin(), ids.end());
        },
        [&](std::int64_t id) { return preload_.canonical(static_cast<std::size_t>(id)); },
        static_cast<std::int64_t>(preload_.xml.size()), r, checked);
    // Every acknowledged ingest is fetchable over the wire.
    net::BlockingClient client("127.0.0.1", port());
    for (const auto& [id, k] : writer.acked) {
      const std::string response = client.call(fetch_body(id));
      ++r.attempted;
      const std::string problem = check_fetch(response, writer_docs_.canonical(k));
      if (!problem.empty()) {
        ++r.failed;
        r.correct = false;
        r.problems.push_back("acknowledged object " + std::to_string(id) + ": " + problem);
      }
    }
    std::printf("content checks: %zu sampled reads, %zu acknowledged ingests fetched\n", checked,
                writer.acked.size());
  }

  /// Clean close, then reopen the data dir: every acknowledged object is back.
  void check_stopped(const WriterResult& writer, RunResult& r) override {
    const std::string dir = path("closed");
    core::MetadataCatalog catalog(schema(), workload::lead_annotations(), catalog_config());
    storage::DurableCatalog durable(catalog, {dir, {}});
    std::size_t missing = 0;
    for (const auto& [id, k] : writer.acked) {
      if (catalog.object_state(id) != core::ObjectState::kLive ||
          xml::canonical(catalog.fetch(id)) != writer_docs_.canonical(k)) {
        ++missing;
      }
    }
    durable.close();
    if (missing > 0) {
      r.correct = false;
      r.problems.push_back(std::to_string(missing) + " acknowledged objects lost across reopen");
    }
    std::printf("durability check: %zu acknowledged objects present after close and reopen\n",
                writer.acked.size() - missing);
  }

  Counters counters() const override {
    Counters c;
    c.add_catalog(*node_->catalog);
    c.add_server(*node_->server);
    c.add_durable(*node_->durable);
    return c;
  }
  std::vector<const core::MetadataCatalog*> catalogs() const override {
    return {node_->catalog.get()};
  }
  TracingBroker* front_broker() const override { return node_->broker.get(); }
  const TracingFs* traced_fs() const override { return node_->traced_fs.get(); }
  std::pair<double, double> recovery() const override {
    const storage::RecoveryInfo& info = node_->durable->recovery();
    return {static_cast<double>(info.recovery_micros) / 1000.0,
            static_cast<double>(info.replayed_records)};
  }

  void replay(const LoadResult& load, const std::vector<std::size_t>& ingested,
              ReplayStats& out) override {
    node_->stop();
    replay_reads(*node_->catalog, load.replay, kReplayBudgetS, out);
    // Ingests of both phases replay on a second recovery of the prepared
    // dir, in send order.
    const std::string dir = path("replay");
    fs::remove_all(dir);
    fs::copy(path("prep"), dir, fs::copy_options::recursive);
    {
      core::MetadataCatalog catalog(schema(), workload::lead_annotations(), catalog_config());
      storage::DurableCatalog durable(catalog, {dir, {}});
      std::vector<std::string> bodies;
      for (const std::size_t k : ingested) bodies.push_back(writer_bodies_[k]);
      replay_ingests(catalog, bodies, out);
      durable.close();
    }
    fs::remove_all(dir);
  }

 private:
  Corpus preload_;
  Corpus writer_docs_;
  std::unique_ptr<Node> node_;
};

// ---------------------------------------------------------------------------
// fed_discover: a router over 2 shards, preloaded through the router.

class FedWorkload : public Workload {
 public:
  static constexpr std::size_t kDocs = 2000;
  static constexpr std::uint32_t kShards = 2;
  /// Requests per reader: a measured run at up to ~12k resp/s sends each at
  /// most once. Beyond that (and in traced runs) a reader wraps, and a key
  /// repeats only after 60k requests, long after the shards' L2 evicted it.
  static constexpr std::size_t kStreamPerReader = 60000;

  explicit FedWorkload(const RunOptions& options)
      : Workload(options), corpus_(make_corpus(default_profile(o_.seed), 0, kDocs)) {
    // Global ids the router will assign: placement by name, local ids in
    // arrival order per shard. setup() checks the router agrees.
    std::vector<std::uint64_t> next_lid(kShards, 0);
    for (std::size_t i = 0; i < kDocs; ++i) {
      const std::string name = "doc-" + std::to_string(i);
      bodies_.push_back(ingest_body(corpus_.xml[i], name));
      const std::uint32_t shard = fed::placement_shard(name, kShards);
      gids_.push_back(static_cast<std::int64_t>(fed::gid_of(next_lid[shard]++, shard, kShards)));
      doc_of_gid_[gids_.back()] = i;
    }
    mix_ = discover_mix(o_.seed, gids_, 16, readers(), kStreamPerReader);
    // Untimed single-node reference over the same corpus: id i is document i.
    reference_ = std::make_unique<Node>();
    reference_->make_catalog();
    Samples unused;
    ingest_corpus(*reference_->catalog, corpus_, false, unused, nullptr);
  }

 protected:
  double setup(bool trace) override {
    const Clock::time_point start = Clock::now();
    shards_.clear();
    fed::RouterOptions options;
    for (std::uint32_t s = 0; s < kShards; ++s) {
      auto shard = std::make_unique<Node>();
      shard->make_catalog();
      core::DispatcherConfig dispatch;
      dispatch.workers = 2;
      net::ServerConfig server;
      server.event_threads = 1;
      shard->start(trace, dispatch, server, "shard");
      fed::ShardEndpoint endpoint;
      endpoint.primary_port = shard->server->port();
      options.shards.push_back(endpoint);
      shards_.push_back(std::move(shard));
    }
    router_ = std::make_unique<fed::FederationRouter>(std::move(options));
    core::RequestBroker* front = router_.get();
    if (trace) front = (broker_ = std::make_unique<TracingBroker>(*router_, "router")).get();
    front_ = std::make_unique<net::CatalogServer>(*front);
    front_->start();

    net::BlockingClient client("127.0.0.1", front_->port());
    const Clock::time_point ingest_start = Clock::now();
    std::size_t misplaced = 0;
    for (std::size_t i = 0; i < kDocs; ++i) {
      const Clock::time_point t0 = Clock::now();
      const std::string response = client.call(bodies_[i]);
      setup_ingest_.add(micros(Clock::now() - t0));
      const std::size_t open = response.find("<objectID>");
      if (response.find("status=\"ok\"") == std::string::npos || open == std::string::npos) {
        throw std::runtime_error("federated preload failed: " + response.substr(0, 200));
      }
      if (std::stoll(response.substr(open + 10)) != gids_[i]) ++misplaced;
    }
    setup_ingest_s_ = seconds(Clock::now() - ingest_start);
    setup_docs_ = kDocs;
    const double elapsed = seconds(Clock::now() - start);
    if (misplaced > 0) {
      throw std::runtime_error(std::to_string(misplaced) +
                               " preloaded documents got another global id than placement predicts");
    }
    return elapsed;
  }
  std::size_t setups() const override { return 2; }
  void teardown() override {
    if (front_) front_->drain();
    for (auto& shard : shards_) shard->stop();
    front_.reset();
    broker_.reset();
    router_.reset();
    shards_.clear();
  }
  std::uint16_t port() const override { return front_->port(); }

  void check_live(const LoadResult& load, const WriterResult&, RunResult& r) override {
    std::size_t checked = 0;
    check_samples(
        load.samples, mix_,
        [&](const core::ObjectQuery& q) {
          std::vector<std::int64_t> gids;
          for (const core::ObjectId id : reference_->catalog->query(q)) {
            gids.push_back(gids_[static_cast<std::size_t>(id)]);
          }
          std::sort(gids.begin(), gids.end());
          return gids;
        },
        [&](std::int64_t gid) { return corpus_.canonical(doc_of_gid_.at(gid)); }, INT64_MAX, r,
        checked);
    std::printf("content checks: %zu sampled merged responses compared with a single-node "
                "reference\n", checked);
  }
  Counters counters() const override {
    Counters c;
    for (const auto& shard : shards_) c.add_catalog(*shard->catalog);
    c.add_server(*front_);
    return c;
  }
  std::vector<const core::MetadataCatalog*> catalogs() const override {
    std::vector<const core::MetadataCatalog*> out;
    for (const auto& shard : shards_) out.push_back(shard->catalog.get());
    return out;
  }
  TracingBroker* front_broker() const override { return broker_.get(); }

  /// Replays the merged request stream on the single-node reference, with
  /// fetch ids translated and cursor continuations left out.
  void replay(const LoadResult& load, const std::vector<std::size_t>&, ReplayStats& out) override {
    std::vector<std::string> local;
    for (const std::string& body : load.replay) {
      if (body.find(" cursor=\"") != std::string::npos) {
        ++out.skipped;
        continue;
      }
      const std::string gid = core::peek_request_attr(body, "objectID");
      local.push_back(gid.empty() ? body
                                  : fetch_body(static_cast<std::int64_t>(doc_of_gid_.at(std::stoll(gid)))));
    }
    replay_reads(*reference_->catalog, local, kReplayBudgetS, out);
  }

 private:
  Corpus corpus_;
  std::vector<std::string> bodies_;
  std::unique_ptr<Node> reference_;
  std::vector<std::unique_ptr<Node>> shards_;
  std::unique_ptr<fed::FederationRouter> router_;
  std::unique_ptr<TracingBroker> broker_;
  std::unique_ptr<net::CatalogServer> front_;
  std::vector<std::int64_t> gids_;  // by document
  std::map<std::int64_t, std::size_t> doc_of_gid_;
};

}  // namespace

RunResult run_workload(const RunOptions& options) {
  std::unique_ptr<Workload> w;
  if (options.workload == "hot_browse") w = std::make_unique<SingleNodeWorkload>(options, false);
  if (options.workload == "discover") w = std::make_unique<SingleNodeWorkload>(options, true);
  if (options.workload == "ingest_mixed") w = std::make_unique<IngestMixedWorkload>(options);
  if (options.workload == "fed_discover") w = std::make_unique<FedWorkload>(options);
  if (!w) throw std::invalid_argument("unknown workload '" + options.workload + "'");
  return w->run();
}

std::vector<std::string> self_test() {
  std::vector<std::string> missed;
  const auto expect_caught = [&missed](const std::string& problem, const char* what) {
    if (problem.empty()) missed.push_back(what);
  };
  const std::string ok =
      "<catalogResponse status=\"ok\" protocol=\"1\" version=\"3\"><objectIDs>"
      "<objectID>1</objectID><objectID>2</objectID><objectID>3</objectID></objectIDs>"
      "</catalogResponse>";
  net::Frame frame{net::FrameType::kResponse, net::kFrameVersion, 7, ok};
  if (!check_frame(frame, 7).empty()) missed.push_back("a well-formed response was rejected");
  expect_caught(check_frame(frame, 8), "wrong echoed request id");
  net::Frame corrupted = frame;
  corrupted.payload.replace(corrupted.payload.find("protocol"), 8, "protocXl");
  expect_caught(check_frame(corrupted, 7), "corrupted protocol attribute");
  corrupted = frame;
  corrupted.payload = "<catalogResponse status=\"error\" protocol=\"1\" code=\"validation\"/>";
  expect_caught(check_frame(corrupted, 7), "error status");
  corrupted = frame;
  corrupted.payload = ok.substr(5);
  expect_caught(check_frame(corrupted, 7), "truncated envelope");
  corrupted = frame;
  corrupted.type = net::FrameType::kError;
  expect_caught(check_frame(corrupted, 7), "error frame type");

  if (!check_page(ok, true, {1, 2, 3, 9}, 3, INT64_MAX).empty()) {
    missed.push_back("a correct id page was rejected");
  }
  expect_caught(check_page(ok, true, {1, 2, 4}, 0, INT64_MAX), "wrong id set");
  expect_caught(check_page(ok, true, {1, 2}, 0, INT64_MAX), "extra id");
  expect_caught(check_page(ok, true, {0, 1, 2, 3}, 3, INT64_MAX), "page not the first ids");

  workload::DocumentGenerator generator(default_profile(1));
  const xml::Document doc = generator.generate(0);
  const std::string body = "<catalogResponse status=\"ok\" protocol=\"1\" version=\"1\"><results>"
                           "<result objectID=\"0\">" + xml::write(doc) + "</result></results>"
                           "</catalogResponse>";
  if (!check_fetch(body, xml::canonical(doc)).empty()) missed.push_back("a correct fetch was rejected");
  expect_caught(check_fetch(body, xml::canonical(generator.generate(1))), "wrong fetched document");
  return missed;
}

}  // namespace perfbench
