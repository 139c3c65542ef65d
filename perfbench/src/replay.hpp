// Single-threaded layer replay: sends a sample of a run's recorded wire
// requests again through the program's layer entry points one call at a time, so
// the service-internal split (request parse, query decode, engine, response
// build, catalog fetch, service self time) is timed without contention.
// Each read is run once untimed, then three times; every figure is the best
// of the three.
#pragma once

#include <string>
#include <vector>

#include "common.hpp"
#include "core/catalog.hpp"

namespace perfbench {

struct ReplayStats {
  Samples request_parse;   // xml::parse of the request envelope
  Samples query_from_xml;  // core::query_from_xml
  Samples engine;          // MetadataCatalog::query_paged (counts: with QueryPlanInfo)
  Samples response_build;  // MetadataCatalog::build_response of a query page
  Samples catalog_fetch;   // MetadataCatalog::build_response of one object
  Samples service_total;   // CatalogService::handle
  Samples service_self;    // handle minus the layer calls above
  Samples doc_parse;       // document parse on the ingest path
  Samples commit;          // MetadataCatalog::ingest

  double queries = 0;
  double fast_path = 0;
  double rows_scanned = 0;
  double index_probes = 0;
  double rows_materialized = 0;
  double results = 0;
  double response_bytes = 0;
  double response_objects = 0;
  std::size_t skipped = 0;  // requests the replay could not send again
};

/// Replays read requests against `catalog`. When the catalog caches
/// queries, a fresh snapshot (empty cache segment, same epoch) is published
/// before each request so every call does the uncached work.
void replay_reads(hxrc::core::MetadataCatalog& catalog,
                  const std::vector<std::string>& requests, double budget_s,
                  ReplayStats& out);

/// Replays wire ingest requests: request parse (the service's ingest path)
/// then MetadataCatalog::ingest of the carried document.
void replay_ingests(hxrc::core::MetadataCatalog& catalog,
                    const std::vector<std::string>& requests, ReplayStats& out);

}  // namespace perfbench
