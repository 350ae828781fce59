// The traced layer pass: the week-45 pipeline taken apart into one public
// call per layer, each timed in its own span, so that the per-layer
// metrics of README.md's table are measured on the same inputs in every
// workload's traced run.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <unordered_set>

#include "analysis/longitudinal.hpp"
#include "bench.hpp"
#include "core/parallel_analyzer.hpp"
#include "dns/public_suffix.hpp"
#include "ingest/ingest_source.hpp"
#include "probe/metadata_pass.hpp"
#include "probe/sweeps.hpp"
#include "serve_stream.hpp"
#include "sflow/mapped_trace.hpp"
#include "store/snapshot_codec.hpp"
#include "store/snapshot_store.hpp"

namespace weekbench {

using namespace ixp;

namespace {

constexpr std::size_t kDatagramSamples = 128;  // samples per trace record

/// Pulls every batch from `source` without analysing it.
sflow::ReaderStats drain_source(ingest::IngestSource& source) {
  ingest::SampleBatch batch;
  while (source.next_batch(batch) == ingest::SourceStatus::kBatch) {
  }
  return source.stats();
}

}  // namespace

void run_layer_pass(const RunConfig& config, const World& world,
                    const TraceFile& trace, Tracer& tracer, RunRecord& record) {
  auto pass = tracer.scope("bench.layer_pass", kWeek);
  const classify::ChainFetcher fetch = world.fetcher(kWeek);
  const auto timed = [&](const char* name, auto&& call) {
    const auto start = Clock::now();
    {
      auto span = tracer.scope(name, kWeek);
      call();
    }
    return seconds_since(start);
  };

  record.set("gen.model_s", tracer.total("gen.model"), "s");

  // ---- net: the routing table rebuilt from its own routes ------------------
  {
    const std::vector<net::Route> routes = world.model->routing().routes();
    net::RoutingTable table;
    record.set("net.routing_build_s", timed("net.routing_build", [&] {
                 for (const net::Route& r : routes)
                   table.announce(r.prefix, r.origin);
               }),
               "s");
    record.check(table.prefix_count() == routes.size(), 1,
                 "rebuilt routing table lost prefixes");
  }

  // ---- gen: the week generated in memory (the input of `ixpscope weeks`) ---
  std::vector<sflow::FlowSample> samples;
  samples.reserve(trace.samples);
  record.set("gen.generate_week_s", timed("gen.generate_week", [&] {
               world.workload->generate_week(
                   kWeek,
                   [&](const sflow::FlowSample& s) { samples.push_back(s); });
             }),
             "s");
  record.check(samples.size() == trace.samples, 1,
               "regenerated week differs in size from the trace");

  // ---- sflow/ingest: pulling the trace with no analysis --------------------
  sflow::ReaderStats pulled;
  record.set("ingest.pull_s", timed("ingest.pull", [&] {
               std::ifstream in{trace.path, std::ios::binary};
               sflow::TraceReader reader{in};
               ingest::ReaderSource source{reader};
               pulled = drain_source(source);
             }),
             "s");
  record.set("sflow.records", static_cast<double>(pulled.datagrams), "count");
  record.check(pulled.errors() == 0 && pulled.datagrams == trace.datagrams &&
                   pulled.samples == trace.samples,
               trace.datagrams, "streamed pull lost or damaged records");

  sflow::MappedTrace mapped;
  (void)timed("sflow.map_trace",
              [&] { mapped = sflow::MappedTrace::open(trace.path); });
  sflow::ReaderStats mapped_pulled;
  record.set("ingest.mapped_pull_s", timed("ingest.mapped_pull", [&] {
               ingest::MappedSource source{mapped};
               mapped_pulled = drain_source(source);
             }),
             "s");
  record.check(mapped_pulled == pulled, trace.datagrams,
               "mapped pull differs from the streamed pull");

  // ---- classify: observing the pre-decoded week, one thread ----------------
  {
    core::WeekSession session = world.vantage->open_week(kWeek);
    const std::span<const sflow::FlowSample> all{samples};
    const double observe_s = timed("classify.observe", [&] {
      for (std::size_t at = 0; at < all.size(); at += kBatch)
        session.observe_batch(all.subspan(at, std::min(kBatch, all.size() - at)));
    });
    record.set("classify.observe_s", observe_s, "s");
    record.set("classify.ns_per_sample",
               observe_s * 1e9 / static_cast<double>(std::max<std::size_t>(
                                     all.size(), 1)),
               "ns");
    record.set("classify.activity_ips",
               static_cast<double>(session.dissector().activity().size()),
               "count");
    record.set("classify.https_candidates",
               static_cast<double>(session.dissector().https_candidates().size()),
               "count");
  }

  // ---- core: the week_s unit itself, as the accounting baseline ------------
  core::WeeklyReport reference_report;
  const double week_s = timed("core.analyze", [&] {
    std::ifstream in{trace.path, std::ios::binary};
    sflow::TraceReader reader{in};
    ingest::ReaderSource source{reader};
    core::ParallelAnalyzer analyzer{*world.vantage, core::ParallelOptions{}};
    reference_report = analyzer.analyze(kWeek, source, fetch);
  });
  const std::vector<std::byte> reference_bytes =
      store::SnapshotCodec::encode_report(reference_report);

  // ---- core: reduce, absorb, finish — the three halves of analyze() --------
  core::WeekSession session = world.vantage->open_week(kWeek);
  core::WeekShard shard = session.make_shard();
  record.set("core.reduce_s", timed("core.reduce", [&] {
               std::ifstream in{trace.path, std::ios::binary};
               sflow::TraceReader reader{in};
               ingest::ReaderSource source{reader};
               core::ParallelAnalyzer analyzer{*world.vantage,
                                               core::ParallelOptions{}};
               shard = analyzer.reduce(session, source);
             }),
             "s");
  const core::WeekShard copy = shard;  // for the component calls below
  record.set("core.absorb_s",
             timed("core.absorb", [&] { session.absorb(std::move(shard)); }),
             "s");
  core::WeeklyReport report;
  const double finish_s =
      timed("core.finish_week", [&] { report = session.finish(fetch); });
  record.set("core.finish_week_s", finish_s, "s");
  const std::vector<std::byte> report_bytes =
      store::SnapshotCodec::encode_report(report);
  record.check(report_bytes == reference_bytes, 1,
               "reduce + absorb + finish differs from analyze()");
  const double seen = static_cast<double>(report.filters.total_samples());
  record.set("classify.kept_share",
             seen == 0.0 ? 0.0
                         : static_cast<double>(report.filters.of(
                               classify::TrafficClass::kPeering)) /
                               seen,
             "ratio");

  // ---- finish_week's components, on a copy of the same shard ---------------
  const dns::PublicSuffixList& psl = dns::PublicSuffixList::builtin();
  probe::HttpsSweepResult sweep_result;
  const double https_s = timed("probe.https_sweep", [&] {
    probe::HttpsSweep sweep{world.model->root_store(), psl, 3};
    sweep_result =
        sweep.run_with_fetcher(copy.dissector().https_candidates(), fetch);
  });
  record.set("probe.https_sweep_s", https_s, "s");
  record.set("probe.engine_issued",
             static_cast<double>(sweep_result.engine.issued), "count");
  record.check(sweep_result.engine.balanced() &&
                   sweep_result.funnel.confirmed ==
                       report.https_funnel.confirmed,
               1, "HTTPS sweep does not reproduce the report's funnel");

  std::vector<net::Ipv4Addr> addrs;
  addrs.reserve(copy.dissector().activity().size());
  for (const auto& [addr, info] : copy.dissector().activity())
    addrs.push_back(addr);
  std::sort(addrs.begin(), addrs.end());
  std::vector<const net::Route*> routes(addrs.size());
  std::vector<const geo::CountryCode*> countries(addrs.size());
  const double routes_s = timed("net.routes_of", [&] {
    world.model->routing().routes_of(addrs, routes);
  });
  const double countries_s = timed("geo.countries_of", [&] {
    world.model->geo_db().countries_of(addrs, countries);
  });
  record.set("net.routes_of_s", routes_s, "s");
  record.set("geo.countries_of_s", countries_s, "s");

  std::vector<std::vector<std::string>> hosts;
  std::unordered_map<net::Ipv4Addr, x509::CertificateChain> chains;
  const std::unordered_set<net::Ipv4Addr> confirmed(
      sweep_result.confirmed.begin(), sweep_result.confirmed.end());
  hosts.reserve(report.servers.size());
  for (const core::ServerObservation& server : report.servers) {
    hosts.push_back(copy.dissector().hosts_of(server.addr));
    if (confirmed.count(server.addr) != 0) {
      auto fetched = fetch(server.addr, 1);
      if (!fetched.empty())
        chains.emplace(server.addr, std::move(fetched.front()));
    }
  }
  std::vector<probe::MetadataItem> items;
  items.reserve(report.servers.size());
  for (std::size_t i = 0; i < report.servers.size(); ++i) {
    const auto chain = chains.find(report.servers[i].addr);
    items.push_back(probe::MetadataItem{
        report.servers[i].addr, hosts[i],
        chain == chains.end() ? nullptr : &chain->second});
  }
  probe::MetadataPassResult harvested;
  const double metadata_s = timed("probe.metadata", [&] {
    const probe::MetadataPass metadata{world.model->dns_db(), psl};
    harvested = metadata.run(items);
  });
  record.set("probe.metadata_s", metadata_s, "s");
  record.set("probe.resolver_hit_rate", harvested.shard.cache.hit_rate(),
             "ratio");
  record.check(harvested.shard.engine.balanced(), 1,
               "metadata engine accounting does not balance");
  record.set("core.finish_self_s",
             finish_s - https_s - routes_s - countries_s - metadata_s, "s");

  // ---- core: merging two shards built from alternating datagrams -----------
  {
    core::WeekSession merged = world.vantage->open_week(kWeek);
    core::WeekShard even = merged.make_shard();
    core::WeekShard odd = merged.make_shard();
    const std::span<const sflow::FlowSample> all{samples};
    for (std::size_t at = 0; at < all.size(); at += kDatagramSamples) {
      core::WeekShard& target = (at / kDatagramSamples) % 2 == 0 ? even : odd;
      target.observe_batch(
          all.subspan(at, std::min(kDatagramSamples, all.size() - at)), at);
    }
    record.set("core.shard_merge_s", timed("core.shard_merge", [&] {
                 merged.absorb(std::move(even));
                 merged.absorb(std::move(odd));
               }),
               "s");
  }
  samples = {};

  // ---- store: encode, commit, load ----------------------------------------
  {
    store::Provenance provenance;
    provenance.format_version = store::kFormatVersion;
    provenance.week = kWeek;
    provenance.model_fingerprint = world.model->config().fingerprint();
    std::vector<std::byte> shard_bytes;
    std::vector<std::byte> encoded_report;
    std::vector<std::byte> provenance_bytes;
    record.set("store.encode_s", timed("store.encode", [&] {
                 shard_bytes = store::SnapshotCodec::encode_shard(copy);
                 encoded_report = store::SnapshotCodec::encode_report(report);
                 provenance_bytes =
                     store::SnapshotCodec::encode_provenance(provenance);
               }),
               "s");
    const store::SnapshotStore snapshots{config.work_dir + "/layer-store"};
    std::string error;
    bool saved = false;
    record.set("store.commit_s", timed("store.commit", [&] {
                 const store::Section sections[] = {
                     {store::kShardSection, shard_bytes},
                     {store::kReportSection, encoded_report},
                     {store::kProvenanceSection, provenance_bytes},
                 };
                 saved = snapshots.ensure_dir(&error) &&
                         snapshots.save(kWeek, sections, &error);
               }),
               "s");
    std::error_code ec;
    const auto bytes = std::filesystem::file_size(snapshots.path_for(kWeek), ec);
    record.set("store.snapshot_bytes", ec ? 0.0 : static_cast<double>(bytes),
               "bytes");
    bool round_trip = false;
    record.set("store.load_s", timed("store.load", [&] {
                 const store::SnapshotFile file = snapshots.load(kWeek);
                 const auto loaded = store::SnapshotCodec::decode_report(
                     file.section(store::kReportSection));
                 const auto loaded_shard = store::SnapshotCodec::decode_shard(
                     file.section(store::kShardSection), world.model->ixp());
                 round_trip = file.ok() && loaded && loaded_shard &&
                              store::SnapshotCodec::encode_report(*loaded) ==
                                  encoded_report;
               }),
               "s");
    record.check(saved && round_trip, 1,
                 "snapshot did not commit or load back to the same report");
  }

  // ---- analysis ------------------------------------------------------------
  record.set("analysis.longitudinal_s", timed("analysis.longitudinal", [&] {
               (void)analysis::summarize_longitudinal(
                   std::span<const core::WeeklyReport>(&report, 1));
             }),
             "s");

  // ---- the week_s accounting ------------------------------------------------
  const double accounted =
      record.metrics["ingest.pull_s"].value +
      record.metrics["classify.observe_s"].value +
      record.metrics["core.absorb_s"].value + finish_s;
  record.set("week.unaccounted_s", week_s - accounted, "s");
  std::cout << "week_s accounting (streamed analyze " << week_s
            << " s): ingest.pull " << record.metrics["ingest.pull_s"].value
            << " + classify.observe "
            << record.metrics["classify.observe_s"].value << " + core.absorb "
            << record.metrics["core.absorb_s"].value << " + core.finish_week "
            << finish_s << " = " << accounted << " s; unaccounted "
            << week_s - accounted << " s\n";

  // ---- serve: burst and open-loop passes, unless the workload ran them -----
  if (record.metrics.count("serve.week_2w_s") == 0) {
    (void)run_serve_passes(world, load_replay(trace.path),
                           report_hash(reference_report), tracer, record);
  }
}

}  // namespace weekbench
