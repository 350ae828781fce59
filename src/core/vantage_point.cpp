#include "core/vantage_point.hpp"

#include <algorithm>
#include <string>

#include "probe/metadata_pass.hpp"
#include "probe/sweeps.hpp"

namespace ixp::core {

namespace {

/// A run of sorted addresses sharing one route, with the route origin's
/// locality class (0/1/2 = A(L)/A(M)/A(G)).
struct RouteRun {
  const net::Route* route;
  int locality;
};

/// One peering IP's evidence, copied out of the activity table.
struct Observed {
  net::Ipv4Addr addr;
  std::uint8_t flags = 0;
  std::uint64_t bytes = 0;
};

template <class T>
std::vector<T>& sort_unique(std::vector<T>& values) {
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

struct DistinctCounts {
  std::size_t prefixes = 0;
  std::size_t ases = 0;
};

/// Fills each locality tally's distinct prefix/AS sets from the runs and
/// returns the distinct counts over all localities.
DistinctCounts collect_distinct(const std::vector<RouteRun>& runs,
                                LocalityTally (&tallies)[3]) {
  std::vector<net::Ipv4Prefix> prefixes;
  std::vector<net::Asn> ases;
  prefixes.reserve(runs.size());
  ases.reserve(runs.size());
  for (const RouteRun& run : runs) {
    prefixes.push_back(run.route->prefix);
    ases.push_back(run.route->origin);
    tallies[run.locality].prefixes.push_back(run.route->prefix);
    tallies[run.locality].ases.push_back(run.route->origin);
  }
  for (LocalityTally& tally : tallies) {
    sort_unique(tally.prefixes);
    sort_unique(tally.ases);
  }
  return DistinctCounts{sort_unique(prefixes).size(), sort_unique(ases).size()};
}

}  // namespace

WeekSession::WeekSession(VantagePoint& vp, int week)
    : vp_(&vp), week_(week), shard_(*vp.ixp_, week) {}

WeekShard WeekSession::make_shard() const {
  return WeekShard{*vp_->ixp_, week_};
}

WeeklyReport WeekSession::finish(const classify::ChainFetcher& fetch) {
  return vp_->finish_week(std::move(shard_), fetch);
}

VantagePoint::VantagePoint(
    const fabric::Ixp& ixp, const net::RoutingTable& routing,
    const geo::GeoDatabase& geo,
    const std::unordered_map<net::Asn, net::Locality>& locality,
    const dns::ZoneDatabase& dns, const dns::PublicSuffixList& psl,
    const x509::RootStore& roots, VantageOptions options)
    : ixp_(&ixp),
      routing_(&routing),
      geo_(&geo),
      locality_(&locality),
      dns_(&dns),
      psl_(&psl),
      roots_(&roots),
      options_(options) {}

WeeklyReport VantagePoint::finish_week(WeekShard&& shard,
                                       const classify::ChainFetcher& fetch) {
  classify::TrafficDissector& dissector = shard.dissector_;
  WeeklyReport report;
  report.week = shard.week();
  report.filters = shard.counters_;

  // ---- HTTPS probing -------------------------------------------------------
  // Candidates arrive sorted by address, so the funnel and the fetches
  // happen in canonical order no matter how the week was sharded. The
  // sweep runs the crawl through the probe engine (lossless model), whose
  // funnel and confirmed set are identical to the synchronous prober's.
  const std::vector<net::Ipv4Addr> candidates = dissector.https_candidates();
  probe::HttpsSweep sweep{*roots_, *psl_, options_.fetches_per_ip};
  probe::HttpsSweepResult sweep_result =
      sweep.run_with_fetcher(candidates, fetch);
  report.https_funnel = sweep_result.funnel;
  const std::vector<net::Ipv4Addr>& confirmed = sweep_result.confirmed;
  std::unordered_map<net::Ipv4Addr, x509::CertificateChain> confirmed_chains;
  for (const net::Ipv4Addr addr : confirmed) {
    dissector.confirm_https(addr);
    auto chains = fetch(addr, 1);
    if (!chains.empty()) confirmed_chains.emplace(addr, std::move(chains.front()));
  }
  report.dissection = dissector.summarize();

  // ---- visibility aggregation ---------------------------------------------
  const auto locality_index = [&](net::Asn asn) -> int {
    const auto it = locality_->find(asn);
    if (it == locality_->end()) return 2;  // unknown: global
    switch (it->second) {
      case net::Locality::kMember: return 0;
      case net::Locality::kNear: return 1;
      default: return 2;
    }
  };

  // Canonical iteration order: sorted by address. Hash-map iteration order
  // depends on insertion history, which differs between shard splits; the
  // sort (plus exact integer byte tallies upstream) is what makes the
  // report — including its floating-point aggregates — bit-identical for
  // any thread count. Each entry is copied out once, so the loop below
  // never probes the activity table again.
  std::vector<Observed> observed;
  observed.reserve(dissector.activity().size());
  for (const auto& [addr, info] : dissector.activity())
    observed.push_back(Observed{addr, info.flags, info.bytes});
  std::sort(observed.begin(), observed.end(),
            [](const Observed& a, const Observed& b) { return a.addr < b.addr; });
  std::vector<net::Ipv4Addr> addrs(observed.size());
  for (std::size_t i = 0; i < observed.size(); ++i) addrs[i] = observed[i].addr;

  // Attribute every address in one batched LPM pass per table: the flat
  // tables prefetch their own arrays a window ahead, and the loop below
  // reads the results through pointers (no per-IP optional copies).
  std::vector<const net::Route*> routes(addrs.size());
  std::vector<const geo::CountryCode*> countries(addrs.size());
  routing_->routes_of(addrs, routes);
  geo_->countries_of(addrs, countries);

  // Sorted addresses arrive in runs sharing one route (and one geo
  // entry), so the per-run work — the tally lookups, the locality class,
  // the distinct-value bookkeeping — happens once per run, and each
  // address pays only for its integer and double tallies. A run's route
  // is recorded when the run starts; the distinct counts come from
  // sort-unique over those records at the end. A route may recur after
  // a nested prefix's run (A, B, A), which only records it twice.
  std::vector<RouteRun> peering_runs;
  std::vector<RouteRun> server_runs;
  std::vector<geo::CountryCode> peering_countries;
  std::vector<geo::CountryCode> server_countries;
  const net::Route* route_run = nullptr;
  const net::Route* server_route_run = nullptr;
  const geo::CountryCode* country_run = nullptr;
  const geo::CountryCode* server_country_run = nullptr;
  int li = 0;
  AsTally* as_tally = nullptr;
  CountryTally* country_tally = nullptr;

  // Host headers per server, collected during aggregation and borrowed by
  // the metadata items below (parallel to report.servers).
  std::vector<std::vector<std::string>> server_hosts;

  report.peering_ips = observed.size();
  for (std::size_t i = 0; i < observed.size(); ++i) {
    const classify::IpActivity info{0, observed[i].bytes, observed[i].flags};
    const net::Route* route = routes[i];
    const geo::CountryCode* country = countries[i];
    const bool server = info.web_server();
    const double info_bytes = static_cast<double>(info.bytes);

    if (route) {
      if (route != route_run) {
        route_run = route;
        li = locality_index(route->origin);
        peering_runs.push_back(RouteRun{route, li});
        as_tally = &report.by_as[route->origin];
      }
      report.peering_locality[li].ips += 1;
      report.peering_locality[li].bytes += info_bytes;
      as_tally->ips += 1;
      as_tally->bytes += info_bytes;
      if (server) {
        if (route != server_route_run) {
          server_route_run = route;
          server_runs.push_back(RouteRun{route, li});
        }
        as_tally->server_ips += 1;
        as_tally->server_bytes += info_bytes;
        report.server_locality[li].ips += 1;
        report.server_locality[li].bytes += info_bytes;
      }
    }
    if (country) {
      if (country != country_run) {
        country_run = country;
        peering_countries.push_back(*country);
        country_tally = &report.by_country[*country];
      }
      country_tally->ips += 1;
      country_tally->bytes += info_bytes;
      if (server) {
        if (country != server_country_run) {
          server_country_run = country;
          server_countries.push_back(*country);
        }
        country_tally->server_ips += 1;
        country_tally->server_bytes += info_bytes;
      }
    }

    if (!server) continue;
    ++report.server_ips;
    ServerObservation obs;
    obs.addr = observed[i].addr;
    obs.bytes = info_bytes;
    obs.http = info.http_server();
    obs.https = info.https_server();
    obs.rtmp = (info.flags & classify::kSeenRtmp1935) != 0;
    obs.also_client = info.client();
    if (route) obs.asn = route->origin;
    if (country) obs.country = *country;

    server_hosts.push_back(dissector.hosts_of(obs.addr));
    report.servers.push_back(std::move(obs));
  }

  const DistinctCounts peering =
      collect_distinct(peering_runs, report.peering_locality);
  report.peering_prefixes = peering.prefixes;
  report.peering_ases = peering.ases;
  const DistinctCounts servers =
      collect_distinct(server_runs, report.server_locality);
  report.server_prefixes = servers.prefixes;
  report.server_ases = servers.ases;
  report.peering_countries = sort_unique(peering_countries).size();
  report.server_countries = sort_unique(server_countries).size();

  // ---- metadata harvest ----------------------------------------------------
  // One batched pass over all servers instead of a per-server harvester
  // loop: PTR/SOA lookups ride the probe engine with a shared resolver
  // cache. The pass is lossless here, so each server's metadata is exactly
  // what MetadataHarvester::harvest would have produced.
  std::vector<probe::MetadataItem> items;
  items.reserve(report.servers.size());
  for (std::size_t i = 0; i < report.servers.size(); ++i) {
    const net::Ipv4Addr addr = report.servers[i].addr;
    const auto chain_it = confirmed_chains.find(addr);
    items.push_back(probe::MetadataItem{
        addr, server_hosts[i],
        chain_it == confirmed_chains.end() ? nullptr : &chain_it->second});
  }
  probe::MetadataPass pass{*dns_, *psl_};
  probe::MetadataPassResult harvested = pass.run(items);
  for (std::size_t i = 0; i < report.servers.size(); ++i) {
    ServerObservation& obs = report.servers[i];
    obs.metadata = std::move(harvested.metadata[i]);
    // §2.4 cleaning: a server whose metadata was entirely cleaned away
    // drops out of the §5 analyses (but still counts as a server IP).
    // (With no metadata at all, hostname is necessarily absent too, so
    // testing it matches the old direct reverse-lookup check.)
    if (!obs.metadata.has_any() &&
        (!server_hosts[i].empty() || obs.metadata.hostname))
      ++report.metadata_cleaned_out;
    report.metadata_coverage.add(obs.metadata);
  }

  return report;
}

}  // namespace ixp::core
