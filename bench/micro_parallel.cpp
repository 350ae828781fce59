// Micro-benchmark: the sharded parallel week-analysis engine.
//
// Builds the test-scale world once, records week 45's sample stream into
// memory, replicates it a few times so worker ingest dominates the serial
// finish phase, and runs ParallelAnalyzer's span overload across thread
// counts. Per the determinism contract every thread count produces the
// same report, so the only thing that varies is wall-clock.
//
// With --threads N the benchmark measures that single thread count;
// without it, it sweeps 1/2/4/8. Expect near-linear scaling up to the
// physical core count; on a 1-core machine all thread counts collapse
// onto the serial time (plus a little queueing overhead), which is the
// honest result there.
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "core/parallel_analyzer.hpp"
#include "core/vantage_point.hpp"
#include "gen/internet.hpp"
#include "gen/workload.hpp"
#include "ingest/ingest_source.hpp"

namespace {

using namespace ixp;

constexpr int kWeek = 45;
constexpr std::size_t kReplicas = 6;  // amplify ingest vs. finish

struct World {
  std::unique_ptr<gen::InternetModel> model;
  std::unordered_map<net::Asn, net::Locality> locality;
  std::vector<sflow::FlowSample> samples;
};

World build_world() {
  World built;
  built.model = std::make_unique<gen::InternetModel>(gen::ScaleConfig::test());
  const gen::Workload workload{*built.model};
  std::vector<net::Asn> members;
  for (const auto* m : built.model->ixp().members_at(kWeek))
    members.push_back(m->asn);
  built.locality = built.model->as_graph().classify(members);

  std::vector<sflow::FlowSample> week;
  workload.generate_week(
      kWeek, [&](const sflow::FlowSample& s) { week.push_back(s); });
  built.samples.reserve(week.size() * kReplicas);
  for (std::size_t r = 0; r < kReplicas; ++r)
    built.samples.insert(built.samples.end(), week.begin(), week.end());
  return built;
}

void bench_week(bench::Suite& suite, const World& w, unsigned threads) {
  core::VantagePoint vantage{
      w.model->ixp(),   w.model->routing(),  w.model->geo_db(), w.locality,
      w.model->dns_db(), dns::PublicSuffixList::builtin(), w.model->root_store()};
  core::ParallelOptions options;
  options.threads = threads;
  core::ParallelAnalyzer analyzer{vantage, options};
  // No active measurement: the benchmark isolates the ingest fan-out.
  const classify::ChainFetcher no_probe =
      [](net::Ipv4Addr, int) { return std::vector<x509::CertificateChain>{}; };

  suite.run_case("parallel_week/t" + std::to_string(threads), 3,
                 [&](std::uint64_t iters, int) {
                   for (std::uint64_t it = 0; it < iters; ++it) {
                     ingest::SpanSource source{w.samples, 512};
                     const auto report =
                         analyzer.analyze(kWeek, source, no_probe);
                     bench::keep(report.peering_ips);
                   }
                   return iters * w.samples.size();
                 });
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::Suite suite{"parallel", args};
  const World w = build_world();

  if (args.threads > 1) {
    bench_week(suite, w, 1);
    bench_week(suite, w, static_cast<unsigned>(args.threads));
  } else {
    for (const unsigned threads : {1u, 2u, 4u, 8u}) bench_week(suite, w, threads);
  }
  return 0;
}
