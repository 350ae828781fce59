#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>

#include "bench.hpp"
#include "dns/public_suffix.hpp"
#include "gen/scale.hpp"
#include "sflow/trace.hpp"
#include "store/snapshot_codec.hpp"
#include "util/fnv.hpp"

namespace weekbench {

using namespace ixp;

ixp::classify::ChainFetcher World::fetcher(int week) const {
  const gen::InternetModel* m = model.get();
  return [m, week](net::Ipv4Addr addr, int times) {
    return m->fetch_chains(addr, times, week);
  };
}

namespace {

/// The model configuration for a run: the CLI's default scale (or the test
/// preset for smoke runs) with the model seed derived from `seed`.
gen::ScaleConfig scale_for(bool quick, std::uint64_t seed) {
  gen::ScaleConfig cfg =
      quick ? gen::ScaleConfig::test() : gen::ScaleConfig::bench(1.0 / 256.0);
  // Seed 0 keeps the CLI's own model; every other seed draws a new world
  // of the same shape.
  cfg.seed += seed * 0x9E37'79B9'7F4A'7C15ULL;
  return cfg;
}

/// Builds the world; the model constructor is the `gen.model` span.
World build_world(const gen::ScaleConfig& cfg, Tracer& tracer) {
  World world;
  {
    auto span = tracer.scope("gen.model");
    world.model = std::make_unique<gen::InternetModel>(cfg);
  }
  {
    auto span = tracer.scope("gen.workload");
    world.workload = std::make_unique<gen::Workload>(*world.model);
  }
  std::vector<net::Asn> members;
  {
    auto span = tracer.scope("fabric.members_at");
    for (const auto* m : world.model->ixp().members_at(cfg.last_week))
      members.push_back(m->asn);
  }
  {
    auto span = tracer.scope("net.classify_locality");
    world.locality =
        std::make_unique<std::unordered_map<net::Asn, net::Locality>>(
            world.model->as_graph().classify(members));
  }
  world.vantage = std::make_unique<core::VantagePoint>(
      world.model->ixp(), world.model->routing(), world.model->geo_db(),
      *world.locality, world.model->dns_db(), dns::PublicSuffixList::builtin(),
      world.model->root_store());
  return world;
}

}  // namespace

World timed_setup(const RunConfig& config, Tracer& tracer,
                  RunRecord& record) {
  const gen::ScaleConfig cfg = scale_for(config.quick, config.seed);
  const int builds = config.trace ? 1 : 5;
  std::vector<double> times;
  World world;
  for (int i = 0; i < builds; ++i) {
    world = World{};  // free the previous build before timing the next
    const auto start = Clock::now();
    auto span = tracer.scope("bench.setup");
    world = build_world(cfg, tracer);
    times.push_back(seconds_since(start));
  }
  record.set("setup_s", median(times), "s");
  return world;
}

TraceFile write_trace(const World& world, int week, const std::string& path,
                      Tracer& tracer) {
  auto span = tracer.scope("gen.write_trace", week);
  TraceFile file;
  file.path = path;
  std::ofstream out{path, std::ios::binary};
  sflow::TraceWriter writer{out, net::Ipv4Addr{172, 16, 0, 1}, 128};
  world.workload->generate_week(
      week, [&](const sflow::FlowSample& s) { writer.write(s); });
  writer.flush();
  out.flush();
  file.samples = writer.samples_written();
  file.datagrams = writer.datagrams_written();
  if (!out) file.samples = file.datagrams = 0;
  return file;
}

// ---- tracer --------------------------------------------------------------------

std::int64_t Tracer::ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

int Tracer::open(std::string name, std::int64_t group) {
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.group = group;
  span.start_ns = ns(Clock::now());
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = ns(Clock::now());
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::record(std::string name, Clock::time_point start,
                    Clock::time_point end, std::int64_t group) {
  if (!enabled_) return;
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.group = group;
  span.start_ns = ns(start);
  span.end_ns = ns(end);
  spans_.push_back(std::move(span));
}

double Tracer::total(const std::string& name) const {
  std::int64_t sum = 0;
  for (const Span& span : spans_)
    if (span.name == name) sum += span.end_ns - span.start_ns;
  return static_cast<double>(sum) * 1e-9;
}

std::map<std::string, double> Tracer::self_by_layer() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  for (const Span& span : spans_) {
    if (span.parent >= 0)
      self[static_cast<std::size_t>(span.parent)] -=
          span.end_ns - span.start_ns;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::string& name = spans_[i].name;
    const std::string layer = name.substr(0, name.find('.'));
    out[layer] += static_cast<double>(self[i]) * 1e-9;
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out{path};
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"group\":" << s.group << "}\n";
  }
  return static_cast<bool>(out);
}

void trim_heap() {
#if defined(__GLIBC__)
  ::malloc_trim(0);
#endif
}

// ---- statistics ----------------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void print_samples(const std::string& label,
                   const std::vector<double>& values) {
  std::cout << label << ": median " << median(values) << " s of "
            << values.size() << " [";
  for (std::size_t i = 0; i < values.size(); ++i)
    std::cout << (i == 0 ? "" : " ") << values[i];
  std::cout << "]\n";
}

Tail supported_tail(std::vector<double> values) {
  Tail tail;
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  tail.value = median(values);
  tail.beyond = values.size() / 2;
  for (const double p : {90.0, 95.0, 99.0, 99.9}) {
    // Nearest-rank percentile; `beyond` samples lie strictly above its rank.
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    const std::size_t beyond = values.size() - rank;
    if (rank == 0 || beyond < 10) break;
    tail = Tail{p, values[rank - 1], beyond};
  }
  return tail;
}

std::uint64_t report_hash(const core::WeeklyReport& report) {
  util::Fnv1a hash;
  for (const std::byte b : store::SnapshotCodec::encode_report(report))
    hash.mix_byte(static_cast<std::uint8_t>(b));
  return hash.value();
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

void RunRecord::check(bool ok, std::uint64_t units, const std::string& what) {
  attempted += units;
  if (!ok) {
    failed += units;
    failures.push_back(what);
  }
}

}  // namespace weekbench
