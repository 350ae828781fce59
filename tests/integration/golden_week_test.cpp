// Bench-scale golden: week 45 at the CLI's default scale
// (ScaleConfig::bench(1/256), the model `ixpscope generate` and
// `ixpscope analyze` build without --quick), written as a trace file and
// analysed the two ways the CLI offers — streamed with one worker and
// memory-mapped with two. Both reports must encode to the pinned bytes.
//
// Every other parity test runs at test scale; bugs that only show with a
// week's real working set (921K peering IPs, 2.6M samples) land here. The
// pinned hash is FNV-1a 64 over SnapshotCodec::encode_report, so any
// change to a single report byte fails this test — a change that is meant
// to alter the report must re-pin the constant and say why.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <unistd.h>

#include "core/parallel_analyzer.hpp"
#include "core/vantage_point.hpp"
#include "gen/internet.hpp"
#include "gen/workload.hpp"
#include "ingest/ingest_source.hpp"
#include "sflow/mapped_trace.hpp"
#include "sflow/trace.hpp"
#include "store/snapshot_codec.hpp"
#include "util/fnv.hpp"

namespace ixp {
namespace {

constexpr int kWeek = 45;
constexpr std::uint64_t kGoldenReportHash = 0x95b3789b04e95399ULL;

std::uint64_t report_hash(const core::WeeklyReport& report) {
  util::Fnv1a hash;
  for (const std::byte b : store::SnapshotCodec::encode_report(report))
    hash.mix_byte(static_cast<std::uint8_t>(b));
  return hash.value();
}

class GoldenWeekTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const gen::ScaleConfig cfg = gen::ScaleConfig::bench(1.0 / 256.0);
    model_ = new gen::InternetModel{cfg};
    std::vector<net::Asn> members;
    for (const auto* m : model_->ixp().members_at(cfg.last_week))
      members.push_back(m->asn);
    locality_ = new std::unordered_map<net::Asn, net::Locality>(
        model_->as_graph().classify(members));

    path_ = new std::string{::testing::TempDir() + "golden_week45_" +
                            std::to_string(::getpid()) + ".trace"};
    std::ofstream out{*path_, std::ios::binary};
    sflow::TraceWriter writer{out, net::Ipv4Addr{172, 16, 0, 1}, 128};
    const gen::Workload workload{*model_};
    workload.generate_week(
        kWeek, [&](const sflow::FlowSample& s) { writer.write(s); });
    writer.flush();
    out.flush();
    samples_ = writer.samples_written();
  }

  static void TearDownTestSuite() {
    std::filesystem::remove(*path_);
    delete path_;
    delete locality_;
    delete model_;
  }

  static core::VantagePoint make_vantage() {
    return core::VantagePoint{model_->ixp(),   model_->routing(),
                              model_->geo_db(), *locality_,
                              model_->dns_db(), dns::PublicSuffixList::builtin(),
                              model_->root_store()};
  }

  static classify::ChainFetcher fetcher() {
    return [](net::Ipv4Addr addr, int times) {
      return model_->fetch_chains(addr, times, kWeek);
    };
  }

  static gen::InternetModel* model_;
  static std::unordered_map<net::Asn, net::Locality>* locality_;
  static std::string* path_;
  static std::uint64_t samples_;
};

gen::InternetModel* GoldenWeekTest::model_ = nullptr;
std::unordered_map<net::Asn, net::Locality>* GoldenWeekTest::locality_ =
    nullptr;
std::string* GoldenWeekTest::path_ = nullptr;
std::uint64_t GoldenWeekTest::samples_ = 0;

TEST_F(GoldenWeekTest, StreamedOneWorkerMatchesPinnedReport) {
  ASSERT_GT(samples_, 0u);
  core::VantagePoint vp = make_vantage();
  std::ifstream in{*path_, std::ios::binary};
  sflow::TraceReader reader{in};
  ingest::ReaderSource source{reader};
  core::ParallelOptions options;
  options.threads = 1;
  core::ParallelAnalyzer analyzer{vp, options};
  const core::WeeklyReport report =
      analyzer.analyze(kWeek, source, fetcher());
  ASSERT_TRUE(source.ok());
  EXPECT_EQ(report.filters.total_samples(), samples_);
  EXPECT_EQ(report_hash(report), kGoldenReportHash)
      << std::hex << "got 0x" << report_hash(report);
}

TEST_F(GoldenWeekTest, MappedTwoWorkersMatchesPinnedReport) {
  ASSERT_GT(samples_, 0u);
  core::VantagePoint vp = make_vantage();
  const sflow::MappedTrace mapped = sflow::MappedTrace::open(*path_);
  ASSERT_TRUE(mapped.ok());
  ingest::MappedSource source{mapped};
  core::ParallelOptions options;
  options.threads = 2;
  core::ParallelAnalyzer analyzer{vp, options};
  const core::WeeklyReport report =
      analyzer.analyze(kWeek, source, fetcher());
  ASSERT_TRUE(source.ok());
  EXPECT_EQ(report.filters.total_samples(), samples_);
  EXPECT_EQ(report_hash(report), kGoldenReportHash)
      << std::hex << "got 0x" << report_hash(report);
}

}  // namespace
}  // namespace ixp
