#include "sflow/trace.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

namespace ixp::sflow {
namespace {

using net::Ipv4Addr;

FlowSample make_sample(std::uint32_t seq) {
  FrameSpec spec;
  spec.src_mac = MacAddr::from_id(1);
  spec.dst_mac = MacAddr::from_id(2);
  spec.src_ip = Ipv4Addr{10, 0, 0, 1};
  spec.dst_ip = Ipv4Addr{10, 0, 0, 2};
  spec.src_port = 80;
  spec.dst_port = 40000;
  FlowSample sample;
  sample.sequence = seq;
  sample.sampling_rate = 16384;
  const char payload[] = "HTTP/1.1 200 OK\r\n";
  std::vector<std::byte> data(sizeof payload - 1);
  std::memcpy(data.data(), payload, data.size());
  sample.frame = build_tcp_frame(spec, data, 1000 + seq % 400);
  return sample;
}

TEST(Trace, RoundTripsSamplesInOrder) {
  std::stringstream buffer;
  {
    TraceWriter writer{buffer, Ipv4Addr{172, 16, 0, 1}, /*batch=*/7};
    for (std::uint32_t i = 0; i < 100; ++i) writer.write(make_sample(i));
    EXPECT_EQ(writer.samples_written(), 100u);
  }  // destructor flushes the partial batch

  TraceReader reader{buffer};
  ASSERT_TRUE(reader.ok());
  std::uint32_t expected = 0;
  const std::uint64_t delivered =
      reader.for_each([&](const FlowSample& sample) {
        EXPECT_EQ(sample.sequence, expected);
        EXPECT_EQ(sample.sampling_rate, 16384u);
        EXPECT_EQ(sample.frame.frame_length, make_sample(expected).frame.frame_length);
        ++expected;
      });
  EXPECT_EQ(delivered, 100u);
  EXPECT_TRUE(reader.ok());
}

TEST(Trace, FramesSurviveByteForByte) {
  std::stringstream buffer;
  const FlowSample original = make_sample(5);
  {
    TraceWriter writer{buffer, Ipv4Addr{1, 1, 1, 1}};
    writer.write(original);
  }
  TraceReader reader{buffer};
  const auto sample = reader.next();
  ASSERT_TRUE(sample);
  EXPECT_EQ(sample->frame.captured, original.frame.captured);
  EXPECT_EQ(std::memcmp(sample->frame.data.data(), original.frame.data.data(),
                        original.frame.captured),
            0);
  const auto parsed = parse_frame(sample->frame);
  ASSERT_TRUE(parsed);
  EXPECT_TRUE(parsed->is_tcp());
}

TEST(Trace, EmptyTraceDeliversNothing) {
  std::stringstream buffer;
  { TraceWriter writer{buffer, Ipv4Addr{1, 1, 1, 1}}; }
  TraceReader reader{buffer};
  EXPECT_TRUE(reader.ok());
  EXPECT_FALSE(reader.next().has_value());
}

TEST(Trace, RejectsBadMagic) {
  std::stringstream buffer;
  buffer << "NOTATRACEFILE.....";
  TraceReader reader{buffer};
  EXPECT_FALSE(reader.ok());
  EXPECT_FALSE(reader.next().has_value());
}

TEST(Trace, RejectsWrongVersion) {
  std::stringstream buffer;
  buffer.write(kTraceMagic, sizeof kTraceMagic);
  const char version[4] = {0, 0, 0, 99};
  buffer.write(version, 4);
  TraceReader reader{buffer};
  EXPECT_FALSE(reader.ok());
}

TEST(Trace, TruncationDetected) {
  std::stringstream buffer;
  {
    TraceWriter writer{buffer, Ipv4Addr{1, 1, 1, 1}, 4};
    for (std::uint32_t i = 0; i < 8; ++i) writer.write(make_sample(i));
  }
  const std::string full = buffer.str();
  // Cut into the middle of the second datagram.
  std::stringstream cut{full.substr(0, full.size() - 30)};
  TraceReader reader{cut};
  ASSERT_TRUE(reader.ok());
  std::uint64_t delivered = reader.for_each([](const FlowSample&) {});
  EXPECT_EQ(delivered, 4u);   // first datagram intact
  EXPECT_FALSE(reader.ok());  // truncation reported
}

TEST(Trace, ReadBatchCrossesDatagramBoundaries) {
  std::stringstream buffer;
  {
    // 100 samples in datagrams of 7: batches of 9 never line up with them.
    TraceWriter writer{buffer, Ipv4Addr{172, 16, 0, 1}, /*batch=*/7};
    for (std::uint32_t i = 0; i < 100; ++i) writer.write(make_sample(i));
  }
  TraceReader reader{buffer};
  ASSERT_TRUE(reader.ok());

  std::vector<FlowSample> batch;
  std::uint32_t expected = 0;
  std::size_t delivered;
  while ((delivered = reader.read_batch(batch, 9)) > 0) {
    EXPECT_EQ(delivered, batch.size());
    EXPECT_LE(delivered, 9u);
    for (const FlowSample& sample : batch) {
      EXPECT_EQ(sample.sequence, expected);
      ++expected;
    }
  }
  EXPECT_EQ(expected, 100u);
  EXPECT_TRUE(reader.ok());
  EXPECT_TRUE(batch.empty());  // the final call cleared the vector
}

TEST(Trace, ReadBatchLargerThanTraceDeliversEverything) {
  std::stringstream buffer;
  {
    TraceWriter writer{buffer, Ipv4Addr{1, 1, 1, 1}, 4};
    for (std::uint32_t i = 0; i < 10; ++i) writer.write(make_sample(i));
  }
  TraceReader reader{buffer};
  std::vector<FlowSample> batch;
  EXPECT_EQ(reader.read_batch(batch, 1000), 10u);
  for (std::uint32_t i = 0; i < 10; ++i)
    EXPECT_EQ(batch[i].sequence, i);
  EXPECT_EQ(reader.read_batch(batch, 1000), 0u);
  EXPECT_TRUE(reader.ok());
}

TEST(Trace, ReadBatchInterleavesWithNext) {
  std::stringstream buffer;
  {
    TraceWriter writer{buffer, Ipv4Addr{1, 1, 1, 1}, 3};
    for (std::uint32_t i = 0; i < 10; ++i) writer.write(make_sample(i));
  }
  TraceReader reader{buffer};
  std::vector<FlowSample> batch;
  ASSERT_EQ(reader.read_batch(batch, 4), 4u);  // samples 0..3
  const auto single = reader.next();           // sample 4
  ASSERT_TRUE(single);
  EXPECT_EQ(single->sequence, 4u);
  ASSERT_EQ(reader.read_batch(batch, 100), 5u);  // samples 5..9
  EXPECT_EQ(batch.front().sequence, 5u);
  EXPECT_EQ(batch.back().sequence, 9u);
}

TEST(Trace, ReadRecordDeliversDatagramsWithMonotoneKeys) {
  std::stringstream buffer;
  {
    TraceWriter writer{buffer, Ipv4Addr{1, 1, 1, 1}, 4};
    for (std::uint32_t i = 0; i < 10; ++i) writer.write(make_sample(i));
  }
  TraceReader reader{buffer};
  std::uint64_t key = 0;
  std::uint64_t last_key = 0;
  std::uint32_t delivered = 0;
  for (auto record = reader.read_record(key); !record.empty();
       record = reader.read_record(key)) {
    EXPECT_EQ(record.size(), delivered < 8 ? 4u : 2u);  // batches of 4
    if (delivered > 0) {
      EXPECT_GT(key, last_key);
    }
    last_key = key;
    for (const auto& sample : record) EXPECT_EQ(sample.sequence, delivered++);
  }
  EXPECT_EQ(delivered, 10u);
  EXPECT_TRUE(reader.ok());
}

TEST(Trace, ResetReplaysTheSameStream) {
  std::stringstream buffer;
  {
    TraceWriter writer{buffer, Ipv4Addr{1, 1, 1, 1}, 4};
    for (std::uint32_t i = 0; i < 10; ++i) writer.write(make_sample(i));
  }
  TraceReader reader{buffer};
  std::vector<FlowSample> batch;
  ASSERT_EQ(reader.read_batch(batch, 1000), 10u);
  const auto first_stats = reader.stats();

  buffer.clear();
  buffer.seekg(0);
  reader.reset(buffer);
  EXPECT_TRUE(reader.ok());
  ASSERT_EQ(reader.read_batch(batch, 1000), 10u);
  EXPECT_EQ(batch.front().sequence, 0u);
  EXPECT_EQ(batch.back().sequence, 9u);
  // A fresh walk of the same bytes reproduces the same taxonomy.
  EXPECT_EQ(reader.stats(), first_stats);
}

TEST(Trace, FlushWritesPartialBatch) {
  std::stringstream buffer;
  TraceWriter writer{buffer, Ipv4Addr{1, 1, 1, 1}, 100};
  writer.write(make_sample(0));
  writer.flush();
  EXPECT_EQ(writer.datagrams_written(), 1u);
  writer.flush();  // idempotent when nothing is pending
  EXPECT_EQ(writer.datagrams_written(), 1u);
}

TEST(Datagram, CounterSamplesRoundTrip) {
  Datagram d;
  d.agent = Ipv4Addr{172, 16, 0, 1};
  d.counters.push_back(CounterSample{7, 1'000'000'000'000ULL, 2ULL << 40,
                                     999, 12345});
  d.counters.push_back(CounterSample{8, 0, 0, 0, 0});
  const auto decoded = decode(encode(d));
  ASSERT_TRUE(decoded);
  ASSERT_EQ(decoded->counters.size(), 2u);
  EXPECT_EQ(decoded->counters[0], d.counters[0]);
  EXPECT_EQ(decoded->counters[1], d.counters[1]);
}

TEST(Datagram, MixedFlowAndCounterSamples) {
  Datagram d;
  d.agent = Ipv4Addr{1, 2, 3, 4};
  FlowSample sample = make_sample(1);
  d.samples.push_back(sample);
  d.counters.push_back(CounterSample{1, 10, 20, 30, 40});
  const auto decoded = decode(encode(d));
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->samples.size(), 1u);
  EXPECT_EQ(decoded->counters.size(), 1u);
}

}  // namespace
}  // namespace ixp::sflow
