// Tests for the waveform-level Fig. 4 receive pipeline.
#include "core/optical_frame.hpp"

#include <gtest/gtest.h>

#include "core/compute_packets.hpp"
#include "photonics/fiber.hpp"

namespace onfiber::core {
namespace {

struct pipeline_fixture {
  commodity_transponder tx{{}, 1};
  commodity_transponder rx{{}, 2};
  photonic_engine engine;

  pipeline_fixture() : engine({}, 3) {
    gemv_task task;
    task.weights = phot::matrix(2, 8);
    for (double& w : task.weights.data) w = 0.5;
    engine.configure_gemv(task);
  }
};

TEST(OpticalFrame, ComputePacketGetsPreamble) {
  pipeline_fixture f;
  const std::vector<double> x(8, 0.5);
  const net::packet pkt = make_gemv_request(net::ipv4(10, 0, 0, 2),
                                            net::ipv4(10, 3, 0, 2), x, 2);
  const optical_frame frame = frame_packet(pkt, f.tx, f.engine);
  EXPECT_EQ(frame.preamble.size(), 17u);  // pilot + 16 bits
  EXPECT_FALSE(frame.body.empty());
}

TEST(OpticalFrame, PlainPacketHasNoPreamble) {
  pipeline_fixture f;
  net::packet pkt;
  pkt.payload.assign(64, 0x55);
  const optical_frame frame = frame_packet(pkt, f.tx, f.engine);
  EXPECT_TRUE(frame.preamble.empty());
}

TEST(OpticalFrame, FullPipelineComputes) {
  pipeline_fixture f;
  const std::vector<double> x(8, 0.5);
  net::packet pkt = make_gemv_request(net::ipv4(10, 0, 0, 2),
                                      net::ipv4(10, 3, 0, 2), x, 2);
  const optical_frame frame = frame_packet(pkt, f.tx, f.engine);
  const auto report = receive_frame(frame, f.rx, f.engine, pkt.payload);
  EXPECT_TRUE(report.preamble_detected);
  EXPECT_TRUE(report.computed);
  EXPECT_EQ(report.symbol_errors, 0u);
  ASSERT_TRUE(report.packet.has_value());
  const auto result = read_gemv_result(*report.packet);
  ASSERT_TRUE(result.has_value());
  EXPECT_NEAR((*result)[0], 0.5 * 8 * 0.5, 0.3);
}

TEST(OpticalFrame, PlainFrameSkipsEngine) {
  pipeline_fixture f;
  net::packet pkt;
  pkt.payload.assign(32, 0xA5);
  const optical_frame frame = frame_packet(pkt, f.tx, f.engine);
  const auto report = receive_frame(frame, f.rx, f.engine, pkt.payload);
  EXPECT_FALSE(report.preamble_detected);
  EXPECT_FALSE(report.computed);
  ASSERT_TRUE(report.packet.has_value());
  EXPECT_EQ(report.packet->payload, pkt.payload);  // untouched
}

TEST(OpticalFrame, SurvivesAmplifiedSpan) {
  pipeline_fixture f;
  const std::vector<double> x(8, 0.4);
  net::packet pkt = make_gemv_request(net::ipv4(10, 0, 0, 2),
                                      net::ipv4(10, 3, 0, 2), x, 2);
  optical_frame frame = frame_packet(pkt, f.tx, f.engine);
  phot::fiber_config fc;
  fc.length_km = 80.0;
  fc.amplified = true;
  fc.symbol_rate_hz = f.tx.config().symbol_rate_hz;
  phot::fiber_span span(fc, 9);
  frame.preamble = span.propagate(frame.preamble);
  frame.body = span.propagate(frame.body);
  const auto report = receive_frame(frame, f.rx, f.engine, pkt.payload);
  EXPECT_TRUE(report.preamble_detected);
  EXPECT_TRUE(report.computed);
  EXPECT_EQ(report.symbol_errors, 0u);
}

TEST(OpticalFrame, CorruptedPreambleBypassesEngine) {
  pipeline_fixture f;
  const std::vector<double> x(8, 0.5);
  net::packet pkt = make_gemv_request(net::ipv4(10, 0, 0, 2),
                                      net::ipv4(10, 3, 0, 2), x, 2);
  optical_frame frame = frame_packet(pkt, f.tx, f.engine);
  // Scramble the preamble phases: detection must fail closed (packet
  // still delivered, just not computed on).
  for (std::size_t i = 1; i < frame.preamble.size(); i += 2) {
    frame.preamble[i] = -frame.preamble[i];
  }
  const auto report = receive_frame(frame, f.rx, f.engine, pkt.payload);
  EXPECT_FALSE(report.preamble_detected);
  EXPECT_FALSE(report.computed);
  ASSERT_TRUE(report.packet.has_value());
  EXPECT_EQ(report.packet->payload, pkt.payload);
}

TEST(OpticalFrame, LatencyAccountsAllStages) {
  pipeline_fixture f;
  const std::vector<double> x(8, 0.5);
  net::packet pkt = make_gemv_request(net::ipv4(10, 0, 0, 2),
                                      net::ipv4(10, 3, 0, 2), x, 2);
  const optical_frame frame = frame_packet(pkt, f.tx, f.engine);
  const auto report = receive_frame(frame, f.rx, f.engine);
  // At least: preamble symbols + body serialization + DSP + compute.
  const double floor = f.rx.config().dsp_latency_s +
                       f.rx.serialize_latency_s(pkt.payload.size());
  EXPECT_GT(report.latency_s, floor);
}

}  // namespace
}  // namespace onfiber::core
