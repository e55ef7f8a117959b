// Property-based tests: parameterized sweeps and randomized invariants
// across the whole stack.
#include <gtest/gtest.h>

#include <numeric>
#include <tuple>

#include "apps/intrusion_detection.hpp"
#include "apps/ip_routing.hpp"
#include "core/compute_packets.hpp"
#include "core/photonic_engine.hpp"
#include "core/runtime.hpp"
#include "core/transponder.hpp"
#include "photonics/fiber.hpp"
#include "photonics/rng.hpp"
#include "protocol/compute_header.hpp"

namespace onfiber {
namespace {

// --------------------------------------------- transponder BER properties

class TransponderSweep
    : public ::testing::TestWithParam<std::tuple<core::line_coding, double>> {
};

TEST_P(TransponderSweep, BerMonotoneInLoss) {
  const auto [coding, loss_db] = GetParam();
  core::transponder_config cfg;
  cfg.coding = coding;
  core::commodity_transponder t(cfg, 1000 + static_cast<int>(loss_db));
  phot::rng g(7);
  std::vector<std::uint8_t> bytes(256);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(g.below(256));
  auto wave = t.transmit(bytes);
  for (auto& e : wave) e *= phot::field_loss_scale(loss_db);
  const auto r = t.receive(wave, bytes);
  if (loss_db <= 0.25) {
    // Clean link: error free. (PAM-4's top eye closes already around
    // 1 dB of *uncompensated* loss — real links equalize/amplify.)
    EXPECT_EQ(r.symbol_errors, 0u) << "loss " << loss_db;
    EXPECT_EQ(r.bytes, bytes);
  } else if (loss_db >= 14.0) {
    // Deep uncompensated loss: the slicer must fail visibly, never
    // silently pass corrupted data as clean.
    EXPECT_GT(r.symbol_errors, 0u) << "loss " << loss_db;
  }
}

INSTANTIATE_TEST_SUITE_P(
    CodingAndLoss, TransponderSweep,
    ::testing::Combine(::testing::Values(core::line_coding::pam2,
                                         core::line_coding::pam4),
                       ::testing::Values(0.0, 0.25, 14.0, 20.0)));

TEST(TransponderProperty, Pam2MoreRobustThanPam4) {
  // At the same uncompensated loss, PAM-2's larger eye must not have a
  // worse symbol-error *rate* (it carries half the bits per symbol).
  const double loss_db = 11.0;
  double rate[2] = {0.0, 0.0};
  int idx = 0;
  for (const auto coding : {core::line_coding::pam2, core::line_coding::pam4}) {
    core::transponder_config cfg;
    cfg.coding = coding;
    core::commodity_transponder t(cfg, 55);
    phot::rng g(9);
    std::vector<std::uint8_t> bytes(512);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(g.below(256));
    auto wave = t.transmit(bytes);
    const double symbols = static_cast<double>(wave.size());
    for (auto& e : wave) e *= phot::field_loss_scale(loss_db);
    rate[idx++] =
        static_cast<double>(t.receive(wave, bytes).symbol_errors) / symbols;
  }
  EXPECT_LE(rate[0], rate[1]);
}

// ------------------------------------------------- protocol fuzz robustness

TEST(ProtocolFuzz, ParseNeverAcceptsRandomBytes) {
  phot::rng g(42);
  int accepted = 0;
  for (int i = 0; i < 20000; ++i) {
    std::uint8_t buf[proto::compute_header_bytes];
    for (auto& b : buf) b = static_cast<std::uint8_t>(g.below(256));
    if (proto::parse({buf, sizeof buf})) ++accepted;
  }
  // Random bytes must essentially never pass magic+version+checksum.
  EXPECT_EQ(accepted, 0);
}

TEST(ProtocolFuzz, ParseHandlesAllLengths) {
  phot::rng g(43);
  for (std::size_t len = 0; len <= 64; ++len) {
    std::vector<std::uint8_t> buf(len);
    for (auto& b : buf) b = static_cast<std::uint8_t>(g.below(256));
    (void)proto::parse(buf);  // must not crash for any length
  }
  SUCCEED();
}

TEST(ProtocolFuzz, TruncatedRealHeaderRejected) {
  proto::compute_header h;
  h.primitive = proto::primitive_id::p1_dot_product;
  const auto wire = proto::serialize(h);
  for (std::size_t keep = 0; keep < wire.size(); ++keep) {
    EXPECT_FALSE(
        proto::parse(std::span<const std::uint8_t>(wire.data(), keep)));
  }
}

// ------------------------------------------------- engine mode properties

class EngineModeSweep
    : public ::testing::TestWithParam<std::tuple<core::compute_mode,
                                                 std::size_t>> {};

TEST_P(EngineModeSweep, GemvAccuracyHolds) {
  const auto [mode, dim] = GetParam();
  core::engine_config cfg;
  cfg.mode = mode;
  core::photonic_engine engine(cfg, 77 + dim);
  core::gemv_task task;
  task.weights = phot::matrix(4, dim);
  phot::rng g(31 + dim);
  for (double& w : task.weights.data) w = g.uniform(-1.0, 1.0);
  engine.configure_gemv(task);

  std::vector<double> x(dim);
  for (double& v : x) v = g.uniform(-1.0, 1.0);
  net::packet pkt = core::make_gemv_request(net::ipv4(1, 0, 0, 1),
                                            net::ipv4(2, 0, 0, 1), x, 4);
  ASSERT_TRUE(engine.process(pkt).computed);
  const auto result = core::read_gemv_result(pkt);
  ASSERT_TRUE(result.has_value());

  const auto exact = phot::gemv_reference(task.weights, x);
  // Error budget: input codec (2/255 per element) propagated through the
  // rows plus analog noise plus result codec at scale dim.
  const double budget = 0.05 * static_cast<double>(dim) + 0.3;
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_NEAR((*result)[r], exact[r], budget)
        << "mode " << static_cast<int>(mode) << " dim " << dim;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndDims, EngineModeSweep,
    ::testing::Combine(::testing::Values(core::compute_mode::on_fiber,
                                         core::compute_mode::oeo_per_hop),
                       ::testing::Values<std::size_t>(4, 16, 64)));

// ------------------------------------------------ runtime conservation law

TEST(RuntimeProperty, EveryComputePacketAccountedFor) {
  // Random Waxman topologies, random deployments, random request mix:
  // delivered + malformed_dropped == submitted, and every delivered
  // require_compute packet either has a result or is counted uncomputed.
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    phot::rng g(seed);
    net::simulator sim;
    core::onfiber_runtime rt(sim,
                             net::make_waxman_topology(10, 100 + seed));
    // Deploy 2 engines at random distinct nodes with a GEMV task.
    core::gemv_task task;
    task.weights = phot::matrix(2, 8);
    for (double& w : task.weights.data) w = 0.5;
    const net::node_id s1 = static_cast<net::node_id>(g.below(10));
    net::node_id s2;
    do {
      s2 = static_cast<net::node_id>(g.below(10));
    } while (s2 == s1);
    rt.deploy_engine(s1, {}, 7).configure_gemv(task);
    rt.deploy_engine(s2, {}, 8);
    rt.install_compute_routes_via_nearest_site();

    constexpr int packets = 30;
    const std::vector<double> x(8, 0.5);
    for (int i = 0; i < packets; ++i) {
      const auto src = static_cast<net::node_id>(g.below(10));
      net::node_id dst;
      do {
        dst = static_cast<net::node_id>(g.below(10));
      } while (dst == src);
      net::packet pkt;
      switch (g.below(3)) {
        case 0:
          pkt = core::make_gemv_request(
              rt.fabric().topo().node_at(src).address,
              rt.fabric().topo().node_at(dst).address, x, 2);
          break;
        case 1:
          pkt = core::make_nonlinear_request(
              rt.fabric().topo().node_at(src).address,
              rt.fabric().topo().node_at(dst).address, x);
          break;
        default: {
          const std::vector<std::uint8_t> word{0xab, 0xcd};
          pkt = core::make_match_request(
              rt.fabric().topo().node_at(src).address,
              rt.fabric().topo().node_at(dst).address, word);
          break;
        }
      }
      rt.submit(std::move(pkt), src);
    }
    sim.run();

    EXPECT_EQ(rt.deliveries().size() + rt.stats().malformed_dropped,
              static_cast<std::size_t>(packets))
        << "seed " << seed;
    for (const auto& d : rt.deliveries()) {
      const auto h = proto::peek_compute_header(d.pkt);
      ASSERT_TRUE(h.has_value());
      // Either it carries a result or the runtime noticed it didn't.
      if (!h->has_result()) {
        EXPECT_GT(rt.stats().uncomputed_delivered, 0u);
      }
    }
  }
}

// --------------------------------------------- parallel-bank equivalences

TEST(ParallelBank, FibLookupAgreesWithSerial) {
  const auto entries = apps::make_synthetic_fib(24, 3, true);
  apps::photonic_fib serial(entries, {}, 5);
  apps::photonic_fib parallel(entries, {}, 5);
  phot::rng g(17);
  for (int i = 0; i < 30; ++i) {
    const net::ipv4 addr(static_cast<std::uint32_t>(g()));
    EXPECT_EQ(serial.lookup(addr), parallel.lookup_parallel(addr));
  }
}

TEST(ParallelBank, FibParallelIsFasterPerLookup) {
  const auto entries = apps::make_synthetic_fib(64, 9, true);
  apps::photonic_fib serial(entries, {}, 5);
  apps::photonic_fib parallel(entries, {}, 5);
  phot::rng g(19);
  constexpr int lookups = 20;
  for (int i = 0; i < lookups; ++i) {
    const net::ipv4 addr(static_cast<std::uint32_t>(g()));
    (void)serial.lookup(addr);
    (void)parallel.lookup_parallel(addr);
  }
  EXPECT_LT(parallel.analog_time_s(), serial.analog_time_s());
}

TEST(ParallelBank, IdsScanAgreesWithSerial) {
  const std::vector<std::vector<std::uint8_t>> sigs{
      {'e', 'v', 'i', 'l', '!'}, {0x13, 0x37, 0x42}};
  const auto w = apps::make_ids_workload(sigs, 6, 48, 0.7, 23);
  apps::photonic_ids serial(sigs, {}, 7);
  apps::photonic_ids parallel(sigs, {}, 7);
  for (const auto& payload : w.payloads) {
    EXPECT_EQ(serial.scan(payload), parallel.scan_parallel(payload));
  }
  EXPECT_LT(parallel.analog_time_s(), serial.analog_time_s());
}

// --------------------------------------------- end-to-end physical chains

class FiberChainSweep : public ::testing::TestWithParam<int> {};

TEST_P(FiberChainSweep, AmplifiedSpansStayClean) {
  // A packet crossing N amplified 80 km spans must still decode cleanly:
  // ASE accumulates but stays above the PAM-4 margin for realistic N.
  const int spans = GetParam();
  core::commodity_transponder t({}, 500 + spans);
  phot::rng g(600 + spans);
  std::vector<std::uint8_t> bytes(128);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(g.below(256));
  phot::waveform wave = t.transmit(bytes);
  for (int s = 0; s < spans; ++s) {
    phot::fiber_config fc;
    fc.length_km = 80.0;
    fc.amplified = true;
    fc.symbol_rate_hz = t.config().symbol_rate_hz;
    phot::fiber_span span(fc,
                          700 + static_cast<std::uint64_t>(spans * 10 + s));
    wave = span.propagate(wave);
  }
  const auto r = t.receive(wave, bytes);
  EXPECT_EQ(r.symbol_errors, 0u) << spans << " spans";
}

INSTANTIATE_TEST_SUITE_P(SpanCounts, FiberChainSweep,
                         ::testing::Values(1, 2, 4, 8));

// ------------------------------------------------- dot-unit determinism

TEST(DeterminismProperty, WholeStackReproducible) {
  // Two identical runs of a nontrivial scenario must agree bit-for-bit.
  const auto run_once = [] {
    net::simulator sim;
    core::onfiber_runtime rt(sim, net::make_figure1_topology());
    core::gemv_task task;
    task.weights = phot::matrix(3, 12);
    for (double& w : task.weights.data) w = 0.3;
    rt.deploy_engine(1, {}, 42).configure_gemv(task);
    rt.install_compute_routes_via_nearest_site();
    const std::vector<double> x(12, 0.4);
    for (int i = 0; i < 5; ++i) {
      rt.submit(core::make_gemv_request(
                    rt.fabric().topo().node_at(0).address,
                    rt.fabric().topo().node_at(3).address, x, 3,
                    static_cast<std::uint32_t>(i)),
                0);
    }
    sim.run();
    std::vector<std::vector<std::uint8_t>> payloads;
    for (const auto& d : rt.deliveries()) payloads.push_back(d.pkt.payload);
    return payloads;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace onfiber
